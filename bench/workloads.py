"""The four benchmark workloads: seeded inputs, one pipeline pass, CLI steps, checks.

Every workload writes its inputs as the files the `graphhodge` CLI reads, so
the program only ever sees generated files, never the seed. `run_pass` runs
the workload's pipeline in-process on the file texts and ends by emitting a
JSON document, as the CLI would. `check_pass` verifies the pass against
oracles the benchmark computes itself from the generated data with plain
numpy/scipy; `cli_steps` lists the `graphhodge <cmd>` runs that are timed as
subprocesses, and `check_cli` compares their documents with the pass.

Checks use float tolerances, never output bytes, so that a change that moves
low-order bits or turns a tiny eigenvalue into an exact zero still passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

import graphhodge as gh
import graphhodge.textio  # noqa: F401  (json_dumps is not re-exported by the package)


@dataclass
class Inputs:
    """Generated files, their texts, sizes known before any pass, and oracle data."""

    files: dict[str, Path]
    sizes: dict[str, int]
    oracle: dict = field(repr=False)

    def __post_init__(self) -> None:
        self.texts = {key: path.read_text() for key, path in self.files.items()}


class Checks:
    """Named pass/fail results; each one counts as an attempted operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def close(self, name: str, value, reference, tol: float) -> None:
        """max |value - reference| <= tol (shapes must match)."""
        value, reference = np.asarray(value, dtype=float), np.asarray(reference, dtype=float)
        if value.shape != reference.shape:
            self.add(name, False, f"shape {value.shape} != {reference.shape}")
            return
        err = float(np.max(np.abs(value - reference), initial=0.0))
        self.add(name, err <= tol, f"max error {err:.3e}, tolerance {tol:.3e}")


def _rng(seed: int, instance: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, instance, stream])


def _gnp(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Erdos-Renyi G(n, p) edges as an (m, 2) array of 1-based ascending pairs."""
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < p
    return np.column_stack([iu[keep] + 1, ju[keep] + 1])


def _gnm(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Uniform random graph with exactly m edges, as 1-based ascending pairs."""
    iu, ju = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(iu.size, m, replace=False))
    return np.column_stack([iu[pick] + 1, ju[pick] + 1])


def _gnm_connected(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Uniform connected graph with exactly m edges (rejection sampling)."""
    while True:
        edges = _gnm(rng, n, m)
        if _components(n, edges) == 1:
            return edges


def _components(n: int, edges: np.ndarray) -> int:
    adj = sp.coo_matrix((np.ones(len(edges)), (edges[:, 0] - 1, edges[:, 1] - 1)), shape=(n, n))
    return int(connected_components(adj, directed=False)[0])


def _write_graph(path: Path, n: int, edges: np.ndarray) -> Path:
    lines = [f"p {n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_table(path: Path, keys, values) -> Path:
    """Cochain TSV: vertex ids then the value, printed exactly (repr round-trips)."""
    lines = [" ".join(str(int(i)) for i in np.atleast_1d(k)) + f" {float(v)!r}" for k, v in zip(keys, values)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _incidence(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Gradient on an ascending edge list: -1 at the smaller endpoint, +1 at the larger."""
    m = len(edges)
    rows = np.repeat(np.arange(m), 2)
    cols = (edges - 1).reshape(-1)
    data = np.tile([-1.0, 1.0], m)
    return sp.csr_matrix((data, (rows, cols)), shape=(m, n))


class Workload:
    """One benchmark workload; BENCHMARK.json records why each one was chosen."""

    name = ""
    # Distinct seeded inputs per run; every round of measurement visits each once.
    instances = 1

    def generate(self, seed: int, instance: int, directory: Path, small: bool = False) -> Inputs:
        raise NotImplementedError

    def run_pass(self, inp: Inputs) -> dict:
        raise NotImplementedError

    def check_pass(self, inp: Inputs, out: dict, checks: Checks) -> None:
        raise NotImplementedError

    def pass_sizes(self, out: dict) -> dict[str, int]:
        return {}

    def summary(self, out: dict) -> dict:
        """The small part of a pass's output that the CLI documents are compared with."""
        raise NotImplementedError

    def setup_files(self, inp: Inputs) -> list[Path]:
        raise NotImplementedError

    def cli_steps(self, inp: Inputs, outdir: Path) -> list[tuple[str, list[str], Path]]:
        raise NotImplementedError

    def check_cli(self, step: str, doc: dict, summary: dict, checks: Checks) -> None:
        raise NotImplementedError


class RankRatings(Workload):
    name = "rank-ratings"

    def generate(self, seed, instance, directory, small=False):
        items, voters, per_voter = (30, 20, 8) if small else (300, 200, 20)
        rng = _rng(seed, instance, 1)
        chosen = np.sort(np.array([rng.choice(items, per_voter, replace=False) for _ in range(voters)]), axis=1)
        scores = rng.integers(1, 6, size=(voters, per_voter))
        lines = ["voter,item,score"]
        for v in range(voters):
            lines += [f"v{v:03d},i{it:03d},{s}" for it, s in zip(chosen[v], scores[v])]
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "ratings.csv"
        path.write_text("\n".join(lines) + "\n")

        # Oracle: per-pair mean score difference and vote count, from the raw ratings.
        a_idx, b_idx = np.triu_indices(per_voter, 1)
        a = chosen[:, a_idx].reshape(-1)
        b = chosen[:, b_idx].reshape(-1)
        diff = (scores[:, a_idx] - scores[:, b_idx]).reshape(-1).astype(float)
        keys, inverse = np.unique(a * items + b, return_inverse=True)
        counts = np.bincount(inverse).astype(float)
        flow = np.bincount(inverse, weights=diff) / counts
        labels = np.unique(np.concatenate([a, b]))
        vid = np.searchsorted(labels, np.column_stack([keys // items, keys % items]))
        oracle = {
            "labels": [f"i{x:03d}" for x in labels],
            "edges": vid + 1,
            "flow": flow,
            "weights": counts,
        }
        oracle["scores"] = _least_squares_scores(len(labels), vid + 1, flow, counts)
        sizes = {"items": items, "voters": voters, "ratings": voters * per_voter, "edges": len(keys)}
        return Inputs({"ratings": path}, sizes, oracle)

    def run_pass(self, inp):
        data = gh.ComparisonData.from_csv(inp.texts["ratings"])
        cf = gh.aggregate(data, model="mean")
        result = gh.rank(cf)
        return {"cf": cf, "result": result, "doc": gh.textio.json_dumps(result.to_json_dict())}

    def check_pass(self, inp, out, checks):
        o, result = inp.oracle, out["result"]
        cert = result.certificate
        scores = np.array([result.scores.get(label, np.nan) for label in o["labels"]])
        ref = o["scores"]
        checks.close("rank.scores_match_laplacian_solve", scores, ref, 1e-6 * max(1.0, np.max(np.abs(ref))))
        total = cert.norm_consistent**2 + cert.norm_locally_inconsistent**2 + cert.norm_globally_inconsistent**2
        checks.close("rank.pythagorean_certificate", total, cert.norm_input**2, 1e-8 * cert.norm_input**2)
        # The certificate must reconstruct the input: |grad s|_w is the consistent norm
        # and |X - grad s|_w^2 the two inconsistent norms together.
        u, v = o["edges"][:, 0] - 1, o["edges"][:, 1] - 1
        consistent = scores[u] - scores[v]
        w, x = o["weights"], o["flow"]
        norm_in = np.sqrt(np.sum(w * x * x))
        checks.close("rank.reconstruction_consistent", np.sqrt(np.sum(w * consistent**2)),
                     cert.norm_consistent, 1e-6 * norm_in)
        checks.close("rank.reconstruction_residual", np.sum(w * (x - consistent) ** 2),
                     cert.norm_locally_inconsistent**2 + cert.norm_globally_inconsistent**2,
                     1e-6 * norm_in**2)
        doc = json.loads(out["doc"])
        checks.add("rank.document", doc["order"] == list(result.order))

    def pass_sizes(self, out):
        cx = out["cf"].complex
        return {"n": cx.n_cliques(1), "edges": cx.n_cliques(2), "triangles": cx.n_cliques(3),
                "nnz_d1": 3 * cx.n_cliques(3)}

    def summary(self, out):
        return {"scores": dict(out["result"].scores), "order": list(out["result"].order)}

    def setup_files(self, inp):
        return [inp.files["ratings"]]

    def cli_steps(self, inp, outdir):
        doc = outdir / "rank.json"
        return [("rank", ["rank", "--input", str(inp.files["ratings"]), "--model", "mean", "--output", str(doc)], doc)]

    def check_cli(self, step, doc, summary, checks):
        labels = sorted(summary["scores"])
        ref = np.array([summary["scores"][k] for k in labels])
        got = np.array([doc["scores"].get(k, np.nan) for k in labels])
        checks.close("cli.rank.scores", got, ref, 1e-9 * max(1.0, np.max(np.abs(ref))))
        checks.add("cli.rank.order", doc["order"] == summary["order"])


def _least_squares_scores(n: int, edges: np.ndarray, flow: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """argmin_s sum_e w_e (s_i - s_j - X_ij)^2, mean zero on each component.

    Solved as the weighted graph-Laplacian system L s = B^T W X with one
    grounded vertex per connected component.
    """
    B = -_incidence(n, edges)  # +1 at i, -1 at j: (B s)_e = s_i - s_j
    W = sp.diags(weights)
    L = (B.T @ W @ B).tocsc()
    rhs = B.T @ (weights * flow)
    ncomp, label = connected_components(L, directed=False)
    grounded = np.array([np.flatnonzero(label == c)[0] for c in range(ncomp)])
    free = np.setdiff1d(np.arange(n), grounded)
    s = np.zeros(n)
    s[free] = spsolve(L[free][:, free], rhs[free])
    for c in range(ncomp):
        members = label == c
        s[members] -= s[members].mean()
    return s


class SpectraGnp(Workload):
    name = "spectra-gnp"
    # LSQR needs 4k-17k iterations depending on the graph, so a run times two
    # graphs in turn. The edge count is fixed at the mean of G(200, 0.1) so that
    # every graph's dense Delta_1 has the same size.
    instances = 2

    def generate(self, seed, instance, directory, small=False):
        n, m = (30, 130) if small else (200, 1990)
        rng = _rng(seed, instance, 2)
        edges = _gnm(rng, n, m)
        swapped = _edge_swap(rng, edges)
        values = rng.standard_normal(len(edges))
        directory.mkdir(parents=True, exist_ok=True)
        files = {
            "graph": _write_graph(directory / "g.txt", n, edges),
            "swap": _write_graph(directory / "g_swap.txt", n, swapped),
            "cochain": _write_table(directory / "x.tsv", edges, values),
        }
        oracle = {"n": n, "edges": edges, "components": _components(n, edges)}
        return Inputs(files, {"n": n, "edges": len(edges)}, oracle)

    def run_pass(self, inp):
        graph = gh.parse_graph(inp.texts["graph"])
        cx = gh.enumerate_cliques(graph, max_order=4)
        spectra = [gh.spectrum(gh.hodge_laplacian(cx, k)) for k in range(3)]
        bettis = [gh.betti(cx, k) for k in range(3)]
        c = gh.read_cochain_tsv(inp.texts["cochain"], cx, 1)
        splits = {m: gh.hodge_decompose(c, method=m) for m in ("two-solve", "laplacian-residual")}
        fa = gh.isospectral_fingerprint(graph, 2)
        fb = gh.isospectral_fingerprint(gh.parse_graph(inp.texts["swap"]), 2)
        distinguished, level = gh.compare_fingerprints(fa, fb)
        doc = gh.textio.json_dumps({
            "spectra": [s.to_json_dict() for s in spectra],
            "betti": bettis,
            "decompose": splits["laplacian-residual"].to_json_dict(),
            "distinguished": distinguished,
            "first_differing_k": level,
        })
        return {"cx": cx, "spectra": spectra, "bettis": bettis, "cochain": c, "splits": splits,
                "fa": fa, "fb": fb, "distinguished": distinguished, "level": level, "doc": doc}

    def check_pass(self, inp, out, checks):
        cx, spectra = out["cx"], out["spectra"]
        counts = [cx.n_cliques(order) for order in range(1, 5)]
        for k, spec in enumerate(spectra):
            # trace(Delta_k) = nnz(d_{k-1}) + nnz(d_k); Delta_0 has no down term.
            expected = (k + 1) * counts[k] * (k >= 1) + (k + 2) * counts[k + 1]
            checks.close(f"spectra.trace_identity_k{k}", spec.eigenvalues.sum(), expected, 1e-9 * max(1, expected))
            lowest = spec.eigenvalues[0] if spec.eigenvalues.size else 0.0
            checks.add(f"spectra.eigenvalues_nonnegative_k{k}", lowest >= -spec.tolerance,
                       f"lowest {lowest:.3e}, tolerance {spec.tolerance:.3e}")
            checks.add(f"spectra.betti_matches_spectrum_k{k}", out["bettis"][k] == spec.kernel_dim)
        checks.add("spectra.betti0_components", out["bettis"][0] == inp.oracle["components"],
                   f"{out['bettis'][0]} vs {inp.oracle['components']}")

        c, two, lap = out["cochain"], out["splits"]["two-solve"], out["splits"]["laplacian-residual"]
        scale = float(np.linalg.norm(c.values))
        for split in (two, lap):
            recon = c.values - (split.exact.values + split.harmonic.values + split.coexact.values)
            checks.close(f"spectra.reconstruction_{split.method}", np.linalg.norm(recon), 0.0, 1e-10 * scale)
        # The exact parts are well conditioned and must agree in norm. The harmonic parts
        # are only determined up to Delta_1's near-kernel (its smallest nonzero eigenvalue
        # is ~1e-3 to 1e-2 here), so they must agree after applying Delta_1, relative to
        # its norm.
        checks.close("spectra.methods_agree_exact", np.linalg.norm(two.exact.values - lap.exact.values),
                     0.0, 1e-7 * scale)
        d0 = _coboundary(cx.cliques(1), cx.cliques(2))
        d1 = _coboundary(cx.cliques(2), cx.cliques(3))
        delta = two.harmonic.values - lap.harmonic.values
        lap_delta = d0 @ (d0.T @ delta) + d1.T @ (d1 @ delta)
        checks.close("spectra.methods_agree_harmonic", np.linalg.norm(lap_delta), 0.0,
                     1e-7 * spectra[1].eigenvalues[-1] * scale)

        for k, (fp, spec) in enumerate(zip(out["fa"], spectra)):
            checks.close(f"spectra.fingerprint_matches_spectrum_k{k}", fp.eigenvalues, spec.eigenvalues, 1e-8)
        checks.close("spectra.swap_preserves_degrees", out["fb"][0].eigenvalues.sum(), 2 * len(inp.oracle["edges"]),
                     1e-9 * len(inp.oracle["edges"]))
        checks.add("spectra.document", json.loads(out["doc"])["betti"] == out["bettis"])

    def pass_sizes(self, out):
        cx = out["cx"]
        return {"triangles": cx.n_cliques(3), "cliques4": cx.n_cliques(4),
                "nnz_d0": 2 * cx.n_cliques(2), "nnz_d1": 3 * cx.n_cliques(3)}

    def summary(self, out):
        lap = out["splits"]["laplacian-residual"]
        return {"ev1": out["spectra"][1].eigenvalues, "betti1": out["spectra"][1].kernel_dim,
                "norms": dict(lap.norms), "distinguished": out["distinguished"], "level": out["level"]}

    def setup_files(self, inp):
        return [inp.files["graph"], inp.files["swap"]]

    def cli_steps(self, inp, outdir):
        g, swap, x = (str(inp.files[k]) for k in ("graph", "swap", "cochain"))
        docs = [outdir / f"{name}.json" for name in ("spectrum", "decompose", "isospectral")]
        return [
            ("spectrum", ["spectrum", "--k", "1", "--input", g, "--output", str(docs[0])], docs[0]),
            ("decompose", ["decompose", "--method", "laplacian-residual", "--input", g, "--cochain", x,
                           "--output", str(docs[1])], docs[1]),
            ("isospectral", ["isospectral", g, swap, "--output", str(docs[2])], docs[2]),
        ]

    def check_cli(self, step, doc, summary, checks):
        if step == "spectrum":
            ev = summary["ev1"]
            checks.close("cli.spectrum.eigenvalues", doc["eigenvalues"], ev, 1e-9 * max(1.0, ev[-1]))
            checks.add("cli.spectrum.betti", doc["betti"] == summary["betti1"])
        elif step == "decompose":
            keys = sorted(summary["norms"])
            ref = np.array([summary["norms"][k] for k in keys])
            checks.close("cli.decompose.norms", [doc["norms"][k] for k in keys], ref, 1e-9 * max(1.0, ref.max()))
        else:
            checks.add("cli.isospectral.verdict",
                       (doc["distinguished"], doc["first_differing_k"]) == (summary["distinguished"], summary["level"]))


def _edge_swap(rng: np.random.Generator, edges: np.ndarray) -> np.ndarray:
    """One degree-preserving double edge swap: (a,b),(c,d) -> (a,d),(c,b)."""
    present = {tuple(e) for e in edges.tolist()}
    while True:
        i, j = rng.choice(len(edges), 2, replace=False)
        (a, b), (c, d) = edges[i], edges[j]
        new = (tuple(sorted((a, d))), tuple(sorted((c, b))))
        if len({a, b, c, d}) == 4 and not (set(new) & present):
            out = np.array(sorted((present - {(a, b), (c, d)}) | set(new)))
            return out


def _coboundary(lower, upper) -> sp.csr_matrix:
    """d mapping (k+1)-cliques to (k+2)-cliques by the alternating face sum."""
    index = {c: i for i, c in enumerate(lower)}
    rows, cols, data = [], [], []
    for r, clique in enumerate(upper):
        for j in range(len(clique)):
            rows.append(r)
            cols.append(index[clique[:j] + clique[j + 1:]])
            data.append(-1.0 if j % 2 else 1.0)
    return sp.csr_matrix((data, (rows, cols)), shape=(len(upper), len(lower)))


class GameProfiles(Workload):
    name = "game-profiles"

    def generate(self, seed, instance, directory, small=False):
        players, strategies = (3, 3) if small else (5, 5)
        rng = _rng(seed, instance, 3)
        shape = (strategies,) * players
        utilities = rng.standard_normal((players,) + shape)
        labels = [[f"s{j}" for j in range(strategies)] for _ in range(players)]
        keys = [",".join(f"s{j}" for j in idx) for idx in np.ndindex(shape)]
        doc = {
            "players": [f"p{i}" for i in range(players)],
            "strategies": labels,
            "utilities": [dict(zip(keys, (float(x) for x in u.reshape(-1)))) for u in utilities],
        }
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "game.json"
        path.write_text(json.dumps(doc))
        profiles = strategies**players
        sizes = {"players": players, "strategies": strategies, "profiles": profiles,
                 "edges": profiles * players * (strategies - 1) // 2}
        return Inputs({"game": path}, sizes, {"utilities": utilities})

    def run_pass(self, inp):
        doc = json.loads(inp.texts["game"])
        form = gh.GameForm.from_tables(doc["strategies"], doc["utilities"])
        sg = gh.strategy_graph(form)
        flow = gh.game_flow(form, sg)
        split = gh.decompose_game_flow(flow)
        potential_game = gh.is_potential_game(form)
        harmonic_game = gh.is_harmonic_game(form)
        nash = gh.pure_nash(form)
        text = gh.textio.json_dumps({
            "flow": flow.values,
            "potential_flow": split.potential_flow.values,
            "harmonic_flow": split.harmonic_flow.values,
            "potential": split.potential.values,
            "is_potential_game": potential_game,
            "is_harmonic_game": harmonic_game,
            "pure_nash": [",".join(p) for p in nash],
        })
        return {"sg": sg, "flow": flow, "split": split, "potential_game": potential_game,
                "harmonic_game": harmonic_game, "nash": nash, "doc": text}

    def check_pass(self, inp, out, checks):
        U = inp.oracle["utilities"]
        players, shape = U.shape[0], U.shape[1:]
        flat = U.reshape(players, -1)
        edges = np.array(out["sg"].graph.sorted_edges) - 1
        u, v = edges[:, 0], edges[:, 1]
        iu, iv = np.array(np.unravel_index(u, shape)), np.array(np.unravel_index(v, shape))
        moved = iu != iv
        checks.add("game.edges_differ_in_one_player",
                   len(edges) == inp.sizes["edges"] and bool(np.all(moved.sum(axis=0) == 1)))
        mover = np.argmax(moved, axis=0)
        expected = flat[mover, v] - flat[mover, u]
        flow = out["flow"].values
        scale = max(1.0, float(np.max(np.abs(expected))))
        checks.close("game.flow_matches_utilities", flow, expected, 1e-12 * scale)

        split = out["split"]
        pf, hf, pot = split.potential_flow.values, split.harmonic_flow.values, split.potential.values
        checks.close("game.flow_is_potential_plus_harmonic", pf + hf, flow, 1e-12 * scale)
        checks.close("game.potential_flow_is_gradient", pf, pot[u] - pot[v], 1e-9 * scale)
        div = np.zeros(flat.shape[1])
        np.add.at(div, u, hf)
        np.add.at(div, v, -hf)
        checks.close("game.harmonic_flow_divergence_free", div, np.zeros_like(div),
                     1e-7 * max(1.0, float(np.linalg.norm(flow))))

        best = np.ones(shape, dtype=bool)
        for i in range(players):
            best &= U[i] >= U[i].max(axis=i, keepdims=True)
        expected_nash = [tuple(f"s{j}" for j in idx) for idx in zip(*np.nonzero(best))]
        checks.add("game.pure_nash_matches_argmax", [tuple(p) for p in out["nash"]] == expected_nash,
                   f"{len(out['nash'])} vs {len(expected_nash)} profiles")
        gradients = flat[:, v] - flat[:, u]
        potential_game = bool(np.all(gradients.max(axis=0) - gradients.min(axis=0) <= 1e-10))
        checks.add("game.is_potential_matches", out["potential_game"] == potential_game)
        total = U.sum(axis=0)
        lap = sum(shape[i] * total - total.sum(axis=i, keepdims=True) for i in range(players))
        checks.add("game.is_harmonic_matches", out["harmonic_game"] == bool(np.max(np.abs(lap)) <= 1e-10))
        checks.add("game.document", len(json.loads(out["doc"])["potential"]) == flat.shape[1])

    def pass_sizes(self, out):
        cx = out["sg"].complex
        return {"triangles": cx.n_cliques(3), "nnz_d0": 2 * cx.n_cliques(2)}

    def summary(self, out):
        return {"names": [",".join(p) for p in out["sg"].profiles], "potential": out["split"].potential.values,
                "is_potential_game": out["potential_game"], "is_harmonic_game": out["harmonic_game"],
                "pure_nash": [",".join(p) for p in out["nash"]]}

    def setup_files(self, inp):
        return [inp.files["game"]]

    def cli_steps(self, inp, outdir):
        doc = outdir / "game.json"
        return [("game", ["game", "--input", str(inp.files["game"]), "--output", str(doc)], doc)]

    def check_cli(self, step, doc, summary, checks):
        ref = summary["potential"]
        got = [doc["potential"].get(name, np.nan) for name in summary["names"]]
        checks.close("cli.game.potential", got, ref, 1e-9 * max(1.0, float(np.max(np.abs(ref)))))
        for key in ("is_potential_game", "is_harmonic_game", "pure_nash"):
            checks.add(f"cli.game.{key}", doc[key] == summary[key])


class CheegerPlap(Workload):
    name = "cheeger-plap"

    def generate(self, seed, instance, directory, small=False):
        n_cut, m_cut, n, p = (10, 18, 100, 0.05) if small else (22, 66, 1500, 0.01)
        rng = _rng(seed, instance, 4)
        cut_edges = _gnm_connected(rng, n_cut, m_cut)
        edges = _gnp(rng, n, p)
        f = np.round(rng.standard_normal(n), 1)  # rounding makes zero-gradient edges
        directory.mkdir(parents=True, exist_ok=True)
        files = {
            "cheeger": _write_graph(directory / "cut.txt", n_cut, cut_edges),
            "plap": _write_graph(directory / "g.txt", n, edges),
            "f": _write_table(directory / "f.tsv", np.arange(1, n + 1), f),
        }
        flat = int(np.sum(f[edges[:, 0] - 1] == f[edges[:, 1] - 1]))
        sizes = {"cheeger_n": n_cut, "cheeger_edges": m_cut, "cuts": 2 ** (n_cut - 1),
                 "n": n, "edges": len(edges), "flat_edges": flat}
        return Inputs(files, sizes, {"cut_n": n_cut, "cut_edges": cut_edges, "n": n, "edges": edges, "f": f})

    def run_pass(self, inp):
        report = gh.cheeger_check(gh.parse_graph(inp.texts["cheeger"]))
        graph = gh.parse_graph(inp.texts["plap"])
        cx = gh.enumerate_cliques(graph, 1)
        f = gh.read_cochain_tsv(inp.texts["f"], cx, 0).values
        p3 = gh.apply_p_laplacian(graph, f, 3.0)
        p1 = gh.apply_p_laplacian(graph, f, 1.0, mode="interval")
        doc = gh.textio.json_dumps({"cheeger": report.to_json_dict(), "p3": p3, "p1": p1})
        return {"report": report, "p3": p3, "p1": p1, "doc": doc}

    def check_pass(self, inp, out, checks):
        o, report = inp.oracle, out["report"]
        n, cut_edges = o["cut_n"], o["cut_edges"]
        inside = np.zeros(n + 1, dtype=bool)
        inside[list(report.cut.subset)] = True
        boundary = int(np.sum(inside[cut_edges[:, 0]] != inside[cut_edges[:, 1]]))
        degree = np.bincount(cut_edges.reshape(-1), minlength=n + 1)
        vol = int(degree[inside].sum())
        ratio = Fraction(boundary, min(vol, int(degree.sum()) - vol))
        checks.add("cheeger.witness_ratio_equals_h", ratio == report.h == report.cut.ratio, f"{ratio} vs {report.h}")
        A = _incidence(n, cut_edges).toarray()
        scale = 1.0 / np.sqrt(degree[1:])
        lam2 = np.linalg.eigvalsh(scale[:, None] * (A.T @ A) * scale[None, :])[1]
        checks.close("cheeger.lambda2_normalized", report.lambda2_normalized, lam2, 1e-9)
        checks.add("cheeger.normalized_inequality_holds", report.normalized_holds)

        edges, f = o["edges"], o["f"]
        u, v = edges[:, 0] - 1, edges[:, 1] - 1
        grad = f[v] - f[u]
        term = np.sign(grad) * np.abs(grad) ** 2
        ref3 = np.zeros(o["n"])
        np.add.at(ref3, v, term)
        np.add.at(ref3, u, -term)
        checks.close("plap.p3_matches_edge_loop", out["p3"], ref3, 1e-9 * max(1.0, np.max(np.abs(ref3))))
        fixed, slack = np.zeros(o["n"]), np.zeros(o["n"])
        np.add.at(fixed, v, np.sign(grad))
        np.add.at(fixed, u, -np.sign(grad))
        flat = (grad == 0).astype(float)
        np.add.at(slack, v, flat)
        np.add.at(slack, u, flat)
        checks.close("plap.p1_intervals_match_edge_loop", out["p1"], np.column_stack([fixed - slack, fixed + slack]),
                     1e-12)
        checks.add("plap.document", json.loads(out["doc"])["cheeger"]["h"] == str(report.h))

    def summary(self, out):
        return {"h": str(out["report"].h), "p3": out["p3"], "p1": out["p1"]}

    def setup_files(self, inp):
        return [inp.files["cheeger"], inp.files["plap"]]

    def cli_steps(self, inp, outdir):
        g, f = str(inp.files["plap"]), str(inp.files["f"])
        docs = [outdir / f"{name}.json" for name in ("cheeger", "plap3", "plap1")]
        return [
            ("cheeger", ["cheeger", "--input", str(inp.files["cheeger"]), "--output", str(docs[0])], docs[0]),
            ("plap3", ["plap", "--input", g, "--p", "3", "--f", f, "--output", str(docs[1])], docs[1]),
            ("plap1", ["plap", "--input", g, "--p", "1", "--f", f, "--output", str(docs[2])], docs[2]),
        ]

    def check_cli(self, step, doc, summary, checks):
        if step == "cheeger":
            checks.add("cli.cheeger.h", doc["h"] == summary["h"])
        elif step == "plap3":
            ref = summary["p3"]
            checks.close("cli.plap3.values", doc["values"], ref, 1e-9 * max(1.0, np.max(np.abs(ref))))
        else:
            checks.close("cli.plap1.intervals", doc["intervals"], summary["p1"], 1e-12)


WORKLOADS = {w.name: w for w in (RankRatings(), SpectraGnp(), GameProfiles(), CheegerPlap())}
