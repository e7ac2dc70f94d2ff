"""Command-line entry point binding all modules to files.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure (the
diagnostic report is still emitted). All structured output is JSON with sorted
keys and 12-significant-digit floats; bulk numeric tables are TSV. The layers
past cochains (operators, spectral, decompose, hodgerank, games, nonlinear) are
imported by the commands that use them. Each command returns its documents and
writes nothing: its main document (a JSON payload, or the MatrixMarket text of
operator and laplacian) and a mapping from side option (plot, flow_out) to that
option's table, the id array and the float columns, chosen where the command
holds the result. main is the one writer: it formats each side table asked for
with textio.id_value_lines, then the main document, and writes them all or none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cochains import WeightScheme, _clique_rows, _cochain, read_cochain_tsv, read_weights_tsv
from .complexes import CliqueComplex, Graph, InputFormatError, enumerate_cliques, parse_graph
from .textio import _Rows, id_value_lines, json_dumps


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _load_weights(args) -> WeightScheme:
    if getattr(args, "weights", None):
        return read_weights_tsv(_read_text(args.weights))
    return WeightScheme.unit()


def _write(args, text: str, **side: str) -> None:
    """Write the main document to --output (stdout when not given) and each side document to
    the path of the option it is named after, all or none.

    Every target file is first opened for appending, which creates a missing one and changes no
    existing one. Only when all of them open is any written, stdout last; when one cannot be
    opened, the files this call created are removed again.
    """
    files = [(args.output, text)] if args.output else []
    files += [(getattr(args, option), doc) for option, doc in side.items()]
    created = []
    try:
        for target, _ in files:
            existed = os.path.lexists(target)
            open(target, "a").close()
            if not existed:
                created.append(target)
        for target, doc in files:
            Path(target).write_text(doc)
    except OSError as exc:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise InputFormatError(f"cannot write {target}: {exc}") from None
    if not args.output:
        sys.stdout.write(text)


def _complex(graph: Graph, k: int) -> CliqueComplex:
    """Cliques through order k+2, all a degree-k operator reads (order 3 for k < 0, for the range error)."""
    return enumerate_cliques(graph, k + 2 if k >= 0 else 3)


def _spectrum(args):
    from .spectral import _check_tolerance, _hodge_spectrum

    if args.tolerance is not None:
        _check_tolerance(args.tolerance)  # before any eigensolve
    cx = _complex(_load_graph(args.input), args.k)
    spec = _hodge_spectrum(cx, args.k, _load_weights(args))
    return spec if args.tolerance is None else spec.with_tolerance(args.tolerance)


def _cmd_cliques(args):
    graph = _load_graph(args.input)
    cx = enumerate_cliques(graph, args.max_order)
    return {
        "n_vertices": graph.n_vertices,
        "max_order": cx.max_order,
        "cliques": {str(k): cx.level(k) for k in range(1, cx.max_order + 1)},
        "counts": {str(k): cx.n_cliques(k) for k in range(1, cx.max_order + 1)},
        "clique_number": cx.clique_number(),
    }, {}


def _cmd_operator(args):
    from .operators import _coboundary_entries, _write_coordinates

    cx = _complex(_load_graph(args.input), args.k)
    faces, signs = _coboundary_entries(cx, args.k, WeightScheme.unit())
    shape = (len(faces), cx.n_cliques(args.k + 1))
    return _write_coordinates(shape, np.arange(shape[0]).repeat(faces.shape[1]), faces.ravel(), signs.ravel()), {}


def _cmd_laplacian(args):
    from .operators import hodge_laplacian, write_matrix

    lap = hodge_laplacian(_complex(_load_graph(args.input), args.k), args.k, _load_weights(args))
    return write_matrix(lap.matrix), {}


def _cmd_spectrum(args):
    spec = _spectrum(args)
    index = np.arange(1, len(spec.eigenvalues) + 1)[:, None]  # 1-based
    return spec.to_json_dict(), {"plot": (index, (spec.eigenvalues,))}


def _cmd_betti(args):
    spec = _spectrum(args)
    return {"betti": spec.kernel_dim, "k": args.k, "tolerance": spec.tolerance}, {}


def _cmd_decompose(args):
    from .decompose import hodge_decompose

    graph = _load_graph(args.input)
    tables, order = _clique_rows(_read_text(args.cochain), "value")  # the order is the first line's
    if order is None:
        raise InputFormatError("cochain document has no data lines")
    c = _cochain(_complex(graph, order - 1), order, tables)
    split = hodge_decompose(c, _load_weights(args), method=args.method)
    parts = (c, split.exact, split.harmonic, split.coexact)  # per clique: the input, then its three parts
    return split.to_json_dict(), {"plot": (c.complex.level(order), tuple(part.values for part in parts))}


def _cmd_rank(args):
    from .hodgerank import ComparisonData, aggregate, rank

    data = ComparisonData.from_csv(_read_text(args.input))
    cf = aggregate(data, model=args.model)
    result = rank(cf)
    payload = result.to_json_dict()
    payload["model"] = args.model
    ends = np.array(cf.items, dtype=object)[cf.complex.level(2) - 1]  # object, not <U: keeps a trailing NUL
    columns = (cf.weights.vector(cf.complex, 1), cf.flow.values)  # vote counts and flow, in edge order
    payload["edges"] = _Rows(ends, columns, ("item_i", "item_j", "weight", "x"))
    ids = np.column_stack((np.arange(1, len(result.order) + 1), np.array(result.order, dtype=object)))  # not <U
    scores = np.array([result.scores[item] for item in result.order])
    return payload, {"plot": (ids, (scores,))}  # rank, item, score


def _cmd_game(args):
    from .games import (GameForm, _profile_key, decompose_game_flow, game_flow, is_harmonic_game, is_potential_game,
                        pure_nash, strategy_graph)

    try:
        doc = json.loads(_read_text(args.input))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid game JSON: {exc}") from None
    if not isinstance(doc, dict) or "strategies" not in doc or "utilities" not in doc:
        raise InputFormatError("game JSON needs 'strategies' and 'utilities'")
    form = GameForm.from_tables(doc["strategies"], doc["utilities"])
    sg = strategy_graph(form)
    flow = game_flow(form, sg)
    split = decompose_game_flow(flow)
    names = [_profile_key(p) for p in sg.profiles]
    ends = np.array(names, dtype=object)[sg.complex.level(2) - 1]  # object, not <U: keeps a trailing NUL
    return {
        "profiles": names,
        "flow": _Rows(ends, (flow.values,)),
        "potential_flow": _Rows(ends, (split.potential_flow.values,)),
        "harmonic_flow": _Rows(ends, (split.harmonic_flow.values,)),
        "potential": {names[i]: float(v) for i, v in enumerate(split.potential.values)},
        "is_potential_game": is_potential_game(form),
        "is_harmonic_game": is_harmonic_game(form),
        "pure_nash": [_profile_key(p) for p in pure_nash(form)],
    }, {"flow_out": (ends, (flow.values,))}


def _cmd_cheeger(args):
    from .nonlinear import cheeger_check

    return cheeger_check(_load_graph(args.input)).to_json_dict(), {}


def _cmd_plap(args):
    from .nonlinear import apply_p_laplacian

    graph = _load_graph(args.input)
    values = read_cochain_tsv(_read_text(args.f), enumerate_cliques(graph, 1), 0).values
    out = apply_p_laplacian(graph, values, args.p, mode=args.mode)
    payload = {"p": args.p, "intervals" if out.ndim == 2 else "values": out}
    if args.p == 1:
        payload["mode"] = args.mode
    return payload, {}


def _cmd_isospectral(args):
    from .spectral import compare_fingerprints, isospectral_fingerprint

    fa = isospectral_fingerprint(_load_graph(args.graphs[0]), args.max_k)
    fb = isospectral_fingerprint(_load_graph(args.graphs[1]), args.max_k)
    distinguished, level = compare_fingerprints(fa, fb)
    return {
        "distinguished": distinguished,
        "first_differing_k": level,
        "fingerprint_a": [s.to_json_dict() for s in fa],
        "fingerprint_b": [s.to_json_dict() for s in fb],
    }, {}


def build_parser() -> _Parser:
    parser = _Parser(prog="graphhodge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--output", help="write the main document here instead of stdout")
        return p

    p = add("cliques", _cmd_cliques, help="enumerate the clique complex")
    p.add_argument("--input", required=True)
    p.add_argument("--max-order", type=int, default=3)

    for name, func, helptext in (
        ("operator", _cmd_operator, "export a coboundary operator matrix"),
        ("laplacian", _cmd_laplacian, "export a Hodge Laplacian matrix"),
        ("spectrum", _cmd_spectrum, "eigenvalues of a Hodge Laplacian"),
        ("betti", _cmd_betti, "kernel dimension of a Hodge Laplacian"),
    ):
        p = add(name, func, help=helptext)
        p.add_argument("--input", required=True)
        p.add_argument("--k", type=int, required=True)
        if name in ("laplacian", "spectrum", "betti"):
            p.add_argument("--weights", help="weight TSV file")
        if name in ("spectrum", "betti"):
            p.add_argument("--tolerance", type=float, default=None, help="kernel tolerance override")
        if name == "spectrum":
            p.add_argument("--plot", help="write index/eigenvalue TSV here")

    p = add("decompose", _cmd_decompose, help="least-squares Hodge decomposition of a cochain")
    p.add_argument("--input", required=True)
    p.add_argument("--cochain", required=True, help="cochain TSV file")
    p.add_argument("--method", choices=("two-solve", "laplacian-residual"), default="two-solve")
    p.add_argument("--weights")
    p.add_argument("--plot", help="write per-clique component TSV here")

    p = add("rank", _cmd_rank, help="rank items from comparison data")
    p.add_argument("--input", required=True, help="ratings or pairwise CSV")
    p.add_argument("--model", choices=("mean", "logodds"), default="mean")
    p.add_argument("--plot", help="write rank/item/score TSV here")

    p = add("game", _cmd_game, help="analyze a normal-form game")
    p.add_argument("--input", required=True, help="game JSON file")
    p.add_argument("--flow-out", help="write the game flow TSV here")

    p = add("cheeger", _cmd_cheeger, help="exact Cheeger constant and eigenvalue bounds")
    p.add_argument("--input", required=True)

    p = add("plap", _cmd_plap, help="apply the nonlinear p-Laplacian")
    p.add_argument("--input", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--f", required=True, help="vertex-function TSV file")
    p.add_argument("--mode", choices=("interval", "selection"), default="interval")

    p = add("isospectral", _cmd_isospectral, help="compare Hodge spectra of two graphs")
    p.add_argument("graphs", nargs=2, metavar="GRAPH")
    p.add_argument("--max-k", type=int, default=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        try:
            doc, side, code = *args.func(args), 0
        # only decompose raises ConvergenceError: a command that has not loaded it cannot have raised one
        except getattr(sys.modules.get(f"{__package__}.decompose"), "ConvergenceError", ()) as exc:
            residual = exc.residual if math.isfinite(exc.residual) else None  # JSON has no nan/inf
            doc, side, code = {"error": str(exc), "residual": residual, "iterations": exc.iterations}, {}, 2
        # each side table asked for, then the main document, formatted before any file is opened; -0 prints as 0
        tables = {option: id_value_lines(ids, *(column + 0.0 for column in columns), sep="\t")
                  for option, (ids, columns) in side.items() if getattr(args, option)}
        _write(args, doc if isinstance(doc, str) else json_dumps(doc) + "\n", **tables)  # an unwritable path exits 1
        return code
    except (InputFormatError, ValueError) as exc:
        sys.stderr.write(f"graphhodge: error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"graphhodge: error: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
