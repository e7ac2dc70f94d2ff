"""Fingerprint the command line's outputs over a fixed corpus of runs.

Usage:
    python scripts/cli_digest.py [--small]

Writes a fixed set of inputs to a temporary directory: the bundled data/
files plus seeded graphs with 4-cliques and isolated vertices, a fixed edge
list with repeated and reversed lines, a comment and vertices only its header
declares, weight tables (full, partial and empty), a fixed weight table
naming a reversed edge, a non-edge, a vertex past n, an id past int64 and
triangles the graph lacks, cochains of degree 0..2,
ratings, pairwise votes, a game, a game with a one-strategy player, a
one-player game, a ratings CSV whose comparison graph has four components,
and a game and a pairwise CSV whose labels hold JSON escapes, commas,
non-ASCII text and NULs. It runs
every case through graphhodge.cli.main in this process and prints one line
per run:

    <exit code> <main document> <--plot/--flow-out file> <subcommand and arguments>

where each file is shown by the first 16 hex digits of its sha256, or "-"
when the run wrote none. A run that raises instead of exiting shows the
exception's type as its exit code. The corpus covers every subcommand, k =
0..3, both decompose methods, plap at p = 1 (both modes), 1.5 and 3,
cheeger on random graphs of 10, 21, 22, 23 and 24 vertices, K_22, the 24-cycle,
two K_12 joined by an edge and K_{12,12},
isospectral at --max-k 1..3, and cochains holding -0.0 (an edge listed
against its orientation with value 0, explicit -0 values) through decompose
and plap, which pin the sign of zero each format prints, with one edge whose
gradient is -0.0 - 0 through plap at p = 1 (both modes) and 3, and K_7 and K_7
less one edge through cliques --max-order 8 and operator at k = 0..5, which pin
the faces of 6- and 7-cliques and the empty levels above them, and the seeded
graphs through cliques --max-order 64 and one through spectrum and betti at
k = 40, which pin the empty levels far past the clique number. On one seeded
graph, cochains and weight tables of degree 1 and 2 whose keys are written in
odd and even permutations of their ascending order go through decompose (both
methods), laplacian and spectrum, spectrum and betti at k = 0..2 run under a
full weight table of 10^U(-150, 150), and its cochains of degree 0..2 go through
two-solve decompose under a full weight table of 10^U(-2, 2); finite cochains,
comparison records and game utilities whose least-squares solves overflow
float64, a cochain that fits at
1e150, and a cochain line of 2,000 ids follow, then a seeded G(40, 0.7), whose triangles fill a
dense level, through cliques --max-order 4, and an edge flow on it through
two-solve decompose with no weight table and with one on its triangles, rank on two disjoint
complete comparison graphs of 8 items each, whose triangles fill a dense level too, rank on a
complete comparison graph of 60 items with uneven vote counts and on a triangle-poor K_{20,20}
with 3 edges inside one side, which enumerate no triangle before the split, and game on a
seeded 3 x 3 x 3 game with Gaussian float utilities, whose flow has a round-off curl (the games
above have integer utilities, whose curl is exactly 0), then text for the readers: an
edge list with comments, tabs, CRLF, a late header and repeated edges, edge lists whose
line 7 is the first bad one, a cochain naming a pair twice in opposite order, and plap at
p = 1 on a graph with isolated vertices. It ends with runs
that must exit 1 (--max-order on a degree-k subcommand, p < 1, non-finite
inputs, overflowing results, a negative kernel tolerance, overflowing
comparison flows, ambiguous game profile keys, and without --small an
unwritable --output, an unwritable --plot next to a writable --output,
malformed game JSON shapes: a string where a label list belongs, a boolean
utility, and an edge list with a vertex id past int64).
--small keeps the runs on the bundled data/ files only.

The script imports whichever graphhodge is importable, so two checkouts are
compared run by run with

    diff <(PYTHONPATH=old/src python scripts/cli_digest.py) \\
         <(PYTHONPATH=new/src python scripts/cli_digest.py)
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import tempfile
import warnings
from itertools import combinations, product
from pathlib import Path

import numpy as np

from graphhodge.cli import main as cli_main

DATA = Path(__file__).resolve().parent.parent / "data"
METHODS = ("two-solve", "laplacian-residual")


def graph_text(n, edges) -> str:
    return f"p {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def random_edges(rng, n, p, vertices=None):
    vertices = vertices or range(1, n + 1)
    return [(u, v) for u, v in combinations(vertices, 2) if rng.random() < p]


def cliques(n, edges, order):
    """Ascending cliques of the given order, by brute force (the graphs here are small)."""
    adj = set(edges)
    return [c for c in combinations(range(1, n + 1), order)
            if all(pair in adj for pair in combinations(c, 2))]


def weights_text(rng, n, edges, orders) -> str:
    lines = []
    for order in orders:
        for c in cliques(n, edges, order):
            lines.append(" ".join(map(str, c)) + f" {rng.uniform(0.25, 4.0):.6g}\n")
    return "".join(lines)


def cochain_text(rng, n, edges, degree) -> str:
    return "".join(" ".join(map(str, c)) + f" {rng.normal():.6g}\n"
                   for c in cliques(n, edges, degree + 1))


def write_inputs(root: Path, small: bool) -> dict:
    """Write the corpus files; return {graph name: (path, {weights name: path}, [cochain paths])}."""
    rng = np.random.default_rng(20261018)
    graphs = {}
    for name in ("c3", "c4", "iso_pair_a1", "iso_pair_a2", "iso_pair_b1", "iso_pair_b2"):
        graphs[name] = (DATA / f"{name}.txt", {}, [])
    graphs["c4"][2].append(DATA / "c4_cyclic_flow.tsv")
    if small:
        return graphs
    shapes = {
        "g14a": (14, random_edges(rng, 14, 0.55)),
        "g14b": (14, random_edges(rng, 14, 0.6)),
        "isolated": (12, random_edges(rng, 12, 0.7, vertices=range(1, 9))),  # 9..12 isolated
        "edgeless": (5, []),
    }
    for name, (n, edges) in shapes.items():
        path = root / f"{name}.txt"
        path.write_text(graph_text(n, edges))
        tables = {"full": (1, 2, 3, 4), "edges": (2,), "vertices+triangles": (1, 3), "tetrahedra": (4,),
                  "empty": ()}
        weights = {}
        for label, orders in tables.items():
            weights[label] = root / f"{name}.w.{label}.tsv"
            weights[label].write_text(weights_text(rng, n, edges, orders))
        cochains = []
        for degree in range(3):
            text = cochain_text(rng, n, edges, degree)
            if text:
                cochains.append(root / f"{name}.x{degree}.tsv")
                cochains[-1].write_text(text)
        graphs[name] = (path, weights, cochains)
    # fixed text, drawing nothing from rng: a repeated line, a reversed repeat, a comment, and a header
    # declaring vertices 5 and 6, which no edge touches
    repeats = root / "repeats.txt"
    repeats.write_text("# a triangle and a pendant edge\np 6 4\n1 2\n2 3\n1 2\n2 1\n1 3  # closes it\n3 4\n")
    cochain = root / "repeats.x1.tsv"
    cochain.write_text("1 2 0.5\n3 2 -1.25\n1 3 2\n3 4 0.75\n")
    graphs["repeats"] = (repeats, {}, [cochain])
    return graphs


def application_inputs(root: Path, small: bool) -> dict:
    rng = np.random.default_rng(7)
    files = {"ratings": [DATA / "ratings_small.csv"], "games": [DATA / "road_sharing.json"]}
    if small:
        return files
    ratings = root / "ratings.csv"
    ratings.write_text("voter,item,score\n" + "".join(
        f"v{v},i{i},{int(rng.integers(1, 6))}\n"
        for v in range(15) for i in rng.choice(12, 5, replace=False)))
    pairwise = root / "pairwise.csv"
    pairwise.write_text("".join(
        f"v{v},i{a},i{b},{rng.normal():.4g}\n"
        for v in range(10) for a, b in [tuple(rng.choice(8, 2, replace=False))]))
    files["ratings"] += [ratings, pairwise]
    strategies = [["a", "b", "c"], ["p", "q", "r"], ["x", "y"]]
    keys = [",".join(p) for p in product(*strategies)]
    game = root / "game.json"
    game.write_text(json.dumps({
        "strategies": strategies,
        "utilities": [{k: float(rng.integers(-2, 3)) for k in keys} for _ in strategies],
    }))
    files["games"].append(game)
    # labels with JSON escapes, a comma, non-ASCII text and NULs (a trailing one too), on a generator of
    # their own so the inputs below keep theirs
    label_rng = np.random.default_rng(2028)
    strategies = [['q"uote', "back\\slash", "trail\x00"], ["com,ma", "naïve", "line\u2028sep", "in\x00side"]]
    keys = [",".join(p) for p in product(*strategies)]
    labelled = root / "labels.json"
    labelled.write_text(json.dumps({
        "strategies": strategies,
        "utilities": [{k: float(label_rng.choice([-0.0, 0.0, 1.0, -2.0])) for k in keys} for _ in strategies],
    }))
    files["games"].append(labelled)
    items = np.array(["com,ma", 'q"uote', "trail\x00", "naïve", "back\\slash"], dtype=object)  # <U drops "\x00"
    votes = root / "labels.csv"
    with votes.open("w", newline="") as out:
        csv.writer(out).writerows((f"v{v}", *label_rng.choice(items, 2, replace=False), f"{label_rng.normal():.4g}")
                                  for v in range(12))
    files["ratings"].append(votes)
    cheeger = root / "cheeger.txt"
    path_edges = [(i, i + 1) for i in range(1, 10)]
    cheeger.write_text(graph_text(10, sorted(set(path_edges) | set(random_edges(rng, 10, 0.3)))))
    files["cheeger"] = [cheeger]
    # up to the 24-vertex cap, on a generator of their own so the runs above keep their inputs
    cut_rng = np.random.default_rng(22)
    large = {f"cheeger{n}": (n, [(i, i + 1) for i in range(1, n)] + random_edges(cut_rng, n, 0.25))
             for n in (21, 22)}
    large["k22"] = (22, list(combinations(range(1, 23), 2)))
    large["c24"] = (24, [(i, i + 1) for i in range(1, 24)] + [(1, 24)])
    large |= {f"cheeger{n}": (n, [(i, i + 1) for i in range(1, n)] + random_edges(cut_rng, n, 0.25)) for n in (23, 24)}
    large["barbell24"] = (24, [*combinations(range(1, 13), 2), (12, 13), *combinations(range(13, 25), 2)])
    large["k12_12"] = (24, list(product(range(1, 13), range(13, 25))))
    for name, (n, edges) in large.items():
        files["cheeger"].append(root / f"{name}.txt")
        files["cheeger"][-1].write_text(graph_text(n, sorted(set(edges))))
    # degenerate games and a comparison graph of several components, on a generator of their own
    shape_rng = np.random.default_rng(11)
    for name, strategies in (("lone_strategy", [["a", "b", "c"], ["only"], ["x", "y"]]),
                             ("one_player", [["a", "b", "c", "d"]])):
        keys = [",".join(p) for p in product(*strategies)]
        files["games"].append(root / f"{name}.json")
        files["games"][-1].write_text(json.dumps({
            "strategies": strategies,
            "utilities": [{k: float(shape_rng.integers(-3, 4)) for k in keys} for _ in strategies],
        }))
    split = root / "split_ratings.csv"  # items of one group are never rated by a voter of another
    split.write_text("voter,item,score\n" + "".join(
        f"v{group}{v},{group}{i},{int(shape_rng.integers(1, 6))}\n"
        for group in "abcd" for v in range(4) for i in shape_rng.choice(4, 3, replace=False)))
    files["ratings"].append(split)
    plap_edges = random_edges(rng, 40, 0.15)
    plap_graph = root / "plap.txt"
    plap_graph.write_text(graph_text(40, plap_edges))
    f = root / "plap.f.tsv"
    f.write_text("".join(f"{v} {int(rng.integers(0, 4))}\n" for v in range(1, 41)))  # ties: flat edges
    files["plap"] = [(plap_graph, f)]
    return files


def cases(root: Path, small: bool):
    """(argv, side option) pairs; side is "--plot", "--flow-out" or None."""
    graphs = write_inputs(root, small)
    apps = application_inputs(root, small)
    f4 = root / "c4.f.tsv"
    f4.write_text("1 0\n2 0\n3 3\n4 1\n")
    for name, (g, weights, cochains) in graphs.items():
        yield ["cliques", "--input", g], None
        for order in (1, 2, 4):
            yield ["cliques", "--input", g, "--max-order", str(order)], None
        for k in range(4):
            yield ["operator", "--input", g, "--k", str(k)], None
            for w in [None, *weights.values()]:
                extra = ["--weights", w] if w else []
                yield ["laplacian", "--input", g, "--k", str(k), *extra], None
                yield ["spectrum", "--input", g, "--k", str(k), *extra], "--plot"
                yield ["betti", "--input", g, "--k", str(k), *extra], None
            for tol in ("1e-3", "0.5"):
                yield ["spectrum", "--input", g, "--k", str(k), "--tolerance", tol], None
                yield ["betti", "--input", g, "--k", str(k), "--tolerance", tol], None
        for x in cochains:
            for method in METHODS:
                for w in [None, *(weights[t] for t in ("full", "edges", "empty") if t in weights)]:
                    extra = ["--weights", w] if w else []
                    yield ["decompose", "--input", g, "--cochain", x, "--method", method, *extra], "--plot"
        yield ["cheeger", "--input", g], None
    for csv in apps["ratings"]:
        for model in ("mean", "logodds"):
            yield ["rank", "--input", csv, "--model", model], "--plot"
    for game in apps["games"]:
        yield ["game", "--input", game], "--flow-out"
    for g in apps.get("cheeger", []):
        yield ["cheeger", "--input", g], None
    for g, f in [(DATA / "c4.txt", f4), *apps.get("plap", [])]:
        for p in ("1", "1.5", "2", "3"):
            yield ["plap", "--input", g, "--f", f, "--p", p], None
        yield ["plap", "--input", g, "--f", f, "--p", "1", "--mode", "selection"], None
    pairs = [("iso_pair_a1", "iso_pair_a2"), ("iso_pair_b1", "iso_pair_b2"), ("c3", "c4")]
    if not small:
        pairs += [("g14a", "g14b"), ("isolated", "edgeless")]
    for a, b in pairs:
        for max_k in ("1", "2", "3"):
            yield ["isospectral", graphs[a][0], graphs[b][0], "--max-k", max_k], None
    if not small:
        yield from signed_zeros(root)
        yield from complete_graphs(root)
        yield from deep_orders(graphs)
        yield from stray_weights(root, graphs["repeats"][0], graphs["repeats"][2][0])
        yield from permuted_keys(root, graphs["g14a"][0])
        yield from wide_weights(root, graphs["g14a"][0])
        yield from spread_weights(root, graphs["g14a"][0], graphs["g14a"][2])
        yield from overflowing_solves(root)
        yield from dense_graph(root)
        yield from dense_comparisons(root)
        yield from lazy_comparisons(root)
        yield from round_off_game(root)
        yield from parser_edges(root)
    yield from must_exit_one(root, f4, small)


def signed_zeros(root: Path):
    """Cochains holding -0.0: from an edge listed against its orientation and from explicit -0 values."""
    c4 = DATA / "c4.txt"
    edges, vertices = root / "signed_zeros.x1.tsv", root / "signed_zeros.x0.tsv"
    edges.write_text("2 1 0\n2 3 -0\n3 4 1.5\n1 4 -2\n")
    vertices.write_text("1 -0\n2 0\n3 -0\n4 1\n")
    for x in (edges, vertices):
        for method in METHODS:
            yield ["decompose", "--input", c4, "--cochain", x, "--method", method], "--plot"
    for p in ("1", "3"):
        yield ["plap", "--input", c4, "--f", vertices, "--p", p], None
    edge, ends = root / "signed_zeros.edge.txt", root / "signed_zeros.edge.f.tsv"
    edge.write_text("1 2\n")
    ends.write_text("1 0\n2 -0\n")  # tail 0, head -0.0
    for extra in (["--p", "1"], ["--p", "1", "--mode", "selection"], ["--p", "3"]):
        yield ["plap", "--input", edge, "--f", ends, *extra], None


def complete_graphs(root: Path):
    """K_7 and K_7 less the edge 3 5, fixed text: cliques up to order 8 and d_0..d_5."""
    k7 = list(combinations(range(1, 8), 2))
    for name, edges in (("k7", k7), ("k7_less_edge", [e for e in k7 if e != (3, 5)])):
        graph = root / f"{name}.txt"
        graph.write_text(graph_text(7, edges))
        yield ["cliques", "--input", graph, "--max-order", "8"], None
        for k in range(6):
            yield ["operator", "--input", graph, "--k", str(k)], None


def deep_orders(graphs: dict):
    """cliques --max-order 64 on each seeded graph, and spectrum and betti at k = 40 on one: every order past
    the clique number is an empty level."""
    for name in ("g14a", "g14b", "isolated", "edgeless"):
        yield ["cliques", "--input", graphs[name][0], "--max-order", "64"], None
    for command in ("spectrum", "betti"):
        yield [command, "--input", graphs["g14a"][0], "--k", "40"], None


def stray_weights(root: Path, graph: Path, cochain: Path):
    """Fixed text: a weight table of which only the reversed edge 2 1 is a clique of the graph (a triangle
    and the pendant edge 3 4 on vertices 1..6); each run weighs the cliques it has and ignores the rest."""
    weights = root / "stray.w.tsv"
    weights.write_text("2 1 2.5\n1 4 3\n4 7 1.5\n3 100000000000000000000000 2\n1 2 4 0.5\n2 3 4 0.25\n")
    for name, k, side in (("laplacian", "1", None), ("spectrum", "1", "--plot"), ("betti", "0", None)):
        yield [name, "--input", graph, "--k", k, "--weights", weights], side
    for method in METHODS:
        yield ["decompose", "--input", graph, "--cochain", cochain, "--method", method, "--weights", weights], "--plot"


def permuted_keys(root: Path, graph: Path):
    """Cochains of degree 1 and 2 and one weight table of edges and triangles on a seeded graph, keys written by
    their index i: ascending (i % 3 == 0), reversed (odd), or rotated by one place (odd for an edge, even for a
    triangle). Values come from the index too, so these runs draw nothing from any generator."""
    header, *rows = graph.read_text().splitlines()
    n, edges = int(header.split()[1]), [tuple(map(int, row.split())) for row in rows]

    def written(clique, i):
        return " ".join(map(str, (clique, clique[::-1], clique[1:] + clique[:1])[i % 3]))

    weights = root / "permuted.w.tsv"
    weights.write_text("".join(f"{written(c, i)} {0.5 + 0.25 * (i % 7)}\n"
                               for order in (2, 3) for i, c in enumerate(cliques(n, edges, order))))
    for degree in (1, 2):
        cochain = root / f"permuted.x{degree}.tsv"
        cochain.write_text("".join(f"{written(c, i)} {(i % 9 - 4) * 0.375}\n"
                                   for i, c in enumerate(cliques(n, edges, degree + 1))))
        for method in METHODS:
            for extra in ([], ["--weights", weights]):
                yield ["decompose", "--input", graph, "--cochain", cochain, "--method", method, *extra], "--plot"
        yield ["laplacian", "--input", graph, "--k", str(degree), "--weights", weights], None
        yield ["spectrum", "--input", graph, "--k", str(degree), "--weights", weights], "--plot"


def wide_weights(root: Path, graph: Path):
    """spectrum and betti at k = 0..2 on a seeded graph under a full weight table of orders 1-4 whose weights are
    10^U(-150, 150), on a generator of its own: each Gram entry spans up to 10^+-300 and still fits float64."""
    header, *rows = graph.read_text().splitlines()
    n, edges = int(header.split()[1]), [tuple(map(int, row.split())) for row in rows]
    rng = np.random.default_rng(150)
    weights = root / "wide.w.tsv"
    weights.write_text("".join(" ".join(map(str, c)) + f" {10 ** rng.uniform(-150, 150):.6g}\n"
                               for order in (1, 2, 3, 4) for c in cliques(n, edges, order)))
    for k in range(3):
        yield ["spectrum", "--input", graph, "--k", str(k), "--weights", weights], "--plot"
        yield ["betti", "--input", graph, "--k", str(k), "--weights", weights], None


def spread_weights(root: Path, graph: Path, cochains: list):
    """two-solve decompose of the seeded graph's cochains of degree 0..2 under a full weight table of orders 1-4
    whose weights are 10^U(-2, 2), on a generator of its own: the prepotential's solve on spread weights."""
    header, *rows = graph.read_text().splitlines()
    n, edges = int(header.split()[1]), [tuple(map(int, row.split())) for row in rows]
    rng = np.random.default_rng(2)
    weights = root / "spread.w.tsv"
    weights.write_text("".join(" ".join(map(str, c)) + f" {10 ** rng.uniform(-2, 2):.6g}\n"
                               for order in (1, 2, 3, 4) for c in cliques(n, edges, order)))
    for cochain in cochains:
        yield ["decompose", "--input", graph, "--cochain", cochain, "--method", "two-solve", "--weights", weights], "--plot"


def dense_graph(root: Path):
    """A seeded G(40, 0.7), on a generator of its own: cliques --max-order 4, and two-solve decompose of an edge flow
    with no weight table and with one on its triangles. Its triangles fill a dense level (64 c_3 >= n^3), so the
    coexact solve applies d_1^T d_1 as one n x n product without the table, and as d_1's CSR products with it. Its
    enumeration finds faces both ways: by table lookup at order 3 and at the first lookup of order 4, whose queries
    outnumber the keys' range, and by binary search at the other two lookups of order 4."""
    rng = np.random.default_rng(40)
    n = 40
    edges = random_edges(rng, n, 0.7)
    graph, cochain, weights = root / "dense.txt", root / "dense.x1.tsv", root / "dense.w.triangles.tsv"
    graph.write_text(graph_text(n, edges))
    cochain.write_text(cochain_text(rng, n, edges, 1))
    weights.write_text(weights_text(rng, n, edges, (3,)))
    yield ["cliques", "--input", graph, "--max-order", "4"], None
    for extra in ([], ["--weights", weights]):
        yield ["decompose", "--input", graph, "--cochain", cochain, "--method", "two-solve", *extra], "--plot"


def dense_comparisons(root: Path):
    """rank on fixed pairwise votes over two disjoint complete graphs of 8 items each: 16 vertices and 112 triangles
    fill a dense level (64 c_3 >= n^3), so the coexact solve takes the n x n product, and the potential, solved on
    the edge array, is gauged to mean zero on each of the two components."""
    votes = root / "dense_comparisons.csv"
    votes.write_text("".join(f"v{(i + j) % 3},{group}{i},{group}{j},{((3 * i + 5 * j + 7 * g) % 11 - 5) / 2}\n"
                             for g, group in enumerate("ab") for i, j in combinations(range(8), 2)))
    yield ["rank", "--input", votes], "--plot"


def lazy_comparisons(root: Path):
    """rank on two fixed pairwise vote sets that enumerate no triangle before the split. On 60 items compared all
    pairwise, a pair of opposite parity has one vote and any other pair 2-8, so no triangle holds three one-vote
    pairs and the faceless row maximum scans its edges in more than one batch. On K_{20,20} with 3 disjoint edges
    inside one side (60 triangles), the adjacency matrix is built to count the triangles and dropped, and the
    coexact solve runs on the enumerated faces."""
    uneven, poor = root / "uneven_votes.csv", root / "triangle_poor.csv"
    uneven.write_text("".join(f"v{k},i{i:02d},i{j:02d},{((3 * i + 5 * j + 7 * k) % 11 - 5) / 2}\n"
                              for i, j in combinations(range(60), 2)
                              for k in range(1 if (i + j) % 2 else 2 + (i * j) % 7)))
    sides = [(f"x{i:02d}", f"y{j:02d}") for i in range(20) for j in range(20)]
    poor.write_text("".join(f"v{(3 * i + j) % 4},{a},{b},{(7 * i + 3 * j) % 9 - 4}\n"
                            for i, (a, b) in enumerate(sides + [("x00", "x01"), ("x02", "x03"), ("x04", "x05")])
                            for j in range(2)))
    for votes in (uneven, poor):
        yield ["rank", "--input", votes], "--plot"


def round_off_game(root: Path):
    """game on a seeded 3 x 3 x 3 game with Gaussian float utilities, on a generator of its own: 27 triangles on a
    sparse level, and a flow whose curl is round-off but not zero, so the coexact right-hand side is round-off too."""
    rng = np.random.default_rng(333)
    strategies = [["a", "b", "c"], ["p", "q", "r"], ["x", "y", "z"]]
    game = root / "round_off.game.json"
    game.write_text(json.dumps({"strategies": strategies, "utilities": [
        {",".join(p): float(rng.normal()) for p in product(*strategies)} for _ in strategies]}))
    yield ["game", "--input", game], "--flow-out"


def overflowing_solves(root: Path):
    """Fixed text: finite inputs whose least-squares solves overflow float64 (a triangle, K_6 at +-3e153 under
    both methods, a 0-cochain at -1e308, comparison records and a one-player game), which exit 1; a 1e150
    cochain on the 4-cycle, which fits (both methods); and a cochain line of 2,000 ids, which exits 1."""
    triangle, k6 = root / "overflow.triangle.txt", root / "overflow.k6.txt"
    k6_edges = list(combinations(range(1, 7), 2))
    triangle.write_text(graph_text(3, [(1, 2), (2, 3), (1, 3)]))
    k6.write_text(graph_text(6, k6_edges))
    texts = {
        (triangle, "x1"): "1 2 1e200\n2 3 -1e200\n1 3 3e200\n",
        (triangle, "x0"): "1 -1e308\n",
        (k6, "x1"): "".join(f"{u} {v} {3e153 * (-1) ** i}\n" for i, (u, v) in enumerate(k6_edges)),
        (DATA / "c4.txt", "x1e150"): "1 2 1e150\n2 3 -2e150\n3 4 1e150\n1 4 3e150\n",
        (triangle, "long"): " ".join(map(str, range(1, 2001))) + " 1\n",
    }
    for (graph, tag), text in texts.items():
        cochain = root / f"{graph.stem}.{tag}.tsv"
        cochain.write_text(text)
        for method in METHODS:
            yield ["decompose", "--input", graph, "--cochain", cochain, "--method", method], "--plot"
    records = root / "overflow.records.csv"
    records.write_text("v,a,b,1e308\nw,a,b,-1e308\nx,b,a,1e308\n")
    yield ["rank", "--input", records], "--plot"
    game = root / "overflow.game.json"
    game.write_text(json.dumps({"strategies": [["a", "b"]], "utilities": [{"a": 1e200, "b": -1e308}]}))
    yield ["game", "--input", game], "--flow-out"


def parser_edges(root: Path):
    """Text that the readers' array paths must take as the line-by-line readers did: an edge list with comments,
    tabs, CRLF line ends, blank lines, a header after the edges and repeated edges; edge lists whose line 7 holds
    three tokens, a self-loop, id 0 or an id of 2^63, and line 9 a self-loop (an id past int64 is no line error,
    so that run names line 9); a cochain naming a pair twice in opposite order; and plap at p = 1 on a graph with
    flat edges and isolated vertices."""
    messy = root / "parser.messy.txt"
    messy.write_bytes(b"# tabs and CRLF\r\n1\t2\r\n2 3 # an edge\r\n\r\n2\t1\r\n3  4\t# again\r\n"
                      b"1 3\r\np 7 5\r\n1\t2\r\n")
    yield ["cliques", "--input", messy], None
    yield ["operator", "--input", messy, "--k", "0"], None
    for name, line in (("tokens", "1 2 3"), ("self_loop", "5 5"), ("zero", "0 5"), ("past_int64", f"5 {2**63}")):
        path = root / f"parser.line7.{name}.txt"
        path.write_text(f"# line 7 is the first bad one\n1 2\n2 3\n3 4\n4 5\n1 3\n{line}\n5 6\n6 6\n")
        yield ["cliques", "--input", path], None
    twice = root / "parser.twice.x1.tsv"
    twice.write_text("1 2 0.5\n3 4 1\n2 1 -0.5\n")
    yield ["decompose", "--input", DATA / "c4.txt", "--cochain", twice], "--plot"
    flat, f = root / "parser.flat.txt", root / "parser.flat.f.tsv"
    flat.write_text("p 7 4\n1 2\n2 3\n3 4\n4 1\n")  # 5, 6 and 7 isolated
    f.write_text("1 -0\n2 0\n3 -0\n4 1.5\n5 -0\n6 0\n7 -2\n")
    for mode in ("interval", "selection"):
        yield ["plap", "--input", flat, "--f", f, "--p", "1", "--mode", mode], None


def must_exit_one(root: Path, f4: Path, small: bool):
    c4 = DATA / "c4.txt"
    for name in ("operator", "laplacian", "spectrum", "betti"):
        yield [name, "--input", c4, "--k", "0", "--max-order", "3"], None
        yield [name, "--input", c4, "--k", "-1"], None
    yield ["decompose", "--input", c4, "--cochain", DATA / "c4_cyclic_flow.tsv", "--max-order", "3"], None
    for p in ("0.5", "0", "-3", "nan", "1000"):
        yield ["plap", "--input", c4, "--f", f4, "--p", p], None
    edge, huge = root / "edge.txt", root / "huge.w.tsv"
    edge.write_text("1 2\n")
    huge.write_text("1 2 1e300\n1 1e-300\n")  # a finite table whose Laplacian overflows
    yield ["laplacian", "--input", edge, "--k", "0", "--weights", huge], None
    for value in ("nan", "inf"):
        bad = {
            "cochain": root / f"bad.{value}.x.tsv",
            "weights": root / f"bad.{value}.w.tsv",
            "ratings": root / f"bad.{value}.csv",
            "game": root / f"bad.{value}.json",
        }
        bad["cochain"].write_text(f"1 2 {value}\n")
        bad["weights"].write_text(f"1 2 {value}\n")
        bad["ratings"].write_text(f"v1,a,1\nv1,b,{value}\n")
        bad["game"].write_text(json.dumps({"strategies": [["a", "b"]],
                                           "utilities": [{"a": 1.0, "b": float(value)}]}))  # NaN, Infinity
        yield ["decompose", "--input", c4, "--cochain", bad["cochain"]], None
        yield ["laplacian", "--input", c4, "--k", "1", "--weights", bad["weights"]], None
        yield ["rank", "--input", bad["ratings"]], None
        yield ["game", "--input", bad["game"]], None
    triangle = root / "triangle.txt"
    triangle.write_text("1 2\n2 3\n1 3\n3 4\n")
    yield ["betti", "--input", triangle, "--k", "0", "--tolerance", "-1"], None
    for name, records in (("differences", "v,a,1e308\nv,b,-1e308\n"), ("sums", "v1,a,b,1e308\nv2,a,b,1e308\n")):
        overflowing = root / f"overflowing.{name}.csv"  # finite records whose aggregate overflows
        overflowing.write_text(records)
        yield ["rank", "--input", overflowing, "--model", "mean"], None
    ambiguous = root / "ambiguous.json"  # ("a", "b,x") and ("a,b", "x") both join to "a,b,x"
    table = {"a,x": 1.0, "a,b,x": 2.0, "a,b,b,x": 3.0}
    ambiguous.write_text(json.dumps({"strategies": [["a", "a,b"], ["x", "b,x"]], "utilities": [table, table]}))
    yield ["game", "--input", ambiguous], None
    if small:
        return
    yield ["betti", "--input", c4, "--k", "1", "--output", root / "missing" / "out.doc"], None
    yield ["spectrum", "--input", c4, "--k", "0", "--plot", root / "missing" / "plot.tsv"], None  # writes no --output
    past_int64 = root / "past_int64.txt"
    past_int64.write_text("1 2\n2 100000000000000000000000\n")
    for name in ("cheeger", "cliques"):
        yield [name, "--input", past_int64], None
    shapes = (
        ("top", 5),
        ("table", {"strategies": [["a", "b"]], "utilities": [["a", "b"]]}),
        ("string_players", {"strategies": "ab", "utilities": [{"a,b": 1}, {"a,b": 2}]}),
        ("string_labels", {"strategies": ["ab", ["x"]], "utilities": [{"a,x": 1, "b,x": 2}] * 2}),
        ("boolean_utility", {"strategies": [["a", "b"]], "utilities": [{"a": True, "b": "2"}]}),
    )
    for name, doc in shapes:
        malformed = root / f"malformed.{name}.json"
        malformed.write_text(json.dumps(doc))
        yield ["game", "--input", malformed], None


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16] if path.exists() else "-"


def run_case(argv, side, out: Path, side_out: Path) -> str:
    for path in (out, side_out):
        path.unlink(missing_ok=True)
    full = [str(a) for a in argv]
    if "--output" not in full:
        full += ["--output", str(out)]
    if side:
        full += [side, str(side_out)]
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            code = str(cli_main(full))
        except Exception as exc:  # a traceback is a result too
            code = type(exc).__name__
    return f"{code}\t{digest(out)}\t{digest(side_out)}"


def label(argv, root: Path) -> str:
    def show(a):
        a = str(a)
        for base, tag in ((str(root), "<tmp>"), (str(DATA), "data")):
            a = a.replace(base, tag)
        return a
    return " ".join(show(a) for a in argv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--small", action="store_true", help="only the runs on the bundled data/ files")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out, side_out = root / "out.doc", root / "out.side"
        n = 0
        for argv, side in cases(root, args.small):
            print(f"{run_case(argv, side, out, side_out)}\t{label(argv, root)}")
            n += 1
        print(f"# {n} runs")


if __name__ == "__main__":
    main()
