"""Stress the two-sided eigenvalue bound on the Cheeger constant.

Usage:
    python scripts/cheeger_survey.py [--trials 100] [--max-n 12] [--seed 0]

Samples random connected graphs, computes the exact Cheeger constant by
exhaustive cuts, and tabulates how tight the degree-normalized bound
lambda2/2 <= h <= sqrt(2 lambda2) is; the plain-Laplacian variant is shown for
contrast (it fails for volume-based h, the 4-cycle being the smallest miss).
"""

from __future__ import annotations

import argparse
from itertools import combinations

import numpy as np

from graphhodge import Graph, cheeger_check


def random_connected_graph(rng, n):
    """A random spanning tree (vertex order[i] joined to an earlier one) plus each other pair with chance 0.3."""
    order = rng.permutation(np.arange(1, n + 1))
    earlier = [int(rng.integers(0, i)) for i in range(1, n)]
    tree = np.sort(np.column_stack([order[1:], order[earlier]]), axis=1).reshape(-1, 2)
    pairs = np.array(list(combinations(range(1, n + 1), 2))).reshape(-1, 2)
    return Graph(n, np.concatenate([tree, pairs[rng.random(len(pairs)) < 0.3]]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    normalized_ok = plain_ok = 0
    worst_gap = (np.inf, None)
    print(f"{'n':>3} {'h':>8} {'l2/2':>8} {'sqrt(2 l2)':>11}  tight")
    for _ in range(args.trials):
        n = int(rng.integers(2, args.max_n + 1))
        g = random_connected_graph(rng, n)
        report = cheeger_check(g)
        normalized_ok += report.normalized_holds
        plain_ok += report.plain_holds
        h = float(report.h)
        lower = report.lambda2_normalized / 2
        upper = np.sqrt(2 * report.lambda2_normalized)
        gap = min(h - lower, upper - h)
        if gap < worst_gap[0]:
            worst_gap = (gap, (n, h, lower, upper))
        print(f"{n:>3} {h:>8.4f} {lower:>8.4f} {upper:>11.4f}  {gap:.4f}")
    print(f"\nnormalized bound held {normalized_ok}/{args.trials} times")
    print(f"plain-Laplacian bound held {plain_ok}/{args.trials} times")
    gap, info = worst_gap
    if info:
        n, h, lower, upper = info
        print(f"tightest instance: n={n}, h={h:.4f} inside [{lower:.4f}, {upper:.4f}]")


if __name__ == "__main__":
    main()
