"""Decompose the three-player road-sharing game into potential and cycle parts.

Usage:
    python scripts/road_sharing_demo.py [--game data/road_sharing.json]

Prints the full game flow, its potential component with the recovered
potential function, and the harmonic six-cycle.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from graphhodge import GameForm, decompose_game_flow, game_flow, pure_nash, strategy_graph


def print_flow(label, sg, cochain):
    print(label)
    for (u, v), value in zip(sg.graph.pairs.tolist(), cochain.values):
        if abs(value) < 1e-9:
            continue
        a, b = ",".join(sg.profiles[u - 1]), ",".join(sg.profiles[v - 1])
        if value > 0:
            print(f"  {a} -> {b}  {value:g}")
        else:
            print(f"  {b} -> {a}  {-value:g}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    default = Path(__file__).resolve().parent.parent / "data" / "road_sharing.json"
    parser.add_argument("--game", default=str(default))
    args = parser.parse_args()

    doc = json.loads(Path(args.game).read_text())
    form = GameForm.from_tables(doc["strategies"], doc["utilities"])
    sg = strategy_graph(form)
    flow = game_flow(form, sg)
    split = decompose_game_flow(flow)

    print_flow("game flow (arrows point toward the mover's improvement):", sg, flow)
    print_flow("\npotential component:", sg, split.potential_flow)
    print("\npotential function:")
    for i, profile in enumerate(sg.profiles):
        print(f"  f({','.join(profile)}) = {split.potential.values[i]:g}")
    print_flow("\nharmonic component:", sg, split.harmonic_flow)
    print(f"\npure Nash equilibria: {pure_nash(form) or 'none'}")


if __name__ == "__main__":
    main()
