#!/usr/bin/env python3
"""Test-ID benchmark: the adaptive navigator vs PF under matched sensing,
with rigid A* as the path-length reference.  The navigator runs twice: under
the default meta-policy ("ours") and under a regressor trained here on the
reference scenes ("grlsnam_trained": make_reference_dataset(8, 77),
TrainConfig(epochs=40, lr=3e-3, seed=3), under a second)."""

import argparse
import time

from hamnav.baselines import astar_rigid, run_baseline_episode
from hamnav.evalkit import episode_metrics, table_row
from hamnav.generation import generate_workspace
from hamnav.learning import TrainConfig, make_reference_dataset, train_offline
from hamnav.navigator import DefaultMetaPolicy, EpisodeConfig, run_episode
from hamnav.ring import RingParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=50)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--family", default="test_id")
    args = ap.parse_args()

    t0 = time.perf_counter()
    trained, _ = train_offline(make_reference_dataset(8, 77),
                               TrainConfig(epochs=40, lr=3e-3, seed=3))
    rows = {"ours": [], "grlsnam_trained": [], "pf": []}
    for k in range(args.episodes):
        ws = generate_workspace(args.family, args.seed + k)
        lref = astar_rigid(ws, 0.1, 0.4).length
        cfg = EpisodeConfig(ring=RingParams(), n_max=6000)
        ours = run_episode(ws, cfg, DefaultMetaPolicy())
        ours_trained = run_episode(ws, cfg, trained)
        pf = run_baseline_episode(ws, "pf", cfg, robot_radius=0.4)
        rows["ours"].append(episode_metrics(ours, lref).row())
        rows["grlsnam_trained"].append(episode_metrics(ours_trained, lref).row())
        rows["pf"].append(episode_metrics(pf, lref).row())

    print(f"{args.family} x {args.episodes} episodes "
          f"({time.perf_counter() - t0:.0f}s)")
    print(f"{'method':15s} {'SPL':>6s} {'Detour':>7s} {'Succ':>5s} {'Mapping':>8s}")
    for name, method_rows in rows.items():
        row = table_row(method_rows)
        print(f"{name:15s} {row['SPL']:6.3f} {row['Detour']:7.3f} "
              f"{row['successes']:5d} {row['Mapping']:8.3f}")


if __name__ == "__main__":
    main()
