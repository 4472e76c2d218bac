#!/usr/bin/env python3
"""Robustness study: success/SPL degradation across sensing-noise and
damping-scale levels, evaluated on pre-registered nominal-passing scenes."""

import argparse
import time

import numpy as np

from hamnav.baselines import astar_rigid
from hamnav.evalkit import ROBUSTNESS_LEVELS, PerturbedWorkspace, episode_metrics, table_row
from hamnav.generation import generate_workspace
from hamnav.navigator import DefaultMetaPolicy, EpisodeConfig, run_episode
from hamnav.ring import RingParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--episodes", type=int, default=30)
    ap.add_argument("--seed", type=int, default=3000)
    args = ap.parse_args()

    t0 = time.perf_counter()
    cfg = EpisodeConfig(ring=RingParams(), n_max=6000)
    # The nominal spec draws no noise, so the pre-registration episodes are
    # the nominal level's episodes.
    scenes, nominal, pool = [], [], 0
    while len(scenes) < args.episodes and pool < 2 * args.episodes:
        base = generate_workspace("test_id", args.seed + pool)
        lref = astar_rigid(base, 0.1, 0.4).length
        ws = PerturbedWorkspace(base, ROBUSTNESS_LEVELS["nominal"], seed=pool)
        m = episode_metrics(run_episode(ws, cfg, DefaultMetaPolicy()), lref)
        if m.success:
            scenes.append((pool, base, lref))
            nominal.append(m)
        pool += 1
    print(f"pre-registered {len(scenes)} nominal-passing scenes "
          f"(pool {pool}, {time.perf_counter() - t0:.0f}s)")

    print(f"{'level':10s} {'succ':>6s} {'SPL':>6s} {'min_clr':>8s} {'collisions':>10s}")
    for name in ("nominal", "mild", "severe"):
        metrics = nominal
        if name != "nominal":
            metrics = []
            for k, base, lref in scenes:
                ws = PerturbedWorkspace(base, ROBUSTNESS_LEVELS[name], seed=k)
                metrics.append(episode_metrics(run_episode(ws, cfg, DefaultMetaPolicy()), lref))
        row = table_row([m.row() for m in metrics])
        print(f"{name:10s} {row['successes']:4d}/{len(scenes)} {row['SPL']:6.3f} "
              f"{np.mean([m.min_clearance for m in metrics]):8.3f} "
              f"{np.mean([m.collisions for m in metrics]):10.2f}")
    print(f"total {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
