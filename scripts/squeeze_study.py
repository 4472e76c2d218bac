#!/usr/bin/env python3
"""Squeeze study: bottleneck fences whose gaps only a deformable ring can
pass; the rigid disc's infeasibility is certified by inflated-grid A*."""

import argparse
import time

import numpy as np

from hamnav.baselines import astar_rigid
from hamnav.evalkit import episode_metrics
from hamnav.generation import generate_bottleneck
from hamnav.navigator import DefaultMetaPolicy, EpisodeConfig, run_episode
from hamnav.ring import RingParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--maps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    t0 = time.perf_counter()
    wins = 0
    for k in range(args.maps):
        ws = generate_bottleneck(args.seed + k)
        rigid = astar_rigid(ws, 0.1, 0.4)
        cfg = EpisodeConfig(ring=RingParams(), n_max=6000)
        res = run_episode(ws, cfg, DefaultMetaPolicy())
        ok = not rigid.feasible and episode_metrics(res, np.nan).success
        wins += ok
        print(f"map {k:02d}: rigid_feasible={rigid.feasible} ours={res.termination} "
              f"min_clr={res.true_clearances.min():+.3f} "
              f"min_scale={res.qs[:, 5].min():.2f} {'OK' if ok else '--'}")
    print(f"\n{wins}/{args.maps} squeezes with zero penetrations "
          f"({time.perf_counter() - t0:.0f}s)")


if __name__ == "__main__":
    main()
