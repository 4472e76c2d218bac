#!/usr/bin/env python3
"""Offline training study: fit the meta-regressor on reference scenes and
compare the friction-loss ablation variants on held-out rollouts."""

import argparse
import time

import numpy as np

from hamnav.cli import config_from_dict
from hamnav.energy import POINT_LAYOUT
from hamnav.learning import make_reference_dataset, scene_rollout, train_offline
from hamnav.navigator import build_tokens
from hamnav.workspace import signed_distances


def penetration_steps(model, scenes):
    mass = np.ones(4)
    total = 0
    for sc in scenes:
        tokens = build_tokens(sc.q0, np.zeros(4), sc.discs, sc.goal, mass, POINT_LAYOUT)
        qs, _ = scene_rollout(sc, model.propose(tokens), horizon=250, tau=0.03, d_hat=1.0)
        clr = np.array([signed_distances(sc.obstacles, q[2:4]).min() for q in qs])
        total += int(np.sum(clr < 0))
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenes", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--lr", type=float, default=3e-3)
    args = ap.parse_args()
    # each variant's TrainConfig is built and checked as a config's [train] table
    variants = {
        "no_fric_no_multi": (1.0, 1.0, 0.0, 0.0),
        "fric_only": (1.0, 1.0, 0.1, 0.0),
        "fric_and_multi": (1.0, 1.0, 0.1, 0.5),
    }
    try:
        configs = {name: config_from_dict({"train": {"epochs": args.epochs, "lr": args.lr,
                                                     "weights": list(weights), "seed": 3}}).train
                   for name, weights in variants.items()}
    except ValueError as e:
        ap.error(str(e))

    t0 = time.perf_counter()
    dataset = make_reference_dataset(args.scenes, seed=77, mu_ref=4.0,
                                     beta_ref=1.5, alpha_ref=2.0)
    held_out = make_reference_dataset(10, seed=99, mu_ref=4.0)
    print(f"{'variant':20s} {'loss':>9s} {'mu_mean':>8s} {'penetration':>12s}")
    for name, cfg in configs.items():
        model, curve = train_offline(dataset, cfg)
        mass = np.ones(4)
        mus = []
        for sc in held_out:
            tokens = build_tokens(sc.q0, np.zeros(4), sc.discs, sc.goal, mass, POINT_LAYOUT)
            mus.append(model.propose(tokens).mu)
        pen = penetration_steps(model, held_out)
        print(f"{name:20s} {curve[-1]:9.4f} {np.mean(mus):8.2f} {pen:12d}")
    print(f"total {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
