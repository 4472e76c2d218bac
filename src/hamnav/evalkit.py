"""Metrics, perturbation harness, and the eval table.

Per-episode metrics follow the benchmark conventions: success-weighted path
length against a full-map reference planner, detour ratio, clearance
statistics with hard collisions counted as steps of penetration, smoothness
as mean absolute heading change, grazing against a fixed threshold, and the
mapping ratio charged by the sensing windows.  Full-map planners carry a
mapping ratio of 1 by convention.  ``table_row`` turns one method's episode
rows into its columns of the comparison table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .navigator import EpisodeResult
from .workspace import Obstacle, Workspace


@dataclass
class EpisodeMetrics:
    success: int
    path_length: float
    spl: float
    detour: float
    min_clearance: float
    mean_clearance: float
    collisions: int
    smoothness: float
    grazing: int
    mapping_ratio: float
    wall_time: float
    termination: str = ""

    def row(self):
        return {
            "success": self.success, "path_length": self.path_length, "spl": self.spl,
            "detour": self.detour, "min_clearance": self.min_clearance,
            "mean_clearance": self.mean_clearance, "collisions": self.collisions,
            "smoothness": self.smoothness, "grazing": self.grazing,
            "mapping_ratio": self.mapping_ratio, "wall_time": self.wall_time,
        }


def spl(success, length, length_ref) -> float:
    """Success-weighted path length: S * L_ref / max(L, L_ref)."""
    if not success:
        return 0.0
    if length_ref <= 0 or not np.isfinite(length_ref):
        return 0.0
    return float(length_ref / max(length, length_ref))


def heading_changes(positions) -> np.ndarray:
    """Absolute heading change per step; sub-nanometer steps are skipped.  The
    headings are libm's atan2 (numpy's AVX-512 arctan2 rounds some otherwise)."""
    d = np.diff(np.asarray(positions, float), axis=0)
    keep = np.linalg.norm(d, axis=1) > 1e-9
    d = d[keep]
    if len(d) < 2:
        return np.zeros(0)
    ang = np.array([math.atan2(y, x) for x, y in d.tolist()])
    turn = np.diff(ang)
    return np.abs((turn + np.pi) % (2 * np.pi) - np.pi)


def episode_metrics(result: EpisodeResult, length_ref, d_thr=1.5) -> EpisodeMetrics:
    """All scalar metrics of one finished episode.

    Clearances are the ground-truth ones; a collision is any step with
    negative clearance, grazing means the minimum clearance dipped to d_thr.
    """
    clear = result.true_clearances
    finite = clear[np.isfinite(clear)]
    min_clr = float(finite.min()) if finite.size else np.inf
    mean_clr = float(finite.mean()) if finite.size else np.inf
    length = result.path_length()
    success = int(result.termination == "success" and min_clr > 0)
    turns = heading_changes(result.positions)
    return EpisodeMetrics(
        success=success,
        path_length=length,
        spl=spl(success, length, length_ref),
        detour=float(length / length_ref) if (success and length_ref > 0) else np.nan,
        min_clearance=min_clr,
        mean_clearance=mean_clr,
        collisions=int(np.sum(clear < 0)),
        smoothness=float(turns.mean()) if turns.size else 0.0,
        grazing=int(min_clr <= d_thr),
        mapping_ratio=result.coverage,
        wall_time=result.wall_time,
        termination=result.termination,
    )


# ---------------------------------------------------------------------------
# Perturbations

@dataclass
class PerturbationSpec:
    """Sensing and dynamics corruption knobs.

    The named robustness levels set (sensing noise, damping scale); sensing
    noise feeds both the position jitter and the relative radius error.
    """

    sigma_pos: float = 0.0
    sigma_radius: float = 0.0
    damping_scale: float = 1.0

    @property
    def is_identity(self):
        return self.sigma_pos == 0 and self.sigma_radius == 0 and self.damping_scale == 1.0


ROBUSTNESS_LEVELS = {
    "nominal": PerturbationSpec(sigma_pos=0.0, sigma_radius=0.0, damping_scale=1.0),
    "mild": PerturbationSpec(sigma_pos=0.05, sigma_radius=0.05, damping_scale=0.9),
    "severe": PerturbationSpec(sigma_pos=0.10, sigma_radius=0.10, damping_scale=0.7),
}


def perturb_obstacles(obstacles, spec: PerturbationSpec, rng):
    """One sensing event's corrupted view of an obstacle list: i.i.d.
    Gaussian center jitter and a multiplicative radius error per disc, with
    every disc kept under its id."""
    if spec.is_identity:
        return list(obstacles)
    out = []
    for idx, ob in obstacles:
        center = ob.center + rng.normal(0.0, spec.sigma_pos, 2) if spec.sigma_pos else ob.center
        radius = ob.radius * max(1.0 + (rng.normal(0.0, spec.sigma_radius) if spec.sigma_radius else 0.0), 0.05)
        out.append((idx, Obstacle(np.asarray(center, float), float(radius), ob.weight)))
    return out


class PerturbedWorkspace(Workspace):
    """Workspace whose sensing responses are corrupted per event.

    Ground truth (collision accounting, stage exits) stays intact; only the
    obstacle lists returned by sensing are jittered, via the corrupt_context
    hook the sensing path calls when present.  The damping scale is read by
    the episode runner and applied to the friction before integration.
    Every sensing event draws fresh noise from one per-episode stream.
    """

    def __init__(self, base: Workspace, spec: PerturbationSpec, seed: int):
        super().__init__(base.side, base.obstacles, base.start, base.goal,
                         grid=base.grid, seed=base.seed)
        self.perturbation = spec
        self.damping_scale = spec.damping_scale
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9E2]))

    def corrupt_context(self, pairs):
        return perturb_obstacles(pairs, self.perturbation, self._rng)


# ---------------------------------------------------------------------------
# Eval table

TABLE_COLUMNS = ("SPL", "Detour", "MinClear", "Mapping")


def table_row(rows) -> dict:
    """One method's row of the eval table from its per-episode row dicts.

    A row is an ``EpisodeMetrics.row()``, a planner row, or an error row
    (``success`` 0, ``spl`` 0, no mapping ratio).  SPL is the mean over all
    rows, Detour the mean of the successful rows' finite detours, MinClear
    the mean over successful rows, and Mapping the mean over the rows that
    carry a mapping ratio; a column with no such row is NaN.
    """
    succ = [r for r in rows if r["success"]]
    return {
        "episodes": len(rows),
        "successes": len(succ),
        "SPL": _mean([r["spl"] for r in rows]),
        "Detour": _mean([r["detour"] for r in succ if np.isfinite(r["detour"])]),
        "MinClear": _mean([r["min_clearance"] for r in succ]),
        "Mapping": _mean([r["mapping_ratio"] for r in rows if "mapping_ratio" in r]),
    }


def _mean(values) -> float:
    return float(np.mean(values)) if values else float("nan")
