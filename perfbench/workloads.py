"""The four closed-loop workloads.

Each workload builds a batch of operations in ``setup`` (outside the timed
loop) and runs one operation per ``run`` call through the engine's public
functions only.  The batch is a fixed suite of generated instances, and the
seed sets the order in which the closed loop runs them (``order``): with
instances drawn afresh for each seed, the work in one run varied by up to 3x
between seeds, more than any regression bound could absorb.

``run`` checks the operation's outputs and raises ``CheckError`` when one is
wrong; its ``digest`` covers every output that must repeat bit for bit when
the same operation runs again.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

TERMINATIONS = {"success", "timeout", "collision", "stuck", "dead_end"}
EVAL_METHODS = ("pf", "dwa", "astar_rigid", "astar_deform")


class CheckError(RuntimeError):
    """An operation's output failed a benchmark check."""


@dataclass
class OpResult:
    steps: int                 # work units (see each workload's ``step_unit``)
    digest: str                # sha256 of the outputs that must repeat exactly
    quality: dict = field(default_factory=dict)


def digest_of(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def order(seed: int, items: list) -> list:
    """``items`` in an order drawn from ``seed``."""
    return [items[i] for i in np.random.default_rng(seed).permutation(len(items))]


def fresh(ws):
    """An equal workspace that carries nothing from earlier episodes.

    The engine caches a grid's distance field on the grid object; every
    operation pays for it, as it would on a workspace it has not seen.
    """
    grid = None if ws.grid is None else type(ws.grid)(ws.grid.occupied, ws.grid.cell_size)
    return type(ws)(ws.side, list(ws.obstacles), ws.start, ws.goal, grid=grid, seed=ws.seed)


def check_episode(result, n_max: int):
    if result.termination not in TERMINATIONS:
        raise CheckError(f"termination {result.termination!r} not in {sorted(TERMINATIONS)}")
    if result.qs.shape != result.ps.shape:
        raise CheckError(f"qs {result.qs.shape} and ps {result.ps.shape} differ in shape")
    if not (np.all(np.isfinite(result.qs)) and np.all(np.isfinite(result.ps))):
        raise CheckError("non-finite qs/ps")
    if result.n_steps > n_max:
        raise CheckError(f"n_steps {result.n_steps} > n_max {n_max}")


def _episode_op(result, n_max: int) -> OpResult:
    check_episode(result, n_max)
    success = result.termination == "success"
    return OpResult(
        steps=int(result.n_steps),
        digest=digest_of(result.qs.tobytes(), result.ps.tobytes(), result.termination),
        quality={"success": success, "path_len": result.path_length() if success else None},
    )


def _navigation_quality(results) -> dict:
    success = [r.quality["success"] for r in results]
    lengths = [r.quality["path_len"] for r in results if r.quality["success"]]
    path_len = float(np.mean(lengths)) if lengths else math.nan
    return {"success_rate": float(np.mean(success)), "quality_loss": path_len,
            "path_len": path_len}


class RingNav:
    """Ring robot on test_id fields and a bottleneck squeeze: ring and energy
    geometry on a small obstacle memory."""

    name = "ring_nav"
    step_unit = "integrator step"
    N_TEST_ID, N_BOTTLENECK = 3, 1

    def setup(self, hm, seed: int, workdir: Path):
        g, nav = hm["generation"], hm["navigator"]
        cfg = nav.EpisodeConfig(ring=hm["ring"].RingParams())
        suite = ([g.generate_workspace("test_id", i) for i in range(self.N_TEST_ID)]
                 + [g.generate_bottleneck(i) for i in range(self.N_BOTTLENECK)])
        return [(ws, cfg) for ws in order(seed, suite)]

    def run(self, hm, item) -> OpResult:
        ws, cfg = item
        return _episode_op(hm["navigator"].run_episode(fresh(ws), cfg), cfg.n_max)

    quality = staticmethod(_navigation_quality)


class DungeonPoint:
    """Point robot in grid mazes: disc fitting, sensing, and per-step Python over
    an obstacle memory of 100+ discs; no ring work."""

    name = "dungeon_point"
    step_unit = "integrator step"
    N_MAZES, CELLS = 3, 3

    def setup(self, hm, seed: int, workdir: Path):
        g, nav = hm["generation"], hm["navigator"]
        cfg, meta = nav.dungeon_setup()
        suite = [g.generate_dungeon(i, cells=self.CELLS) for i in range(self.N_MAZES)]
        return [(ws, cfg, meta) for ws in order(seed, suite)]

    def run(self, hm, item) -> OpResult:
        ws, cfg, meta = item
        return _episode_op(hm["navigator"].run_episode(fresh(ws), cfg, meta), cfg.n_max)

    quality = staticmethod(_navigation_quality)


class EvalBaselines:
    """``hamnav eval`` of the four baselines: DWA loops, A*, clearance rasters,
    shared sensing and exit selection, eval aggregation and files; no energy
    work."""

    name = "eval_baselines"
    step_unit = "(method, workspace) evaluation"
    N_WORKSPACES = 2

    def setup(self, hm, seed: int, workdir: Path):
        g, ws_mod = hm["generation"], hm["workspace"]
        # the baselines as point robots: 0.4-m discs collide within 40-280 DWA
        # steps, which makes the cost of one workspace vary tenfold
        config = workdir / "eval.toml"
        config.parent.mkdir(parents=True, exist_ok=True)
        hm["cli"].save_config(hm["cli"].RunConfig(rigid_radius=0.0), config)
        items = []
        for i in order(seed, list(range(self.N_WORKSPACES))):
            src = workdir / f"eval{i}" / "workspaces"
            if src.exists():
                shutil.rmtree(src)
            src.mkdir(parents=True)
            ws_mod.save_workspace(g.generate_workspace("test_id", i), src / "test_id.json")
            items.append((config, src, workdir / f"eval{i}" / "out"))
        return items

    def run(self, hm, item) -> OpResult:
        config, src, out = item
        if out.exists():
            shutil.rmtree(out)
        argv = ["eval", "--config", str(config), "--workspaces", str(src),
                "--methods", ",".join(EVAL_METHODS), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = hm["cli"].main(argv)
        if code != 0:
            raise CheckError(f"hamnav eval exited with {code}")
        table = (out / "comparison.csv").read_bytes()
        rows = list(csv.DictReader(io.StringIO(table.decode())))
        if [r["method"] for r in rows] != list(EVAL_METHODS):
            raise CheckError(f"comparison.csv rows {[r['method'] for r in rows]}")
        spls = [float(r["SPL"]) for r in rows]
        if not all(0.0 <= s <= 1.0 for s in spls):
            raise CheckError(f"SPL outside [0, 1]: {spls}")
        per_episode = json.loads((out / "per_episode.json").read_text())
        episodes = [row for m in EVAL_METHODS for _, row in sorted(per_episode[m].items())]
        if len(episodes) != len(EVAL_METHODS) * len(list(src.glob("*.json"))):
            raise CheckError(f"{len(episodes)} per-episode rows")
        stable = [{k: v for k, v in row.items() if k != "wall_time"} for row in episodes]
        return OpResult(
            steps=len(episodes),
            digest=digest_of(table, json.dumps(stable, sort_keys=True, default=repr)),
            quality={"spl": spls, "detour": [float(r["Detour"]) for r in rows],
                     "success": [bool(row["success"]) for row in episodes]},
        )

    @staticmethod
    def quality(results) -> dict:
        detours = [d for r in results for d in r.quality["detour"] if math.isfinite(d)]
        success = [s for r in results for s in r.quality["success"]]
        detour = float(np.mean(detours)) if detours else math.nan
        return {"success_rate": float(np.mean(success)), "quality_loss": detour,
                "detour": detour,
                "spl": float(np.mean([s for r in results for s in r.quality["spl"]]))}


class TrainMeta:
    """Offline meta-regressor training: many short rollouts with finite
    differences, no sensing; the only workload that runs ``learning``."""

    name = "train_meta"
    step_unit = "scene-epoch"
    N_DATASETS, SCENES, EPOCHS = 3, 4, 3

    def setup(self, hm, seed: int, workdir: Path):
        learning = hm["learning"]
        cfg = replace(learning.TrainConfig(), epochs=self.EPOCHS)
        suite = [learning.make_reference_dataset(self.SCENES, i) for i in range(self.N_DATASETS)]
        return [(dataset, cfg) for dataset in order(seed, suite)]

    def run(self, hm, item) -> OpResult:
        dataset, cfg = item
        model, curve = hm["learning"].train_offline(dataset, cfg)
        curve = np.asarray(curve, float)
        if curve.shape != (cfg.epochs,):
            raise CheckError(f"loss curve shape {curve.shape}, want ({cfg.epochs},)")
        if not np.all(np.isfinite(curve)):
            raise CheckError("non-finite loss curve")
        return OpResult(
            steps=len(dataset) * cfg.epochs,
            digest=digest_of(curve.tobytes(), model.get_flat().tobytes()),
            quality={"final": float(curve[-1]), "improved": bool(curve[-1] < curve[0])},
        )

    @staticmethod
    def quality(results) -> dict:
        loss = float(np.mean([r.quality["final"] for r in results]))
        return {"success_rate": float(np.mean([r.quality["improved"] for r in results])),
                "quality_loss": loss, "train_loss": loss}


WORKLOADS = {w.name: w for w in (RingNav(), DungeonPoint(), EvalBaselines(), TrainMeta())}
