#!/usr/bin/env python3
"""hamnav benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload ring_nav --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the engine is imported from ``src/``.
One process runs the workload's operations back to back (no pool, no
threads).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs
the batch once untraced and once traced and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# closed loop on one core: no engine process pool, no BLAS thread pool
os.environ.pop("HAMNAV_WORKERS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compat import load_engine  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from spans import SPAN_NAMES, Tracer, installed, self_times  # noqa: E402
from workloads import WORKLOADS, CheckError, digest_of  # noqa: E402

ENGINE_MODULES = ["workspace", "energy", "dynamics", "ring", "navigator", "baselines",
                  "generation", "learning", "evalkit", "cli"]
SETUP_ROUNDS = 5
# the first seconds of CPU work after an idle spell ran ~30% slower on the
# 2-vCPU VM this benchmark was written on
WARMUP_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
    "success_rate": "ratio", "quality_loss": "1",
}
COUNT_UNITS = {
    "navigator.steps": "count", "navigator.active_mean": "count",
    "navigator.memory_discs": "count", "workspace.sense.discs": "count",
    "baselines.astar.expansions": "count", "baselines.dwa_step.blocked_ratio": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(COUNT_UNITS)
    return units


# -- probes: counts taken where the work happens ------------------------------

def _probe_episode(tracer, args, kwargs, result):
    c = tracer.counts
    c["navigator.steps"] += result.n_steps
    c["_active_sum"] += float(result.active_counts.sum())
    c["_active_n"] += len(result.active_counts)
    c["_memory_sum"] += tracer.state.pop("memory", 0)
    c["_episodes"] += 1


def _probe_tokens(tracer, args, kwargs, result):
    pairs = args[2] if len(args) > 2 else kwargs["pairs"]
    tracer.state["memory"] = max(tracer.state.get("memory", 0), len(pairs))


def _probe_sense(tracer, args, kwargs, result):
    tracer.counts["_sense_discs"] += len(result.obstacles)
    tracer.counts["_sense_calls"] += 1


def _probe_astar(tracer, args, kwargs, result):
    tracer.counts["baselines.astar.expansions"] += result.expansions


def _probe_dwa(tracer, args, kwargs, result):
    tracer.counts["_dwa_blocked"] += bool(result.blocked)
    tracer.counts["_dwa_calls"] += 1


PROBES = {
    "navigator.run_episode": _probe_episode,
    "navigator.build_tokens": _probe_tokens,
    "workspace.sense": _probe_sense,
    "baselines.astar_rigid": _probe_astar,
    "baselines.astar_deformable": _probe_astar,
    "baselines.dwa_step": _probe_dwa,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    table = self_times(tracer.span_rows())
    out = {}
    for name in SPAN_NAMES:
        row = table.get(name, {"calls": 0, "self_ns": 0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_ms"] = row["self_ns"] / 1e6
    c = tracer.counts
    out["navigator.steps"] = int(c["navigator.steps"])
    out["navigator.active_mean"] = _ratio(c["_active_sum"], c["_active_n"])
    out["navigator.memory_discs"] = _ratio(c["_memory_sum"], c["_episodes"])
    out["workspace.sense.discs"] = _ratio(c["_sense_discs"], c["_sense_calls"])
    out["baselines.astar.expansions"] = int(c["baselines.astar.expansions"])
    out["baselines.dwa_step.blocked_ratio"] = _ratio(c["_dwa_blocked"], c["_dwa_calls"])
    out["trace.overhead_s"] = overhead_s
    return out


# -- run record ---------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, compat_applied: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(ROOT),
        "compat_loader": compat_applied,
    }


# -- the closed loop ----------------------------------------------------------

class Loop:
    """Runs operations, checks them, and keeps per-operation samples."""

    def __init__(self, workload, hm, items, speed: SpeedSampler):
        self.workload, self.hm, self.items, self.speed = workload, hm, items, speed
        self.first = {}          # batch index -> OpResult of its first run
        self.times = {}          # batch index -> [reference seconds]
        self.raw_times = {}      # batch index -> [wall seconds]
        self.attempted = self.failed = 0

    def run_one(self, k: int) -> float:
        """Run operation ``k`` once; its time in reference seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = self.workload.run(self.hm, self.items[k])
            t1 = time.perf_counter()
            if k in self.first and res.digest != self.first[k].digest:
                raise CheckError(f"operation {k} did not repeat its first output")
        except Exception:  # one failing operation must not end the run
            self.failed += 1
            print(f"operation {k} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return self.speed.scaled(t0, time.perf_counter())
        dt = self.speed.scaled(t0, t1)
        self.first.setdefault(k, res)
        self.times.setdefault(k, []).append(dt)
        self.raw_times.setdefault(k, []).append(t1 - t0)
        return dt

    def run_pass(self) -> float:
        return sum(self.run_one(k) for k in range(len(self.items)))

    def warm_up(self, seconds: float):
        """Run (and check) operations untimed until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        k = 0
        while time.perf_counter() < deadline:
            self.run_one(k % len(self.items))
            k += 1
        self.times.clear()
        self.raw_times.clear()

    def run_for(self, seconds: float):
        """Whole first pass, then cycle the batch until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(self.items) or time.perf_counter() < deadline:
            self.run_one(i % len(self.items))
            i += 1

    def complete(self) -> bool:
        return len(self.first) == len(self.items)

    def digest(self) -> str:
        """One sha256 for the batch, independent of the order the seed chose."""
        return digest_of(*sorted(r.digest for r in self.first.values()))

    def end_to_end(self) -> dict:
        # each operation's time is the median of its repeats, which are
        # bit-identical work; the batch time is the sum over operations
        op = {k: statistics.median(v) for k, v in self.times.items()}
        wall = sum(op.values())
        steps = sum(self.first[k].steps for k in op)
        return {"wall_s": wall, "steps_per_s": steps / wall,
                "op_s_p50": statistics.median(op.values()),
                "raw_wall_s": sum(statistics.median(v) for v in self.raw_times.values())}


def _number(value):
    """A finite number, or None when the value could not be measured."""
    ok = isinstance(value, (int, float)) and math.isfinite(value)
    return value if ok else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "hamnav" / "__init__.py").is_file():
        print(f"error: no engine source at {src / 'hamnav'}", file=sys.stderr)
        return 2
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    extra = {}
    try:
        # the sampler runs from set-up to the end of the timed loop
        with SpeedSampler() as speed:
            # set-up: engine import plus input generation, repeated; median reported
            setups, raw_setups = [], []
            for _ in range(SETUP_ROUNDS):
                t0 = time.perf_counter()
                hm, compat_applied = load_engine(src, "hamnav", ENGINE_MODULES)
                items = workload.setup(hm, args.seed, workdir)
                t1 = time.perf_counter()
                setups.append(speed.scaled(t0, t1))
                raw_setups.append(t1 - t0)

            loop = Loop(workload, hm, items, speed)
            loop.warm_up(WARMUP_S)
            if args.trace:
                untraced = loop.run_pass()
                tracer = Tracer(PROBES)
                with installed(tracer, hm):
                    traced = loop.run_pass()
                metrics = layer_metrics(tracer, traced - untraced)
                units = per_layer_units()
                name = f"{args.workload}-seed{args.seed}-spans.npz"
                spans = tracer.save(HERE / "results" / name)
                extra = {"pass_s": {"untraced": untraced, "traced": traced},
                         "spans_file": str(spans.relative_to(ROOT))}
            else:
                loop.run_for(args.seconds)
                metrics = loop.end_to_end() if loop.complete() else {}
                units = END_TO_END_UNITS
            quality = workload.quality([loop.first[k] for k in range(len(items))]) \
                if loop.complete() else {}
            metrics.update(setup_s=statistics.median(setups),
                           raw_setup_s=statistics.median(raw_setups),
                           peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                           **quality)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    values = {k: _number(metrics.get(k)) for k in units}
    record = run_record(args, compat_applied)
    record.update(
        step_unit=workload.step_unit, batch_ops=len(items),
        op_s_p50=metrics.get("op_s_p50"),
        raw_wall_s=metrics.get("raw_wall_s"), raw_setup_s=metrics.get("raw_setup_s"),
        kernel_ms_p50=1e3 * statistics.median(speed.durations),
        op_times_s={k: [round(t, 4) for t in v] for k, v in sorted(loop.times.items())},
        failed_ratio=loop.failed / loop.attempted, digest=loop.digest(),
        quality={k: v for k, v in quality.items() if k not in END_TO_END_UNITS}, **extra)
    print("record " + json.dumps(record, sort_keys=True))
    for k, unit in units.items():
        print(f"  {k:40s} {values[k] if values[k] is not None else 'n/a':>14} {unit}")
    result = {
        "correct": loop.failed == 0 and loop.complete() and None not in values.values(),
        "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
