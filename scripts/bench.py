#!/usr/bin/env python3
"""The BENCH ledger: one machine's end-to-end and per-layer numbers in one file.

    python3 scripts/bench.py LABEL [--seconds N]

Run from the root of a source checkout.  Writes ``BENCH_<LABEL>.json`` there,
holding:

- for each workload that ``BENCHMARK.json`` lists, the last JSON line and the
  ``record {...}`` line of ``perfbench/run.py --seed 1 --trace 0`` and of
  ``--trace 1`` (each a subprocess), with the end-to-end metrics of the first and the
  per-layer metrics of the second;
- the time of a rigid A* plan (resolution 0.1, a 0.4-m disc) on ``test_id`` 0;
- each acceptance criterion's time, from
  ``pytest --durations=0 tests/test_acceptance.py``;
- ``nproc``, the CPU model, and the Python and numpy versions.

It only runs the benchmark; it edits nothing under ``perfbench/``.  It exits 1
when a run fails or prints no result, after writing what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ASTAR_REPEATS = 5
# "12.34s call     tests/test_acceptance.py::test_criterion_09_robustness_ordering"
DURATION = re.compile(r"^([0-9.]+)s\s+(setup|call|teardown)\s+\S+::(\S+)$")


def run_perfbench(workload: str, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its result line, record line and exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = next((json.loads(ln[len("record "):]) for ln in reversed(lines)
                   if ln.startswith("record ")), None)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    run = {"returncode": proc.returncode, "result": result, "record": record}
    if proc.returncode or result is None:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def metric_values(run: dict) -> dict:
    """{metric: value} of a run's result line ({} when it printed none)."""
    result = run["result"] or {}
    return {k: v["value"] for k, v in result.get("metrics", {}).items()}


def bench_workload(workload: str, seconds: float) -> dict:
    plain = run_perfbench(workload, seconds, trace=0)
    traced = run_perfbench(workload, seconds, trace=1)
    end_to_end = metric_values(plain)
    return {
        "correct": all((r["result"] or {}).get("correct", False) for r in (plain, traced)),
        "steps_per_s": end_to_end.get("steps_per_s"),
        "wall_s": end_to_end.get("wall_s"),
        "end_to_end": end_to_end,
        "per_layer": metric_values(traced),
        "runs": {"trace0": plain, "trace1": traced},
    }


def bench_astar() -> dict:
    """A rigid 0.4-m disc's A* plan at resolution 0.1 on test_id 0, in-process."""
    sys.path.insert(0, str(ROOT / "src"))
    from hamnav.baselines import astar_rigid
    from hamnav.generation import generate_workspace

    ws = generate_workspace("test_id", 0)
    times, plan = [], None
    for _ in range(ASTAR_REPEATS):
        t0 = time.perf_counter()
        plan = astar_rigid(ws, 0.1, 0.4)
        times.append(time.perf_counter() - t0)
    return {"resolution": 0.1, "inflation_radius": 0.4, "test_id": 0,
            "repeats": ASTAR_REPEATS, "median_s": statistics.median(times),
            "times_s": times, "expansions": plan.expansions, "length": plan.length,
            "feasible": plan.feasible}


def bench_acceptance() -> dict:
    """Each acceptance criterion's setup + call + teardown time, and the suite's wall time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
           "-vv", "tests/test_acceptance.py"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    criteria = {}
    for line in proc.stdout.splitlines():
        m = DURATION.match(line.strip())
        if m:
            criteria[m.group(3)] = criteria.get(m.group(3), 0.0) + float(m.group(1))
    out = {"returncode": proc.returncode, "wall_s": wall, "criteria_s": dict(sorted(criteria.items()))}
    if proc.returncode:
        out["stdout_tail"] = proc.stdout[-2000:]
    return out


def machine() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", help="the file written is BENCH_<label>.json at the repo root")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="perfbench/run.py --seconds for each workload (default 25)")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error(f"label {args.label!r}: use letters, digits, '_', '.' or '-'")

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    doc = {"label": args.label, "seconds": args.seconds, "seed": SEED,
           "machine": machine(), "workloads": {}}
    for name in workloads:
        print(f"bench: {name}", file=sys.stderr)
        doc["workloads"][name] = bench_workload(name, args.seconds)
    print("bench: astar_rigid", file=sys.stderr)
    doc["astar_rigid"] = bench_astar()
    print("bench: acceptance", file=sys.stderr)
    doc["acceptance"] = bench_acceptance()

    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, w in doc["workloads"].items():
        print(f"{name:16s} steps_per_s {w['steps_per_s']}  wall_s {w['wall_s']}  "
              f"correct {w['correct']}")
    print(f"wrote {path}")
    ok = all(w["correct"] for w in doc["workloads"].values()) and not doc["acceptance"]["returncode"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
