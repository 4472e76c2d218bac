#!/usr/bin/env python3
"""The BENCH ledger: one machine's end-to-end and per-layer numbers in one file.

    python3 scripts/bench.py LABEL [--seconds N]
    python3 scripts/bench.py --compare BENCH_A.json BENCH_B.json

Run from the root of a source checkout.  Writes ``BENCH_<LABEL>.json`` there,
holding:

- for each workload that ``BENCHMARK.json`` lists, the last JSON line and the
  ``record {...}`` line of ``perfbench/run.py --seed 1 --trace 0`` and of
  ``--trace 1`` (each a subprocess), with the end-to-end metrics of the first and the
  per-layer metrics of the second;
- the time of a rigid A* plan (resolution 0.1, a 0.4-m disc) on ``test_id`` 0;
- each acceptance criterion's time, from
  ``pytest --durations=0 tests/test_acceptance.py``;
- ``nproc``, the CPU model, the Python version, and the arithmetic key
  (``arithmetic_key``: the numpy version, the OpenBLAS core and numpy's
  AVX-512 dispatch), which says whether another machine's bits can match;
- ``source_sha256``, a sha256 over ``src/hamnav/*.py``, naming the code measured.

It only runs the benchmark; it edits nothing under ``perfbench/``.  It exits 1
when a run fails or prints no result, after writing what it measured.

``--compare A B`` runs nothing: it prints each workload's end-to-end metrics
in both ledgers with their ratios B/A, the A* plan's median time and its
ratio, and whether each workload's run-record ``digest`` moved.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
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


def openblas_core() -> str:
    """The kernel core that numpy's bundled OpenBLAS selected on this CPU (or
    that ``OPENBLAS_CORETYPE`` forced), read through ctypes from
    ``scipy_openblas_get_corename64_``; "unknown" without such a library."""
    import numpy as np

    root = Path(np.__file__).resolve().parent
    for path in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(
            root.glob(".dylibs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def arithmetic_key() -> dict:
    """What sets the last bits of the engine's float64 results besides the
    code: the numpy version, the OpenBLAS core (``openblas_core``), and
    whether numpy dispatches AVX-512 loops (``avx512f``, the CPU feature as
    numpy reports it, and ``x86_v4``, the AVX-512 dispatch group of numpy 2.4
    and later, which ``NPY_DISABLE_CPU_FEATURES`` can turn off; None where
    this numpy reports no such entry)."""
    import numpy as np

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {"numpy": np.__version__, "openblas_core": openblas_core(),
            "avx512f": features.get("AVX512F"), "x86_v4": features.get("X86_V4")}


def machine() -> dict:
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
            "python": platform.python_version(), **arithmetic_key(),
            "platform": platform.platform()}


def source_sha256(root: Path = ROOT) -> str:
    """sha256 over ``src/hamnav/*.py`` in name order: each file's name, size and bytes."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hamnav").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _row(name: str, metric: str, a, b) -> str:
    """One metric of both ledgers and its ratio B/A ("n/a" without two numbers or when A is 0)."""
    numbers = all(isinstance(v, (int, float)) for v in (a, b))
    ratio = f"{b / a:.3f}" if numbers and a else "n/a"
    a, b = (f"{v:.6g}" if isinstance(v, (int, float)) else str(v) for v in (a, b))
    return f"{name:16s} {metric:14s} A {a:>12s}  B {b:>12s}  B/A {ratio}"


def _digest(workload: dict):
    """The run-record digest of a workload's untraced run (None when the ledger has none)."""
    return ((workload.get("runs", {}).get("trace0") or {}).get("record") or {}).get("digest")


def compare(path_a, path_b) -> list:
    """The lines ``--compare`` prints for ledgers ``path_a`` (A) and ``path_b`` (B)."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    lines = [f"A = {path_a}, B = {path_b}; ratios are B/A",
             f"source_sha256: A {a.get('source_sha256', 'unknown')}, "
             f"B {b.get('source_sha256', 'unknown')}"]
    moved = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name}: only in {'A' if wb is None else 'B'}")
            continue
        ea, eb = wa.get("end_to_end", {}), wb.get("end_to_end", {})
        for metric in sorted(set(ea) | set(eb)):
            lines.append(_row(name, metric, ea.get(metric), eb.get(metric)))
        da, db = _digest(wa), _digest(wb)
        if da is None or db is None:
            lines.append(f"{name:16s} digest         unknown in {'A' if da is None else 'B'}")
        elif da == db:
            lines.append(f"{name:16s} digest         same ({da[:16]}...)")
        else:
            moved.append(name)
            lines.append(f"{name:16s} digest         MOVED: A {da[:16]}... B {db[:16]}...")
    ta, tb = (d.get("astar_rigid", {}).get("median_s") for d in (a, b))
    lines.append(_row("astar_rigid", "median_s", ta, tb))
    lines.append(f"run-record digests MOVED on: {', '.join(moved)}" if moved
                 else "run-record digests: none moved")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", nargs="?",
                    help="the file written is BENCH_<label>.json at the repo root")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="perfbench/run.py --seconds for each workload (default 25)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="print ledger B's end-to-end metrics against ledger A's; run nothing")
    args = ap.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.label is None:
        ap.error("give a LABEL, or --compare A B")
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error(f"label {args.label!r}: use letters, digits, '_', '.' or '-'")

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    doc = {"label": args.label, "seconds": args.seconds, "seed": SEED,
           "machine": machine(), "source_sha256": source_sha256(), "workloads": {}}
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
