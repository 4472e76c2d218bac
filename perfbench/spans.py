"""Outside-in tracing: wrap engine functions, keep spans in memory, reduce once.

Wrappers are installed from the benchmark, never inside the engine.  Every
module namespace that binds the original function object gets the wrapper
(``sense`` is imported into ``navigator`` and ``baselines``, for example), and
methods are wrapped on their class.  ``installed()`` restores each binding on
exit.  Very hot leaves (``signed_distances``, ``ipc_barrier``) are left
unwrapped so the tracing overhead stays small next to the traced work.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# module -> functions; "Class.method" wraps a method on its class.  The metric
# name is "<module>.<function>" with any class prefix dropped.
TRACED = {
    "workspace": ["sense", "extract_circles", "StageManager.stage_of",
                  "CoverageTracker.add_window"],
    "energy": ["potential_grad", "energy_breakdown", "features"],
    "ring": ["RingShapeModel.obstacle_feature", "RingShapeModel.min_clearance",
             "RingShapeModel.refresh_target", "RingShapeModel.boundary"],
    "dynamics": ["step_symplectic_euler", "rollout"],
    "navigator": ["run_episode", "ExitSelector.select", "build_tokens", "tikhonov_step",
                  "compute_observables", "port_correction"],
    "baselines": ["run_baseline_episode", "pf_step", "dwa_step", "astar_rigid",
                  "astar_deformable", "clearance_raster"],
    "learning": ["train_offline", "scene_rollout", "multi_start_penalty",
                 "MetaRegressor.forward", "MetaRegressor.backward"],
    "evalkit": ["episode_metrics"],
    "cli": ["cmd_eval", "run_method", "plan_method"],
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = [span_name(m, a) for m, attrs in TRACED.items() for a in attrs]


class Tracer:
    """Records (name, start_ns, end_ns, parent_index) for every wrapped call.

    Spans stay in memory (flat arrays) until the run ends.

    ``probes`` maps a span name to ``fn(tracer, args, kwargs, result)``, called
    after the wrapped call returns, to accumulate counts in ``tracer.counts``;
    ``tracer.state`` carries probe state between calls.
    """

    def __init__(self, probes=None):
        self.names = []
        self.starts, self.ends, self.parents = array("q"), array("q"), array("q")
        self.stack = []
        self.counts = defaultdict(float)
        self.state = {}
        self.probes = probes or {}

    def wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, probe, clock = self.stack, self.probes.get(name), time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            stack.append(index)
            starts.append(clock())
            ends.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return traced

    def span_rows(self):
        """Spans as (name, start_ns, end_ns, parent_index) tuples."""
        return zip(self.names, self.starts, self.ends, self.parents)

    def save(self, path: Path) -> Path:
        """Write every span once, as compressed arrays, after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        labels = sorted(set(self.names))
        code = {n: i for i, n in enumerate(labels)}
        np.savez_compressed(path, labels=np.array(labels),
                            name=np.array([code[n] for n in self.names], dtype=np.int16),
                            start_ns=np.frombuffer(self.starts, dtype=np.int64),
                            end_ns=np.frombuffer(self.ends, dtype=np.int64),
                            parent=np.frombuffer(self.parents, dtype=np.int64))
        return path


def _bindings(modules: dict, module: str, attr: str):
    """Yield (owner, attribute, original) for every binding to patch."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(modules[module], cls_name)
        yield cls, meth, cls.__dict__[meth]
        return
    original = getattr(modules[module], attr)
    for mod in modules.values():
        for key, value in vars(mod).items():
            if value is original:
                yield mod, key, original


@contextlib.contextmanager
def installed(tracer: Tracer, modules: dict, traced=None):
    """Wrap every function in ``traced`` (default TRACED); restore on exit.

    ``modules`` maps short module names (``"ring"``) to the imported modules;
    every one of them is searched for bindings of each traced function.
    """
    saved = []
    try:
        for module, attrs in (traced or TRACED).items():
            for attr in attrs:
                name = span_name(module, attr)
                for owner, key, original in list(_bindings(modules, module, attr)):
                    saved.append((owner, key, original))
                    setattr(owner, key, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


def covered_ns(start: int, end: int, children) -> int:
    """Length of the union of ``children`` intervals clipped to [start, end]."""
    total, reach = 0, start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_times(spans) -> dict:
    """Per span name: {"calls", "total_ns", "self_ns"}.

    A span's self time is its duration minus the part of it covered by its
    direct children.
    """
    spans = list(spans)
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
    for index, (name, start, end, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += end - start - covered_ns(start, end, children.get(index, ()))
    return dict(out)
