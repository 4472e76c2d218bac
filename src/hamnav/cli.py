"""Command-line entry points: generate | run | train | eval | plot.

Every command is deterministic: the same config and input files give the
same outputs, and ``generate`` and ``make-dataset`` draw their instances from
``--seed`` (training from ``[train] seed``).  Human-edited configs are TOML;
machine artifacts are JSON and CSV.  An episode's steps.csv holds its step
log, one row per state, in the columns of EpisodeRecorder.COLUMNS;
the summary JSON carries termination cause, metrics, coverage, the
reference length when available and the arithmetic key
(``arithmetic_key``), which says whether another machine's bits can match.  ``eval`` runs its workspaces one after
another in this process.  A malformed config or workspace file is reported on
stderr and the command exits with status 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import struct
import sys
import tomllib
import typing
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import svg
from .baselines import DWAConfig, GridPlan, PFGains, astar_deformable, astar_rigid, run_baseline_episode
from .evalkit import TABLE_COLUMNS, episode_metrics, spl, table_row
from .generation import FAMILIES, generate_bottleneck, generate_dungeon, generate_workspace, gap_statistics
from .learning import MetaRegressor, SceneDatum, TrainConfig, make_reference_dataset, train_offline
from .navigator import DefaultMetaPolicy, EpisodeConfig, dungeon_setup, run_episode
from .ring import RingParams
from .workspace import SharedWorkspace, Workspace, save_workspace, workspace_from_json

SCHEMA_VERSION = 1
# the columns of an A* run's steps.csv: its plan's waypoints, t the index
PLAN_COLUMNS = ["t", "q0", "q1"]


# ---------------------------------------------------------------------------
# Config

@dataclass
class MetaPolicyConfig:
    beta: float = 1.5
    lam: float = 1.0
    alpha: float = 2.0
    mu: float = 4.0
    mu_boost: float = 1.0
    d_ref: float = 1.0
    r_offset: float = 0.4
    checkpoint: str = ""  # trained regressor; empty selects the default policy


INF = float("inf")


@dataclass(frozen=True)
class Domain:
    """The values one config field may hold: numbers from ``lo`` to ``hi``, in
    the closed interval or in the one ``ends`` writes ("()", "[)" or "(]"),
    never NaN; for a list field, ``length`` such numbers (0: any number from
    one), ints when ``ints``; for a string field, one of ``choices`` (any
    string when there are none); None only where ``none``."""

    lo: float = -INF
    hi: float = INF
    ends: str = "[]"
    none: bool = False
    length: int | None = None
    ints: bool = False
    choices: tuple | None = None

    def __contains__(self, val) -> bool:
        if val is None:
            return self.none
        if self.choices is not None:
            return isinstance(val, str) and (not self.choices or val in self.choices)
        xs = [val] if self.length is None else val
        return (isinstance(xs, list) and 0 < len(xs) == (self.length or len(xs))
                and all(_is_number(x) and (isinstance(x, int) or not self.ints)
                        and (self.lo < x if self.ends[0] == "(" else self.lo <= x)
                        and (x < self.hi if self.ends[1] == ")" else x <= self.hi) for x in xs))

    def __str__(self):
        if self.choices is not None:
            return "{" + ", ".join(self.choices) + "}" if self.choices else "a string"
        bounds = f"{self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}"
        if self.length is None:
            return bounds + (" or None" if self.none else "")
        return f"{self.length or 'one or more'} {'ints' if self.ints else 'numbers'} in {bounds}"


@dataclass
class RunConfig:
    """Every tunable of the pipeline, each validated against its domain."""

    method: str = "grlsnam"
    robot: str = "ring"  # ring | point
    d_thr: float = 1.5
    astar_resolution: float = 0.1
    rigid_radius: float = 0.4
    deform_r_min: float = 0.2
    deform_penalty_gain: float = 1.0
    episode: EpisodeConfig = field(default_factory=lambda: EpisodeConfig(ring=RingParams()))
    meta: MetaPolicyConfig = field(default_factory=MetaPolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    pf: PFGains = field(default_factory=PFGains)
    dwa: DWAConfig = field(default_factory=DWAConfig)

    METHODS = ("grlsnam", "pf", "dwa", "astar_rigid", "astar_deform")

    # dotted path -> the Domain of that leaf of the config tree; every leaf
    # has one, and validate is the one place that checks them
    DOMAINS = {
        "method": Domain(choices=METHODS), "robot": Domain(choices=("ring", "point")),
        "meta.checkpoint": Domain(choices=()),  # a trained regressor's path, or empty
        "episode.ring": Domain(none=True),  # None: the robot's default (episode_config)
        "episode.n_max": Domain(0, 200_000), "episode.eps_goal": Domain(1e-3, 2.0),
        "episode.stage_overlap": Domain(0.0, 0.9), "episode.r_inflate": Domain(0.0, 2.0),
        "episode.horizons": Domain(1, INF, "[)", length=3, ints=True),  # T_y, T_f, T_o
        # the coverage cell is the window's half extent over coverage_cells_per_window
        "episode.sense_half_extent": Domain(0.0, INF, "()", none=True),  # None: d_hat
        "episode.ring.n_ctrl": Domain(8, INF, "[)"),  # K >= 4 n_ctrl is RingParams' check
        "episode.ring.s_min": Domain(0.0, 1.0, "()"),
        "episode.adapt.zeta_cap": Domain(0.0, INF, length=3),  # beta, lam and mu's ceilings
        "meta.mu": Domain(0.0, 100.0), "meta.d_ref": Domain(1e-6, INF),
        "train.lr": Domain(1e-8, 1.0), "train.r_min": Domain(0.0, 4.0),
        "train.weights": Domain(0.0, INF, "[)", length=4),  # w_q, w_v, w_mu, w_d
        "train.horizons": Domain(0, INF, "[)", length=0, ints=True),
        "d_thr": Domain(0.0, 100.0), "astar_resolution": Domain(0.01, 10.0),
        # n_per_axis and horizon cap DWA's (n, n, horizon, M) clearance array
        "dwa.n_per_axis": Domain(2, 25), "dwa.horizon": Domain(1, 50),
        "dwa.dt": Domain(1e-4, 10.0), "pf.d_floor": Domain(1e-9, 1.0),
        "pf.d_hat": Domain(0.05, 4.0, none=True),  # None: the episode's d_hat
        **dict.fromkeys(["episode.tau", "train.tau"], Domain(1e-4, 0.5)),
        **dict.fromkeys(["episode.d_hat", "train.d_hat"], Domain(0.05, 4.0)),
        **dict.fromkeys(["episode.stage_w", "episode.stage_h"], Domain(0.2, 100.0)),
        **dict.fromkeys(["rigid_radius", "deform_r_min"], Domain(0.0, 4.0)),
        **dict.fromkeys(["dwa.v_max", "pf.v_max"], Domain(1e-6, 100.0)),
        **dict.fromkeys(["episode.adapt.rho", "episode.adapt.kappa_beta",
                         "episode.adapt.kappa_gamma", "train.momentum"], Domain(0.0, 0.999)),
        # ridges (the adaptation's normal equations are singular without one;
        # lam_u = inf turns the port off) and the gradient clip (inf: none)
        "episode.adapt.lam_zeta": Domain(0.0, 1e6, "(]"),
        **dict.fromkeys(["episode.adapt.lam_u", "train.clip_norm"], Domain(0.0, INF, "(]")),
        **dict.fromkeys(["meta.beta", "meta.lam", "meta.alpha", "meta.mu_boost",
                         "deform_penalty_gain", "dwa.w_progress", "dwa.w_clearance",
                         "dwa.w_speed", "pf.k_att", "pf.k_rep", "episode.passable_width"],
                        Domain(0.0, INF)),
        # divisors, and thresholds that a zero would make every comparison fail
        **dict.fromkeys(["episode.adapt.eps", "episode.mass_frame", "episode.inertia",
                         "episode.eps_stage", "episode.scale_floor", "episode.scale_cap",
                         "episode.ring.r_base", "episode.ring.k_bulk",
                         "episode.ring.mass_scale", "episode.ring.delta", "train.fd_step"],
                        Domain(0.0, INF, "()")),
        # thresholds, gains, damping and offsets, where a negative value flips a
        # comparison or injects energy
        **dict.fromkeys([*(f"episode.adapt.{name}" for name in
                           ("m_safe", "eps_prog", "v_min", "kappa_v", "u_box")),
                         "episode.eps_stuck", "episode.sensor_gain", "episode.gamma_theta",
                         "episode.gamma_scale", "episode.retarget_eps",
                         "episode.exit_merge_radius", "meta.r_offset"],
                        Domain(0.0, INF, "[)")),
        # window lengths and divisors counted in steps, cells or samples, and
        # the disc fit's radius clamp [1, circle_d_hat_cells]
        **dict.fromkeys(["episode.stuck_window", "episode.retarget_window",
                         "episode.coverage_cells_per_window", "episode.circle_d_hat_cells",
                         "episode.ring.n_samples", "train.epochs"], Domain(1, INF, "[)")),
        # counts, and the seed numpy's generators take
        **dict.fromkeys(["train.m_trials", "train.multi_steps", "train.seed"],
                        Domain(0, INF, "[)")),
    }

    def validate(self):
        for path, val in _leaves(to_dict(self)):
            if val not in self.DOMAINS[path]:
                raise ValueError(f"config field {path}={val!r} outside {self.DOMAINS[path]}")
        ep = self.episode
        if ep.scale_floor > ep.scale_cap:
            raise ValueError(f"config field episode.scale_floor={ep.scale_floor} is above "
                             f"episode.scale_cap={ep.scale_cap}")
        return self

    def episode_config(self) -> EpisodeConfig:
        ep = self.episode
        if self.robot == "point" and ep.ring is not None:
            ep = dataclasses.replace(ep, ring=None)
        if self.robot == "ring" and ep.ring is None:
            ep = dataclasses.replace(ep, ring=RingParams())
        return ep

    def meta_policy(self):
        if self.meta.checkpoint:
            return MetaRegressor.load(self.meta.checkpoint)
        m = self.meta
        r_off = m.r_offset if self.robot == "ring" else 0.0
        return DefaultMetaPolicy(beta=m.beta, lam=m.lam, alpha=m.alpha, mu=m.mu,
                                 mu_boost=m.mu_boost, d_ref=m.d_ref, r_offset=r_off)


def to_dict(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [to_dict(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _leaves(doc, prefix=""):
    """The (dotted path, value) of each leaf of the nested dict ``doc``."""
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield prefix + key, val


def _build(cls, data, path=""):
    """Rebuild a dataclass tree from parsed TOML/JSON by the fields' type hints.

    Tables become the dataclass their field names (``RingParams | None``
    included), lists become tuples where the field is a tuple, and a key that
    is not a field raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config field {path.rstrip('.') or cls.__name__} must be a table")
    hints = _type_hints(cls)
    for key in data:
        if key not in hints:
            raise ValueError(f"unknown config field {path}{key}: "
                             f"{cls.__name__} has no field {key!r}")
    kwargs = {key: _field_value(hints[key], val, f"{path}{key}.") for key, val in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as e:  # a cross-field check, whose message starts with its field
        raise ValueError(f"config field {path}{e}") from None


@lru_cache(maxsize=None)
def _type_hints(cls):
    """The resolved type hint of each of the dataclass ``cls``'s fields."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", tuple: "a list"}


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _field_value(hint, val, path):
    """``val`` as the field hinted ``hint`` holds it: a table as its dataclass,
    a list of numbers as a tuple, a number as the hint's float or int.  A
    value of another type (a bool or string for a number or a list element, a
    float with a fraction for an int) raises ValueError."""
    if val is None and not dataclasses.is_dataclass(hint):
        return None  # RunConfig.DOMAINS says which fields may be None
    kinds = typing.get_args(hint) or (hint,)
    for kind in kinds:
        if dataclasses.is_dataclass(kind):
            return _build(kind, val, path)
        if kind is tuple and isinstance(val, list):
            if not all(map(_is_number, val)):
                raise ValueError(f"config field {path.rstrip('.')} must be a list of "
                                 f"numbers, not {val!r}")
            return tuple(val)
        if kind is str and isinstance(val, str):
            return val
        if kind in (int, float) and _is_number(val):
            if kind is float:
                return float(val)
            if isinstance(val, int) or val.is_integer():
                return int(val)
    want = " or ".join(_KIND_NAMES[k] for k in kinds if k in _KIND_NAMES)
    raise ValueError(f"config field {path.rstrip('.')} must be {want}, not {val!r}")


def config_from_dict(doc: dict) -> RunConfig:
    return _build(RunConfig, doc).validate()


def _toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        if isinstance(v, float) and (v != v or v in (float("inf"), float("-inf"))):
            return f'"{v}"'  # inf/nan round-trip through strings
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)} to TOML")


def dumps_toml(doc: dict, prefix="") -> str:
    """Write the restricted TOML subset our configs use (nested tables)."""
    tables = [key for key, val in doc.items() if isinstance(val, dict)]
    lines = [f"{key} = {_toml_value(val)}" for key, val in doc.items()
             if val is not None and key not in tables]
    for key in tables:
        name = f"{prefix}{key}"
        lines += ["", f"[{name}]", dumps_toml(doc[key], prefix=name + ".")]
    return "\n".join(lines).strip() + "\n"


def _parse_special_floats(doc):
    if isinstance(doc, dict):
        return {k: _parse_special_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_parse_special_floats(v) for v in doc]
    if isinstance(doc, str) and doc in ("inf", "-inf", "nan"):
        return float(doc)
    return doc


def load_config(path) -> RunConfig:
    path = Path(path)
    doc = (json.loads if path.suffix == ".json" else tomllib.loads)(path.read_text())
    return config_from_dict(_parse_special_floats(doc))


def save_config(cfg: RunConfig, path):
    path = Path(path)
    doc = to_dict(cfg)
    if path.suffix == ".json":
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    else:
        path.write_text(dumps_toml(doc))


# ---------------------------------------------------------------------------
# Artifact writers

def write_steps_csv(result, path):
    """The episode's step log (``result.table`` under ``result.header``) as
    CSV, each value to 9 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(result.header)
        w.writerows([f"{v:.9g}" for v in row] for row in result.table.tolist())


def openblas_core() -> str:
    """The kernel core that numpy's bundled OpenBLAS selected on this CPU (or
    that ``OPENBLAS_CORETYPE`` forced), read through ctypes from
    ``scipy_openblas_get_corename64_``; "unknown" without such a library."""
    import ctypes

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
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {"numpy": np.__version__, "openblas_core": openblas_core(),
            "avx512f": features.get("AVX512F"), "x86_v4": features.get("X86_V4")}


def write_summary(result, metrics, path, extra=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "arithmetic": arithmetic_key(),
        "termination": result.termination,
        "n_steps": int(result.n_steps),
        "coverage": float(result.coverage),
        "metrics": metrics.row() if metrics is not None else None,
        "windows": [[float(c[0]), float(c[1]), float(h)]
                    for c, h in (result.tracker.windows if result.tracker else [])],
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def run_method(ws: Workspace, cfg: RunConfig, method=None):
    """Dispatch one episode of the requested navigating method.

    Grid workspaces always run the dungeon point-robot defaults
    (``dungeon_setup``), with the configured checkpoint's policy when one is
    set; disc workspaces run the configured episode and meta-policy.  Only
    ``grlsnam`` reads a meta-policy, so only it loads the checkpoint.
    """
    method = method or cfg.method
    ep, meta = dungeon_setup() if ws.grid is not None else (cfg.episode_config(), None)
    if method == "grlsnam":
        if ws.grid is None or cfg.meta.checkpoint:
            meta = cfg.meta_policy()
        return run_episode(ws, ep, meta)
    if method in ("pf", "dwa"):
        radius = cfg.rigid_radius if (cfg.robot == "ring" and ws.grid is None) else 0.0
        return run_baseline_episode(ws, method, ep, robot_radius=radius,
                                    pf_gains=cfg.pf, dwa_cfg=cfg.dwa)
    raise ValueError(f"unknown method {method!r} for run_method (grlsnam, pf or dwa; "
                     "the A* planners run through plan_method)")


def _reference_radius(ws: Workspace, cfg: RunConfig) -> float:
    """The radius of the rigid disc whose A* plan is the reference: one grid
    cell in a grid world, where the robot is a point, else the ring's rigid
    radius."""
    if ws.grid is not None:
        return ws.grid.cell_size
    return cfg.rigid_radius


def reference_plan(ws: Workspace, cfg: RunConfig) -> GridPlan:
    """The rigid disc's A* plan, whose length SPL and detour are measured against."""
    return astar_rigid(ws, cfg.astar_resolution, _reference_radius(ws, cfg))


def plan_method(ws: Workspace, cfg: RunConfig, method=None):
    method = method or cfg.method
    if method == "astar_rigid":
        return astar_rigid(ws, cfg.astar_resolution, cfg.rigid_radius)
    if method == "astar_deform":
        return astar_deformable(ws, cfg.astar_resolution, cfg.deform_r_min,
                                cfg.deform_penalty_gain, r_rest=cfg.rigid_radius)
    raise ValueError(f"unknown planner {method!r}")


# ---------------------------------------------------------------------------
# Commands

def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fams = sorted(FAMILIES) + ["dungeon", "bottleneck"]
    if args.family not in fams:
        print(f"error: family must be one of {fams}", file=sys.stderr)
        return 2
    stats = []
    for k in range(args.count):
        seed = args.seed + k
        if args.family == "dungeon":
            ws = generate_dungeon(seed)
        elif args.family == "bottleneck":
            ws = generate_bottleneck(seed)
        else:
            ws = generate_workspace(args.family, seed)
        save_workspace(ws, out / f"{args.family}_{k:04d}.json")
        if ws.grid is None:
            stats.append(gap_statistics(ws))
    if stats:
        with open(out / f"{args.family}_stats.json", "w") as fh:
            json.dump({"per_instance": stats}, fh, indent=1, sort_keys=True)
    print(f"wrote {args.count} {args.family} workspaces to {out}")
    return 0


def cmd_run(args) -> int:
    cfg = _checked_config(args.config, policy=True)
    if cfg is None:
        return 2
    if args.method:
        cfg.method = args.method
    ws = _checked_file(args.workspace, workspace_from_json)
    if ws is None:
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.method in ("astar_rigid", "astar_deform"):
        plan = plan_method(ws, cfg)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "arithmetic": arithmetic_key(),
            "method": cfg.method,
            "feasible": bool(plan.feasible),
            "L_ref": float(plan.length) if plan.feasible else None,
            "expansions": int(plan.expansions),
            "mapping_ratio": 1.0,  # full-map planners by convention
            "workspace": str(args.workspace),
        }
        with open(out / "summary.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        rows = [[str(k), f"{p[0]:.9g}", f"{p[1]:.9g}"] for k, p in enumerate(plan.waypoints)]
        with open(out / "steps.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(PLAN_COLUMNS)
            w.writerows(rows)
        if args.plot:
            # the waypoints as steps.csv holds them, so that `hamnav plot` draws the same
            _write_plan_plot(out, ws, np.array(rows, float).reshape(-1, 3), doc)
        print(f"{cfg.method}: feasible={plan.feasible} L={plan.length:.3f}")
        return 0
    result = run_method(ws, cfg)
    ref = reference_plan(ws, cfg)
    lref = ref.length if ref.feasible else np.nan
    metrics = episode_metrics(result, lref, cfg.d_thr)
    write_steps_csv(result, out / "steps.csv")
    write_summary(result, metrics, out / "summary.json",
                  extra={"method": cfg.method,
                         "L_ref": float(lref) if np.isfinite(lref) else None,
                         "workspace": str(args.workspace)})
    outlines = result.outlines()
    if outlines:
        with open(out / "ring_snapshots.json", "w") as fh:
            json.dump({"boundary": [b.tolist() for b in outlines]}, fh)
    if args.plot:
        _write_plots(out, ws, result.header, result.table,
                     result.tracker.windows if result.tracker else [], outlines,
                     result.termination)
    print(f"{cfg.method}: {result.termination} steps={result.n_steps} "
          f"len={result.path_length():.3f} SPL={metrics.spl:.3f}")
    return 0


def _write_plots(out: Path, ws, header, table, windows, outlines, note):
    """trajectory.svg (when the workspace ``ws`` is known) and timeseries.svg
    of a step log: ``table``'s rows under the column names ``header``
    (steps.csv's), the sensing ``windows`` as (center, half extent), the
    ring's ``outlines`` and the trajectory's ``note``.  A log with no rows
    draws no series."""
    cols = {name: table[:, i] for i, name in enumerate(header)}
    if ws is not None:
        positions = np.column_stack([cols["q2"], cols["q3"]])
        svg.plot_episode(ws, positions, windows, outlines,
                         extra_note=note).save(out / "trajectory.svg")
    series = {name: cols[name] for name in ("beta", "lam", "alpha_sum", "mu", "clr", "H")
              if name in cols and len(table)}
    with open(out / "timeseries.svg", "w") as fh:
        fh.write(svg.plot_timeseries(cols["t"], series))


def _write_plan_plot(out: Path, ws, table, summary):
    """trajectory.svg of an A* plan: the waypoints ``table`` (rows under
    PLAN_COLUMNS) on the workspace ``ws``, noted with the summary's method
    and whether the plan is feasible."""
    method = summary.get("method", "")
    note = method if summary.get("feasible", True) else f"{method}: infeasible"
    svg.plot_episode(ws, table[:, 1:3], extra_note=note).save(out / "trajectory.svg")


def _checked_config(path, policy=False):
    """The validated RunConfig in ``path`` (the defaults without one), or None
    after printing ``config error: ...`` for a missing or malformed file, and
    with ``policy`` for a ``meta.checkpoint`` that does not load."""
    try:
        cfg = load_config(path) if path else RunConfig().validate()
    except (OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return None
    try:
        if policy and cfg.meta.checkpoint:
            MetaRegressor.load(cfg.meta.checkpoint)
    except (OSError, ValueError, KeyError, TypeError, struct.error) as e:
        print(f"config error: meta.checkpoint: {e}", file=sys.stderr)
        return None
    return cfg


def _checked_file(path, parse):
    """``parse`` (workspace_from_json, SceneDatum.from_json) of the JSON
    document in ``path``, or None after printing ``error: <path>: <message>``
    for a file that is missing, not JSON, or rejected by ``parse``."""
    try:
        return parse(json.loads(Path(path).read_text()))
    # parse indexes and converts the parsed JSON as it goes
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
        reason = f"missing field {e}" if isinstance(e, KeyError) else str(e)
        print(f"error: {path}: {reason}", file=sys.stderr)
        return None


def cmd_train(args) -> int:
    cfg = _checked_config(args.config)
    if cfg is None:
        return 2
    dataset_dir = Path(args.dataset)
    scenes = []
    if dataset_dir.exists():
        for p in sorted(dataset_dir.glob("scene_*.json")):
            scene = _checked_file(p, SceneDatum.from_json)
            if scene is None:
                return 2
            if scene.q_ref is None or scene.v_ref is None:
                print(f"error: {p}: no reference rollout (q_ref and v_ref must be set)",
                      file=sys.stderr)
                return 2
            scenes.append(scene)
    if not scenes:
        print("error: no scene_*.json files in the dataset directory", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, curve = train_offline(scenes, cfg.train)
    model.save(out / "checkpoint.bin")
    with open(out / "loss_curve.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss"])
        for i, v in enumerate(curve):
            w.writerow([i, f"{v:.9g}"])
    print(f"trained {len(scenes)} scenes for {len(curve)} epochs; "
          f"final loss {curve[-1]:.6g}")
    return 0


def cmd_make_dataset(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenes = make_reference_dataset(args.count, args.seed)
    for i, s in enumerate(scenes):
        with open(out / f"scene_{i:04d}.json", "w") as fh:
            json.dump(s.to_json(), fh, sort_keys=True)
    print(f"wrote {len(scenes)} scenes to {out}")
    return 0


def _eval_one(ws: Workspace, cfg: RunConfig, methods):
    """Every method on the workspace ``ws``, against one A* reference plan.

    The methods run on one SharedWorkspace copy of ``ws``, dropped on return:
    the reference plan and the A* rows read one clearance raster, and the
    episodes one table of stage-edge openings.  The reference plan is also
    the ``astar_rigid`` row's plan when it is planned for ``rigid_radius``
    (always, on disc workspaces).  A method that raises gets an error row,
    which the table counts as a failure.
    """
    ws = SharedWorkspace(ws)
    ref = reference_plan(ws, cfg)
    lref = ref.length if ref.feasible else np.nan
    rows = {}
    for method in methods:
        try:
            rows[method] = _method_row(ws, cfg, method, ref, lref)
        except Exception as e:
            rows[method] = {"success": 0, "spl": 0.0, "termination": "error",
                            "error": f"{type(e).__name__}: {e}"}
    return rows


def _method_row(ws, cfg, method, ref, lref):
    if method not in ("astar_rigid", "astar_deform"):
        return episode_metrics(run_method(ws, cfg, method), lref, cfg.d_thr).row()
    if method == "astar_rigid" and _reference_radius(ws, cfg) == cfg.rigid_radius:
        plan = ref
    else:
        plan = plan_method(ws, cfg, method)
    return {
        "success": int(plan.feasible), "spl": spl(plan.feasible, plan.length, lref),
        "detour": plan.length / lref if plan.feasible and np.isfinite(lref) else np.nan,
        "min_clearance": cfg.rigid_radius if method == "astar_rigid" else cfg.deform_r_min,
        "mapping_ratio": 1.0,
    }


def cmd_eval(args) -> int:
    cfg = _checked_config(args.config, policy=True)
    if cfg is None:
        return 2
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print("error: no methods given", file=sys.stderr)
        return 2
    unknown = [m for m in methods if m not in RunConfig.METHODS]
    if unknown:
        print(f"error: unknown methods {unknown}; choose from {list(RunConfig.METHODS)}",
              file=sys.stderr)
        return 2
    ws_paths = sorted(Path(args.workspaces).glob("*.json"))
    ws_paths = [p for p in ws_paths if not p.name.endswith("_stats.json")]
    if not ws_paths:
        print("error: no workspace JSON files found", file=sys.stderr)
        return 2
    # every file is checked before any episode runs
    workspaces = [_checked_file(p, workspace_from_json) for p in ws_paths]
    if any(ws is None for ws in workspaces):
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = [_eval_one(ws, cfg, methods) for ws in workspaces]
    per_method = {m: {i: rows[m] for i, rows in enumerate(results)} for m in methods}
    for m, rows in per_method.items():
        for i, row in rows.items():
            if "error" in row:
                print(f"warning: {m} on {ws_paths[i].name}: {row['error']}", file=sys.stderr)

    table = [(m, table_row(list(per_method[m].values()))) for m in methods]
    with open(out / "comparison.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", *TABLE_COLUMNS])
        for m, r in table:
            w.writerow([m] + [f"{r[c]:.4f}" for c in TABLE_COLUMNS])
    md = ["| Method | SPL | Detour | MinClear | Mapping |",
          "|---|---|---|---|---|"]
    for m, r in table:
        md.append(f"| {m} | {r['SPL']:.3f} | {r['Detour']:.3f} | "
                  f"{r['MinClear']:.3f} | {100 * r['Mapping']:.1f}% |")
    (out / "comparison.md").write_text("\n".join(md) + "\n")
    with open(out / "per_episode.json", "w") as fh:
        json.dump(per_method, fh, indent=1, sort_keys=True, default=float)
    print("\n".join(md))
    return 0


def _steps_table(path):
    """The header of a steps CSV and its rows as an array; ValueError for an
    empty file, a row whose length is not the header's, or a non-number."""
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise ValueError("empty file")
    header, rows = lines[0], lines[1:]
    for k, r in enumerate(rows, start=2):
        if len(r) != len(header):
            raise ValueError(f"line {k}: {len(r)} cells under {len(header)} columns")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def cmd_plot(args) -> int:
    run_dir = Path(args.episode)
    summary_path = run_dir / "summary.json"
    steps_path = run_dir / "steps.csv"
    if not summary_path.exists() or not steps_path.exists():
        print("error: episode artifacts (summary.json, steps.csv) not found",
              file=sys.stderr)
        return 2
    summary = _checked_file(summary_path, dict)
    if summary is None:
        return 2
    try:
        header, data = _steps_table(steps_path)
    except (OSError, ValueError) as e:
        print(f"error: {steps_path}: {e}", file=sys.stderr)
        return 2
    plan = header == PLAN_COLUMNS  # an A* run's waypoints
    required = {"t", "q2", "q3"}
    if not plan and not required.issubset(header):
        print(f"error: steps.csv lacks columns {sorted(required - set(header))}",
              file=sys.stderr)
        return 2
    ws = None
    if "workspace" in summary:
        ws = _checked_file(summary["workspace"], workspace_from_json)
        if ws is None:
            return 2
    elif plan:
        print(f"error: {summary_path}: names no workspace to draw the plan on",
              file=sys.stderr)
        return 2
    out = Path(args.out or run_dir)
    out.mkdir(parents=True, exist_ok=True)
    if plan:
        _write_plan_plot(out, ws, data, summary)
    else:
        windows = [((w[0], w[1]), w[2]) for w in summary.get("windows", [])]
        outlines = []
        outline_path = run_dir / "ring_snapshots.json"
        if outline_path.exists():
            outlines = [np.asarray(b) for b in json.loads(outline_path.read_text())["boundary"]]
        _write_plots(out, ws, header, data, windows, outlines, summary.get("termination", ""))
    print(f"wrote plots to {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hamnav",
                                     description="stagewise energy-based navigation")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write workspace files")
    g.add_argument("--family", required=True)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run one episode / plan")
    r.add_argument("--config", default=None)
    r.add_argument("--workspace", required=True)
    r.add_argument("--method", default=None, choices=RunConfig.METHODS)
    r.add_argument("--out", required=True)
    r.add_argument("--plot", action="store_true")
    r.set_defaults(fn=cmd_run)

    t = sub.add_parser("train", help="train the meta-regressor")
    t.add_argument("--dataset", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    d = sub.add_parser("make-dataset", help="write reference scene data")
    d.add_argument("--count", type=int, default=20)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_make_dataset)

    e = sub.add_parser("eval", help="batch-evaluate methods")
    e.add_argument("--config", default=None)
    e.add_argument("--workspaces", required=True)
    e.add_argument("--methods", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    p = sub.add_parser("plot", help="re-render SVGs from episode artifacts")
    p.add_argument("--episode", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_plot)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
