"""Reference planners: grid A* (rigid and deformable), potential fields, DWA.

The A* planners see the full map and provide the reference path length used
by SPL and detour metrics.  PF and DWA are local reactive controllers driven
by the navigator's own StagewiseSensing (the same stages, exit selection,
sensing cadence, retargeting and coverage accounting); they steer by the
sensed obstacle memory and the stage goal, never by the workspace itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .navigator import EpisodeConfig, EpisodeRecorder, EpisodeResult, Observables, StagewiseSensing
from .energy import POINT_LAYOUT
from .workspace import DeadEndError, Workspace, norm2, row_norms

_SQRT2 = np.sqrt(2.0)
_STEPS = [(-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2), (0, -1, 1.0),
          (0, 1, 1.0), (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2)]


@dataclass
class GridPlan:
    path_cells: list
    waypoints: np.ndarray
    length: float
    expansions: int
    feasible: bool
    resolution: float = 0.0


def clearance_raster(ws: Workspace, resolution: float):
    """Per-cell clearance (distance to the nearest obstacle surface).

    Continuous workspaces get exact circle distances at cell centers;
    dungeon workspaces reuse their grid's Euclidean distance transform.
    """
    if ws.grid is not None:
        sdf = ws.grid.cell_sdf * ws.grid.cell_size
        return sdf, ws.grid.cell_size
    n = max(2, int(round(ws.side / resolution)))
    cell = ws.side / n
    centers = (np.arange(n) + 0.5) * cell
    xs, ys = np.meshgrid(centers, centers)  # row-major: [row=y, col=x]
    clear = np.full((n, n), np.inf)
    for ob in ws.obstacles:
        clear = np.minimum(clear, np.hypot(xs - ob.center[0], ys - ob.center[1]) - ob.radius)
    return clear, cell


def _to_cell(point, cell, shape):
    col = int(np.clip(point[0] / cell, 0, shape[1] - 1))
    row = int(np.clip(point[1] / cell, 0, shape[0] - 1))
    return row, col


def _astar(free, start_rc, goal_rc, cell, edge_multiplier=None):
    """8-connected A* with octile heuristic; returns (path, cost, expansions).

    ``edge_multiplier``, an array of free's shape whose cells are >= 1,
    scales the geometric cost of edges entering each cell; the heuristic
    stays admissible.

    Padded form: ``free`` gets a blocked border and is flattened, so a
    neighbour is ``index + offset`` with no bounds test; the heuristic, ``g``
    and the multipliers (ones by default) are flat float64 rasters read via
    memoryviews.  Heap entries (f, flat index) tie-break in (row, col) order,
    and each f, g and step is a per-cell search's float operation on the same
    operands (+ and * commute, x * 1.0 is x): the same path, cost and expansions.
    """
    ny, nx = free.shape
    if not (free[start_rc] and free[goal_rc]):
        return None, np.inf, 0
    width = nx + 2
    passable = np.pad(np.asarray(free, bool), 1).tobytes()  # one byte a cell, 0 on the border
    dy = np.abs(np.arange(ny + 2, dtype=float) - (goal_rc[0] + 1))[:, None]
    dx = np.abs(np.arange(width, dtype=float) - (goal_rc[1] + 1))
    h = np.minimum(dy, dx) * (_SQRT2 - 1.0)  # cell * (max + (sqrt2 - 1) * min), in place
    h += np.maximum(dy, dx)
    h *= cell
    mult = (np.ones(h.shape) if edge_multiplier is None
            else np.pad(np.asarray(edge_multiplier, float), 1))
    h, mult, g = (memoryview(a.ravel()) for a in (h, mult, np.full(h.shape, np.inf)))
    steps = [(dr * width + dc, float(w * cell)) for dr, dc, w in _STEPS]
    start, goal = ((r + 1) * width + c + 1 for r, c in (start_rc, goal_rc))
    g[start] = 0.0
    came, closed, expansions = {}, bytearray(len(h)), 0
    pq = [(h[start], start)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while pq:
        cur = heappop(pq)[1]
        if closed[cur]:
            continue
        closed[cur] = 1
        expansions += 1
        if cur == goal:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return [(i // width - 1, i % width - 1) for i in reversed(path)], g[goal], expansions
        g_cur = g[cur]
        for offset, step in steps:
            nb = cur + offset
            if passable[nb]:
                cand = g_cur + step * mult[nb]
                if cand < g[nb]:
                    g[nb] = cand
                    came[nb] = cur
                    heappush(pq, (cand + h[nb], nb))
    return None, np.inf, expansions


def _plan(ws: Workspace, free, cell, edge_multiplier=None) -> GridPlan:
    """The A* plan on ``free`` from the cell holding ws.start to ws.goal's."""
    path, _, expansions = _astar(free, _to_cell(ws.start, cell, free.shape),
                                 _to_cell(ws.goal, cell, free.shape), cell, edge_multiplier)
    if path is None:
        return GridPlan([], np.zeros((0, 2)), np.inf, expansions, False, cell)
    wps = np.array([[(c + 0.5) * cell, (r + 0.5) * cell] for r, c in path])
    length = float(row_norms(np.diff(wps, axis=0)).sum()) if len(wps) > 1 else 0.0
    return GridPlan(path, wps, length, expansions, True, cell)


def astar_rigid(ws: Workspace, resolution: float, inflation_radius: float) -> GridPlan:
    """Optimal 8-connected path for a rigid disc of the given radius.

    Cells with clearance below the inflation radius are blocked; an
    infeasible plan certifies that the rigid disc cannot pass.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    clear, cell = clearance_raster(ws, resolution)
    return _plan(ws, clear >= inflation_radius, cell)


def astar_deformable(ws: Workspace, resolution: float, r_min: float,
                     penalty_gain: float = 1.0, r_rest: float = None) -> GridPlan:
    """Clearance-aware A*: squeezing below the rest radius costs extra.

    Edge cost = geometric length * (1 + gain * max(0, r_rest - clr) /
    (clr - r_min)) on cells with clearance above r_min; impassable below.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    r_rest = r_min * 2.0 if r_rest is None else r_rest
    clear, cell = clearance_raster(ws, resolution)
    free = clear > r_min
    multiplier = None
    if penalty_gain > 0:
        clr = clear[free]
        multiplier = np.ones_like(clear)
        multiplier[free] = 1.0 + penalty_gain * np.maximum(0.0, r_rest - clr) / (clr - r_min)
    return _plan(ws, free, cell, multiplier)


# ---------------------------------------------------------------------------
# Local reactive baselines (stagewise sensing only)

@dataclass
class PFGains:
    k_att: float = 1.0
    k_rep: float = 0.3
    d_hat: float | None = None  # repulsion range; the episode's d_hat when None
    v_max: float = 1.2
    d_floor: float = 1e-3  # distance floor inside repulsion to keep it finite


def pf_step(position, centers, radii, stage_goal, gains: PFGains) -> np.ndarray:
    """Attractive pull to the stage exit plus inverse-square repulsion.

    ``centers`` (M, 2) and ``radii`` (M,) are the discs PF steers by.  The
    discs inside ``gains.d_hat`` are found in one pass; their repulsion
    terms are added one at a time in the discs' order.
    """
    position = np.asarray(position, float)
    v = gains.k_att * (np.asarray(stage_goal, float) - position)
    delta = position - centers
    dist = row_norms(delta)  # each as norm2(delta[k])
    d = np.maximum(dist - radii, gains.d_floor)
    for k in np.flatnonzero((d < gains.d_hat) & (dist > 1e-12)).tolist():
        mag = gains.k_rep * (1.0 / d[k] - 1.0 / gains.d_hat) / (d[k] * d[k])
        v = v + mag * (delta[k] / dist[k])
    speed = norm2(v)
    if speed > gains.v_max:
        v = v * (gains.v_max / speed)
    return v


@dataclass
class DWAConfig:
    v_max: float = 1.2
    n_per_axis: int = 7
    horizon: int = 8
    dt: float = 0.1
    w_progress: float = 1.0
    w_clearance: float = 0.4
    w_speed: float = 0.05


@dataclass
class DWAResult:
    velocity: np.ndarray
    blocked: bool
    score: float
    index: int


@lru_cache(maxsize=64)
def _candidate_grid(v_max, n_per_axis, horizon, dt):
    """DWA's (n**2, 2) candidate velocities (row-major, v_y outer), their
    speeds, the (n, horizon) rollout displacements ``ts * axis`` along one
    axis and the (n**2, 2) endpoint displacements ``ts[-1] * vel``; formed
    once per key and read-only."""
    axis = np.linspace(-v_max, v_max, n_per_axis)
    vel = np.column_stack([np.tile(axis, n_per_axis), np.repeat(axis, n_per_axis)])
    ts = np.arange(1, horizon + 1) * dt
    grid = vel, np.hypot(vel[:, 0], vel[:, 1]), axis[:, None] * ts, ts[-1] * vel
    for a in grid:
        a.setflags(write=False)
    return grid


def dwa_step(position, centers, radii, stage_goal, cfg: DWAConfig, d_hat: float,
             robot_radius: float = 0.0, stage_bounds=None) -> DWAResult:
    """Sample (v_x, v_y) on a grid, roll out, score, hard-reject collisions.

    All ``n_per_axis**2`` candidates are rolled out and scored at once for a
    disc of ``robot_radius`` among the discs of (M, 2) ``centers`` and (M,)
    ``radii``; the clearance term saturates at ``d_hat``, the episode's
    barrier activation distance.  A candidate is rejected when a rollout
    point leaves ``stage_bounds`` (x0, y0, x1, y1) or its clearance is below
    0; with every candidate rejected the result is ``blocked``.  Ties go to
    the lowest candidate index (row-major over the grid, v_y outer).

    Axis form: candidate ``i*n + j`` moves at (axis[j], axis[i]), so a
    rollout point's x depends only on (j, step) and its y only on (i, step):
    the stage box is tested per axis, and the squared gaps to the discs are
    two (n, horizon, M) arrays summed once to (n, n, horizon, M).  Every float
    operation has a per-candidate rollout's operands (IEEE ``+`` commutes)
    and each min runs over the same values, so the bits are that rollout's:
    the clearance is sqrt(dx*dx + dy*dy), the formula of ``row_norms`` and
    disc_distances, and the goal distances in ``progress`` are row_norms, each
    the scalar ``norm2``.
    """
    position = np.asarray(position, float)
    goal = np.asarray(stage_goal, float)
    d0 = norm2(position - goal)
    # shorten the lookahead near the goal so the coarse grid can close in
    horizon = max(1, min(cfg.horizon, int(np.ceil(d0 / (cfg.v_max * cfg.dt)))))
    n = cfg.n_per_axis
    vel, speed, disp, end = _candidate_grid(cfg.v_max, n, horizon, cfg.dt)
    x, y = position[0] + disp, position[1] + disp  # (v_x index j, step), (v_y index i, step)
    if stage_bounds is None:
        ok = np.ones((n, n), dtype=bool)  # [i, j]
    else:
        x0, y0, x1, y1 = stage_bounds
        ok = ~(((y < y0) | (y > y1)).any(axis=1)[:, None] | ((x < x0) | (x > x1)).any(axis=1))
    if len(radii):
        gx = x[:, :, None] - centers[:, 0]  # (j, step, disc)
        gy = y[:, :, None] - centers[:, 1]  # (i, step, disc)
        dist = np.sqrt((gy * gy)[:, None] + gx * gx) - radii  # (i, j, step, disc)
        clr = dist.min(axis=(2, 3)) - robot_radius
    else:
        clr = np.full((n, n), d_hat)
    ok &= ~(clr < 0)  # hard rejection of colliding candidates
    if not ok.any():
        return DWAResult(np.zeros(2), True, -np.inf, -1)
    progress = d0 - row_norms(position + end - goal)
    score = (cfg.w_progress * progress + cfg.w_clearance * np.minimum(clr.ravel(), d_hat)
             + cfg.w_speed * speed)
    best = int(np.where(ok.ravel(), score, -np.inf).argmax())  # the first maximum
    return DWAResult(vel[best].copy(), False, float(score[best]), best)


# ---------------------------------------------------------------------------
# Matched-sensing episode wrappers

def run_baseline_episode(ws: Workspace, method: str, cfg: EpisodeConfig,
                         robot_radius: float = 0.0, pf_gains: PFGains = None,
                         dwa_cfg: DWAConfig = None) -> EpisodeResult:
    """Run PF or DWA as a rigid disc under the navigator's sensing regime.

    Both plan for the disc of ``robot_radius`` they are judged as, and both
    take the episode's ``d_hat`` unless ``pf_gains`` sets its own.  The
    navigator's EpisodeRecorder logs the episode, so one evaluation pipeline
    covers every method.
    """
    if method not in ("pf", "dwa"):
        raise ValueError(f"unknown baseline method {method!r}")
    sensing = StagewiseSensing(ws, cfg)
    rec = EpisodeRecorder(ws, cfg, sensing.tracker, POINT_LAYOUT, radius=robot_radius)
    pf_gains, dwa_cfg = pf_gains or PFGains(), dwa_cfg or DWAConfig()
    if pf_gains.d_hat is None:
        pf_gains = replace(pf_gains, d_hat=cfg.d_hat)

    def observe(pos, v):
        """The sensed observables at pos, commanding v."""
        # no sensed disc: an infinite clearance, capped at d_hat
        clr = rec.true_clr if ws.grid is None else (
            sensing.memory.discs.clearance(pos) - robot_radius)
        return Observables(min(clr, cfg.d_hat), norm2(pos - ws.goal), norm2(v))

    pos = ws.start.copy()
    q = np.concatenate([np.zeros(2), pos])  # the point layout: (sensor, frame)
    termination = rec.start(q)
    while termination is None:
        try:
            sensing.refresh(pos, rec.n)
        except DeadEndError:
            termination = "dead_end"
            break
        stage_goal, discs = sensing.stage_goal, sensing.memory.discs
        if method == "pf":
            # PF plans in the rigid disc's configuration space
            v = pf_step(pos, discs.centers, discs.radii + robot_radius, stage_goal, pf_gains)
        else:
            # pad the stage box so exit-adjacent candidates survive the
            # leave-stage rejection (tiles overlap by more than this)
            x0, y0, x1, y1 = sensing.stages.stage_bounds(sensing.stage)
            pad = cfg.eps_stage
            v = dwa_step(pos, discs.centers, discs.radii, stage_goal, dwa_cfg, cfg.d_hat,
                         robot_radius, (x0 - pad, y0 - pad, x1 + pad, y1 + pad)).velocity
        rec.record(q, observe(pos, v))
        pos = pos + cfg.tau * v
        q = np.concatenate([np.zeros(2), pos])
        termination = rec.step(q)
    rec.record(q, observe(pos, np.zeros(2)))
    return rec.result(termination)
