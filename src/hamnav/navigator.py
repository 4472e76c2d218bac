"""Online adaptive navigation loop.

Each step of ``_Episode.run`` calls its phase methods in turn:
``sense_and_propose`` (stagewise sensing; the meta policy proposes weights),
``compose`` (the surrogate Hamiltonian on the active set, evaluated once),
``step`` (symplectic Euler with frame-only damping and port input),
``observe`` (y = [-clearance, goal distance, -speed]), ``adapt`` (a smoothed
secant-Jacobian / Tikhonov update of [beta, lam, mu]), ``port`` (a port force
from the residual the update leaves, held for a frame horizon) and ``log``,
on a state whose q and p are lists of floats.  A barrier weight alpha_i is
the meta-policy's first proposal for its disc and is not adapted.

Sensing is stagewise (StagewiseSensing, shared with the PF/DWA baselines):
the world is re-sensed every T_y steps, on a stage change, and when an exit
is attained or abandoned.  An exit is handed off once: the first step within
eps_stage of it records the attainment and senses, and the steps near it
after that do not, until the selector hands out another exit or the exit is
abandoned.  Discovered obstacles accumulate in an episode-local memory (one
DiscSet), and only the active set, the memory's discs near the robot, enters
the energy.
EpisodeRecorder, shared with the baselines too, logs each state and decides
when the episode ends.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import deque
from dataclasses import astuple, dataclass, field

import numpy as np

from .dynamics import PortSelectors, step_symplectic_euler
from .energy import (
    POINT_LAYOUT,
    RING_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
    evaluate,
)
from .ring import RingParams, RingShapeModel
from .workspace import (
    CircleRegistry,
    CoverageTracker,
    DeadEndError,
    DiscSet,
    ObstacleMemory,
    SharedWorkspace,
    StageManager,
    Workspace,
    disc_distances,
    grid_sdf_world,
    norm2,
    row_norms,
    sense,
)


@dataclass
class Observables:
    """Low-dimensional feedback: min clearance, goal distance, speed.  The
    adaptation's observable vector is y = [-clearance, goal distance, -speed]."""

    clearance: float
    goal_dist: float
    speed: float


def compute_observables(z_next: PhaseState, clearance, x_g, shape_qoi_clearances,
                        mass, layout, d_hat) -> Observables:
    """Observables after a step.

    Clearance is the min of ``clearance``, the new configuration's measured
    distance to the active discs (+inf for none), and any clearances
    collected from the shape rollout; it is capped at d_hat so the clearance
    channel stays bounded when nothing is active.  The state, ``x_g`` and
    ``mass`` are sequences of numbers; the speed is ``norm2`` of p / mass,
    its squares summed from 0.0 in index order.
    """
    clr = clearance
    for extra in shape_qoi_clearances:
        clr = min(clr, float(extra))
    clr = min(clr, d_hat)
    q, f = z_next.q, layout.frame.start
    dx, dy = q[f] - x_g[0], q[f + 1] - x_g[1]
    total = 0.0
    for p, m in zip(z_next.p, mass):
        v = p / m
        total += v * v
    return Observables(clr, math.sqrt(dx * dx + dy * dy), math.sqrt(total))


# The adaptation works on the 3 observables y and the 3 adapted weights
# zeta = [beta, lam, mu] in Python floats: a vector is a tuple, and J, the
# 3x3 estimate of dy/dzeta, a tuple of its rows.  Each helper unpacks its
# vectors and J's rows once and writes every dot product out as
# (u0 v0 + u1 v1) + u2 v2, the left-to-right order of the ``_dot`` loop form
# that tests/test_navigator.py keeps as the bit-exact reference; so no BLAS
# or LAPACK kernel sets the bits.


def secant_jacobian_update(J_prev, dy, dzeta, rho, eps) -> tuple:
    """Exponentially smoothed rank-one secant estimate of dy/dzeta:
    J = rho J_prev + (1 - rho) dy dzeta^T / (|dzeta|^2 + eps)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = J_prev
    d0, d1, d2 = dy
    z0, z1, z2 = dzeta
    denom = z0 * z0 + z1 * z1 + z2 * z2 + eps
    w = 1.0 - rho
    return ((rho * a0 + w * (d0 * z0 / denom), rho * a1 + w * (d0 * z1 / denom),
             rho * a2 + w * (d0 * z2 / denom)),
            (rho * b0 + w * (d1 * z0 / denom), rho * b1 + w * (d1 * z1 / denom),
             rho * b2 + w * (d1 * z2 / denom)),
            (rho * c0 + w * (d2 * z0 / denom), rho * c1 + w * (d2 * z1 / denom),
             rho * c2 + w * (d2 * z2 / denom)))


# A step's secant pair updates J only while the ids of the SECANT_SLOTS
# nearest active discs are those of the step before.  No adapted weight
# belongs to a disc; the gate stays only because dropping it moves the
# trajectories (ROADMAP open item 3 decides its fate).
SECANT_SLOTS = 2


def _pivot(value):
    """The square root of a Cholesky pivot; LinAlgError unless it is > 0."""
    if not value > 0.0:  # NaN too
        raise np.linalg.LinAlgError("singular normal equations: need lam > 0")
    return math.sqrt(value)


def tikhonov_step(J, dy_des, lam) -> tuple:
    """Solve (J^T J + lam I) dzeta = J^T dy_des for the 3 weights: an
    unrolled Cholesky factorization A = L L^T in a fixed order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 10), then
    L y = J^T dy_des and L^T dzeta = y.  A pivot that is not positive raises
    LinAlgError."""
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = J  # J's columns are a, b and c
    d0, d1, d2 = dy_des
    l00 = _pivot(a0 * a0 + a1 * a1 + a2 * a2 + lam)
    l10, l20 = (b0 * a0 + b1 * a1 + b2 * a2) / l00, (c0 * a0 + c1 * a1 + c2 * a2) / l00
    l11 = _pivot(b0 * b0 + b1 * b1 + b2 * b2 + lam - l10 * l10)
    l21 = (c0 * b0 + c1 * b1 + c2 * b2 - l20 * l10) / l11
    l22 = _pivot(c0 * c0 + c1 * c1 + c2 * c2 + lam - l20 * l20 - l21 * l21)
    y0 = (a0 * d0 + a1 * d1 + a2 * d2) / l00
    y1 = (b0 * d0 + b1 * d1 + b2 * d2 - l10 * y0) / l11
    y2 = (c0 * d0 + c1 * d1 + c2 * d2 - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    return (y0 - l10 * x1 - l20 * x2) / l00, x1, x2


def project_update(zeta, dzeta, kappa, caps) -> tuple:
    """Damped weight step projected onto the box [0, caps]:
    zeta' = min(max(zeta + kappa .* dzeta, 0), caps), componentwise, for the
    3 weights (a NaN stays NaN).

    ``kappa``'s components lie in [0, 1): the config's domain table
    (``cli.RunConfig.DOMAINS``) holds the step sizes in [0, 0.999].
    """
    z0, z1, z2 = zeta
    d0, d1, d2 = dzeta
    k0, k1, k2 = kappa
    c0, c1, c2 = caps
    return (min(max(z0 + k0 * d0, 0.0), c0), min(max(z1 + k1 * d1, 0.0), c1),
            min(max(z2 + k2 * d2, 0.0), c2))


def port_correction(P, r, lam_u, box) -> tuple:
    """Least-squares port input from the adaptation residual, clipped to box:
    (P^T P + lam_u I) u = P^T r for a 3x2 P (rows), solved in closed form
    (LinAlgError when singular).

    lam_u = inf disables the port exactly (returns zeros).
    """
    if math.isinf(lam_u):
        return 0.0, 0.0
    (a0, b0), (a1, b1), (a2, b2) = P  # P's columns are a and b
    r0, r1, r2 = r
    a00 = a0 * a0 + a1 * a1 + a2 * a2 + lam_u
    a01 = a0 * b0 + a1 * b1 + a2 * b2
    a11 = b0 * b0 + b1 * b1 + b2 * b2 + lam_u
    v0, v1 = a0 * r0 + a1 * r1 + a2 * r2, b0 * r0 + b1 * r1 + b2 * r2
    det = a00 * a11 - a01 * a01
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    u0, u1 = (a11 * v0 - a01 * v1) / det, (a00 * v1 - a01 * v0) / det
    return min(max(u0, -box), box), min(max(u1, -box), box)


# ---------------------------------------------------------------------------
# Meta policy

@dataclass
class MetaTokens:
    """Inputs the meta-policy sees: per-obstacle tokens plus scalar context."""

    obstacle_ids: list
    tokens: np.ndarray       # (m, 4): rel x, rel y, radius, surface distance
    rel_stage_goal: np.ndarray
    speed: float


def build_tokens(q, p, discs: DiscSet, stage_goal, mass, layout) -> MetaTokens:
    """Tokens of the discs of a DiscSet, in its (ascending id) order."""
    c = q[layout.frame]
    rel = discs.centers - c
    tokens = np.column_stack([rel, discs.radii, row_norms(rel) - discs.radii])
    speed = norm2(p / np.asarray(mass, float))
    return MetaTokens(discs.ids.tolist(), tokens, np.asarray(stage_goal, float) - c, speed)


class DefaultMetaPolicy:
    """Hand-tuned weights; the untrained fallback.

    Damping grows as the nearest obstacle closes in (slow, careful motion
    near contact), everything else is constant.  ``r_offset`` shifts token
    distances from the robot center to its boundary (ring rest radius).
    """

    def __init__(self, beta=1.5, lam=1.0, alpha=2.0, mu=4.0,
                 mu_boost=1.0, d_ref=1.0, r_offset=0.4):
        self.beta, self.lam, self.alpha0, self.mu = beta, lam, alpha, mu
        self.mu_boost, self.d_ref, self.r_offset = mu_boost, d_ref, r_offset

    def propose(self, tokens: MetaTokens) -> EnergyWeights:
        mu = self.mu
        if len(tokens.obstacle_ids):
            d_nose = float(tokens.tokens[:, 3].min()) - self.r_offset
            closeness = 1.0 - min(max(d_nose, 0.0) / self.d_ref, 1.0)
            mu = self.mu * (1.0 + self.mu_boost * closeness)
        return EnergyWeights(self.beta, self.lam,
                             {i: self.alpha0 for i in tokens.obstacle_ids}, mu)


# ---------------------------------------------------------------------------
# Episode configuration and result

@dataclass
class AdaptConfig:
    rho: float = 0.6
    eps: float = 1e-6
    kappa_beta: float = 0.25
    kappa_gamma: float = 0.05   # damping head; also governs lam and mu
    lam_zeta: float = 1e-2
    lam_u: float = 1e-2
    kappa_v: float = 1.0
    u_box: float = 1.5
    m_safe: float = 0.2
    eps_prog: float = 0.05
    v_min: float = 0.2
    zeta_cap: tuple = (8.0, 8.0, 12.0)  # ceilings for beta, lam, mu


@dataclass
class EpisodeConfig:
    tau: float = 0.03
    horizons: tuple = (10, 5, 1)  # (T_y, T_f, T_o), sensor slowest
    n_max: int = 4000
    eps_goal: float = 0.15
    eps_stage: float = 0.3   # attainment radius for stage exits (handoff)
    # stuck_window < retarget_window, as by default: a robot at rest while on
    # an exit ends "stuck" before the no-progress abandon can retarget it
    stuck_window: int = 50
    eps_stuck: float = 0.002
    d_hat: float = 0.8
    sense_half_extent: float = None  # sensing window half-size; d_hat when None
    sensor_gain: float = 1.0
    mass_frame: float = 1.5
    inertia: float = 0.6
    gamma_theta: float = 1.6
    gamma_scale: float = 2.0
    ring: RingParams | None = None
    stage_w: float = 2.6
    stage_h: float = 2.0
    stage_overlap: float = 0.3
    r_inflate: float = 0.18   # just under the fully squeezed ring radius
    passable_width: float = 0.1
    scale_floor: float = 0.25
    scale_cap: float = 1.3
    coverage_cells_per_window: int = 8  # h_cov = d_hat / 8
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    circle_d_hat_cells: float = 8.0
    retarget_window: int = 80   # steps without exit progress before retarget
    retarget_eps: float = 0.02
    exit_merge_radius: float = 1.2

    @property
    def window(self) -> float:
        return self.d_hat if self.sense_half_extent is None else self.sense_half_extent


def dungeon_setup(n_max=12000):
    """Tuned configuration for grid-maze worlds (point robot).

    The sensing window spans most of a room while the barrier activation
    stays tight; stages align with the room pitch so exits are doors.
    """
    cfg = EpisodeConfig(ring=None, d_hat=1.5, sense_half_extent=4.0, n_max=n_max,
                        eps_goal=0.4, eps_stage=1.0, stage_w=6.0, stage_h=6.0,
                        stage_overlap=1.0 / 6.0, r_inflate=0.8, passable_width=0.5,
                        adapt=AdaptConfig(m_safe=0.5, v_min=0.3),
                        circle_d_hat_cells=3.0)
    meta = DefaultMetaPolicy(beta=1.0, lam=0.0, alpha=3.0, mu=6.0,
                             r_offset=0.0, mu_boost=0.5)
    return cfg, meta


@dataclass
class EpisodeResult:
    """Trajectory log, parameter history and bookkeeping for one episode."""

    times: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    energies: np.ndarray
    clearances: np.ndarray       # sensed clearance (capped at d_hat)
    true_clearances: np.ndarray  # against the ground-truth world
    goal_dists: np.ndarray
    speeds: np.ndarray
    betas: np.ndarray
    lams: np.ndarray
    alpha_sums: np.ndarray
    active_counts: np.ndarray
    mus: np.ndarray
    u_fs: np.ndarray
    breakdown: dict
    termination: str
    coverage: float
    layout: object
    wall_time: float
    tracker: CoverageTracker = None
    shape: RingShapeModel = None  # the ring's shape model; None for a point robot
    final_weights: dict = field(default_factory=dict)
    # the step log, one row per logged state, under the column names of
    # ``header`` (EpisodeRecorder.COLUMNS, as steps.csv holds them); the
    # arrays above are views of its columns
    header: tuple = ()
    table: np.ndarray = None

    @property
    def positions(self):
        return self.qs[:, self.layout.frame]

    @property
    def n_steps(self):
        return len(self.times) - 1

    def path_length(self) -> float:
        d = np.diff(self.positions, axis=0)
        return float(row_norms(d).sum())

    def outlines(self) -> list:
        """The ring's boundary (RingShapeModel.boundary) at every
        max(1, len(qs) // 12)-th logged state from the first: about 12
        outlines, at most 23.  A point robot has none."""
        if self.shape is None:
            return []
        return [self.shape.boundary(q) for q in self.qs[::max(1, len(self.qs) // 12)]]


class ExitSelector:
    """Stage-exit choice routed over the stage adjacency graph.

    Stages are nodes; two neighboring tiles are connected when their shared
    boundary has a free opening.  A breadth-first tree from the goal stage
    fixes each stage's outgoing direction, and the exposed exit is the best
    opening on that directed edge (fewest traversals, then widest capped
    width, then nearest the goal).  Openings at the robot's feet are skipped
    so a just-attained exit hands over to the next one.

    An edge's openings are measured once, into a table.  On a SharedWorkspace
    every episode with this stage tiling reads the workspace's one table: the
    openings depend on the world, the goal and the tiling alone (traversals
    and failures are the episode's), and each exit is a read-only array.
    """

    DIRS = {"e": (1, 0), "w": (-1, 0), "n": (0, 1), "s": (0, -1)}

    def __init__(self, stages: StageManager, ws: Workspace, eps_stage: float,
                 merge_radius: float = 1.2, max_failures: int = 3):
        self.stages, self.ws, self.eps = stages, ws, eps_stage
        self.merge_radius = merge_radius
        self.max_failures = max_failures
        self.traversals = []  # [point, n]: successful attains rotate openings
        self.failures = []    # [point, n]: abandons; too many kill the opening
        # (i, j, dir) -> list of (score, dist, mid)
        self._openings = (ws.openings.setdefault(astuple(stages), {})
                          if isinstance(ws, SharedWorkspace) else {})
        self._broken = set()  # (stage, dir) edges with no live opening left
        self._next_dir = None

    # -- graph ---------------------------------------------------------------

    def _edge_openings(self, idx, direction):
        key = (idx[0], idx[1], direction)
        if key in self._openings:
            return self._openings[key]
        from .workspace import _edge_blocked_intervals, _free_intervals
        x0, y0, x1, y1 = self.stages.stage_bounds(idx)
        L = self.ws.side
        seg = {"e": ((x1, y0), (x1, y1)), "w": ((x0, y0), (x0, y1)),
               "n": ((x0, y1), (x1, y1)), "s": ((x0, y0), (x1, y0))}[direction]
        p0, p1 = np.asarray(seg[0], float), np.asarray(seg[1], float)
        out = []
        boundary = (direction == "e" and x1 >= L - 1e-9) or \
                   (direction == "w" and x0 <= 1e-9) or \
                   (direction == "n" and y1 >= L - 1e-9) or \
                   (direction == "s" and y0 <= 1e-9)
        if not boundary:
            length, blocked = _edge_blocked_intervals(p0, p1, self.ws,
                                                      self.stages.r_inflate)
            u = (p1 - p0) / length
            for a, b in _free_intervals(length, blocked):
                width = b - a
                if width <= 1e-9:
                    continue
                mid = p0 + u * ((a + b) / 2.0)
                mid.flags.writeable = False
                score = min(width, self.stages.passable_width)
                out.append((score, norm2(mid - self.ws.goal), mid))
        self._openings[key] = out
        return out

    def _build_route(self):
        nx, ny = self.stages.nx, self.stages.ny
        goal_stage = self.stages.stage_of(self.ws.goal)
        dist = {goal_stage: 0}
        frontier = deque([goal_stage])
        parent_dir = {}
        while frontier:
            cur = frontier.popleft()
            for d, (di, dj) in sorted(self.DIRS.items()):
                nb = (cur[0] + di, cur[1] + dj)
                if not (0 <= nb[0] < nx and 0 <= nb[1] < ny) or nb in dist:
                    continue
                # nb connects to cur through nb's edge facing cur
                back = {"e": "w", "w": "e", "n": "s", "s": "n"}[d]
                if (nb, back) in self._broken:
                    continue
                if self._live_openings(nb, back):
                    dist[nb] = dist[cur] + 1
                    parent_dir[nb] = back
                    frontier.append(nb)
        self._next_dir = parent_dir
        self._reachable = dist

    # -- bookkeeping ----------------------------------------------------------

    @staticmethod
    def _bump(table, point, merge_radius):
        for entry in table:
            if norm2(entry[0] - point) < merge_radius:
                entry[1] += 1
                return
        table.append([np.asarray(point, float).copy(), 1])

    @staticmethod
    def _lookup(table, mid, merge_radius):
        for point, count in table:
            if norm2(point - mid) < merge_radius:
                return count
        return 0

    def record(self, exit_point, attained: bool):
        """Bookkeeping for an exit the robot reached (attained) or gave up on."""
        table = self.traversals if attained else self.failures
        self._bump(table, exit_point, self.merge_radius)

    def _live_openings(self, idx, direction):
        return [o for o in self._edge_openings(idx, direction)
                if self._lookup(self.failures, o[2], self.merge_radius) < self.max_failures]

    # -- selection -------------------------------------------------------------

    def select(self, position, stage_idx) -> np.ndarray:
        if self._next_dir is None:
            self._build_route()
        x0, y0, x1, y1 = self.stages.stage_bounds(stage_idx)
        goal = self.ws.goal
        if x0 <= goal[0] <= x1 and y0 <= goal[1] <= y1:
            return goal.copy()
        key = tuple(stage_idx)
        if key not in self._reachable:
            raise DeadEndError(f"stage {stage_idx} is cut off from the goal stage")
        direction = self._next_dir[key]
        alive = self._live_openings(key, direction)
        if not alive:
            # the routed edge is impassable in practice: drop it and re-route
            self._broken.add((key, direction))
            self._next_dir = None
            return self.select(position, stage_idx)
        scored = sorted(
            ((self._lookup(self.failures, mid, self.merge_radius),
              self._lookup(self.traversals, mid, self.merge_radius),
              -score, dist, k, mid)
             for k, (score, dist, mid) in enumerate(alive)),
            key=lambda t: t[:5])
        for *_, mid in scored:
            if norm2(mid - position) >= self.eps:
                return mid
        return scored[0][-1]


class StagewiseSensing:
    """The stagewise sensing regime the navigator and the PF/DWA baselines share.

    It owns the stage tiling, the coverage raster, the disc registry of grid
    worlds, the exit selector and the obstacle memory, and keeps the current
    ``stage`` and its ``stage_goal`` (an exit on the stage boundary, or the
    global goal once it lies inside the stage).
    """

    def __init__(self, ws: Workspace, cfg: EpisodeConfig):
        self.ws, self.cfg = ws, cfg
        self.stages = StageManager(ws.side, cfg.stage_w, cfg.stage_h, cfg.stage_overlap,
                                   cfg.r_inflate, cfg.passable_width)
        self.tracker = CoverageTracker(ws.side, cfg.window / cfg.coverage_cells_per_window)
        self.registry = CircleRegistry() if ws.grid is not None else None
        self.exits = ExitSelector(self.stages, ws, cfg.eps_stage, cfg.exit_merge_radius)
        self.memory = ObstacleMemory()
        self.stage_goal = ws.goal.copy()
        self.stage = None
        self.exit_dists = deque(maxlen=cfg.retarget_window)  # distances to the exit
        self.handed_off = False  # stage_goal was attained and has not changed since

    @property
    def stage_goal(self) -> np.ndarray:
        """An array; setting it sets its float pair ``stage_goal_xy`` and
        ``on_exit`` (whether it is not the goal)."""
        return self._stage_goal

    @stage_goal.setter
    def stage_goal(self, goal):
        self._stage_goal = goal
        self.stage_goal_xy = tuple(goal.tolist())
        self.on_exit = not (goal == self.ws.goal).all()

    def refresh(self, c, n) -> bool:
        """Stage bookkeeping at step ``n`` with the robot at ``c``; True if it sensed.

        An exit within eps_stage is attained and hands off to the neighboring
        stage; an exit the robot made less than retarget_eps of progress
        toward over the last retarget_window steps is abandoned.  Both are
        recorded with the exit selector.  The robot re-senses every T_y steps,
        on a stage change, and on an attained or abandoned exit, and then
        takes the exit the selector routes it to.  Each exit is attained once
        (``handed_off``): when the selector hands the attained exit back, the
        steps within eps_stage of it record nothing and do not sense, though
        each still releases the sticky stage, until the selector hands out
        another exit or the exit is abandoned.  Raises DeadEndError when
        the stage is cut off from the goal; the window is sensed (and charged
        to coverage) first.  ``c`` is a pair of numbers, read as it is.  The
        bookkeeping is in Python floats (``min``/``max`` give ``np.clip``'s
        bits); the position is an array only to sense.
        """
        cfg, side, (gx, gy) = self.cfg, self.ws.side, self.stage_goal_xy
        cx, cy = c
        pos = (min(max(cx, 0.0), side), min(max(cy, 0.0), side))
        dist = math.sqrt((cx - gx) * (cx - gx) + (cy - gy) * (cy - gy))
        self.exit_dists.append(dist)
        near = dist < cfg.eps_stage
        # one hand-off per exit: only the first step near it is a stage hit
        stage_hit = near and not self.handed_off
        no_progress = (self.on_exit and len(self.exit_dists) == cfg.retarget_window
                       and self.exit_dists[0] - min(self.exit_dists) < cfg.retarget_eps)
        if self.on_exit and (stage_hit or no_progress):
            self.exits.record(self.stage_goal, attained=stage_hit)
        # the active stage is sticky while it still contains the robot
        stage = self.stages.stage_of(pos, current=None if near else self.stage)
        if not (n % cfg.horizons[0] == 0 or stage != self.stage or stage_hit or no_progress):
            return False
        pos = np.array(pos, dtype=float)
        ctx = sense(self.ws, pos, cfg.window, tracker=self.tracker, registry=self.registry,
                    circle_params={"d_hat_cells": cfg.circle_d_hat_cells})
        goal = self.exits.select(pos, stage)
        self.memory.add(ctx.obstacles)
        same_exit = (goal == self.stage_goal).all()
        if no_progress or not same_exit:
            self.exit_dists.clear()
        # a hand-off holds while the exit stays; an abandon ends it
        self.handed_off = same_exit and (stage_hit or (self.handed_off and not no_progress))
        self.stage_goal, self.stage = goal, stage
        return True


# world_clearance holds its candidate discs while the frame, plus the ring's
# reach times the change of scale, stays within this distance (m) of where
# it chose them
HELD_REACH = 0.5


class EpisodeRecorder:
    """One episode's log, termination checks and result, shared by the
    navigator and the PF/DWA baselines.

    ``start`` and ``step`` take each state the episode reaches, q a list of
    floats: they measure its ground-truth clearance once (``true_clr``) and
    return why the episode ends there, or None.  ``record`` appends a state's
    row, a Python list in header order, to a flat float64 ``array``;
    ``result`` hands the rows to the EpisodeResult as one table, zeros in the
    columns a loop never wrote.
    A rigid disc of ``radius`` is judged by its centre's clearance less the
    radius.
    """

    # The step log's columns in steps.csv order, each with the EpisodeResult
    # field that holds it (None: a key of ``breakdown``).  q and p take
    # layout.dim values (q0, q1, ...), u_f two (u_f0, u_f1), the others one.
    # Every loop records t, q and the observables clr, true_clr, dist and
    # speed; the navigator also records the rest.
    COLUMNS = {"t": "times", "q": "qs", "p": "ps", "H": "energies", "clr": "clearances",
               "true_clr": "true_clearances", "dist": "goal_dists", "speed": "speeds",
               "E_sensor": None, "E_goal": None, "E_obj": None, "E_barrier_total": None,
               "beta": "betas", "lam": "lams", "alpha_sum": "alpha_sums",
               "active": "active_counts", "mu": "mus", "u_f": "u_fs"}

    def __init__(self, ws: Workspace, cfg: EpisodeConfig, tracker: CoverageTracker,
                 layout, shape=None, radius=0.0):
        self.t_wall = time.perf_counter()
        self.ws, self.cfg, self.tracker = ws, cfg, tracker
        self.layout, self.shape, self.radius = layout, shape, radius
        self.sdf = grid_sdf_world(ws.grid) if ws.grid is not None else None
        self.world = DiscSet.of(enumerate(ws.obstacles))
        widths = {"q": layout.dim, "p": layout.dim, "u_f": 2}
        # column name -> its index in a row, or slice of indices; the header
        # names each index
        self.rows, header = {}, []
        for name in self.COLUMNS:
            width = widths.get(name)
            start = len(header)
            self.rows[name] = start if width is None else slice(start, start + width)
            header += [name] if width is None else [f"{name}{i}" for i in range(width)]
        self.header = tuple(header)
        self.goal_xy = tuple(ws.goal.tolist())
        self.table = array("d")  # the logged rows, one after another
        self.m = 0  # states logged
        self.navigated = False  # whether the navigator's columns were logged
        self.recent = deque(maxlen=cfg.stuck_window + 1)  # frames after each step
        self.n = 0  # steps taken
        self.true_clr = None
        # the ring's reach, rounded up (0 for a point), and world_clearance's
        # frame c0, scale s0 and held discs
        self.reach = 0.0 if shape is None else shape.reach
        self.held = (math.nan, math.nan, math.nan, [])

    def true_clearance(self, q) -> float:
        """Clearance against the ground-truth world (not the sensed one): in a
        grid world the SDF at the frame, less a rigid disc's radius or the
        ring's rest radius times its scale; in a disc world
        ``world_clearance`` at the frame (and the ring's scale), less a rigid
        disc's radius."""
        c = q[self.layout.frame]
        if self.ws.grid is not None:
            base = float(self.sdf(c)) - self.radius
            if self.shape is not None:
                base -= float(q[self.layout.scale.start]) * self.shape.params.r_base
            return base
        if self.shape is not None:
            return self.world_clearance(c, q[self.layout.scale.start])
        return self.world_clearance(c) - self.radius

    def world_clearance(self, c, s=0.0) -> float:
        """The least signed distance from the robot at frame c (a ring at
        scale s) to the world's discs, from a held candidate set: for a point
        the float of ``self.world.clearance(c)``, for a ring that of
        ``RingShapeModel.min_clearance`` over every world disc.

        At (c0, s0) it takes every centre gap g_i = |c0 - C_i| - r_i by
        disc_distances and holds the discs with
        g_i <= min g + 2 s0 R + 2H + 1e-9, R being ``self.reach`` and H
        HELD_REACH.  The set stands while |c - c0| + |s - s0| R < H.  A disc's
        least distance lies in [g_i(c) - sR, g_i(c) + sR], and g_i is
        1-Lipschitz in c, so a dropped disc's stays above
        min g + 2 s0 R + 2H - |c - c0| - sR + 1e-9, and the held minimum is at
        most min g + |c - c0| + sR, which is less while the set stands.  The
        pad, as in ``_Episode.active_set``, dwarfs the float error.  A point
        takes the held minimum by disc_distances' formula in Python floats,
        a ring by ``RingShapeModel.rows_clearance``.  A non-finite state or
        an empty world holds nothing and takes every disc.
        """
        cx, cy = c
        x0, y0, s0, held = self.held
        moved = math.hypot(cx - x0, cy - y0)
        if self.shape is None:  # reach 0: the scale term drops out
            if moved < HELD_REACH:
                return min([math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) - r
                            for x, y, r, _ in held])
        elif moved + abs(s - s0) * self.reach < HELD_REACH:
            return self.shape.rows_clearance((cx, cy), s, held)
        world, shape = self.world, self.shape
        if not (len(world) and math.isfinite(cx) and math.isfinite(cy) and math.isfinite(s)):
            return world.clearance(c) if shape is None else shape.rows_clearance(c, s, world.rows)
        gaps = disc_distances(world.centers, world.radii, c)
        g = float(gaps.min())
        keep = (gaps <= g + 2.0 * (s * self.reach + HELD_REACH) + 1e-9).tolist()
        held = [row for row, k in zip(world.rows, keep) if k]
        self.held = (cx, cy, s, held)
        return g if shape is None else shape.rows_clearance((cx, cy), s, held)

    def start(self, q):
        """Measure the start state: 'collision' if it collides, else as ``_at``."""
        self.true_clr = self.true_clearance(q)
        return "collision" if self.true_clr < 0 else self._at(q[self.layout.frame])

    def step(self, q):
        """Measure the state a step reached: 'collision' when it collides,
        'stuck' when the frame moved less than eps_stuck over the last
        stuck_window steps, else as ``_at``."""
        cfg = self.cfg
        self.n += 1
        self.true_clr = self.true_clearance(q)
        xy = q[self.layout.frame]
        self.recent.append(xy)
        if self.true_clr < 0:
            return "collision"
        if len(self.recent) == cfg.stuck_window + 1:
            dx, dy = xy[0] - self.recent[0][0], xy[1] - self.recent[0][1]
            if math.sqrt(dx * dx + dy * dy) < cfg.eps_stuck:
                return "stuck"
        return self._at(xy)

    def _at(self, xy):
        """'success' with the frame ``xy`` (a float pair) at the goal,
        'timeout' after n_max steps, else None."""
        dx, dy = xy[0] - self.goal_xy[0], xy[1] - self.goal_xy[1]
        if math.sqrt(dx * dx + dy * dy) < self.cfg.eps_goal:
            return "success"
        return "timeout" if self.n >= self.cfg.n_max else None

    def record(self, q, y: Observables, columns=None):
        """Log the state last measured, q, at time m * tau, with its
        observables y; the navigator also passes ``columns``, its other
        columns by name (p, u_f, the energy terms and the weights)."""
        row, at = [0.0] * len(self.header), self.rows
        row[at["q"]] = q
        row[at["t"]], row[at["clr"]], row[at["true_clr"]], row[at["dist"]], row[at["speed"]] = (
            self.cfg.tau * self.m, y.clearance, self.true_clr, y.goal_dist, y.speed)
        if columns:
            for name, value in columns.items():
                row[at[name]] = value
            self.navigated = True
        self.table.fromlist(row)
        self.m += 1

    def result(self, termination, final_weights=None) -> EpisodeResult:
        table = np.array(self.table, dtype=float).reshape(self.m, len(self.header))
        arrays, breakdown = {}, {}
        for name, field_name in self.COLUMNS.items():
            if field_name is None:
                breakdown[name] = table[:, self.rows[name]]
            else:
                arrays[field_name] = table[:, self.rows[name]]
        if self.navigated:
            arrays["active_counts"] = arrays["active_counts"].astype(np.int64)
        return EpisodeResult(
            **arrays,
            breakdown=breakdown,
            termination=termination,
            coverage=self.tracker.covered_fraction(),
            layout=self.layout,
            wall_time=time.perf_counter() - self.t_wall,
            tracker=self.tracker,
            shape=self.shape,
            final_weights=final_weights or {},
            header=self.header,
            table=table,
        )


class _Episode:
    """One episode's state (z, the weights, J, u_f and the previous y, zeta and
    slots); run() drives the phase methods, which pass a step's values along."""

    def __init__(self, ws: Workspace, cfg: EpisodeConfig, meta):
        self.ws, self.cfg, self.meta = ws, cfg, meta
        mass, self.structural = [1.0, 1.0, cfg.mass_frame, cfg.mass_frame], [0.0] * 4
        if cfg.ring is not None:
            self.layout, self.shape = RING_LAYOUT, RingShapeModel(cfg.ring)
            mass += [cfg.inertia, cfg.ring.mass_scale]
            self.structural += [float(cfg.gamma_theta), float(cfg.gamma_scale)]
        else:
            self.layout, self.shape = POINT_LAYOUT, None
        self.mass, self.goal_xy = [float(m) for m in mass], tuple(ws.goal.tolist())
        self.selectors = PortSelectors(dim=self.layout.dim, frame=self.layout.frame)
        self.damping_scale = float(getattr(ws, "damping_scale", 1.0))
        self.sensing = StagewiseSensing(ws, cfg)
        q = [0.0] * self.layout.dim
        q[self.layout.frame] = ws.start.tolist()
        if self.layout.scale is not None:
            q[self.layout.scale.start] = 1.0
        self.z = PhaseState(q, [0.0] * self.layout.dim)
        # the weights the energy reads; the loop adapts beta, lam and mu in place
        self.weights = EnergyWeights()
        self.u_f = (0.0, 0.0)
        self.J = ((0.0, 0.0, 0.0),) * 3  # dy/d[beta, lam, mu], in rows
        self.prev_y = self.prev_zeta = self.prev_slots = None
        # the adaptation's constants, formed once: the step sizes of [beta, lam, mu]
        self.kappa = (float(cfg.adapt.kappa_beta), float(cfg.adapt.kappa_gamma),
                      float(cfg.adapt.kappa_gamma))
        self.caps = tuple(float(c) for c in cfg.adapt.zeta_cap)
        self.fixed = None  # the FixedTerms of the current stage goal
        self.spec = None  # the HamiltonianSpec of the active set and self.fixed
        # the last full active-set test: (memory, c0x, c0y, reach0, slack, mask, set)
        self.active = (None, 0.0, 0.0, 0.0, -math.inf, None, None)

    # -- geometry helpers ---------------------------------------------------

    def contact_at(self, q, discs: DiscSet, held=None):
        """The ring's contact pass at q against discs (None for a point
        robot).  ``held``, a pass made at q already, is reused when it was made
        against this DiscSet object."""
        if self.shape is None:
            return None
        if held is not None and held.discs is discs:
            return held
        return self.shape.contact(q, discs)

    def active_set(self, q) -> DiscSet:
        """The memory's discs whose barrier can be non-zero at q: those with
        g_i(c) = row_norms(c - centre_i) - radius_i <= reach at the frame c.

        For the ring the reach expands by the current ring radius, since the
        barrier acts on boundary samples rather than the center.  The set last
        formed is handed back, the same object, while the memory's DiscSet
        and the mask are unchanged.  The full test runs only when the mask can
        have changed: it keeps c0, reach0 and slack = min_i |g_i(c0) - reach0|
        - 1e-9; each g_i is 1-Lipschitz in c, so no g_i - reach crosses zero
        while the DiscSet is the same and |c - c0| + |reach - reach0| < slack.
        The pad 1e-9 exceeds the float error of the g_i (a few ulps, about
        1e-13 at coordinates of 1e3) by orders of magnitude.  A NaN or an
        empty memory always re-tests.
        """
        reach = self.cfg.d_hat
        if self.shape is not None:
            reach += q[self.layout.scale.start] * self.shape.params.r_base * 1.05
        mem = self.sensing.memory.discs
        cx, cy = q[self.layout.frame]
        held_mem, c0x, c0y, reach0, slack, held_mask, held = self.active
        if held_mem is mem and math.hypot(cx - c0x, cy - c0y) + abs(reach - reach0) < slack:
            return held
        gaps = row_norms((cx, cy) - mem.centers) - mem.radii
        mask = gaps <= reach
        slack = float(np.abs(gaps - reach).min()) - 1e-9 if len(mem) else -math.inf
        if held_mem is not mem or held_mask.tobytes() != mask.tobytes():
            held = mem[mask]
        self.active = (mem, cx, cy, reach, slack, mask, held)
        return held

    def spec_for(self, act: DiscSet):
        """The HamiltonianSpec on act at the current stage goal.  The spec last
        formed is handed back, the same object, while act and the goal's
        FixedTerms are; it reads self.weights, which the loop adapts in place."""
        goal = self.sensing.stage_goal
        if self.fixed is None or self.fixed.goal is not goal:
            self.fixed = FixedTerms(layout=self.layout, goal=goal, d_hat=self.cfg.d_hat,
                                    sensor_gain=self.cfg.sensor_gain, shape=self.shape)
        spec = self.spec
        if spec is None or spec.discs is not act or spec.fixed is not self.fixed:
            self.spec = spec = HamiltonianSpec(mass=self.mass, weights=self.weights,
                                               discs=act, fixed=self.fixed)
        return spec

    def clearance(self, q, act: DiscSet, contact) -> float:
        """The sensed clearance at q: the ring's pass there, or the point's to act."""
        return act.clearance(q[self.layout.frame]) if contact is None else contact.clearance

    # -- phases ---------------------------------------------------------------

    def sense_and_propose(self, n):
        """Sensing refresh at step n (DeadEndError when the stage is cut off);
        at each sensing event the meta policy re-proposes the weights: the
        scalars re-anchor, a barrier weight is set at its disc's first one."""
        z = self.z
        if not self.sensing.refresh(z.q[self.layout.frame], n):
            return
        tokens = build_tokens(z.q, z.p, self.sensing.memory.discs, self.sensing.stage_goal,
                              self.mass, self.layout)
        prop, w = self.meta.propose(tokens), self.weights
        w.beta, w.lam, w.mu = prop.beta, prop.lam, prop.mu
        for idx, a in prop.alpha.items():
            w.alpha.setdefault(idx, a)

    def compose(self, n, contact):
        """(act, contact, ev, shape_clearances): the surrogate Hamiltonian at
        self.z on the active set, evaluated once for the step and the log.
        ``contact``, the ring's pass at self.z, is reused while act is; the
        ring refreshes its scale target each shape horizon."""
        q = self.z.q
        act = self.active_set(q)
        contact = self.contact_at(q, act, contact)
        shape_clearances = ()
        if self.shape is not None:
            if n % self.cfg.horizons[2] == 0:
                self.shape.refresh_target(contact.clearance)
            shape_clearances = (contact.clearance,)
        return act, contact, evaluate(q, self.spec_for(act), self.z.p, contact), shape_clearances

    def step(self, ev) -> PhaseState:
        """One port-Hamiltonian step from self.z (the damping scale models
        plant mismatch); a ring's scale stops inelastically at [scale_floor,
        scale_cap] (``min``/``max``: np.clip's bits)."""
        cfg = self.cfg
        z = step_symplectic_euler(self.z, ev.grad_list, self.weights.mu * self.damping_scale,
                                  self.u_f, self.mass, cfg.tau, self.selectors, self.structural)
        if self.layout.scale is not None:
            k = self.layout.scale.start
            if not cfg.scale_floor <= z.q[k] <= cfg.scale_cap:
                z.q[k], z.p[k] = min(max(z.q[k], cfg.scale_floor), cfg.scale_cap), 0.0
        return z

    def observe(self, z, act: DiscSet, shape_clearances=(), contact=None) -> Observables:
        """Observables of z; ``contact``, the ring's pass at z against act,
        gives the clearance."""
        return compute_observables(z, self.clearance(z.q, act, contact), self.goal_xy,
                                   shape_clearances, self.mass, self.layout, self.cfg.d_hat)

    def adapt(self, y: Observables, act: DiscSet, z) -> tuple:
        """Secant / Tikhonov adaptation of [beta, lam, mu] from y at z, in
        floats (see the note above secant_jacobian_update): (dy_des, dzeta),
        the change asked of y = [-clearance, goal distance, -speed] and the
        step.  The target y* holds clearance at m_safe (a safety margin, never
        pulled down), asks the distance to shrink by eps_prog and floors the
        speed at v_min while clearance is safe."""
        ad = self.cfg.adapt
        clr, dist, speed = y.clearance, y.goal_dist, y.speed
        y0, y2 = -clr, -speed
        floor = ad.v_min if clr >= ad.m_safe else 0.0
        dy_des = (min(-ad.m_safe - y0, 0.0), dist - ad.eps_prog - dist, -max(speed, floor) - y2)
        slots = act.nearest(z.q[self.layout.frame], SECANT_SLOTS)
        w = self.weights
        beta, lam, mu = zeta = (w.beta, w.lam, w.mu)
        if self.prev_zeta is not None and slots == self.prev_slots:
            (p0, p1, p2), (q0, q1, q2) = self.prev_y, self.prev_zeta
            self.J = secant_jacobian_update(self.J, (y0 - p0, dist - p1, y2 - p2),
                                            (beta - q0, lam - q1, mu - q2), ad.rho, ad.eps)
        dzeta = tikhonov_step(self.J, dy_des, ad.lam_zeta)
        w.beta, w.lam, w.mu = project_update(zeta, dzeta, self.kappa, self.caps)
        self.prev_y, self.prev_zeta, self.prev_slots = (y0, dist, y2), zeta, slots
        return dy_des, dzeta

    def port(self, n, z, dy_des, dzeta):
        """The port input from the residual the weight step leaves, at z, once
        per frame horizon (zero-order hold between): braking raises y3 =
        -speed, and from rest "more speed" means toward the stage goal."""
        if n % self.cfg.horizons[1]:
            return
        ad, fx = self.cfg.adapt, self.layout.frame.start
        (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = self.J
        d0, d1, d2 = dy_des
        z0, z1, z2 = dzeta
        r = (d0 - (a0 * z0 + b0 * z1 + c0 * z2), d1 - (a1 * z0 + b1 * z1 + c1 * z2),
             d2 - (a2 * z0 + b2 * z1 + c2 * z2))
        vx, vy = z.p[fx] / self.mass[fx], z.p[fx + 1] / self.mass[fx + 1]
        sp = norm2((vx, vy))
        row = (0.0, 0.0)
        if sp > 1e-6:
            row = (-ad.kappa_v * vx / sp, -ad.kappa_v * vy / sp)
        else:
            sx, sy = self.sensing.stage_goal_xy
            gx, gy = sx - z.q[fx], sy - z.q[fx + 1]
            dg = norm2((gx, gy))
            if dg > 1e-9:
                row = (-ad.kappa_v * gx / dg, -ad.kappa_v * gy / dg)
        self.u_f = port_correction(((0.0, 0.0), (0.0, 0.0), row), r, ad.lam_u, ad.u_box)

    def logged(self, seen, act: DiscSet, contact) -> Observables:
        """Observables of self.z for its log row.  ``seen`` is (y, DiscSet),
        what the step that reached self.z observed there (None at the start):
        y's goal distance and speed, and the clearance against act: the ring's
        pass at self.z, or a point's y's own (measured, capped) if act is the
        DiscSet y was measured against."""
        if seen is None:
            return self.observe(self.z, act, (), contact)
        y, measured = seen
        if contact is None and measured is act:
            return y
        clr = self.clearance(self.z.q, act, contact)
        return Observables(min(clr, self.cfg.d_hat), y.goal_dist, y.speed)

    def log(self, rec: EpisodeRecorder, seen, act: DiscSet, contact, parts):
        """Record self.z with the observables ``logged`` gives, its momentum,
        the port input, the energy terms ``parts`` and the weights."""
        w = self.weights
        parts.update(p=self.z.p, u_f=self.u_f, beta=w.beta, lam=w.lam,
                     alpha_sum=sum(w.alpha.get(i, 0.0) for i in act.id_list),
                     active=len(act), mu=w.mu)
        rec.record(self.z.q, self.logged(seen, act, contact), parts)

    def finish(self, rec: EpisodeRecorder, termination, contact, seen) -> EpisodeResult:
        """Record the last state, which no step follows, and build the result."""
        act = self.active_set(self.z.q)
        contact = self.contact_at(self.z.q, act, contact)
        ev = evaluate(self.z.q, self.spec_for(act), self.z.p, contact)
        self.log(rec, seen, act, contact, ev.parts)
        w = self.weights
        return rec.result(termination, {"beta": w.beta, "lam": w.lam, "mu": w.mu,
                                        "alpha": dict(w.alpha)})

    # -- main loop ----------------------------------------------------------

    def run(self) -> EpisodeResult:
        rec = EpisodeRecorder(self.ws, self.cfg, self.sensing.tracker, self.layout, self.shape)
        termination = rec.start(self.z.q)
        # made by the step that reached self.z (None at the start): the ring's
        # contact pass there, and what observe measured there with its DiscSet
        contact = seen = None
        while termination is None:
            n = rec.n
            try:
                self.sense_and_propose(n)
            except DeadEndError:
                termination = "dead_end"
                break
            act, contact, ev, shape_clearances = self.compose(n, contact)
            try:
                z_next = self.step(ev)
            except FloatingPointError:
                termination = "diverged"
                break
            contact_next = self.contact_at(z_next.q, act)
            y = self.observe(z_next, act, shape_clearances, contact_next)
            dy_des, dzeta = self.adapt(y, act, z_next)
            self.port(n, z_next, dy_des, dzeta)
            self.log(rec, seen, act, contact, ev.parts)
            self.z, contact, seen = z_next, contact_next, (y, act)
            termination = rec.step(self.z.q)
        return self.finish(rec, termination, contact, seen)


def run_episode(ws: Workspace, cfg: EpisodeConfig, meta=None) -> EpisodeResult:
    """Execute the full online loop on one workspace.

    Terminates with one of success / timeout / collision / stuck / dead_end /
    diverged (a non-finite state or gradient).  Deterministic: identical
    (workspace, config, meta) give bit-identical results.
    """
    return _Episode(ws, cfg, meta or DefaultMetaPolicy()).run()
