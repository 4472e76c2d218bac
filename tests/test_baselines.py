import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamnav.baselines as baselines
from hamnav.baselines import (
    DWAConfig,
    PFGains,
    astar_deformable,
    astar_rigid,
    clearance_raster,
    dwa_step,
    pf_step,
    run_baseline_episode,
)
from hamnav.generation import generate_dungeon, generate_workspace
from hamnav.navigator import EpisodeConfig
from hamnav.workspace import (
    Obstacle,
    OccupancyGrid,
    Workspace,
    signed_distances,
)


def dijkstra_cost(free, start, goal, cell):
    """Uniform-cost oracle for the A* optimality checks."""
    if not (free[start] and free[goal]):
        return np.inf
    ny, nx = free.shape
    dist = {start: 0.0}
    pq = [(0.0, start)]
    steps = [(-1, -1, np.sqrt(2)), (-1, 0, 1.0), (-1, 1, np.sqrt(2)), (0, -1, 1.0),
             (0, 1, 1.0), (1, -1, np.sqrt(2)), (1, 0, 1.0), (1, 1, np.sqrt(2))]
    seen = set()
    while pq:
        d, cur = heapq.heappop(pq)
        if cur in seen:
            continue
        seen.add(cur)
        if cur == goal:
            return d
        r, c = cur
        for dr, dc, w in steps:
            nb = (r + dr, c + dc)
            if 0 <= nb[0] < ny and 0 <= nb[1] < nx and free[nb]:
                nd = d + w * cell
                if nd < dist.get(nb, np.inf):
                    dist[nb] = nd
                    heapq.heappush(pq, (nd, nb))
    return np.inf


def grid_workspace(occ, cell=1.0, start=None, goal=None):
    grid = OccupancyGrid(occ, cell)
    n = occ.shape[0] * cell
    start = start or (1.5 * cell, 1.5 * cell)
    goal = goal or (n - 1.5 * cell, n - 1.5 * cell)
    return Workspace(n, [], start, goal, grid=grid)


class TestAstarRigid:
    def test_empty_straight_line(self):
        ws = Workspace(10.0, [], (0.55, 0.55), (9.55, 0.55))
        plan = astar_rigid(ws, 0.1, 0.0)
        assert plan.feasible
        assert plan.length == pytest.approx(9.0, abs=0.2)

    def test_start_equals_goal(self):
        ws = Workspace(10.0, [], (5.0, 5.0), (5.0, 5.0))
        plan = astar_rigid(ws, 0.1, 0.0)
        assert plan.feasible and plan.length == 0.0

    def test_matches_dijkstra_on_random_grids(self, rng):
        for _ in range(10):
            occ = rng.random((32, 32)) < 0.25
            occ[1, 1] = occ[30, 30] = False
            ws = grid_workspace(occ)
            plan = astar_rigid(ws, 1.0, 0.0)
            clear, cell = clearance_raster(ws, 1.0)
            free = clear >= 0.0
            oracle = dijkstra_cost(free, (1, 1), (30, 30), cell)
            if plan.feasible:
                # rigid path cost equals geometric length here
                assert plan.length == pytest.approx(oracle, abs=1e-9)
            else:
                assert oracle == np.inf

    def test_inflation_monotone(self):
        ws = Workspace(10.0, [Obstacle(np.array([5.0, 5.2]), 1.0)], (1.0, 5.0), (9.0, 5.0))
        lengths, feas = [], []
        for r in (0.0, 0.3, 0.6):
            plan = astar_rigid(ws, 0.1, r)
            feas.append(plan.feasible)
            lengths.append(plan.length if plan.feasible else np.inf)
        assert lengths[0] <= lengths[1] <= lengths[2]
        assert feas[0] >= feas[1] >= feas[2]

    def test_bottleneck_infeasible_for_rigid(self):
        # half-gap 0.3 < inflation 0.4: certification of "cannot pass"
        obstacles = [Obstacle(np.array([5.0, y]), 0.8)
                     for y in np.arange(-0.8, 4.0, 0.9)]
        obstacles += [Obstacle(np.array([5.0, y]), 0.8)
                      for y in np.arange(5.4 + 0.3 + 0.8 - 0.9, 11.0, 0.9)]
        obstacles.append(Obstacle(np.array([5.0, 4.8]), 0.8))
        obstacles.append(Obstacle(np.array([5.0, 6.6]), 0.8))  # gap at ~5.7..6.0
        ws = Workspace(10.0, obstacles, (1.0, 5.7), (9.0, 5.7))
        assert not astar_rigid(ws, 0.1, 0.4).feasible

    def test_invalid_resolution(self):
        ws = Workspace(10.0, [], (1, 1), (9, 9))
        with pytest.raises(ValueError):
            astar_rigid(ws, 0.0, 0.1)


class TestAstarDeformable:
    def test_open_map_equals_rigid(self):
        ws = Workspace(10.0, [Obstacle(np.array([5.0, 8.0]), 0.5)], (1.0, 2.0), (9.0, 2.0))
        rigid = astar_rigid(ws, 0.2, 0.3)
        soft = astar_deformable(ws, 0.2, r_min=0.3, penalty_gain=1.0, r_rest=0.4)
        assert soft.feasible
        assert soft.length == pytest.approx(rigid.length, rel=1e-9)

    def test_squeezes_where_rigid_cannot(self):
        # fence with a single 0.3 half-gap at y = 5.3
        gap_half, R, yc = 0.3, 0.8, 5.3
        obstacles = []
        y = yc - gap_half - R
        while y > -R:
            obstacles.append(Obstacle(np.array([5.0, y]), R))
            y -= 1.2 * R
        y = yc + gap_half + R
        while y < 10 + R:
            obstacles.append(Obstacle(np.array([5.0, y]), R))
            y += 1.2 * R
        ws = Workspace(10.0, obstacles, (1.0, 5.3), (9.0, 5.3))
        assert not astar_rigid(ws, 0.1, 0.4).feasible
        soft = astar_deformable(ws, 0.1, r_min=0.2, penalty_gain=1.0, r_rest=0.4)
        assert soft.feasible

    def test_zero_gain_matches_dijkstra(self, rng):
        occ = rng.random((24, 24)) < 0.2
        occ[1, 1] = occ[22, 22] = False
        ws = grid_workspace(occ)
        plan = astar_deformable(ws, 1.0, r_min=0.0, penalty_gain=0.0)
        clear, cell = clearance_raster(ws, 1.0)
        free = clear > 0.0
        oracle = dijkstra_cost(free, (1, 1), (22, 22), cell)
        if plan.feasible:
            assert plan.length == pytest.approx(oracle, abs=1e-9)
        else:
            assert oracle == np.inf


def astar_reference(free, start_rc, goal_rc, cell, edge_multiplier=None):
    """The A* loop as it ran with a per-neighbour ``edge_multiplier(r, c)``
    closure, before astar_deformable's multipliers became one raster; kept as
    its oracle.  Returns (path, cost, expansions)."""
    ny, nx = free.shape
    if not (free[start_rc] and free[goal_rc]):
        return None, np.inf, 0

    def h(rc):
        dy, dx = abs(rc[0] - goal_rc[0]), abs(rc[1] - goal_rc[1])
        return cell * (max(dy, dx) + (np.sqrt(2.0) - 1.0) * min(dy, dx))

    g, came, closed, expansions = {start_rc: 0.0}, {}, set(), 0
    pq = [(h(start_rc), start_rc)]
    steps = [(-1, -1, np.sqrt(2.0)), (-1, 0, 1.0), (-1, 1, np.sqrt(2.0)), (0, -1, 1.0),
             (0, 1, 1.0), (1, -1, np.sqrt(2.0)), (1, 0, 1.0), (1, 1, np.sqrt(2.0))]
    while pq:
        _, cur = heapq.heappop(pq)
        if cur in closed:
            continue
        closed.add(cur)
        expansions += 1
        if cur == goal_rc:
            path = [cur]
            while cur in came:
                cur = came[cur]
                path.append(cur)
            return path[::-1], g[goal_rc], expansions
        r, c = cur
        for dr, dc, w in steps:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < ny and 0 <= nc < nx) or not free[nr, nc]:
                continue
            step = w * cell
            if edge_multiplier is not None:
                step *= edge_multiplier(nr, nc)
            cand = g[cur] + step
            if cand < g.get((nr, nc), np.inf):
                g[(nr, nc)] = cand
                came[(nr, nc)] = cur
                heapq.heappush(pq, (cand + h((nr, nc)), (nr, nc)))
    return None, np.inf, expansions


class TestAstarOracle:
    """_astar on random grids against astar_reference, bit for bit."""

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 10_000), st.floats(0.0, 0.6),
           st.sampled_from([1.0, 0.1, 0.37]), st.booleans(),
           st.sampled_from(["random", "same", "blocked_start", "blocked_goal", "walled"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, ny, nx, seed, density, cell, weighted, case):
        r = np.random.default_rng(seed)
        free = r.random((ny, nx)) >= density
        start = (int(r.integers(ny)), int(r.integers(nx)))
        goal = start if case == "same" else (int(r.integers(ny)), int(r.integers(nx)))
        if case == "walled" and nx >= 3:
            # a blocked column between start and goal: the goal is unreachable
            wall = int(r.integers(1, nx - 1))
            free[:, wall] = False
            start = (start[0], int(r.integers(wall)))
            goal = (goal[0], int(r.integers(wall + 1, nx)))
        free[start] = free[goal] = True
        if case == "blocked_start":
            free[start] = False
        elif case == "blocked_goal":
            free[goal] = False
        # multipliers >= 1, with exact ones and integers among them for ties
        mult = None
        if weighted:
            mult = np.where(r.random((ny, nx)) < 0.3, 1.0,
                            np.where(r.random((ny, nx)) < 0.5, r.integers(1, 4, (ny, nx)),
                                     1.0 + r.exponential(1.0, (ny, nx))))
        path, cost, expansions = baselines._astar(free, start, goal, cell, mult)
        want = astar_reference(free, start, goal, cell,
                               None if mult is None else (lambda row, col: mult[row, col]))
        assert path == want[0]
        assert expansions == want[2]
        assert np.float64(cost).tobytes() == np.float64(want[1]).tobytes()
        if case == "same":
            assert path == [start] and cost == 0.0 and expansions == 1
        if case in ("blocked_start", "blocked_goal") or (case == "walled" and nx >= 3):
            assert path is None and cost == np.inf


def deformable_reference(ws, resolution, r_min, penalty_gain, r_rest):
    """astar_deformable's search with its edge multiplier as a closure."""
    clear, cell = clearance_raster(ws, resolution)
    free = clear > r_min

    def multiplier(r, c):
        clr = clear[r, c]
        squeeze = max(0.0, r_rest - clr)
        return 1.0 + penalty_gain * squeeze / (clr - r_min)

    start = baselines._to_cell(ws.start, cell, free.shape)
    goal = baselines._to_cell(ws.goal, cell, free.shape)
    return astar_reference(free, start, goal, cell, multiplier if penalty_gain > 0 else None)


class TestDeformableMultiplierOracle:
    """astar_deformable's multiplier raster against the closure, bit for bit."""

    @pytest.mark.parametrize("gain", [0.0, 0.5, 1.0, 3.0])
    def test_matches_closure(self, gain, monkeypatch):
        searches = []

        def spy(*args):
            searches.append(search(*args))
            return searches[-1]

        search = baselines._astar
        monkeypatch.setattr(baselines, "_astar", spy)
        # the CLI's rest radius, and one so wide that every path squeezes
        worlds = [(generate_workspace("test_id", i), 0.2) for i in range(3)]
        worlds.append((generate_dungeon(0, cells=3), 0.0))
        for (ws, r_min), r_rest in itertools.product(worlds, (0.4, 3.0)):
            plan = astar_deformable(ws, 0.1, r_min, gain, r_rest)
            path, cost, expansions = deformable_reference(ws, 0.1, r_min, gain, r_rest)
            assert path is not None and plan.path_cells == path
            assert np.float64(searches[-1][1]).tobytes() == np.float64(cost).tobytes()
            assert searches[-1][2] == plan.expansions == expansions


def discs_of(obstacles):
    """The (M, 2) centres and (M,) radii pf_step and dwa_step take."""
    return (np.array([ob.center for ob in obstacles], float).reshape(-1, 2),
            np.array([ob.radius for ob in obstacles], float))


# the clearance saturation the DWA unit tests score with (EpisodeConfig's d_hat)
D_HAT = 0.8


class TestPotentialField:
    def test_no_obstacles_points_at_goal(self):
        g = PFGains(k_att=1.0, d_hat=0.8, v_max=10.0)
        v = pf_step((0.0, 0.0), *discs_of([]), (3.0, 4.0), g)
        np.testing.assert_allclose(v, [3.0, 4.0])

    def test_symmetric_pair_cancels_lateral(self):
        obs = [Obstacle(np.array([2.0, 0.7]), 0.3), Obstacle(np.array([2.0, -0.7]), 0.3)]
        g = PFGains(k_rep=1.0, d_hat=1.5, v_max=10.0)
        v = pf_step((2.0, 0.0), *discs_of(obs), (5.0, 0.0), g)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_head_on_magnitude(self):
        ob = Obstacle(np.array([1.0, 0.0]), 0.4)
        g = PFGains(k_att=0.0, k_rep=0.7, d_hat=1.0, v_max=100.0)
        v = pf_step((0.0, 0.0), *discs_of([ob]), (5.0, 0.0), g)
        d = 1.0 - 0.4
        expected = 0.7 * (1 / d - 1 / 1.0) / d ** 2
        np.testing.assert_allclose(v, [-expected, 0.0], rtol=1e-12)

    def test_speed_clamp(self):
        g = PFGains(k_att=10.0, d_hat=0.8, v_max=1.2)
        v = pf_step((0.0, 0.0), *discs_of([]), (100.0, 0.0), g)
        assert np.linalg.norm(v) == pytest.approx(1.2)


def vector_norm(v, linalg=False):
    """The portable norm of a 2-vector, sqrt(x*x + y*y), or with ``linalg``
    ``np.linalg.norm`` (a BLAS dot, whose bits depend on the CPU)."""
    if linalg:
        return float(np.linalg.norm(v))
    x, y = np.asarray(v, float).tolist()
    return math.sqrt(x * x + y * y)


def pf_reference(position, obstacles, stage_goal, gains, linalg=False):
    """The per-obstacle loop pf_step replaced, kept as its oracle."""
    position = np.asarray(position, float)
    v = gains.k_att * (np.asarray(stage_goal, float) - position)
    for ob in obstacles:
        delta = position - ob.center
        dist = vector_norm(delta, linalg)
        d = max(dist - ob.radius, gains.d_floor)
        if d < gains.d_hat and dist > 1e-12:
            mag = gains.k_rep * (1.0 / d - 1.0 / gains.d_hat) / (d * d)
            v = v + mag * (delta / dist)
    speed = vector_norm(v, linalg)
    if speed > gains.v_max:
        v = v * (gains.v_max / speed)
    return v


class TestPotentialFieldOracle:
    """pf_step on centre/radius arrays against the per-obstacle loop, bit for
    bit, and against its np.linalg form to rounding."""

    @given(st.integers(0, 12), st.integers(0, 10_000), st.floats(0.0, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_matches_loop(self, n_obstacles, seed, robot_radius):
        r = np.random.default_rng(seed)
        position = r.uniform(0.0, 10.0, 2)
        obstacles = [Obstacle(position + r.uniform(-2.0, 2.0, 2), r.uniform(0.1, 0.6))
                     for _ in range(n_obstacles)]
        gains = PFGains(k_att=r.uniform(0.5, 2.0), k_rep=r.uniform(0.1, 1.0),
                        d_hat=r.uniform(0.3, 1.5), v_max=r.uniform(0.5, 3.0))
        goal = r.uniform(0.0, 10.0, 2)
        centers, radii = discs_of(obstacles)
        got = pf_step(position, centers, radii + robot_radius, goal, gains)
        inflated = [Obstacle(ob.center, ob.radius + robot_radius) for ob in obstacles]
        assert got.tobytes() == pf_reference(position, inflated, goal, gains).tobytes()
        np.testing.assert_allclose(got, pf_reference(position, inflated, goal, gains, True),
                                   rtol=1e-9, atol=1e-12)


class TestDWA:
    def test_empty_picks_max_speed_toward_goal(self):
        cfg = DWAConfig(v_max=1.0, n_per_axis=5, horizon=4, dt=0.1,
                        w_progress=1.0, w_clearance=0.0, w_speed=0.01)
        out = dwa_step((0.0, 0.0), *discs_of([]), (10.0, 0.0), cfg, D_HAT)
        assert not out.blocked
        np.testing.assert_allclose(out.velocity, [1.0, 0.0])

    def test_hard_rejection_keeps_clear(self):
        ob = Obstacle(np.array([0.5, 0.0]), 0.3)
        cfg = DWAConfig(v_max=1.0, n_per_axis=7, horizon=8, dt=0.2)
        out = dwa_step((0.0, 0.0), *discs_of([ob]), (2.0, 0.0), cfg, D_HAT)
        assert not out.blocked
        pts = np.array([np.array([0.0, 0.0]) + k * 0.2 * out.velocity for k in range(1, 9)])
        clr = np.min([np.linalg.norm(pts - ob.center, axis=1) - ob.radius])
        assert clr >= 0

    def test_exhaustive_rescoring_oracle(self, rng):
        obstacles = [Obstacle(rng.uniform(-1.5, 1.5, 2), 0.3) for _ in range(3)]
        goal = rng.uniform(-3, 3, 2)
        cfg = DWAConfig(v_max=0.8, n_per_axis=5, horizon=5, dt=0.15,
                        w_progress=1.0, w_clearance=0.4, w_speed=0.05)
        out = dwa_step((0.0, 0.0), *discs_of(obstacles), goal, cfg, 1.0)
        # independent re-scoring of every candidate
        axis = np.linspace(-0.8, 0.8, 5)
        best, best_idx = -np.inf, -1
        idx = -1
        d0 = np.linalg.norm(goal)
        for vy in axis:
            for vx in axis:
                idx += 1
                pts = np.array([[vx, vy]]) * np.arange(1, 6)[:, None] * 0.15
                clr = min(min(np.linalg.norm(p - ob.center) - ob.radius
                              for ob in obstacles) for p in pts)
                if clr < 0:
                    continue
                score = (1.0 * (d0 - np.linalg.norm(pts[-1] - goal))
                         + 0.4 * min(clr, 1.0) + 0.05 * np.hypot(vx, vy))
                if score > best:
                    best, best_idx = score, idx
        if best_idx == -1:
            assert out.blocked
        else:
            assert out.index == best_idx
            assert out.score == pytest.approx(best, rel=1e-9)

    def test_all_blocked(self):
        # standing inside an obstacle: every candidate, including zero
        # velocity, stays in collision
        ob = Obstacle(np.array([0.0, 0.0]), 0.5)
        cfg = DWAConfig(v_max=0.1, n_per_axis=5, horizon=3, dt=0.1)
        out = dwa_step((0.0, 0.0), *discs_of([ob]), (5.0, 0.0), cfg, D_HAT)
        assert out.blocked
        np.testing.assert_array_equal(out.velocity, np.zeros(2))

    def test_stage_bound_rejection(self):
        cfg = DWAConfig(v_max=1.0, n_per_axis=3, horizon=5, dt=0.5)
        out = dwa_step((0.0, 0.0), *discs_of([]), (10.0, 0.0), cfg, D_HAT,
                       stage_bounds=(-0.5, -0.5, 0.5, 0.5))
        # every fast candidate exits the stage; the chosen one stays inside
        assert np.max(np.abs(out.velocity)) * 0.5 * 5 <= 0.5 + 1e-9


def dwa_reference(position, obstacles, stage_goal, cfg, d_hat, robot_radius=0.0,
                  stage_bounds=None, linalg=False):
    """The per-candidate loop dwa_step replaced, kept as its oracle."""
    position = np.asarray(position, float)
    axis = np.linspace(-cfg.v_max, cfg.v_max, cfg.n_per_axis)
    goal = np.asarray(stage_goal, float)
    d0 = vector_norm(position - goal, linalg)
    horizon = max(1, min(cfg.horizon, int(np.ceil(d0 / (cfg.v_max * cfg.dt)))))
    best = None  # (score, index, velocity)
    idx = -1
    for vy in axis:
        for vx in axis:
            idx += 1
            v = np.array([vx, vy])
            pts = position[None, :] + np.outer(np.arange(1, horizon + 1) * cfg.dt, v)
            if stage_bounds is not None:
                x0, y0, x1, y1 = stage_bounds
                if np.any((pts[:, 0] < x0) | (pts[:, 0] > x1)
                          | (pts[:, 1] < y0) | (pts[:, 1] > y1)):
                    continue
            if obstacles:
                clr = np.min([signed_distances(obstacles, p) for p in pts]) - robot_radius
            else:
                clr = d_hat
            if clr < 0:
                continue
            progress = d0 - vector_norm(pts[-1] - goal, linalg)
            score = (cfg.w_progress * progress + cfg.w_clearance * min(clr, d_hat)
                     + cfg.w_speed * float(np.hypot(vx, vy)))
            if best is None or score > best[0]:
                best = (score, idx, v)
    if best is None:
        return np.zeros(2), True, -np.inf, -1
    return best[2], False, best[0], best[1]


def assert_same_as_reference(position, obstacles, goal, cfg, robot_radius=0.0,
                             stage_bounds=None, d_hat=D_HAT):
    out = dwa_step(position, *discs_of(obstacles), goal, cfg, d_hat, robot_radius, stage_bounds)
    velocity, blocked, score, index = dwa_reference(position, obstacles, goal, cfg,
                                                    d_hat, robot_radius, stage_bounds)
    assert (out.index, out.blocked) == (index, blocked)
    assert out.velocity.tobytes() == np.asarray(velocity, float).tobytes()
    assert np.float64(out.score).tobytes() == np.float64(score).tobytes()
    # the np.linalg form may break a near tie the other way, but not move the best score
    _, blocked, score, _ = dwa_reference(position, obstacles, goal, cfg, d_hat, robot_radius,
                                         stage_bounds, linalg=True)
    assert out.blocked == blocked
    assert out.score == pytest.approx(score, rel=1e-9, abs=1e-12)
    return out


class TestDWAOracle:
    """dwa_step against the per-candidate loop, bit for bit, and against its
    np.linalg form to rounding."""

    @given(st.one_of(st.integers(0, 12), st.integers(13, 150)), st.integers(0, 10_000),
           st.sampled_from([None, "around", "anywhere"]), st.floats(0.0, 0.5),
           st.floats(0.05, 3.0), st.integers(2, 9), st.integers(1, 10))
    @settings(max_examples=120, deadline=None)
    def test_matches_loop(self, n_obstacles, seed, box, robot_radius, goal_dist,
                          n_per_axis, horizon):
        r = np.random.default_rng(seed)
        position = r.uniform(-1.0, 1.0, 2)
        # a memory of up to 150 discs (a dungeon's reaches 140), spread wider
        # as it grows so that some candidates survive
        spread = 2.0 + n_obstacles / 20
        obstacles = [Obstacle(position + r.uniform(-spread, spread, 2), r.uniform(0.1, 0.6))
                     for _ in range(n_obstacles)]
        # goal_dist below v_max * dt * horizon clips the horizon
        ang = r.uniform(0, 2 * np.pi)
        goal = position + goal_dist * np.array([np.cos(ang), np.sin(ang)])
        bounds = None
        if box is not None:
            # "anywhere" boxes need not hold the position
            mid = position if box == "around" else position + r.uniform(-1.5, 1.5, 2)
            lo, hi = mid - r.uniform(0.1, 1.5, 2), mid + r.uniform(0.1, 1.5, 2)
            bounds = (lo[0], lo[1], hi[0], hi[1])
        cfg = DWAConfig(v_max=r.uniform(0.3, 1.5), n_per_axis=n_per_axis, horizon=horizon,
                        dt=r.uniform(0.05, 0.3), w_progress=r.uniform(0.5, 2.0),
                        w_clearance=r.uniform(0.0, 1.0), w_speed=r.uniform(0.0, 0.2))
        d_hat = r.uniform(0.3, 1.5)
        assert_same_as_reference(position, obstacles, goal, cfg, robot_radius, bounds, d_hat)

    @given(st.integers(0, 4), st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]),
           st.sampled_from([3, 5, 9]))
    @settings(max_examples=40, deadline=None)
    def test_mirror_symmetric_ties(self, n_pairs, seed, v_max, n_per_axis):
        # an exactly symmetric velocity grid, a goal on the x axis and discs
        # mirrored about it: every candidate ties with its mirror image
        r = np.random.default_rng(seed)
        obstacles = [Obstacle(np.array([0.6, 0.0]), 0.3)]
        for _ in range(n_pairs):
            x, y, rad = r.uniform(-2, 2), r.uniform(0.2, 2), r.uniform(0.1, 0.5)
            obstacles += [Obstacle(np.array([x, y]), rad), Obstacle(np.array([x, -y]), rad)]
        cfg = DWAConfig(v_max=v_max, n_per_axis=n_per_axis, horizon=8, dt=0.1)
        assert_same_as_reference((0.0, 0.0), obstacles, (3.0, 0.0), cfg)

    def test_tie_goes_to_lowest_index(self):
        # the disc ahead blocks v_y = 0; the best pair (v_x, +-v_y) ties exactly
        # and the row-major order puts the negative v_y first
        obstacles = [Obstacle(np.array([0.6, 0.0]), 0.3)]
        cfg = DWAConfig(v_max=1.0, n_per_axis=5, horizon=8, dt=0.1, w_clearance=0.0)
        out = assert_same_as_reference((0.0, 0.0), obstacles, (3.0, 0.0), cfg)
        mirror = dwa_step((0.0, 0.0), *discs_of(obstacles), (3.0, 0.0), cfg, D_HAT,
                          stage_bounds=(-9, 0.0, 9, 9))
        assert out.velocity[1] < 0 < mirror.velocity[1]
        assert out.score == mirror.score
        assert out.velocity[0] == mirror.velocity[0]

    def test_touching_candidate_survives(self):
        # the step (1, 0) * 0.5 ends exactly on the disc surface: clearance 0
        # is contact, not collision
        obstacles = [Obstacle(np.array([1.0, 0.0]), 0.5)]
        cfg = DWAConfig(v_max=1.0, n_per_axis=3, horizon=1, dt=0.5, w_clearance=0.0)
        out = assert_same_as_reference((0.0, 0.0), obstacles, (3.0, 0.0), cfg)
        np.testing.assert_array_equal(out.velocity, [1.0, 0.0])

    def test_no_discs(self):
        cfg = DWAConfig(v_max=1.0, n_per_axis=5, horizon=4, dt=0.1)
        out = dwa_step((0.0, 0.0), np.empty((0, 2)), np.empty(0), (3.0, 1.0), cfg, D_HAT)
        ref = assert_same_as_reference((0.0, 0.0), [], (3.0, 1.0), cfg)
        assert (out.index, out.score) == (ref.index, ref.score) and not out.blocked

    def test_tangent_candidate_survives(self):
        # the step (1, 0) * 0.5 ends at (0.5, 0), where the path is tangent to
        # the disc: its distance to the centre is exactly the radius
        cfg = DWAConfig(v_max=1.0, n_per_axis=3, horizon=1, dt=0.5, w_clearance=0.0)
        tangent = [Obstacle(np.array([0.5, 0.5]), 0.5)]
        out = assert_same_as_reference((0.0, 0.0), tangent, (3.0, 0.0), cfg)
        np.testing.assert_array_equal(out.velocity, [1.0, 0.0])
        # one ulp more radius and that candidate collides
        crossing = [Obstacle(np.array([0.5, 0.5]), np.nextafter(0.5, 1.0))]
        out = assert_same_as_reference((0.0, 0.0), crossing, (3.0, 0.0), cfg)
        assert out.velocity.tolist() != [1.0, 0.0]

    def test_blocked_matches_loop(self):
        out = assert_same_as_reference((0.0, 0.0), [Obstacle(np.zeros(2), 0.5)], (5.0, 0.0),
                                       DWAConfig(v_max=0.1, n_per_axis=5, horizon=3))
        assert out.blocked


class TestBaselineEpisodes:
    def test_pf_reaches_goal_empty(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        cfg = EpisodeConfig(ring=None, n_max=6000)
        res = run_baseline_episode(ws, "pf", cfg)
        assert res.termination == "success"

    def test_dwa_reaches_goal_with_obstacle(self):
        ws = Workspace(12.0, [Obstacle(np.array([6.0, 6.1]), 0.6)], (1.0, 6.0), (11.0, 6.0))
        cfg = EpisodeConfig(ring=None, n_max=6000)
        res = run_baseline_episode(ws, "dwa", cfg)
        assert res.termination == "success"
        assert res.true_clearances.min() > 0

    def test_unknown_method(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        with pytest.raises(ValueError):
            run_baseline_episode(ws, "rrt", EpisodeConfig(ring=None))

    def test_dwa_leaves_the_callers_config_unchanged(self):
        # the stage box is an argument of each DWA step, never written into
        # the config
        ws = generate_workspace("test_id", 0)
        cfg = EpisodeConfig(n_max=5)
        dwa_cfg = DWAConfig()
        first = run_baseline_episode(ws, "dwa", cfg, dwa_cfg=dwa_cfg)
        assert first.n_steps == 5
        assert dwa_cfg == DWAConfig()
        again = run_baseline_episode(ws, "dwa", cfg, dwa_cfg=dwa_cfg)
        fresh = run_baseline_episode(ws, "dwa", cfg)
        assert np.array_equal(again.qs, first.qs) and np.array_equal(fresh.qs, first.qs)

    def test_deterministic(self):
        ws = Workspace(12.0, [Obstacle(np.array([5.0, 6.3]), 0.8)], (1.0, 6.0), (11.0, 6.0))
        cfg = EpisodeConfig(ring=None, n_max=4000)
        a = run_baseline_episode(ws, "pf", cfg, robot_radius=0.3)
        b = run_baseline_episode(ws, "pf", cfg, robot_radius=0.3)
        assert np.array_equal(a.qs, b.qs)
        assert a.termination == b.termination

    def test_emits_same_artifact_shape(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        cfg = EpisodeConfig(ring=None, n_max=2000)
        res = run_baseline_episode(ws, "pf", cfg)
        n = len(res.times)
        for arr in (res.qs, res.ps, res.betas, res.u_fs, res.clearances,
                    res.true_clearances):
            assert len(arr) == n
        assert res.coverage > 0
