import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamnav import navigator, workspace
from hamnav.baselines import clearance_raster
from hamnav.generation import generate_dungeon
from hamnav.navigator import ExitSelector, dungeon_setup, run_episode
from hamnav.workspace import (
    CircleRegistry,
    CoverageTracker,
    DeadEndError,
    Obstacle,
    ObstacleMemory,
    OccupancyGrid,
    OutOfBoundsError,
    StageManager,
    Workspace,
    disc_distances,
    disc_intersects_window,
    extract_circles,
    grid_sdf_world,
    grid_to_sdf,
    norm2,
    row_norms,
    sense,
    signed_distance,
    signed_distances,
    window_cells,
    workspace_from_json,
    workspace_to_json,
)

from conftest import assert_discs_hold


def empty_workspace(L=10.0, start=(1.0, 1.0), goal=(9.0, 9.0)):
    return Workspace(side=L, obstacles=[], start=start, goal=goal)


class TestSignedDistance:
    def test_345_triangle(self):
        ob = Obstacle(np.array([0.0, 0.0]), 2.0)
        assert signed_distance(ob, (3.0, 4.0)) == pytest.approx(3.0)

    def test_boundary(self):
        ob = Obstacle(np.array([1.0, 1.0]), 0.5)
        assert signed_distance(ob, (1.5, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_center_penetration(self):
        ob = Obstacle(np.array([0.0, 0.0]), 1.0)
        assert signed_distance(ob, (0.0, 0.0)) == pytest.approx(-1.0)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3.0))
    def test_sign_iff_outside(self, x, y, r):
        ob = Obstacle(np.array([0.0, 0.0]), r)
        d = signed_distance(ob, (x, y))
        outside = np.hypot(x, y) >= r
        assert (d >= 0) == outside


class TestSense:
    def test_empty_workspace(self):
        ws = empty_workspace()
        ctx = sense(ws, (5.0, 5.0), 1.0)
        assert ctx.obstacles == []

    def test_obstacle_inside_window(self):
        ws = Workspace(10.0, [Obstacle(np.array([5.2, 5.2]), 0.3)], (1, 1), (9, 9))
        ctx = sense(ws, (5.0, 5.0), 1.0)
        assert [i for i, _ in ctx.obstacles] == [0]

    def test_out_of_bounds(self):
        ws = empty_workspace()
        with pytest.raises(OutOfBoundsError):
            sense(ws, (11.0, 5.0), 1.0)

    def test_grazing_disc_vs_sampling_oracle(self, rng):
        # compare the exact clamp test against dense sampling of the disc
        for _ in range(60):
            center = rng.uniform(2, 8, 2)
            half = rng.uniform(0.5, 1.5)
            ob = Obstacle(rng.uniform(0, 10, 2), rng.uniform(0.1, 1.2))
            ang = rng.uniform(0, 2 * np.pi, 10_000)
            rad = ob.radius * np.sqrt(rng.uniform(0, 1, 10_000))
            pts = ob.center + np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
            hit = np.any(np.all(np.abs(pts - center) <= half, axis=1))
            exact = disc_intersects_window(ob, center, half)
            if exact != hit:
                # sampling can only miss marginal contacts, never invent them
                assert exact and not hit
                closest = np.clip(ob.center, center - half, center + half)
                assert abs(np.linalg.norm(closest - ob.center) - ob.radius) < 2e-2

    def test_grid_without_registry_numbers_the_fit(self):
        """Without a registry, a grid window's discs are its extract_circles
        fit numbered from 0 in fitting order (a fresh registry's ids)."""
        ws = generate_dungeon(0, cells=3)
        params = {"d_hat_cells": 3.0}
        rng = np.random.default_rng(8)
        sensed = 0
        for pos in rng.uniform(0.0, ws.side, (40, 2)):
            got = sense(ws, pos, 4.0, circle_params=params).obstacles
            want = list(enumerate(extract_circles(ws.grid, (pos, 4.0), **params)))
            assert [i for i, _ in got] == [i for i, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a.center.tobytes() == b.center.tobytes()
                assert a.radius == b.radius and a.weight == b.weight
            sensed += len(got)
        assert sensed > 0

    def test_registers_window(self):
        ws = empty_workspace()
        tracker = CoverageTracker(10.0, 0.125)
        sense(ws, (5.0, 5.0), 1.0, tracker=tracker)
        assert len(tracker.windows) == 1
        assert tracker.covered_fraction() > 0


def norm_formula(values):
    """The portable norm, written out: the square root of the left-to-right
    sum of squares, in Python floats."""
    total = 0.0
    for x in values:
        total = total + x * x
    return math.sqrt(total)


# norm2 and row_norms against np.linalg.norm (a BLAS dot for a 1-D vector):
# two roundings of a sum of k < 8 nonnegative squares and a square root
NORM_RTOL = 8 * np.finfo(float).eps


class TestRowNorms:
    """row_norms equals the norm formula on each row, bit for bit, for rows of
    fewer than 8 entries (numpy sums those left to right), and np.linalg.norm
    to rounding."""

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_norm(self, rows):
        d = np.array(rows, float).reshape(-1, 2)
        want = np.array([norm_formula(row) for row in d.tolist()])
        assert row_norms(d).tobytes() == want.tobytes()
        np.testing.assert_allclose(row_norms(d), [np.linalg.norm(row) for row in d],
                                   rtol=NORM_RTOL, atol=0)

    def test_many_random_rows(self, rng):
        for k in range(1, 8):
            d = rng.normal(size=(5_000, k)) * rng.uniform(1e-3, 1e3, (5_000, 1))
            want = np.array([norm_formula(row) for row in d.tolist()])
            assert row_norms(d).tobytes() == want.tobytes(), k
            assert [norm2(row) for row in d] == want.tolist(), k
            np.testing.assert_allclose(row_norms(d), [np.linalg.norm(row) for row in d],
                                       rtol=NORM_RTOL, atol=0)

    def test_stacked_rows(self, rng):
        d = rng.normal(size=(5, 7, 2))
        assert row_norms(d).tobytes() == row_norms(d.reshape(-1, 2)).reshape(5, 7).tobytes()

    def test_empty(self):
        assert row_norms(np.empty((0, 2))).shape == (0,)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e200,
           math.inf, -math.inf, math.nan]


class TestNorm2:
    """norm2 is the norm formula of a 1-D vector, bit for bit, and
    np.linalg.norm to rounding."""

    @staticmethod
    def same(got, want):
        assert isinstance(got, float)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True, width=64),
                              st.sampled_from(SPECIAL)), min_size=0, max_size=7))
    @settings(max_examples=400, deadline=None)
    def test_contiguous_vectors(self, values):
        v = np.array(values, float)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (v, -v, v * 1e-3):
                self.same(norm2(x), norm_formula(x.tolist()))
                self.same(norm2(x.tolist()), norm_formula(x.tolist()))
                blas = float(np.linalg.norm(x))
                if math.isfinite(blas) and blas > 1e-290:  # no overflow or underflow
                    assert norm2(x) == pytest.approx(blas, rel=NORM_RTOL, abs=0)
                else:
                    assert math.isfinite(norm2(x)) == math.isfinite(blas)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6), st.integers(0, 6),
           st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_slices_of_q(self, values, a, b):
        q = np.array(values, float)
        for x in (q[2:4], q[0:2], q[4:6], q[min(a, b):max(a, b)], q[2:4] - q[0:2], q[::2]):
            self.same(norm2(x), norm_formula(x.tolist()))
            assert norm2(x) == pytest.approx(float(np.linalg.norm(x)), rel=NORM_RTOL, abs=1e-300)


class TestDiscDistances:
    """disc_distances equals np.linalg.norm(..., axis=-1) - radii, bit for bit
    (that norm sums each row's squares elementwise, as row_norms does)."""

    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(0, 10)),
                    max_size=40), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
           st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_axis_norm(self, discs, px, py, stack):
        a = np.array(discs, float).reshape(-1, 3)
        centers, radii = a[:, :2], a[:, 2]
        # one point (2,) and a stack of points (B, 1, 2)
        for point in (np.array([px, py]), np.array(stack, float).reshape(-1, 1, 2)):
            want = np.linalg.norm(centers - point, axis=-1) - radii
            got = disc_distances(centers, radii, point)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_many_random_discs(self, rng):
        centers = rng.normal(size=(20_000, 2)) * rng.uniform(1e-3, 1e3, (20_000, 1))
        radii = rng.uniform(0, 2, 20_000)
        point = rng.normal(size=2)
        want = np.linalg.norm(centers - point, axis=1) - radii
        assert disc_distances(centers, radii, point).tobytes() == want.tobytes()


def sensing_events(r, n_events, id_range=(-6, 20)):
    """Random sensing events: (id, Obstacle) lists whose ids recur across
    events (re-sensing) and include negative ids (any int64 id is stored)."""
    return [[(int(r.integers(*id_range)), Obstacle(r.uniform(-4, 4, 2), r.uniform(0.1, 0.8)))
             for _ in range(int(r.integers(0, 8)))] for _ in range(n_events)]


class TestObstacleMemory:
    """ObstacleMemory's DiscSet against the dict it replaced (``memory[idx] = ob``)."""

    @given(st.integers(0, 10_000), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_dict(self, seed, n_events):
        r = np.random.default_rng(seed)
        memory, ref = ObstacleMemory(), {}
        for event in sensing_events(r, n_events):
            before = memory.discs
            memory.add(event)
            for idx, ob in event:
                ref[idx] = ob
            want = sorted(ref.items())
            assert_discs_hold(memory.discs, want)
            # every drawn pair is a new object: the set is formed again
            assert (memory.discs is before) == (not event)
            # stored objects sensed again change nothing: the same set is kept
            before = memory.discs
            memory.add([want[k] for k in r.permutation(len(want))[:3].tolist()])
            assert memory.discs is before
            mask = r.uniform(size=len(want)) < 0.5
            assert_discs_hold(memory.discs[mask], [p for p, keep in zip(want, mask) if keep])
            if want:
                point = r.uniform(-4, 4, 2)
                got = np.float64(memory.discs.clearance(point))
                assert got.tobytes() == signed_distances([ob for _, ob in want],
                                                         point).min().tobytes()

    def test_resensed_id_serves_new_object(self):
        first, second = Obstacle(np.zeros(2), 0.5), Obstacle(np.ones(2), 0.3, weight=2.0)
        memory = ObstacleMemory([(-3, first), (4, first)])
        memory.add([(4, second)])
        assert_discs_hold(memory.discs, [(-3, first), (4, second)])

    def test_later_pair_wins_within_one_add(self):
        a, b = Obstacle(np.zeros(2), 0.5), Obstacle(np.ones(2), 0.3)
        memory = ObstacleMemory([(2, a), (2, b)])
        assert_discs_hold(memory.discs, [(2, b)])
        before = memory.discs
        memory.add([(2, a), (2, b)])  # b is stored already
        assert memory.discs is before

    def test_empty(self):
        memory = ObstacleMemory()
        memory.add([])
        assert len(memory.discs) == 0 and memory.discs.clearance(np.zeros(2)) == np.inf
        assert memory.discs.centers.shape == (0, 2) and memory.discs.radii.shape == (0,)


def stage_exit(stages, ws, pos):
    """The exit ExitSelector hands out in the stage holding ``pos``."""
    pos = np.asarray(pos, float)
    return ExitSelector(stages, ws, eps_stage=0.3).select(pos, stages.stage_of(pos))


class TestStageExit:
    """ExitSelector.select: the goal inside the stage, else an opening on the
    stage edge routed toward the goal stage."""

    def test_goal_inside_stage(self):
        ws = empty_workspace(L=4.0, goal=(2.0, 1.0))
        stages = StageManager(4.0, stage_w=2.6, stage_h=2.0)
        out = stage_exit(stages, ws, (1.5, 0.8))
        np.testing.assert_array_equal(out, ws.goal)

    def test_empty_stage_goal_east(self):
        ws = empty_workspace(L=12.0, start=(1.0, 6.0), goal=(11.0, 6.0))
        stages = StageManager(12.0, stage_w=2.6, stage_h=2.0, r_inflate=0.2)
        pos = np.array([1.3, 6.0])
        out = stage_exit(stages, ws, pos)
        x0, y0, x1, y1 = stages.stage_bounds(stages.stage_of(pos))
        assert out[0] == pytest.approx(x1)
        assert out[1] == pytest.approx((y0 + y1) / 2)

    def test_blocked_half_edge_vs_interval_oracle(self):
        # one obstacle blocks the lower half of the east edge
        stages = StageManager(12.0, stage_w=2.6, stage_h=2.0, r_inflate=0.1)
        pos = np.array([1.3, 6.0])
        x0, y0, x1, y1 = stages.stage_bounds(stages.stage_of(pos))
        ob = Obstacle(np.array([x1, y0 + 0.25 * (y1 - y0)]), 0.4)
        ws = Workspace(12.0, [ob], (1.0, 6.0), (11.0, 6.0))
        out = stage_exit(stages, ws, pos)
        # oracle: sweep 1000 boundary samples of the east edge
        ys = np.linspace(y0, y1, 1000)
        free = np.array([np.linalg.norm([x1 - ob.center[0], y - ob.center[1]])
                         > ob.radius + 0.1 for y in ys])
        runs, start = [], None
        for k, f in enumerate(free):
            if f and start is None:
                start = k
            if (not f or k == len(free) - 1) and start is not None:
                end = k if not f else k + 1
                runs.append((ys[start], ys[end - 1]))
                start = None
        widest = max(runs, key=lambda ab: ab[1] - ab[0])
        assert out[0] == pytest.approx(x1)
        assert out[1] == pytest.approx((widest[0] + widest[1]) / 2, abs=5e-3)

    def test_dead_end(self):
        stages = StageManager(12.0, stage_w=2.6, stage_h=2.0, r_inflate=0.1)
        pos = np.array([1.3, 6.0])
        x0, y0, x1, y1 = stages.stage_bounds(stages.stage_of(pos))
        # wall off every edge of the active stage with overlapping discs
        obstacles = []
        for xa, ya, xb, yb in ((x0, y1, x1, y1), (x0, y0, x1, y0),
                               (x1, y0, x1, y1), (x0, y0, x0, y1)):
            n = 12
            for t in np.linspace(0, 1, n):
                cx, cy = xa + t * (xb - xa), ya + t * (yb - ya)
                obstacles.append(Obstacle(np.array([cx, cy]), 0.4))
        ws = Workspace(12.0, obstacles, (1.0, 6.0), (11.0, 6.0))
        with pytest.raises(DeadEndError):
            stage_exit(stages, ws, pos)

    def test_exit_on_stage_boundary_or_goal(self, rng):
        ws_obs = [Obstacle(rng.uniform(0, 12, 2), rng.uniform(0.2, 0.6)) for _ in range(10)]
        ws = Workspace(12.0, ws_obs, (0.5, 0.5), (11.5, 11.5))
        stages = StageManager(12.0)
        for _ in range(20):
            pos = rng.uniform(0.2, 11.8, 2)
            try:
                out = stage_exit(stages, ws, pos)
            except DeadEndError:
                continue
            if np.array_equal(out, ws.goal):
                continue
            x0, y0, x1, y1 = stages.stage_bounds(stages.stage_of(pos))
            on_edge = (np.isclose(out[0], (x0, x1)).any() and y0 <= out[1] <= y1) or (
                np.isclose(out[1], (y0, y1)).any() and x0 <= out[0] <= x1)
            assert on_edge

    def test_union_covers_workspace(self):
        stages = StageManager(12.0, stage_w=2.6, stage_h=2.0, overlap=0.3)
        # every point of a fine grid lies in some stage
        for x in np.linspace(0, 12, 40):
            for y in np.linspace(0, 12, 40):
                stages.stage_of((x, y))  # raises if uncovered


class TestCoverage:
    def test_single_window(self):
        tr = CoverageTracker(10.0, 0.125)
        tr.add_window((5.0, 5.0), 1.0)
        assert tr.covered_fraction() == pytest.approx((2.0 ** 2) / 100.0, rel=0.02)

    def test_tiling_reaches_one(self):
        tr = CoverageTracker(8.0, 0.125)
        for x in np.arange(1.0, 8.0, 2.0):
            for y in np.arange(1.0, 8.0, 2.0):
                tr.add_window((x, y), 1.0)
        assert tr.covered_fraction() == pytest.approx(1.0)

    def test_two_disjoint_windows_vs_refined_oracle(self, rng):
        for _ in range(20):
            L, d = 10.0, 0.8
            tr = CoverageTracker(L, d / 8)
            fine = CoverageTracker(L, d / 32)
            centers = [rng.uniform(1, 4, 2), rng.uniform(6, 9, 2)]
            for c in centers:
                tr.add_window(c, d)
                fine.add_window(c, d)
            assert tr.covered_fraction() == pytest.approx(fine.covered_fraction(), abs=0.01)

    def test_monotone_and_order_invariant(self, rng):
        L = 10.0
        wins = [(rng.uniform(1, 9, 2), rng.uniform(0.5, 1.5)) for _ in range(6)]
        tr = CoverageTracker(L, 0.1)
        prev = 0.0
        for c, h in wins:
            tr.add_window(c, h)
            cur = tr.covered_fraction()
            assert cur >= prev - 1e-15
            prev = cur
        tr2 = CoverageTracker(L, 0.1)
        for c, h in reversed(wins):
            tr2.add_window(c, h)
        assert tr2.covered_fraction() == pytest.approx(prev, abs=1e-15)


# imports every hamnav module, runs a dungeon episode, a clearance raster and
# a rigid A* plan on its grid, then prints the scipy modules loaded (a JSON
# list) and the sha256 of the grid's SDF
NO_SCIPY = """
import hashlib, importlib, json, pkgutil, sys
import hamnav
for mod in pkgutil.iter_modules(hamnav.__path__):
    importlib.import_module("hamnav." + mod.name)
from hamnav.baselines import astar_rigid, clearance_raster
from hamnav.generation import generate_dungeon
from hamnav.navigator import dungeon_setup, run_episode
from hamnav.workspace import grid_to_sdf
ws = generate_dungeon(0, cells=3)
run_episode(ws, *dungeon_setup(n_max=200))
clearance_raster(ws, 0.5)
astar_rigid(ws, 0.5, 0.3)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(hashlib.sha256(grid_to_sdf(ws.grid).tobytes()).hexdigest())
"""


@st.composite
def edt_grids(draw):
    """Occupancy rasters of one row, one column, a single wall cell, or a
    random wall density from 0.1% to 70%."""
    kind = draw(st.sampled_from(["row", "column", "single", "density"]))
    n = draw(st.integers(1, 60))
    shape = {"row": (1, n), "column": (n, 1)}.get(kind) or (draw(st.integers(1, 60)), n)
    if kind == "single":
        occ = np.zeros(shape, dtype=bool)
        occ[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = True
        return occ
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0.001, 0.7))


def assert_sdf_matches_scipy(occ):
    """grid_to_sdf of the grid and of its complement equal scipy's exact EDT
    byte for byte."""
    ndimage = pytest.importorskip("scipy.ndimage")
    for o in (occ, ~occ):
        want = ndimage.distance_transform_edt(~o) - ndimage.distance_transform_edt(o)
        got = grid_to_sdf(OccupancyGrid(o))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestGridSdf:
    def test_engine_never_loads_scipy(self):
        """No hamnav import, dungeon episode, clearance raster or grid A*
        loads scipy, and the SDF of dungeon 0 (cells=3) keeps its pinned
        bytes."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(workspace.__file__).parent.parent)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout.splitlines()
        assert json.loads(out[0]) == []
        assert out[1] == "d1eb8725d6d767c69de331eb71d354b0db94988aca21ff86dee25ca69055a303"

    @given(edt_grids())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_edt_bytes(self, occ):
        assume(occ.any() and not occ.all())
        assert_sdf_matches_scipy(occ)

    @pytest.mark.parametrize("cells", range(3, 9))
    def test_dungeon_matches_scipy_edt_bytes(self, cells):
        for seed in (0, 1):
            assert_sdf_matches_scipy(generate_dungeon(seed, cells=cells).grid.occupied)

    def test_far_field_of_a_single_wall(self, rng):
        """The row pass runs to its longest reach (k up to nx - 1) when one
        corner cell is the only wall; sampled cells equal the brute-force
        distance."""
        occ = np.zeros((400, 400), dtype=bool)
        occ[0, 0] = True
        sdf = grid_to_sdf(OccupancyGrid(occ))
        assert sdf[0, 0] == -1.0 and sdf[399, 399] == math.sqrt(2 * 399**2)
        for r, c in rng.integers(0, 400, (50, 2)):
            want = -1.0 if r == c == 0 else math.sqrt(int(r) ** 2 + int(c) ** 2)
            assert sdf[r, c] == want

    def test_one_transform_per_grid(self, monkeypatch):
        """Disc fitting, the world sampler and the clearance raster share one
        transform of a grid object, across a whole dungeon episode."""
        calls = []
        real = workspace.grid_to_sdf
        monkeypatch.setattr(workspace, "grid_to_sdf",
                            lambda grid: calls.append(grid) or real(grid))
        ws = generate_dungeon(0, cells=3)
        run_episode(ws, *dungeon_setup(n_max=100))
        assert extract_circles(ws.grid, (ws.start, ws.side))
        grid_sdf_world(ws.grid)(ws.start)
        clearance_raster(ws, 0.5)
        assert len(calls) == 1 and calls[0] is ws.grid
        assert not ws.grid.cell_sdf.flags.writeable

    def test_single_occupied_345(self):
        occ = np.zeros((8, 8), dtype=bool)
        occ[0, 0] = True
        sdf = grid_to_sdf(OccupancyGrid(occ))
        assert sdf[4, 3] == pytest.approx(5.0)
        assert sdf[3, 4] == pytest.approx(5.0)
        assert sdf[0, 0] == pytest.approx(-1.0)

    def test_all_free_warns_and_caps(self):
        occ = np.zeros((4, 4), dtype=bool)
        with pytest.warns(RuntimeWarning):
            sdf = grid_to_sdf(OccupancyGrid(occ))
        assert np.all(sdf == np.hypot(4, 4))

    def test_all_occupied(self):
        occ = np.ones((3, 5), dtype=bool)
        with pytest.warns(RuntimeWarning):
            sdf = grid_to_sdf(OccupancyGrid(occ))
        assert np.all(sdf == -np.hypot(5, 3))

    def test_matches_bruteforce_exactly(self, rng):
        for _ in range(5):
            occ = rng.random((32, 32)) < 0.2
            if not occ.any() or occ.all():
                continue
            sdf = grid_to_sdf(OccupancyGrid(occ))
            ys, xs = np.nonzero(occ)
            fys, fxs = np.nonzero(~occ)
            for _ in range(40):
                r, c = rng.integers(0, 32, 2)
                if occ[r, c]:
                    sq = ((fys - r) ** 2 + (fxs - c) ** 2).min()
                    assert sdf[r, c] == pytest.approx(-np.sqrt(sq), abs=1e-9)
                else:
                    sq = ((ys - r) ** 2 + (xs - c) ** 2).min()
                    assert sdf[r, c] == pytest.approx(np.sqrt(sq), abs=1e-9)
                assert round((sdf[r, c] ** 2)) == sq


class TestExtractCircles:
    def test_empty_window(self):
        occ = np.zeros((16, 16), dtype=bool)
        occ[0, :] = True  # wall far away from the window
        grid = OccupancyGrid(occ)
        assert extract_circles(grid, (np.array([12.0, 12.0]), 3.0)) == []

    def test_single_cell(self):
        occ = np.zeros((16, 16), dtype=bool)
        occ[8, 8] = True
        grid = OccupancyGrid(occ)
        discs = extract_circles(grid, (np.array([8.5, 8.5]), 3.0))
        assert len(discs) == 1
        np.testing.assert_allclose(discs[0].center, [8.5, 8.5])
        assert discs[0].radius == pytest.approx(1.0)

    def test_wall_coverage_oracle(self):
        occ = np.zeros((16, 16), dtype=bool)
        occ[8, 3:13] = True  # straight wall of 10 cells
        grid = OccupancyGrid(occ)
        discs = extract_circles(grid, (np.array([8.0, 8.0]), 8.0))
        assert 0 < len(discs) <= 16
        for col in range(3, 13):
            cell = np.array([col + 0.5, 8.5])
            dmin = min(np.linalg.norm(cell - d.center) - d.radius for d in discs)
            assert dmin <= 1.0 + 1e-9


class TestGridIO:
    def test_ascii_roundtrip(self):
        text = "####\n#..#\n####"
        grid = OccupancyGrid.from_ascii(text)
        assert grid.shape == (3, 4)
        assert grid.occupied[1, 1] == False  # noqa: E712
        assert grid.to_ascii() == text


class TestWorkspaceJson:
    def test_roundtrip(self):
        ws = Workspace(10.0, [Obstacle(np.array([4.0, 5.0]), 0.5, 2.0)], (1, 1), (9, 9), seed=42)
        doc = workspace_to_json(ws)
        assert set(doc) == {"L", "obstacles", "start", "goal", "seed"}
        assert doc["obstacles"][0] == {"c": [4.0, 5.0], "r": 0.5, "w": 2.0}
        ws2 = workspace_from_json(json.loads(json.dumps(doc)))
        assert ws2.side == ws.side and ws2.seed == 42
        np.testing.assert_array_equal(ws2.obstacles[0].center, ws.obstacles[0].center)

    def test_grid_roundtrip(self):
        grid = OccupancyGrid.from_ascii("####\n#..#\n#..#\n####", cell_size=1.0)
        ws = Workspace(4.0, [], (1.5, 1.5), (2.5, 1.5), grid=grid)
        ws2 = workspace_from_json(workspace_to_json(ws))
        np.testing.assert_array_equal(ws2.grid.occupied, grid.occupied)

    def test_validation(self):
        with pytest.raises(ValueError):
            Workspace(10.0, [], (-1, 1), (9, 9))
        with pytest.raises(ValueError):
            Workspace(10.0, [Obstacle(np.array([1.0, 1.0]), 2.0)], (1, 1), (9, 9))

    @pytest.mark.parametrize("name", ["start", "goal"])
    @pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (1.0,), (), ((1.0, 1.0),),
                                       (np.nan, 1.0), (1.0, np.inf)],
                             ids=["three", "one", "none", "nested", "nan", "inf"])
    def test_start_and_goal_are_two_finite_numbers(self, name, point):
        ends = {"start": (1.0, 1.0), "goal": (9.0, 9.0), name: point}
        with pytest.raises(ValueError, match=f"^{name} must be two finite numbers$"):
            Workspace(10.0, [], ends["start"], ends["goal"])

    @pytest.mark.parametrize("center, radius, weight, message", [
        ((np.nan, 5.0), 0.5, 1.0, "centre must be two finite numbers"),
        ((5.0, np.inf), 0.5, 1.0, "centre must be two finite numbers"),
        ((5.0, 5.0, 5.0), 0.5, 1.0, "centre must be two finite numbers"),
        ((5.0,), 0.5, 1.0, "centre must be two finite numbers"),
        ((5.0, 5.0), np.nan, 1.0, "radius must be > 0 and finite"),
        ((5.0, 5.0), np.inf, 1.0, "radius must be > 0 and finite"),
        ((5.0, 5.0), 0.0, 1.0, "radius must be > 0 and finite"),
        ((5.0, 5.0), 0.5, np.nan, "weight must be >= 0 and finite"),
        ((5.0, 5.0), 0.5, np.inf, "weight must be >= 0 and finite"),
        ((5.0, 5.0), 0.5, -1.0, "weight must be >= 0 and finite"),
    ], ids=["centre_nan", "centre_inf", "centre_three", "centre_one", "radius_nan",
            "radius_inf", "radius_zero", "weight_nan", "weight_inf", "weight_negative"])
    def test_obstacle_is_a_finite_disc(self, center, radius, weight, message):
        doc = {"L": 10.0, "obstacles": [{"c": list(center), "r": radius, "w": weight}],
               "start": [1.0, 1.0], "goal": [9.0, 9.0]}
        with pytest.raises(ValueError, match=f"^obstacle {message}, got "):
            workspace_from_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("side", [0.0, -10.0, np.nan, np.inf])
    def test_side_is_finite_and_positive(self, side):
        doc = {"L": side, "obstacles": [], "start": [0.0, 0.0], "goal": [0.0, 0.0]}
        with pytest.raises(ValueError, match="^side L must be > 0 and finite, got "):
            workspace_from_json(json.loads(json.dumps(doc)))


class TestRegistry:
    def test_stable_ids(self):
        reg = CircleRegistry()
        a = Obstacle(np.array([1.0, 2.0]), 0.5)
        b = Obstacle(np.array([3.0, 2.0]), 0.5)
        assert reg.intern([a]) == [0]
        assert reg.intern([b, Obstacle(np.array([1.0, 2.0]), 0.5)]) == [1, 0]
        assert reg.intern([]) == []


class TestWindowFitCache:
    """The registry's per-window fit cache against uncached fitting.

    Every window a point-robot episode in a 3-cell dungeon senses is fitted
    again with extract_circles and interned, in the same order, on a fresh
    registry: the cached pairs must carry the same ids and the same bits.
    """

    @pytest.fixture(scope="class")
    def sensed(self):
        fit = extract_circles
        calls, events = [], []
        real_sense = navigator.sense

        def counting_fit(grid, window, **params):
            calls.append(window_cells(grid, window))
            return fit(grid, window, **params)

        def recording_sense(ws, position, half_extent, **kwargs):
            ctx = real_sense(ws, position, half_extent, **kwargs)
            events.append((ws.grid, (np.array(position, float), half_extent),
                           kwargs["registry"], kwargs["circle_params"], list(ctx.obstacles)))
            return ctx

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workspace, "extract_circles", counting_fit)
            mp.setattr(navigator, "sense", recording_sense)
            cfg, meta = dungeon_setup(n_max=400)
            run_episode(generate_dungeon(0, cells=3), cfg, meta)
        return calls, events

    @staticmethod
    def key(event):
        grid, window, _, params, _ = event
        return window_cells(grid, window), tuple(sorted(params.items()))

    def test_one_fit_per_distinct_window(self, sensed):
        calls, events = sensed
        keys = [self.key(e) for e in events]
        assert len(set(keys)) < len(events)  # the episode re-senses windows
        assert len(calls) == len(set(keys))
        assert calls == [k[0] for k in dict.fromkeys(keys)]

    def test_pairs_match_uncached_fit(self, sensed):
        _, events = sensed
        fresh = CircleRegistry()
        for grid, window, _, params, pairs in events:
            fitted = extract_circles(grid, window, **params)
            want = list(zip(fresh.intern(fitted), fitted))
            assert [i for i, _ in pairs] == [i for i, _ in want]
            for (_, got), (_, ob) in zip(pairs, want):
                assert got.center.tobytes() == ob.center.tobytes()
                assert got.radius == ob.radius and got.weight == ob.weight

    def test_repeated_window_returns_the_same_objects(self, sensed):
        _, events = sensed
        first = {}
        repeats = 0
        for event in events:
            pairs = event[-1]
            seen = first.setdefault(self.key(event), pairs)
            if seen is pairs:
                continue
            repeats += 1
            assert [i for i, _ in pairs] == [i for i, _ in seen]
            assert all(a is b for (_, a), (_, b) in zip(pairs, seen))
            memory = ObstacleMemory(seen)
            discs = memory.discs
            memory.add(pairs)
            assert memory.discs is discs
        assert repeats > 0

    def test_windows_sharing_a_disc_share_its_object(self, sensed):
        # so ObstacleMemory.add finds a known disc unchanged and keeps its DiscSet
        _, events = sensed
        first, shared = {}, 0
        for event in events:
            for idx, ob in event[-1]:
                key, seen = first.setdefault(idx, (self.key(event), ob))
                if key != self.key(event):
                    shared += 1
                    assert ob is seen, idx
        assert shared > 0

    def test_registry_serves_a_copy(self, sensed):
        _, events = sensed
        grid, window, registry, params, pairs = events[-1]
        served = registry.fit(grid, window, params)
        served.clear()
        assert registry.fit(grid, window, params) == pairs


def boolean_mask_extract_circles(grid, window, d_hat_cells=8.0, max_discs=16):
    """The greedy disc cover as a boolean mask over every wall cell, measured
    with np.linalg.norm and clipped with np.clip: the oracle of the fit that
    keeps only the uncovered cells' indices."""
    cs = grid.cell_size
    c0, c1, r0, r1 = window_cells(grid, window)
    if c0 > c1 or r0 > r1:
        return []
    sub = grid.occupied[r0 : r1 + 1, c0 : c1 + 1]
    if not sub.any():
        return []
    rows, cols = np.nonzero(sub)
    rows, cols = rows + r0, cols + c0
    depth = -grid.cell_sdf[rows, cols]
    order = np.lexsort((cols, rows, -depth))
    rows, cols, depth = rows[order], cols[order], depth[order]
    uncovered = np.ones(len(rows), dtype=bool)
    discs = []
    xy = np.stack([(cols + 0.5) * cs, (rows + 0.5) * cs], axis=1)
    while uncovered.any() and len(discs) < max_discs:
        k = int(np.argmax(uncovered))
        r_cells = float(np.clip(depth[k], 1.0, d_hat_cells))
        discs.append(Obstacle(xy[k].copy(), r_cells * cs, 1.0))
        uncovered &= ~(np.linalg.norm(xy - xy[k], axis=1) <= (r_cells + 1.0) * cs)
    return discs


class ScalarRoundRegistry:
    """Interning one disc at a time with the builtin round on each of its
    three values: the oracle of CircleRegistry.intern's one np.round call."""

    def __init__(self):
        self._ids, self._obstacles = {}, []

    def fit(self, grid, window, params):
        pairs = []
        for ob in boolean_mask_extract_circles(grid, window, **params):
            key = (round(ob.center[0], 6), round(ob.center[1], 6), round(ob.radius, 6))
            if key not in self._ids:
                self._ids[key] = len(self._obstacles)
                self._obstacles.append(ob)
            i = self._ids[key]
            pairs.append((i, self._obstacles[i]))
        return pairs


class TestWindowFitOracle:
    """extract_circles and CircleRegistry.fit against the boolean-mask fit and
    the one-disc-at-a-time intern, byte for byte, on random windows."""

    @pytest.mark.parametrize("d_hat_cells", [3.0, 8.0])
    @pytest.mark.parametrize("cells", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_windows_fit_as_the_oracle(self, seed, cells, d_hat_cells):
        ws = generate_dungeon(seed, cells=cells)
        rng = np.random.default_rng(100 * seed + cells)
        params = {"d_hat_cells": d_hat_cells}
        registry, oracle = CircleRegistry(), ScalarRoundRegistry()
        n_discs = 0
        for _ in range(45):  # 24 cases: 1080 windows
            window = (rng.uniform(0.0, ws.side, 2), float(rng.uniform(0.5, 6.0)))
            got = registry.fit(ws.grid, window, params)
            want = oracle.fit(ws.grid, window, params)
            assert [i for i, _ in got] == [i for i, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a.center.tobytes() == b.center.tobytes()
                assert np.float64(a.radius).tobytes() == np.float64(b.radius).tobytes()
                assert a.weight == b.weight
            n_discs += len(got)
        assert n_discs > 45  # the windows reach walls
        # the same rounded keys, in the same order
        assert list(registry._ids.items()) == list(oracle._ids.items())


class TestGridSdfSampler:
    """One-point sampling against the array path, bit for bit."""

    GRIDS = [
        (np.random.default_rng(3).random((9, 12)) < 0.3, 0.5),
        (np.random.default_rng(4).random((11, 7)) < 0.4, 0.3),
        (np.array([[True, False, False, True, False, False]]), 1.0),  # ny == 1
        (np.array([[False], [True], [False], [False], [True]]), 0.7),  # nx == 1
    ]

    @pytest.mark.parametrize("occ, cs", GRIDS)
    def test_one_point_matches_array_path(self, occ, cs):
        grid = OccupancyGrid(occ, cell_size=cs)
        sample = grid_sdf_world(grid)
        ny, nx = occ.shape
        rng = np.random.default_rng(11)
        pts = [rng.uniform([-1.5, -1.5], [nx * cs + 1.5, ny * cs + 1.5]) for _ in range(300)]
        centres = (np.arange(max(nx, ny)) + 0.5) * cs
        edges = np.arange(max(nx, ny) + 1) * cs
        pts += [np.array([x, y]) for x in centres[:nx] for y in centres[:ny]]
        pts += [np.array([x, y]) for x in edges[: nx + 1] for y in edges[: ny + 1]]
        pts += [np.array(p) for p in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                      (-np.inf, -np.inf), (np.nan, np.inf), (1e300, -1e300))]
        for p in pts:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the cast of a NaN
                want = sample(p[None])[0]
                got = sample(p)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), p
        assert sample([0.25, 0.25]) == sample(np.array([[0.25, 0.25]]))[0]
