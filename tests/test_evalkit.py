import numpy as np
import pytest

from hamnav.energy import POINT_LAYOUT
from hamnav.evalkit import (
    ROBUSTNESS_LEVELS,
    EpisodeMetrics,
    PerturbationSpec,
    PerturbedWorkspace,
    episode_metrics,
    heading_changes,
    perturb_obstacles,
    spl,
    table_row,
)
from hamnav.navigator import DefaultMetaPolicy, EpisodeConfig, EpisodeResult, run_episode
from hamnav.workspace import CoverageTracker, Obstacle, Workspace


def make_result(positions, clearances=None, termination="success", coverage=0.1):
    positions = np.asarray(positions, float)
    n = len(positions)
    qs = np.zeros((n, 4))
    qs[:, 2:4] = positions
    clear = np.full(n, 1.0) if clearances is None else np.asarray(clearances, float)
    zeros = np.zeros(n)
    return EpisodeResult(
        times=0.03 * np.arange(n), qs=qs, ps=np.zeros((n, 4)), energies=zeros.copy(),
        clearances=clear.copy(), true_clearances=clear.copy(), goal_dists=zeros.copy(),
        speeds=zeros.copy(), betas=zeros.copy(), lams=zeros.copy(),
        alpha_sums=zeros.copy(), active_counts=zeros.copy(), mus=zeros.copy(),
        u_fs=np.zeros((n, 2)),
        breakdown={k: zeros.copy() for k in ("E_sensor", "E_goal", "E_obj",
                                             "E_barrier_total")},
        termination=termination, coverage=coverage, layout=POINT_LAYOUT,
        wall_time=0.01)


class TestSpl:
    def test_matching_reference(self):
        assert spl(True, 10.0, 10.0) == 1.0

    def test_failure_zero(self):
        assert spl(False, 5.0, 10.0) == 0.0

    def test_longer_path(self):
        assert spl(True, 15.0, 10.0) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_shorter_than_reference_caps_at_one(self):
        assert spl(True, 8.0, 10.0) == 1.0

    def test_never_exceeds_success(self):
        for L in (5.0, 10.0, 20.0):
            assert spl(True, L, 10.0) <= 1.0


class TestEpisodeMetrics:
    def test_stationary_failure(self):
        res = make_result([[1, 1], [1, 1]], termination="stuck")
        m = episode_metrics(res, 10.0)
        assert m.success == 0 and m.path_length == 0.0
        assert m.spl == 0.0 and m.smoothness == 0.0

    def test_straight_two_step_no_turns(self):
        res = make_result([[0, 0], [1, 0], [2, 0]])
        m = episode_metrics(res, 2.0)
        assert m.smoothness == 0.0
        assert m.success == 1
        assert m.detour == pytest.approx(1.0)

    def test_zigzag_known_turn_sum(self):
        # right angles at each of 2 interior vertices: mean |turn| = pi/2
        res = make_result([[0, 0], [1, 0], [1, 1], [2, 1]])
        m = episode_metrics(res, 3.0)
        assert m.smoothness == pytest.approx(np.pi / 2)

    def test_collision_steps_counted(self):
        res = make_result([[0, 0], [1, 0], [2, 0]], clearances=[0.5, -0.1, -0.2],
                          termination="collision")
        m = episode_metrics(res, 2.0)
        assert m.collisions == 2
        assert m.success == 0
        assert m.min_clearance == pytest.approx(-0.2)

    def test_grazing_indicator(self):
        res = make_result([[0, 0], [1, 0]], clearances=[2.0, 1.2])
        assert episode_metrics(res, 1.0, d_thr=1.5).grazing == 1
        res2 = make_result([[0, 0], [1, 0]], clearances=[2.0, 1.8])
        assert episode_metrics(res2, 1.0, d_thr=1.5).grazing == 0

    def test_skips_micro_steps(self):
        pts = [[0, 0], [1, 0], [1 + 1e-12, 0], [2, 0]]
        assert len(heading_changes(pts)) == 1


class TestPerturb:
    def test_identity(self, rng):
        obs = [(0, Obstacle(np.array([1.0, 2.0]), 0.5))]
        out = perturb_obstacles(obs, PerturbationSpec(), rng)
        assert out[0][1] is obs[0][1]

    def test_jitter_statistics(self):
        rng = np.random.default_rng(0)
        spec = PerturbationSpec(sigma_pos=0.05)
        ob = Obstacle(np.array([3.0, 3.0]), 0.5)
        deltas = []
        for _ in range(10_000):
            out = perturb_obstacles([(0, ob)], spec, rng)
            deltas.append(out[0][1].center - ob.center)
        std = np.asarray(deltas).std()
        assert std == pytest.approx(0.05, rel=0.03)

    def test_named_levels(self):
        assert ROBUSTNESS_LEVELS["nominal"].is_identity
        assert ROBUSTNESS_LEVELS["mild"].sigma_pos == 0.05
        assert ROBUSTNESS_LEVELS["severe"].damping_scale == 0.7

    def test_perturbed_workspace_ground_truth_intact(self):
        base = Workspace(10.0, [Obstacle(np.array([5.0, 5.0]), 0.5)], (1, 1), (9, 9))
        ws = PerturbedWorkspace(base, ROBUSTNESS_LEVELS["severe"], seed=1)
        np.testing.assert_array_equal(ws.obstacles[0].center, [5.0, 5.0])
        assert ws.damping_scale == 0.7

    def test_perturbed_episode_deterministic(self):
        base = Workspace(12.0, [Obstacle(np.array([6.0, 6.2]), 0.6)], (1, 6), (11, 6))
        cfg = EpisodeConfig(ring=None, n_max=3000)
        r1 = run_episode(PerturbedWorkspace(base, ROBUSTNESS_LEVELS["mild"], seed=4),
                         cfg, DefaultMetaPolicy(r_offset=0.0))
        r2 = run_episode(PerturbedWorkspace(base, ROBUSTNESS_LEVELS["mild"], seed=4),
                         cfg, DefaultMetaPolicy(r_offset=0.0))
        assert np.array_equal(r1.qs, r2.qs)


class TestAggregate:
    """evalkit.table_row, the one builder of the eval table's rows."""

    def planner_row(self, feasible, length, lref, r_min):
        return {"success": int(feasible), "spl": spl(feasible, length, lref),
                "detour": length / lref if feasible else np.nan,
                "min_clearance": r_min, "mapping_ratio": 1.0}

    def test_single_episode(self):
        m = episode_metrics(make_result([[0, 0], [1, 0]], coverage=0.25), 1.0)
        row = table_row([m.row()])
        assert row == {"episodes": 1, "successes": 1, "SPL": m.spl, "Detour": m.detour,
                       "MinClear": m.min_clearance, "Mapping": 0.25}

    def test_success_only_subaggregation(self):
        # Detour and MinClear average the successful rows only; SPL and
        # Mapping average every row
        good = episode_metrics(make_result([[0, 0], [2, 0]], clearances=[0.5, 0.7],
                                           coverage=0.2), 1.0)
        bad = episode_metrics(make_result([[0, 0], [0, 1]], clearances=[0.1, 0.1],
                                          termination="stuck", coverage=0.4), 1.0)
        row = table_row([good.row(), bad.row()])
        assert row["successes"] == 1 and row["episodes"] == 2
        assert row["SPL"] == pytest.approx(0.25)
        assert row["Detour"] == pytest.approx(2.0)
        assert row["MinClear"] == pytest.approx(0.5)
        assert row["Mapping"] == pytest.approx(0.3)

    def test_order_invariance(self):
        rows = [episode_metrics(make_result([[0, 0], [k + 1.0, 0]], coverage=0.1 * k),
                                2.0).row() for k in range(6)]
        rows.append(self.planner_row(True, 2.5, 2.0, 0.4))
        rows.append({"success": 0, "spl": 0.0, "termination": "error", "error": "boom"})
        want = table_row(rows)
        rng = np.random.default_rng(0)
        for _ in range(5):
            got = table_row([rows[i] for i in rng.permutation(len(rows))])
            assert got == pytest.approx(want, rel=1e-12)

    def test_no_success_gives_nan_columns(self):
        rows = [episode_metrics(make_result([[0, 0], [0, 1]], termination="timeout"),
                                1.0).row(),
                self.planner_row(False, np.inf, 1.0, 0.4)]
        row = table_row(rows)
        assert row["successes"] == 0 and row["SPL"] == 0.0
        assert np.isnan(row["Detour"]) and np.isnan(row["MinClear"])
        assert row["Mapping"] == pytest.approx(0.55)
        assert np.isnan(table_row([])["SPL"])

    def test_planner_rows(self):
        # planner rows carry no path_length, clearance statistics or wall time
        rows = [self.planner_row(True, 12.0, 10.0, 0.2), self.planner_row(True, 10.0, 10.0, 0.2)]
        row = table_row(rows)
        assert row == pytest.approx({"episodes": 2, "successes": 2, "SPL": (10 / 12 + 1) / 2,
                                     "Detour": 1.1, "MinClear": 0.2, "Mapping": 1.0})

    def test_error_row_counts_as_failure(self):
        ok = self.planner_row(True, 10.0, 10.0, 0.4)
        row = table_row([ok, {"success": 0, "spl": 0.0, "termination": "error",
                              "error": "RuntimeError: boom"}])
        assert row["episodes"] == 2 and row["successes"] == 1
        assert row["SPL"] == 0.5
        assert row["Detour"] == 1.0 and row["MinClear"] == 0.4
        # the error row has no mapping ratio, so Mapping averages the other row
        assert row["Mapping"] == 1.0
