import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamnav import navigator, workspace
from hamnav.baselines import astar_rigid, run_baseline_episode
from hamnav.cli import config_from_dict
from hamnav.dynamics import IntegratorConfig, rollout
from hamnav.energy import (
    POINT_LAYOUT,
    EnergyWeights,
    Evaluation,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
    evaluate,
)
from hamnav.evalkit import ROBUSTNESS_LEVELS, PerturbedWorkspace, episode_metrics
from hamnav.generation import generate_bottleneck, generate_dungeon, generate_workspace
from hamnav.navigator import (
    AdaptConfig,
    DefaultMetaPolicy,
    EpisodeConfig,
    Observables,
    StagewiseSensing,
    _Episode,
    build_tokens,
    compute_observables,
    dungeon_setup,
    observable_target,
    port_correction,
    project_update,
    run_episode,
    secant_jacobian_update,
    tikhonov_step,
)
from hamnav.ring import RingParams, RingShapeModel
from hamnav.workspace import (
    DeadEndError,
    DiscSet,
    Obstacle,
    ObstacleMemory,
    StageManager,
    Workspace,
    row_norms,
    signed_distances,
)

from conftest import assert_discs_hold


class RisingMeta:
    """A meta policy whose k-th proposal raises each weight of ``base``'s by
    k / 4, and which records the episode's ``weights`` as each proposal meets
    them: ``events`` holds (weights before the merge, proposal) pairs."""

    def __init__(self, base):
        self.base, self.weights, self.events = base, None, []

    def propose(self, tokens):
        up = len(self.events) / 4
        p = self.base.propose(tokens)
        prop = EnergyWeights(p.beta + up, p.lam + up,
                             {i: a + up for i, a in p.alpha.items()}, p.mu + up)
        self.events.append((snapshot(self.weights), prop))
        return prop


def snapshot(w):
    return EnergyWeights(w.beta, w.lam, dict(w.alpha), w.mu)


def point_observables(z, obstacles, goal, shape_clearances, d_hat):
    """compute_observables of a point robot with unit masses, with the
    clearance measured against ``obstacles`` (+inf for none)."""
    clr = float(signed_distances(obstacles, z.q[2:4]).min()) if obstacles else np.inf
    return compute_observables(z, clr, goal, shape_clearances, np.ones(4), POINT_LAYOUT, d_hat)


class TestObservables:
    def test_at_goal_at_rest(self):
        z = PhaseState(np.array([0.0, 0.0, 2.0, 2.0]), np.zeros(4))
        obs = [Obstacle(np.array([5.0, 5.0]), 0.5)]
        y = point_observables(z, obs, (2.0, 2.0), [], d_hat=1.0)
        vec = y.vector()
        assert vec[1] == 0.0 and vec[2] == 0.0
        assert vec[0] == -y.clearance

    def test_empty_min_capped_at_dhat(self):
        z = PhaseState(np.zeros(4), np.zeros(4))
        y = point_observables(z, [], (1.0, 0.0), [], d_hat=0.8)
        assert y.clearance == 0.8

    def test_penetration_negative(self):
        z = PhaseState(np.array([0.0, 0.0, 5.0, 5.0]), np.zeros(4))
        obs = [Obstacle(np.array([5.0, 5.0]), 0.5)]
        y = point_observables(z, obs, (9.0, 9.0), [], d_hat=1.0)
        assert y.clearance < 0
        assert y.vector()[0] > 0

    def test_shape_qoi_folds_in(self):
        z = PhaseState(np.zeros(4), np.zeros(4))
        y = point_observables(z, [], (1.0, 0.0), [0.25], d_hat=0.8)
        assert y.clearance == 0.25


class TestObservableTarget:
    def test_relative_speed_floor_on(self):
        y = Observables(clearance=0.5, goal_dist=3.0, speed=0.05)
        t = observable_target(y, 0.2, 0.1, 0.3)
        np.testing.assert_allclose(t, [-0.2, 2.9, -0.3])

    def test_relative_floor_off_when_unsafe(self):
        y = Observables(clearance=0.1, goal_dist=3.0, speed=0.05)
        t = observable_target(y, 0.2, 0.1, 0.3)
        assert t[2] == pytest.approx(-0.05)


def reference_secant(J_prev, dy, dzeta, rho, eps):
    """The secant update written out in floats: each entry
    rho J_ij + (1 - rho) (dy_i dzeta_j / (|dzeta|^2 + eps)), the squares
    summed left to right."""
    denom = left_to_right([z * z for z in dzeta]) + eps
    return [[rho * J_prev[i][j] + (1.0 - rho) * (dy[i] * dzeta[j] / denom) for j in range(3)]
            for i in range(3)]


def left_to_right(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def as_bytes(rows):
    return np.array(rows, float).tobytes()


ENTRIES = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0]))


class TestSecant:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([0.0, 0.6, 0.9]), st.sampled_from([1e-9, 1e-6]), st.data())
    def test_bits_match_the_reference(self, rho, eps, data):
        vec = lambda n: data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
        J_prev, dy, dz = np.reshape(vec(9), (3, 3)).tolist(), vec(3), vec(3)
        got = secant_jacobian_update(J_prev, dy, dz, rho, eps)
        assert as_bytes(got) == as_bytes(reference_secant(J_prev, dy, dz, rho, eps))
        # the numpy form: an outer product over a BLAS dot
        dy, dz = np.array(dy), np.array(dz)
        want = rho * np.array(J_prev) + (1.0 - rho) * np.outer(dy, dz) / (np.dot(dz, dz) + eps)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_zero_dzeta_guarded(self):
        J0 = np.ones((3, 3))
        J = secant_jacobian_update(J0, (1.0, 2.0, 3.0), (0.0, 0.0, 0.0), 0.5, 1e-6)
        np.testing.assert_allclose(J, 0.5 * J0)

    def test_rho_zero_pure_secant(self):
        dy = np.array([1.0, 0.0, 0.0])
        dz = np.array([2.0, 0.0, 0.0])
        J = secant_jacobian_update(np.zeros((3, 3)), dy, dz, 0.0, 0.0)
        np.testing.assert_allclose(np.array(J) @ dz, dy)

    def test_rank_one_consistency(self, rng):
        dy = rng.normal(size=3)
        dz = rng.normal(size=3)
        eps = 1e-6
        J = secant_jacobian_update(np.zeros((3, 3)), dy, dz, 0.0, eps)
        expected = dy * (dz @ dz) / (dz @ dz + eps)
        np.testing.assert_allclose(np.array(J) @ dz, expected, rtol=1e-12)


def reference_cholesky_solve(A, b):
    """A x = b by the textbook Cholesky loops (Higham, 2002, alg. 10.2): L
    column by column, then L y = b and L^T x = y, each sum subtracted term
    by term in ascending index order.  LinAlgError on a pivot that is not
    positive."""
    n = len(b)
    L = [[0.0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, n):
            acc = A[i][j]
            for k in range(j):
                acc = acc - L[i][k] * L[j][k]
            if i == j:
                if not acc > 0.0:
                    raise np.linalg.LinAlgError("not positive definite")
                L[j][j] = math.sqrt(acc)
            else:
                L[i][j] = acc / L[j][j]
    y = [0.0] * n
    for i in range(n):
        acc = b[i]
        for k in range(i):
            acc = acc - L[i][k] * y[k]
        y[i] = acc / L[i][i]
    x = [0.0] * n
    for i in reversed(range(n)):
        acc = y[i]
        for k in range(i + 1, n):
            acc = acc - L[k][i] * x[k]
        x[i] = acc / L[i][i]
    return x


def normal_equations(M, r, lam):
    """(M^T M + lam I, M^T r) for M in rows, each sum over M's rows left to right."""
    n = len(M[0])
    A = [[left_to_right([row[j] * row[k] for row in M]) + (lam if j == k else 0.0)
          for k in range(n)] for j in range(n)]
    return A, [left_to_right([row[j] * ri for row, ri in zip(M, r)]) for j in range(n)]


def solve_bound(A, x):
    """32 eps cond(A) max|x|: the distance allowed between two backward-stable
    solves of A x = b."""
    return 32 * np.finfo(float).eps * np.linalg.cond(A) * np.abs(x).max()


class TestTikhonov:
    def test_identity(self):
        out = tikhonov_step(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(out, [1, 2, 3])

    def test_large_lambda_shrinks(self):
        out = tikhonov_step(np.eye(3), np.array([1.0, 2.0, 3.0]), 1e12)
        assert np.max(np.abs(out)) < 1e-9

    def test_diagonal_closed_form(self):
        J = np.diag([2.0, 1.0, 1.0])
        out = tikhonov_step(J, np.array([1.0, 0.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [0.4, 0.0, 0.0])

    def test_singular_without_ridge(self):
        J = np.zeros((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            tikhonov_step(J, np.ones(3), 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            tikhonov_step(J.tolist(), [1.0, 1.0, 1.0], 0.0)

    @pytest.mark.parametrize("outer", ["warn", "raise", "ignore"])
    def test_not_positive_definite_raises_linalg_error(self, outer):
        """LinAlgError, never ZeroDivisionError or FloatingPointError, under
        any floating-point state the caller holds, on arrays or floats."""
        rank_one = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with np.errstate(all=outer):
            for convert in (np.asarray, lambda a: np.asarray(a).tolist()):
                with pytest.raises(np.linalg.LinAlgError):
                    tikhonov_step(convert(np.ones((3, 3))), convert(np.ones(3)), -1.0)
                with pytest.raises(np.linalg.LinAlgError):
                    tikhonov_step(convert(np.zeros((3, 3))), convert(np.ones(3)), 0.0)
                with pytest.raises(np.linalg.LinAlgError):
                    port_correction(convert(np.zeros((3, 2))), convert(np.ones(3)), 0.0, 1.0)
                with pytest.raises(np.linalg.LinAlgError):
                    port_correction(convert(rank_one), convert(np.ones(3)), 0.0, 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_zero_columns_drop_out(self, seed):
        """With the beta and lam columns of J zero (only mu learned), the step
        leaves beta and lam alone, and mu's step is the one-weight ridge
        solution (J_mu . dy) / (|J_mu|^2 + lam), its sums taken left to right,
        to rounding (the solve divides by the square root of the pivot twice)."""
        rng = np.random.default_rng(seed)
        J = np.zeros((3, 3))
        J[:, 2] = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 2)
        dy, lam = rng.normal(size=3), 10.0 ** rng.uniform(-4, 1)
        out = tikhonov_step(J, dy, lam)
        assert out[0] == 0.0 and out[1] == 0.0
        col = J[:, 2].tolist()
        want = left_to_right([c * d for c, d in zip(col, dy.tolist())]) / (
            left_to_right([c * c for c in col]) + lam)
        assert out[2] == pytest.approx(want, rel=1e-13, abs=1e-300)

    def test_matches_the_loops_and_np_linalg(self):
        """tikhonov_step and port_correction against the textbook loops,
        bit for bit, and np.linalg's LAPACK solves to rounding, on random
        ridge systems and random 2x2 port systems."""
        rng = np.random.default_rng(20)
        for n in range(5000):
            J = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 2)
            dy, lam = rng.normal(size=3), 10.0 ** rng.uniform(-4, 1)
            got = tikhonov_step(J.tolist(), dy.tolist(), lam)
            A, b = normal_equations(J.tolist(), dy.tolist(), lam)
            assert as_bytes(got) == as_bytes(reference_cholesky_solve(A, b)), n
            A = J.T @ J + lam * np.eye(3)
            want = np.linalg.solve(A, J.T @ dy)
            assert np.abs(np.subtract(got, want)).max() <= solve_bound(A, want), n

            P, r = rng.normal(size=(3, 2)), rng.normal(size=3)
            got = port_correction(P.tolist(), r.tolist(), lam, np.inf)
            ((a00, a01), (a10, a11)), (b0, b1) = normal_equations(P.tolist(), r.tolist(), lam)
            det = a00 * a11 - a01 * a10  # Cramer's rule
            cramer = ((b0 * a11 - a01 * b1) / det, (a00 * b1 - b0 * a10) / det)
            assert as_bytes(got) == as_bytes(cramer), n
            A = P.T @ P + lam * np.eye(2)
            want = np.linalg.solve(A, P.T @ r)
            assert np.abs(np.subtract(got, want)).max() <= solve_bound(A, want), n


class TestProjectUpdate:
    def test_zero_step(self):
        z = np.array([1.0, 2.0])
        np.testing.assert_array_equal(project_update(z, np.zeros(2), np.full(2, 0.5)), z)

    def test_clamped_at_zero(self):
        out = project_update(np.array([0.1]), np.array([-10.0]), np.array([0.5]))
        assert out[0] == 0.0

    def test_damped_step(self):
        out = project_update(np.array([1.0]), np.array([2.0]), np.array([0.25]))
        assert out[0] == pytest.approx(1.5)

    def test_kappa_validated(self):
        # the loop's kappa comes from the config, whose domain table holds
        # each step size in [0, 0.999], rather than from a check on every
        # project_update
        for name, value in (("kappa_gamma", 1.0), ("kappa_beta", -0.1)):
            with pytest.raises(ValueError, match=rf"^config field episode\.adapt\.{name}="):
                config_from_dict({"episode": {"adapt": {name: value}}})


class TestPortCorrection:
    def test_zero_residual(self):
        P = np.zeros((3, 2))
        P[2] = [0.0, -1.0]
        np.testing.assert_array_equal(port_correction(P, np.zeros(3), 0.1, 1.0),
                                      np.zeros(2))

    def test_speed_channel_closed_form(self):
        kappa_v, lam_u = 1.3, 0.2
        v_hat = np.array([1.0, 0.0])
        P = np.zeros((3, 2))
        P[2] = -kappa_v * v_hat
        r = np.array([0.4, -0.2, 0.7])
        u = port_correction(P, r, lam_u, 10.0)
        expected_mag = kappa_v * abs(r[2]) / (kappa_v ** 2 + lam_u)
        assert np.linalg.norm(u) == pytest.approx(expected_mag)
        assert u[1] == 0.0

    def test_clipping(self):
        P = np.eye(3)[:, :2] * 10
        u = port_correction(P, np.array([100.0, -100.0, 0.0]), 1e-3, 0.5)
        assert np.all(np.abs(u) <= 0.5)

    def test_infinite_lambda_exact_zero(self):
        P = np.ones((3, 2))
        u = port_correction(P, np.ones(3), np.inf, 1.0)
        assert np.array_equal(u, np.zeros(2))


def empty_point_cfg(**kw):
    base = dict(ring=None, d_hat=0.8, n_max=4000)
    base.update(kw)
    return EpisodeConfig(**base)


class TestRunEpisode:
    def test_empty_workspace_near_straight(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        res = run_episode(ws, empty_point_cfg(), DefaultMetaPolicy(r_offset=0.0))
        assert res.termination == "success"
        ref = astar_rigid(ws, 0.1, 0.0)
        assert res.path_length() <= 1.05 * ref.length

    def test_zero_budget_times_out(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        res = run_episode(ws, empty_point_cfg(n_max=0), DefaultMetaPolicy())
        assert res.termination == "timeout"
        assert res.n_steps == 0

    def test_nonfinite_gradient_is_diverged(self, monkeypatch):
        # the gradient turns NaN at the sixth step: the integrator refuses the
        # step, the episode ends "diverged" (not "collision") with the five
        # finite states it reached, and it scores as a failure
        grad, calls = Evaluation.grad_list.fget, []

        def nan_after_five(ev):
            calls.append(None)
            return grad(ev) if len(calls) <= 5 else [math.nan] * len(ev.q)

        monkeypatch.setattr(Evaluation, "grad_list", property(nan_after_five))
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        res = run_episode(ws, empty_point_cfg(), DefaultMetaPolicy(r_offset=0.0))
        assert res.termination == "diverged"
        assert res.n_steps == 5
        assert np.isfinite(res.qs).all() and np.isfinite(res.ps).all()
        assert episode_metrics(res, 10.0).success == 0

    def test_start_inside_obstacle_collides(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        ws.obstacles = [Obstacle(np.array([1.0, 6.0]), 0.5)]  # bypass validation
        res = run_episode(ws, empty_point_cfg(), DefaultMetaPolicy())
        assert res.termination == "collision"

    def test_weight_history_nonnegative(self):
        ws = Workspace(12.0, [Obstacle(np.array([6.0, 6.2]), 0.6)], (1.0, 6.0), (11.0, 6.0))
        res = run_episode(ws, empty_point_cfg(), DefaultMetaPolicy(r_offset=0.0))
        assert res.betas.min() >= 0 and res.lams.min() >= 0
        assert res.mus.min() >= 0 and res.alpha_sums.min() >= 0

    def test_zeta_cap_bounds_beta_lam_mu(self):
        # three ceilings, for beta, lam and mu: the adapted weights each step
        # logs stay under them, though every proposal asks for more
        ws = Workspace(12.0, [Obstacle(np.array([6.0, 6.2]), 0.6)], (1.0, 6.0), (11.0, 6.0))
        cfg = empty_point_cfg(adapt=AdaptConfig(zeta_cap=(1.0, 0.5, 3.0)))
        meta = DefaultMetaPolicy(beta=1.5, lam=1.0, mu=4.0, r_offset=0.0)
        res = run_episode(ws, cfg, meta)
        assert res.n_steps > 0
        assert res.betas.max() == 1.0 and res.lams.max() == 0.5 and res.mus.max() == 3.0

    def test_history_length_matches_trajectory(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        res = run_episode(ws, empty_point_cfg(), DefaultMetaPolicy())
        n = len(res.times)
        for arr in (res.qs, res.ps, res.betas, res.mus, res.u_fs, res.clearances):
            assert len(arr) == n

    def test_locality_far_obstacle_untouched(self, monkeypatch):
        # the far obstacle is sensed once but never active: its weight stays
        # at the proposed value bit-for-bit
        far = Obstacle(np.array([6.0, 11.0]), 0.5)
        near = Obstacle(np.array([6.0, 6.3]), 0.5)
        ws = Workspace(12.0, [near, far], (1.0, 6.0), (11.0, 6.0))
        cfg = empty_point_cfg(sense_half_extent=6.0)
        meta = DefaultMetaPolicy(alpha=1.25, r_offset=0.0)
        res = run_episode(ws, cfg, meta)
        assert res.final_weights["alpha"][1] == 1.25

        # every sensing event re-anchors beta, lam and mu on the proposal,
        # while a barrier weight is set once, at its disc's first proposal,
        # though each later proposal is higher: every alpha_i the energy
        # reads, at every step, is that first proposal
        rising = RisingMeta(meta)
        ep = _Episode(ws, cfg, rising)
        rising.weights = ep.weights
        merged, seen = [], []
        real_evaluate = navigator.evaluate

        def spy(q, spec, p=None, contact=None):
            if len(merged) < len(rising.events):  # (D) of a step that sensed
                merged.append(snapshot(spec.weights))
            seen.append(dict(spec.weights.alpha))
            return real_evaluate(q, spec, p, contact)

        monkeypatch.setattr(navigator, "evaluate", spy)
        res = ep.run()
        assert res.final_weights["alpha"][1] == 1.25
        assert len(merged) == len(rising.events) > 2
        first = {}
        for (pre, prop), post in zip(rising.events, merged):
            assert (post.beta, post.lam, post.mu) == (prop.beta, prop.lam, prop.mu)
            assert post.alpha == {**prop.alpha, **pre.alpha}
            for i, a in prop.alpha.items():
                first.setdefault(i, a)
        assert any(pre.beta != prop.beta for pre, prop in rising.events[1:])
        assert any(prop.alpha[0] > first[0] for _, prop in rising.events[1:])
        assert len(seen) == res.n_steps + 1
        assert all(alpha == {i: first[i] for i in alpha} for alpha in seen)

    def test_stuck_detection_fires(self):
        ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))
        cfg = empty_point_cfg(stuck_window=50, eps_stuck=1e-3)
        cfg.adapt = AdaptConfig(kappa_beta=0.0, kappa_gamma=0.0, lam_u=np.inf, v_min=0.0)
        meta = DefaultMetaPolicy(beta=0.0, lam=0.0, alpha=0.0, mu=1.0)  # no pull
        res = run_episode(ws, cfg, meta)
        assert res.termination == "stuck"
        assert res.n_steps == 51  # window fills, then the check fires

    def test_determinism_bit_identical(self):
        ws = Workspace(12.0, [Obstacle(np.array([5.5, 6.1]), 0.7),
                              Obstacle(np.array([8.0, 5.6]), 0.5)], (1.0, 6.0), (11.0, 6.0))
        cfg = empty_point_cfg()
        a = run_episode(ws, cfg, DefaultMetaPolicy(r_offset=0.0))
        b = run_episode(ws, cfg, DefaultMetaPolicy(r_offset=0.0))
        assert a.termination == b.termination
        assert np.array_equal(a.qs, b.qs) and np.array_equal(a.ps, b.ps)
        assert np.array_equal(a.betas, b.betas) and np.array_equal(a.u_fs, b.u_fs)

    def test_frozen_meta_matches_rollout(self):
        # goal inside the first stage, no obstacles, no adaptation, no port:
        # the episode is exactly a fixed-energy rollout
        ws = Workspace(2.5, [], (0.4, 1.0), (2.1, 1.0))
        cfg = EpisodeConfig(ring=None, d_hat=0.8, n_max=60, eps_goal=1e-6,
                            stage_w=2.6, stage_h=2.6)
        cfg.adapt = AdaptConfig(kappa_beta=0.0, kappa_gamma=0.0, lam_u=np.inf, v_min=0.0)
        meta = DefaultMetaPolicy(beta=1.5, lam=0.0, alpha=0.0, mu=2.0, mu_boost=0.0)
        res = run_episode(ws, cfg, meta)
        assert res.termination == "timeout"  # eps tiny: never "reaches"
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=ws.goal, d_hat=cfg.d_hat,
                           sensor_gain=cfg.sensor_gain)
        spec = HamiltonianSpec(np.array([1.0, 1.0, cfg.mass_frame, cfg.mass_frame]),
                               EnergyWeights(beta=1.5, lam=0.0, mu=2.0), DiscSet.of(()), fixed)
        q0 = np.zeros(4)
        q0[2:4] = ws.start
        ref = rollout(PhaseState(q0, np.zeros(4)), spec,
                      IntegratorConfig(cfg.tau, 60), mu=2.0)
        for k in range(61):
            assert np.array_equal(res.qs[k], ref.states[k].q)
            assert np.array_equal(res.ps[k], ref.states[k].p)

    def test_adaptation_sanity_head_on(self):
        # single obstacle dead ahead: once adaptation engages, the active
        # barrier weight never decreases while clearance is unsafe
        ws = Workspace(12.0, [Obstacle(np.array([6.0, 6.0]), 0.6)], (1.0, 6.0), (11.0, 6.0))
        cfg = empty_point_cfg()
        res = run_episode(ws, cfg, DefaultMetaPolicy(r_offset=0.0))
        assert res.termination == "success"
        m_safe = cfg.adapt.m_safe
        engaged = res.alpha_sums > 0
        for k in range(1, len(res.alpha_sums)):
            if engaged[k - 1] and engaged[k] and res.clearances[k] < m_safe \
                    and res.active_counts[k] == res.active_counts[k - 1] == 1:
                assert res.alpha_sums[k] >= res.alpha_sums[k - 1] - 1e-12

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match=r"^config field episode\.horizons="):
            config_from_dict({"episode": {"horizons": [0, 1, 1]}})


def walled_in_start():
    """A 12-m world whose start stage is walled off on all four edges."""
    stages = StageManager(12.0, 2.6, 2.0, 0.3)
    start = np.array([1.3, 6.6])
    x0, y0, x1, y1 = stages.stage_bounds(stages.stage_of(start))
    walls = [Obstacle(np.array([xa + t * (xb - xa), ya + t * (yb - ya)]), 0.4)
             for xa, ya, xb, yb in ((x0, y1, x1, y1), (x0, y0, x1, y0),
                                    (x1, y0, x1, y1), (x0, y0, x0, y1))
             for t in np.linspace(0, 1, 12)]
    return Workspace(12.0, walls, start, (11.0, 6.6))


class TestSpecReuse:
    def test_spec_follows_weights_until_the_set_or_goal_changes(self):
        near, far = Obstacle(np.array([2.0, 6.3]), 0.5), Obstacle(np.array([3.0, 5.2]), 0.4)
        ws = Workspace(12.0, [near, far], (1.0, 6.0), (11.0, 6.0))
        ep = _Episode(ws, empty_point_cfg(), DefaultMetaPolicy(r_offset=0.0))
        act = DiscSet.of([(0, near), (1, far)])
        q = np.array([0.3, -0.1, 1.2, 5.9])
        spec = ep.spec_for(act)
        assert ep.spec_for(act) is spec and spec.weights is ep.weights

        # the reused spec reads the weights as the loop adapts them in place
        w = ep.weights
        w.beta, w.lam, w.mu, w.alpha[0], w.alpha[1] = 1.7, 0.4, 2.0, 3.5, 0.25
        fresh = HamiltonianSpec(mass=ep.mass, discs=act, fixed=ep.fixed,
                                weights=EnergyWeights(1.7, 0.4, {0: 3.5, 1: 0.25}, 2.0))
        got, want = evaluate(q, ep.spec_for(act)), evaluate(q, fresh)
        assert ep.spec_for(act) is spec
        assert got.grad.tobytes() == want.grad.tobytes() and got.potential == want.potential

        # another active set, even of the same discs, and a new stage goal
        # each give a new spec
        same_discs = DiscSet.of([(0, near), (1, far)])
        other = ep.spec_for(same_discs)
        assert other is not spec and other.discs is same_discs and other.fixed is spec.fixed
        ep.sensing.stage_goal = np.array([6.0, 9.0])
        moved = ep.spec_for(same_discs)
        assert moved is not other and moved.fixed.goal is ep.sensing.stage_goal
        assert moved.weights is ep.weights and ep.spec_for(same_discs) is moved


class TestStagewiseSensing:
    """The sensing/retarget loop the navigator and the baselines share."""

    ws = Workspace(12.0, [], (1.0, 6.0), (11.0, 6.0))

    def test_senses_every_t_y_steps(self):
        sensing = StagewiseSensing(self.ws, EpisodeConfig(horizons=(7, 5, 1)))
        c = np.array([1.0, 6.0])
        sensed = [n for n in range(40) if sensing.refresh(c, n)]
        assert sensed == [0, 7, 14, 21, 28, 35]
        assert len(sensing.tracker.windows) == len(sensed)
        x0, y0, x1, y1 = sensing.stages.stage_bounds(sensing.stage)
        assert sensing.stage_goal[0] == pytest.approx(x1)  # the east exit

    def test_attained_exit_hands_off(self):
        sensing = StagewiseSensing(self.ws, EpisodeConfig(horizons=(100, 5, 1)))
        assert sensing.refresh(np.array([1.0, 6.0]), 0)
        first_stage, exit0 = sensing.stage, sensing.stage_goal.copy()
        assert not sensing.refresh(np.array([1.2, 6.0]), 1)
        assert sensing.refresh(exit0, 2)
        assert sensing.stage[0] == first_stage[0] + 1
        assert len(sensing.exits.traversals) == 1 and not sensing.exits.failures
        np.testing.assert_array_equal(sensing.exits.traversals[0][0], exit0)
        assert sensing.stage_goal[0] > exit0[0]
        assert len(sensing.exit_dists) == 0

    def test_stage_hit_senses_once_per_exit(self):
        # eps_stage 1.0 reaches 0.9 back from the east exit, where the robot is
        # still in its stage alone: the selector hands the same exit back
        sensing = StagewiseSensing(self.ws, EpisodeConfig(horizons=(10, 5, 1), eps_stage=1.0))
        assert sensing.refresh(np.array([1.0, 6.0]), 0)
        first_stage, exit0 = sensing.stage, sensing.stage_goal.copy()
        near = exit0 - np.array([0.9, 0.0])
        assert sensing.refresh(near, 1)  # the hand-off
        assert sensing.stage == first_stage
        np.testing.assert_array_equal(sensing.stage_goal, exit0)
        assert len(sensing.exits.traversals) == 1 and sensing.exits.traversals[0][1] == 1
        assert not any(sensing.refresh(near, n) for n in range(2, 10))
        assert len(sensing.exits.traversals) == 1 and sensing.exits.traversals[0][1] == 1
        assert len(sensing.tracker.windows) == 2
        assert sensing.refresh(near, 10)  # the T_y cadence still senses
        assert sensing.exits.traversals[0][1] == 1 and not sensing.exits.failures
        assert len(sensing.tracker.windows) == 3

    def test_no_progress_abandons_exit(self):
        cfg = EpisodeConfig(horizons=(100, 5, 1), retarget_window=10)
        sensing = StagewiseSensing(self.ws, cfg)
        c = np.array([1.0, 6.0])
        assert sensing.refresh(c, 0)
        exit0 = sensing.stage_goal.copy()
        assert not any(sensing.refresh(c, n) for n in range(1, 10))
        assert len(sensing.exit_dists) == 9
        assert sensing.refresh(c, 10)  # ten steps without progress
        assert len(sensing.exits.failures) == 1 and not sensing.exits.traversals
        np.testing.assert_array_equal(sensing.exits.failures[0][0], exit0)
        assert len(sensing.exit_dists) == 0
        assert len(sensing.tracker.windows) == 2

    def test_dead_end_raises_after_sensing(self):
        ws = walled_in_start()
        sensing = StagewiseSensing(ws, EpisodeConfig())
        with pytest.raises(DeadEndError):
            sensing.refresh(ws.start, 0)
        assert len(sensing.tracker.windows) == 1  # the window is charged first

    @pytest.mark.parametrize("method", ["grlsnam", "pf"])
    def test_cached_goal_pair_and_clipped_position(self, monkeypatch, method):
        """After every refresh of a dungeon episode, ``stage_goal_xy`` is the
        stage goal's float pair and ``on_exit`` says whether it is an exit;
        the position each refresh hands ``stage_of`` is ``np.clip`` of the
        frame, bit for bit."""
        refresh, stage_of = StagewiseSensing.refresh, StageManager.stage_of
        seen = {"refreshes": 0, "exits": 0, "positions": []}

        def checking_refresh(self, c, n):
            seen["positions"].clear()
            out = refresh(self, c, n)
            assert self.stage_goal_xy == tuple(self.stage_goal.tolist())
            assert self.on_exit == (not np.array_equal(self.stage_goal, self.ws.goal))
            want = np.clip(c, 0.0, self.ws.side)
            # the first: exit selection may place the goal's stage after it
            assert np.array(seen["positions"][0], float).tobytes() == want.tobytes()
            seen["refreshes"] += 1
            seen["exits"] += self.on_exit
            return out

        def recording_stage_of(self, position, current=None):
            seen["positions"].append(position)
            return stage_of(self, position, current)

        monkeypatch.setattr(StagewiseSensing, "refresh", checking_refresh)
        monkeypatch.setattr(StageManager, "stage_of", recording_stage_of)
        cfg, meta = dungeon_setup()
        ws = generate_dungeon(0, cells=3)
        if method == "grlsnam":
            res = run_episode(ws, cfg, meta)
        else:
            res = run_baseline_episode(ws, "pf", cfg)
        # both reach the goal: the stage goal is an exit, then the goal
        assert res.termination == "success"
        assert seen["refreshes"] > 400 and 0 < seen["exits"] < seen["refreshes"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(-3.0, 15.0), st.sampled_from([-0.0, 0.0, 12.0])),
                    min_size=2, max_size=2))
    def test_clip_matches_numpy(self, xy):
        """The float clip of the frame into the world gives ``np.clip``'s bits,
        a -0.0 and the walls included."""
        positions = []
        sensing = StagewiseSensing(self.ws, EpisodeConfig())
        stage_of = sensing.stages.stage_of
        sensing.stages.stage_of = lambda pos, current=None: positions.append(pos) or stage_of(
            pos, current)
        c = np.array(xy)
        sensing.refresh(c, 0)
        assert np.array(positions[0], float).tobytes() == np.clip(c, 0.0, self.ws.side).tobytes()

    @pytest.mark.parametrize("method", ["grlsnam", "pf", "dwa"])
    def test_dead_end_episode(self, method):
        ws, cfg = walled_in_start(), EpisodeConfig()
        if method == "grlsnam":
            res = run_episode(ws, cfg, DefaultMetaPolicy(r_offset=0.0))
        else:
            res = run_baseline_episode(ws, method, cfg)
        assert res.termination == "dead_end"
        assert res.n_steps == 0
        assert len(res.tracker.windows) == 1 and res.coverage > 0

    @pytest.mark.parametrize("method", ["grlsnam", "pf", "dwa"])
    def test_start_collision_episode(self, method):
        # the ring at rest (radius 0.4) and the 0.4-m disc both overlap the disc
        ws = Workspace(10.0, [Obstacle(np.array([1.0, 1.8]), 0.5)], (1.0, 1.0), (9.0, 9.0))
        if method == "grlsnam":
            res = run_episode(ws, EpisodeConfig(ring=RingParams()))
        else:
            res = run_baseline_episode(ws, method, EpisodeConfig(), robot_radius=0.4)
        assert res.termination == "collision"
        assert res.n_steps == 0
        for arr in (res.times, res.qs, res.ps, res.energies, res.clearances,
                    res.true_clearances, res.goal_dists, res.speeds, res.betas, res.lams,
                    res.alpha_sums, res.active_counts, res.mus, res.u_fs,
                    *res.breakdown.values()):
            assert len(arr) == 1
        assert res.true_clearances[0] < 0


def sensed_memory(r, n_events):
    """A dict memory and an ObstacleMemory fed the same sensing events; ids
    recur (re-sensing) and include negative ones (any int64 id is stored)."""
    ref, memory = {}, ObstacleMemory()
    for _ in range(n_events):
        event = [(int(r.integers(-6, 30)), Obstacle(r.uniform(0, 10, 2), r.uniform(0.1, 0.8)))
                 for _ in range(int(r.integers(0, 10)))]
        memory.add(event)
        for idx, ob in event:
            ref[idx] = ob
    return ref, memory


def vector_norm(v, linalg=False):
    """The portable norm of a 2-vector, sqrt(x*x + y*y), or with ``linalg``
    ``np.linalg.norm`` (a BLAS dot, whose bits depend on the CPU)."""
    if linalg:
        return float(np.linalg.norm(v))
    x, y = np.asarray(v, float).tolist()
    return math.sqrt(x * x + y * y)


def reference_active_pairs(ep, memory, q):
    """_Episode.active_set as the loop over a dict memory it replaced."""
    c = q[ep.layout.frame]
    reach = ep.cfg.d_hat
    if ep.shape is not None:
        reach += float(q[ep.layout.scale][0]) * ep.shape.params.r_base * 1.05
    out = []
    for idx in sorted(memory):
        ob = memory[idx]
        if vector_norm(c - ob.center) - ob.radius <= reach:
            out.append((idx, ob))
    return out


def reference_tokens(q, pairs, layout, linalg=False):
    """build_tokens' token rows as the per-obstacle loop it replaced."""
    c = q[layout.frame]
    ids, rows = [], []
    for idx, ob in sorted(pairs, key=lambda kv: kv[0]):
        rel = ob.center - c
        ids.append(idx)
        rows.append([rel[0], rel[1], ob.radius, vector_norm(rel, linalg) - ob.radius])
    return ids, np.asarray(rows, float).reshape(len(ids), 4)


class TestObstacleMemoryInEpisode:
    """Active set and meta tokens from an ObstacleMemory equal the dict loops."""

    @given(st.integers(0, 10_000), st.integers(0, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_active_pairs_and_tokens(self, seed, n_events, ring):
        r = np.random.default_rng(seed)
        ws = Workspace(10.0, [], (1.0, 1.0), (9.0, 9.0))
        cfg = EpisodeConfig(ring=RingParams() if ring else None, d_hat=r.uniform(0.3, 2.0))
        ep = _Episode(ws, cfg, DefaultMetaPolicy())
        ref, ep.sensing.memory = sensed_memory(r, n_events)
        q = np.array(ep.z.q)
        q[ep.layout.frame] = r.uniform(0, 10, 2)
        if ep.layout.scale is not None:
            q[ep.layout.scale] = r.uniform(0.25, 1.3)
        assert_discs_hold(ep.active_set(q), reference_active_pairs(ep, ref, q))

        p = r.normal(size=q.shape)
        for discs in (ep.sensing.memory.discs, DiscSet.of(ref.items())):
            tokens = build_tokens(q, p, discs, ws.goal, ep.mass, ep.layout)
            ids, rows = reference_tokens(q, ref.items(), ep.layout)
            assert tokens.obstacle_ids == ids
            assert tokens.tokens.shape == rows.shape
            assert tokens.tokens.tobytes() == rows.tobytes()
            _, rows = reference_tokens(q, ref.items(), ep.layout, linalg=True)
            np.testing.assert_allclose(tokens.tokens, rows, rtol=1e-12, atol=1e-12)


class TestActiveSetReuse:
    """``_Episode.active_set`` runs its full test only when the mask can have
    changed, and hands back what the full test would."""

    @staticmethod
    def full_test(ep, q):
        """The memory's discs with row_norms(c - centres) - radii <= reach."""
        mem = ep.sensing.memory.discs
        reach = ep.cfg.d_hat
        if ep.shape is not None:
            reach += float(q[ep.layout.scale][0]) * ep.shape.params.r_base * 1.05
        return mem, reach, row_norms(q[ep.layout.frame] - mem.centers) - mem.radii <= reach

    @given(st.integers(0, 10_000), st.booleans(), st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_random_walk_matches_the_full_test(self, seed, ring, m):
        r = np.random.default_rng(seed)
        ws = Workspace(10.0, [], (1.0, 1.0), (9.0, 9.0))
        cfg = EpisodeConfig(ring=RingParams() if ring else None, d_hat=r.uniform(0.3, 2.0))
        ep = _Episode(ws, cfg, DefaultMetaPolicy())
        frame, scale = ep.layout.frame, ep.layout.scale

        def memory(n):
            return ObstacleMemory([(i, Obstacle(r.uniform(0, 10, 2), r.uniform(0.1, 0.8)))
                                   for i in range(n)])

        ep.sensing.memory = memory(m)
        q = np.array(ep.z.q)
        q[frame] = r.uniform(0, 10, 2)
        full = navigator.row_norms
        counts = {"calls": 0, "full": 0}

        def counting(d):
            counts["full"] += 1
            return full(d)

        held = held_mem = None
        for k in range(240):
            if k == 120:  # the memory replaced partway
                ep.sensing.memory = memory(int(r.integers(1, 121)))
            kind = int(r.integers(0, 4))
            if kind == 0:
                q[frame] += r.normal(scale=1e-3, size=2)
            elif kind == 1:
                q[frame] = r.uniform(0, 10, 2)
            elif kind == 2:  # within 1e-12 of a disc's activation edge
                mem, reach, _ = self.full_test(ep, q)
                i, ang = int(r.integers(len(mem))), r.uniform(0, 2 * np.pi)
                edge = mem.radii[i] + reach + r.uniform(-1e-12, 1e-12)
                q[frame] = mem.centers[i] + edge * np.array([np.cos(ang), np.sin(ang)])
            elif scale is not None:  # a scale change on the ring
                q[scale] = np.clip(q[scale] + r.normal(scale=0.02), 0.25, 1.3)
            navigator.row_norms = counting
            try:
                act = ep.active_set(q)
            finally:
                navigator.row_norms = full
            counts["calls"] += 1
            mem, _, mask = self.full_test(ep, q)
            assert act.ids.tolist() == mem.ids[mask].tolist()
            assert act.centers.tobytes() == mem.centers[mask].tobytes()
            unchanged = held_mem is mem and held.ids.tolist() == act.ids.tolist()
            assert (act is held) == unchanged
            held, held_mem = act, mem
        assert counts["full"] < counts["calls"]  # the small steps reuse the set

    def test_nan_and_empty_memory_retest(self):
        ws = Workspace(10.0, [], (1.0, 1.0), (9.0, 9.0))
        ep = _Episode(ws, EpisodeConfig(ring=None, d_hat=0.8), DefaultMetaPolicy())
        q = np.array(ep.z.q)
        empty = ep.active_set(q)
        assert len(empty) == 0 and ep.active_set(q) is empty and ep.active[4] == -math.inf
        ep.sensing.memory = ObstacleMemory([(0, Obstacle(np.array([1.5, 1.0]), 0.2))])
        assert ep.active_set(q).ids.tolist() == [0]
        q[2] = np.nan
        assert len(ep.active_set(q)) == 0 and math.isnan(ep.active[4])
        q[2] = 1.0
        assert ep.active_set(q).ids.tolist() == [0]


def logged_episode(mp, ws, cfg, meta=None):
    """Run an episode under ``mp`` (a MonkeyPatch) and keep the (q, active
    pairs) of each active set the loop used, in order: one per logged row
    (the last for the final state).

    Each active set is checked against the dict loop over the memory as it
    is then, and each contact pass against one made afresh at its state.
    ``reuse`` counts the sets and passes handed back again and those formed;
    it is asserted that a set comes back (the same object) exactly while the
    memory's DiscSet and the selected discs are unchanged, and that a pass
    comes back exactly when it was made against the same DiscSet object.
    It also counts the ring's ground-truth clearances taken from the held
    candidate set (``world_held``) and those that formed it afresh
    (``world_formed``), each asserted to be ``min_clearance``'s float over
    every world disc, and the discs whose row minimum fell back from the
    window of samples to the numpy row (``window_fallbacks``).
    """
    calls, ref, last = [], {}, {}
    reuse = dict.fromkeys(("active_reused", "active_formed", "contact_reused", "contact_made",
                           "world_held", "world_formed", "window_fallbacks"), 0)
    add, active_set, contact_at = ObstacleMemory.add, _Episode.active_set, _Episode.contact_at
    world_clearance = navigator.EpisodeRecorder.world_clearance
    disc_clearance = RingShapeModel.disc_clearance
    gaps, in_disc = RingShapeModel._gaps, [False]

    def recording_add(self, pairs):
        pairs = list(pairs)
        add(self, pairs)
        ref.update(pairs)

    def recording_active_set(self, q):
        act, mem = active_set(self, q), self.sensing.memory.discs
        want = reference_active_pairs(self, ref, q)
        assert_discs_hold(act, want)
        held = last.get("act")
        reused = (last.get("mem") is mem and held.ids.tolist() == act.ids.tolist())
        assert (act is held) == reused
        reuse["active_reused" if reused else "active_formed"] += 1
        last.update(mem=mem, act=act)
        calls.append((q.copy(), want))
        return act

    def recording_contact_at(self, q, discs, held=None):
        got = contact_at(self, q, discs, held)
        if self.shape is None:
            assert got is None
            return got
        reused = held is not None and held.discs is discs
        assert (got is held) == reused and got.discs is discs
        fresh = self.shape.contact(q, discs)
        assert got.d.tobytes() == fresh.d.tobytes() and got.clearance == fresh.clearance
        reuse["contact_reused" if reused else "contact_made"] += 1
        return got

    def recording_world_clearance(self, c, s=0.0):
        held = self.held
        got = world_clearance(self, c, s)
        if self.shape is not None:
            q = [0.0, 0.0, *c, 0.0, s]
            want = self.shape.min_clearance(q, self.world)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            reuse["world_held" if self.held is held else "world_formed"] += 1
        return got

    def recording_disc_clearance(self, *args):
        in_disc[0] = True
        try:
            return disc_clearance(self, *args)
        finally:
            in_disc[0] = False

    def recording_gaps(self, *args):
        reuse["window_fallbacks"] += in_disc[0]
        return gaps(self, *args)

    mp.setattr(ObstacleMemory, "add", recording_add)
    mp.setattr(navigator.EpisodeRecorder, "world_clearance", recording_world_clearance)
    mp.setattr(RingShapeModel, "disc_clearance", recording_disc_clearance)
    mp.setattr(RingShapeModel, "_gaps", recording_gaps)
    mp.setattr(_Episode, "active_set", recording_active_set)
    mp.setattr(_Episode, "contact_at", recording_contact_at)
    ep = _Episode(ws, cfg, meta or DefaultMetaPolicy())
    return ep, ep.run(), calls, reuse


class TestHeldWorldClearance:
    """``EpisodeRecorder.world_clearance`` is ``DiscSet.clearance`` over every
    world disc, byte for byte, though it re-measures every disc only when the
    centre has moved HELD_REACH from where it last did."""

    @staticmethod
    def recorder(obstacles):
        ws = Workspace(10.0, [], (1.0, 1.0), (9.0, 9.0))
        ws.obstacles = obstacles  # bypass validation: a disc may cover the start
        tracker = workspace.CoverageTracker(10.0, 0.5)
        return navigator.EpisodeRecorder(ws, EpisodeConfig(ring=None), tracker, POINT_LAYOUT)

    @given(st.integers(0, 10_000), st.integers(0, 12), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random_walk_matches_every_disc(self, seed, m, equal_gaps):
        r = np.random.default_rng(seed)
        hub = r.uniform(2, 8, 2)
        if equal_gaps:  # m discs of one radius at one distance from hub
            ang = 2 * np.pi * np.arange(m) / max(m, 1) + r.uniform(0, 2 * np.pi)
            dist, radius = r.uniform(0.5, 2.0), r.uniform(0.1, 0.4)
            obstacles = [Obstacle(hub + dist * np.array([np.cos(a), np.sin(a)]), radius)
                         for a in ang]
        else:
            obstacles = [Obstacle(r.uniform(0, 10, 2), r.uniform(0.1, 0.8)) for _ in range(m)]
        rec, world = self.recorder(obstacles), DiscSet.of(enumerate(obstacles))
        reach = navigator.HELD_REACH
        c = r.uniform(0, 10, 2)
        for _ in range(200):
            kind = int(r.integers(0, 6))
            if kind == 0:  # well inside the held reach
                c = c + r.normal(scale=0.02, size=2)
            elif kind == 1:  # about the reach
                c = c + r.normal(scale=reach, size=2)
            elif kind == 2:  # a jump
                c = r.uniform(-2, 12, 2)
            elif kind == 3:  # a few ulps either side of the reach
                x0, y0, _, _ = rec.held
                a = r.uniform(0, 2 * np.pi)
                step = reach * (1.0 + r.choice([-1e-15, 0.0, 1e-15]))
                c = np.array([x0, y0]) + step * np.array([np.cos(a), np.sin(a)])
            elif kind == 4:  # at or near the point of equal gaps
                c = hub + r.choice([0.0, 1e-12]) * r.normal(size=2)
            else:
                c = np.array(r.choice([math.nan, math.inf, -math.inf, 5.0], 2))
            want = world.clearance(c)
            assert np.float64(rec.world_clearance(c)).tobytes() == np.float64(want).tobytes()

    def test_disc_an_ulp_past_the_threshold_is_held(self):
        """Far disc B's gap at c0 is min g + 2 HELD_REACH and a few ulps, so
        only the held threshold's 1e-9 pad keeps it; after a move toward it
        just under HELD_REACH, rounding makes it the nearer disc by an ulp."""
        c0 = (1.6568588316971122, 3.601044791027289)
        near = Obstacle(np.array([3.0575634313756983, 2.9371852836721835]), 0.7263755280912464)
        far = Obstacle(np.array([-0.141278300063576, 4.453266187831075]), 0.1661855085985881)
        c = (1.2050358289270924, 3.815184871740551)
        rec, world = self.recorder([near, far]), DiscSet.of(enumerate([near, far]))
        gaps = world.clearance(c0), DiscSet.of([(1, far)]).clearance(c0)
        assert 0 < gaps[1] - (gaps[0] + 2 * navigator.HELD_REACH) < 1e-12
        assert rec.world_clearance(c0) == gaps[0]
        held = rec.held
        got = rec.world_clearance(c)
        assert rec.held is held
        assert got == world.clearance(c) == DiscSet.of([(1, far)]).clearance(c) \
            < DiscSet.of([(0, near)]).clearance(c)

    def test_small_steps_measure_the_world_once(self, monkeypatch):
        calls = []
        full = navigator.disc_distances
        monkeypatch.setattr(navigator, "disc_distances", lambda *a: calls.append(1) or full(*a))
        rec = self.recorder([Obstacle(np.array([x, y]), 0.3)
                             for x in (2.0, 5.0, 8.0) for y in (2.0, 5.0, 8.0)])
        for k in range(40):  # 0.39 m in all
            rec.world_clearance(np.array([3.5 + 0.01 * k, 3.4]))
        assert len(calls) == 1 and len(rec.held[3]) < 9


class TestLoggedObservables:
    """Each logged (clearance, goal distance, speed) row is compute_observables
    at that state, with the clearance measured from scratch against that
    step's active set."""

    CASES = {
        "ring": lambda: (generate_workspace("test_id", 0),
                         EpisodeConfig(ring=RingParams(), n_max=200), None),
        "bottleneck": lambda: (generate_bottleneck(0),
                               EpisodeConfig(ring=RingParams(), n_max=250), None),
        "dungeon": lambda: (generate_dungeon(0, cells=3), *dungeon_setup(n_max=200)),
        "perturbed": lambda: (PerturbedWorkspace(generate_workspace("test_id", 0),
                                                 ROBUSTNESS_LEVELS["mild"], seed=0),
                              EpisodeConfig(ring=RingParams(), n_max=200), None),
    }

    @pytest.fixture(scope="class")
    def runs(self):
        """Each case's logged_episode, run once for the class."""
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            for case, make in self.CASES.items():
                ws, cfg, meta = make()
                out[case] = (ws, cfg, *logged_episode(mp, ws, cfg, meta))
                mp.undo()
        return out

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_match_recomputed(self, runs, case):
        ws, cfg, ep, res, calls, _ = runs[case]
        assert len(calls) == len(res.qs) > 100
        assert any(len(pairs) for _, pairs in calls)
        got = np.column_stack([res.clearances, res.goal_dists, res.speeds])
        for i, (q, pairs) in enumerate(calls):
            assert np.array(q).tobytes() == res.qs[i].tobytes()
            z = PhaseState(res.qs[i], res.ps[i])
            if ep.shape is not None:
                clr = ep.shape.min_clearance(q, DiscSet.of(pairs))
            elif pairs:
                clr = float(signed_distances([ob for _, ob in pairs], q[2:4]).min())
            else:
                clr = np.inf
            y = compute_observables(z, clr, ws.goal, (), ep.mass, ep.layout, cfg.d_hat)
            want = np.array([y.clearance, y.goal_dist, y.speed])
            assert got[i].tobytes() == want.tobytes(), i

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outlines_are_boundaries_of_logged_states(self, runs, case):
        """EpisodeResult.outlines is RingShapeModel.boundary at every
        max(1, len(qs) // 12)-th logged state, bit for bit; a point robot has
        none."""
        ws, cfg, ep, res, calls, _ = runs[case]
        if cfg.ring is None:
            assert res.outlines() == []
            return
        at = range(0, len(res.qs), max(1, len(res.qs) // 12))
        assert len(res.outlines()) == len(at) >= 12
        shape = RingShapeModel(cfg.ring)
        for k, outline in zip(at, res.outlines()):
            assert outline.tobytes() == shape.boundary(res.qs[k]).tobytes(), k

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reuse_rules_fire(self, runs, case):
        """Both reuse rules (asserted on every call by logged_episode) are
        taken, and so is forming afresh.  In the ring cases the ground-truth
        clearance mostly comes from the held candidate set and sometimes
        forms it afresh, and every row minimum comes from its window of
        samples; a point in a grid world takes none of it."""
        reuse = runs[case][-1]
        assert reuse["active_reused"] > 0 and reuse["active_formed"] > 1
        if case == "dungeon":
            assert reuse["world_held"] == reuse["world_formed"] == 0
        else:
            assert reuse["contact_reused"] > 0 and reuse["contact_made"] > 0
            assert reuse["world_held"] > 10 * reuse["world_formed"] > 0
        assert reuse["window_fallbacks"] == 0


def test_point_clearance_is_measured_once_per_state(monkeypatch):
    """A point robot's log row reuses the clearance that the step's
    observables measured at the same state bytes against the same DiscSet
    object: such a row makes no ``disc_distances`` call, any other one call
    against a non-empty active set and none against an empty one.
    (``TestLoggedObservables`` checks each logged clearance against one
    measured from scratch.)"""
    calls, observed, rows = [], {}, []
    distances, observe, logged = workspace.disc_distances, _Episode.observe, _Episode.logged

    def recording_observe(self, z, act, shape_clearances=(), contact=None):
        observed[np.array(z.q).tobytes()] = act
        return observe(self, z, act, shape_clearances, contact)

    def counting_logged(self, y, act, contact):
        same, before = observed.get(np.array(self.z.q).tobytes()) is act, len(calls)
        out = logged(self, y, act, contact)
        rows.append((same, len(act), len(calls) - before))
        return out

    monkeypatch.setattr(workspace, "disc_distances", lambda *a: calls.append(1) or distances(*a))
    monkeypatch.setattr(_Episode, "observe", recording_observe)
    monkeypatch.setattr(_Episode, "logged", counting_logged)
    cfg, meta = dungeon_setup()
    res = _Episode(generate_dungeon(0, cells=3), cfg, meta).run()
    assert len(rows) == len(res.qs)
    repeated = [n for same, m, n in rows if same and m]
    assert len(repeated) > 50 and not any(repeated)
    assert all(n == (m > 0) for same, m, n in rows if not same)


def ranked_by_sort(pairs, c):
    """The k_alpha slot order as the sorted() over id-ordered pairs it replaced."""
    return [i for i, _ in sorted(pairs, key=lambda kv: float(
        np.linalg.norm(c - kv[1].center)) - kv[1].radius)]


class TestSlotRanking:
    """DiscSet.nearest ranks the discs as a stable sort by surface distance."""

    def test_mirror_image_fence_discs_tie_in_id_order(self):
        # two fence discs mirrored about the robot tie exactly; the lower id
        # comes first, as in a stable sort over the id-ordered pairs
        c = np.array([5.0, 5.0])
        pairs = [(7, Obstacle(np.array([5.0, 5.5]), 0.25)),
                 (3, Obstacle(np.array([5.0, 4.5]), 0.25)),
                 (5, Obstacle(np.array([6.0, 5.0]), 0.75)),
                 (9, Obstacle(np.array([8.0, 8.0]), 0.5))]
        discs = DiscSet.of(pairs)
        want = ranked_by_sort(sorted(pairs, key=lambda kv: kv[0]), c)
        assert want[:3] == [3, 5, 7]  # a three-way tie: 0.5 - 0.25 == 1.0 - 0.75
        for k in range(len(pairs) + 2):
            assert discs.nearest(c, k) == want[:k]

    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_random_mirror_pairs(self, seed, n_pairs, n_single):
        # dyadic coordinates keep every difference exact, so mirrored discs
        # tie bit for bit
        r = np.random.default_rng(seed)
        c = r.integers(128, 512, 2) / 64.0
        ids = r.permutation(200)[: 2 * n_pairs + n_single].tolist()
        pairs = []
        for k in range(n_pairs):
            off, rad = r.integers(-128, 128, 2) / 64.0, r.integers(4, 32) / 64.0
            pairs += [(ids[2 * k], Obstacle(c + off, rad)),
                      (ids[2 * k + 1], Obstacle(c - off, rad))]
        for idx in ids[2 * n_pairs:]:
            pairs.append((idx, Obstacle(c + r.integers(-128, 128, 2) / 64.0,
                                        r.integers(4, 32) / 64.0)))
        pairs.sort(key=lambda kv: kv[0])
        mask = r.random(len(pairs)) < 0.8
        act = DiscSet.of(pairs)[mask]
        want = ranked_by_sort([p for p, keep in zip(pairs, mask) if keep], c)
        for k in range(len(act) + 1):
            assert act.nearest(c, k) == want[:k]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_ranking_is_the_numpy_form(self, data):
        """``nearest`` in Python floats ranks as the numpy form it replaced, a
        stable argsort of row_norms(centers - point) - radii: over discs at
        equal gaps (one radius on a circle of dyadic points), repeated discs
        under other ids, and NaN or infinite points."""
        c = np.array([data.draw(st.integers(128, 512)) / 64.0 for _ in range(2)])
        pairs, ids = [], iter(data.draw(st.permutations(range(40))))
        for _ in range(data.draw(st.integers(0, 6))):
            kind = data.draw(st.sampled_from(["any", "equal_gaps", "repeat"]))
            if kind == "repeat" and pairs:
                pairs.append((next(ids), data.draw(st.sampled_from(pairs))[1]))
                continue
            off = np.array([data.draw(st.integers(-128, 128)) / 64.0 for _ in range(2)])
            rad = data.draw(st.integers(4, 32)) / 64.0
            pairs.append((next(ids), Obstacle(c + off, rad)))
            if kind == "equal_gaps":  # the mirror images about c, same gap
                for mirror in ([-1, 1], [1, -1], [-1, -1]):
                    pairs.append((next(ids), Obstacle(c + off * np.array(mirror), rad)))
        discs = DiscSet.of(pairs)
        point = data.draw(st.sampled_from(["c", "nan", "inf"]))
        if point != "c":
            c[data.draw(st.integers(0, 1))] = np.nan if point == "nan" else np.inf
        gaps = row_norms(discs.centers - c) - discs.radii
        want = discs.ids[np.argsort(gaps, kind="stable")].tolist()
        for k in range(len(discs) + 2):
            assert discs.nearest(c, k) == want[:k]
            assert discs.nearest(c.tolist(), k) == want[:k]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_clearance_is_signed_distances(self, seed):
        r = np.random.default_rng(seed)
        ref, memory = sensed_memory(r, 3)
        mask = r.random(len(ref)) < 0.7
        act = memory.discs[mask]
        obstacles = [ob for (_, ob), keep in zip(sorted(ref.items()), mask) if keep]
        c = r.uniform(0, 10, 2)
        want = float(signed_distances(obstacles, c).min()) if obstacles else np.inf
        assert np.float64(act.clearance(c)).tobytes() == np.float64(want).tobytes()
