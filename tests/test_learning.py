import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamnav import learning
from hamnav.dynamics import IntegratorConfig, rollout, step_leapfrog
from hamnav.energy import (
    POINT_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
    barrier_knots,
    log_barrier,
    potential_grad,
)
from hamnav.learning import (
    EPS_FLOOR,
    MetaRegressor,
    PersistentExcitationError,
    RegressionProblem,
    SceneDatum,
    TrainConfig,
    _scene_losses,
    _scene_spec,
    _trial_starts,
    gram_matrix,
    identification_loss_grad,
    identify_weights,
    make_reference_dataset,
    meta_loss,
    multi_start_penalties,
    multi_start_penalty,
    penalty_from_clearances,
    regression_from_rollout,
    scene_rollout,
    scene_rollouts,
    train_offline,
)
from hamnav.navigator import MetaTokens, build_tokens
from hamnav.workspace import DiscSet, Obstacle, signed_distances

# frozen with mpmath from -(d - dhat)^2 log(d / dhat)
B_07 = 0.032100744954485914
B_01 = 1.865093925325177


def demo_problem(rng, n_steps=30, m=4, dq=4):
    grads = rng.normal(size=(n_steps, m, dq))
    eta = rng.uniform(0.5, 2.0, m)
    targets = np.einsum("j,tjd->td", eta, grads)
    return RegressionProblem(targets, grads), eta


class TestGram:
    def test_orthonormal_features(self):
        T, dq = 7, 2
        grads = np.zeros((T, 2, dq))
        grads[:, 0, 0] = 1.0
        grads[:, 1, 1] = 1.0
        problem = RegressionProblem(np.zeros((T, dq)), grads)
        G, mineig = gram_matrix(problem)
        np.testing.assert_allclose(G, T * np.eye(2))
        assert mineig == pytest.approx(T)

    def test_single_step_single_feature(self):
        g = np.array([[[3.0, 4.0]]])
        problem = RegressionProblem(np.zeros((1, 2)), g)
        G, mineig = gram_matrix(problem)
        assert G[0, 0] == pytest.approx(25.0)
        assert mineig == pytest.approx(25.0)

    def test_matches_naive_accumulation(self, rng):
        problem, _ = demo_problem(rng)
        G, _ = gram_matrix(problem)
        T, m, dq = problem.feature_grads.shape
        naive = np.zeros((m, m))
        for t in range(T):
            for i in range(m):
                for j in range(m):
                    naive[i, j] += problem.feature_grads[t, i] @ problem.feature_grads[t, j]
        np.testing.assert_allclose(G, naive, rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(G) >= -1e-9)


class TestIdentify:
    def test_exact_recovery_synthetic(self, rng):
        problem, eta = demo_problem(rng)
        eta_hat = identify_weights(problem)
        np.testing.assert_allclose(eta_hat, eta, atol=1e-10)

    def test_exact_recovery_from_rollout(self, rng):
        # ring robot so every feature (goal, object, barriers) is alive
        from hamnav.energy import RING_LAYOUT
        from hamnav.ring import RingParams, RingShapeModel

        shape = RingShapeModel(RingParams())
        shape.s_target = 0.7  # frozen within the identification window
        obstacles = [Obstacle(np.array([2.0, 0.4]), 0.5), Obstacle(np.array([1.2, -1.0]), 0.4)]
        goal = np.array([4.0, 0.0])
        w = EnergyWeights(beta=1.3, lam=0.9, alpha={0: 0.8, 1: 1.7})
        discs = DiscSet.of(enumerate(obstacles))
        fixed = FixedTerms(layout=RING_LAYOUT, goal=goal, d_hat=1.5, sensor_gain=0.7,
                           shape=shape)
        mass = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 4.0])  # heavy scale: no collapse
        spec = HamiltonianSpec(mass, w, discs, fixed)
        q0 = np.array([0.1, -0.2, 0.0, 0.0, 0.0, 1.0])
        p0 = np.array([0.0, 0.0, 0.3, 0.1, 0.0, -0.05])  # excite frame and scale
        traj = rollout(PhaseState(q0, p0), spec, IntegratorConfig(tau=0.02, horizon=40))
        problem = regression_from_rollout(traj, discs, fixed, tau=0.02)
        G, mineig = gram_matrix(problem)
        assert mineig > 1e-6
        eta_hat = identify_weights(problem)
        expected = np.array([1.3, 0.9, 0.8, 1.7])
        assert np.max(np.abs(eta_hat - expected)) < 1e-8

    def test_degenerate_features_raise(self):
        grads = np.zeros((5, 2, 3))
        problem = RegressionProblem(np.zeros((5, 3)), grads)
        with pytest.raises(PersistentExcitationError):
            identify_weights(problem)

    def test_large_ridge_shrinks_to_zero(self, rng):
        problem, _ = demo_problem(rng)
        problem.ridge = 1e12
        eta_hat = identify_weights(problem)
        assert np.max(np.abs(eta_hat)) < 1e-6

    def test_noise_scales_linearly(self, rng):
        problem, eta = demo_problem(rng, n_steps=40)
        noise = rng.normal(size=problem.targets.shape)
        errs = []
        for amp in (1e-4, 2e-4, 4e-4):
            noisy = RegressionProblem(problem.targets + amp * noise,
                                      problem.feature_grads)
            errs.append(np.linalg.norm(identify_weights(noisy) - eta))
        assert errs[1] == pytest.approx(2 * errs[0], rel=1e-9)
        assert errs[2] == pytest.approx(4 * errs[0], rel=1e-9)


class TestVanishingUpdates:
    def test_gradient_descent_update_magnitude(self, rng):
        problem, eta_true = demo_problem(rng, n_steps=25, m=5)
        problem.ridge = 1e-3
        G, _ = gram_matrix(problem)
        L = float(np.linalg.eigvalsh(G + problem.ridge * np.eye(5))[-1])
        alpha = 1.0 / L  # < 2/L
        phi_scale = np.sqrt(np.max(np.sum(problem.feature_grads ** 2, axis=(1, 2))))
        eta = np.zeros(5)
        errs = []
        hit = None
        for k in range(10_000):
            eta_next = eta - alpha * identification_loss_grad(problem, eta)
            if np.linalg.norm(eta_next - eta) * phi_scale < 1e-8 and hit is None:
                hit = k
            errs.append(np.linalg.norm(eta - eta_true))
            eta = eta_next
            if hit is not None and k > hit + 2:
                break
        assert hit is not None and hit < 10_000

    def test_linear_convergence_rate(self, rng):
        problem, eta_true = demo_problem(rng, n_steps=25, m=5)
        problem.ridge = 1e-3
        G, _ = gram_matrix(problem)
        L = float(np.linalg.eigvalsh(G + problem.ridge * np.eye(5))[-1])
        eta_star = identify_weights(problem)
        eta = np.zeros(5)
        errs = []
        for _ in range(200):
            errs.append(np.linalg.norm(eta - eta_star))
            eta = eta - (1.0 / L) * identification_loss_grad(problem, eta)
        errs = np.array([e for e in errs if e > 1e-13])
        rhos = errs[1:] / errs[:-1]
        assert np.all(rhos < 1.0)
        # fitted geometric rate from the log-error slope
        slope = np.polyfit(np.arange(len(errs)), np.log(errs), 1)[0]
        assert np.exp(slope) < 1.0


class TestMetaLoss:
    def test_perfect_match(self):
        q = np.zeros((5, 4))
        v = np.zeros((5, 4))
        assert meta_loss(q, q, v, v, 1.0, 1.0, (1, 1, 1, 1), 0.0) == 0.0

    def test_single_mu_term(self):
        q = np.zeros((3, 4))
        assert meta_loss(q, q, q, q, 3.0, 2.0, (1.0, 1.0, 0.1, 0.5), 0.0) == pytest.approx(0.1)

    def test_term_sum_oracle(self, rng):
        qs, qr = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        vs, vr = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        w = (0.7, 1.3, 0.2, 0.4)
        expected = (w[0] * np.mean(np.sum((qs - qr) ** 2, axis=1))
                    + w[1] * np.mean(np.sum((vs - vr) ** 2, axis=1))
                    + w[2] * (1.1 - 0.4) ** 2 + w[3] * 2.5)
        assert meta_loss(qs, qr, vs, vr, 1.1, 0.4, w, 2.5) == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            meta_loss(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((3, 2)),
                      np.zeros((3, 2)), 0, 0, (1, 1, 1, 1), 0)


class TestMultiStart:
    def test_all_safe_is_zero(self):
        assert penalty_from_clearances([2.0, 3.0], r_min=0.5, d_hat=1.0) == 0.0

    def test_activation_boundary(self):
        assert penalty_from_clearances([1.5], r_min=0.5, d_hat=1.0) == 0.0

    def test_frozen_values(self):
        # clr (1.2, 0.6), r_min 0.5, d_hat 1 -> mean of b(0.7), b(0.1)
        val = penalty_from_clearances([1.2, 0.6], r_min=0.5, d_hat=1.0)
        assert val == pytest.approx((B_07 + B_01) / 2, abs=1e-12)

    def test_obstacle_free_scene(self, rng):
        scene = SceneDatum([], np.array([1.0, 1.0]), np.zeros(4), 1.0, 1.0, 0.0, 4.0)
        w = scene.ref_weights()
        assert multi_start_penalty(scene, w, 4, 5, 0.2, 1.0, rng) == 0.0

    def test_rollout_penalty_deterministic(self):
        scene = SceneDatum([Obstacle(np.array([2.0, 2.0]), 0.5)], np.array([4.0, 4.0]),
                           np.zeros(4), 2.0, 1.5, 0.0, 4.0)
        w = scene.ref_weights()
        a = multi_start_penalty(scene, w, 6, 6, 0.2, 1.0, np.random.default_rng(5))
        b = multi_start_penalty(scene, w, 6, 6, 0.2, 1.0, np.random.default_rng(5))
        assert a == b and a >= 0.0

    def test_penalty_follows_tau(self):
        scene = make_reference_dataset(1, seed=0)[0]
        w = scene.ref_weights()

        def penalty(**kw):
            return multi_start_penalty(scene, w, 4, 6, 0.2, 1.0, np.random.default_rng(0), **kw)

        assert penalty(tau=0.01) != penalty(tau=0.03) == penalty()
        # _scene_losses integrates the trials at TrainConfig.tau: with only the
        # multi-start term weighted, the loss is that penalty
        for tau in (0.01, 0.03):
            cfg = TrainConfig(tau=tau, weights=(0.0, 0.0, 0.0, 1.0))
            rng = np.random.default_rng(np.random.SeedSequence([7, 0x3A]))
            want = multi_start_penalty(scene, w, cfg.m_trials, cfg.multi_steps, cfg.r_min,
                                       cfg.d_hat, rng, tau=tau)
            assert _scene_losses(scene, [w], cfg, 4, scene_starts(scene, cfg, 7)) == [want]

    def test_eps_floor_and_ordering(self):
        # an unsafe trial (clearance under r_min) hits the eps floor,
        # b(1e-6, 1) frozen with mpmath
        unsafe = penalty_from_clearances([0.4], 0.5, 1.0)
        assert unsafe == pytest.approx(13.815482926956974, abs=1e-10)
        # deep violations penalize harder than near misses
        assert unsafe > penalty_from_clearances([0.55], 0.5, 1.0) > 0.0


def random_tokens(rng, m=4):
    ids = list(range(m))
    toks = np.column_stack([rng.normal(0, 2, m), rng.normal(0, 2, m),
                            rng.uniform(0.2, 1.0, m), rng.uniform(0.1, 3.0, m)])
    return MetaTokens(ids, toks, rng.normal(0, 2, 2), float(rng.uniform(0, 2)))


class TestMetaRegressor:
    def test_nonnegative_outputs(self, rng):
        model = MetaRegressor(seed=3)
        for _ in range(1000):
            prop = model.propose(random_tokens(rng, m=int(rng.integers(0, 6))))
            assert prop.beta >= 0 and prop.lam >= 0 and prop.mu >= 0
            assert all(a >= 0 for a in prop.alpha.values())

    def test_permutation_invariance(self, rng):
        model = MetaRegressor(seed=3)
        for _ in range(50):
            tokens = random_tokens(rng, m=5)
            base = model.propose(tokens)
            perm = rng.permutation(5)
            shuffled = MetaTokens([tokens.obstacle_ids[i] for i in perm],
                                  tokens.tokens[perm], tokens.rel_stage_goal,
                                  tokens.speed)
            out = model.propose(shuffled)
            assert out.beta == pytest.approx(base.beta, abs=1e-12)
            assert out.lam == pytest.approx(base.lam, abs=1e-12)
            assert out.mu == pytest.approx(base.mu, abs=1e-12)
            for i in tokens.obstacle_ids:
                assert out.alpha[i] == pytest.approx(base.alpha[i], abs=1e-12)

    def test_backward_matches_fd(self, rng):
        model = MetaRegressor(seed=7)
        tokens = random_tokens(rng, m=3)
        d_beta, d_lam, d_mu = 0.7, -0.3, 1.1
        d_alpha = {0: 0.5, 1: -0.8, 2: 0.2}

        def scalar(flat):
            m2 = MetaRegressor(seed=7)
            m2.set_flat(flat)
            prop = m2.propose(tokens)
            return (d_beta * prop.beta + d_lam * prop.lam + d_mu * prop.mu
                    + sum(d_alpha[i] * prop.alpha[i] for i in d_alpha))

        _, cache = model.forward(tokens)
        grads = model.backward(cache, d_beta, d_lam, d_mu, d_alpha)
        flat = model.get_flat()
        g_flat = np.concatenate([grads[k].ravel() for k in sorted(grads)])
        idx = rng.choice(flat.size, size=60, replace=False)
        for i in idx:
            e = np.zeros_like(flat)
            e[i] = 1e-6
            fd = (scalar(flat + e) - scalar(flat - e)) / 2e-6
            assert g_flat[i] == pytest.approx(fd, rel=2e-4, abs=1e-8)

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        model = MetaRegressor(seed=11)
        path = tmp_path / "model.ckpt"
        model.save(path)
        clone = MetaRegressor.load(path)
        tokens = random_tokens(rng, m=2)
        a, b = model.propose(tokens), clone.propose(tokens)
        assert a.beta == b.beta and a.mu == b.mu and a.alpha == b.alpha


class TestTraining:
    def test_loss_nonincreasing_near_optimum(self):
        dataset = make_reference_dataset(3, seed=42, mu_ref=0.8)
        cfg = TrainConfig(epochs=10, lr=1e-4, weights=(1.0, 1.0, 0.1, 0.0), seed=1)
        _, curve = train_offline(dataset, cfg)
        assert curve[-1] <= curve[0] + 1e-9

    def test_constant_target_fits_fast(self):
        # mu-only objective with a constant reference: exact fit exists
        dataset = make_reference_dataset(2, seed=9, mu_ref=2.5)
        cfg = TrainConfig(epochs=250, lr=0.05, weights=(0.0, 0.0, 1.0, 0.0), seed=2)
        model, curve = train_offline(dataset, cfg)
        assert curve[-1] < 1e-4
        assert len(curve) <= 500

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            train_offline([], TrainConfig())

    def test_scene_json_roundtrip(self):
        scene = make_reference_dataset(1, seed=4)[0]
        clone = SceneDatum.from_json(scene.to_json())
        np.testing.assert_allclose(clone.q_ref, scene.q_ref)
        assert clone.mu_ref == scene.mu_ref
        np.testing.assert_allclose(clone.obstacles[0].center, scene.obstacles[0].center)


# ---------------------------------------------------------------------------
# The per-member loop that train_offline ran before a stencil was scored as
# one batch: the oracle for scene_rollouts, multi_start_penalties and
# _scene_losses.

def reference_rollout(scene, w, horizon, tau, d_hat):
    spec = _scene_spec(scene.discs, scene.goal, w, d_hat)
    traj = rollout(PhaseState(scene.q0.copy(), np.zeros(4)), spec,
                   IntegratorConfig(tau=tau, horizon=horizon), mu=w.mu)
    qs = np.stack([s.q for s in traj.states])
    vs = np.stack([s.p / spec.mass for s in traj.states])
    if len(traj) < horizon + 1:
        pad = horizon + 1 - len(traj)
        qs = np.vstack([qs, np.repeat(qs[-1:], pad, axis=0)])
        vs = np.vstack([vs, np.repeat(vs[-1:], pad, axis=0)])
    return qs, vs, traj.diverged


def reference_penalty(clearances, r_min, d_hat):
    vals = []
    for clr in clearances:
        vals.append(log_barrier(max(clr - r_min, EPS_FLOOR), d_hat))
    return float(np.mean(vals)) if vals else 0.0


def reference_multi_start(scene, w, m_trials, t_steps, r_min, d_hat, rng, tau=0.03):
    obstacles = scene.obstacles
    if not obstacles or m_trials < 1:
        return 0.0
    spec = _scene_spec(scene.discs, scene.goal, w, d_hat)
    clearances = []
    for _ in range(m_trials):
        ob = obstacles[int(rng.integers(len(obstacles)))]
        ang = float(rng.uniform(0, 2 * np.pi))
        offset = ob.radius + float(rng.uniform(0.3, 0.9)) * d_hat
        pos = ob.center + offset * np.array([np.cos(ang), np.sin(ang)])
        q0 = np.array([0.0, 0.0, pos[0], pos[1]])
        toward = (ob.center - pos) / max(float(np.linalg.norm(ob.center - pos)), 1e-9)
        speed = float(rng.uniform(0.5, 1.0))
        p0 = np.zeros(4)
        p0[2:4] = speed * toward
        z = PhaseState(q0, p0)
        clr = float(signed_distances(obstacles, z.q[2:4]).min())
        for _ in range(t_steps):
            z = step_leapfrog(z, lambda q: potential_grad(q, spec), spec.mass, tau)
            clr = min(clr, float(signed_distances(obstacles, z.q[2:4]).min()))
        clearances.append(clr)
    return reference_penalty(clearances, r_min, d_hat)


def reference_scene_loss(scene, prop, cfg, horizon, rng_seed):
    ids = list(range(len(scene.obstacles)))
    w = EnergyWeights(beta=prop.beta, lam=prop.lam,
                      alpha={i: prop.alpha.get(i, 0.0) for i in ids}, mu=prop.mu)
    qs, vs, _ = reference_rollout(scene, w, horizon, cfg.tau, cfg.d_hat)
    l_multi = 0.0
    if cfg.weights[3] > 0:
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0x3A]))
        l_multi = reference_multi_start(scene, w, cfg.m_trials, cfg.multi_steps,
                                        cfg.r_min, cfg.d_hat, rng, cfg.tau)
    n = min(len(qs), len(scene.q_ref))
    return meta_loss(qs[:n], scene.q_ref[:n], vs[:n], scene.v_ref[:n],
                     prop.mu, scene.mu_ref, cfg.weights, l_multi)


def scene_starts(scene, cfg, seed):
    """The trial starts ``train_offline`` draws for a scene of trial seed ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A]))
    return _trial_starts(scene, cfg.m_trials if cfg.weights[3] > 0 else 0, cfg.d_hat, rng)


def same_bits(a, b):
    return np.asarray(a, np.float64).tobytes() == np.asarray(b, np.float64).tobytes()


START_KINDS = ("free", "barrier_linear", "inside_disc", "on_center")


def random_scene(r, n_obstacles, start_kind="free", d_hat=1.0):
    """Obstacles between a start and a goal; the start is free, within the
    barrier's linear branch 0 < d < d_c of obstacle 0, inside it, or on its
    centre."""
    start, goal = r.uniform(0.0, 1.5, 2), r.uniform(3.0, 6.0, 2)
    obstacles = [Obstacle(start + r.uniform(0.2, 0.8) * (goal - start) + r.uniform(-0.8, 0.8, 2),
                          r.uniform(0.3, 0.6)) for _ in range(n_obstacles)]
    if obstacles and start_kind != "free":
        ob, ang = obstacles[0], r.uniform(0, 2 * np.pi)
        d_c = barrier_knots(d_hat)[0]
        dist = {"barrier_linear": ob.radius + r.uniform(0.05, 0.95) * d_c,
                "inside_disc": r.uniform(0.05, 0.95) * ob.radius, "on_center": 0.0}[start_kind]
        start = ob.center + dist * np.array([np.cos(ang), np.sin(ang)])
    scene = SceneDatum(obstacles, goal, np.array([0.0, 0.0, *start]), 2.0, 1.5, 0.0, 4.0)
    scene.q_ref, scene.v_ref, _ = reference_rollout(scene, scene.ref_weights(), 6, 0.03, d_hat)
    return scene


def random_weight(r):
    """Zero, below the FD step (clamped at 0 in its stencil), moderate, or
    large enough to make a damped rollout diverge within a few steps."""
    kind = r.integers(4)
    return [0.0, r.uniform(0.0, 1e-4), r.uniform(0.0, 5.0), r.uniform(1e3, 1e5)][kind]


def random_stencil(r, n_obstacles, h=1e-4):
    """A proposal and its central-difference stencil, as train_offline builds it."""
    prop = EnergyWeights(beta=random_weight(r), lam=random_weight(r),
                         alpha={i: random_weight(r) for i in range(n_obstacles)},
                         mu=r.uniform(0.0, 8.0) if r.integers(3) else r.uniform(0.0, 1e-4))
    stencil = [prop]
    for name in ("beta", "lam", "mu"):
        x = getattr(prop, name)
        stencil += [replace(prop, **{name: x + h}), replace(prop, **{name: max(x - h, 0.0)})]
    for i, x in prop.alpha.items():
        stencil += [replace(prop, alpha={**prop.alpha, i: x + h}),
                    replace(prop, alpha={**prop.alpha, i: max(x - h, 0.0)})]
    return stencil


def center_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, any("obstacle center" in str(w.message) for w in caught)


class TestBatchedStencil:
    """A stencil scored as one batch against the per-member loop, bit for bit."""

    @given(st.integers(0, 3), st.integers(0, 10_000), st.sampled_from(START_KINDS),
           st.integers(0, 9), st.sampled_from([0.01, 0.03, 0.08]))
    @settings(max_examples=80, deadline=None)
    def test_rollouts_match_loop(self, n_obstacles, seed, start_kind, horizon, tau):
        r = np.random.default_rng(seed)
        scene = random_scene(r, n_obstacles, start_kind)
        weights = random_stencil(r, n_obstacles)
        (qs, vs), warned = center_warnings(
            lambda: scene_rollouts(scene, weights, horizon, tau, 1.0))
        assert qs.shape == vs.shape == (len(weights), horizon + 1, 4)
        ref_warned = False
        for s, w in enumerate(weights):
            (ref_q, ref_v, _), hit = center_warnings(
                lambda: reference_rollout(scene, w, horizon, tau, 1.0))
            ref_warned |= hit
            assert same_bits(qs[s], ref_q) and same_bits(vs[s], ref_v), s
        # a zero-step rollout takes no gradient, so only the loop warns there
        assert warned == (ref_warned and horizon > 0)
        one_q, one_v = scene_rollout(scene, weights[-1], horizon, tau, 1.0)
        assert same_bits(one_q, qs[-1]) and same_bits(one_v, vs[-1])

    @given(st.integers(0, 3), st.integers(0, 10_000), st.integers(0, 12),
           st.integers(0, 8), st.floats(0.0, 0.6))
    @settings(max_examples=80, deadline=None)
    def test_multi_start_matches_loop(self, n_obstacles, seed, m_trials, t_steps, r_min):
        r = np.random.default_rng(seed)
        scene = random_scene(r, n_obstacles)
        weights = random_stencil(r, n_obstacles)
        got = multi_start_penalties(scene, weights, m_trials, t_steps, r_min, 1.0,
                                    np.random.default_rng(seed))
        assert got.shape == (len(weights),)
        for s, w in enumerate(weights):
            ref = reference_multi_start(scene, w, m_trials, t_steps, r_min, 1.0,
                                        np.random.default_rng(seed))
            assert same_bits(got[s], ref), s
            one = multi_start_penalty(scene, w, m_trials, t_steps, r_min, 1.0,
                                      np.random.default_rng(seed))
            assert same_bits(one, ref), s

    @given(st.integers(0, 3), st.integers(0, 10_000), st.sampled_from(START_KINDS),
           st.integers(0, 12), st.integers(0, 5), st.integers(0, 8),
           st.sampled_from([0.0, 0.5]), st.sampled_from([0.01, 0.03]))
    @settings(max_examples=80, deadline=None)
    def test_scene_losses_match_loop(self, n_obstacles, seed, start_kind, horizon, m_trials,
                                     multi_steps, w_d, tau):
        # horizons below, at and above multi_steps + 1, so either kind of row
        # may stop advancing first; huge weights make members diverge and may
        # make their trials non-finite
        r = np.random.default_rng(seed)
        scene = random_scene(r, n_obstacles, start_kind)
        stencil = random_stencil(r, n_obstacles)
        cfg = TrainConfig(weights=(1.0, 1.0, 0.1, w_d), tau=tau, m_trials=m_trials,
                          multi_steps=multi_steps)
        starts = scene_starts(scene, cfg, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                want = [reference_scene_loss(scene, p, cfg, horizon, rng_seed=seed)
                        for p in stencil]
            except FloatingPointError:
                with pytest.raises(FloatingPointError):
                    _scene_losses(scene, stencil, cfg, horizon, starts)
                return
            got = _scene_losses(scene, stencil, cfg, horizon, starts)
        assert same_bits(got, want)

    @pytest.mark.parametrize("horizon", [3, 7, 12])
    def test_diverging_member_next_to_live_trials(self, horizon):
        r = np.random.default_rng(3)
        scene = random_scene(r, 2)
        calm = EnergyWeights(beta=1.5, alpha={0: 2.0, 1: 2.0}, mu=4.0)
        wild = EnergyWeights(beta=5e4, alpha={0: 2.0, 1: 2.0}, mu=4.0)
        assert reference_rollout(scene, wild, horizon, 0.03, 1.0)[2]  # diverges
        cfg = TrainConfig()
        want = [reference_scene_loss(scene, w, cfg, horizon, rng_seed=9)
                for w in (calm, wild, calm)]
        got = _scene_losses(scene, [calm, wild, calm], cfg, horizon, scene_starts(scene, cfg, 9))
        assert same_bits(got, want) and np.all(np.isfinite(got))

    def test_diverging_member_is_padded_like_alone(self):
        r = np.random.default_rng(3)
        scene = random_scene(r, 2)
        calm = EnergyWeights(beta=1.5, alpha={0: 2.0, 1: 2.0}, mu=4.0)
        wild = EnergyWeights(beta=5e4, alpha={0: 2.0, 1: 2.0}, mu=4.0)
        qs, vs = scene_rollouts(scene, [calm, wild, calm], 12, 0.03, 1.0)
        for s, w in enumerate([calm, wild, calm]):
            ref_q, ref_v, diverged = reference_rollout(scene, w, 12, 0.03, 1.0)
            assert diverged == (w is wild)
            assert same_bits(qs[s], ref_q) and same_bits(vs[s], ref_v)
        assert np.array_equal(qs[1, -1], qs[1, -2])  # held after divergence

    def test_start_on_center_warns(self):
        scene = random_scene(np.random.default_rng(4), 1, "on_center")
        w = scene.ref_weights()
        with pytest.warns(RuntimeWarning, match="obstacle center"):
            qs, vs = scene_rollouts(scene, [w, w], 3, 0.03, 1.0)
        with pytest.warns(RuntimeWarning, match="obstacle center"):
            ref_q, ref_v, _ = reference_rollout(scene, w, 3, 0.03, 1.0)
        assert same_bits(qs[1], ref_q) and same_bits(vs[1], ref_v)

    def test_non_finite_leapfrog_raises(self):
        scene = random_scene(np.random.default_rng(5), 2)
        calm = scene.ref_weights()
        huge = EnergyWeights(beta=1e308, alpha={0: 1.0, 1: 1.0})
        with pytest.raises(FloatingPointError):
            reference_multi_start(scene, huge, 3, 4, 0.2, 1.0, np.random.default_rng(0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way
            with pytest.raises(FloatingPointError):
                multi_start_penalties(scene, [calm, huge], 3, 4, 0.2, 1.0,
                                      np.random.default_rng(0))
            # and next to rollouts that run on after the trials stop
            cfg = TrainConfig(m_trials=3, multi_steps=4)
            with pytest.raises(FloatingPointError):
                _scene_losses(scene, [calm, huge], cfg, 12, scene_starts(scene, cfg, 0))


class TestSceneBatchCounts:
    """A scene-epoch advances its rollouts and its trials in one batch, and a
    scene's trial starts are drawn once per ``train_offline`` call."""

    @staticmethod
    def counted(monkeypatch, name):
        calls, real = [], getattr(learning, name)
        monkeypatch.setattr(learning, name, lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    @pytest.mark.parametrize("horizon, multi_steps", [(2, 6), (7, 6), (9, 6), (3, 0), (0, 0)])
    def test_one_kernel_call_per_step(self, monkeypatch, horizon, multi_steps):
        dataset = make_reference_dataset(2, seed=0)
        calls = self.counted(monkeypatch, "potential_grads")
        train_offline(dataset, TrainConfig(epochs=2, horizons=(horizon,), multi_steps=multi_steps))
        assert len(calls) == 2 * 2 * max(horizon, multi_steps + 1)

    def test_trial_starts_drawn_once_per_scene(self, monkeypatch):
        dataset = make_reference_dataset(3, seed=1)
        calls = self.counted(monkeypatch, "_trial_start")
        train_offline(dataset, TrainConfig(epochs=3, m_trials=4))
        assert len(calls) == 3 * 4
        calls.clear()
        train_offline(dataset, TrainConfig(epochs=2, weights=(1.0, 1.0, 0.1, 0.0)))
        assert not calls
