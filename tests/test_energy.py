import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamnav.energy import (
    BARRIER_CLAMP,
    GRAD_CLAMP,
    POINT_LAYOUT,
    RING_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
    barrier_knots,
    energy_breakdown,
    evaluate,
    features,
    hamiltonian,
    ipc_barrier,
    ipc_barrier_grad,
    kinetic,
    log_barrier,
    potential,
    potential_grad,
    potential_grads,
    sensor_energy,
)
from hamnav.learning import _weight_rows
from hamnav.ring import RingShapeModel, scale_target
from hamnav.workspace import DiscSet, Obstacle

from conftest import central_diff

# frozen with mpmath (40 digits) from the closed form -(d-dhat)^2 log(d/dhat)
B_HALF = 0.17328679513998633
DB_HALF = -1.1931471805599453


def discs_of(obstacles):
    return DiscSet.of(enumerate(obstacles))


def point_spec(obstacles, goal, weights, d_hat=1.0, sensor_gain=1.0):
    fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.asarray(goal, float), d_hat=d_hat,
                       sensor_gain=sensor_gain)
    return HamiltonianSpec(mass=np.ones(4), weights=weights, discs=discs_of(obstacles),
                           fixed=fixed)


class TestBarrier:
    def test_activation_boundary(self):
        assert ipc_barrier(1.0, 1.0) == 0.0

    def test_beyond_activation(self):
        assert ipc_barrier(2.0, 1.0) == 0.0

    def test_closed_form_value(self):
        assert ipc_barrier(0.5, 1.0) == pytest.approx(B_HALF, abs=1e-12)

    def test_penetration_penalty(self):
        assert ipc_barrier(-0.1, 1.0) == 200.0
        assert ipc_barrier(0.0, 1.0) == 200.0

    def test_gradient_zero_outside(self):
        assert ipc_barrier_grad(1.0, 1.0) == 0.0
        assert ipc_barrier_grad(1.5, 1.0) == 0.0
        assert ipc_barrier_grad(-0.5, 1.0) == 0.0

    def test_gradient_closed_form(self):
        assert ipc_barrier_grad(0.5, 1.0) == pytest.approx(DB_HALF, abs=1e-12)

    def test_gradient_matches_fd(self):
        for d in np.linspace(0.05, 0.95, 19):
            fd = (ipc_barrier(d + 1e-7, 1.0) - ipc_barrier(d - 1e-7, 1.0)) / 2e-7
            assert ipc_barrier_grad(d, 1.0) == pytest.approx(fd, rel=1e-4)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=0.05, max_value=10.0),
           st.floats(min_value=-6.0, max_value=-1e-3))
    def test_value_slope_is_gradient(self, d_hat, log_frac):
        # d spans (0, d_hat) log-uniformly: from far below the clamp distance
        # d_c (about 0.005 at d_hat = 1) to just short of d_hat
        d = d_hat * 10.0 ** log_frac
        # relative step, but on the linear branch no shorter than 1e-6 d_c:
        # shorter steps let the rounding of b (up to 200) swamp the difference
        h = 1e-6 * max(d, barrier_knots(d_hat)[0])
        lo, hi = ipc_barrier(d - h, d_hat), ipc_barrier(d + h, d_hat)
        assume((lo >= BARRIER_CLAMP) == (hi >= BARRIER_CLAMP))  # off the saturation kink
        fd = (hi - lo) / (2 * h)
        assert ipc_barrier_grad(d, d_hat) == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_linear_below_clamp_distance(self):
        d_c, b_c, d_sat = barrier_knots(1.0)
        assert d_sat == 0.0
        assert b_c == log_barrier(d_c, 1.0)
        assert ipc_barrier_grad(d_c, 1.0) == pytest.approx(-GRAD_CLAMP, rel=1e-12)
        d = np.array([1e-9, 1e-6, 0.5 * d_c])
        np.testing.assert_allclose(ipc_barrier(d, 1.0), b_c + GRAD_CLAMP * (d_c - d), rtol=1e-14)
        assert np.all(ipc_barrier_grad(d, 1.0) == -GRAD_CLAMP)
        # the plain log barrier keeps growing like log(1/d)
        assert log_barrier(1e-6, 1.0) > ipc_barrier(1e-6, 1.0)

    def test_gradient_zero_where_value_saturates(self):
        for d_hat in (8.0, 10.0):
            _, _, d_sat = barrier_knots(d_hat)
            d = np.linspace(1e-3, d_hat * (1 - 1e-9), 2000)
            v, g = ipc_barrier(d, d_hat), ipc_barrier_grad(d, d_hat)
            assert np.all(g[v >= BARRIER_CLAMP] == 0.0)
            assert np.all(g[v < BARRIER_CLAMP] < 0.0)
            assert np.all((v >= BARRIER_CLAMP) == (d < d_sat))

    def test_c1_at_activation(self):
        eps = 1e-9
        assert ipc_barrier(1.0 - eps, 1.0) < 1e-15
        assert abs(ipc_barrier_grad(1.0 - eps, 1.0)) < 1e-7

    @given(st.floats(min_value=-2.0, max_value=5.0),
           st.floats(min_value=0.05, max_value=3.0))
    def test_nonnegative_and_clamped(self, d, d_hat):
        v = ipc_barrier(d, d_hat)
        assert 0.0 <= v <= BARRIER_CLAMP

    def test_monotone_nonincreasing_on_active_branch(self):
        for d_hat in (0.3, 1.0, 2.0):
            d = np.linspace(1e-4, d_hat, 400)
            v = ipc_barrier(d, d_hat)
            assert np.all(np.diff(v) <= 1e-12)

    def test_complementarity_residual_bound(self):
        # 0 <= -d b'(d) <= d_hat^2 (1 + 2/e) on a dense (d, d_hat) grid
        d_hats = np.linspace(0.1, 2.0, 100)
        for dh in d_hats:
            d = np.linspace(1e-6, dh * (1 - 1e-9), 100)
            resid = -d * ipc_barrier_grad(d, dh)
            assert np.all(resid >= -1e-12)
            assert np.all(resid <= dh * dh * (1 + 2 / np.e) + 1e-9)

    def test_vectorized_matches_scalar(self):
        d = np.array([-0.5, 0.2, 0.9, 1.3])
        vec = ipc_barrier(d, 1.0)
        assert vec.shape == (4,)
        for i, di in enumerate(d):
            assert vec[i] == ipc_barrier(float(di), 1.0)


class TestPotential:
    def test_all_terms_vanish_at_goal(self):
        w = EnergyWeights(beta=1.0, lam=0.0)
        spec = point_spec([], goal=(3.0, 4.0), weights=w)
        q = np.array([0.0, 0.0, 3.0, 4.0])
        assert potential(q, spec) == 0.0

    def test_goal_term_only(self):
        w = EnergyWeights(beta=2.0)
        spec = point_spec([], goal=(1.0, 1.0), weights=w)
        q = np.array([0.0, 0.0, 2.0, 1.0])  # c = goal + (1, 0)
        assert potential(q, spec) == pytest.approx(2.0)

    def test_single_obstacle_composition(self):
        ob = Obstacle(np.array([0.0, 0.0]), radius=1.0)
        w = EnergyWeights(beta=0.0, lam=0.0, alpha={0: 3.0})
        spec = point_spec([ob], goal=(1.5, 0.0), weights=w, sensor_gain=0.0)
        q = np.array([0.0, 0.0, 1.5, 0.0])  # d = 0.5
        assert potential(q, spec) == pytest.approx(3 * B_HALF, abs=1e-12)

    def test_goal_gradient(self):
        w = EnergyWeights(beta=1.5)
        spec = point_spec([], goal=(1.0, -1.0), weights=w)
        q = np.array([0.0, 0.0, 2.0, 0.5])
        g = potential_grad(q, spec)
        np.testing.assert_allclose(g[2:4], 2 * 1.5 * (q[2:4] - spec.fixed.goal))
        assert potential_grad(np.array([0.0, 0.0, 1.0, -1.0]), spec)[2:].sum() == 0.0

    def test_degenerate_gradient_warns(self):
        ob = Obstacle(np.array([2.0, 2.0]), radius=1.0)
        w = EnergyWeights(alpha={0: 1.0})
        spec = point_spec([ob], goal=(2.0, 2.0), weights=w)
        q = np.array([0.0, 0.0, 2.0, 2.0])  # coincides with the center
        with pytest.warns(RuntimeWarning):
            g = potential_grad(q, spec)
        assert np.all(np.isfinite(g))

    def test_gradient_matches_fd_random_states(self, rng):
        obstacles = [Obstacle(rng.uniform(0, 10, 2), rng.uniform(0.3, 1.0)) for _ in range(6)]
        w = EnergyWeights(beta=1.2, lam=0.0,
                          alpha={i: a for i, a in enumerate(rng.uniform(0.5, 2.0, 6))}, mu=0.0)
        spec = point_spec(obstacles, goal=(9.0, 9.0), weights=w, d_hat=1.0)
        checked = 0
        while checked < 100:
            q = np.concatenate([rng.normal(0, 0.5, 2), rng.uniform(0, 10, 2)])
            d = np.array([np.linalg.norm(q[2:4] - ob.center) - ob.radius for ob in obstacles])
            if np.any(np.abs(d) < 5e-3) or np.any(np.abs(d - 1.0) < 5e-3):
                continue  # keep FD away from the piecewise kinks
            g = potential_grad(q, spec)
            fd = central_diff(lambda x: potential(x, spec), q)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)
            checked += 1

    def test_permutation_invariance(self, rng):
        obstacles = [Obstacle(rng.uniform(0, 5, 2), 0.5) for _ in range(5)]
        w = EnergyWeights(beta=1.0, alpha={i: 1.0 + i for i in range(5)})
        q = np.array([0.1, -0.2, 2.5, 2.5])
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([4.0, 4.0]), d_hat=2.0)
        base = None
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [1, 0, 4, 3, 2]):
            discs = DiscSet.of([(i, obstacles[i]) for i in order])
            spec = HamiltonianSpec(np.ones(4), w, discs, fixed)
            val = potential(q, spec)
            base = val if base is None else base
            assert val == pytest.approx(base, abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(min_value=0.0, max_value=5.0), seed=st.integers(0, 10_000))
    def test_linear_in_weights(self, a, seed):
        r = np.random.default_rng(seed)
        obstacles = [Obstacle(r.uniform(0, 4, 2), 0.4) for _ in range(3)]
        q = np.concatenate([r.normal(0, 1, 2), r.uniform(0, 4, 2)])

        def R_minus_sensor(beta, lam, alphas):
            w = EnergyWeights(beta=beta, lam=lam, alpha=dict(enumerate(alphas)))
            spec = point_spec(obstacles, goal=(1.0, 1.0), weights=w, d_hat=1.5)
            return potential(q, spec) - sensor_energy(q, spec.fixed)

        w1 = (1.0, 0.0, r.uniform(0, 2, 3))
        w2 = (0.5, 0.0, r.uniform(0, 2, 3))
        combo = R_minus_sensor(a * w1[0] + w2[0], a * w1[1] + w2[1], a * w1[2] + w2[2])
        assert combo == pytest.approx(a * R_minus_sensor(*w1) + R_minus_sensor(*w2),
                                      rel=1e-9, abs=1e-9)


class TestHamiltonian:
    def test_zero_momentum(self):
        w = EnergyWeights(beta=2.0)
        spec = point_spec([], goal=(0.0, 0.0), weights=w)
        q = np.array([0.3, 0.0, 1.0, 0.0])
        z = PhaseState(q, np.zeros(4))
        assert hamiltonian(z, spec) == pytest.approx(potential(q, spec))

    def test_kinetic_value(self):
        w = EnergyWeights(beta=0.0)
        spec = point_spec([], goal=(0.0, 0.0), weights=w, sensor_gain=0.0)
        z = PhaseState(np.array([0.0, 0.0, 0.0, 0.0]), np.array([3.0, 4.0, 0.0, 0.0]))
        assert hamiltonian(z, spec) == pytest.approx(12.5)

    def test_term_sum_oracle(self, rng):
        obstacles = [Obstacle(rng.uniform(0, 6, 2), 0.6) for _ in range(4)]
        w = EnergyWeights(beta=1.3, lam=0.0, alpha={i: 0.7 for i in range(4)})
        spec = point_spec(obstacles, goal=(5.0, 5.0), weights=w, d_hat=1.2)
        for _ in range(20):
            z = PhaseState(np.concatenate([rng.normal(0, 1, 2), rng.uniform(0, 6, 2)]),
                           rng.normal(0, 1, 4))
            parts = energy_breakdown(z, spec)
            total = (kinetic(z.p, spec.mass) + parts["E_sensor"] + parts["E_goal"]
                     + parts["E_obj"] + parts["E_barrier_total"])
            assert hamiltonian(z, spec) == pytest.approx(total, rel=1e-12)
            assert parts["E_barrier_total"] >= 0.0

    def test_kinetic_nonnegative(self, rng):
        mass = rng.uniform(0.5, 3.0, 6)
        for _ in range(50):
            assert kinetic(rng.normal(0, 5, 6), mass) >= 0.0


class TestFeatures:
    def test_no_obstacles(self):
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([1.0, 0.0]), d_hat=1.0)
        phi, grads = features(np.array([0.0, 0.0, 0.0, 0.0]), discs_of([]), fixed)
        assert phi.shape == (2,)
        assert phi[0] == pytest.approx(1.0)
        assert phi[1] == 0.0  # no shape attached
        assert grads.shape == (2, 4)

    def test_dot_product_reconstructs_potential(self, rng):
        obstacles = [Obstacle(rng.uniform(0, 6, 2), 0.5) for _ in range(4)]
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([5.0, 3.0]), d_hat=1.4)
        discs = discs_of(obstacles)
        for _ in range(50):
            q = np.concatenate([rng.normal(0, 1, 2), rng.uniform(0, 6, 2)])
            beta, lam = rng.uniform(0, 2, 2)
            alphas = rng.uniform(0, 2, 4)
            w = EnergyWeights(beta=beta, lam=lam, alpha=dict(enumerate(alphas)))
            spec = HamiltonianSpec(np.ones(4), w, discs, fixed)
            phi, _ = features(q, discs, fixed)
            eta = np.concatenate([[beta, lam], alphas])
            assert potential(q, spec) == pytest.approx(
                sensor_energy(q, fixed) + eta @ phi, rel=1e-12)

    def test_feature_gradients_match_fd(self, rng):
        obstacles = [Obstacle(np.array([2.0, 0.0]), 0.5), Obstacle(np.array([0.0, 3.0]), 0.8)]
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([4.0, 4.0]), d_hat=1.5)
        discs = discs_of(obstacles)
        for _ in range(20):
            q = np.concatenate([rng.normal(0, 1, 2), rng.uniform(0.5, 4, 2)])
            d = np.array([np.linalg.norm(q[2:4] - ob.center) - ob.radius for ob in obstacles])
            if np.any(np.abs(d) < 1e-2) or np.any(np.abs(d - 1.5) < 1e-2):
                continue
            phi, grads = features(q, discs, fixed)
            for j in range(phi.size):
                fd = central_diff(lambda x: features(x, discs, fixed)[0][j], q)
                np.testing.assert_allclose(grads[j], fd, rtol=1e-4, atol=1e-8)


# one obstacle: direction from the robot (point) or boundary sample (ring), gap
# to the nearest sample (below the clamp distance d_c ~ 0.005 d_hat, inside
# the activation distance, beyond it, or penetrating), radius, barrier weight
OBSTACLE = st.tuples(
    st.floats(0.0, 2 * np.pi),
    st.one_of(st.floats(1e-6, 4e-3), st.floats(4e-3, 1.5), st.floats(-0.3, 0.0)),
    st.floats(0.05, 0.6),
    st.floats(0.0, 5.0),
)


def random_state(data, ring):
    """A spec with 0-3 obstacles placed at drawn gaps, and a state (q, p)."""
    layout = RING_LAYOUT if ring else POINT_LAYOUT
    model = RingShapeModel() if ring else None
    fl = lambda lo, hi: data.draw(st.floats(lo, hi))
    q = np.array([fl(-1, 1), fl(-1, 1), fl(-3, 3), fl(-3, 3)]
                 + ([fl(-1, 1), fl(0.3, 1.3)] if ring else []))
    p = np.array([fl(-2, 2) for _ in range(layout.dim)])
    d_hat = fl(0.3, 1.5)
    obstacles, alpha = [], {}
    for k, (ang, gap, r, a) in enumerate(data.draw(st.lists(OBSTACLE, max_size=3))):
        if ring:
            pts = model.boundary(q)
            x = pts[int(ang / (2 * np.pi) * (len(pts) - 1))]
            u = (x - q[2:4]) / np.linalg.norm(x - q[2:4])
        else:
            x, u = q[2:4], np.array([np.cos(ang), np.sin(ang)])
        obstacles.append(Obstacle(x + (gap + r) * u, r, weight=fl(0.5, 2.0)))
        alpha[k] = a
    goal = np.array([fl(-3, 3), fl(-3, 3)])
    fixed = FixedTerms(layout=layout, goal=goal, d_hat=d_hat, sensor_gain=fl(0.1, 2.0),
                       shape=model)
    if ring:
        model.s_target = fl(0.5, 1.0)
    weights = EnergyWeights(beta=fl(0, 3), lam=fl(0, 3), alpha=alpha)
    mass = np.array([fl(0.5, 2.0) for _ in range(layout.dim)])
    spec = HamiltonianSpec(mass=mass, weights=weights, discs=discs_of(obstacles), fixed=fixed)
    return q, p, spec


def left_to_right(terms):
    """The sum of ``terms`` (numbers or arrays), one after another from the
    first, as numpy sums a short vector, or the rows of a stack elementwise."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def separate_formulas(q, p, spec, linalg=False):
    """Gradient, potential, H and logged terms, each from its own features
    call, written out as the energy module computes them: each contraction
    as products summed left to right (at most 5 features), or, with
    ``linalg``, as the ``@`` products the module took before (BLAS)."""
    fixed, w = spec.fixed, spec.weights
    phi, grads = features(q, spec.discs, fixed)
    eta = np.concatenate(([w.beta, w.lam], [w.alpha.get(i, 0.0)
                                            for i in sorted(spec.discs.ids.tolist())]))
    dot = (lambda a, b: a @ b) if linalg else (
        lambda a, b: left_to_right([x * y for x, y in zip(a, b)]))
    grad = dot(eta, grads)
    grad[fixed.layout.sensor] += 2.0 * fixed.sensor_gain * q[fixed.layout.sensor]
    pot = sensor_energy(q, fixed) + float(dot(eta, phi))
    phi, _ = features(q, spec.discs, fixed)
    e_sensor = sensor_energy(q, fixed)
    e_goal, e_obj = w.beta * phi[0], w.lam * phi[1]
    e_barrier = float(dot(eta[2:], phi[2:])) if phi.size > 2 else 0.0
    parts = {"E_sensor": e_sensor, "E_goal": e_goal, "E_obj": e_obj,
             "E_barrier_total": e_barrier,
             "H": kinetic(p, spec.mass) + e_sensor + e_goal + e_obj + e_barrier}
    return grad, pot, kinetic(p, spec.mass) + pot, parts


class TestEvaluate:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.data())
    def test_single_evaluation_is_bitwise_equal(self, ring, data):
        q, p, spec = random_state(data, ring)
        ev = evaluate(q, spec, p)
        z = PhaseState(q, p)
        grad, pot, H, parts = separate_formulas(q, p, spec)
        np.testing.assert_array_equal(ev.grad, grad)
        np.testing.assert_array_equal(ev.grad, potential_grad(q, spec))
        assert ev.potential == pot == potential(q, spec)
        assert ev.H == H == hamiltonian(z, spec)
        assert ev.parts == parts == energy_breakdown(z, spec)
        np.testing.assert_array_equal(ev.phi, features(q, spec.discs, spec.fixed)[0])
        grad, pot, H, parts = separate_formulas(q, p, spec, linalg=True)
        np.testing.assert_allclose(ev.grad, grad, rtol=1e-9, atol=1e-9)
        assert ev.potential == pytest.approx(pot, rel=1e-9, abs=1e-9)
        assert ev.parts == pytest.approx(parts, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_refresh_target_with_precomputed_clearance(self, data):
        q, _, spec = random_state(data, ring=True)
        model = RingShapeModel()
        d_min = model.min_clearance(q, spec.discs)
        p = model.params
        want = scale_target(10.0 / p.delta if d_min == np.inf else d_min, p.s_min, p.delta)
        assert model.refresh_target(d_min) == want and model.s_target == want

    def test_state_at_rest_and_layout_check(self):
        spec = point_spec([Obstacle(np.array([0.5, 0.0]), 0.1)], (1.0, 1.0), EnergyWeights())
        q = np.array([0.2, 0.0, 0.0, 0.0])
        assert evaluate(q, spec).H == evaluate(q, spec).potential == potential(q, spec)
        with pytest.raises(ValueError):
            evaluate(np.zeros(6), spec, np.zeros(6))


FRAME_KINDS = ("free", "barrier_linear", "barrier_log", "inside_disc", "on_center", "nan")


def center_warning_count(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, sum("obstacle center" in str(w.message) for w in caught)


class TestPotentialGrads:
    """Row b of the batched point-robot gradient is the single state's, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 10_000),
           st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=6),
           st.sampled_from([0.5, 1.0, 8.0]), st.sampled_from([1.0, 0.7]))
    def test_rows_match_evaluate(self, n_discs, seed, kinds, d_hat, sensor_gain):
        r = np.random.default_rng(seed)
        ids = sorted(r.choice(50, n_discs, replace=False).tolist())
        obstacles = [Obstacle(r.uniform(-3, 3, 2), r.uniform(0.2, 0.8), r.uniform(0.0, 2.0))
                     for _ in ids]
        discs = DiscSet.of(zip(ids, obstacles))
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=r.uniform(-3, 3, 2), d_hat=d_hat,
                           sensor_gain=sensor_gain)
        d_c = barrier_knots(d_hat)[0]
        q = np.concatenate([r.normal(0, 1, (len(kinds), 2)), r.uniform(-4, 4, (len(kinds), 2))],
                           axis=1)
        for b, kind in enumerate(kinds):
            if kind == "nan":
                q[b, r.integers(4)] = np.nan
            elif obstacles and kind != "free":
                ob, ang = obstacles[r.integers(n_discs)], r.uniform(0, 2 * np.pi)
                dist = {"barrier_linear": ob.radius + r.uniform(0.05, 0.95) * d_c,
                        "barrier_log": ob.radius + r.uniform(d_c, d_hat),
                        "inside_disc": r.uniform(0.05, 0.95) * ob.radius,
                        "on_center": 0.0}[kind]
                q[b, 2:4] = ob.center + dist * np.array([np.cos(ang), np.sin(ang)])
        weights = [EnergyWeights(beta=r.uniform(0, 3), lam=r.uniform(0, 3),
                                 alpha={i: r.choice([0.0, r.uniform(0, 5)]) for i in ids})
                   for _ in kinds]
        eta = np.array([w.vector(ids) for w in weights])
        on_center = any(k == "on_center" for k in kinds) and n_discs > 0
        with np.errstate(all="ignore"):
            got, n_warned = center_warning_count(lambda: potential_grads(q, eta, discs, fixed))
            assert got.shape == q.shape
            assert n_warned == on_center
            for b, w in enumerate(weights):
                want, _ = center_warning_count(
                    lambda: evaluate(q[b], HamiltonianSpec(np.ones(4), w, discs, fixed)).grad)
                assert got[b].tobytes() == want.tobytes(), (b, kinds[b])

    def test_frame_on_a_center_warns_once(self):
        discs = discs_of([Obstacle(np.array([1.0, 1.0]), 0.5), Obstacle(np.array([3.0, 1.0]), 0.5)])
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([5.0, 5.0]), d_hat=1.0)
        q = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 2.0, 1.0]])
        g, n_warned = center_warning_count(
            lambda: potential_grads(q, np.ones((3, 4)), discs, fixed))
        assert n_warned == 1 and np.all(np.isfinite(g))


WEIGHT_VALUES = st.one_of(st.floats(0.0, 1e6), st.integers(0, 5), st.just(-0.0),
                          st.sampled_from([5e-324, 1e-4, 1e5]))


class TestWeights:
    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            EnergyWeights(beta=-0.1)
        with pytest.raises(ValueError):
            EnergyWeights(alpha={0: -1.0})

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(WEIGHT_VALUES, WEIGHT_VALUES,
                              st.dictionaries(st.integers(0, 12), WEIGHT_VALUES, max_size=8),
                              WEIGHT_VALUES), min_size=1, max_size=4),
           st.lists(st.integers(0, 10), unique=True, max_size=8), st.integers(0, 8))
    def test_vector_matches_the_weight_layouts_it_replaced(self, drawn, ids, k):
        """``vector(ids)`` is, bit for bit, the array the navigator formed from
        a copy of alpha restricted to the active ids, and each row of
        ``learning._weight_rows``' nested lists; ids may be missing from alpha
        and alpha may hold ids outside them."""
        weights = [EnergyWeights(b, l, a, m) for b, l, a, m in drawn]
        for w in weights:
            restricted = {i: w.alpha.get(i, 0.0) for i in ids}
            want = np.concatenate(([w.beta, w.lam], [restricted.get(i, 0.0) for i in ids]),
                                  dtype=float)
            got = w.vector(ids)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        want_rows = np.array([[w.beta, w.lam] + [w.alpha.get(i, 0.0) for i in range(k)]
                              for w in weights], dtype=float)
        rows = _weight_rows(weights, k)
        assert rows.shape == want_rows.shape == (len(weights), 2 + k)
        assert rows.tobytes() == want_rows.tobytes()

    def test_mass_must_be_positive(self):
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.zeros(2), d_hat=1.0)
        with pytest.raises(ValueError):
            HamiltonianSpec(np.array([1.0, -1.0, 1.0, 1.0]), EnergyWeights(), discs_of([]),
                            fixed)
