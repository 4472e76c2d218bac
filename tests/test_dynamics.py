import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamnav.dynamics import (
    IntegratorConfig,
    PortSelectors,
    Trajectory,
    rollout,
    step_leapfrog,
    step_symplectic_euler,
)
from hamnav.energy import (
    POINT_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
)
from hamnav.workspace import DiscSet, Obstacle


def goal_spec(goal, beta=1.0, mass=None, sensor_gain=0.0, obstacles=(), alpha=None, d_hat=1.0):
    fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.asarray(goal, float), d_hat=d_hat,
                       sensor_gain=sensor_gain)
    w = EnergyWeights(beta=beta, alpha=alpha or {})
    return HamiltonianSpec(mass=np.ones(4) if mass is None else np.asarray(mass, float),
                           weights=w, discs=DiscSet.of(enumerate(obstacles)), fixed=fixed)


SEL = PortSelectors(dim=4)


def energy_drift(traj: Trajectory) -> float:
    """max_n |H_n - H_0| along a trajectory."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return float(np.max(np.abs(traj.energies - traj.energies[0])))


def flip_momentum(z: PhaseState) -> PhaseState:
    return PhaseState(z.q.copy(), -z.p)


class TestSymplecticEulerStep:
    def test_free_particle(self):
        z = PhaseState(np.array([0.0, 0.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.5, -0.5]))
        out = step_symplectic_euler(z, np.zeros(4), 0.0, None, np.ones(4), 0.1, SEL)
        np.testing.assert_array_equal(out.p, z.p)
        np.testing.assert_allclose(out.q, z.q + 0.1 * z.p)

    def test_forced_from_rest(self):
        g = np.array([0.0, 0.0, 2.0, -1.0])
        z = PhaseState(np.zeros(4), np.zeros(4))
        out = step_symplectic_euler(z, g, 0.0, None, np.ones(4), 0.1, SEL)
        np.testing.assert_allclose(out.p, -0.1 * g)
        np.testing.assert_allclose(out.q, -0.01 * g)

    def test_frame_damping_hand_value(self):
        # M = 1, tau = 0.03, mu = 4, g = 0, u = 0, frame momentum 1 -> 0.88
        z = PhaseState(np.zeros(4), np.array([0.0, 0.0, 1.0, 0.0]))
        out = step_symplectic_euler(z, np.zeros(4), 4.0, None, np.ones(4), 0.03, SEL)
        assert out.p[2] == pytest.approx(1.0 - 0.12)

    def test_rejects_nonfinite(self):
        z = PhaseState(np.array([np.nan, 0, 0, 0]), np.zeros(4))
        with pytest.raises(FloatingPointError):
            step_symplectic_euler(z, np.zeros(4), 0.0, None, np.ones(4), 0.1, SEL)

    def test_frame_only_forcing_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = PhaseState(rng.normal(size=4), rng.normal(size=4))
            g = rng.normal(size=4)
            a = step_symplectic_euler(z, g, 0.0, np.zeros(2), np.ones(4), 0.05, SEL)
            b = step_symplectic_euler(z, g, 3.7, np.array([0.4, -0.9]), np.ones(4), 0.05, SEL)
            # sensor momenta (indices 0:2) must be bit-identical under (mu, u_f) changes
            assert a.p[0] == b.p[0] and a.p[1] == b.p[1]
            assert a.q[0] == b.q[0] and a.q[1] == b.q[1]

    def test_structural_damping_independent_of_port(self):
        sel6 = PortSelectors(dim=6)
        struct = np.array([0, 0, 0, 0, 1.6, 2.0])
        z = PhaseState(np.zeros(6), np.ones(6))
        a = step_symplectic_euler(z, np.zeros(6), 0.0, np.zeros(2), np.ones(6), 0.03, sel6, struct)
        b = step_symplectic_euler(z, np.zeros(6), 5.0, np.ones(2), np.ones(6), 0.03, sel6, struct)
        assert a.p[4] == b.p[4] and a.p[5] == b.p[5]
        assert a.p[5] == pytest.approx(1.0 - 0.03 * 2.0)


def reference_step(z, grad_q, mu, u_f, mass, tau, selectors, structural_damping=None):
    """The symplectic Euler step as first written, with a finiteness check per
    array.  Returns (q', p')."""
    q, p = z.q, z.p
    mass = np.asarray(mass, dtype=float)
    grad_q = np.asarray(grad_q, dtype=float)
    if not (np.isfinite(q).all() and np.isfinite(p).all() and np.isfinite(grad_q).all()):
        raise FloatingPointError("non-finite state or gradient")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    v = p / mass
    damping = np.zeros(selectors.dim)
    damping[selectors.frame] = mu
    port = np.zeros(selectors.dim)
    if u_f is not None:
        port[selectors.frame] = np.asarray(u_f, dtype=float)
    p_new = p - tau * grad_q - tau * damping * v + tau * port
    if structural_damping is not None:
        p_new = p_new - tau * np.asarray(structural_damping, float) * v
    return q + tau * (p_new / mass), p_new


# finite floats with signed zeros among them
ENTRIES = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0]))


def vectors(n):
    return st.lists(ENTRIES, min_size=n, max_size=n).map(np.array)


class TestStepAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(vectors(6), vectors(6), vectors(6), st.sampled_from([0.0, -0.0, 0.7, 4.0]),
           st.one_of(st.none(), vectors(2)), st.lists(st.floats(0.2, 3.0), min_size=6,
                                                    max_size=6).map(np.array),
           st.sampled_from([0.01, 0.03]), st.booleans())
    def test_bits_match_the_reference(self, q, p, g, mu, u_f, mass, tau, structural):
        sel = PortSelectors(dim=6)
        damping = np.array([0.0, 0.0, 0.0, 0.0, 1.6, 2.0]) if structural else None
        out = step_symplectic_euler(PhaseState(q, p), g, mu, u_f, mass, tau, sel, damping)
        want_q, want_p = reference_step(PhaseState(q, p), g, mu, u_f, mass, tau, sel, damping)
        assert np.array(out.q).tobytes() == want_q.tobytes()
        assert np.array(out.p).tobytes() == want_p.tobytes()

    @pytest.mark.parametrize("where", ["q", "p", "grad"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_raises(self, where, bad):
        q, p, g = np.zeros(4), np.ones(4), np.ones(4)
        {"q": q, "p": p, "grad": g}[where][1] = bad
        with pytest.raises(FloatingPointError):
            step_symplectic_euler(PhaseState(q, p), g, 0.5, None, np.ones(4), 0.1, SEL)

    def test_negative_mu_raises(self):
        z = PhaseState(np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="mu"):
            step_symplectic_euler(z, np.zeros(4), -1e-9, None, np.ones(4), 0.1, SEL)


class TestLeapfrog:
    def test_free_drift(self):
        z = PhaseState(np.array([0.0, 1.0]), np.array([2.0, -1.0]))
        out = step_leapfrog(z, lambda q: np.zeros(2), np.ones(2), 0.1)
        np.testing.assert_array_equal(out.p, z.p)
        np.testing.assert_allclose(out.q, z.q + 0.1 * z.p)

    def test_harmonic_energy_drift(self):
        # R = q^2/2, M = 1, tau = 0.1, 1000 steps from (1, 0)
        z = PhaseState(np.array([1.0]), np.array([0.0]))
        grad = lambda q: q
        H0 = 0.5
        for _ in range(1000):
            z = step_leapfrog(z, grad, np.ones(1), 0.1)
        H_T = 0.5 * z.p[0] ** 2 + 0.5 * z.q[0] ** 2
        assert abs(H_T - H0) / H0 < 1e-3

    def test_time_reversal_round_trip(self):
        grad = lambda q: q + 0.3 * q ** 3  # anharmonic, still smooth
        z0 = PhaseState(np.array([0.7, -0.2]), np.array([0.1, 0.4]))
        z = z0.copy()
        for _ in range(1000):
            z = step_leapfrog(z, grad, np.ones(2), 0.05)
        z = flip_momentum(z)
        for _ in range(1000):
            z = step_leapfrog(z, grad, np.ones(2), 0.05)
        z = flip_momentum(z)
        np.testing.assert_allclose(z.q, z0.q, atol=1e-8)
        np.testing.assert_allclose(z.p, z0.p, atol=1e-8)


class TestRollout:
    def test_zero_horizon(self):
        spec = goal_spec((1.0, 1.0))
        z0 = PhaseState(np.zeros(4), np.zeros(4))
        traj = rollout(z0, spec, IntegratorConfig(tau=0.03, horizon=0))
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.states[0].q, z0.q)

    def test_overdamped_goal_approach_vs_refined(self):
        spec = goal_spec((3.0, 0.0), beta=1.5)
        z0 = PhaseState(np.array([0.0, 0.0, 0.0, 0.0]), np.zeros(4))
        coarse = rollout(z0, spec, IntegratorConfig(tau=0.03, horizon=200), mu=8.0)
        fine = rollout(z0, spec, IntegratorConfig(tau=0.0003, horizon=20000), mu=8.0)
        goal = spec.fixed.goal
        d = np.linalg.norm(coarse.positions() - goal, axis=1)
        assert d[-1] < d[0]
        assert np.all(np.diff(d) <= 1e-12)  # monotone approach when overdamped
        gap = np.linalg.norm(coarse.positions()[-1] - fine.positions()[-1])
        assert gap < 0.02 * d[0]

    def test_conservative_drift_bounded_by_step_halving(self):
        spec = goal_spec((2.0, 1.0), beta=1.0)
        z0 = PhaseState(np.array([0.0, 0.0, 0.5, 0.5]), np.zeros(4))
        T = 400
        drift = energy_drift(rollout(z0, spec, IntegratorConfig(0.02, T)))
        drift_half = energy_drift(rollout(z0, spec, IntegratorConfig(0.01, 2 * T)))
        c = drift_half / (2 * T * 0.01 ** 2)
        assert drift < 8 * c * T * 0.02 ** 2  # first-order scheme: O(tau) constant w/ margin

    def test_dissipativity(self):
        spec = goal_spec((2.0, 0.0), beta=1.0)
        z0 = PhaseState(np.array([0.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]))
        T, tau = 600, 0.02
        traj = rollout(z0, spec, IntegratorConfig(tau, T), mu=2.0)
        half = rollout(z0, spec, IntegratorConfig(tau / 2, 2 * T), mu=2.0)
        c = max(float(np.max(half.energies - half.energies[0])), 0.0) / (2 * T * (tau / 2) ** 2) + 1.0
        assert traj.energies[-1] <= traj.energies[0] + T * c * tau ** 2

    def test_divergence_flag(self):
        ob = Obstacle(np.array([1.0, 0.0]), 0.5)
        spec = goal_spec((3.0, 0.0), beta=0.0, obstacles=[ob], alpha={0: 5e4}, d_hat=1.0)
        z0 = PhaseState(np.array([0.0, 0.0, 0.2, 0.0]), np.array([0.0, 0.0, 1e-3, 0.0]))
        traj = rollout(z0, spec, IntegratorConfig(tau=0.5, horizon=400))
        assert traj.diverged
        assert len(traj) <= 401

    def test_determinism_bit_identical(self):
        ob = Obstacle(np.array([1.5, 0.2]), 0.4)
        spec = goal_spec((3.0, 0.0), beta=1.0, obstacles=[ob], alpha={0: 1.0})
        z0 = PhaseState(np.array([0.0, 0.0, 0.0, 0.0]), np.zeros(4))
        a = rollout(z0, spec, IntegratorConfig(0.03, 300), mu=4.0, u_f=np.array([0.1, 0.0]))
        b = rollout(z0, spec, IntegratorConfig(0.03, 300), mu=4.0, u_f=np.array([0.1, 0.0]))
        assert len(a) == len(b)
        for za, zb in zip(a.states, b.states):
            assert np.array_equal(za.q, zb.q) and np.array_equal(za.p, zb.p)

    def test_records_clearance(self):
        ob = Obstacle(np.array([1.0, 0.0]), 0.5)
        spec = goal_spec((2.0, 0.0), obstacles=[ob], alpha={0: 1.0})
        z0 = PhaseState(np.array([0.0, 0.0, 0.0, 0.0]), np.zeros(4))
        traj = rollout(z0, spec, IntegratorConfig(0.03, 5))
        assert traj.clearances[0] == pytest.approx(0.5)


class TestEnergyDrift:
    def test_constant_trajectory(self):
        z = PhaseState(np.zeros(2), np.zeros(2))
        traj = Trajectory([z, z, z], np.arange(3) * 0.1, np.array([1.0, 1.0, 1.0]),
                          np.zeros(2), np.zeros(3))
        assert energy_drift(traj) == 0.0

    def test_free_particle_exact_zero(self):
        spec = goal_spec((0.0, 0.0), beta=0.0, sensor_gain=0.0)
        z0 = PhaseState(np.zeros(4), np.array([0.0, 0.0, 1.0, -2.0]))
        traj = rollout(z0, spec, IntegratorConfig(0.05, 100))
        assert energy_drift(traj) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            energy_drift(Trajectory([], np.array([]), np.array([]), np.array([]), np.array([])))


class TestConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(ValueError):
            IntegratorConfig(tau=0.0, horizon=5)

    def test_gamma_zero_at_zero_mu(self):
        sel = PortSelectors(dim=6)
        assert np.all(sel.gamma_diag(0.0) == 0.0)
        g = sel.gamma_diag(2.5)
        assert np.all(g[[0, 1, 4, 5]] == 0.0) and np.all(g[2:4] == 2.5)
