import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamnav.ring import (
    RingParams,
    RingShapeModel,
    bulk_potential,
    bulk_potential_grad,
    reference_control_points,
    scale_target,
    shoelace_area,
    spline_basis,
)
from hamnav.workspace import DiscSet, Obstacle

from conftest import central_diff


def deboor_basis(i, k, u, n):
    """Cox-de Boor recursion for the periodic uniform B-spline (test oracle).

    Knots are the integers; basis i has support [i, i + k + 1); the curve
    parameter below is s = u * n, wrapped modulo n.
    """
    def N(j, deg, s):
        if deg == 0:
            return 1.0 if j <= s < j + 1 else 0.0
        left = (s - j) / deg * N(j, deg - 1, s)
        right = (j + deg + 1 - s) / deg * N(j + 1, deg - 1, s)
        return left + right

    s = (u * n) % n
    total = 0.0
    for wrap in (-n, 0, n):
        total += N(i + wrap, k, s)
    return total


def curve_point(u, ctrl):
    """Direct periodic cubic B-spline evaluation via the recursion oracle."""
    n = len(ctrl)
    pt = np.zeros(2)
    for i in range(n):
        # segment formula indexes basis support starting one knot earlier
        pt += deboor_basis(i - 2, 3, u, n) * ctrl[i]
    return pt


class TestReferenceControlPoints:
    def test_quarter_symmetry(self):
        pts = reference_control_points(4, 1.0)
        expected = {(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)}
        got = {(round(x, 12), round(y, 12)) for x, y in pts}
        assert got == expected

    def test_radius(self):
        pts = reference_control_points(17, 2.5)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 2.5)

    def test_centroid_origin(self):
        for n in (3, 8, 20, 33):
            pts = reference_control_points(n, 1.0)
            np.testing.assert_allclose(pts.mean(axis=0), [0, 0], atol=1e-12)


class TestSplineBasis:
    def test_partition_of_unity(self):
        basis = spline_basis(20, 240)
        np.testing.assert_allclose(basis.B.sum(axis=1), 1.0, atol=1e-12)

    def test_derivative_rows_sum_zero(self):
        basis = spline_basis(20, 240)
        np.testing.assert_allclose(basis.D.sum(axis=1), 0.0, atol=1e-12)

    def test_matches_deboor_recursion(self):
        n, K = 8, 32
        basis = spline_basis(n, K)
        ctrl = reference_control_points(n, 1.0)
        for j in range(0, K, 3):
            u = j / K
            np.testing.assert_allclose(basis.B[j] @ ctrl, curve_point(u, ctrl), atol=1e-10)

    def test_derivative_matches_fd_of_curve(self):
        n, K = 10, 80
        basis = spline_basis(n, K)
        ctrl = reference_control_points(n, 1.3)
        du = 1e-5
        for j in range(0, K, 7):
            u = j / K
            fd = (curve_point(u + du, ctrl) - curve_point(u - du, ctrl)) / (2 * du)
            np.testing.assert_allclose(basis.D[j] @ ctrl, fd, atol=1e-6)


def ring_q(center=(0.0, 0.0), scale=1.0):
    """Ring configuration (sensor y, frame c, angle, scale s)."""
    return np.array([0.0, 0.0, center[0], center[1], 0.0, scale])


def ring_barrier(model, q, obstacles, d_hat):
    """Boundary-integrated contact energy (the summed obstacle features) and
    the minimum sample clearance, +inf without obstacles."""
    energy = sum(model.obstacle_feature(q, ob, d_hat)[0] for ob in obstacles)
    return float(energy), model.min_clearance(q, DiscSet.of(enumerate(obstacles)))


class TestBoundarySamples:
    def test_radially_uniform(self):
        pts = RingShapeModel(RingParams()).boundary(ring_q())
        r = np.linalg.norm(pts, axis=1)
        r_eff = r.mean()
        assert np.max(np.abs(r - r_eff)) / r_eff < 1e-3

    def test_translation_equivariance(self):
        model = RingShapeModel(RingParams())
        v = np.array([1.25, -0.5])
        q0, q1 = ring_q(scale=0.8), ring_q(v, 0.8)
        np.testing.assert_array_equal(model.boundary(q1), model.boundary(q0) + v)

    def test_scale_doubles_lengths(self):
        model = RingShapeModel(RingParams())

        def edge_lengths(q):
            pts = model.boundary(q)
            return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)

        np.testing.assert_allclose(edge_lengths(ring_q(scale=1.0)),
                                   2 * edge_lengths(ring_q(scale=0.5)))

    def test_degenerate_scale(self):
        with pytest.raises(ValueError):
            RingShapeModel().boundary(ring_q(scale=0.0))


class TestRingBarrier:
    def test_zero_beyond_activation(self):
        far = [Obstacle(np.array([10.0, 0.0]), 0.5)]
        e, d_min = ring_barrier(RingShapeModel(), ring_q(), far, d_hat=1.0)
        assert e == 0.0
        assert d_min > 1.0

    def test_no_obstacles(self):
        e, d_min = ring_barrier(RingShapeModel(), ring_q(), [], d_hat=1.0)
        assert e == 0.0 and np.isinf(d_min)

    def test_weight_linearity(self):
        model, q = RingShapeModel(), ring_q()
        obs1 = [Obstacle(np.array([0.9, 0.0]), 0.3, weight=1.0),
                Obstacle(np.array([-0.9, 0.2]), 0.2, weight=2.0)]
        obs2 = [Obstacle(o.center, o.radius, 2 * o.weight) for o in obs1]
        e1, _ = ring_barrier(model, q, obs1, d_hat=1.0)
        e2, _ = ring_barrier(model, q, obs2, d_hat=1.0)
        assert e2 == pytest.approx(2 * e1, rel=1e-12)
        assert e1 > 0

    def test_quadrature_refinement(self):
        # one obstacle close to a single stretch of boundary
        params = RingParams()
        fine = RingParams(n_ctrl=params.n_ctrl, n_samples=960)
        ob = [Obstacle(np.array([params.r_base + 0.15, 0.0]), 0.05)]
        e, _ = ring_barrier(RingShapeModel(params), ring_q(), ob, 0.5)
        e_fine, _ = ring_barrier(RingShapeModel(fine), ring_q(), ob, 0.5)
        assert e == pytest.approx(e_fine, rel=0.05)
        assert e > 0

    def test_rigid_translation_invariance(self):
        model = RingShapeModel(RingParams())
        ob = [Obstacle(np.array([0.5, 0.1]), 0.2), Obstacle(np.array([-0.4, -0.3]), 0.15)]
        v = np.array([3.2, -1.7])
        e0, d0 = ring_barrier(model, ring_q(scale=0.9), ob, 0.8)
        ob_t = [Obstacle(o.center + v, o.radius, o.weight) for o in ob]
        e1, d1 = ring_barrier(model, ring_q(v, 0.9), ob_t, 0.8)
        assert e1 == pytest.approx(e0, rel=1e-12)
        assert d1 == pytest.approx(d0, abs=1e-12)


class TestScaleTarget:
    def test_at_contact(self):
        assert scale_target(0.0, 0.5, 2.0) == pytest.approx(0.5)

    def test_saturates_to_one(self):
        assert scale_target(1e6, 0.5, 2.0) == pytest.approx(1.0)

    def test_negative_clamped(self):
        assert scale_target(-3.0, 0.5, 2.0) == pytest.approx(0.5)

    def test_strictly_increasing_and_bounded(self):
        d = np.linspace(1e-4, 5, 200)
        vals = np.array([scale_target(x, 0.5, 2.0) for x in d])
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals >= 0.5) & (vals < 1.0))


class TestBulkPotential:
    def test_zero_at_target(self):
        assert bulk_potential(0.7, 0.7, 1.5, 1.0) == 0.0

    def test_hand_value(self):
        assert bulk_potential(1.0, 0.5, 2.0, 1.0) == pytest.approx(0.5625)

    def test_symmetric(self):
        assert bulk_potential(0.6, 0.9, 1.5, 2.0) == pytest.approx(bulk_potential(0.9, 0.6, 1.5, 2.0))

    def test_grad_matches_fd_and_zero_at_target(self):
        k, a_ref = 1.5, 0.6
        assert bulk_potential_grad(0.8, 0.8, k, a_ref) == 0.0
        for s in (0.55, 0.8, 1.2):
            fd = (bulk_potential(s + 1e-6, 0.8, k, a_ref)
                  - bulk_potential(s - 1e-6, 0.8, k, a_ref)) / 2e-6
            assert bulk_potential_grad(s, 0.8, k, a_ref) == pytest.approx(fd, rel=1e-5)


class TestShapeModel:
    def make_q(self, c=(0.0, 0.0), s=1.0):
        return np.array([0.0, 0.0, c[0], c[1], 0.0, s])

    def test_rest_area_close_to_disc(self):
        # effective radius is the mean sampled radius (the spline curve sits
        # slightly inside the control polygon)
        model = RingShapeModel(RingParams(r_base=0.4))
        r_eff = np.linalg.norm(model.boundary(self.make_q()), axis=1).mean()
        assert model.a_ref == pytest.approx(np.pi * r_eff ** 2, rel=2e-3)

    def test_obj_feature_grad_matches_fd(self):
        model = RingShapeModel()
        model.s_target = 0.7
        q = self.make_q(s=0.9)
        val, grad = model.obj_feature(q)
        fd = central_diff(lambda x: model.obj_feature(x)[0], q)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-9)
        assert val > 0

    def test_obstacle_feature_grad_matches_fd(self):
        model = RingShapeModel()
        ob = Obstacle(np.array([0.65, 0.1]), 0.2)
        q = self.make_q(c=(0.0, 0.0), s=0.9)
        val, grad = model.obstacle_feature(q, ob, 0.8)
        assert val > 0
        fd = central_diff(lambda x: model.obstacle_feature(x, ob, 0.8)[0], q, h=1e-7)
        np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_min_clearance_matches_barrier_dmin(self):
        # the clearance is the smallest distance from a barrier sample X_j
        model = RingShapeModel()
        obstacles = [Obstacle(np.array([0.8, 0.0]), 0.25)]
        q = self.make_q()
        pts = model.boundary(q)
        d_min = float(np.min(np.linalg.norm(pts - obstacles[0].center, axis=1)
                             - obstacles[0].radius))
        assert model.min_clearance(q, DiscSet.of(enumerate(obstacles))) == pytest.approx(
            d_min, abs=1e-12)
        # and the barrier switches on exactly when d_hat passes that clearance
        assert ring_barrier(model, q, obstacles, d_hat=1.001 * d_min)[0] > 0
        assert ring_barrier(model, q, obstacles, d_hat=d_min)[0] == 0.0

    def test_refresh_target_free_space(self):
        model = RingShapeModel()
        s_t = model.refresh_target(model.min_clearance(self.make_q(), DiscSet.of(())))
        assert s_t == pytest.approx(1.0, abs=1e-6)

    def test_params_validation(self):
        # K >= 4 n_ctrl is the ring's own cross-field check; the fields'
        # domains (n_ctrl >= 8, s_min in (0, 1), ...) are the config's
        with pytest.raises(ValueError, match=r"^n_samples=30 is below 4 \* n_ctrl = 80"):
            RingParams(n_samples=30)


def same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestHeldBound:
    """``pruned_clearance(q, world, held)`` is ``pruned_clearance(q, world)``
    bit for bit, whatever ``held`` is, and takes ``held`` as its bound
    exactly when it is a pass at q whose rows are the world's."""

    MODEL = RingShapeModel()  # one model, so its held-rows cache meets many worlds

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_held_pass_keeps_the_bits(self, data):
        model = self.MODEL
        s = data.draw(st.floats(0.25, 1.3))
        q = np.array([0.0, 0.0, data.draw(st.floats(-5.0, 5.0)),
                      data.draw(st.floats(-5.0, 5.0)), 0.0, s])
        nan = data.draw(st.booleans())
        if nan:
            q[data.draw(st.sampled_from([2, 3, 5]))] = np.nan
        c = q[2:4]

        # a world of 1-12 discs, under distinct ids in any order, at centre
        # distances from inside the ring to well past its reach
        n = data.draw(st.integers(1, 12))
        ids = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
        pairs = []
        for i in ids:
            a = data.draw(st.floats(0.0, 2 * np.pi))
            r = data.draw(st.floats(0.0, 4.0))
            ob = Obstacle(np.nan_to_num(c) + r * np.array([np.cos(a), np.sin(a)]),
                          data.draw(st.floats(0.05, 1.0)))
            pairs.append((i, ob))
        world = DiscSet.of(pairs)

        # the held pass: none of the world's discs, some or all, each row the
        # world's or one off by an ulp, at q or at a state nearby
        kind = data.draw(st.sampled_from(["empty", "partial", "all"]))
        held_pairs = {"empty": [], "all": list(pairs),
                      "partial": data.draw(st.lists(st.sampled_from(pairs), unique_by=lambda p: p[0],
                                                    min_size=1, max_size=n))}[kind]
        jitter = bool(held_pairs) and data.draw(st.booleans())
        if jitter:
            k = data.draw(st.integers(0, len(held_pairs) - 1))
            i, ob = held_pairs[k]
            center, radius = ob.center.copy(), ob.radius
            if data.draw(st.booleans()):
                j = data.draw(st.integers(0, 1))
                center[j] = np.nextafter(center[j], np.inf)
            else:
                radius = float(np.nextafter(radius, np.inf))
            held_pairs = held_pairs[:k] + [(i, Obstacle(center, radius))] + held_pairs[k + 1:]
        moved = data.draw(st.booleans())
        q_held = q.copy()
        if moved:
            q_held[data.draw(st.sampled_from([2, 3, 5]))] += 1e-9
        held = model.contact(q_held, DiscSet.of(held_pairs))

        want = model.pruned_clearance(q, world)
        assert same_float(model.pruned_clearance(q, world, held), want)
        if not nan:
            assert want == model.min_clearance(q, world)
        # asked twice: the second answer comes from the cached row check
        taken = model._held_bound(c, float(q[5]), world, held) is not None
        assert taken == (kind != "empty" and not jitter and not nan and not moved)
        assert same_float(model.pruned_clearance(q, world, held), want)


def test_shoelace_unit_square():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert shoelace_area(sq) == pytest.approx(1.0)
