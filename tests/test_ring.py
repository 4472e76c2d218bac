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
from hamnav.energy import RING_LAYOUT
from hamnav.navigator import HELD_REACH, EpisodeConfig, EpisodeRecorder
from hamnav.workspace import CoverageTracker, DiscSet, Obstacle, Workspace

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


def ring_recorder(model, obstacles):
    """An EpisodeRecorder of the ring ``model`` in a 10-m world of ``obstacles``
    (validation bypassed: a disc may cover the start)."""
    ws = Workspace(10.0, [], (1.0, 1.0), (9.0, 9.0))
    ws.obstacles = obstacles
    return EpisodeRecorder(ws, EpisodeConfig(ring=model.params), CoverageTracker(10.0, 0.5),
                           RING_LAYOUT, model)


def world_min(model, c, s, world) -> float:
    """``min_clearance`` at frame c and scale s over every disc of world."""
    return model.min_clearance(np.array([0.0, 0.0, c[0], c[1], 0.0, s]), world)


class TestHeldClearance:
    """The ring's ground-truth clearance, ``EpisodeRecorder.world_clearance``
    over a held candidate set and ``RingShapeModel.rows_clearance`` over a
    window of samples per disc, is ``min_clearance`` over every world disc,
    byte for byte."""

    MODEL = RingShapeModel()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_walk_matches_min_clearance(self, data):
        model = self.MODEL
        fl = lambda lo, hi: data.draw(st.floats(lo, hi))
        c, s = np.array([fl(2.0, 8.0), fl(2.0, 8.0)]), fl(0.25, 1.3)
        obstacles = []
        for _ in range(data.draw(st.integers(0, 15))):
            kind = data.draw(st.sampled_from(["free", "tangent", "within_reach", "on_centre"]))
            radius, a = fl(0.05, 1.0), fl(0.0, 2 * np.pi)
            u = np.array([np.cos(a), np.sin(a)])
            if kind == "free":
                center = c + fl(0.0, 4.0) * u
            elif kind == "tangent":  # a sample at the disc's surface, give or take an ulp
                x = model.boundary([0.0, 0.0, *c, 0.0, s])[data.draw(st.integers(0, 239))]
                center = x + (radius + data.draw(st.sampled_from([0.0, 1e-15, -1e-15]))) * u
            elif kind == "within_reach":
                center = c + fl(0.0, s * model.reach) * u
            else:  # on the ring's centre: the offset's angle is atan2(0, 0)
                center = c.copy()
            obstacles.append(Obstacle(center, radius))
        rec, world = ring_recorder(model, obstacles), DiscSet.of(enumerate(obstacles))
        for _ in range(data.draw(st.integers(1, 12))):
            kind = data.draw(st.sampled_from(["small", "reach", "jump", "non_finite"]))
            x0, y0, s0, _ = rec.held
            if kind == "small":
                c = c + np.array([fl(-0.02, 0.02), fl(-0.02, 0.02)])
                s = min(max(s + fl(-0.02, 0.02), 0.25), 1.3)
            elif kind == "reach" and np.isfinite(x0):
                # a move of HELD_REACH times 1 - 1e-12 ... 1 + 1e-12, shared
                # between the frame and the scale
                step = HELD_REACH * (1.0 + data.draw(
                    st.sampled_from([-1e-12, -1e-15, 0.0, 1e-15, 1e-12])))
                share = data.draw(st.sampled_from([1.0, 0.5, 0.0]))
                a = fl(0.0, 2 * np.pi)
                c = np.array([x0, y0]) + share * step * np.array([np.cos(a), np.sin(a)])
                ds = (1.0 - share) * step / model.reach
                s = s0 + ds if s0 - ds < 0.25 else s0 - ds
            elif kind == "non_finite":
                c = np.array([data.draw(st.sampled_from([np.nan, np.inf, -np.inf, 5.0])),
                              fl(2.0, 8.0)])
                s = data.draw(st.sampled_from([s, np.nan]))
            else:
                c, s = np.array([fl(0.0, 10.0), fl(0.0, 10.0)]), fl(0.25, 1.3)
            want = world_min(model, c, s, world)
            assert same_float(rec.world_clearance(tuple(c.tolist()), s), want)

    def test_ties_between_neighbouring_samples(self, monkeypatch):
        """A centre on the bisector of two neighbouring samples' directions
        is equally far from both in angle, and the spline's ripple decides
        which is nearer: every window holds the row's minimum either way,
        and none falls back to the numpy row."""
        model, c, s = self.MODEL, (5.0, 5.0), 0.9
        angles = np.unwrap(np.arctan2(model._x0y, model._x0x))
        mids = (angles + np.append(angles[1:], angles[0] + 2 * np.pi)) / 2
        worlds = [DiscSet.of([(0, Obstacle(np.array(c) + 0.6 * np.array(
            [np.cos(mid), np.sin(mid)]), 0.2))]) for mid in mids]
        want = [world_min(model, c, s, world) for world in worlds]
        # the sample holding each row's minimum, against the first of the two
        holders = [int(np.argmin(model._gaps(c, s, w.centers, w.radii)[3][0])) for w in worlds]
        assert 0 < sum(h != k for k, h in enumerate(holders)) < len(mids)
        monkeypatch.setattr(RingShapeModel, "_gaps", None)  # no numpy row
        for world, d in zip(worlds, want):
            assert same_float(model.disc_clearance(*c, s, *world.rows[0][:3]), d)

    def test_centre_within_reach_takes_the_numpy_row(self, monkeypatch):
        """A disc whose centre lies inside the ring defeats the window's
        bound, and its row is ``_gaps``'; a disc well outside takes none."""
        model, calls = RingShapeModel(), []
        gaps = RingShapeModel._gaps
        monkeypatch.setattr(RingShapeModel, "_gaps", lambda *a: calls.append(1) or gaps(*a))
        for center, rows in (((5.1, 5.0), 1), ((5.0, 5.0), 1), ((7.0, 5.0), 0)):
            world = DiscSet.of([(0, Obstacle(np.array(center), 0.1))])
            calls.clear()
            got = model.disc_clearance(5.0, 5.0, 1.0, *world.rows[0][:3])
            assert len(calls) == rows
            assert same_float(got, world_min(model, (5.0, 5.0), 1.0, world))

    def test_scale_growth_keeps_the_discs_it_can_reach(self):
        """Held at scale 0.3 beside a small disc on its centre, the ring grows
        to 1.3 (a change of 0.4 m at its reach, inside HELD_REACH): a disc
        that the 2 s0 reach term alone keeps in the held set then holds the
        clearance."""
        model = self.MODEL
        c, s0, s1 = (5.0, 5.0), 0.3, 1.3
        gap = -0.05 + 2 * HELD_REACH + 0.015  # past min g + 2 HELD_REACH, within 2 s0 reach
        inner = Obstacle(np.array(c), 0.05)
        outer = Obstacle(np.array([c[0] + gap + 0.2, c[1]]), 0.2)
        rec, world = ring_recorder(model, [inner, outer]), DiscSet.of(enumerate([inner, outer]))
        assert same_float(rec.world_clearance(c, s0), world_min(model, c, s0, world))
        held = rec.held
        got = rec.world_clearance(c, s1)
        assert rec.held is held and len(held[3]) == 2
        assert same_float(got, world_min(model, c, s1, world))
        assert got == world_min(model, c, s1, DiscSet.of([(1, outer)])) \
            < world_min(model, c, s1, DiscSet.of([(0, inner)]))

    def test_scale_change_past_held_reach_forms_the_set_afresh(self):
        """Held at scale 0.25 beside a small disc on its centre, the ring
        grows to 2.5 (0.89 m at its reach, past HELD_REACH) without moving:
        the set is formed afresh, and the disc it first left out now holds
        the clearance."""
        model = self.MODEL
        c = (5.0, 5.0)
        inner = Obstacle(np.array(c), 0.05)
        outer = Obstacle(np.array([c[0] + 1.2 + 0.2, c[1]]), 0.2)  # gap 1.2
        rec, world = ring_recorder(model, [inner, outer]), DiscSet.of(enumerate([inner, outer]))
        assert same_float(rec.world_clearance(c, 0.25), world_min(model, c, 0.25, world))
        assert len(rec.held[3]) == 1
        got = rec.world_clearance(c, 2.5)
        assert len(rec.held[3]) == 2 and same_float(got, world_min(model, c, 2.5, world))
        assert got == world_min(model, c, 2.5, DiscSet.of([(1, outer)]))

    def test_samples_must_wind_once_about_the_centre(self):
        """The window's bound rests on the samples' angles increasing through
        one turn; a boundary traversed the other way is refused."""
        model = RingShapeModel()
        model._x0x, model._x0y = model._x0x[::-1].copy(), model._x0y[::-1].copy()
        with pytest.raises(ValueError, match="wind once"):
            model._angle_table()

    def test_rows_clearance_matches_min_clearance(self):
        """``rows_clearance`` against a DiscSet's rows, in and out of the
        float path: finite states, NaN and infinite frames, a NaN scale and
        no discs."""
        model, r = self.MODEL, np.random.default_rng(5)
        for _ in range(300):
            obstacles = [Obstacle(r.uniform(0, 10, 2), r.uniform(0.05, 1.0))
                         for _ in range(int(r.integers(0, 8)))]
            world = DiscSet.of(enumerate(obstacles))
            c = r.uniform(0, 10, 2)
            if r.random() < 0.2:
                c[int(r.integers(0, 2))] = r.choice([np.nan, np.inf, -np.inf])
            s = np.nan if r.random() < 0.05 else r.uniform(0.25, 1.3)
            got = model.rows_clearance(tuple(c.tolist()), s, world.rows)
            assert same_float(got, world_min(model, c, s, world))
        with pytest.raises(ValueError, match="degenerate ring"):
            model.rows_clearance((5.0, 5.0), 0.0, [])


def test_shoelace_unit_square():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert shoelace_area(sq) == pytest.approx(1.0)
