"""The ring's contact pass and the point robot's batched features against the
per-obstacle code they replaced.

``reference_obstacle_feature``, ``reference_min_clearance``,
``reference_point_feature`` and ``reference_features`` are that code, kept
as the oracle: one obstacle at a time, with its own boundary points,
distances, barrier and gradient.  The batched pass must give the same
numbers bit for bit (``np.array_equal``), in every branch of the barrier:
penetration, the clamped linear branch, the saturated plateau (d_hat > 6.97),
the log branch, beyond d_hat, and a sample (or the point robot) on a disc's
centre.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamnav import ring
from hamnav.dynamics import IntegratorConfig, rollout
from hamnav.energy import (
    BARRIER_CLAMP,
    POINT_LAYOUT,
    RING_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
    barrier_knots,
    evaluate,
    features,
    ipc_barrier,
    ipc_barrier_grad,
)
from hamnav.ring import RingShapeModel
from hamnav.workspace import DiscSet, Obstacle

from conftest import central_diff

MODEL = RingShapeModel()


def of(obstacles):
    """The DiscSet of a list of obstacles, obstacle i under id i."""
    return DiscSet.of(enumerate(obstacles))


def reference_obstacle_feature(model, q, obstacle, d_hat):
    c, s = q[2:4], float(q[5])
    pts = c[None, :] + s * model._x0
    delta = pts - obstacle.center[None, :]
    dist = np.linalg.norm(delta, axis=1)
    d = dist - obstacle.radius
    b = ipc_barrier(d, d_hat)
    db = ipc_barrier_grad(d, d_hat)
    w = model.basis.weights * obstacle.weight
    lengths = s * model._l0  # arc-length weights ||X'_j|| = s ||X0'_j||
    val = float(np.sum(w * lengths * b))
    grad = np.zeros_like(np.asarray(q, float))
    safe = dist > 1e-12
    unit = np.zeros_like(delta)
    unit[safe] = delta[safe] / dist[safe, None]
    coeff = w * lengths * db
    grad[2:4] = coeff @ unit
    grad[5] = float(np.sum(w * model._l0 * b)
                    + np.sum(coeff * np.einsum("ij,ij->i", unit, model._x0)))
    return val, grad


def reference_min_clearance(model, q, obstacles):
    if not obstacles:
        return np.inf
    pts = model.boundary(q)
    centers = np.stack([ob.center for ob in obstacles])
    radii = np.array([ob.radius for ob in obstacles])
    d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2) - radii[None, :]
    return float(d.min())


def reference_point_feature(q, layout, obstacle, d_hat):
    c = q[layout.frame]
    delta = c - obstacle.center
    dist = float(np.linalg.norm(delta))
    d = dist - obstacle.radius
    val = ipc_barrier(d, d_hat) * obstacle.weight
    grad = np.zeros_like(q)
    if dist < 1e-12:
        warnings.warn("configuration coincides with an obstacle center; "
                      "degenerate barrier gradient set to zero", RuntimeWarning)
        return val, grad
    grad[layout.frame] = obstacle.weight * ipc_barrier_grad(d, d_hat) * (delta / dist)
    return val, grad


def reference_features(q, pairs, d_hat, fixed):
    layout = fixed.layout
    m = len(pairs)
    phi = np.zeros(2 + m)
    grads = np.zeros((2 + m, q.size))
    diff = q[layout.frame] - fixed.goal
    phi[0] = float(np.dot(diff, diff))
    grads[0, layout.frame] = 2.0 * diff
    if fixed.shape is not None:
        phi[1], grads[1] = fixed.shape.obj_feature(q)
    for row, (_, ob) in enumerate(sorted(pairs, key=lambda kv: kv[0]), start=2):
        if fixed.shape is not None:
            phi[row], grads[row] = reference_obstacle_feature(fixed.shape, q, ob, d_hat)
        else:
            phi[row], grads[row] = reference_point_feature(q, layout, ob, d_hat)
    return phi, grads


GAP_KINDS = ("penetrating", "clamp", "saturated", "log", "beyond", "on_centre")


def gap_of(data, kind, d_hat, radius):
    """A signed distance of the requested branch from an anchor to a disc."""
    d_c, _, d_sat = barrier_knots(d_hat)
    fl = lambda lo, hi: data.draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    if kind == "penetrating":
        return fl(-radius, 0.0)
    if kind == "clamp":
        return fl(0.0, d_c)
    if kind == "saturated" and d_sat > 0:
        return fl(0.0, d_sat)
    if kind == "beyond":
        return fl(d_hat, 2.0 * d_hat)
    return fl(d_c, d_hat)


def draw_discs(data, anchors, d_hat, n):
    """n discs, each placed at a drawn gap outward from a drawn anchor row of
    ``anchors`` (a disc "on_centre" is centred exactly on its anchor)."""
    discs = []
    for _ in range(n):
        x = anchors[data.draw(st.integers(0, len(anchors) - 1))]
        kind = data.draw(st.sampled_from(GAP_KINDS))
        radius = data.draw(st.floats(0.05, 1.0))
        weight = data.draw(st.sampled_from([0.25, 1.7, 3.0]))
        if kind == "on_centre":
            center = x.copy()
        else:
            ang = data.draw(st.floats(0.0, 2 * np.pi))
            center = x + (gap_of(data, kind, d_hat, radius) + radius) * np.array(
                [np.cos(ang), np.sin(ang)])
        discs.append(Obstacle(center, radius, weight=weight))
    return discs


def ring_state(data):
    fl = lambda lo, hi: data.draw(st.floats(lo, hi))
    return np.array([fl(-1, 1), fl(-1, 1), fl(-2, 2), fl(-2, 2), fl(-3, 3), fl(0.25, 1.3)])


D_HATS = st.sampled_from([0.3, 1.0, 8.0])  # 8.0 > 6.97: the barrier saturates


class TestRingContactPass:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), D_HATS, st.data())
    def test_features_match_per_obstacle_loop(self, m, d_hat, data):
        q = ring_state(data)
        discs = draw_discs(data, MODEL.boundary(q), d_hat, m)
        vals, grads = MODEL.contact(q, of(discs)).features(d_hat)
        assert vals.shape == (m,) and grads.shape == (m, 6)
        for k, ob in enumerate(discs):
            val, grad = reference_obstacle_feature(MODEL, q, ob, d_hat)
            assert vals[k] == val
            assert np.array_equal(grads[k], grad)
            one_val, one_grad = MODEL.obstacle_feature(q, ob, d_hat)
            assert one_val == val and np.array_equal(one_grad, grad)

        # energy.features, with and without a pass made beforehand
        pairs = list(zip(data.draw(st.permutations(range(m))), discs))
        fixed = FixedTerms(layout=RING_LAYOUT, goal=np.array([1.0, -2.0]), d_hat=d_hat,
                           shape=MODEL)
        want_phi, want_grads = reference_features(q, pairs, d_hat, fixed)
        disc_set = DiscSet.of(pairs)
        for contact in (None, MODEL.contact(q, disc_set)):
            phi, grads = features(q, disc_set, fixed, contact)
            assert np.array_equal(phi, want_phi) and np.array_equal(grads, want_grads)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 8), D_HATS, st.data())
    def test_clearances_match_all_pairs(self, m, n_far, d_hat, data):
        q = ring_state(data)
        discs = draw_discs(data, MODEL.boundary(q), d_hat, m)
        want = reference_min_clearance(MODEL, q, discs)
        assert MODEL.contact(q, of(discs)).clearance == want
        assert MODEL.min_clearance(q, of(discs)) == want
        # a world: the drawn discs among others farther out and "twins" (a
        # disc turned about the ring's centre, within 1e-3 of its centre
        # distance: which of the two holds the minimum turns on the spline's
        # ripple), in any order; pruning drops discs, never the minimum
        c = q[2:4]
        far = [Obstacle(c + data.draw(st.floats(1.0, 15.0)) * np.array(
            [np.cos(a), np.sin(a)]), data.draw(st.floats(0.05, 1.0)))
            for a in data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n_far,
                                        max_size=n_far))]
        twins = []
        for ob in discs:
            a = data.draw(st.floats(0.0, 2 * np.pi))
            r = np.linalg.norm(ob.center - c) + data.draw(st.floats(-1e-3, 1e-3))
            twins.append(Obstacle(c + r * np.array([np.cos(a), np.sin(a)]), ob.radius))
        world = data.draw(st.permutations(discs + far + twins))
        assert MODEL.pruned_clearance(q, of(world)) == reference_min_clearance(MODEL, q, world)

    def test_no_discs(self):
        q = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 0.8])
        contact = MODEL.contact(q, of([]))
        vals, grads = contact.features(1.0)
        assert contact.clearance == np.inf and vals.shape == (0,) and grads.shape == (0, 6)
        assert MODEL.pruned_clearance(q, of([])) == np.inf

    def test_pass_for_other_discs_is_refused(self):
        q = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        a, b = Obstacle(np.array([0.9, 0.0]), 0.3), Obstacle(np.array([-0.9, 0.0]), 0.3)
        discs = of([a, b])
        fixed = FixedTerms(layout=RING_LAYOUT, goal=np.zeros(2), d_hat=1.0, shape=MODEL)
        # the same discs in another DiscSet object: the pass stands for its own set
        for other in (of([b, a]), of([a, b])):
            try:
                features(q, discs, fixed, MODEL.contact(q, other))
            except ValueError as e:
                assert "another disc set" in str(e)
            else:
                raise AssertionError("a pass made against another disc set was accepted")
        features(q, discs, fixed, MODEL.contact(q, discs))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_multi_obstacle_rows_match_finite_differences(self, m, data):
        """Each row of a multi-disc pass is the gradient of its own value.

        Every sample keeps d > 0.2 from every disc, so each row is smooth
        (the log branch, or zero beyond d_hat) within the difference step.
        """
        q = ring_state(data)
        d_hat = data.draw(st.sampled_from([0.8, 1.0, 1.5]))
        discs = []
        for _ in range(m):
            ang = data.draw(st.floats(0.0, 2 * np.pi))
            radius = data.draw(st.floats(0.1, 0.8))
            reach = 0.4 * q[5] * 1.01 + data.draw(st.floats(0.2, d_hat))
            discs.append(Obstacle(q[2:4] + (reach + radius) * np.array([np.cos(ang),
                                                                        np.sin(ang)]),
                                  radius, weight=data.draw(st.floats(0.5, 2.0))))
        vals, grads = MODEL.contact(q, of(discs)).features(d_hat)
        for k in range(m):
            fd = central_diff(
                lambda x: MODEL.contact(x, of(discs)).features(d_hat)[0][k], q, h=1e-7)
            np.testing.assert_allclose(grads[k], fd, rtol=1e-4, atol=1e-7)


def counting_general_path(mp):
    """Count the contact passes that take ``ipc_barrier_and_grad`` (the
    general path of ``ContactPass.features``) while ``mp`` is active."""
    calls = []
    general = ring.ipc_barrier_and_grad

    def counting(*args):
        calls.append(1)
        return general(*args)

    mp.setattr(ring, "ipc_barrier_and_grad", counting)
    return calls


def outward_discs(data, q, d_hat, n):
    """n discs, each beyond a drawn boundary sample on the ray from the ring's
    centre through it, at a gap on the log branch or beyond d_hat."""
    pts, c = MODEL.boundary(q), q[2:4]
    discs = []
    for _ in range(n):
        x = pts[data.draw(st.integers(0, len(pts) - 1))]
        kind = data.draw(st.sampled_from(("log", "beyond")))
        radius = data.draw(st.floats(0.05, 1.0))
        out = (x - c) / np.linalg.norm(x - c)
        discs.append(Obstacle(x + (gap_of(data, kind, d_hat, radius) + radius) * out, radius,
                              weight=data.draw(st.sampled_from([0.25, 1.7, 3.0]))))
    return discs


def disc_at_gap(gap, radius=2.0 ** -40):
    """A ring state and a disc whose clearance from it is ``gap``, bit for bit.

    The rightmost boundary sample lands on x = 0 exactly and the disc's centre
    at (gap + radius, the sample's y), so the sample's offset is
    (-(gap + radius), 0.0), its length gap + radius and its signed distance
    gap: each step is exact for a gap in [2**-9, 2**-8) and this radius.
    """
    j = int(np.argmax(MODEL._x0x))
    q = np.array([0.0, 0.0, -MODEL._x0x[j], 0.0, 0.0, 1.0])
    center = MODEL.boundary(q)[j] + np.array([gap + radius, 0.0])
    return q, Obstacle(center, radius)


class TestContactFastPath:
    """Passes whose every sample is on the log branch or beyond d_hat skip
    ``ipc_barrier_and_grad``, and give the oracle's bits."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([0.3, 0.8, 1.0, 1.5, 8.0]), st.data())
    def test_log_and_beyond_skip_the_general_path(self, m, d_hat, data):
        q = ring_state(data)
        discs = outward_discs(data, q, d_hat, m)
        d_c, b_c, _ = barrier_knots(d_hat)
        assert b_c <= BARRIER_CLAMP
        # the spline's ripple can bring a sample nearer than its anchor
        assume(MODEL.contact(q, of(discs)).clearance > d_c)
        fixed = FixedTerms(layout=RING_LAYOUT, goal=np.array([1.0, -2.0]), d_hat=d_hat,
                           shape=MODEL)
        want_phi, want_grads = reference_features(q, list(enumerate(discs)), d_hat, fixed)
        with pytest.MonkeyPatch.context() as mp:
            general = counting_general_path(mp)
            vals, grads = MODEL.contact(q, of(discs)).features(d_hat)
            phi, all_grads = features(q, of(discs), fixed)
        assert not general
        for k, ob in enumerate(discs):
            val, grad = reference_obstacle_feature(MODEL, q, ob, d_hat)
            assert vals[k] == val and np.array_equal(grads[k], grad)
        assert phi.tobytes() == want_phi.tobytes()
        assert all_grads.tobytes() == want_grads.tobytes()

    @pytest.mark.parametrize("d_hat, gap", [
        (0.8, "d_c"),         # the log branch's first sample: d < d_c is false
        (0.8, "below d_c"),   # one ulp inside the linear branch
        (8.0, 0.1),           # inside d_sat (0.265): the slope is zeroed
        (20.0, 4.0),          # past d_c (2.44) but inside d_sat (6.58): b(d_c) is 648
    ])
    def test_other_passes_take_the_general_path(self, monkeypatch, d_hat, gap):
        d_c, _, d_sat = barrier_knots(d_hat)
        if isinstance(gap, str):
            gap = d_c if gap == "d_c" else np.nextafter(d_c, 0.0)
            q, ob = disc_at_gap(gap)
            assert MODEL.contact(q, of([ob])).clearance == gap
        else:
            q = np.array([0.0, 0.0, 0.3, -0.2, 0.0, 0.9])
            x = MODEL.boundary(q)[17]
            out = (x - q[2:4]) / np.linalg.norm(x - q[2:4])
            ob = Obstacle(x + (gap + 0.5) * out, 0.5)
            assert MODEL.contact(q, of([ob])).clearance < d_sat
        general = counting_general_path(monkeypatch)
        val, grad = MODEL.obstacle_feature(q, ob, d_hat)
        assert general == [1]
        want_val, want_grad = reference_obstacle_feature(MODEL, q, ob, d_hat)
        assert val == want_val and grad.tobytes() == want_grad.tobytes()


class TestPointFeatures:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), D_HATS, st.data())
    def test_match_per_obstacle_loop(self, m, d_hat, data):
        fl = lambda lo, hi: data.draw(st.floats(lo, hi))
        q = np.array([fl(-1, 1), fl(-1, 1), fl(-3, 3), fl(-3, 3)])
        discs = draw_discs(data, q[None, 2:4], d_hat, m)
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([2.0, 1.0]), d_hat=d_hat)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want_phi, want_grads = reference_features(q, list(enumerate(discs)), d_hat, fixed)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            phi, grads = features(q, of(discs), fixed)
        assert np.array_equal(phi, want_phi) and np.array_equal(grads, want_grads)
        assert bool(warned) == bool(want_warned)


class TestRolloutContact:
    def test_one_pass_per_state(self, monkeypatch):
        """A 50-step ring rollout forms one contact pass per state (51), and
        records the energies and clearances of an evaluate and a
        min_clearance made apart, bit for bit."""
        model = RingShapeModel()
        model.s_target = 0.8
        discs = [Obstacle(np.array([2.0, 0.4]), 0.5), Obstacle(np.array([1.2, -1.0]), 0.4),
                 Obstacle(np.array([0.9, 0.9]), 0.3, 2.0)]
        goal = np.array([4.0, 0.0])
        # ids out of order: the feature rows are sorted, the pairs are not
        disc_set = DiscSet.of([(4, discs[0]), (1, discs[1]), (2, discs[2])])
        w = EnergyWeights(beta=1.3, lam=0.9, alpha={4: 0.8, 1: 1.7, 2: 1.1})
        fixed = FixedTerms(layout=RING_LAYOUT, goal=goal, d_hat=1.5, sensor_gain=0.7,
                           shape=model)
        spec = HamiltonianSpec(np.array([1, 1, 1, 1, 1, 4.0]), w, disc_set, fixed)
        z0 = PhaseState(np.array([0.1, -0.2, 0.0, 0.0, 0.0, 1.0]),
                        np.array([0.0, 0.0, 0.3, 0.1, 0.0, -0.05]))
        made = []
        init = ring.ContactPass.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ring.ContactPass, "__init__", counting_init)
        traj = rollout(z0, spec, IntegratorConfig(0.02, 50), mu=0.5)
        monkeypatch.undo()
        assert len(traj) == 51 and not traj.diverged
        assert len(made) == 51
        want_H = [evaluate(z.q, spec, z.p).H for z in traj.states]
        want_clr = [model.min_clearance(z.q, disc_set) for z in traj.states]
        assert np.array_equal(traj.energies, want_H)
        assert np.array_equal(traj.clearances, want_clr)
        assert traj.clearances.min() < 1.5  # the barrier is active on the way
