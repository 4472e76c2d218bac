"""The ring's contact pass and the point robot's batched features against the
per-obstacle code they replaced.

``reference_obstacle_feature``, ``reference_min_clearance``,
``reference_point_feature`` and ``reference_features`` are that code, kept
as the oracle: one obstacle at a time, with its own boundary points,
distances, barrier and gradient, in the portable arithmetic (norms as
square roots of summed squares, contractions as elementwise products
summed).  The batched pass must give the same numbers bit for bit
(``np.array_equal``), in every branch of the barrier: penetration, the
clamped linear branch, the saturated plateau (d_hat > 6.97), the log branch,
beyond d_hat, and a sample (or the point robot) on a disc's centre.  With
``linalg=True`` the oracle takes its contractions from ``np.dot`` and ``@``
instead (BLAS kernels, whose bits depend on the CPU), and the pass must
agree with it to rounding (``assert_linalg_close``).  Its distances stay
the portable ones: an ulp there can cross a branch of the barrier (the
norms are checked against ``np.linalg.norm`` in test_workspace.py).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamnav import energy, ring
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
    potential_grads,
)
from hamnav.ring import RingShapeModel
from hamnav.workspace import DiscSet, Obstacle

from conftest import central_diff

MODEL = RingShapeModel()


def of(obstacles):
    """The DiscSet of a list of obstacles, obstacle i under id i."""
    return DiscSet.of(enumerate(obstacles))


def assert_linalg_close(got, want):
    """The portable result against the np.linalg oracle, to rounding: sums of
    up to 240 terms of magnitude up to about 1e3, which may cancel."""
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def reference_obstacle_feature(model, q, obstacle, d_hat, linalg=False):
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
    if linalg:
        grad[2:4] = coeff @ unit
    else:
        grad[2:4] = (coeff * unit[:, 0]).sum(), (coeff * unit[:, 1]).sum()
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
    dx, dy = delta.tolist()
    dist = math.sqrt(dx * dx + dy * dy)
    d = dist - obstacle.radius
    val = ipc_barrier(d, d_hat) * obstacle.weight
    grad = np.zeros_like(q)
    if dist < 1e-12:
        warnings.warn("configuration coincides with an obstacle center; "
                      "degenerate barrier gradient set to zero", RuntimeWarning)
        return val, grad
    grad[layout.frame] = obstacle.weight * ipc_barrier_grad(d, d_hat) * (delta / dist)
    return val, grad


def reference_features(q, pairs, d_hat, fixed, linalg=False):
    layout = fixed.layout
    m = len(pairs)
    phi = np.zeros(2 + m)
    grads = np.zeros((2 + m, q.size))
    diff = q[layout.frame] - fixed.goal
    dx, dy = diff.tolist()
    phi[0] = float(np.dot(diff, diff)) if linalg else dx * dx + dy * dy
    grads[0, layout.frame] = 2.0 * diff
    if fixed.shape is not None:
        phi[1], grads[1] = fixed.shape.obj_feature(q)
    for row, (_, ob) in enumerate(sorted(pairs, key=lambda kv: kv[0]), start=2):
        if fixed.shape is not None:
            phi[row], grads[row] = reference_obstacle_feature(fixed.shape, q, ob, d_hat, linalg)
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
            assert_linalg_close(grads[k], reference_obstacle_feature(MODEL, q, ob, d_hat,
                                                                     linalg=True)[1])

        # energy.features, with and without a pass made beforehand
        pairs = list(zip(data.draw(st.permutations(range(m))), discs))
        fixed = FixedTerms(layout=RING_LAYOUT, goal=np.array([1.0, -2.0]), d_hat=d_hat,
                           shape=MODEL)
        want_phi, want_grads = reference_features(q, pairs, d_hat, fixed)
        disc_set = DiscSet.of(pairs)
        for contact in (None, MODEL.contact(q, disc_set)):
            phi, grads = features(q, disc_set, fixed, contact)
            assert np.array_equal(phi, want_phi) and np.array_equal(grads, want_grads)
        for got, want in zip((phi, grads), reference_features(q, pairs, d_hat, fixed, True)):
            assert_linalg_close(got, want)

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
        # ripple), in any order; the float clearance over the world's rows
        # prunes discs and windows samples, never the minimum
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
        assert MODEL.rows_clearance(q[2:4], q[5], of(world).rows) == \
            reference_min_clearance(MODEL, q, world)

    def test_no_discs(self):
        q = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 0.8])
        contact = MODEL.contact(q, of([]))
        vals, grads = contact.features(1.0)
        assert contact.clearance == np.inf and vals.shape == (0,) and grads.shape == (0, 6)
        assert MODEL.rows_clearance(q[2:4], q[5], of([]).rows) == np.inf

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
    """Count the barrier evaluations that take ``ipc_barrier_and_grad`` (the
    general path of ``energy.contact_barrier``, which both robots' contact
    terms call) while ``mp`` is active."""
    calls = []
    general = energy.ipc_barrier_and_grad

    def counting(*args):
        calls.append(1)
        return general(*args)

    mp.setattr(energy, "ipc_barrier_and_grad", counting)
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
            phi, all_grads = features_as_arrays(q, of(discs), fixed)
        assert not general
        for k, ob in enumerate(discs):
            val, grad = reference_obstacle_feature(MODEL, q, ob, d_hat)
            assert vals[k] == val and np.array_equal(grads[k], grad)
        assert phi.tobytes() == want_phi.tobytes()
        assert all_grads.tobytes() == want_grads.tobytes()
        linalg = reference_features(q, list(enumerate(discs)), d_hat, fixed, linalg=True)
        assert_linalg_close(phi, linalg[0])
        assert_linalg_close(all_grads, linalg[1])

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
        assert_linalg_close(grad, reference_obstacle_feature(MODEL, q, ob, d_hat, linalg=True)[1])


def general_point_path(mp):
    """Make ``energy.contact_barrier`` take ``ipc_barrier_and_grad`` on every
    input, and ``features`` its array path, while ``mp`` is active: the point
    robot's barrier terms without the fast path."""
    mp.setattr(energy, "contact_barrier", lambda d, d_hat, d_min: energy.ipc_barrier_and_grad(d, d_hat))
    mp.setattr(energy, "_point_barrier_floats", lambda cx, cy, discs, d_hat: None)


def features_as_arrays(*args):
    """``features``' phi and gradient rows as arrays."""
    phi, grads = features(*args)
    return np.array(phi), np.array(grads)


def point_state(data):
    fl = lambda lo, hi: data.draw(st.floats(lo, hi))
    return np.array([fl(-1, 1), fl(-1, 1), fl(-3, 3), fl(-3, 3)])


class TestPointFastPath:
    """Point states whose every disc is beyond the clamp distance d_c take the
    fast path of ``contact_barrier``, skip ``ipc_barrier_and_grad``, and give
    the general path's bits in ``features`` and ``potential_grads``."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.sampled_from([0.3, 0.8, 1.0, 1.5, 8.0]),
           st.data())
    def test_log_and_beyond_skip_the_general_path(self, m, batch, d_hat, data):
        qs = np.array([point_state(data) for _ in range(batch)])
        d_c, b_c, _ = barrier_knots(d_hat)
        assert b_c <= BARRIER_CLAMP
        discs = []
        for _ in range(m):  # a disc beyond d_c of the first state
            kind = data.draw(st.sampled_from(("log", "beyond")))
            radius = data.draw(st.floats(0.05, 1.0))
            ang = data.draw(st.floats(0.0, 2 * np.pi))
            gap = gap_of(data, kind, d_hat, radius)
            discs.append(Obstacle(qs[0, 2:4] + (gap + radius) * np.array([np.cos(ang), np.sin(ang)]),
                                  radius, weight=data.draw(st.sampled_from([0.25, 1.7, 3.0]))))
        disc_set = of(discs)
        # rounding can bring a drawn gap just under d_c; the other states are
        # free draws, so any of them may be in contact
        assume(disc_set.clearance(qs[0, 2:4]) > d_c)
        free = [b for b in range(batch) if disc_set.clearance(qs[b, 2:4]) > d_c]
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([2.0, 1.0]), d_hat=d_hat)
        eta = np.array([[data.draw(st.floats(0.0, 3.0)) for _ in range(2 + m)] for _ in qs])
        with pytest.MonkeyPatch.context() as mp:
            general = counting_general_path(mp)
            phi, grads = features_as_arrays(qs[0], disc_set, fixed)
            rows = potential_grads(qs[free], eta[free], disc_set, fixed)
        assert not general
        with pytest.MonkeyPatch.context() as mp:
            general_point_path(mp)
            want_phi, want_grads = features_as_arrays(qs[0], disc_set, fixed)
            want_rows = potential_grads(qs[free], eta[free], disc_set, fixed)
        assert phi.tobytes() == want_phi.tobytes() and grads.tobytes() == want_grads.tobytes()
        assert rows.tobytes() == want_rows.tobytes()
        oracle = reference_features(qs[0], list(enumerate(discs)), d_hat, fixed)
        assert phi.tobytes() == oracle[0].tobytes() and grads.tobytes() == oracle[1].tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d_hat, case", [
        (0.8, "d_c"),          # the clearance is d_c itself: d > d_c is false
        (0.8, "contact"),      # inside d_c, on the linear branch
        (0.8, "penetration"),
        (8.0, "contact"),      # inside d_sat (0.265): the slope is zeroed
        (20.0, 4.0),           # past d_c (2.44) but b(d_c) is 648, above the clamp
        (0.8, "nan"),
        (0.8, "+inf"),
        (0.8, "-inf"),
    ])
    def test_other_states_take_the_general_path(self, monkeypatch, d_hat, case):
        d_c, _, _ = barrier_knots(d_hat)
        ob = Obstacle(np.array([0.5, 0.25]), 0.75)
        gap = {"d_c": d_c, "contact": 0.5 * d_c, "penetration": -0.25}.get(case, case)
        q = np.array([0.1, -0.2, 0.5 + 0.75, 0.25])
        if isinstance(gap, float):
            q[2] += gap
        else:
            q[2] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[gap]
        if case == "d_c":  # 0.5 + 0.75 + d_c - 0.5 - 0.75 may round off d_c
            assert of([ob]).clearance(q[2:4]) <= d_c
        fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.array([2.0, 1.0]), d_hat=d_hat)
        general = counting_general_path(monkeypatch)
        phi, grads = features_as_arrays(q, of([ob]), fixed)
        rows = potential_grads(q[None], np.ones((1, 3)), of([ob]), fixed)
        assert general == [1, 1]
        with warnings.catch_warnings():  # the oracle divides inf by inf
            warnings.simplefilter("ignore")
            want_phi, want_grads = reference_features(q, [(0, ob)], d_hat, fixed)
        assert phi.tobytes() == want_phi.tobytes() and grads.tobytes() == want_grads.tobytes()
        if math.isfinite(q[2]):
            assert rows.tobytes() == evaluate(q, HamiltonianSpec(
                np.ones(4), EnergyWeights(1.0, 1.0, {0: 1.0}), of([ob]), fixed)).grad[None].tobytes()


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            linalg = reference_features(q, list(enumerate(discs)), d_hat, fixed, linalg=True)
        assert_linalg_close(phi, linalg[0])
        assert_linalg_close(grads, linalg[1])


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
