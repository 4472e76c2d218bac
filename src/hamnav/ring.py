"""Hyperelastic ring with a periodic cubic B-spline boundary.

Shape is a single degree of freedom: a uniform scale s > 0 about the ring
center.  Control points are P_i = o + s * P0_i, boundary samples come from
precomputed basis matrices, X_j = sum_i B_ji P_i, and the contact energy is a
quadrature over boundary samples of the IPC barrier.  A clearance-dependent
scale target feeds a quadratic bulk (area) potential, which is what lets the
ring squeeze through gaps narrower than its rest diameter.

The contact pass (``ContactPass``) takes its barrier from
``energy.contact_barrier``, the barrier kernel of both robots, whose fast
path (no sample within the clamp distance d_c of a disc) is two ``np.where``
over the (M, K) grid.  A pass against no discs forms no grid: its clearance
is +inf and its features are empty.

Each ring state costs one gap pass, against the navigator's active set.
That pass is not the world's bound: the ground-truth clearance against the
whole world (``rows_clearance``) is Python floats over a candidate set that
the episode recorder holds (``navigator.EpisodeRecorder.world_clearance``).
Each disc's least distance comes from the few boundary samples nearest in
angle to its centre (``disc_clearance``), which a bound on every other sample
proves to hold the row's minimum; where it does not, the disc takes its
numpy row.  Either way the clearance is ``min_clearance``'s float.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .energy import RING_LAYOUT, contact_barrier
from .workspace import DiscSet, row_norms

# disc_clearance's window: the boundary samples within this many of the one
# nearest in angle to a disc's centre
WINDOW = 1


@dataclass(frozen=True)
class RingParams:
    r_base: float = 0.4
    n_ctrl: int = 20
    n_samples: int = 240  # K
    k_bulk: float = 1.5
    mass_scale: float = 1.0  # M_s
    s_min: float = 0.5  # s_0
    delta: float = 2.0  # tanh rate of the scale target

    def __post_init__(self):
        if self.n_samples < 4 * self.n_ctrl:
            raise ValueError(f"n_samples={self.n_samples} is below 4 * n_ctrl = "
                             f"{4 * self.n_ctrl} (K >= 4 n boundary samples)")


@dataclass(frozen=True)
class SplineBasis:
    """Sample matrix B, parametric derivative D, quadrature weights 1/K."""

    B: np.ndarray
    D: np.ndarray
    weights: np.ndarray


def reference_control_points(n_ctrl: int, r_base: float) -> np.ndarray:
    """Rest control polygon: r_base * (cos, sin)(2 pi i / n), i = 1..n."""
    if n_ctrl < 3:
        raise ValueError("need at least 3 control points")
    ang = 2.0 * np.pi * np.arange(1, n_ctrl + 1) / n_ctrl
    return r_base * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def spline_basis(n_ctrl: int, K: int) -> SplineBasis:
    """Uniform-knot periodic cubic B-spline sampled at K uniform parameters.

    Row j of B holds the four nonzero cubic basis values at u_j = j/K; D is
    the exact derivative with respect to u.  Rows of B sum to one, rows of D
    sum to zero.
    """
    u = np.arange(K) / K
    s = u * n_ctrl  # one spline segment per control point
    seg = np.floor(s).astype(int) % n_ctrl
    t = s - np.floor(s)
    B = np.zeros((K, n_ctrl))
    D = np.zeros((K, n_ctrl))
    b_w = np.stack([
        (1 - t) ** 3,
        3 * t ** 3 - 6 * t ** 2 + 4,
        -3 * t ** 3 + 3 * t ** 2 + 3 * t + 1,
        t ** 3,
    ], axis=1) / 6.0
    d_w = np.stack([
        -3 * (1 - t) ** 2,
        9 * t ** 2 - 12 * t,
        -9 * t ** 2 + 6 * t + 3,
        3 * t ** 2,
    ], axis=1) * (n_ctrl / 6.0)
    rows = np.arange(K)
    for off in range(4):
        cols = (seg + off - 1) % n_ctrl
        B[rows, cols] += b_w[:, off]
        D[rows, cols] += d_w[:, off]
    return SplineBasis(B=B, D=D, weights=np.full(K, 1.0 / K))


def scale_target(d_min: float, s_0: float, delta: float) -> float:
    """Clearance-dependent target scale in [s_0, 1)."""
    if not (0 < s_0 < 1) or delta <= 0:
        raise ValueError("need 0 < s_0 < 1 and delta > 0")
    return s_0 + (1.0 - s_0) * np.tanh(delta * max(float(d_min), 0.0))


def bulk_potential(s: float, s_target: float, k_bulk: float, a_ref: float) -> float:
    """(k/2) (A(s) - A(s_target))^2 with A(s) = s^2 A_ref."""
    if s <= 0 or s_target <= 0:
        raise ValueError("scales must be > 0")
    return 0.5 * k_bulk * (s * s * a_ref - s_target * s_target * a_ref) ** 2


def bulk_potential_grad(s: float, s_target: float, k_bulk: float, a_ref: float) -> float:
    """d/ds of bulk_potential: 2 k A_ref s (A(s) - A(s_target))."""
    return 2.0 * k_bulk * a_ref * s * (s * s * a_ref - s_target * s_target * a_ref)


def shoelace_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(float((x * np.roll(y, -1)).sum() - (y * np.roll(x, -1)).sum()))


class RingShapeModel:
    """Shape coupling plugged into the energy module's FixedTerms.

    Works on the 6-dim layout (sensor y, frame c, angle, scale s).  The scale
    target is refreshed once per shape horizon by the navigator and treated
    as frozen inside energy/gradient evaluations.
    """

    layout = RING_LAYOUT

    def __init__(self, params: RingParams = None):
        self.params = params or RingParams()
        self.basis = spline_basis(self.params.n_ctrl, self.params.n_samples)
        p0 = reference_control_points(self.params.n_ctrl, self.params.r_base)
        # B p0 and D p0 as products summed over the control points (no BLAS)
        self._x0 = (self.basis.B[:, :, None] * p0).sum(axis=1)  # unit-scale boundary offsets
        self._x0x, self._x0y = (np.ascontiguousarray(col) for col in self._x0.T)
        self._x0xs, self._x0ys = self._x0x.tolist(), self._x0y.tolist()
        self._l0 = row_norms((self.basis.D[:, :, None] * p0).sum(axis=1))
        self.a_ref = shoelace_area(self._x0)  # rest area from the s=1 boundary
        # every sample's distance from the centre at unit scale, rounded up far
        # past the rounding error of the distances it bounds
        self.reach = float(np.max(row_norms(self._x0))) * (1.0 + 1e-9) + 1e-12
        self._angles = self._angle_table()
        self.s_target = 1.0
        self._rows = (None, None, None)  # (discs, w, w * l0) of the last pass's DiscSet
        # the (0, K) planes of a pass against no discs
        self._no_gaps = np.zeros((0, len(self._x0)))
        self._no_gaps.flags.writeable = False

    def _angle_table(self):
        """(phi0, angles, index) for ``disc_clearance``: the samples' angles
        about the centre, unwrapped from sample 0's angle phi0, padded by
        WINDOW + 3 samples at either end of the turn [0, 2 pi], and the sample
        each entry stands for.  The spline of the convex rest polygon winds
        once about the centre, so the angles increase through less than a
        turn; the window's bound rests on that, so it is checked."""
        phi = np.unwrap(np.arctan2(self._x0y, self._x0x))
        rel = (phi - phi[0]).tolist()
        if not (np.all(np.diff(phi) > 0) and rel[-1] < math.tau):
            raise ValueError("ring boundary samples do not wind once about the centre")
        K, pad = len(rel), WINDOW + 3
        index = [(e - pad) % K for e in range(K + 2 * pad)]
        angles = [rel[j] + math.tau * ((e - pad) // K) for e, j in enumerate(index)]
        return float(phi[0]), angles, index

    def _unpack(self, q):
        """The frame (a float pair) and the scale of q, a list or a vector."""
        fx = self.layout.frame.start
        s = float(q[self.layout.scale.start])
        if s <= 0:
            raise ValueError("degenerate ring: scale must be > 0")
        return (float(q[fx]), float(q[fx + 1])), s

    def boundary(self, q) -> np.ndarray:
        c, s = self._unpack(q)
        return s * self._x0 + c

    def _gaps(self, c, s, centers, radii):
        """(dx, dy, dist, d): the (M, K) planes of offsets from each disc's
        centre to the boundary samples at frame c and scale s, their lengths
        and the signed distances (``row_norms`` of the offsets, bit for bit)."""
        dx = (c[0] + s * self._x0x) - centers[:, 0, None]
        dy = (c[1] + s * self._x0y) - centers[:, 1, None]
        dist = np.sqrt(dx * dx + dy * dy)
        return dx, dy, dist, dist - radii[:, None]

    def _weight_rows(self, discs: DiscSet):
        """(w, w * l0): the quadrature weights times each disc's weight, and
        those times the rest arc lengths, formed once per DiscSet (a DiscSet
        is never modified, so the object stands for its weights)."""
        held, w, wl0 = self._rows
        if held is not discs:
            w = self.basis.weights[None, :] * discs.weights[:, None]
            wl0 = w * self._l0
            self._rows = (discs, w, wl0)
        return w, wl0

    def obj_feature(self, q):
        """Bulk potential and its gradient over q (scale coordinate only), in
        Python floats: (value, gradient list)."""
        _, s = self._unpack(q)
        val = bulk_potential(s, self.s_target, self.params.k_bulk, self.a_ref)
        grad = [0.0] * len(q)
        grad[self.layout.scale.start] = float(
            bulk_potential_grad(s, self.s_target, self.params.k_bulk, self.a_ref))
        return float(val), grad

    def contact(self, q, discs: DiscSet) -> "ContactPass":
        """The contact pass of the ring at q against a DiscSet."""
        return ContactPass(self, q, discs)

    def obstacle_feature(self, q, obstacle, d_hat):
        """Boundary-integrated barrier against one obstacle, with gradient."""
        vals, grads = self.contact(q, DiscSet.of([(0, obstacle)])).features(d_hat)
        return float(vals[0]), grads[0]

    def min_clearance(self, q, discs: DiscSet) -> float:
        """Least signed distance from a boundary sample to a disc (+inf for none)."""
        return self.contact(q, discs).clearance

    def disc_clearance(self, cx, cy, s, x, y, r) -> float:
        """The least signed distance from the boundary samples at frame
        (cx, cy) and scale s to the disc of centre (x, y) and radius r, all
        finite floats: ``min_clearance`` against that one disc, bit for bit.

        It takes the samples within WINDOW of the one nearest in angle to the
        centre's offset v = (x, y) - c, by ``_gaps``' formula in floats.  Every
        other sample lies at an angle of at least e from v, e being the angle
        to the nearer of the window's two outer neighbours (the samples' angles
        increase), so its offset s x0_j is at least |v| - s reach max(cos e, 0)
        from v: v's length less the offset's projection on v.  Where that
        bound, less r, exceeds the window's minimum by 1e-9 (far past the
        float error of either), the window holds the row's minimum; otherwise
        (a centre within about the ring's reach) the row is ``_gaps``'.
        """
        phi0, angles, index = self._angles
        vx, vy = x - cx, y - cy
        t = (math.atan2(vy, vx) - phi0) % math.tau
        i = bisect_right(angles, t)
        n = i - 1 if t - angles[i - 1] <= angles[i] - t else i
        xs, ys = self._x0xs, self._x0ys
        best = math.inf
        for j in index[n - WINDOW:n + WINDOW + 1]:
            dx, dy = (cx + s * xs[j]) - x, (cy + s * ys[j]) - y
            d = math.sqrt(dx * dx + dy * dy) - r
            if d < best:
                best = d
        edge = min(t - angles[n - WINDOW - 1], angles[n + WINDOW + 1] - t)
        if math.sqrt(vx * vx + vy * vy) - s * self.reach * max(math.cos(edge), 0.0) - r \
                > best + 1e-9:
            return best
        return float(self._gaps((cx, cy), s, np.array([[x, y]]), np.array([r]))[3].min())

    def rows_clearance(self, c, s, rows) -> float:
        """``min_clearance`` at frame c and scale s against the discs of
        ``rows``, (x, y, radius, weight) float tuples as ``DiscSet.rows``
        holds them, in Python floats: the same float.

        It visits the discs in order of their lower bound g - s reach (g, the
        centre's distance less the radius, is within s reach of every sample's)
        and stops once that bound exceeds the least row minimum so far by
        1e-9; each row minimum is ``disc_clearance``'s.  A non-finite frame or
        scale takes ``_gaps``' grid over every disc (NaN included), as
        ``min_clearance`` does; a disc is finite (``Obstacle`` checks it).
        """
        if s <= 0:
            raise ValueError("degenerate ring: scale must be > 0")
        if not rows:
            return math.inf
        cx, cy = c
        if not (math.isfinite(cx) and math.isfinite(cy) and math.isfinite(s)):
            return float(self._gaps(c, s, np.array([row[:2] for row in rows]),
                                    np.array([row[2] for row in rows]))[3].min())
        reach, best = s * self.reach, math.inf
        gaps = [(math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) - r, x, y, r)
                for x, y, r, _ in rows]
        gaps.sort()
        for g, x, y, r in gaps:
            if g - reach > best + 1e-9:
                break
            d = self.disc_clearance(cx, cy, s, x, y, r)
            if d < best:
                best = d
        return best

    def refresh_target(self, d_min):
        """Re-evaluate the clearance-dependent scale target (per shape horizon)
        from the ring's clearance ``d_min`` (``min_clearance``, +inf with no
        discs)."""
        if np.isinf(d_min):
            d_min = 10.0 / self.params.delta  # saturated tanh: expand in free space
        self.s_target = scale_target(d_min, self.params.s_min, self.params.delta)
        return self.s_target


class ContactPass:
    """The ring at one state against a DiscSet, formed once.

    ``d[m, j]`` is the signed distance from boundary sample j to disc m of
    ``discs``; ``dx`` and ``dy`` are the offsets' contiguous (M, K) planes.
    Each disc's samples are one contiguous row, so a per-disc sum over the
    samples reduces a (K,) row, as a loop over the discs would, and gives the
    same bits.  The clearance is formed with the pass; the barrier features
    when ``features`` is called.  Against no discs the planes are the model's
    read-only (0, K) planes, the clearance is +inf and no gap is formed.

    The pass serves the navigator's sensed discs only: the ground-truth
    clearance against the world is ``RingShapeModel.rows_clearance``'s, over
    the episode recorder's held candidates, and takes nothing from a pass.

    ``features`` takes the barrier and its slope over the grid from
    ``energy.contact_barrier``, the clearance as their least distance.  The
    unit offsets are a plain division when the clearance is finite and above
    1e-12 (then so is every offset, a radius being positive); otherwise a
    degenerate offset (a sample on a centre, or a NaN) gets a zero direction.
    """

    def __init__(self, model: RingShapeModel, q, discs: DiscSet):
        c, s = model._unpack(q)
        self.model, self.s, self.dim, self.discs = model, s, len(q), discs
        if len(discs):
            self.dx, self.dy, self.dist, self.d = model._gaps(c, s, discs.centers, discs.radii)
            self.clearance = float(self.d.min())
        else:
            self.dx = self.dy = self.dist = self.d = model._no_gaps
            self.clearance = np.inf

    def features(self, d_hat):
        """Each disc's boundary-integrated barrier and its gradient over q.

        Returns (M,) values and (M, dim) gradients.  d_mj depends on the frame
        through X_j and on the scale through both X_j and the arc weights
        l_j = s * l0_j.
        """
        if not len(self.discs):
            return np.zeros(0), np.zeros((0, self.dim))
        model, layout, d, dist = self.model, self.model.layout, self.d, self.dist
        w, wl0 = model._weight_rows(self.discs)
        wl = w * (self.s * model._l0)
        b, db = contact_barrier(d, d_hat, self.clearance)
        if 1e-12 < self.clearance < math.inf:  # every offset is finite and longer than 1e-12
            ux, uy = self.dx / dist, self.dy / dist  # the unit offsets' planes
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                ux, uy = self.dx / dist, self.dy / dist
            degenerate = ~(dist > 1e-12)
            ux[degenerate] = uy[degenerate] = 0.0
        vals = np.add.reduce(wl * b, axis=1)
        coeff = wl * db
        grads = np.zeros((len(vals), self.dim))
        # each disc's row sums its own (K,) products, as a loop over the discs would
        fx = layout.frame.start
        grads[:, fx] = np.add.reduce(coeff * ux, axis=1)
        grads[:, fx + 1] = np.add.reduce(coeff * uy, axis=1)
        radial = ux * model._x0x + uy * model._x0y  # unit . X0_j
        grads[:, layout.scale] = (np.add.reduce(wl0 * b, axis=1)
                                  + np.add.reduce(coeff * radial, axis=1))[:, None]
        return vals, grads
