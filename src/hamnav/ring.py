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

Each ring state costs one gap pass.  The ground-truth clearance against the
whole world (``pruned_clearance``) takes the navigator's pass at the same
state as an exact upper bound U when every disc of that pass is the world's
disc of its id, byte for byte: each row of the gap grid depends only on its
own disc, so the pass's rows are the world's rows, U is the least of them,
and only the world discs the pass left out whose lower bound is below U
need a row of their own.  ``min`` is exact, so the clearance is the same
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import RING_LAYOUT, contact_barrier
from .workspace import DiscSet, row_norms


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
        self._l0 = row_norms((self.basis.D[:, :, None] * p0).sum(axis=1))
        self.a_ref = shoelace_area(self._x0)  # rest area from the s=1 boundary
        # every sample's distance from the centre at unit scale, rounded up far
        # past the rounding error of the distances it bounds
        self._reach = float(np.max(row_norms(self._x0))) * (1.0 + 1e-9) + 1e-12
        self.s_target = 1.0
        self._rows = (None, None, None)  # (discs, w, w * l0) of the last pass's DiscSet
        # the (0, K) planes of a pass against no discs
        self._no_gaps = np.zeros((0, len(self._x0)))
        self._no_gaps.flags.writeable = False
        # (world, held, the DiscSet of the world's discs not in held, or None
        # when a held row differs from the world's) of the last bound asked for
        self._held_rows = (None, None, None)

    def _unpack(self, q):
        c = q[self.layout.frame]
        s = float(q[self.layout.scale][0])
        if s <= 0:
            raise ValueError("degenerate ring: scale must be > 0")
        return c, s

    def boundary(self, q) -> np.ndarray:
        c, s = self._unpack(q)
        return c[None, :] + s * self._x0

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
        """Bulk potential and its gradient over q (scale coordinate only)."""
        _, s = self._unpack(q)
        val = bulk_potential(s, self.s_target, self.params.k_bulk, self.a_ref)
        grad = np.zeros(np.shape(q))
        grad[self.layout.scale] = bulk_potential_grad(s, self.s_target, self.params.k_bulk, self.a_ref)
        return val, grad

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

    def pruned_clearance(self, q, discs: DiscSet, held: "ContactPass" = None) -> float:
        """``min_clearance``, skipping the discs that cannot hold the minimum.

        A disc whose lower bound (centre distance - ring reach - radius) is
        above an upper bound of the minimum cannot hold it and is skipped; the
        minimum over the rest is the same number, bit for bit.  The upper
        bound is the smallest of the discs' own (centre distance + reach -
        radius), or, when ``held`` gives one (``_held_bound``), the clearance
        of ``held``, a contact pass at q: then only the discs outside the pass
        are candidates, and the result is the least of that clearance and
        their rows (``min`` is exact, so it is the same float).
        """
        if not len(discs):
            return np.inf
        c, s = self._unpack(q)
        bound = self._held_bound(c, s, discs, held)
        upper, discs = (None, discs) if bound is None else bound
        if not len(discs):
            return upper
        reach = s * self._reach
        off = discs.centers - c
        gap = np.hypot(off[:, 0], off[:, 1]) - discs.radii
        if upper is None:
            keep = ~(gap - reach > np.min(gap + reach))  # NaN keeps every disc
            return float(self._gaps(c, s, discs.centers[keep], discs.radii[keep])[3].min())
        keep = ~(gap - reach > upper)
        if not keep.any():
            return upper
        # the rows' minimum first, so that a NaN row keeps its NaN
        return min(float(self._gaps(c, s, discs.centers[keep], discs.radii[keep])[3].min()), upper)

    def _held_bound(self, c, s, discs: DiscSet, held):
        """(U, others): the clearance U of ``held`` and the DiscSet of the
        discs of ``discs`` it leaves out, when ``held`` is this model's pass at
        frame c and scale s, U is finite, and each disc of the pass is the
        disc of that id in ``discs``, centre and radius byte for byte; else
        None (jittered rows, an empty pass, a NaN, another state).  The row
        check is made once per pair of DiscSet objects, which are never
        modified."""
        if (held is None or held.model is not self or not math.isfinite(held.clearance)
                or held.at != (float(c[0]), float(c[1]), s)):
            return None
        world, rows, others = self._held_rows
        if world is not discs or rows is not held.discs:
            rows, others = held.discs, None
            at = np.searchsorted(discs.ids, rows.ids)
            if (at < len(discs)).all() and (discs.ids[at] == rows.ids).all() \
                    and discs.centers[at].tobytes() == rows.centers.tobytes() \
                    and discs.radii[at].tobytes() == rows.radii.tobytes():
                outside = np.ones(len(discs), bool)
                outside[at] = False
                others = discs[outside]
            self._held_rows = (discs, rows, others)
        return None if others is None else (held.clearance, others)

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

    ``RingShapeModel.pruned_clearance`` takes ``clearance`` as the exact upper
    bound of the world's clearance at the pass's state (``at``: frame and
    scale) when every disc of the pass is the world's disc of its id, byte
    for byte, since the pass's rows are then the world's rows.

    ``features`` takes the barrier and its slope over the grid from
    ``energy.contact_barrier``, the clearance as their least distance.  The
    unit offsets are a plain division when the clearance is finite and above
    1e-12 (then so is every offset, a radius being positive); otherwise a
    degenerate offset (a sample on a centre, or a NaN) gets a zero direction.
    """

    def __init__(self, model: RingShapeModel, q, discs: DiscSet):
        c, s = model._unpack(q)
        self.model, self.s, self.dim, self.discs = model, s, np.size(q), discs
        self.at = (float(c[0]), float(c[1]), s)
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
