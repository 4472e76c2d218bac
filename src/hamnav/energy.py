"""Energy terms, contact barrier, and the reduced Hamiltonian.

The surrogate potential is a weighted cone over fixed-form terms,

    R(q) = E_sensor(q) + beta * E_goal(q) + lam * E_obj(q)
           + sum_i alpha_i * barrier_i(q),

so it is linear in the weight vector (beta, lam, {alpha_i}) once the sensor
term is subtracted.  That linear view is exposed by ``features`` and is what
the offline identification stage regresses on.  All gradients are analytic;
finite differences are used only as test oracles.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .workspace import DiscSet, row_norms

BARRIER_CLAMP = 200.0
GRAD_CLAMP = 200.0
# Penetration plateau.  The barrier value jumps at d = 0, from the linear
# continuation's limit b(d_c) + GRAD_CLAMP * d_c (about 6.24 at d_hat = 1) up
# to this penalty; only for d_hat > 6.97, where the continuation saturates at
# BARRIER_CLAMP, does the value meet it continuously.
V_PENALTY = 200.0


def _log_terms(d, d_hat):
    """(d, inside, e, log_r): d as an array, the mask 0 < d < d_hat, and on
    it e = d - d_hat and log(d / d_hat), which the barrier and its slope share."""
    if d_hat <= 0:
        raise ValueError("d_hat must be > 0")
    d = np.asarray(d, dtype=float)
    inside = (d > 0) & (d < d_hat)
    di = d[inside]
    with np.errstate(divide="ignore"):
        log_r = np.log(di / d_hat)
    return d, inside, di - d_hat, log_r


def _log_branch(d, inside, e, log_r):
    """-(d - d_hat)^2 log(d / d_hat) on 0 < d < d_hat, 0 beyond, V_PENALTY at d <= 0."""
    out = np.zeros_like(d)
    out[inside] = -(e ** 2) * log_r
    out[d <= 0] = V_PENALTY
    return out


def _array_or_float(out):
    return float(out) if out.ndim == 0 else out


def log_barrier(d, d_hat):
    """The plain IPC log barrier, without the gradient-clamp continuation.

    b(d) = -(d - d_hat)^2 (log d - log d_hat) on 0 < d < d_hat, zero beyond
    the activation distance, V_PENALTY for penetration; value clamped to
    [0, BARRIER_CLAMP].  It grows like log(1/d) as d -> 0+, so it is not the
    antiderivative of ``ipc_barrier_grad``; the energy uses ``ipc_barrier``.
    """
    out = _log_branch(*_log_terms(d, d_hat))
    return _array_or_float(np.clip(out, 0.0, BARRIER_CLAMP))


def _log_slope(d, e, log_r):
    """The log barrier's slope at 0 < d < d_hat, from e = d - d_hat and log(d / d_hat)."""
    return -2.0 * e * log_r - e ** 2 / d


def _bisect(f, lo, hi):
    """Root of f on [lo, hi] to the last ulp, given f(lo) < 0 <= f(hi)."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid


@functools.lru_cache(maxsize=256)
def barrier_knots(d_hat: float):
    """(d_c, b(d_c), d_sat) of the contact barrier for one activation distance.

    d_c is where the log barrier's slope b'(d) reaches -GRAD_CLAMP (b' rises
    monotonically from -inf to 0 on (0, d_hat), so the root is unique), and
    b(d_c) the unclamped log barrier there.  d_sat is where ``ipc_barrier``
    reaches BARRIER_CLAMP, or 0 when it never does (d_hat up to 6.97).
    """
    d_hat = float(d_hat)
    if d_hat <= 0:
        raise ValueError("d_hat must be > 0")
    lo = d_hat * min(1e-3, d_hat / 400.0)  # there b'(lo) < -GRAD_CLAMP
    d_c = _bisect(lambda x: _log_slope(x, x - d_hat, np.log(x / d_hat)) + GRAD_CLAMP, lo, d_hat)

    def raw(x):  # the log barrier without the value clamp
        return float(_log_branch(*_log_terms(x, d_hat)))

    b_c = raw(d_c)
    if b_c + GRAD_CLAMP * d_c <= BARRIER_CLAMP:
        d_sat = 0.0
    elif b_c <= BARRIER_CLAMP:
        d_sat = d_c - (BARRIER_CLAMP - b_c) / GRAD_CLAMP
    else:
        d_sat = _bisect(lambda x: BARRIER_CLAMP - raw(x), d_c, d_hat)
    return d_c, b_c, d_sat


def _barrier(d, inside, e, log_r, d_hat):
    out = _log_branch(d, inside, e, log_r)
    d_c, b_c, _ = barrier_knots(d_hat)
    below = inside & (d < d_c)
    out[below] = b_c + GRAD_CLAMP * (d_c - d[below])
    return np.clip(out, 0.0, BARRIER_CLAMP)


def _barrier_slope(d, inside, e, log_r, d_hat):
    out = np.zeros_like(d)
    out[inside] = _log_slope(d[inside], e, log_r)
    np.clip(out, -GRAD_CLAMP, GRAD_CLAMP, out=out)
    _, _, d_sat = barrier_knots(d_hat)
    if d_sat > 0:
        out[(d > 0) & (d < d_sat)] = 0.0
    return out


def ipc_barrier(d, d_hat):
    """Piecewise contact barrier, the antiderivative of ``ipc_barrier_grad``.

    -(d - d_hat)^2 (log d - log d_hat) on d_c <= d < d_hat, zero beyond the
    activation distance.  Below the clamp distance d_c (where the log
    barrier's slope reaches -GRAD_CLAMP, see ``barrier_knots``) the value
    continues linearly, b(d_c) + GRAD_CLAMP * (d_c - d) on 0 < d < d_c, so
    its slope is the clamped gradient.  Flat penalty V_PENALTY for
    penetration d <= 0; value clamped to [0, BARRIER_CLAMP].
    """
    return _array_or_float(_barrier(*_log_terms(d, d_hat), d_hat))


def ipc_barrier_grad(d, d_hat):
    """Derivative of ``ipc_barrier`` with respect to d.

    The log barrier's slope clamped to +-GRAD_CLAMP (it is -GRAD_CLAMP exactly
    on the linear branch 0 < d < d_c).  Zero for d >= d_hat, on the
    penetration plateau d <= 0 (integrators must stay finite after a
    penetration event) and where the value saturates at BARRIER_CLAMP.
    """
    return _array_or_float(_barrier_slope(*_log_terms(d, d_hat), d_hat))


def ipc_barrier_and_grad(d, d_hat):
    """``(ipc_barrier(d), ipc_barrier_grad(d))`` from one evaluation of log(d / d_hat)."""
    terms = _log_terms(d, d_hat)
    return (_array_or_float(_barrier(*terms, d_hat)),
            _array_or_float(_barrier_slope(*terms, d_hat)))


@dataclass(frozen=True)
class StateLayout:
    """Slices of the configuration vector q = (sensor y, frame c, extras)."""

    dim: int
    sensor: slice = field(default_factory=lambda: slice(0, 2))
    frame: slice = field(default_factory=lambda: slice(2, 4))
    angle: slice | None = None
    scale: slice | None = None


POINT_LAYOUT = StateLayout(dim=4)
RING_LAYOUT = StateLayout(dim=6, angle=slice(4, 5), scale=slice(5, 6))


@dataclass
class PhaseState:
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must share a shape")

    def copy(self):
        return PhaseState(self.q.copy(), self.p.copy())


@dataclass
class EnergyWeights:
    """The dual weights (beta, lam, {alpha_i}, mu): the meta-policy proposes
    them, the secant/Tikhonov loop adapts them, the potential reads beta, lam
    and alpha, and the integrator's frame damping is mu."""

    beta: float = 1.0
    lam: float = 0.0
    alpha: dict = field(default_factory=dict)  # obstacle id -> weight
    mu: float = 0.0

    def __post_init__(self):
        if self.beta < 0 or self.lam < 0 or self.mu < 0 or any(a < 0 for a in self.alpha.values()):
            raise ValueError("energy weights must be nonnegative")

    def vector(self, ids) -> np.ndarray:
        """[beta, lam, alpha_i for i in ids], the feature order of ``features``
        (an id missing from alpha weighs zero)."""
        return np.array([self.beta, self.lam] + [self.alpha.get(i, 0.0) for i in ids], float)


@dataclass
class FixedTerms:
    """Intra-term parameters held fixed across environments."""

    layout: StateLayout
    goal: np.ndarray
    d_hat: float
    sensor_gain: float = 1.0
    shape: object = None  # optional shape coupling (see ring.RingShapeModel)

    def __post_init__(self):
        self.goal = np.asarray(self.goal, dtype=float)
        if self.d_hat <= 0:
            raise ValueError("d_hat must be > 0")


@dataclass
class HamiltonianSpec:
    """Everything needed to evaluate H(q, p) = kinetic + R(q)."""

    mass: np.ndarray  # diagonal of the SPD mass matrix
    weights: EnergyWeights
    discs: DiscSet  # the discs whose barriers enter the potential
    fixed: FixedTerms

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=float)
        if (self.mass <= 0).any():
            raise ValueError("mass diagonal must be positive definite")


def contact_barrier(d, d_hat, d_min):
    """``ipc_barrier_and_grad(d, d_hat)`` of distances d whose least is d_min,
    the one barrier kernel of both robots.  Its fast path: when d_c < d_min <
    inf and b(d_c) <= BARRIER_CLAMP (``barrier_knots``), every d is on the log
    branch, where b(d) < b(d_c), or beyond d_hat, so the barrier and its slope
    are one ``np.where`` each of ``ipc_barrier_and_grad``'s elementwise
    operations (its bits; the value clip is the identity, the slope keeps its
    clip, which rounding just past d_c can reach).  Any other input (contact
    within d_c, penetration, NaN, inf, b(d_c) above the clamp) takes
    ``ipc_barrier_and_grad``."""
    d_c, b_c, _ = barrier_knots(d_hat)
    if not (d_c < d_min < math.inf and b_c <= BARRIER_CLAMP):
        return ipc_barrier_and_grad(d, d_hat)
    e, log_r = d - d_hat, np.log(d / d_hat)
    e2, near = e ** 2, d < d_hat
    return (np.where(near, -e2 * log_r, 0.0),
            np.where(near, np.clip(-2.0 * e * log_r - e2 / d, -GRAD_CLAMP, GRAD_CLAMP), 0.0))


def _point_barrier_terms(c, discs: DiscSet, d_hat):
    """The barrier values (``contact_barrier``) of the signed distances d_i from
    point-robot frame positions c (..., 2) to ``discs``, and the (..., M, 2)
    gradient rows w_i b'(d_i) n_i: zero, with a warning, on a centre (sought
    only when some d_i is not finite and above 1e-12).  The distances are
    ``row_norms``, so a batch of positions gets the bits each one gets alone."""
    delta = c[..., None, :] - discs.centers
    dist = row_norms(delta)
    d = dist - discs.radii
    d_min = float(d.min()) if d.size else math.inf
    b, db = contact_barrier(d, d_hat, d_min)
    slope = discs.weights * db
    if 1e-12 < d_min < math.inf:  # every offset is finite and longer than 1e-12
        return b, slope[..., None] * (delta / dist[..., None])
    at_center = dist < 1e-12  # a NaN distance keeps its NaN row
    if at_center.any():
        warnings.warn("configuration coincides with an obstacle center; "
                      "degenerate barrier gradient set to zero", RuntimeWarning)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = slope[..., None] * (delta / dist[..., None])
    rows[at_center] = 0.0
    return b, rows


def features(q, discs: DiscSet, fixed: FixedTerms, contact=None):
    """Linear-in-weights view of the potential.

    Returns (phi, grads) with phi = [E_goal, E_obj, b_1, ..., b_m], one
    barrier per disc of ``discs`` in its (ascending id) order, and grads the
    stacked per-feature gradients (rows match phi), at the activation
    distance ``fixed.d_hat``.  R(q; weights) = E_sensor + eta . phi by
    construction, with eta = ``weights.vector(discs.ids.tolist())``.

    For a ring, ``contact`` is its ``ContactPass`` at q against ``discs``
    (that object), when the caller has made it already; it is made here when
    None.  Both robots' barriers come from ``contact_barrier``.
    """
    q = np.asarray(q, dtype=float)
    layout = fixed.layout
    m = len(discs)
    phi = np.zeros(2 + m)
    grads = np.zeros((2 + m, q.size))
    diff = q[layout.frame] - fixed.goal
    phi[0] = float(np.add.reduce(diff * diff))
    grads[0, layout.frame] = 2.0 * diff
    if fixed.shape is not None:
        phi[1], grads[1] = fixed.shape.obj_feature(q)
        if contact is None:
            contact = fixed.shape.contact(q, discs)
        elif contact.discs is not discs:
            raise ValueError("contact pass was made against another disc set")
        phi[2:], grads[2:] = contact.features(fixed.d_hat)
    elif m:
        b, grads[2:, layout.frame] = _point_barrier_terms(q[layout.frame], discs, fixed.d_hat)
        phi[2:] = b * discs.weights
    return phi, grads


def potential_grads(q, eta, discs: DiscSet, fixed: FixedTerms) -> np.ndarray:
    """Potential gradients (B, dim) of point-robot states q (B, dim) under weight
    rows eta (B, 2 + M) in the feature order of ``features``.  Row b equals
    ``evaluate(q[b], spec).grad`` bit for bit (spec weights with vector eta[b]):
    it contracts as ``Evaluation.grad`` does, the products summed over the
    features in their order."""
    layout = fixed.layout
    grads = np.zeros((len(q), 2 + len(discs), layout.dim))
    grads[:, 0, layout.frame] = 2.0 * (q[:, layout.frame] - fixed.goal)
    _, grads[:, 2:, layout.frame] = _point_barrier_terms(q[:, layout.frame], discs, fixed.d_hat)
    out = np.add.reduce(eta[:, :, None] * grads, axis=1)
    out[:, layout.sensor] += 2.0 * fixed.sensor_gain * q[:, layout.sensor]
    return out


def sensor_energy(q, fixed: FixedTerms):
    y = np.asarray(q, float)[fixed.layout.sensor]
    return fixed.sensor_gain * float(np.add.reduce(y * y))


class Evaluation:
    """The energy of one state, from one ``features`` call.

    ``phi``, the weight vector ``eta`` and the kinetic energy are formed
    once; the gradient, the potential R(q), H and the logged terms are
    derived from them each time they are read.  ``H`` is kinetic + R(q), as
    ``hamiltonian`` returns it; ``parts["H"]`` sums the logged terms one by
    one, as ``energy_breakdown`` returns it, so the two may differ in the
    last ulp.
    """

    def __init__(self, q, spec: HamiltonianSpec, p=None, contact=None):
        self.q = np.array(q, dtype=float)  # a copy: the properties read q later
        if p is not None and self.q.size != spec.fixed.layout.dim:
            raise ValueError("phase state dimension does not match the spec layout")
        self.spec = spec
        self.kinetic = 0.0 if p is None else kinetic(p, spec.mass)
        self.phi, self.grads = features(self.q, spec.discs, spec.fixed, contact)
        self.eta = spec.weights.vector(spec.discs.ids.tolist())

    @property
    def grad(self) -> np.ndarray:
        """Analytic gradient of the potential with respect to q: the features'
        gradients times their weights, summed over the features in order."""
        sensor = self.spec.fixed.layout.sensor
        out = np.add.reduce(self.eta[:, None] * self.grads, axis=0)
        out[sensor] += 2.0 * self.spec.fixed.sensor_gain * self.q[sensor]
        return out

    @property
    def potential(self) -> float:
        """Context-shaped potential R(q)."""
        return sensor_energy(self.q, self.spec.fixed) + float(np.add.reduce(self.eta * self.phi))

    @property
    def H(self) -> float:
        return self.kinetic + self.potential

    @property
    def parts(self) -> dict:
        """Per-term values for the step log (CSV columns)."""
        phi, eta = self.phi, self.eta
        e_sensor = sensor_energy(self.q, self.spec.fixed)
        e_goal = eta[0] * phi[0]
        e_obj = eta[1] * phi[1]
        e_barrier = float(np.add.reduce(eta[2:] * phi[2:])) if phi.size > 2 else 0.0
        return {
            "E_sensor": e_sensor,
            "E_goal": e_goal,
            "E_obj": e_obj,
            "E_barrier_total": e_barrier,
            "H": self.kinetic + e_sensor + e_goal + e_obj + e_barrier,
        }


def evaluate(q, spec: HamiltonianSpec, p=None, contact=None) -> Evaluation:
    """Evaluate the state (q, p) once; ``p=None`` is a state at rest.

    ``contact`` is a ring's contact pass at q against the spec's discs (see
    ``features``), when the caller has it already.

    Raises ValueError when a phase state (p given) does not match the layout.

    ``potential``, ``potential_grad``, ``hamiltonian`` and
    ``energy_breakdown`` are views of this evaluation; a loop that needs
    several of them at one state should call it once and read them all.
    """
    return Evaluation(q, spec, p, contact)


def potential(q, spec: HamiltonianSpec) -> float:
    """Context-shaped potential R(q)."""
    return evaluate(q, spec).potential


def potential_grad(q, spec: HamiltonianSpec) -> np.ndarray:
    """Analytic gradient of the potential with respect to q."""
    return evaluate(q, spec).grad


def kinetic(p, mass) -> float:
    p = np.asarray(p, dtype=float)
    return 0.5 * float(np.add.reduce(p * p / np.asarray(mass, float)))


def hamiltonian(z: PhaseState, spec: HamiltonianSpec) -> float:
    """Reduced Hamiltonian H = (1/2) p^T M^-1 p + R(q)."""
    return evaluate(z.q, spec, z.p).H


def energy_breakdown(z: PhaseState, spec: HamiltonianSpec) -> dict:
    """Per-term values for the step log (CSV columns)."""
    return evaluate(z.q, spec, z.p).parts
