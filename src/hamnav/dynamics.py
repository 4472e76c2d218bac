"""Discrete-time port-Hamiltonian integration.

Deployment uses momentum-first symplectic Euler with dissipation and an
exogenous port acting only on the frame momentum block:

    p' = p - tau * grad_R(q) - tau * Gamma(mu) M^-1 p + tau * G u_f
    q' = q + tau * M^-1 p'

``step_leapfrog`` is the conservative kick-drift-kick step (no damping, no
port), exactly time-reversible up to roundoff.  Offline training advances its
multi-start trials in each scene's batch (``learning._scene_batch``); this
single-state step is those rows' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import HamiltonianSpec, PhaseState, evaluate
from .workspace import norm2

DIVERGENCE_FACTOR = 1e3


@dataclass(frozen=True)
class IntegratorConfig:
    tau: float
    horizon: int

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")


@dataclass(frozen=True)
class PortSelectors:
    """Frame-only damping and port gain blocks.

    gamma_diag(mu) is the diagonal of Gamma(mu): mu on the frame momentum
    coordinates, zero elsewhere (so Gamma(0) = 0).  embed_port places the
    2-vector port input on the frame coordinates.
    """

    dim: int
    frame: slice = field(default_factory=lambda: slice(2, 4))

    def gamma_diag(self, mu: float) -> np.ndarray:
        if mu < 0:
            raise ValueError("mu must be >= 0")
        g = np.zeros(self.dim)
        g[self.frame] = mu
        return g

    def embed_port(self, u_f) -> np.ndarray:
        u = np.zeros(self.dim)
        if u_f is not None:
            u[self.frame] = np.asarray(u_f, dtype=float)
        return u


def step_symplectic_euler(z: PhaseState, grad_q, mu, u_f, mass, tau,
                          selectors: PortSelectors, structural_damping=None) -> PhaseState:
    """One momentum-first symplectic Euler step.

    ``structural_damping`` is an optional constant damping diagonal (e.g. the
    ring's scale/orientation damping); it is independent of (mu, u_f), so the
    sensor and shape momenta never feel the adaptive port.  The arithmetic is
    the array form's, coordinate by coordinate in Python floats: the same
    bits without the numpy call overhead, Gamma(mu) and the port included.
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")
    q, p = z.q.tolist(), z.p.tolist()
    grad = np.asarray(grad_q, dtype=float).tolist()
    if not all(map(math.isfinite, q + p + grad)):
        raise FloatingPointError("non-finite state or gradient")
    mass = np.asarray(mass, dtype=float).tolist()
    dim, frame = selectors.dim, selectors.frame
    gamma, port = [0.0] * dim, [0.0] * dim  # Gamma(mu) and G u_f
    gamma[frame] = [float(mu)] * len(gamma[frame])
    if u_f is not None:
        port[frame] = map(float, u_f)
    if len(port) != dim:
        raise ValueError(f"port input {u_f} does not fit the frame {frame}")
    v = [p_i / m_i for p_i, m_i in zip(p, mass)]
    p_new = [p_i - tau * g_i - tau * d_i * v_i + tau * u_i for p_i, g_i, d_i, v_i, u_i
             in zip(p, grad, gamma, v, port)]
    if structural_damping is not None:
        p_new = [p_i - tau * s_i * v_i for p_i, s_i, v_i
                 in zip(p_new, np.asarray(structural_damping, float).tolist(), v)]
    q_new = [q_i + tau * (p_i / m_i) for q_i, p_i, m_i in zip(q, p_new, mass)]
    return PhaseState(np.array(q_new), np.array(p_new))


def step_leapfrog(z: PhaseState, grad_fn, mass, tau) -> PhaseState:
    """Kick-drift-kick step for the conservative case (no damping, no port)."""
    mass = np.asarray(mass, dtype=float)
    p_half = z.p - 0.5 * tau * np.asarray(grad_fn(z.q), dtype=float)
    q_new = z.q + tau * (p_half / mass)
    p_new = p_half - 0.5 * tau * np.asarray(grad_fn(q_new), dtype=float)
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(p_new))):
        raise FloatingPointError("non-finite state after leapfrog step")
    return PhaseState(q_new, p_new)


@dataclass
class Trajectory:
    states: list
    times: np.ndarray
    energies: np.ndarray
    score_norms: np.ndarray
    clearances: np.ndarray
    diverged: bool = False

    def __len__(self):
        return len(self.states)

    def positions(self, frame=slice(2, 4)):
        return np.stack([s.q[frame] for s in self.states])


def _evaluate_with_clearance(q, spec: HamiltonianSpec, p):
    """evaluate(q, spec, p) and the min obstacle clearance at q.

    A ring forms one contact pass at q, which serves both.
    """
    discs = spec.discs
    if spec.fixed.shape is not None:
        contact = spec.fixed.shape.contact(q, discs)
        return evaluate(q, spec, p, contact), contact.clearance
    if not len(discs):
        return evaluate(q, spec, p), spec.fixed.d_hat
    return evaluate(q, spec, p), discs.clearance(q[spec.fixed.layout.frame])


def rollout(z0: PhaseState, spec: HamiltonianSpec, cfg: IntegratorConfig,
            mu: float = 0.0, u_f=None, structural_damping=None) -> Trajectory:
    """Integrate the spec's Hamiltonian for cfg.horizon symplectic Euler steps.

    Records per-step energy, score-field norm, and min obstacle clearance.
    A rollout is truncated with ``diverged=True`` when momentum exceeds
    DIVERGENCE_FACTOR x its initial scale or a non-finite state appears.
    """
    if not np.all(np.isfinite(z0.q)) or not np.all(np.isfinite(z0.p)):
        raise FloatingPointError("non-finite initial state")
    selectors = PortSelectors(dim=z0.q.size, frame=spec.fixed.layout.frame)
    p_scale = max(1.0, norm2(z0.p))
    states = [z0.copy()]
    ev, clearance = _evaluate_with_clearance(z0.q, spec, z0.p)
    energies = [ev.H]
    clearances = [clearance]
    score_norms = []
    diverged = False
    z = z0.copy()
    for _ in range(cfg.horizon):
        g = ev.grad
        v = z.p / spec.mass
        drift = np.concatenate([v, -g - selectors.gamma_diag(mu) * v + selectors.embed_port(u_f)])
        score_norms.append(norm2(drift))
        try:
            z = step_symplectic_euler(z, g, mu, u_f, spec.mass, cfg.tau, selectors,
                                      structural_damping)
        except FloatingPointError:
            diverged = True
            break
        if not np.all(np.isfinite(z.q)) or norm2(z.p) > DIVERGENCE_FACTOR * p_scale:
            diverged = True
            break
        states.append(z.copy())
        ev, clearance = _evaluate_with_clearance(z.q, spec, z.p)  # H now, the next step's gradient
        energies.append(ev.H)
        clearances.append(clearance)
    n = len(states)
    return Trajectory(
        states=states,
        times=cfg.tau * np.arange(n),
        energies=np.asarray(energies),
        score_norms=np.asarray(score_norms[: n - 1] if score_norms else []),
        clearances=np.asarray(clearances),
        diverged=diverged,
    )
