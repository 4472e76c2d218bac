"""Offline components: weight identification and meta-regressor training.

Identification is linear least squares on the discrete costate increments:
y_t = (p_t - p_{t+1}) / tau equals the weighted sum of feature gradients at
q_t for conservative symplectic-Euler data, so the weights are recovered
from the Gram system whenever the feature gradients persistently excite.

The meta-regressor is a small permutation-invariant set encoder (numpy,
hand-written backprop).  Training follows the composite loss: trajectory and
velocity matching against references, a damping-alignment term, and a
multi-start robustness penalty rolled out from perturbed near-obstacle
starts.  Loss sensitivities with respect to the predicted weights come from
central finite differences through the short rollouts; everything upstream
of the weights is differentiated analytically.  A proposal is an
``energy.EnergyWeights``, the type the navigator's energy reads, with one
alpha per token: a scene's rollouts take it as it is.

A training scene is one batch.  Its finite-difference stencil's members
differ only in their weights: they start from the same ``q0`` and share the
multi-start trials (drawn once per scene), so their rollouts and their
trials are independent rows of one state array, and each step takes one
``energy.potential_grads`` call, the navigator's point-robot barrier kernel,
whose row b is ``potential_grad`` of state b bit for bit.  So every member's
loss equals the one it would get alone, bit for bit.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import DIVERGENCE_FACTOR
from .energy import (
    POINT_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    features,
    log_barrier,
    potential_grads,
)
from .navigator import MetaTokens, build_tokens
from .workspace import DiscSet, Obstacle, disc_distances, row_norms, signed_distances


class PersistentExcitationError(RuntimeError):
    """Feature gradients do not span the weight space along the data."""


@dataclass
class RegressionProblem:
    """Targets and stacked feature gradients for the linear identification."""

    targets: np.ndarray        # (T, dq)
    feature_grads: np.ndarray  # (T, m, dq)
    ridge: float = 0.0

    def __post_init__(self):
        if self.targets.shape[0] != self.feature_grads.shape[0]:
            raise ValueError("targets and gradients disagree on step count")
        if self.targets.shape[1] != self.feature_grads.shape[2]:
            raise ValueError("configuration dimensions disagree")


def regression_from_rollout(traj, discs: DiscSet, fixed: FixedTerms,
                            tau: float, ridge: float = 0.0) -> RegressionProblem:
    """Build the identification problem from a conservative rollout.

    The fixed sensor term's gradient is subtracted from the costate
    increments so the residual is exactly linear in the weights.
    """
    targets, grads = [], []
    for t in range(len(traj) - 1):
        q = traj.states[t].q
        y = (traj.states[t].p - traj.states[t + 1].p) / tau
        y = y.copy()
        y[fixed.layout.sensor] -= 2.0 * fixed.sensor_gain * q[fixed.layout.sensor]
        _, g = features(q, discs, fixed)
        targets.append(y)
        grads.append(g)
    return RegressionProblem(np.stack(targets), np.stack(grads), ridge)


def gram_matrix(problem: RegressionProblem):
    """Trajectory Gram of feature gradients and its smallest eigenvalue."""
    if problem.targets.shape[0] < 1:
        raise ValueError("need at least one step")
    G = np.einsum("tid,tjd->ij", problem.feature_grads, problem.feature_grads)
    min_eig = float(np.linalg.eigvalsh(G)[0])
    return G, min_eig


def identify_weights(problem: RegressionProblem) -> np.ndarray:
    """Ridge least-squares recovery of the potential weights."""
    G, min_eig = gram_matrix(problem)
    rhs = np.einsum("tjd,td->j", problem.feature_grads, problem.targets)
    A = G + problem.ridge * np.eye(G.shape[0])
    if problem.ridge == 0.0 and min_eig < 1e-10:
        raise PersistentExcitationError(
            f"Gram matrix is singular (min eig {min_eig:.2e}); "
            "the path does not excite every feature")
    return np.linalg.solve(A, rhs)


def identification_loss_grad(problem: RegressionProblem, eta) -> np.ndarray:
    resid = problem.targets - np.einsum("j,tjd->td", eta, problem.feature_grads)
    return -np.einsum("tjd,td->j", problem.feature_grads, resid) + problem.ridge * np.asarray(eta)


# ---------------------------------------------------------------------------
# Meta loss and multi-start penalty

def meta_loss(qs, q_refs, vs, v_refs, mu, mu_ref, weights, l_multi) -> float:
    """w_q |q - q_ref|^2 + w_v |v - v_ref|^2 + w_mu |mu - mu_ref|^2 + w_d L_multi.

    Trajectory terms are averaged over steps; lengths must match.
    """
    qs, q_refs = np.asarray(qs, float), np.asarray(q_refs, float)
    vs, v_refs = np.asarray(vs, float), np.asarray(v_refs, float)
    if qs.shape != q_refs.shape or vs.shape != v_refs.shape:
        raise ValueError("rollout and reference lengths differ")
    w_q, w_v, w_mu, w_d = weights
    term_q = float(np.mean(np.sum((qs - q_refs) ** 2, axis=-1))) if qs.size else 0.0
    term_v = float(np.mean(np.sum((vs - v_refs) ** 2, axis=-1))) if vs.size else 0.0
    return w_q * term_q + w_v * term_v + w_mu * (mu - mu_ref) ** 2 + w_d * l_multi


EPS_FLOOR = 1e-6


def _penalties(clearances, r_min, d_hat):
    """``penalty_from_clearances`` of each row of an (S, m) array, (S,): 0 when m = 0."""
    b = log_barrier(np.maximum(clearances - r_min, EPS_FLOOR), d_hat)
    return b.sum(axis=1) / max(b.shape[1], 1)  # np.mean's sum and division


def penalty_from_clearances(clearances, r_min, d_hat) -> float:
    """Mean barrier penalty over the per-trial minimum clearances.

    b is the plain log barrier ``energy.log_barrier``, -(d - d_hat)^2
    log(d / d_hat), not the energy's linearly continued ``ipc_barrier``: the
    penalty has no gradient to agree with, and it should keep growing like
    log(1/d) near contact.  Each trial scores b(max(clr - r_min, eps)), which
    decays with the safety margin and blows up as clr approaches r_min.
    """
    return float(_penalties(np.asarray(clearances, float).reshape(1, -1), r_min, d_hat)[0])


def _scene_spec(discs: DiscSet, goal, weights: EnergyWeights, d_hat) -> HamiltonianSpec:
    """The point robot's Hamiltonian in a training scene (unit mass); a batch
    integrates its ``fixed`` terms under many weight sets at once."""
    fixed = FixedTerms(layout=POINT_LAYOUT, goal=np.asarray(goal, float), d_hat=d_hat,
                       sensor_gain=1.0)
    return HamiltonianSpec(mass=np.ones(4), weights=weights, discs=discs, fixed=fixed)


def _weight_rows(weights, n_obstacles) -> np.ndarray:
    """(S, 2 + K) weight rows, row s ``weights[s].vector(range(K))``: the
    feature order of ``energy.features`` for obstacles 0..K-1."""
    return np.array([w.vector(range(n_obstacles)) for w in weights], dtype=float)


def _trial_start(obstacles, d_hat, rng):
    """A start near a random obstacle, with momentum aimed at its centre."""
    ob = obstacles[int(rng.integers(len(obstacles)))]
    ang = float(rng.uniform(0, 2 * np.pi))
    offset = ob.radius + float(rng.uniform(0.3, 0.9)) * d_hat
    pos = ob.center + offset * np.array([np.cos(ang), np.sin(ang)])
    q0 = np.array([0.0, 0.0, pos[0], pos[1]])
    toward = (ob.center - pos) / max(float(np.linalg.norm(ob.center - pos)), 1e-9)
    speed = float(rng.uniform(0.5, 1.0))
    p0 = np.zeros(4)
    p0[2:4] = speed * toward
    return q0, p0


def _trial_starts(scene, m_trials, d_hat, rng):
    """The m_trials ``_trial_start``s of a scene, none when it has no obstacles."""
    return [_trial_start(scene.obstacles, d_hat, rng)
            for _ in range(m_trials if scene.obstacles else 0)]


def multi_start_penalties(scene, weights, m_trials, t_steps, r_min, d_hat, rng,
                          tau=0.03) -> np.ndarray:
    """``multi_start_penalty`` under each of S weight sets, (S,): ``_scene_batch``
    with no rollout steps.  The m_trials starts are drawn from ``rng`` once
    and shared by every weight set.  Entry s equals ``multi_start_penalty``
    with weights[s] and an ``rng`` in the same state, bit for bit.
    """
    starts = _trial_starts(scene, m_trials, d_hat, rng)
    clr = _scene_batch(scene, weights, 0, tau, d_hat, starts, t_steps)[2]
    return _penalties(clr, r_min, d_hat)


def multi_start_penalty(scene, eta_weights: EnergyWeights, m_trials, t_steps, r_min,
                        d_hat, rng, tau=0.03) -> float:
    """Robustness penalty from perturbed near-obstacle leapfrog rollouts: each
    trial starts near a random obstacle with momentum aimed at it, takes t_steps
    conservative leapfrog steps of length tau and records its minimum clearance,
    and the penalty averages the barrier of the safety margins."""
    return float(multi_start_penalties(scene, [eta_weights], m_trials, t_steps, r_min,
                                       d_hat, rng, tau)[0])


# ---------------------------------------------------------------------------
# Scene data

@dataclass
class SceneDatum:
    """One training scene: context, reference weights, reference rollout."""

    obstacles: list
    goal: np.ndarray
    q0: np.ndarray        # full 4-dim configuration (sensor zeros, frame)
    alpha_ref: float
    beta_ref: float
    lam_ref: float
    mu_ref: float
    q_ref: np.ndarray = None  # (T+1, 4)
    v_ref: np.ndarray = None

    def __post_init__(self):
        if np.shape(self.goal) != (2,) or np.shape(self.q0) != (4,):
            raise ValueError("a scene needs a goal of 2 numbers and a q0 of 4")
        if any(r is not None and (np.ndim(r) != 2 or np.shape(r)[1] != 4)
               for r in (self.q_ref, self.v_ref)):
            raise ValueError("q_ref and v_ref must be (T, 4) arrays")

    @cached_property
    def discs(self) -> DiscSet:
        """The obstacles as a DiscSet, obstacle i under id i."""
        return DiscSet.of(enumerate(self.obstacles))

    def ref_weights(self) -> EnergyWeights:
        return EnergyWeights(beta=self.beta_ref, lam=self.lam_ref,
                             alpha={i: self.alpha_ref for i in range(len(self.obstacles))},
                             mu=self.mu_ref)

    def to_json(self) -> dict:
        return {
            "obstacles": [{"c": ob.center.tolist(), "r": ob.radius, "w": ob.weight}
                          for ob in self.obstacles],
            "goal": self.goal.tolist(),
            "q0": self.q0.tolist(),
            "alpha_ref": self.alpha_ref, "beta_ref": self.beta_ref,
            "lam_ref": self.lam_ref, "mu_ref": self.mu_ref,
            "q_ref": None if self.q_ref is None else self.q_ref.tolist(),
            "v_ref": None if self.v_ref is None else self.v_ref.tolist(),
        }

    @classmethod
    def from_json(cls, doc) -> "SceneDatum":
        return cls(
            obstacles=[Obstacle(np.array(o["c"]), o["r"], o.get("w", 1.0))
                       for o in doc["obstacles"]],
            goal=np.array(doc["goal"], float),
            q0=np.array(doc["q0"], float),
            alpha_ref=doc["alpha_ref"], beta_ref=doc["beta_ref"],
            lam_ref=doc["lam_ref"], mu_ref=doc["mu_ref"],
            q_ref=None if doc.get("q_ref") is None else np.array(doc["q_ref"], float),
            v_ref=None if doc.get("v_ref") is None else np.array(doc["v_ref"], float),
        )


def _scene_batch(scene: SceneDatum, weights, horizon, tau, d_hat, starts=(), t_steps=0):
    """One scene's rollouts and multi-start trials under S weight sets, as one batch.

    Rows 0..S-1 of the state array are damped symplectic-Euler rollouts from
    ``scene.q0`` at rest; row S + s * m + j is the leapfrog trial from
    ``starts[j]``, a (q0, p0) pair, under weights[s].  Step i makes one
    ``potential_grads`` call over the rows still advancing: rollout step i
    (i < horizon) and the trials' state i (i <= t_steps).  Row b of that
    kernel depends only on state b and weight row b, so each row gets the
    bits it gets alone: rollout s those of ``dynamics.rollout`` under
    weights[s] (a diverged one holds its last state), while a non-finite
    trial raises FloatingPointError.  Returns (qs, vs), each
    (S, horizon + 1, 4), and the trials' minimum clearances (S, m).
    """
    q0 = np.asarray(scene.q0, float)
    if not np.all(np.isfinite(q0)):
        raise FloatingPointError("non-finite initial state")
    S, m = len(weights), len(starts)
    discs = scene.discs
    fixed = _scene_spec(discs, scene.goal, EnergyWeights(), d_hat).fixed
    eta = _weight_rows(weights, len(discs))
    eta = np.vstack([eta, np.repeat(eta, m, axis=0)])
    damping = np.zeros((S, 4))  # Gamma(mu): mu on the frame momenta
    damping[:, 2:4] = np.array([w.mu for w in weights], float)[:, None]
    z = np.tile(np.reshape(starts, (m, 2, 4)), (S, 1, 1))  # row s * m + j: starts[j]
    q = np.vstack([np.tile(q0, (S, 1)), z[:, 0]])
    p = np.vstack([np.zeros((S, 4)), z[:, 1]])
    qs, vs = np.empty((2, S, horizon + 1, 4))
    qs[:, 0], vs[:, 0] = q[:S], p[:S]
    live, clr = np.ones(S, bool), np.full(S * m, np.inf)
    for i in range(max(horizon, t_steps + 1) if m else horizon):
        lo, hi = (0 if i < horizon else S), (len(q) if i <= t_steps else S)
        g = potential_grads(q[lo:hi], eta[lo:hi], discs, fixed)
        if i < horizon:
            qr, pr, gr = q[:S], p[:S], g[:S]
            ok = live & np.isfinite(np.hstack([qr, pr, gr])).all(axis=1)
            # unit mass, so v = p; the port input is zero, and p never holds a
            # -0.0 for "+ tau * 0" to turn into +0.0
            p_new = pr - tau * gr - tau * damping * pr
            q_new = qr + tau * p_new
            # the momentum bound is DIVERGENCE_FACTOR x max(1, |p0|) = DIVERGENCE_FACTOR
            live = ok & np.isfinite(q_new).all(axis=1) & ~(row_norms(p_new) > DIVERGENCE_FACTOR)
            qs[:, i + 1] = q[:S] = np.where(live[:, None], q_new, qr)
            vs[:, i + 1] = p[:S] = np.where(live[:, None], p_new, pr)
        if i <= t_steps and m:  # kick-drift-kick, unit mass: the trials' state i
            gt = g[S - lo:]
            if i:
                p[S:] = p[S:] - 0.5 * tau * gt
                if not (np.all(np.isfinite(q[S:])) and np.all(np.isfinite(p[S:]))):
                    raise FloatingPointError("non-finite state after leapfrog step")
            # each trial's minimum signed distance so far
            d = disc_distances(discs.centers, discs.radii, q[S:, None, 2:4])
            clr = np.minimum(clr, d.min(axis=1))
            if i < t_steps:
                p[S:] = p[S:] - 0.5 * tau * gt
                q[S:] = q[S:] + tau * p[S:]
    return qs, vs, clr.reshape(S, m)


def scene_rollouts(scene: SceneDatum, weights, horizon, tau, d_hat):
    """``scene_rollout`` under each of S weight sets: (qs, vs), each (S, horizon + 1, 4),
    as ``_scene_batch`` without trials."""
    return _scene_batch(scene, weights, horizon, tau, d_hat)[:2]


def scene_rollout(scene: SceneDatum, weights: EnergyWeights, horizon, tau, d_hat):
    """Short damped rollout; returns (qs, vs) including the initial state.  A
    diverged rollout is padded to horizon + 1 rows by holding its last state."""
    qs, vs = scene_rollouts(scene, [weights], horizon, tau, d_hat)
    return qs[0], vs[0]


def make_reference_dataset(n_scenes, seed, horizon=6, tau=0.03, d_hat=1.0,
                           alpha_ref=2.0, beta_ref=1.5, lam_ref=0.0, mu_ref=4.0):
    """Self-consistent scene data: references rolled out under the reference
    weights (hand-tuned per scene family; the published data is not ours to
    use)."""
    root = np.random.SeedSequence([seed, 0x5CE4E])
    out = []
    for child in root.spawn(n_scenes):
        rng = np.random.default_rng(child)
        n_obs = int(rng.integers(1, 4))
        goal = rng.uniform(4.0, 6.0, 2)
        start = rng.uniform(0.0, 1.5, 2)
        obstacles = []
        for _ in range(n_obs):
            t = rng.uniform(0.3, 0.7)
            mid = start + t * (goal - start) + rng.uniform(-0.8, 0.8, 2)
            obstacles.append(Obstacle(mid, float(rng.uniform(0.3, 0.6))))
        if signed_distances(obstacles, start).min() < 0.3:
            start = start - 1.0
        scene = SceneDatum(obstacles=obstacles, goal=goal,
                           q0=np.array([0.0, 0.0, start[0], start[1]]),
                           alpha_ref=alpha_ref, beta_ref=beta_ref,
                           lam_ref=lam_ref, mu_ref=mu_ref)
        qs, vs = scene_rollout(scene, scene.ref_weights(), horizon, tau, d_hat)
        scene.q_ref, scene.v_ref = qs, vs
        out.append(scene)
    return out


# ---------------------------------------------------------------------------
# Meta regressor (permutation-invariant set encoder, numpy backprop)

def _softplus(x):
    return np.logaddexp(0.0, x)


def _softplus_grad(x):
    return 1.0 / (1.0 + np.exp(-x))


class MetaRegressor:
    """Set encoder mapping obstacle tokens + context scalars to weights.

    Per-obstacle tokens embed through one tanh layer and mean-pool; the
    pooled code concatenates with [rel goal, speed] into a hidden layer that
    feeds scalar heads for beta, lam, mu.  Barrier weights come from a
    per-token head (own embedding plus the shared hidden code), so outputs
    are invariant to token permutation and nonnegative via softplus.
    """

    TOKEN_DIM = 4
    CTX_DIM = 3

    def __init__(self, emb_dim=16, hidden_dim=32, seed=0, mu_bias=-2.0):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4E7]))
        def init(*shape):
            return rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)
        self.emb_dim, self.hidden_dim = emb_dim, hidden_dim
        self.params = {
            "W1": init(self.TOKEN_DIM, emb_dim), "b1": np.zeros(emb_dim),
            "W2": init(emb_dim + self.CTX_DIM, hidden_dim), "b2": np.zeros(hidden_dim),
            "w_beta": init(hidden_dim), "c_beta": np.array([0.5]),
            "w_lam": init(hidden_dim), "c_lam": np.array([0.0]),
            "w_mu": init(hidden_dim), "c_mu": np.array([mu_bias]),
            "w_alpha": init(emb_dim), "w_halpha": init(hidden_dim),
            "c_alpha": np.array([0.5]),
        }

    # -- parameter vector ----------------------------------------------------

    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in sorted(self.params)])

    def set_flat(self, flat):
        i = 0
        for k in sorted(self.params):
            n = self.params[k].size
            self.params[k] = np.asarray(flat[i : i + n], float).reshape(self.params[k].shape)
            i += n

    # -- forward / backward --------------------------------------------------

    def forward(self, tokens: MetaTokens):
        p = self.params
        T = tokens.tokens if tokens.tokens.size else np.zeros((0, self.TOKEN_DIM))
        pre1 = T @ p["W1"] + p["b1"]
        emb = np.tanh(pre1)
        pool = emb.mean(axis=0) if len(emb) else np.zeros(self.emb_dim)
        ctx = np.concatenate([tokens.rel_stage_goal, [tokens.speed]])
        x2 = np.concatenate([pool, ctx])
        pre2 = x2 @ p["W2"] + p["b2"]
        h = np.tanh(pre2)
        pre_beta = float(h @ p["w_beta"] + p["c_beta"][0])
        pre_lam = float(h @ p["w_lam"] + p["c_lam"][0])
        pre_mu = float(h @ p["w_mu"] + p["c_mu"][0])
        pre_alpha = emb @ p["w_alpha"] + float(h @ p["w_halpha"]) + p["c_alpha"][0]
        cache = dict(T=T, pre1=pre1, emb=emb, pool=pool, x2=x2, pre2=pre2, h=h,
                     pre_beta=pre_beta, pre_lam=pre_lam, pre_mu=pre_mu,
                     pre_alpha=pre_alpha, ids=list(tokens.obstacle_ids))
        out = EnergyWeights(
            beta=float(_softplus(pre_beta)),
            lam=float(_softplus(pre_lam)),
            alpha={i: float(a) for i, a in zip(tokens.obstacle_ids, _softplus(pre_alpha))},
            mu=float(_softplus(pre_mu)),
        )
        return out, cache

    def propose(self, tokens: MetaTokens) -> EnergyWeights:
        return self.forward(tokens)[0]

    def backward(self, cache, d_beta, d_lam, d_mu, d_alpha) -> dict:
        """Gradient of (d_beta*beta + d_lam*lam + d_mu*mu + sum d_alpha_i*alpha_i)."""
        p = self.params
        g = {k: np.zeros_like(v) for k, v in p.items()}
        d_pre_beta = d_beta * _softplus_grad(cache["pre_beta"])
        d_pre_lam = d_lam * _softplus_grad(cache["pre_lam"])
        d_pre_mu = d_mu * _softplus_grad(cache["pre_mu"])
        d_alpha_vec = np.array([d_alpha.get(i, 0.0) for i in cache["ids"]])
        d_pre_alpha = d_alpha_vec * _softplus_grad(cache["pre_alpha"])
        h, emb, x2 = cache["h"], cache["emb"], cache["x2"]
        g["w_beta"] += d_pre_beta * h
        g["c_beta"][0] += d_pre_beta
        g["w_lam"] += d_pre_lam * h
        g["c_lam"][0] += d_pre_lam
        g["w_mu"] += d_pre_mu * h
        g["c_mu"][0] += d_pre_mu
        d_h = (d_pre_beta * p["w_beta"] + d_pre_lam * p["w_lam"] + d_pre_mu * p["w_mu"])
        if len(emb):
            g["w_alpha"] += emb.T @ d_pre_alpha
            g["w_halpha"] += float(d_pre_alpha.sum()) * h
            g["c_alpha"][0] += float(d_pre_alpha.sum())
            d_h = d_h + float(d_pre_alpha.sum()) * p["w_halpha"]
        d_pre2 = d_h * (1.0 - np.tanh(cache["pre2"]) ** 2)
        g["W2"] += np.outer(x2, d_pre2)
        g["b2"] += d_pre2
        d_x2 = p["W2"] @ d_pre2
        d_pool = d_x2[: self.emb_dim]
        d_emb = np.zeros_like(emb)
        if len(emb):
            d_emb += d_pool[None, :] / len(emb)
            d_emb += np.outer(d_pre_alpha, p["w_alpha"])
            d_pre1 = d_emb * (1.0 - np.tanh(cache["pre1"]) ** 2)
            g["W1"] += cache["T"].T @ d_pre1
            g["b1"] += d_pre1.sum(axis=0)
        return g

    # -- checkpoint ----------------------------------------------------------

    MAGIC = b"HNCKPT01"

    def save(self, path):
        header = {
            "emb_dim": self.emb_dim,
            "hidden_dim": self.hidden_dim,
            "token_features": ["rel_x", "rel_y", "radius", "surface_distance"],
            "context_features": ["rel_goal_x", "rel_goal_y", "speed"],
            "param_order": sorted(self.params),
            "dtype": "float64",
        }
        blob = self.get_flat().astype("<f8").tobytes()
        head = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(self.MAGIC)
            fh.write(struct.pack("<I", len(head)))
            fh.write(head)
            fh.write(blob)

    @classmethod
    def load(cls, path) -> "MetaRegressor":
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != cls.MAGIC:
                raise ValueError("not a regressor checkpoint")
            (n,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(n).decode())
            flat = np.frombuffer(fh.read(), dtype="<f8")
        model = cls(emb_dim=header["emb_dim"], hidden_dim=header["hidden_dim"])
        model.set_flat(flat)
        return model


# ---------------------------------------------------------------------------
# Offline training

@dataclass
class TrainConfig:
    epochs: int = 30
    lr: float = 3e-4
    momentum: float = 0.9
    clip_norm: float = 5.0
    weights: tuple = (1.0, 1.0, 0.1, 0.5)  # (w_q, w_v, w_mu, w_d)
    horizons: tuple = (2, 3, 4, 5, 6)
    tau: float = 0.03
    d_hat: float = 1.0
    m_trials: int = 4
    multi_steps: int = 6
    r_min: float = 0.2
    fd_step: float = 1e-4
    seed: int = 0


def _scene_losses(scene: SceneDatum, weights, cfg: TrainConfig, horizon, starts):
    """Composite loss of one scene under each of its weight sets.

    The weight sets' rollouts and their multi-start trials from ``starts``
    advance as one batch (``_scene_batch``); the losses are scored in one
    vectorized pass, each with ``meta_loss``'s arithmetic in its order.
    """
    qs, vs, clr = _scene_batch(scene, weights, horizon, cfg.tau, cfg.d_hat, starts,
                               cfg.multi_steps)
    l_multi = _penalties(clr, cfg.r_min, cfg.d_hat)
    n = min(horizon + 1, len(scene.q_ref))
    if len(scene.v_ref[:n]) != n:
        raise ValueError("rollout and reference lengths differ")
    d = np.stack([qs[:, :n] - scene.q_ref[:n], vs[:, :n] - scene.v_ref[:n]])
    terms = np.sum(d ** 2, axis=-1).sum(axis=-1) / max(n, 1)  # np.mean's sum and division
    w_q, w_v, w_mu, w_d = cfg.weights
    return [w_q * tq + w_v * tv + w_mu * (w.mu - scene.mu_ref) ** 2 + w_d * lm
            for tq, tv, w, lm in zip(*terms.tolist(), weights, l_multi.tolist())]


def train_offline(dataset, cfg: TrainConfig = None, model: MetaRegressor = None):
    """Gradient descent with momentum on the composite meta loss.

    Loss sensitivities w.r.t. the predicted weights are central finite
    differences through the short rollouts; the regressor itself is
    backpropagated analytically.  Gradients are clipped at cfg.clip_norm.
    A scene's stencil (the proposal, then each of beta, lam, mu and alpha_i
    moved up and down by cfg.fd_step, clamped at zero) is one batch with the
    scene's multi-start trials, drawn once per call (``_scene_losses``).
    Returns (model, loss_curve).
    """
    if not dataset:
        raise ValueError("empty dataset")
    cfg = cfg or TrainConfig()
    model = model or MetaRegressor(seed=cfg.seed)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    curve = []
    mass = np.ones(4)
    h = cfg.fd_step
    trials = cfg.m_trials if cfg.weights[3] > 0 else 0
    starts = [_trial_starts(scene, trials, cfg.d_hat,
                            np.random.default_rng(np.random.SeedSequence([cfg.seed + si, 0x3A])))
              for si, scene in enumerate(dataset)]
    for epoch in range(cfg.epochs):
        total = 0.0
        for si, scene in enumerate(dataset):
            horizon = cfg.horizons[(epoch + si) % len(cfg.horizons)]
            tokens = build_tokens(scene.q0, np.zeros(4), scene.discs, scene.goal, mass,
                                  POINT_LAYOUT)
            prop, cache = model.forward(tokens)
            stencil, spans = [prop], []  # spans: up - down of each central difference
            for name in ("beta", "lam", "mu"):
                x = getattr(prop, name)
                up, dn = x + h, max(x - h, 0.0)
                stencil += [replace(prop, **{name: up}), replace(prop, **{name: dn})]
                spans.append(up - dn)
            for i, x in prop.alpha.items():
                up, dn = x + h, max(x - h, 0.0)
                stencil += [replace(prop, alpha={**prop.alpha, i: up}),
                            replace(prop, alpha={**prop.alpha, i: dn})]
                spans.append(up - dn)
            losses = _scene_losses(scene, stencil, cfg, horizon, starts[si])
            base = losses[0]
            if not np.isfinite(base):
                raise FloatingPointError(f"divergent loss on scene {si}")
            total += base
            d = [(losses[2 * j + 1] - losses[2 * j + 2]) / span for j, span in enumerate(spans)]
            grads = model.backward(cache, *d[:3], dict(zip(prop.alpha, d[3:])))  # beta, lam, mu
            norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            scale = min(1.0, cfg.clip_norm / norm) if norm > 0 else 1.0
            for k in model.params:
                velocity[k] = cfg.momentum * velocity[k] - cfg.lr * scale * grads[k]
                model.params[k] = model.params[k] + velocity[k]
        curve.append(total / len(dataset))
    return model, np.asarray(curve)
