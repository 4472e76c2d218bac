"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the stated runtime budgets are printed for reference.
"""

import time

import numpy as np
import pytest

from hamnav.baselines import PFGains, astar_rigid, run_baseline_episode
from hamnav.dynamics import IntegratorConfig, PortSelectors, rollout, step_leapfrog, step_symplectic_euler
from hamnav.energy import (
    POINT_LAYOUT,
    RING_LAYOUT,
    EnergyWeights,
    FixedTerms,
    HamiltonianSpec,
    PhaseState,
    ipc_barrier,
    ipc_barrier_grad,
    potential,
    potential_grad,
)
from hamnav.evalkit import ROBUSTNESS_LEVELS, PerturbedWorkspace
from hamnav.generation import (
    generate_bottleneck,
    generate_dungeon,
    generate_workspace,
)
from hamnav.learning import (
    RegressionProblem,
    PersistentExcitationError,
    identification_loss_grad,
    identify_weights,
    gram_matrix,
    make_reference_dataset,
    scene_rollout,
    train_offline,
    TrainConfig,
)
from hamnav.navigator import (
    DefaultMetaPolicy,
    EpisodeConfig,
    build_tokens,
    dungeon_setup,
    run_episode,
)
from hamnav.ring import RingParams, RingShapeModel
from hamnav.workspace import (
    CoverageTracker,
    DiscSet,
    Obstacle,
    OccupancyGrid,
    Workspace,
    grid_to_sdf,
    signed_distances,
)

from conftest import central_diff
from test_baselines import dijkstra_cost, grid_workspace


def report(num, name, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail} " \
           f"({time.perf_counter() - t0:.1f}s)"
    print("\n" + line)
    assert ok, line


def test_criterion_01_barrier_exactness():
    t0 = time.perf_counter()
    v = ipc_barrier(0.5, 1.0)
    ok_value = abs(v - 0.1732867) <= 1e-6
    bound_ok = True
    d_hats = np.linspace(0.1, 2.0, 100)
    for dh in d_hats:  # 100 x 100 grid of (d, d_hat)
        d = np.linspace(1e-6, dh * (1 - 1e-12), 100)
        resid = -d * ipc_barrier_grad(d, dh)
        if not (np.all(resid >= -1e-12) and np.all(resid <= dh * dh * (1 + 2 / np.e) + 1e-9)):
            bound_ok = False
    report(1, "barrier math", ok_value and bound_ok,
           f"b(0.5,1)={v:.9f}, complementarity bound on 10^4 grid points "
           f"{'holds' if bound_ok else 'violated'}", t0)


def _fd_check_family(scenes, attach_ring, rng):
    worst = 0.0
    checked = 0
    shape = RingShapeModel(RingParams()) if attach_ring else None
    layout = RING_LAYOUT if attach_ring else POINT_LAYOUT
    for ws in scenes:
        discs = DiscSet.of(enumerate(ws.obstacles))
        fixed = FixedTerms(layout=layout, goal=ws.goal, d_hat=1.0, sensor_gain=1.0,
                           shape=shape)
        w = EnergyWeights(beta=1.2, lam=0.8 if attach_ring else 0.0,
                          alpha={i: 1.0 + 0.1 * i for i in discs.ids.tolist()}, mu=0.0)
        spec = HamiltonianSpec(np.ones(layout.dim), w, discs, fixed)
        if shape is not None:
            shape.s_target = 0.8
        n_target = 100 // len(scenes) + 1
        got = 0
        while got < n_target:
            q = np.zeros(layout.dim)
            q[layout.sensor] = rng.normal(0, 0.5, 2)
            q[layout.frame] = rng.uniform(0.5, ws.side - 0.5, 2)
            if layout.scale is not None:
                q[layout.scale] = rng.uniform(0.6, 1.1)
            if ws.obstacles:
                c = q[layout.frame]
                d = signed_distances(ws.obstacles, c)
                if shape is not None:
                    d = d - float(q[layout.scale][0]) * 0.41
                if np.any(np.abs(d) < 2e-2) or np.any(np.abs(d - 1.0) < 2e-2):
                    continue  # keep FD away from the piecewise kinks
            g = potential_grad(q, spec)
            fd = central_diff(lambda x: potential(x, spec), q)
            denom = max(np.linalg.norm(fd), 1e-6)
            worst = max(worst, float(np.linalg.norm(g - fd) / denom))
            got += 1
            checked += 1
    return worst, checked


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    total = 0
    for family in ("train", "test_id", "test_ood"):
        scenes = [generate_workspace(family, 500 + k) for k in range(3)]
        w, n = _fd_check_family(scenes, attach_ring=(family != "train"), rng=rng)
        worst, total = max(worst, w), total + n
    # dungeon family: circles extracted from grid walls, point robot
    from hamnav.workspace import extract_circles
    ws = generate_dungeon(500)
    discs = extract_circles(ws.grid, (np.array([6.0, 6.0]), 5.0))
    dws = Workspace(ws.side, discs, ws.start, ws.goal)
    w, n = _fd_check_family([dws], attach_ring=False, rng=rng)
    worst, total = max(worst, w), total + n
    report(2, "gradient correctness", worst < 1e-5,
           f"{total} random states over 4 scene families, worst rel err {worst:.2e}", t0)


def test_criterion_03_integrator_invariants():
    t0 = time.perf_counter()
    # leapfrog time reversal over 1000 steps
    grad = lambda q: q + 0.3 * q ** 3
    z0 = PhaseState(np.array([0.7, -0.2]), np.array([0.1, 0.4]))
    z = z0.copy()
    for _ in range(1000):
        z = step_leapfrog(z, grad, np.ones(2), 0.05)
    z = PhaseState(z.q, -z.p)
    for _ in range(1000):
        z = step_leapfrog(z, grad, np.ones(2), 0.05)
    rev_err = max(float(np.max(np.abs(z.q - z0.q))), float(np.max(np.abs(-z.p - z0.p))))
    # harmonic drift: R = q^2/2, tau = 0.1, 1000 steps from (1, 0)
    zh = PhaseState(np.array([1.0]), np.array([0.0]))
    for _ in range(1000):
        zh = step_leapfrog(zh, lambda q: q, np.ones(1), 0.1)
    H0, HT = 0.5, 0.5 * float(zh.p[0] ** 2 + zh.q[0] ** 2)
    drift = abs(HT - H0) / H0
    # frame-only forcing leaves sensor/shape momenta bit-identical
    sel = PortSelectors(dim=6, frame=slice(2, 4))
    rng = np.random.default_rng(3)
    bit_ok = True
    for _ in range(50):
        zz = PhaseState(rng.normal(size=6), rng.normal(size=6))
        g = rng.normal(size=6)
        a = step_symplectic_euler(zz, g, 0.0, np.zeros(2), np.ones(6), 0.03, sel)
        b = step_symplectic_euler(zz, g, 5.3, rng.normal(size=2), np.ones(6), 0.03, sel)
        for i in (0, 1, 4, 5):
            bit_ok &= (a.p[i] == b.p[i])
    ok = rev_err < 1e-8 and drift < 1e-3 and bit_ok
    report(3, "integrator invariants", ok,
           f"reversal {rev_err:.2e} < 1e-8, harmonic drift {drift:.2e} < 1e-3, "
           f"frame-only bit-identity {bit_ok}", t0)


def test_criterion_04_identifiability():
    t0 = time.perf_counter()
    # noiseless recovery from a conservative symplectic-Euler ring rollout
    from hamnav.learning import regression_from_rollout
    shape = RingShapeModel(RingParams())
    shape.s_target = 0.7
    obstacles = [Obstacle(np.array([2.0, 0.4]), 0.5), Obstacle(np.array([1.2, -1.0]), 0.4)]
    goal = np.array([4.0, 0.0])
    eta_true = np.array([1.3, 0.9, 0.8, 1.7])
    w = EnergyWeights(beta=1.3, lam=0.9, alpha={0: 0.8, 1: 1.7})
    discs = DiscSet.of(enumerate(obstacles))
    fixed = FixedTerms(layout=RING_LAYOUT, goal=goal, d_hat=1.5, sensor_gain=0.7,
                       shape=shape)
    spec = HamiltonianSpec(np.array([1, 1, 1, 1, 1, 4.0]), w, discs, fixed)
    q0 = np.array([0.1, -0.2, 0.0, 0.0, 0.0, 1.0])
    p0 = np.array([0.0, 0.0, 0.3, 0.1, 0.0, -0.05])
    traj = rollout(PhaseState(q0, p0), spec, IntegratorConfig(0.02, 40))
    problem = regression_from_rollout(traj, discs, fixed, tau=0.02)
    G, mineig = gram_matrix(problem)
    err = float(np.max(np.abs(identify_weights(problem) - eta_true)))
    recovery_ok = mineig > 1e-6 and err < 1e-8
    # degenerate features must be detected
    try:
        identify_weights(RegressionProblem(np.zeros((5, 2)), np.zeros((5, 3, 2))))
        pe_ok = False
    except PersistentExcitationError:
        pe_ok = True
    # vanishing updates under gradient descent at alpha < 2/L
    rng = np.random.default_rng(8)
    grads = rng.normal(size=(25, 5, 4))
    eta_star = rng.uniform(0.5, 2.0, 5)
    prob2 = RegressionProblem(np.einsum("j,tjd->td", eta_star, grads), grads, ridge=1e-3)
    G2, _ = gram_matrix(prob2)
    L = float(np.linalg.eigvalsh(G2 + 1e-3 * np.eye(5))[-1])
    phi_scale = float(np.sqrt(np.max(np.sum(grads ** 2, axis=(1, 2)))))
    eta = np.zeros(5)
    hit = None
    for k in range(10_000):
        nxt = eta - (1.0 / L) * identification_loss_grad(prob2, eta)
        if np.linalg.norm(nxt - eta) * phi_scale < 1e-8:
            hit = k
            break
        eta = nxt
    ok = recovery_ok and pe_ok and hit is not None
    report(4, "identifiability", ok,
           f"recovery err {err:.1e} (min eig {mineig:.1e}), PE violation detected "
           f"{pe_ok}, update magnitude < 1e-8 after {hit} iterations", t0)


def test_criterion_05_barrier_relaxation_limit():
    t0 = time.perf_counter()
    a, b, x_g = 0.0, 2.0, 4.0
    beta = alpha = 1.0
    sel = PortSelectors(dim=1, frame=slice(0, 1))
    mu, tau = 200.0, 0.002  # quasi-static rollout of the relaxed OCP
    clearances, ratios = [], []
    for mu_b, T in ((1.0, 100_000), (0.1, 100_000), (0.01, 120_000)):
        def grad(q):
            x = q[0]
            return np.array([2 * beta * (x - x_g) - mu_b * alpha / (x - a)
                             + mu_b * alpha / (b - x)])
        z = PhaseState(np.array([1.0]), np.zeros(1))
        resid = 0.0
        for _ in range(T):
            z = step_symplectic_euler(z, grad(z.q), mu, None, np.ones(1), tau, sel)
            d1, d2 = z.q[0] - a, b - z.q[0]
            resid += (d1 * (mu_b * alpha / d1) + d2 * (mu_b * alpha / d2)) * tau
        clearances.append(min(z.q[0] - a, b - z.q[0]))
        ratios.append(resid / (2 * mu_b * alpha * T * tau))
    mono = clearances[0] > clearances[1] > clearances[2] > 0
    track = all(abs(r - 1.0) <= 0.2 for r in ratios)
    report(5, "barrier relaxation limit", mono and track,
           f"terminal clearances {[f'{c:.4f}' for c in clearances]} decrease toward 0; "
           f"residual/(mu_b a T) = {[f'{r:.3f}' for r in ratios]} within 20%", t0)


def test_criterion_06_squeeze_benchmark():
    t0 = time.perf_counter()
    wins = 0
    rigid_blocked = 0
    for seed in range(20):
        ws = generate_bottleneck(seed)
        rigid = astar_rigid(ws, 0.1, 0.4)
        rigid_blocked += (not rigid.feasible)
        cfg = EpisodeConfig(ring=RingParams(), n_max=6000)
        res = run_episode(ws, cfg, DefaultMetaPolicy())
        if (not rigid.feasible) and res.termination == "success" \
                and res.true_clearances.min() > 0:
            wins += 1
    report(6, "squeeze benchmark", wins >= 18,
           f"{wins}/20 maps: ring passes with zero penetrations where the rigid "
           f"disc is infeasible ({rigid_blocked}/20 certified infeasible)", t0)


def test_criterion_07_navigation_vs_mapping_table():
    t0 = time.perf_counter()
    ours_rows, pf_rows = [], []
    for seed in range(50):
        ws = generate_workspace("test_id", 1000 + seed)
        lref = astar_rigid(ws, 0.1, 0.4).length
        cfg = EpisodeConfig(ring=RingParams(), n_max=6000)
        ours = run_episode(ws, cfg, DefaultMetaPolicy())
        pf = run_baseline_episode(ws, "pf", cfg, robot_radius=0.4,
                                  pf_gains=PFGains(d_hat=0.8))
        s = ours.termination == "success" and ours.true_clearances.min() > 0
        ours_rows.append((s, ours.path_length(), lref, ours.coverage,
                          float(ours.true_clearances.min())))
        pf_rows.append((pf.termination == "success", pf.path_length(), lref))
    spl = float(np.mean([(lr / max(L, lr) if s else 0.0) for s, L, lr, _, _ in ours_rows]))
    det = float(np.mean([L / lr for s, L, lr, _, _ in ours_rows if s]))
    min_clr = min(m for s, _, _, _, m in ours_rows if s)
    mapping = float(np.mean([c for _, _, _, c, _ in ours_rows]))
    pf_det = float(np.mean([L / lr for s, L, lr in pf_rows if s]))
    ok = spl >= 0.80 and det <= 1.25 and min_clr > 0 and mapping <= 0.20 and pf_det > det
    report(7, "navigation vs mapping table", ok,
           f"SPL {spl:.3f} >= 0.80, detour {det:.3f} <= 1.25, min success clearance "
           f"{min_clr:.3f} > 0, mapping {mapping:.3f} <= 0.20, PF detour {pf_det:.3f} "
           f"> ours", t0)


def test_criterion_08_dungeon_success():
    t0 = time.perf_counter()
    succ, dists = 0, []
    for seed in range(10):
        ws = generate_dungeon(100 + seed)  # held-out maze seeds
        cfg, meta = dungeon_setup()
        res = run_episode(ws, cfg, meta)
        succ += res.termination == "success" and res.true_clearances.min() > 0
        dists.append(res.goal_dists[-1])
    mean_dist = float(np.mean(dists))
    ok = succ >= 8 and mean_dist <= 0.5
    report(8, "dungeon success", ok,
           f"success {succ}/10 >= 80%, mean terminal goal distance "
           f"{mean_dist:.3f} <= 0.5 map units", t0)


def test_criterion_09_robustness_ordering():
    t0 = time.perf_counter()
    cfg = EpisodeConfig(ring=RingParams(), n_max=6000)
    scenes, pool = [], 0
    while len(scenes) < 30 and pool < 60:
        base = generate_workspace("test_id", 3000 + pool)
        ws = PerturbedWorkspace(base, ROBUSTNESS_LEVELS["nominal"], seed=pool)
        res = run_episode(ws, cfg, DefaultMetaPolicy())
        if res.termination == "success" and res.true_clearances.min() > 0:
            scenes.append((pool, base))
        pool += 1
    rates = {}
    for name in ("nominal", "mild", "severe"):
        succ = 0
        for k, base in scenes:
            ws = PerturbedWorkspace(base, ROBUSTNESS_LEVELS[name], seed=k)
            res = run_episode(ws, cfg, DefaultMetaPolicy())
            succ += res.termination == "success" and res.true_clearances.min() > 0
        rates[name] = succ / len(scenes)
    ok = rates["nominal"] >= rates["mild"] >= rates["severe"] >= 0.75
    report(9, "robustness ordering", ok,
           f"success nominal {rates['nominal']:.2f} >= mild {rates['mild']:.2f} "
           f">= severe {rates['severe']:.2f} >= 0.75 over {len(scenes)} episodes/level",
           t0)


def test_criterion_10_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    from hamnav.baselines import clearance_raster
    astar_ok = True
    for _ in range(50):
        n = int(rng.integers(16, 65))
        occ = rng.random((n, n)) < 0.25
        occ[1, 1] = occ[n - 2, n - 2] = False
        ws = grid_workspace(occ, start=(1.5, 1.5), goal=(n - 1.5, n - 1.5))
        plan = astar_rigid(ws, 1.0, 0.0)
        clear, cell = clearance_raster(ws, 1.0)
        oracle = dijkstra_cost(clear >= 0.0, (1, 1), (n - 2, n - 2), cell)
        if plan.feasible:
            astar_ok &= abs(plan.length - oracle) < 1e-9
        else:
            astar_ok &= np.isinf(oracle)
    edt_ok = True
    for _ in range(20):
        n = int(rng.integers(8, 65))
        occ = rng.random((n, n)) < rng.uniform(0.05, 0.4)
        if not occ.any() or occ.all():
            continue
        sdf = grid_to_sdf(OccupancyGrid(occ))
        ys, xs = np.nonzero(occ)
        fys, fxs = np.nonzero(~occ)
        for _ in range(30):
            r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
            if occ[r, c]:
                sq = int(((fys - r) ** 2 + (fxs - c) ** 2).min())
                edt_ok &= round(sdf[r, c] ** 2) == sq and sdf[r, c] < 0
            else:
                sq = int(((ys - r) ** 2 + (xs - c) ** 2).min())
                edt_ok &= round(sdf[r, c] ** 2) == sq and sdf[r, c] > 0
    ratio_ok = True
    for _ in range(20):
        L, d = 10.0, 0.8
        coarse = CoverageTracker(L, d / 8)
        fine = CoverageTracker(L, d / 32)
        for _ in range(int(rng.integers(1, 7))):
            c = rng.uniform(0.5, 9.5, 2)
            coarse.add_window(c, d)
            fine.add_window(c, d)
        ratio_ok &= abs(coarse.covered_fraction() - fine.covered_fraction()) <= 0.01
    ok = astar_ok and edt_ok and ratio_ok
    report(10, "oracle equivalences", ok,
           f"A*=Dijkstra on 50 grids {astar_ok}, EDT exact on 20 grids {edt_ok}, "
           f"mapping ratio within 1% of refined raster {ratio_ok}", t0)


def test_criterion_11_ablation_directionality():
    t0 = time.perf_counter()
    dataset = make_reference_dataset(8, seed=77, mu_ref=4.0, beta_ref=1.5, alpha_ref=2.0)
    cfg_a = TrainConfig(epochs=40, lr=3e-3, weights=(1.0, 1.0, 0.0, 0.0), seed=3)
    cfg_b = TrainConfig(epochs=40, lr=3e-3, weights=(1.0, 1.0, 0.1, 0.0), seed=3)
    model_a, _ = train_offline(dataset, cfg_a)
    model_b, _ = train_offline(dataset, cfg_b)
    scenes = make_reference_dataset(10, seed=99, mu_ref=4.0)
    mass = np.ones(4)

    def penetration_steps(model):
        total = 0
        for sc in scenes:
            tokens = build_tokens(sc.q0, np.zeros(4), sc.discs, sc.goal, mass, POINT_LAYOUT)
            qs, _ = scene_rollout(sc, model.propose(tokens), horizon=250, tau=0.03, d_hat=1.0)
            clr = np.array([signed_distances(sc.obstacles, q[2:4]).min() for q in qs])
            total += int(np.sum(clr < 0))
        return total

    pen_a = penetration_steps(model_a)
    pen_b = penetration_steps(model_b)
    report(11, "ablation directionality", pen_a > pen_b,
           f"penetration steps without friction loss {pen_a} > with w_fric=0.1 "
           f"{pen_b} on the same 10 scenes", t0)
