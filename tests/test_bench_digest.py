"""Golden behaviour digests: short runs must reproduce the pinned output.

The cases are a ring episode, a ring squeezing through a bottleneck between
two fence discs, a ring that senses jittered discs (``ring_perturbed``), a
dungeon point-robot episode and a whole one (``dungeon_handoff``), a point-robot
episode that abandons an exit for lack of progress, a point-robot and a ring
episode under a trained ``MetaRegressor`` (``meta_point``, ``meta_ring``), a
``scene_rollout``, a short ``train_offline``, and the PF and DWA baselines
(DWA as a point robot and as a 0.4-m disc on ``test_id`` 0 and in a dungeon;
PF as a 0.4-m disc).
``all_columns`` pins the logged arrays the others leave out, for a ring, a
point-robot and a DWA episode.
Each case hashes (sha256) its trajectory (``qs``, ``ps``, termination; the
baselines have no momenta, so ``qs`` alone; the trained parameters for
``train_offline``) and its logged observables (energies and clearances;
clearances only for the baselines; the loss curve for ``train_offline``) and
compares both with
``tests/golden/bench_digest.json``.  The file also keeps the arrays, the
numpy version it was made with and its arithmetic key (``scripts/bench.py``'s
``arithmetic_key``: numpy version, OpenBLAS core, AVX-512 dispatch).  When
numpy's major.minor matches that version the digests must match exactly,
bit for bit.  Under another numpy, whose math routines may round differently
in the last ulp, the termination and the step count must still match exactly
and every array must agree with the stored one to
``np.allclose(rtol=1e-12, atol=0)``.

The engine takes no BLAS or LAPACK call on small operands: its norms,
contractions and 2x2/3x3 solves are elementwise numpy or Python floats, whose
bits no kernel choice changes.  So ``test_digests_hold_under_other_blas_kernels``
records every case but the three that run a ``MetaRegressor`` (``MLP_CASES``:
its MLP's matmuls are matrix work left to BLAS) in a subprocess under
``OPENBLAS_CORETYPE=Haswell`` and again under ``Prescott``, and their digests
must be the stored ones.

A change that moves a digest on purpose must say why; regenerate the file
with ``PYTHONPATH=src python tests/test_bench_digest.py --write``.  A new
case is added without rewriting the others by naming it:
``--write ring_bottleneck`` regenerates only the named cases.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamnav.baselines import run_baseline_episode
from hamnav.dynamics import IntegratorConfig, rollout
from hamnav.energy import PhaseState
from hamnav.evalkit import ROBUSTNESS_LEVELS, PerturbedWorkspace
from hamnav.generation import generate_bottleneck, generate_dungeon, generate_workspace
from hamnav.learning import (MetaRegressor, TrainConfig, _scene_spec, make_reference_dataset,
                            scene_rollout, train_offline)
from hamnav.navigator import EpisodeConfig, dungeon_setup, run_episode
from hamnav.ring import RingParams

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "bench_digest.json"
# A trained meta-regressor, kept fixed so that the meta_* cases pin the
# navigator under a learned policy and not the training: made once with
#   model, _ = train_offline(make_reference_dataset(8, 77),
#                            TrainConfig(epochs=40, lr=3e-3, seed=3))
#   model.save("tests/golden/meta_8_77.bin")
META = Path(__file__).parent / "golden" / "meta_8_77.bin"

EPISODE = ("qs", "ps"), ("energies", "clearances", "true_clearances")
BASELINE = ("qs",), ("clearances", "true_clearances")


def _episode(res, names=EPISODE):
    arrays = {k: getattr(res, k) for k in names[0] + names[1]}
    return res.termination, res.n_steps, arrays


def ring_episode():
    cfg = EpisodeConfig(ring=RingParams(), n_max=200)
    return _episode(run_episode(generate_workspace("test_id", 0), cfg))


def ring_bottleneck():
    """Ring on bottleneck 0: it reaches the fence and squeezes to the scale
    floor with two fence discs active for about half of its steps."""
    cfg = EpisodeConfig(ring=RingParams(), n_max=250)
    return _episode(run_episode(generate_bottleneck(0), cfg))


def ring_perturbed():
    """Ring on test_id 0 sensing under the ``mild`` perturbation: its sensed
    discs are jittered copies of the world's, so its pass at a state is no
    bound on the ground-truth clearance there."""
    ws = PerturbedWorkspace(generate_workspace("test_id", 0), ROBUSTNESS_LEVELS["mild"], seed=0)
    cfg = EpisodeConfig(ring=RingParams(), n_max=200)
    return _episode(run_episode(ws, cfg))


def point_episode():
    cfg, meta = dungeon_setup(n_max=200)
    return _episode(run_episode(generate_dungeon(0, cells=3), cfg, meta))


def dungeon_handoff():
    """A whole point-robot episode in dungeon 0: the robot waits near exits
    the selector hands back unchanged, and each exit it reaches is one
    hand-off (one traversal and one sensing event), not one per step near it."""
    cfg, meta = dungeon_setup()
    return _episode(run_episode(generate_dungeon(0, cells=3), cfg, meta))


def abandon_episode():
    """Point robot on test_id 1: no progress toward its exit makes it record a
    failure and re-sense at steps 203, 283 and 363; the third failure retires
    that opening."""
    cfg = EpisodeConfig(n_max=400)
    return _episode(run_episode(generate_workspace("test_id", 1), cfg))


def meta_case(ring):
    """``test_id`` 1 under the trained regressor in META: every sensing event
    re-anchors beta, lam and mu at its proposal, so the weights adapt (the
    default policy's stay constant)."""
    cfg = EpisodeConfig(ring=RingParams() if ring else None, n_max=200)
    return lambda: _episode(run_episode(generate_workspace("test_id", 1), cfg,
                                        MetaRegressor.load(META)))


def scene_rollout_case():
    """``scene_rollout`` for (qs, velocities), and the rollout under it for the
    energies and clearances it records."""
    scene = make_reference_dataset(1, seed=0)[0]
    w = scene.ref_weights()
    qs, vs = scene_rollout(scene, w, horizon=250, tau=0.03, d_hat=1.0)
    spec = _scene_spec(scene.discs, scene.goal, w, 1.0)
    traj = rollout(PhaseState(scene.q0.copy(), np.zeros(4)), spec,
                   IntegratorConfig(tau=0.03, horizon=250), mu=w.mu)
    termination = "diverged" if traj.diverged else "horizon"
    arrays = {"qs": qs, "ps": vs, "energies": traj.energies,
              "clearances": traj.clearances}
    return termination, len(traj) - 1, arrays


def train_offline_case():
    """Three epochs on four reference scenes with the multi-start term on
    (``weights[3] > 0``): the loss curve and the trained parameters."""
    cfg = TrainConfig(epochs=3)
    assert cfg.weights[3] > 0
    model, curve = train_offline(make_reference_dataset(4, seed=0), cfg)
    return "trained", cfg.epochs, {"params": model.get_flat(), "loss_curve": curve}


COLUMNS = ("betas", "lams", "alpha_sums", "active_counts", "mus", "u_fs", "goal_dists",
           "speeds", "times")


def all_columns_case():
    """Every logged array the cases above leave out (the weights, the active
    counts, the port input, the energy terms, goal distance, speed and time),
    for a ring, a point-robot and a DWA episode on ``test_id`` 1 (discs are
    active from step 30; DWA reaches the goal).  The termination names each
    episode's ending and the dtype of its ``active_counts``, which the hash
    alone would not see."""
    ws = generate_workspace("test_id", 1)
    runs = {"ring": run_episode(ws, EpisodeConfig(ring=RingParams(), n_max=200)),
            "point": run_episode(ws, EpisodeConfig(n_max=200)),
            "dwa": run_baseline_episode(ws, "dwa", EpisodeConfig())}
    arrays, endings = {}, []
    for tag, res in runs.items():
        endings.append(f"{tag}:{res.termination}:{res.active_counts.dtype}")
        arrays.update((f"{tag}.{k}", getattr(res, k)) for k in COLUMNS)
        arrays.update((f"{tag}.{k}", v) for k, v in sorted(res.breakdown.items()))
    return " ".join(endings), sum(r.n_steps for r in runs.values()), arrays


def baseline_case(method, robot_radius=0.0, dungeon=False):
    if dungeon:
        ws, cfg = generate_dungeon(0, cells=3), dungeon_setup(n_max=300)[0]
    else:
        ws, cfg = generate_workspace("test_id", 0), EpisodeConfig()
    return lambda: _episode(run_baseline_episode(ws, method, cfg, robot_radius=robot_radius),
                            BASELINE)


# name -> (run, trajectory arrays, observed arrays)
CASES = {
    "ring_episode": (ring_episode, *EPISODE),
    "ring_bottleneck": (ring_bottleneck, *EPISODE),
    "ring_perturbed": (ring_perturbed, *EPISODE),
    "point_episode": (point_episode, *EPISODE),
    "dungeon_handoff": (dungeon_handoff, *EPISODE),
    "abandon_episode": (abandon_episode, *EPISODE),
    "meta_point": (meta_case(ring=False), *EPISODE),
    "meta_ring": (meta_case(ring=True), *EPISODE),
    "scene_rollout": (scene_rollout_case, ("qs", "ps"), ("energies", "clearances")),
    "train_offline": (train_offline_case, ("params",), ("loss_curve",)),
    "all_columns": (all_columns_case, (),
                    tuple(f"{tag}.{k}" for tag in ("ring", "point", "dwa")
                          for k in COLUMNS + ("E_barrier_total", "E_goal", "E_obj",
                                              "E_sensor"))),
    "dwa_point": (baseline_case("dwa"), *BASELINE),
    "dwa_disc": (baseline_case("dwa", robot_radius=0.4), *BASELINE),
    "dwa_dungeon": (baseline_case("dwa", dungeon=True), *BASELINE),
    "pf_disc": (baseline_case("pf", robot_radius=0.4), *BASELINE),
}


# The cases that run a MetaRegressor: its MLP's matmuls are matrix work left
# to BLAS, so their bits follow the OpenBLAS kernel (ROADMAP item 9b).
MLP_CASES = ("meta_point", "meta_ring", "train_offline")


def arithmetic_key():
    """``scripts/bench.py``'s arithmetic key: numpy version, OpenBLAS core and
    AVX-512 dispatch."""
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.arithmetic_key()


def sha256(arrays, names, termination=None):
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    if termination is not None:
        h.update(termination.encode())
    return h.hexdigest()


def record(name):
    run, trajectory, observed = CASES[name]
    termination, n_steps, arrays = run()
    return {
        "termination": termination,
        "n_steps": n_steps,
        "trajectory_sha256": sha256(arrays, trajectory, termination),
        "observed_sha256": sha256(arrays, observed),
        "arrays": {k: {"shape": list(np.shape(v)),
                       "data": np.asarray(v, float).ravel().tolist()}
                   for k, v in arrays.items()},
    }


def major_minor(version):
    return tuple(version.split(".")[:2])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name, golden):
    want = golden["cases"][name]
    got = record(name)
    assert got["termination"] == want["termination"]
    assert got["n_steps"] == want["n_steps"]
    if major_minor(np.__version__) == major_minor(golden["numpy"]):
        assert got["trajectory_sha256"] == want["trajectory_sha256"]
        assert got["observed_sha256"] == want["observed_sha256"]
        return
    for key, stored in want["arrays"].items():
        arr = np.asarray(got["arrays"][key]["data"], float)
        ref = np.asarray(stored["data"], float)
        assert got["arrays"][key]["shape"] == stored["shape"], key
        assert np.allclose(arr, ref, rtol=1e-12, atol=0), key


def digests_under(core, names):
    """The arithmetic key and the digests of the cases ``names``, recorded in
    one subprocess whose OpenBLAS kernel core is forced to ``core``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, __file__, "--digests", *names], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_digests_hold_under_other_blas_kernels(core, golden):
    """The cases that avoid the MLP keep their digests under another OpenBLAS
    kernel: the episode path makes no BLAS or LAPACK call."""
    if major_minor(np.__version__) != major_minor(golden["numpy"]):
        pytest.skip(f"the digests are pinned under numpy {golden['numpy']}")
    names = sorted(set(CASES) - set(MLP_CASES))
    native = arithmetic_key()["openblas_core"]
    if native == "unknown":
        pytest.skip("numpy has no OpenBLAS whose kernel core can be switched")
    got = digests_under(core, names)
    forced = got["arithmetic"]["openblas_core"]
    if forced == native:
        pytest.skip(f"OPENBLAS_CORETYPE={core} left the {native} kernels in place "
                    f"(no core switch, or this CPU's own core)")
    for name in names:
        want = golden["cases"][name]
        assert got["cases"][name] == {k: want[k] for k in got["cases"][name]}, (name, forced)


def write_golden(path=GOLDEN, names=None):
    """Record every case, or only ``names`` into the existing file."""
    if names:
        unknown = sorted(set(names) - set(CASES))
        if unknown:
            raise SystemExit(f"unknown cases {unknown}; known: {sorted(CASES)}")
        doc = json.loads(path.read_text())
        if doc.get("arithmetic") != arithmetic_key():
            raise SystemExit(f"{path.name} was made under the arithmetic "
                             f"{doc.get('arithmetic')}; regenerate every case under "
                             f"{arithmetic_key()}")
        doc["cases"].update((n, record(n)) for n in names)
        doc["cases"] = dict(sorted(doc["cases"].items()))
    else:
        doc = {"numpy": np.__version__, "arithmetic": arithmetic_key(),
               "cases": {n: record(n) for n in sorted(CASES)}}
    text = json.dumps(doc, indent=1)
    # one line per array: collapse the innermost lists of numbers
    text = re.sub(r"\[\s*([^\[\]{}\"]*?)\s*\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]"
                  if m.group(1).strip() else "[]", text)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digests"]:
        cases = {}
        for name in sys.argv[2:]:
            got = record(name)
            cases[name] = {k: got[k] for k in ("termination", "n_steps", "trajectory_sha256",
                                               "observed_sha256")}
        print(json.dumps({"arithmetic": arithmetic_key(), "cases": cases}))
        sys.exit(0)
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench_digest.py "
                 "--write [NAME...] | --digests NAME...")
    write_golden(names=sys.argv[2:])
    print(f"wrote {GOLDEN}")
