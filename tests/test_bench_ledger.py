"""scripts/bench.py's ledger tooling: ``--compare``, the source hash and the
arithmetic key."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ledger(path, source, astar_s, workloads):
    """A ledger holding only what --compare reads: {name: (end_to_end, digest)}."""
    doc = {"source_sha256": source, "astar_rigid": {"median_s": astar_s}, "workloads": {
        name: {"end_to_end": e2e, "runs": {"trace0": {"record": {"digest": digest}}}}
        for name, (e2e, digest) in workloads.items()}}
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def ledgers(tmp_path):
    a = ledger(tmp_path / "BENCH_a.json", "aaaa", 0.02, {
        "eval_baselines": ({"steps_per_s": 40.0, "wall_s": 0.2, "quality_loss": 0.0}, "d1" * 32),
        "ring_nav": ({"steps_per_s": 3000.0}, "r1" * 32),
        "train_meta": ({"steps_per_s": 400.0}, "t1" * 32),
    })
    b = ledger(tmp_path / "BENCH_b.json", "bbbb", 0.01, {
        "eval_baselines": ({"steps_per_s": 50.0, "wall_s": 0.16, "quality_loss": 0.0}, "d1" * 32),
        "ring_nav": ({"steps_per_s": 3000.0}, "r2" * 32),
        "dungeon_point": ({"steps_per_s": 3500.0}, "p1" * 32),
    })
    return a, b


def row(lines, name, metric):
    (line,) = [ln for ln in lines if ln.split()[:2] == [name, metric]]
    return line


class TestCompare:
    def test_ratios_are_b_over_a(self, bench, ledgers):
        lines = bench.compare(*ledgers)
        assert row(lines, "eval_baselines", "steps_per_s").endswith("B/A 1.250")
        assert row(lines, "eval_baselines", "wall_s").endswith("B/A 0.800")
        assert row(lines, "astar_rigid", "median_s").endswith("B/A 0.500")
        # no ratio over a zero base
        assert row(lines, "eval_baselines", "quality_loss").endswith("B/A n/a")

    def test_digest_moves_are_named(self, bench, ledgers):
        lines = bench.compare(*ledgers)
        assert row(lines, "eval_baselines", "digest").split()[2] == "same"
        assert row(lines, "ring_nav", "digest").split()[2] == "MOVED:"
        assert lines[-1] == "run-record digests MOVED on: ring_nav"

    def test_workload_in_one_ledger_only(self, bench, ledgers):
        lines = bench.compare(*ledgers)
        assert "dungeon_point: only in B" in lines and "train_meta: only in A" in lines

    def test_sources_are_printed(self, bench, ledgers):
        assert bench.compare(*ledgers)[1] == "source_sha256: A aaaa, B bbbb"

    def test_no_move(self, bench, ledgers):
        a, _ = ledgers
        assert bench.compare(a, a)[-1] == "run-record digests: none moved"

    def test_command_runs_nothing(self, bench, ledgers, capsys, monkeypatch):
        monkeypatch.setattr(bench, "bench_workload", lambda *args: pytest.fail("ran a workload"))
        assert bench.main(["--compare", *map(str, ledgers)]) == 0
        assert "run-record digests MOVED on: ring_nav" in capsys.readouterr().out


def test_source_sha256_follows_the_engine_files(bench, tmp_path):
    pkg = tmp_path / "src" / "hamnav"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "b.py").write_text("y = 2\n")
    first = bench.source_sha256(tmp_path)
    (tmp_path / "README.md").write_text("not engine code\n")
    (pkg / "notes.txt").write_text("not a .py file\n")
    assert bench.source_sha256(tmp_path) == first
    (pkg / "b.py").write_text("y = 3\n")
    assert bench.source_sha256(tmp_path) != first
    # a file's bytes moving into its neighbour's name changes the hash
    (pkg / "a.py").write_text("")
    (pkg / "b.py").write_text("x = 1\ny = 2\n")
    assert bench.source_sha256(tmp_path) != first
    assert len(bench.source_sha256()) == 64


class TestArithmeticKey:
    def test_machine_block_holds_the_key(self, bench):
        import numpy as np

        block = bench.machine()
        assert block["numpy"] == np.__version__
        assert isinstance(block["openblas_core"], str) and block["openblas_core"]
        for key in ("avx512f", "x86_v4"):
            assert block[key] in (True, False, None), key
        assert {k: block[k] for k in bench.arithmetic_key()} == bench.arithmetic_key()

    def test_core_follows_the_coretype_switch(self, bench):
        """A subprocess forced to another kernel core reports it (where numpy's
        OpenBLAS can switch cores)."""
        if bench.openblas_core() == "unknown":
            pytest.skip("numpy has no OpenBLAS whose kernel core can be switched")
        code = ("import importlib.util, sys; spec = importlib.util.spec_from_file_location("
                f"'bench', {str(ROOT / 'scripts' / 'bench.py')!r}); bench = "
                "importlib.util.module_from_spec(spec); spec.loader.exec_module(bench); "
                "print(bench.openblas_core())")
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.strip()
        assert out in ("Haswell", bench.openblas_core())

    def test_unknown_without_a_bundled_openblas(self, bench, monkeypatch, tmp_path):
        import numpy as np

        (tmp_path / "numpy").mkdir()
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert bench.openblas_core() == "unknown"
