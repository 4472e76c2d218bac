import types

import pytest

from spans import Tracer, covered_ns, installed, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("outer", 0, 100, -1),
        ("child", 10, 30, 0),
        ("leaf", 12, 28, 1),   # inside child: charged to child, not to outer
        ("child", 50, 60, 0),
    ]
    table = self_times(spans)
    assert table["outer"] == {"calls": 1, "total_ns": 100, "self_ns": 70}
    assert table["child"] == {"calls": 2, "total_ns": 30, "self_ns": 14}
    assert table["leaf"] == {"calls": 1, "total_ns": 16, "self_ns": 16}


def test_covered_time_is_a_union_clipped_to_the_parent():
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(10, 30), (20, 40)]) == 30
    assert covered_ns(0, 100, [(20, 40), (10, 30), (35, 36)]) == 30
    assert covered_ns(0, 100, [(-5, 10), (90, 120)]) == 20
    assert covered_ns(0, 100, [(0, 100), (10, 20)]) == 100


def _fake_engine():
    def leaf(x):
        return x + 1

    def outer(x):
        return engine["core"].leaf(x) * 2

    class Model:
        def step(self, x):
            return x - 1

    core = types.ModuleType("core")
    core.leaf, core.outer, core.Model = leaf, outer, Model
    user = types.ModuleType("user")
    user.leaf = leaf            # bound by "from core import leaf"
    engine = {"core": core, "user": user}
    return engine


def test_wrappers_record_spans_and_are_restored():
    engine = _fake_engine()
    originals = (engine["core"].leaf, engine["core"].outer, engine["core"].Model.__dict__["step"])
    seen = []
    tracer = Tracer(probes={"core.leaf": lambda t, a, k, r: seen.append(r)})
    traced = {"core": ["leaf", "outer", "Model.step"]}
    with installed(tracer, engine, traced):
        assert engine["user"].leaf is not originals[0]
        assert engine["core"].outer(1) == 4
        assert engine["user"].leaf(5) == 6
        assert engine["core"].Model().step(3) == 2
    assert engine["core"].leaf is originals[0] and engine["user"].leaf is originals[0]
    assert engine["core"].outer is originals[1]
    assert engine["core"].Model.__dict__["step"] is originals[2]
    assert seen == [2, 6]
    rows = list(tracer.span_rows())
    assert [r[0] for r in rows] == ["core.outer", "core.leaf", "core.leaf", "core.step"]
    assert [r[3] for r in rows] == [-1, 0, -1, -1]
    assert all(end >= start for _, start, end, _ in rows)
    table = self_times(tracer.span_rows())
    assert table["core.leaf"]["calls"] == 2 and table["core.outer"]["calls"] == 1


def test_wrappers_are_restored_after_an_error():
    engine = _fake_engine()
    original = engine["core"].leaf
    tracer = Tracer()
    with pytest.raises(TypeError):
        with installed(tracer, engine, {"core": ["leaf"]}):
            engine["core"].leaf(None)
    assert engine["core"].leaf is original and engine["user"].leaf is original
    assert [r[0] for r in tracer.span_rows()] == ["core.leaf"]
