import dataclasses
import sys
import textwrap

import pytest

from compat import SLICE_DEFAULT_ERROR, load_engine


def _package(root, name, body):
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "layout.py").write_text(textwrap.dedent(body))
    return root


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_loader_does_nothing_when_the_import_works(tmp_path):
    src = _package(tmp_path, "plainpkg", """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Layout:
            dim: int
            frame: tuple = (2, 4)
    """)
    original = dataclasses.dataclass
    mods, applied = load_engine(src, "plainpkg", ["layout"])
    assert applied is False
    assert dataclasses.dataclass is original
    assert mods["layout"].dataclass is original
    assert mods["layout"].Layout(dim=4).frame == (2, 4)


def test_slice_defaults_become_equal_factories(tmp_path):
    src = _package(tmp_path, "slicepkg", """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Layout:
            dim: int
            frame: slice = slice(2, 4)
            scale: slice | None = None
    """)
    original = dataclasses.dataclass
    mods, applied = load_engine(src, "slicepkg", ["layout"])
    # slices became hashable, and so valid defaults, in Python 3.12
    assert applied is (sys.version_info < (3, 12))
    assert dataclasses.dataclass is original
    assert mods["layout"].dataclass is original
    layout = mods["layout"].Layout(dim=4)
    assert layout.frame == slice(2, 4) and layout.scale is None
    assert mods["layout"].Layout(dim=6, frame=slice(0, 1)).frame == slice(0, 1)


def test_other_value_errors_propagate(tmp_path):
    src = _package(tmp_path, "badpkg", """
        raise ValueError("mutable default <class 'list'> for field x is not allowed")
    """)
    with pytest.raises(ValueError, match="list"):
        load_engine(src, "badpkg", ["layout"])


def test_error_pattern_matches_the_dataclasses_message():
    with pytest.raises(ValueError) as info:
        @dataclasses.dataclass
        class Bad:
            x: list = []
    assert not SLICE_DEFAULT_ERROR.match(str(info.value))
    msg = str(info.value).replace("<class 'list'>", "<class 'slice'>")
    assert SLICE_DEFAULT_ERROR.match(msg)
