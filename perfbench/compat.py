"""Import the engine from a source tree, working around slice dataclass defaults.

Before Python 3.12 a ``slice`` is unhashable, so ``dataclasses`` rejects
``frame: slice = slice(2, 4)`` with ``ValueError: mutable default <class
'slice'> for field ...``.  The engine's ``StateLayout`` and ``PortSelectors``
use such defaults.  When, and only when, importing raises that exact error,
the package is imported again while ``dataclasses.dataclass`` turns each
class-level slice default into a ``field(default_factory=...)`` returning the
same slice.  That is the minimal source fix; no numeric code changes.  When
the plain import succeeds nothing is patched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import re
import sys
from pathlib import Path

SLICE_DEFAULT_ERROR = re.compile(r"^mutable default <class 'slice'> for field \w+ is not allowed")


def _constant(value):
    return lambda: value


@contextlib.contextmanager
def slice_defaults_as_factories():
    """While active, ``@dataclass`` rewrites slice defaults as equal factories."""
    original = dataclasses.dataclass

    def dataclass(cls=None, /, **kwargs):
        def wrap(klass):
            for name in klass.__dict__.get("__annotations__", {}):
                value = klass.__dict__.get(name)
                if isinstance(value, slice):
                    setattr(klass, name, dataclasses.field(default_factory=_constant(value)))
            return original(**kwargs)(klass)

        return wrap if cls is None else wrap(cls)

    dataclasses.dataclass = dataclass
    try:
        yield dataclass
    finally:
        dataclasses.dataclass = original


def _purge(package: str):
    for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
        del sys.modules[name]


def _import_all(package: str, modules) -> dict:
    return {m: importlib.import_module(f"{package}.{m}") for m in modules}


def load_engine(src_dir, package: str, modules) -> tuple[dict, bool]:
    """Import ``package.<m>`` for each m from ``src_dir``, afresh.

    Returns ``(modules_by_name, compat_loader_applied)``.  Raises
    ``ImportError`` when the package resolves outside ``src_dir`` (a copy
    installed elsewhere must not be measured in place of the source tree).
    """
    src_dir = Path(src_dir).resolve()
    _purge(package)
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    applied = False
    try:
        mods = _import_all(package, modules)
    except ValueError as exc:
        if not SLICE_DEFAULT_ERROR.match(str(exc)):
            raise
        _purge(package)
        with slice_defaults_as_factories() as shim:
            mods = _import_all(package, modules)
        original = dataclasses.dataclass
        for mod in mods.values():
            if getattr(mod, "dataclass", None) is shim:
                mod.dataclass = original
        applied = True
    root = Path(sys.modules[package].__file__).resolve().parent
    if src_dir not in root.parents:
        raise ImportError(f"{package} resolved to {root}, outside {src_dir}")
    return mods, applied
