"""Search kernel backends.

Two interchangeable implementations of the same four kernels live here:
``pure`` (plain Python, always available and the reference) and ``_speed``
(hand-written C against the CPython API, built from ``_speed.c`` by
``setup.py`` as an optional extension).  The compiled one is picked at
import time when it was built; nothing is compiled on import.  Tests and
benchmarks that need one backend set ``_active``.  Both return identical
results, including node counts; whenever gcc is present, the parity tests
build ``_speed.c`` and compare the two.
"""

from __future__ import annotations

from . import pure

try:
    from . import _speed as compiled
except ImportError:
    compiled = None

FOUND = pure.FOUND
EXHAUSTED = pure.EXHAUSTED
BUDGET = pure.BUDGET

_active = compiled if compiled is not None else pure


def active_backend():
    """The kernel module selected for this process."""
    return _active


def backend_name() -> str:
    return "compiled" if _active is compiled and compiled is not None else "pure"
