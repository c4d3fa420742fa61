"""Kernel calls and the bookkeeping both search families share.

The labeling searches (``search``) and the R*-sequence and sigma-max
searches (``_orderings``) call their kernels through ``_run_branch``,
which lifts Python's frame limit while a kernel runs, and share the
budget rules (``_norm_budget``, ``_shares``), the depth cap
(``MAX_DEPTH``, ``_check_depth``) and the ``SearchOutcome`` record.
This module imports neither search module, so each loads only what it
runs.
"""

from __future__ import annotations

import sys
import threading

from . import _kernel
from ._kernel import BUDGET, EXHAUSTED, FOUND
from ._vocab import (
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    Record,
    set_field,
)
from .errors import CapExceededError
from .groups import Element, GroupSpec, element_at

#: Deepest search any entry point runs: slots for the labeling searches,
#: group order for R*-sequences and sigma-max.  Both backends refuse deeper
#: instances before searching, so they answer alike.  The pure kernel
#: recurses once per level; ``_run_branch`` raises Python's frame
#: limit by this much (plus ``_KERNEL_FRAMES``) while kernel calls run,
#: so the cap holds however deep the caller is.
MAX_DEPTH = 10_000

#: Frames a pure kernel uses beyond one per level (entry, place/unplace).
_KERNEL_FRAMES = 50

# Kernel calls running in this process, and the frame limit to restore
# when the last of them returns; guarded by ``_lift_lock``.
_lift_lock = threading.Lock()
_lifted_calls = 0
_unlifted_limit = 0


class SearchOutcome(Record):
    """Result of one search: status, certificate (when Found: the
    labeling's ``Certificate``, or the ``RStarSequence``), and cost, the
    nodes of every root branch of a labeling search that ran, or of the
    one call of an R*-sequence search."""

    _fields = ("status", "certificate", "nodes_explored")

    def __init__(self, status: str, certificate: object | None,
                 nodes_explored: int) -> None:
        set_field(self, "status", status)
        set_field(self, "certificate", certificate)
        set_field(self, "nodes_explored", nodes_explored)


#: Budgets from here up are unbounded: no search spends that many nodes,
#: and the compiled kernel takes the budget as a signed 64-bit integer.
_UNBOUNDED_FROM = 1 << 62


def _norm_budget(budget: int | None) -> int:
    if budget is None:
        return -1
    if budget < 0:
        raise ValueError("budget must be nonnegative (or None for unbounded)")
    return int(budget) if budget < _UNBOUNDED_FROM else -1


def _shares(budget: int, branches: int) -> list[int]:
    if budget < 0:
        return [-1] * branches
    base, rem = divmod(budget, branches)
    return [base + (1 if i < rem else 0) for i in range(branches)]


def _run_branch(task):
    """Call one kernel; every kernel call goes through here.

    Python's frame limit is interpreter-wide, so concurrent calls share one
    lift: the first call in raises it and the last call out restores it.
    The kernel is called in this frame: an extra Python frame between the
    search and the pure kernel made the construct benchmark slower.
    """
    global _lifted_calls, _unlifted_limit
    kind, args = task
    kern = _kernel.active_backend()
    with _lift_lock:
        if _lifted_calls == 0:
            _unlifted_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(_unlifted_limit + MAX_DEPTH + _KERNEL_FRAMES)
        _lifted_calls += 1
    try:
        return getattr(kern, "solve_" + kind)(*args)
    finally:
        with _lift_lock:
            _lifted_calls -= 1
            if _lifted_calls == 0:
                sys.setrecursionlimit(_unlifted_limit)


_STATUS_NAME = {FOUND: STATUS_FOUND, EXHAUSTED: STATUS_NOT_EXISTS, BUDGET: STATUS_UNKNOWN}


def _labels_from_indices(spec: GroupSpec, indices) -> tuple[Element, ...]:
    return tuple(element_at(spec, i) for i in indices)


def _check_depth(levels: int) -> None:
    if levels > MAX_DEPTH:
        raise CapExceededError(
            f"search depth {levels} exceeds the cap of {MAX_DEPTH} levels")
