"""Pure Python search kernels.

Reference twin of the compiled kernels in ``_speed.c``: identical
traversal order, pruning rules, memo policy, and node accounting, so the
two backends return identical results (including node counts) and can be
cross-checked against each other.  There are three, each in a file of its
own: one labeling kernel (``solve_generic``, in ``generic.py``) for paths,
cycles and trees alike, ``solve_rstar`` (``rstar.py``) and
``solve_sigma`` (``sigma.py``).  This module holds what they share and
answers every kernel name as the compiled module does, loading a
kernel's file on the first read of one of its names (PEP 562), so a
process compiles only the kernels it calls.

All kernels work on index-encoded instances: group elements are their
positions in the enumeration order, and ``add_t``/``neg_t`` are dense
Cayley tables (``add_t[a * m + b]``, ``neg_t[a]``).

Node accounting: every (slot, label) placement attempt costs one node,
counted before any feasibility check, and so does every label that the
symmetry table rules out at a slot (each kernel takes it as an optional
last argument: the orbits of the automorphisms that fix the labels placed
so far, from ``_stabilizers.stabilizer_table``).  A nonnegative ``budget``
makes the search give up with BUDGET once that many nodes are spent;
``budget = -1`` means unbounded.

Each label loop walks a doubly linked list, in index order, of the labels
that still have room (dancing links): a label leaves it when its count
reaches its cap and comes back when that placement is undone.  On
injective instances i labels are full at depth i, and walking past them
was most of the work.  A label without room, or ruled out by the
symmetry table, still costs its node, as in ``_speed.c``, so those nodes
are added in bulk, with the budget stop at the same node as a
label-by-label count.
"""

from __future__ import annotations

from importlib import import_module

FOUND = 0
EXHAUSTED = 1
BUDGET = 2

# each kernel name by the file that defines it
_HOMES = {
    "solve_chain": "generic",
    "solve_generic": "generic",
    "solve_rstar": "rstar",
    "solve_sigma": "sigma",
}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__package__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def _allowed(nxt, end, marks, row):
    """The labels linked from sentinel ``end`` through ``nxt`` whose
    ``marks[row + x]`` is nonzero, linked the same way: a snapshot."""
    walk = [end] * len(nxt)
    y = end
    x = nxt[end]
    while x != end:
        if marks[row + x]:
            walk[y] = x
            y = x
        x = nxt[x]
    return walk
