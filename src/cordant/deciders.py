"""Closed-form existence answers for group labelings of paths, cycles
and trees.

The two Z_k deciders take only integers and import nothing beyond
``errors``; the ones taking a group read ``groups`` when they run.  So
answering ``decide path-ek`` or ``decide cycle-zk`` loads neither the
group layer nor the constructions, which re-export every decider here.
"""

from __future__ import annotations

from .errors import PreconditionError

#: the ``groups`` module, once a decider taking a group has imported it;
#: an import statement costs every call about a microsecond
_groups = None


def _group_layer():
    """The ``groups`` module, imported on the first call."""
    global _groups
    if _groups is None:
        from . import groups as _groups
    return _groups

__all__ = [
    "decide_cycle_zk_cordial",
    "decide_path_a_antimagic",
    "decide_path_ek_cordial",
    "decide_tree_2mod4_obstruction",
    "sigma_max_formula",
]


def decide_cycle_zk_cordial(n: int, k: int) -> bool:
    """Whether the cycle C_n admits an equitable Z_k vertex labeling.

    True exactly when k is odd or n is not an odd multiple of k.
    """
    if n < 3:
        raise PreconditionError("cycles need n >= 3")
    if k < 2:
        raise PreconditionError("modulus must be at least 2")
    q, r = divmod(n, k)
    return k % 2 == 1 or not (r == 0 and q % 2 == 1)


def decide_path_ek_cordial(n: int, k: int) -> bool:
    """Whether the path P_n admits an equitable Z_k edge labeling.

    For n >= 3 this holds exactly when k is not 2 mod 4 or n is not an
    odd multiple of k.  P_2 is a special case: its single edge label is
    both vertex sums, so one class holds every vertex and no k >= 2
    balances.  ``construct_path_ek`` is the proof of sufficiency: it
    writes down a labeling for every allowed (n, k), and its docstring
    shows why each one is equitable.
    """
    if n < 2:
        raise PreconditionError("paths need n >= 2")
    if k < 2:
        raise PreconditionError("modulus must be at least 2")
    if n == 2:
        return False
    q, r = divmod(n, k)
    return k % 4 != 2 or not (r == 0 and q % 2 == 1)


def decide_tree_2mod4_obstruction(n: int, spec) -> bool:
    """Parity obstruction for trees: |A| 2 mod 4, n an odd multiple of |A|.

    Returns True when the obstruction applies, meaning no tree on n
    vertices has an equitable edge labeling over the group.  Proof: A
    has one involution t (its Sylow 2-subgroup is Z_2), so its elements
    sum to t, and t is not in 2A, which has odd order.  With n = q|A|, q
    odd, the vertex sums fill each class q times and add up to qt = t;
    the edges fill each class q times but one class g, and add up to
    t - g.  Each edge enters two vertex sums: t = 2(t - g) = -2g, in 2A.
    """
    if n < 1:
        raise PreconditionError("trees need n >= 1")
    spec = _group_layer().group(spec)
    q, r = divmod(n, spec.order)
    return spec.order % 4 == 2 and r == 0 and q % 2 == 1


def decide_path_a_antimagic(spec) -> bool:
    """Whether P_|A| has an injective edge labeling with distinct sums."""
    spec = _group_layer().group(spec)
    if spec.order < 2:
        raise PreconditionError("need a group of order at least 2")
    return spec.order % 4 != 2


def sigma_max_formula(spec) -> int:
    """Most distinct neighbour sums any cyclic ordering of A achieves.

    |A| - 1 with exactly one involution, |A| - 2 for elementary
    2-groups of order above 2, |A| otherwise.
    """
    groups = _group_layer()
    spec = groups.group(spec)
    if spec.order < 2:
        raise PreconditionError("need a group of order at least 2")
    if groups.involution_count(spec) == 1:
        return spec.order - 1
    if groups.is_elementary_two(spec):
        return spec.order - 2
    return spec.order
