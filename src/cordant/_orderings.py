"""Searches over orderings of a group's elements: R*-sequences and
sigma-max.

``search_rstar_sequence`` and ``compute_sigma_max`` each make one kernel
call, through ``_runner._run_branch`` as the labeling searches do, pruned
by the stabilizer table of ``_stabilizers``.  They live apart from the
labeling searches so that a command running one of them compiles neither
``search`` nor the labeling kernel; ``search`` and the package still
export every name defined here.
"""

from __future__ import annotations

from ._kernel import FOUND
from ._runner import (
    _STATUS_NAME,
    SearchOutcome,
    _check_depth,
    _labels_from_indices,
    _norm_budget,
    _run_branch,
    _shares,
)
from ._stabilizers import stabilizer_table
from ._vocab import (
    DEFAULT_BUDGET,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    Record,
    check_searchable,
    set_field,
)
from .errors import InternalCheckError, InvalidSpecError
from .groups import Element, GroupSpec, op_tables


class RStarSequence(Record):
    """An ordering of the nonzero elements whose cyclic consecutive
    differences are pairwise distinct, with a marked position equal to
    the sum of its two cyclic neighbours."""

    _fields = ("group", "seq", "star_index")

    def __init__(self, group: GroupSpec, seq: tuple[Element, ...],
                 star_index: int) -> None:
        from .groups import add, negate, check_element

        seq = tuple(tuple(a) for a in seq)
        zero = group.zero()
        if len(seq) != group.order - 1:
            raise InvalidSpecError("sequence must list every nonzero element once")
        seen = set()
        for a in seq:
            check_element(group, a)
            if a == zero or a in seen:
                raise InvalidSpecError("sequence must list every nonzero element once")
            seen.add(a)
        n = len(seq)
        diffs = set()
        for i in range(n):
            d = add(group, seq[i], negate(group, seq[i - 1]))
            if d in diffs:
                raise InvalidSpecError("cyclic consecutive differences collide")
            diffs.add(d)
        i = star_index
        if not 0 <= i < n:
            raise InvalidSpecError("star index out of range")
        if add(group, seq[i - 1], seq[(i + 1) % n]) != seq[i]:
            raise InvalidSpecError("star position is not the sum of its neighbours")
        set_field(self, "group", group)
        set_field(self, "seq", seq)
        set_field(self, "star_index", star_index)


class HamiltonianCycle(Record):
    """A cyclic ordering of all group elements, starting at zero, and
    the number of distinct sums of its cyclic neighbours."""

    _fields = ("group", "order", "distinct_sum_count")

    def __init__(self, group: GroupSpec, order: tuple[Element, ...]) -> None:
        from .groups import add, check_element

        order = tuple(tuple(a) for a in order)
        if len(order) != group.order or len(set(order)) != len(order):
            raise InvalidSpecError("cycle must visit every element exactly once")
        for a in order:
            check_element(group, a)
        if order and order[0] != group.zero():
            raise InvalidSpecError("cycle must start at zero")
        set_field(self, "group", group)
        set_field(self, "order", order)
        set_field(self, "distinct_sum_count", len(
            {add(group, order[i - 1], order[i]) for i in range(len(order))}))


class SigmaMaxResult(Record):
    """Maximum number of distinct cyclic pair sums, with a witness cycle.

    ``status`` is Found when the value is exact (full exhaustion) and
    Unknown when the budget ran out (the value is then a lower bound).
    """

    _fields = ("status", "value", "witness", "nodes_explored")

    def __init__(self, status: str, value: int,
                 witness: HamiltonianCycle | None,
                 nodes_explored: int) -> None:
        set_field(self, "status", status)
        set_field(self, "value", value)
        set_field(self, "witness", witness)
        set_field(self, "nodes_explored", nodes_explored)


def search_rstar_sequence(spec: GroupSpec,
                          budget: int | None = DEFAULT_BUDGET) -> SearchOutcome:
    """Lex-first difference-distinct ordering of the nonzero elements with
    a star position (one term the sum of its cyclic neighbours).

    Degenerate below three nonzero elements: NotExists without a search.
    Only sequences starting with element 1 are searched: every rotation of
    a solution is one, so the lex-first sequence starts with it.  That one
    kernel call gets the share of the budget the 1 has among the m - 1
    nonzero first elements.  Every automorphism maps a solution to one, so
    below the 1 the kernel prunes by the symmetry table as the labeling
    searches do.
    """
    check_searchable(spec)
    _check_depth(spec.order)
    m = spec.order
    if m - 1 < 3:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    add_t, neg_t = op_tables(spec)
    share = _shares(_norm_budget(budget), m - 1)[0]
    r = _run_branch(("rstar", (m, add_t, neg_t, [1], share,
                               stabilizer_table(spec))))
    if r[0] != FOUND:
        return SearchOutcome(_STATUS_NAME[r[0]], None, r[-1])
    cert = RStarSequence(spec, _labels_from_indices(spec, r[1]), r[2])
    return SearchOutcome(STATUS_FOUND, cert, r[-1])


def compute_sigma_max(spec: GroupSpec,
                      budget: int | None = None) -> SigmaMaxResult:
    """Exact maximum of distinct cyclic pair sums over all element cycles.

    Exhaustive branch-and-bound with the start pinned at zero, every
    later element least in its orbit under the automorphisms fixing the
    earlier ones and mirror orderings skipped; unbounded by default (the
    instances are tiny).
    """
    check_searchable(spec)
    _check_depth(spec.order)
    add_t, _ = op_tables(spec)
    status, value, cycle, nodes = _run_branch(
        ("sigma", (spec.order, add_t, _norm_budget(budget),
                   stabilizer_table(spec))))
    witness = None
    if cycle is not None:
        witness = HamiltonianCycle(spec, _labels_from_indices(spec, cycle))
        if witness.distinct_sum_count != value:
            raise InternalCheckError("witness cycle does not attain the reported value")
    name = STATUS_FOUND if status == FOUND else STATUS_UNKNOWN
    return SigmaMaxResult(name, value, witness, nodes)
