"""Desk-scale survey of injective distinct-sum labelings on small trees.

For every order n up to a cap, every Abelian group of that order, and
every tree on n vertices, settles the two labelings (zero allowed as an
edge label, and forbidden) and tabulates the outcomes.  The expected
pattern is that the zero-allowed labeling exists exactly when n is not
2 mod 4; rows breaking the pattern are collected as violations with
their certificates attached.

Every zero-free labeling is a zero-allowed one, so the zero-allowed
search settles the zero-free row without a search when it exhausts
(NotExists) or when its lex-first labeling avoids 0 (Found); see
``_settled_zero_free``.  Such a row reads ``astar_nodes == 0`` and is as
certain as a searched one: NotExists still comes from a full exhaustion,
of a superset, and a Found is still verified once as zero-free.  Every
other zero-free row is searched.

A survey sets each search up once per part, within the call: a tree's
graph side (``search._graph_side``: its incidence, the kernel's CSR
structures, its graph symmetry) once for both notions and every group,
and a group side (``search._group_side``: class bounds, tables, root
labels) once per group, notion and graph shape.  ``search`` is imported
by the first survey, not with this module.  Each search runs through
``search._run_labeling``, the code path of the package's ``search_*``
functions, read off ``search`` at each call: that is the name a test
double swaps.  The survey calls no ``search_*`` function, so a tracer
wrapping those (the benchmark's ``perfbench/spans.py``) does not see
its searches, only their kernel calls.  The zero-free judge is read off
the package, so a judge swapped there is the one called.
"""

from __future__ import annotations

from ._vocab import (
    DEFAULT_BUDGET,
    NOTION_A_ANTIMAGIC,
    NOTION_A_STAR_ANTIMAGIC,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    Record,
    check_workers,
    set_field,
)
from .errors import InternalCheckError, PreconditionError
from .groups import GroupSpec, abelian_groups_of_order, format_group
from .trees import TREE_ENUM_CAP, enumerate_trees

__all__ = ["ExploreReport", "ExploreRow", "explore_conjecture"]


class ExploreRow(Record):
    """One (order, group, tree) cell of the survey.

    A zero-free row settled from the zero-allowed search, without a
    search of its own, reads ``astar_nodes == 0``.  It is as certain as
    a searched row: NotExists because the zero-allowed search exhausted
    a superset of the zero-free labelings, or Found with the
    zero-allowed lex-first labeling, which avoids 0, is therefore the
    zero-free lex-first one, and was verified once more as zero-free.
    """

    _fields = ("n", "group", "tree_index", "edges", "antimagic_status",
               "antimagic_nodes", "antimagic_labels", "astar_status",
               "astar_nodes", "astar_labels")

    def __init__(self, n: int, group: GroupSpec, tree_index: int,
                 edges: tuple[tuple[int, int], ...], antimagic_status: str,
                 antimagic_nodes: int, antimagic_labels: tuple | None,
                 astar_status: str, astar_nodes: int,
                 astar_labels: tuple | None) -> None:
        set_field(self, "n", n)
        set_field(self, "group", group)
        set_field(self, "tree_index", tree_index)
        set_field(self, "edges", edges)
        set_field(self, "antimagic_status", antimagic_status)
        set_field(self, "antimagic_nodes", antimagic_nodes)
        set_field(self, "antimagic_labels", antimagic_labels)
        set_field(self, "astar_status", astar_status)
        set_field(self, "astar_nodes", astar_nodes)
        set_field(self, "astar_labels", astar_labels)

    @property
    def expected_found(self) -> bool:
        return self.n % 4 != 2

    @property
    def violates(self) -> bool:
        """Row contradicts the n-not-2-mod-4 existence pattern."""
        if self.antimagic_status == STATUS_UNKNOWN:
            return False
        return (self.antimagic_status == STATUS_FOUND) != self.expected_found


class ExploreReport(Record):
    """Every row of one survey up to order ``n_max``."""

    _fields = ("n_max", "rows")

    def __init__(self, n_max: int, rows: tuple[ExploreRow, ...]) -> None:
        set_field(self, "n_max", n_max)
        set_field(self, "rows", rows)

    @property
    def violations(self) -> tuple[ExploreRow, ...]:
        return tuple(r for r in self.rows if r.violates)

    @property
    def unknown_rows(self) -> tuple[ExploreRow, ...]:
        return tuple(r for r in self.rows
                     if STATUS_UNKNOWN in (r.antimagic_status, r.astar_status))

    def summary_lines(self) -> list[str]:
        lines = []
        for row in self.rows:
            mark = " VIOLATION" if row.violates else ""
            lines.append(
                f"n={row.n} {format_group(row.group)} tree#{row.tree_index}: "
                f"zero-allowed {row.antimagic_status} "
                f"({row.antimagic_nodes} nodes), "
                f"zero-free {row.astar_status} "
                f"({row.astar_nodes} nodes){mark}")
        lines.append(
            f"{len(self.rows)} rows, {len(self.violations)} violations, "
            f"{len(self.unknown_rows)} unknown")
        return lines


def explore_conjecture(n_max: int, budget: int | None = DEFAULT_BUDGET,
                       workers: int = 1) -> ExploreReport:
    """Survey all (group, tree) pairs of each order 2..n_max."""
    check_workers(workers)
    if n_max < 2:
        raise PreconditionError("survey starts at order 2")
    if n_max > TREE_ENUM_CAP:
        raise PreconditionError(
            f"survey is capped at order {TREE_ENUM_CAP}")
    from . import search, verify_a_star_antimagic

    budget = search._norm_budget(budget)
    rows: list[ExploreRow] = []
    for n in range(2, n_max + 1):
        trees = list(enumerate_trees(n))
        # both notions label the edges: one graph side per tree serves both
        sides = [search._graph_side(tree, NOTION_A_ANTIMAGIC)
                 for tree in trees]
        for spec in abelian_groups_of_order(n):
            # this group's sides of the searches, by notion and graph shape
            groups: dict = {}
            for idx, (tree, side) in enumerate(zip(trees, sides)):
                with_zero = _search(search, tree, spec, NOTION_A_ANTIMAGIC,
                                    side, groups, budget, workers)
                zero_free = _settled_zero_free(tree, spec, with_zero,
                                               verify_a_star_antimagic)
                if zero_free is None:
                    zero_free = _search(search, tree, spec,
                                        NOTION_A_STAR_ANTIMAGIC, side, groups,
                                        budget, workers)
                rows.append(ExploreRow(
                    n=n, group=spec, tree_index=idx, edges=tree.edges,
                    antimagic_status=with_zero.status,
                    antimagic_nodes=with_zero.nodes_explored,
                    antimagic_labels=(with_zero.certificate.labels
                                      if with_zero.certificate else None),
                    astar_status=zero_free.status,
                    astar_nodes=zero_free.nodes_explored,
                    astar_labels=(zero_free.certificate.labels
                                  if zero_free.certificate else None)))
    return ExploreReport(n_max=n_max, rows=tuple(rows))


def _search(search, tree, spec: GroupSpec, notion: str, side: tuple,
            groups: dict, budget: int, workers: int):
    """The ``notion`` search of ``tree`` over ``spec`` from the tree's
    graph side ``side``, with the group side taken from ``groups`` (keyed
    by notion and graph shape), built there on first use."""
    key = notion, side[4]
    group = groups.get(key)
    if group is None:
        group = groups[key] = search._group_side(spec, notion, side)
    return search._run_labeling(tree, spec, notion, side, group, [], budget,
                                workers)


def _settled_zero_free(tree, spec: GroupSpec, with_zero, verify):
    """The zero-free outcome that the zero-allowed outcome ``with_zero``
    of ``tree`` over ``spec`` proves, at 0 nodes; None when it proves
    none and the zero-free search has to run.

    Let S be the A-antimagic labelings of the tree (injective edge labels,
    pairwise distinct vertex sums) and S* the A*-antimagic ones (edge
    labels a bijection onto the nonzero elements, distinct sums).  The
    tree has |A| - 1 edges, so a labeling in S* is injective and in S:
    S* is a subset of S.  Both searches order labelings the same way,
    lexicographically by edge position, each label in group enumeration
    order, and report the least member of their set.

    * NotExists: the zero-allowed search reports it only after a full
      exhaustion, so S is empty, and so is its subset S*.
    * Found, with lex-first labeling L of S using no 0: L places |A| - 1
      distinct labels on the |A| - 1 nonzero elements, a bijection onto
      them, so L is in S*.  Every member of S* is in S, so none is
      lexicographically smaller than L: L is the least member of S*.

    An Unknown outcome, or an L that uses 0, proves nothing about S*.  A
    settled Found is judged once more by ``verify`` (the zero-free judge)
    and a failure raises ``InternalCheckError``, as a search's own Found
    does, so every Found the survey reports is verified.
    """
    from .certificates import Certificate
    from .search import SearchOutcome

    if with_zero.status == STATUS_NOT_EXISTS:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    if (with_zero.status != STATUS_FOUND
            or spec.zero() in with_zero.certificate.labels):
        return None
    cert = with_zero.certificate
    verdict = verify(tree, cert)
    if not verdict.ok:
        raise InternalCheckError(
            "the zero-allowed lex-first labeling avoids 0 but is not "
            f"{NOTION_A_STAR_ANTIMAGIC}: {verdict.violation}")
    return SearchOutcome(STATUS_FOUND, Certificate(
        NOTION_A_STAR_ANTIMAGIC, spec, tree, cert.edge_labels,
        cert.vertex_labels, verdict), 0)
