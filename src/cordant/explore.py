"""Desk-scale survey of injective distinct-sum labelings on small trees.

For every order n up to a cap, every Abelian group of that order, and
every tree on n vertices, runs the two searches (zero allowed as an
edge label, and forbidden) and tabulates the outcomes.  The expected
pattern is that the zero-allowed labeling exists exactly when n is not
2 mod 4; rows breaking the pattern are collected as violations with
their certificates attached.

``search`` is imported by the first survey, not with this module, and
the two searches are read off the package, so a name swapped there (a
test double, the benchmark's layer tracer) is the one called.
"""

from __future__ import annotations

from ._vocab import (
    DEFAULT_BUDGET,
    STATUS_FOUND,
    STATUS_UNKNOWN,
    Record,
    check_workers,
    set_field,
)
from .errors import PreconditionError
from .groups import GroupSpec, abelian_groups_of_order, format_group
from .trees import TREE_ENUM_CAP, enumerate_trees

__all__ = ["ExploreReport", "ExploreRow", "explore_conjecture"]


class ExploreRow(Record):
    """One (order, group, tree) cell of the survey."""

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
    from . import search_a_antimagic, search_a_star_antimagic

    rows: list[ExploreRow] = []
    for n in range(2, n_max + 1):
        trees = list(enumerate_trees(n))
        for spec in abelian_groups_of_order(n):
            for idx, tree in enumerate(trees):
                with_zero = search_a_antimagic(tree, spec, budget=budget,
                                               workers=workers)
                zero_free = search_a_star_antimagic(tree, spec, budget=budget,
                                                    workers=workers)
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
