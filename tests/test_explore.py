"""Tree survey: row bookkeeping and small frozen facts."""

import random
from itertools import islice, permutations

import pytest

import cordant
from cordant import (
    EdgeLabeling,
    ExploreRow,
    GroupSpec,
    InternalCheckError,
    NOTION_A_STAR_ANTIMAGIC,
    PreconditionError,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    Verdict,
    canonical_form,
    enumerate_elements,
    enumerate_trees,
    explore_conjecture,
    path_graph,
    search,
    search_a_antimagic,
    search_a_star_antimagic,
    tree_graph,
    verify_a_antimagic,
    verify_a_star_antimagic,
)


def test_survey_row_counts_follow_groups_times_trees():
    report = explore_conjecture(5)
    # orders 2..5: 1*1 + 1*1 + 2*2 + 1*3 rows
    assert len(report.rows) == 9
    assert report.violations == ()
    assert report.unknown_rows == ()


def test_orders_2_and_6_have_no_labelings():
    report = explore_conjecture(6)
    for row in report.rows:
        if row.n in (2, 6):
            assert row.antimagic_status == STATUS_NOT_EXISTS
            assert not row.expected_found
        else:
            assert row.antimagic_status == STATUS_FOUND
            assert row.expected_found
        assert not row.violates


def test_zero_free_split_at_order_8():
    report = explore_conjecture(8)
    rows8 = [r for r in report.rows
             if r.n == 8 and r.group == GroupSpec((2, 2, 2))]
    assert len(rows8) == 23
    assert all(r.antimagic_status == STATUS_FOUND for r in rows8)
    zero_free_found = [r for r in rows8 if r.astar_status == STATUS_FOUND]
    assert len(zero_free_found) == 9
    path_form = canonical_form(path_graph(8))
    path_rows = [r for r in rows8
                 if canonical_form(tree_graph(8, r.edges)) == path_form]
    assert len(path_rows) == 1
    assert path_rows[0].astar_status == STATUS_NOT_EXISTS


def _settles(row):
    """The zero-allowed outcome proves the zero-free one: an exhaustion,
    or a lex-first labeling without the zero label."""
    if row.antimagic_status == STATUS_NOT_EXISTS:
        return True
    return (row.antimagic_status == STATUS_FOUND
            and row.group.zero() not in row.antimagic_labels)


def test_zero_free_rows_equal_direct_searches():
    # the survey's searches are the package's: every zero-allowed row is
    # its own search's outcome, nodes included, and every zero-free row,
    # settled or searched, its own search's lex-first answer; only the
    # settled ones spent no zero-free nodes
    report = explore_conjecture(9)
    trees = {n: list(enumerate_trees(n)) for n in range(2, 10)}
    settled = 0
    for row in report.rows:
        tree = trees[row.n][row.tree_index]
        direct = search_a_antimagic(tree, row.group)
        assert (row.antimagic_status, row.antimagic_nodes) == (
            direct.status, direct.nodes_explored)
        assert row.antimagic_labels == (direct.certificate.labels
                                        if direct.certificate else None)
        direct = search_a_star_antimagic(tree, row.group)
        assert row.astar_status == direct.status
        assert row.astar_labels == (direct.certificate.labels
                                    if direct.certificate else None)
        if _settles(row):
            settled += 1
            assert row.astar_nodes == 0
        else:
            assert row.astar_nodes == direct.nodes_explored
        if row.astar_status == STATUS_FOUND:
            f = EdgeLabeling(row.group, row.astar_labels)
            assert verify_a_star_antimagic(tree, f).ok
    assert (len(report.rows), settled) == (189, 116)


def _count_zero_free_searches(monkeypatch):
    # every survey search runs through search._run_labeling
    calls = []
    run = search._run_labeling

    def counted(tree, spec, notion, *args):
        if notion == NOTION_A_STAR_ANTIMAGIC:
            calls.append((tree.n, spec))
        return run(tree, spec, notion, *args)

    monkeypatch.setattr(search, "_run_labeling", counted)
    return calls


def test_zero_free_search_runs_only_on_unsettled_rows(monkeypatch):
    calls = _count_zero_free_searches(monkeypatch)
    report = explore_conjecture(9)
    unsettled = [(r.n, r.group) for r in report.rows if not _settles(r)]
    assert calls == unsettled
    assert len(calls) == 73
    # at odd orders every zero-allowed Found avoids 0 or there is none
    assert all(n % 2 == 0 for n, _ in calls)


def test_zero_free_search_runs_after_a_zero_allowed_unknown(monkeypatch):
    # a budget of one node leaves every zero-allowed row past order 2
    # Unknown, which proves nothing about the zero-free row
    calls = _count_zero_free_searches(monkeypatch)
    report = explore_conjecture(4, budget=1)
    unknown = [(r.n, r.group) for r in report.rows
               if r.antimagic_status == STATUS_UNKNOWN]
    assert len(unknown) == 5
    assert calls == unknown


def test_settled_found_is_judged_and_a_failure_raises(monkeypatch):
    judged = []

    def failing(graph, f):
        judged.append(f.labels)
        return Verdict(False, {}, {}, "planted")

    monkeypatch.setattr(cordant, "verify_a_star_antimagic", failing)
    with pytest.raises(InternalCheckError, match="planted"):
        explore_conjecture(3)
    # the order-3 Z3 labeling, the first settled Found
    assert judged == [((1,), (2,))]


def test_summary_lines_shape():
    report = explore_conjecture(4)
    lines = report.summary_lines()
    assert len(lines) == len(report.rows) + 1
    assert lines[-1].endswith("0 violations, 0 unknown")
    assert lines[0].startswith("n=2 Z2 tree#0:")


def test_survey_bounds():
    with pytest.raises(PreconditionError):
        explore_conjecture(1)
    with pytest.raises(PreconditionError):
        explore_conjecture(11)


def test_row_violation_flag():
    row = ExploreRow(
        n=7, group=GroupSpec((7,)), tree_index=0,
        edges=tuple((i, i + 1) for i in range(6)),
        antimagic_status=STATUS_NOT_EXISTS, antimagic_nodes=1,
        antimagic_labels=None, astar_status=STATUS_NOT_EXISTS,
        astar_nodes=1, astar_labels=None)
    assert row.expected_found and row.violates


# Z3xZ3 labels (a, b) as the integers 32a + b: a vertex of a 9-vertex tree
# meets at most 8 edges, so its coordinates sum to at most 16 each, and
# REDUCE[sum] is the index of the sum mod 3 per coordinate
Z3Z3 = GroupSpec((3, 3))
Z3Z3_CODES = [32 * a + b for a, b in enumerate_elements(Z3Z3)]
REDUCE = [(v >> 5) % 3 * 3 + (v & 31) % 3 for v in range(32 * 17)]

# Z8 labels are their residues: a vertex of an 8-vertex tree meets at most
# 7 distinct labels of 0..7, which sum to at most 28
Z8 = GroupSpec((8,))
REDUCE_Z8 = [v % 8 for v in range(29)]


def _distinct_sums(tree, reduce=REDUCE):
    """A function of the edge labels (codes, in edge order) that says
    whether the vertex sums are pairwise distinct: one set display of the
    sums, reduced by ``reduce``, written out for this tree."""
    sums = ", ".join("r[" + "+".join(f"p[{e}]" for e in edges) + "]"
                     for edges in tree.incidence())
    return eval(f"lambda p: len({{{sums}}}) == {tree.n}", {"r": reduce})


def _labeling(codes):
    return EdgeLabeling(Z3Z3, tuple(divmod(c, 32) for c in codes))


def test_distinct_sum_check_agrees_with_the_verifier():
    # on a tree that has antimagic labelings and on a counterexample, a
    # sample of labelings, and the first labeling the check accepts
    rng = random.Random(9)
    trees = list(enumerate_trees(9))
    for tree in (trees[0], trees[8]):
        distinct = _distinct_sums(tree)
        labelings = [tuple(rng.sample(Z3Z3_CODES, 8)) for _ in range(300)]
        labelings += islice(permutations(Z3Z3_CODES, 8), 0, None, 4999)
        for p in labelings:
            assert distinct(p) == verify_a_antimagic(tree, _labeling(p)).ok
    first = next(filter(_distinct_sums(trees[0]),
                        permutations(Z3Z3_CODES, 8)))
    assert verify_a_antimagic(trees[0], _labeling(first)).ok


def test_z3xz3_counterexamples_without_any_search():
    # every injective edge labeling of the four order-9 trees the survey
    # reports as violations, by itertools alone: no kernel, memo, bound
    # or symmetry, so the pruned searches did not make the paper's
    # counterexamples up
    trees = list(enumerate_trees(9))
    for index in (8, 9, 11, 36):
        distinct = _distinct_sums(trees[index])
        assert not any(map(distinct, permutations(Z3Z3_CODES, 8))), index


def _z8_labeling(codes):
    return EdgeLabeling(Z8, tuple((c,) for c in codes))


def test_z8_distinct_sum_check_agrees_with_the_verifiers():
    # zero-allowed labelings (some have distinct sums) and zero-free ones
    trees = list(enumerate_trees(8))
    for tree in (trees[0], trees[5], trees[22]):
        distinct = _distinct_sums(tree, REDUCE_Z8)
        for p in islice(permutations(range(8), 7), 0, None, 97):
            assert distinct(p) == verify_a_antimagic(tree, _z8_labeling(p)).ok
        for p in islice(permutations(range(1, 8)), 0, None, 13):
            verdict = verify_a_star_antimagic(tree, _z8_labeling(p))
            assert distinct(p) == verdict.ok
    first = next(filter(_distinct_sums(trees[0], REDUCE_Z8),
                        permutations(range(8), 7)))
    assert verify_a_antimagic(trees[0], _z8_labeling(first)).ok


def test_z8_zero_free_rows_without_any_search():
    # every bijection of 1..7 onto the edges of each of the 23 order-8
    # trees, 7! per tree, by itertools alone; the survey's zero-free Z8
    # rows are NotExists for every tree
    trees = list(enumerate_trees(8))
    assert len(trees) == 23
    for index, tree in enumerate(trees):
        distinct = _distinct_sums(tree, REDUCE_Z8)
        assert not any(map(distinct, permutations(range(1, 8)))), index
    rows = [r for r in explore_conjecture(8).rows if r.group == Z8]
    assert [r.tree_index for r in rows] == list(range(23))
    assert all(r.astar_status == STATUS_NOT_EXISTS for r in rows)
