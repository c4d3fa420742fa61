"""Search oracle: frozen outcomes, determinism, budgets, raw-space audits."""

import gc
import itertools
import multiprocessing
import os
import random
import sys
import threading
from array import array

import pytest

from cordant import _kernel, _orderings, search
from cordant._kernel import BUDGET, EXHAUSTED, FOUND
from cordant.graphs import GENERAL, SimpleGraph
from cordant.groups import element_index
from cordant import (
    MAX_DEPTH,
    CapExceededError,
    InvalidGraphError,
    InvalidSpecError,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    star_graph,
    EdgeLabeling,
    GroupSpec,
    PreconditionError,
    abelian_groups_of_order,
    enumerate_trees,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    compute_sigma_max,
    cycle_graph,
    enumerate_elements,
    explore_conjecture,
    path_graph,
    search_a_antimagic,
    search_a_cordial,
    search_a_star_antimagic,
    search_ea_cordial,
    search_rstar_sequence,
    sigma_max_formula,
    verify_a_antimagic,
    verify_a_star_antimagic,
    verify_ea_cordial,
)

Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z6 = GroupSpec((6,))
E2 = GroupSpec((2, 2))
E3 = GroupSpec((2, 2, 2))

# node counts below are frozen oracle outputs: the same on both backends and
# for every worker count.  Only a deliberate change of the search order or
# pruning may move them, and then only with certificates and statuses kept.


def test_ea_cordial_path_found_lex_first():
    out = search_ea_cordial(path_graph(4), Z4)
    assert out.status == STATUS_FOUND
    assert out.certificate.labels == ((0,), (1,), (2,))
    assert out.nodes_explored == 5
    assert verify_ea_cordial(path_graph(4), out.certificate).ok


def test_ea_cordial_path6_z6_not_exists():
    out = search_ea_cordial(path_graph(6), Z6)
    assert out.status == STATUS_NOT_EXISTS
    assert out.certificate is None
    assert out.nodes_explored == 738


def test_a_cordial_cycle12_z4_not_exists():
    out = search_a_cordial(cycle_graph(12), Z4)
    assert out.status == STATUS_NOT_EXISTS
    assert out.nodes_explored == 3208


def test_antimagic_search_frozen_counts():
    out = search_a_antimagic(path_graph(6), GroupSpec((2, 3)))
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 738
    out = search_a_antimagic(path_graph(10), GroupSpec((2, 5)))
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 213190


def test_order_10_z2xz5_trees_are_settled_at_the_default_budget():
    # each runs one root branch with a 1,000,000-node share, which the
    # dead-state memo on trees keeps it well inside; their twin leaves
    # (six at one vertex; two and six; nine) bound one another, and the
    # leaf room prunes the first (19509 nodes without it)
    trees = list(enumerate_trees(10))
    outcomes = [search_a_antimagic(trees[i], GroupSpec((2, 5)))
                for i in (48, 55, 60)]
    assert [(o.status, o.nodes_explored) for o in outcomes] == [
        (STATUS_NOT_EXISTS, 8457), (STATUS_NOT_EXISTS, 13752),
        (STATUS_NOT_EXISTS, 1091)]


def test_star_variant_search_frozen_counts():
    out = search_a_star_antimagic(path_graph(4), E2)
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 8
    out = search_a_star_antimagic(path_graph(8), E3)
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 80


def test_found_certificates_reverify():
    out = search_a_antimagic(path_graph(5), GroupSpec((5,)))
    assert out.status == STATUS_FOUND
    assert verify_a_antimagic(path_graph(5), out.certificate).ok
    out = search_a_star_antimagic(star_graph(3), E2)
    assert out.status == STATUS_FOUND and out.nodes_explored == 4
    assert verify_a_star_antimagic(star_graph(3), out.certificate).ok


def test_results_identical_across_worker_counts():
    for workers in (2, 3, 8):
        a = search_ea_cordial(path_graph(6), Z6, workers=workers)
        assert (a.status, a.certificate, a.nodes_explored) == (
            STATUS_NOT_EXISTS, None, 738)
        b = search_ea_cordial(path_graph(4), Z4, workers=workers)
        assert b.certificate.labels == ((0,), (1,), (2,))
        assert b.nodes_explored == 5


def test_one_call_and_a_process_per_root_agree_on_an_order_10_tree(
        monkeypatch):
    # a pinned first label 0 keeps the root labels 0, 1, 2 and 5 at slot 1
    # (every automorphism of Z10 fixes 0), whose branches all exhaust (the
    # order and |Z10| are both 2 mod 4): one kernel call runs them with one
    # worker, a process each with two
    tree = list(enumerate_trees(10))[20]
    calls = []
    real = search._run_branch

    def counted(task):
        calls.append(task[1][-1])
        return real(task)

    monkeypatch.setattr(search, "_run_branch", counted)
    one = _outcome(lambda: search_ea_cordial(tree, GroupSpec((10,)),
                                             prefix=((0,),)))
    assert [[x for x, _ in roots] for roots in calls] == [[0, 1, 2, 5]]
    monkeypatch.setattr(search, "_run_branch", real)
    two = _outcome(lambda: search_ea_cordial(tree, GroupSpec((10,)),
                                             prefix=((0,),), workers=2))
    assert one == two == (STATUS_NOT_EXISTS, None, 4142)


def test_budget_exhaustion_reports_unknown():
    out = search_ea_cordial(path_graph(6), Z6, budget=100)
    assert out.status == STATUS_UNKNOWN
    assert 0 < out.nodes_explored <= 100
    out = search_ea_cordial(path_graph(6), Z6, budget=None)
    assert out.status == STATUS_NOT_EXISTS


def test_prefix_constrains_first_labels():
    out = search_ea_cordial(cycle_graph(3), Z3, prefix=((1,),))
    assert out.status == STATUS_FOUND
    assert out.certificate.labels[0] == (1,)
    pinned = search_ea_cordial(cycle_graph(3), Z3, prefix=((0,),))
    assert pinned.certificate.labels == ((0,), (1,), (2,))


def test_search_rejects_bad_inputs():
    with pytest.raises(InvalidSpecError):
        search_ea_cordial(path_graph(3), GroupSpec(()))
    with pytest.raises(ValueError):
        search_ea_cordial(path_graph(3), Z3, budget=-1)
    with pytest.raises(ValueError):
        search_ea_cordial(path_graph(3), Z3, prefix=((0,), (0,), (0,), (0,)))
    with pytest.raises(InvalidSpecError):
        search_a_antimagic(path_graph(6), E2)


# ---------------------------------------------------------------------------
# audits against the raw, unpruned space

def _raw_exists(graph, spec, verifier):
    elems = enumerate_elements(spec)
    return any(
        verifier(graph, EdgeLabeling(spec, labels)).ok
        for labels in itertools.product(elems, repeat=len(graph.edges))
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("factors", [(2,), (3,), (4,), (2, 2)])
def test_not_exists_matches_raw_enumeration(n, factors):
    spec = GroupSpec(factors)
    graph = path_graph(n)
    out = search_ea_cordial(graph, spec, budget=None)
    assert (out.status == STATUS_FOUND) == _raw_exists(
        graph, spec, verify_ea_cordial)
    if n == spec.order:
        out = search_a_antimagic(graph, spec, budget=None)
        assert (out.status == STATUS_FOUND) == _raw_exists(
            graph, spec, verify_a_antimagic)


def _graphs_with_an_isolated_vertex(n):
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            if len({v for e in edges for v in e}) < n:
                yield SimpleGraph(n, edges, GENERAL)


@pytest.mark.parametrize("factors", [(2,), (3,)])
def test_isolated_vertices_match_raw_enumeration(factors):
    # an isolated vertex sums no edge, so its vertex label is 0 whatever
    # the edge labels; every general graph on up to 5 vertices with one
    spec = GroupSpec(factors)
    elems = enumerate_elements(spec)
    checked = 0
    for n in range(1, 6):
        for graph in _graphs_with_an_isolated_vertex(n):
            want = next((labels for labels in itertools.product(
                elems, repeat=len(graph.edges))
                if verify_ea_cordial(graph, EdgeLabeling(spec, labels)).ok),
                None)
            out = search_ea_cordial(graph, spec, budget=None)
            got = out.certificate.labels if out.certificate else None
            assert got == want, graph
            checked += 1
    assert checked == 285


# ---------------------------------------------------------------------------
# sigma-max and difference sequences

def test_sigma_max_matches_formula_orders_3_to_8():
    expected = {
        (3,): 3, (4,): 3, (2, 2): 2, (5,): 5, (2, 3): 5, (7,): 7,
        (8,): 7, (2, 4): 8, (2, 2, 2): 6,
    }
    for factors, value in expected.items():
        spec = GroupSpec(factors)
        assert sigma_max_formula(spec) == value
        result = compute_sigma_max(spec)
        assert result.status == STATUS_FOUND
        assert result.value == value
        assert result.witness.distinct_sum_count == value


def test_sigma_max_witness_is_frozen_for_z4():
    result = compute_sigma_max(Z4)
    assert result.witness.order == ((0,), (1,), (3,), (2,))
    assert result.nodes_explored == 18


def test_rstar_search_small_groups():
    out = search_rstar_sequence(E2)
    assert out.status == STATUS_FOUND and out.nodes_explored == 5
    rs = out.certificate
    assert sorted(rs.seq) == sorted(enumerate_elements(E2)[1:])
    # the kernel pins element 1, the first nonzero one, at position 0
    assert rs.seq[0] == enumerate_elements(E2)[1]
    out = search_rstar_sequence(E3)
    assert out.status == STATUS_NOT_EXISTS
    out = search_rstar_sequence(GroupSpec((2,)))
    assert out.status == STATUS_NOT_EXISTS


HUGE = GroupSpec((99_999_999_999,))


@pytest.mark.parametrize("entry", [
    lambda: search_ea_cordial(path_graph(4), HUGE),
    lambda: search_a_cordial(path_graph(4), HUGE),
    lambda: search_a_antimagic(path_graph(4), HUGE),
    lambda: search_a_star_antimagic(path_graph(4), HUGE),
    lambda: search_rstar_sequence(GroupSpec((1025,))),
    lambda: compute_sigma_max(GroupSpec((1025,))),
    lambda: search._find_any(cycle_graph(4), HUGE, NOTION_A_CORDIAL),
], ids=["ea-cordial", "a-cordial", "a-antimagic", "a-star-antimagic",
        "rstar", "sigma-max", "find-any"])
def test_searches_past_the_table_cap_raise_before_they_allocate(
        monkeypatch, entry):
    # equitable bounds for order 99999999999 would take 800 GB
    def refuse(count, m):
        raise AssertionError("bounds built before the group was refused")

    monkeypatch.setattr(search, "_equitable_bounds", refuse)
    with pytest.raises(CapExceededError, match=r"refusing dense tables for "
                                               r"order \d+ > 1024"):
        entry()


def _at_depth(frames, call):
    """Run ``call`` with ``frames`` extra Python frames below the caller."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


def test_pure_kernel_reaches_the_depth_cap_from_a_deep_caller(monkeypatch):
    monkeypatch.setattr(_kernel, "_active", _kernel.pure)
    limit = sys.getrecursionlimit()
    out = _at_depth(500, lambda: search_ea_cordial(cycle_graph(MAX_DEPTH), Z3))
    assert (out.status, out.nodes_explored) == (STATUS_FOUND, 2 * MAX_DEPTH - 2)
    assert verify_ea_cordial(cycle_graph(MAX_DEPTH), out.certificate).ok
    out = _at_depth(500, lambda: search_ea_cordial(
        path_graph(MAX_DEPTH + 1), Z3, budget=30_000))
    assert (out.status, out.nodes_explored) == (STATUS_UNKNOWN, 10_000)
    assert sys.getrecursionlimit() == limit
    with pytest.raises(CapExceededError, match="depth 10001 exceeds"):
        search_ea_cordial(path_graph(MAX_DEPTH + 2), Z3)
    # a group that deep is past the table cap, refused before the depth
    with pytest.raises(CapExceededError, match="tables for order 10001 > 1024"):
        compute_sigma_max(GroupSpec((MAX_DEPTH + 1,)))


def test_concurrent_pure_searches_share_one_frame_limit_lift(monkeypatch):
    # each thread recurses thousands of levels deep; a thread that restored
    # the limit while the other was still deep made the other one fail
    monkeypatch.setattr(_kernel, "_active", _kernel.pure)
    limit = sys.getrecursionlimit()
    errors = []

    def deep_search(n):
        try:
            search_ea_cordial(cycle_graph(n), Z3, budget=60_000)
        except RecursionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            threads = [threading.Thread(target=deep_search, args=(n,))
                       for n in (3000, 2500)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert sys.getrecursionlimit() == limit


def test_pure_kernel_frees_its_memo_on_return(monkeypatch):
    # the memo of C20/Z4 holds about 65,000 dead states; a reference cycle
    # through the search closure kept it alive until the cyclic collector ran
    monkeypatch.setattr(_kernel, "_active", _kernel.pure)
    gc.collect()
    gc.disable()
    try:
        out = search_a_cordial(cycle_graph(20), Z4)
        big = [len(o) for o in gc.get_objects()
               if isinstance(o, set) and len(o) > 1000]
    finally:
        gc.enable()
    assert out.status == STATUS_NOT_EXISTS
    assert big == []


def test_workers_below_one_are_rejected():
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            search_ea_cordial(path_graph(4), Z4, workers=workers)
        # a survey that runs no search rejects it too
        with pytest.raises(ValueError, match="workers must be at least 1"):
            explore_conjecture(2, workers=workers)


class _InlineBranch:
    """Stands in for search._Branch: runs its task in this process when
    its result is taken, logs every start, run and stop (by prefix: a
    labeling task ends with prefix, budget, symmetry table and graph
    symmetries), and records the most branches started and not yet
    finished."""

    log: list = []
    live = 0
    peak = 0

    def __init__(self, task):
        self.task = task
        self.log.append(("start", task[1][-4]))
        _InlineBranch.live += 1
        _InlineBranch.peak = max(_InlineBranch.peak, _InlineBranch.live)

    def result(self):
        _InlineBranch.live -= 1
        self.log.append(("ran", self.task[1][-4]))
        return search._run_branch(self.task)

    def stop(self):
        _InlineBranch.live -= 1
        self.log.append(("stopped", self.task[1][-4]))


@pytest.fixture
def inline_branches(monkeypatch):
    monkeypatch.setattr(search, "_Branch", _InlineBranch)
    monkeypatch.setattr(_InlineBranch, "log", [])

    def run(call):
        """The outcome of ``call`` and the most branches it had running."""
        _InlineBranch.live = _InlineBranch.peak = 0
        del _InlineBranch.log[:]
        return call(), _InlineBranch.peak
    return run


def test_pool_is_clamped_to_branches_and_cpus(monkeypatch, inline_branches):
    # P6/Z6 runs 4 root branches and P4/Z4 runs 3
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    out, peak = inline_branches(
        lambda: search_ea_cordial(path_graph(6), Z6, workers=10**9))
    assert (out.status, out.nodes_explored, peak) == (STATUS_NOT_EXISTS, 738, 3)
    out, peak = inline_branches(
        lambda: search_ea_cordial(path_graph(4), Z4, workers=2))
    assert (out.certificate.labels, peak) == (((0,), (1,), (2,)), 2)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    _, peak = inline_branches(
        lambda: search_ea_cordial(path_graph(6), Z6, workers=10**9))
    assert peak == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    out, peak = inline_branches(
        lambda: search_ea_cordial(path_graph(6), Z6, workers=10**9))
    assert (out.status, out.nodes_explored, peak) == (STATUS_NOT_EXISTS, 738, 0)


def test_a_sequential_search_never_asks_for_the_cpu_count(monkeypatch):
    def refuse():
        raise AssertionError("cpu_count called")
    monkeypatch.setattr(os, "cpu_count", refuse)
    out = search_ea_cordial(path_graph(6), Z6)
    assert (out.status, out.nodes_explored) == (STATUS_NOT_EXISTS, 738)


def test_running_branches_stop_at_the_first_unexhausted_branch(monkeypatch,
                                                              inline_branches):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # P4/Z4 is Found in its first branch: the two running beside it stop
    out, _ = inline_branches(
        lambda: search_ea_cordial(path_graph(4), Z4, workers=3))
    assert out.certificate.labels == ((0,), (1,), (2,))
    assert _InlineBranch.log == [("start", [0]), ("start", [1]),
                                 ("start", [2]), ("ran", [0]),
                                 ("stopped", [1]), ("stopped", [2])]
    # two at a time: a branch starts when one is taken, all are taken
    inline_branches(lambda: search_ea_cordial(path_graph(6), Z6, workers=2))
    assert _InlineBranch.log == [
        ("start", [0]), ("start", [1]), ("ran", [0]), ("start", [2]),
        ("ran", [1]), ("start", [3]), ("ran", [2]), ("ran", [3])]
    # a budget stop ends the search like a Found
    out, _ = inline_branches(
        lambda: search_ea_cordial(path_graph(6), Z6, workers=4, budget=40))
    assert out.status == STATUS_UNKNOWN
    assert _InlineBranch.log == [("start", [x]) for x in range(4)] + [
        ("ran", [0])] + [("stopped", [x]) for x in (1, 2, 3)]


def test_no_branch_process_outlives_its_search():
    for graph, spec in ((path_graph(4), Z4), (path_graph(6), Z6)):
        search_ea_cordial(graph, spec, workers=3)
        assert multiprocessing.active_children() == []


def test_a_failing_branch_raises_in_the_parent(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(AttributeError, match="solve_missing"):
        search._orchestrate([("missing", ()), ("missing", ())], workers=2)
    assert multiprocessing.active_children() == []


def test_antimagic_search_is_the_equitable_search_on_trees_of_order_8():
    for spec in abelian_groups_of_order(8):
        for tree in enumerate_trees(8):
            # the certificates differ only in their notion
            out = search_a_antimagic(tree, spec)
            assert out.status == STATUS_FOUND
            eq = search_ea_cordial(tree, spec)
            assert (out.status, out.certificate.labels, out.certificate.verdict,
                    out.nodes_explored) == (
                eq.status, eq.certificate.labels, eq.certificate.verdict,
                eq.nodes_explored)


# ---------------------------------------------------------------------------
# symmetry pruning: which first-slot labels run, which labels the slots
# below try, and that skipping the others changes node counts only


_real_run_branch = search._run_branch


@pytest.fixture
def root_splits(monkeypatch):
    """Record the root split of every labeling search and the one kernel
    call of every R*-sequence search, as [kind, fixed arguments, prefix,
    the first-slot labels an unpruned search tries, the labels kept,
    budget, the kernel arguments after the budget, the result of each
    branch run in this process that prunes nothing below the root (by
    prefix and budget), result]."""
    calls = []
    real_split = search._split_solve
    real_shares = search._shares
    planned = []

    def split_spy(fixed_args, prefix, kept, budget, workers, tail=()):
        calls.append(["generic", fixed_args, prefix, range(fixed_args[0]),
                      kept, budget, tail, {}])
        result = real_split(fixed_args, prefix, kept, budget, workers, tail)
        calls[-1].append(result)
        return result

    def shares_spy(budget, branches):
        planned.append(budget)
        return real_shares(budget, branches)

    def branch_spy(task):
        result = _real_run_branch(task)
        kind, args = task
        if kind == "rstar":
            # the kernel pins first element 1, with its share of the
            # budget among the m - 1 nonzero first elements
            m, _, _, share, *tail = args
            assert share == real_shares(planned[-1], m - 1)[0]
            calls.append([kind, args[:3], [], range(1, m), [1],
                          planned[-1], tail, {},
                          (result[0], result, result[-1])])
            return result
        prefix, budget, *tail = args[len(calls[-1][1]):]
        if all(t is None for t in tail):
            calls[-1][7][tuple(prefix), budget] = result
        return result

    monkeypatch.setattr(search, "_split_solve", split_spy)
    # the R*-sequence search calls its kernel from ``_orderings``
    for module in (search, _orderings):
        monkeypatch.setattr(module, "_shares", shares_spy)
        monkeypatch.setattr(module, "_run_branch", branch_spy)
    return calls


def test_kept_root_labels(root_splits):
    def kept(call, *args, **kwargs):
        call(*args, **kwargs)
        return list(root_splits[-1][4])

    # Aut(Z6) orbits {0}, {1, 5}, {2, 4}, {3}
    assert kept(search_ea_cordial, path_graph(6), Z6) == [0, 1, 2, 3]
    # vertex labels: translations carry every first label to 0
    assert kept(search_a_cordial, cycle_graph(12), Z4) == [0]
    # edge labels of a cycle: every vertex sums two slots
    assert kept(search_ea_cordial, cycle_graph(5), GroupSpec((5,))) == [0]
    # Z3xZ3: 0 is fixed, the nonzero elements form one orbit
    assert kept(search_a_star_antimagic, path_graph(9),
                GroupSpec((3, 3))) == [0, 1]
    # a prefix keeps the automorphisms fixing its labels: all of Aut(Z6)
    # fixes 0 and 3, none but the identity fixes 1 in Z3 or 3 in Z4
    assert kept(search_ea_cordial, path_graph(6), Z6,
                prefix=((0,),)) == [0, 1, 2, 3]
    assert kept(search_ea_cordial, path_graph(6), Z6,
                prefix=((3,),)) == [0, 1, 2, 3]
    assert kept(search_ea_cordial, cycle_graph(3), Z3,
                prefix=((1,),)) == [0, 1, 2]
    assert kept(search_a_cordial, path_graph(8), Z4,
                prefix=((2,), (3,))) == [0, 1, 2, 3]
    # bounds that tell apart two labels of one orbit (1 and 5 in Z6) are
    # no automorphism symmetry, and mixed derived sizes no translation
    caps = [1, 2, 1, 1, 1, 1]
    labels, table, translated = search._root_labels(
        Z6, (caps, [0] * 6, [1] * 6, [0] * 6), False, [])
    assert (list(labels), table, translated) == (list(range(6)), None, False)


def test_orbit_marks_below_the_root(root_splits):
    def table(call, *args, **kwargs):
        call(*args, **kwargs)
        return root_splits[-1][6][0]

    # Aut(Z10) orbits {0}, {1, 3, 7, 9}, {2, 4, 6, 8}, {5}: 0 and 5 fixed,
    # and the automorphisms fixing 1 or 2 fix everything
    z10 = ([2, 1, 1, 0, 0, 2, 0, 0, 0, 0], [0, -1, -1, -1, -1, 0] + [-1] * 4)
    assert search._symmetry_table(GroupSpec((10,))) == z10
    assert table(search_a_antimagic, path_graph(10), GroupSpec((10,))) == z10
    # translation keeps one root label and the table still prunes below it
    assert table(search_a_cordial, cycle_graph(12), Z4) == (
        [2, 1, 2, 0], [0, -1, 0, -1])
    # (Z2)^3: a chain of subspaces, the least label outside each moved
    e3 = table(search_a_star_antimagic, path_graph(8), E3)
    assert e3 == ([2, 1, 0, 0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 0, 0, 0,
                   2, 2, 2, 2, 1, 0, 0, 0],
                  [0, 1, -1, -1, -1, -1, -1, -1, 1, 1, 2, -1, -1, -1, -1, -1,
                   2, 2, 2, 2, -1, -1, -1, -1])
    # R*-sequences prune by the same table
    assert table(search_rstar_sequence, E3) == e3
    # a user prefix keeps the table while some automorphism fixes its
    # labels; one fixing none, and bounds that split an orbit, turn it off
    z6 = search._symmetry_table(Z6)
    assert table(search_ea_cordial, path_graph(6), Z6, prefix=((0,),)) == z6
    assert table(search_ea_cordial, path_graph(6), Z6, prefix=((1,),)) is None
    assert search._symmetry_table(Z6, ([1, 2, 1, 1, 1, 1],)) is None
    assert search._symmetry_table(GroupSpec(())) == ([2], [0])


def _rstar_from(first, m, add_t, neg_t, budget):
    """The pure R*-sequence search from first element ``first``, with no
    symmetry table: the kernel runs on the tables relabeled by the
    bijection swapping 1 and ``first`` (an isomorphic Cayley table, not an
    automorphism), so its pinned 1 stands for ``first``, and the sequence
    it finds is mapped back."""
    swap = list(range(m))
    swap[1], swap[first] = first, 1
    add_s = [0] * (m * m)
    neg_s = [0] * m
    for a in range(m):
        neg_s[swap[a]] = swap[neg_t[a]]
        for b in range(m):
            add_s[swap[a] * m + swap[b]] = swap[add_t[a * m + b]]
    status, seq, star, nodes = _kernel.pure.solve_rstar(m, add_s, neg_s,
                                                        budget)
    if seq is not None:
        seq = [swap[x] for x in seq]
    return status, seq, star, nodes


def _unpruned(kind, fixed_args, prefix, labels, budget, ran):
    """The root split without any symmetry: every first-slot label in
    ``labels``, in order, each with its share of the budget and no
    symmetry table, up to the first branch that is not exhausted.  Returns
    that branch's result and the nodes spent.

    A branch the pruned search ran with the same prefix and share and no
    table (in ``ran``) is not run again: the kernels are deterministic.
    The R*-sequence kernel pins its first element to 1 itself, so each of
    its branches runs on relabeled tables (see ``_rstar_from``)."""
    solve = getattr(_kernel.pure, "solve_" + kind)
    shares = search._shares(budget, len(labels))
    nodes = 0
    for x, share in zip(labels, shares):
        r = ran.get((tuple(prefix) + (x,), share))
        if r is None and kind == "rstar":
            r = _rstar_from(x, *fixed_args, share)
        elif r is None:
            r = solve(*fixed_args, prefix + [x], share)
        nodes += r[-1]
        if r[0] != EXHAUSTED:
            return r, nodes
    return (EXHAUSTED,), nodes


def _assert_pruning_keeps_outcomes(root_splits, calls):
    """Each call keeps the unpruned status and certificate, spends no more
    nodes, and returns the same outcome with two workers when it runs more
    than one branch.  A call the unpruned search leaves Unknown may be
    settled: it is then held to the unbounded unpruned search."""
    for call in calls:
        del root_splits[:]
        outcome = call(1)
        kind, fixed_args, prefix, labels, kept, budget, _, ran, \
            result = root_splits[0]
        if len(kept) > 1:
            # pool workers need the module's own, picklable branch runner
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_run_branch", _real_run_branch)
                assert call(2) == outcome
        status, payload, nodes = result
        ref, ref_nodes = _unpruned(kind, fixed_args, prefix, labels, budget,
                                   ran)
        if ref[0] == BUDGET and status != BUDGET:
            ref, _ = _unpruned(kind, fixed_args, prefix, labels, -1, {})
        assert ref[0] == status
        if status == FOUND:
            assert ref[:-1] == payload[:-1]
        assert nodes <= ref_nodes
        assert outcome.nodes_explored == nodes


def _chain_calls(spec):
    for n in range(2, 11):
        graphs = [path_graph(n)] + ([cycle_graph(n)] if n >= 3 else [])
        for graph in graphs:
            for notion in (search_ea_cordial, search_a_cordial):
                yield lambda w, f=notion, g=graph: f(g, spec, workers=w)
    for notion in (search_a_antimagic, search_a_star_antimagic):
        yield lambda w, f=notion: f(path_graph(spec.order), spec, workers=w)


@pytest.mark.parametrize("spec", [
    g for n in range(2, 11) for g in abelian_groups_of_order(n)], ids=str)
def test_pruning_keeps_path_and_cycle_outcomes(root_splits, spec):
    _assert_pruning_keeps_outcomes(root_splits, _chain_calls(spec))


def test_pruning_keeps_tree_outcomes(root_splits):
    # every tree of order up to 8 over every group of its order, and of
    # order 9 over Z3xZ3 (the survey's violations among them)
    calls = []
    for n in range(2, 10):
        for tree in enumerate_trees(n):
            for spec in (g for k in range(2, 8)
                         for g in abelian_groups_of_order(k) if n < 8):
                for notion in (search_ea_cordial, search_a_cordial):
                    calls.append(lambda w, f=notion, t=tree, g=spec:
                                 f(t, g, workers=w))
            for spec in (abelian_groups_of_order(n) if n < 9
                         else [GroupSpec((3, 3))]):
                for notion in (search_a_antimagic, search_a_star_antimagic):
                    calls.append(lambda w, f=notion, t=tree, g=spec:
                                 f(t, g, workers=w))
    _assert_pruning_keeps_outcomes(root_splits, calls)


def test_pruning_keeps_rstar_outcomes(root_splits):
    # one kernel call on first element 1, held to the unpruned search from
    # each first element 1..m-1 in turn, so a solution the pin to 1 missed
    # would show as a status the two searches disagree on
    calls = [lambda w, g=spec: search_rstar_sequence(g)
             for n in range(4, 17) for spec in abelian_groups_of_order(n)]
    _assert_pruning_keeps_outcomes(root_splits, calls)


def _graph_symmetry_calls(spec):
    """Every cycle C3..C10 (a-cordial and ea-cordial) and every tree of
    order up to 8 (ea-cordial; antimagic and A* at the group's order),
    unprefixed and with each of the first two labels as a prefix."""
    firsts = [()] + [(x,) for x in enumerate_elements(spec)[:2]]
    for graph in [cycle_graph(n) for n in range(3, 11)] + [
            t for n in range(2, 9) for t in enumerate_trees(n)]:
        notions = [search_ea_cordial]
        if graph.kind == "cycle":
            notions.append(search_a_cordial)
        for notion in notions:
            for prefix in firsts:
                yield lambda f=notion, g=graph, p=prefix: f(g, spec, prefix=p)
        if graph.kind != "cycle" and graph.n == spec.order:
            for notion in (search_a_antimagic, search_a_star_antimagic):
                yield lambda f=notion, g=graph: f(g, spec)


def _outcome(call):
    out = call()
    labels = None if out.certificate is None else out.certificate.labels
    return out.status, labels, out.nodes_explored


@pytest.mark.parametrize("spec", [
    g for n in range(2, 9) for g in abelian_groups_of_order(n)], ids=str)
def test_graph_symmetries_change_node_counts_only(monkeypatch, spec):
    # the searches with the kernel's graph_sym argument on and off: the same
    # status and lex-first labels, and never more nodes with it on
    for call in _graph_symmetry_calls(spec):
        on = _outcome(call)
        with monkeypatch.context() as mp:
            mp.setattr(search, "_graph_symmetry", lambda *args: None)
            off = _outcome(call)
        assert on[:2] == off[:2] and on[2] <= off[2], (spec, on, off)


@pytest.mark.parametrize("spec", [
    g for n in range(2, 9) for g in abelian_groups_of_order(n)], ids=str)
def test_prefixed_searches_keep_outcomes_under_the_automorphisms_fixing_it(
        monkeypatch, spec):
    # a prefixed search prunes by the automorphisms that fix its labels; with
    # no group symmetry at all it keeps its status and labels, and spends
    # no fewer nodes
    graphs = [cycle_graph(n) for n in range(3, 11)] + [
        t for n in range(2, 9) for t in enumerate_trees(n)]
    for graph in graphs:
        for x in enumerate_elements(spec)[:2]:
            call = lambda g=graph, p=(x,): search_ea_cordial(g, spec, prefix=p)
            on = _outcome(call)
            with monkeypatch.context() as mp:
                mp.setattr(search, "_symmetry_table", lambda *args: None)
                off = _outcome(call)
            assert on[:2] == off[:2] and on[2] <= off[2], (spec, on, off)


def test_prefixed_searches_prune_below_labels_every_automorphism_fixes():
    # Z10's automorphisms all fix 0 and 5 and only the identity fixes 1:
    # the order-10 trees' pinned first labels (NotExists: |Z10| and the
    # order are both 2 mod 4)
    tree = list(enumerate_trees(10))[20]
    nodes = {x: search_ea_cordial(tree, GroupSpec((10,)),
                                  prefix=((x,),)).nodes_explored
             for x in (0, 1, 5)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_symmetry_table", lambda *args: None)
        plain = {x: search_ea_cordial(tree, GroupSpec((10,)),
                                      prefix=((x,),)).nodes_explored
                 for x in (0, 1, 5)}
    assert nodes[1] == plain[1]
    assert nodes[0] < plain[0] and nodes[5] < plain[5]


@pytest.mark.parametrize("spec", [
    g for n in range(3, 11) for g in abelian_groups_of_order(n)], ids=str)
def test_sigma_max_pruning_keeps_value_and_witness(spec):
    # every element after 0 is pruned by the symmetry table; without it
    # the kernel walks every ordering the mirror skip leaves
    add_t = search.op_tables(spec)[0]
    status, value, cycle, nodes = _kernel.pure.solve_sigma(
        spec.order, add_t, -1)
    out = compute_sigma_max(spec)
    assert (out.status, out.value) == (STATUS_FOUND, value)
    assert [element_index(spec, a) for a in out.witness.order] == cycle
    assert out.nodes_explored <= nodes


# ---------------------------------------------------------------------------
# find-any search on cycles

def test_luby_sequence():
    assert [search._luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_relabeled_tables_present_the_same_group():
    spec = GroupSpec((2, 4))
    add_t = search.op_tables(spec)[0]
    order = [0, 5, 2, 7, 1, 3, 6, 4]
    add_p = search._relabeled(add_t, 8, order)
    for a in range(8):
        for b in range(8):
            assert order[add_p[a * 8 + b]] == add_t[order[a] * 8 + order[b]]


def _relabeled_by_comprehension(add_t, m, order):
    new_of = [0] * m
    for new, old in enumerate(order):
        new_of[old] = new
    rows = [old * m for old in order]
    return array("i", [new_of[add_t[r + b]] for r in rows for b in order])


@pytest.mark.parametrize("orders", [range(2, 41), (63, 64, 128, 255, 256,
                                                   257, 300)])
def test_relabeled_tables_match_the_comprehension(orders):
    rng = random.Random(23)
    for m in orders:
        for spec in abelian_groups_of_order(m)[:2]:
            add_t = search.op_tables(spec)[0]
            order = [0] + rng.sample(range(1, m), m - 1)
            assert search._relabeled(add_t, m, order) == tuple(
                _relabeled_by_comprehension(add_t, m, order)), (spec, order)


def test_find_any_keeps_lex_first_results_within_one_restart_unit(
        monkeypatch):
    # restart 1 is the lex-first search on its kept branch without the
    # symmetries below the root, of the group or the graph, so whatever
    # that search finds within RESTART_UNIT nodes comes out unchanged
    roots = search._root_labels
    monkeypatch.setattr(search, "_root_labels",
                        lambda *args: (roots(*args)[0], None, False))
    monkeypatch.setattr(search, "_graph_symmetry", lambda *args: None)
    checked = 0
    for n in range(3, 17):
        for spec in abelian_groups_of_order(n):
            want = search_a_cordial(cycle_graph(n), spec,
                                    budget=search.RESTART_UNIT * n)
            got = search._find_any(cycle_graph(n), spec, NOTION_A_CORDIAL)
            if want.status == STATUS_UNKNOWN:
                continue
            assert (got.status, got.certificate, got.nodes_explored) == (
                want.status, want.certificate, want.nodes_explored), spec
            checked += 1
    assert checked >= 12


def test_find_any_paths_keep_lex_first_labelings_within_one_restart_unit(
        monkeypatch):
    # on a path's edges no first label is pinned: restart 1 tries every
    # root label the lex-first search keeps, and the ones its orbits skip,
    # each placed as a node of its own rather than as a branch prefix
    roots = search._root_labels
    monkeypatch.setattr(search, "_root_labels",
                        lambda *args: (roots(*args)[0], None, False))
    monkeypatch.setattr(search, "_graph_symmetry", lambda *args: None)
    checked = 0
    for n in range(3, 17):
        for spec in abelian_groups_of_order(n):
            want = search_a_antimagic(path_graph(n), spec,
                                      budget=search.RESTART_UNIT * n)
            if want.status != STATUS_FOUND or \
                    want.nodes_explored + n > search.RESTART_UNIT:
                continue
            got = search._find_any(path_graph(n), spec, NOTION_A_ANTIMAGIC)
            assert (got.status, got.certificate) == (
                want.status, want.certificate), spec
            assert want.nodes_explored < got.nodes_explored <= \
                want.nodes_explored + n, spec
            checked += 1
    assert checked >= 12


def test_find_any_restarts_stop_at_the_branch_share():
    # Z8xZ8 stays Unknown through several restarts at these budgets
    cycle = cycle_graph(64)
    for budget in (0, 1, 100, 6_400_000):
        out = search._find_any(cycle, GroupSpec((8, 8)), NOTION_A_CORDIAL,
                               budget=budget)
        assert out.status == STATUS_UNKNOWN
        assert out.nodes_explored == search._shares(budget, 64)[0]
    out = search._find_any(cycle, GroupSpec((8, 8)), NOTION_A_CORDIAL,
                           budget=640_000, split=4)
    assert (out.status, out.nodes_explored) == (STATUS_UNKNOWN, 160_000)
    with pytest.raises(InvalidGraphError):
        search._find_any(cycle_graph(4), Z4, NOTION_A_ANTIMAGIC)
