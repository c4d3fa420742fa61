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

from cordant import _kernel, search
from cordant._kernel import EXHAUSTED, FOUND
from cordant.graphs import GENERAL, SimpleGraph
from cordant import (
    MAX_DEPTH,
    CapExceededError,
    InvalidGraphError,
    InvalidSpecError,
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
    construct_path_antimagic,
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
    assert out.nodes_explored == 966


def test_a_cordial_cycle12_z4_not_exists():
    out = search_a_cordial(cycle_graph(12), Z4)
    assert out.status == STATUS_NOT_EXISTS
    assert out.nodes_explored == 12260


def test_antimagic_search_frozen_counts():
    out = search_a_antimagic(path_graph(6), GroupSpec((2, 3)))
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 966
    out = search_a_antimagic(path_graph(10), GroupSpec((2, 5)))
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 321100


def test_order_10_z2xz5_trees_are_settled_at_the_default_budget():
    # each runs one root branch with a 1,000,000-node share, which the
    # dead-state memo on trees keeps it well inside
    trees = list(enumerate_trees(10))
    outcomes = [search_a_antimagic(trees[i], GroupSpec((2, 5)))
                for i in (48, 55, 60)]
    assert [(o.status, o.nodes_explored) for o in outcomes] == [
        (STATUS_NOT_EXISTS, 85160), (STATUS_NOT_EXISTS, 67100),
        (STATUS_NOT_EXISTS, 20080)]


def test_star_variant_search_frozen_counts():
    out = search_a_star_antimagic(path_graph(4), E2)
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 12
    out = search_a_star_antimagic(path_graph(8), E3)
    assert out.status == STATUS_NOT_EXISTS and out.nodes_explored == 1400


def test_found_certificates_reverify():
    out = search_a_antimagic(path_graph(5), GroupSpec((5,)))
    assert out.status == STATUS_FOUND
    assert verify_a_antimagic(path_graph(5), out.certificate).ok
    out = search_a_star_antimagic(star_graph(3), E2)
    assert out.status == STATUS_FOUND and out.nodes_explored == 7
    assert verify_a_star_antimagic(star_graph(3), out.certificate).ok


def test_results_identical_across_worker_counts():
    for workers in (2, 3, 8):
        a = search_ea_cordial(path_graph(6), Z6, workers=workers)
        assert (a.status, a.certificate, a.nodes_explored) == (
            STATUS_NOT_EXISTS, None, 966)
        b = search_ea_cordial(path_graph(4), Z4, workers=workers)
        assert b.certificate.labels == ((0,), (1,), (2,))
        assert b.nodes_explored == 5


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
    assert result.nodes_explored == 30


def test_rstar_search_small_groups():
    out = search_rstar_sequence(E2)
    assert out.status == STATUS_FOUND and out.nodes_explored == 5
    rs = out.certificate
    assert sorted(rs.seq) == sorted(enumerate_elements(E2)[1:])
    out = search_rstar_sequence(E3)
    assert out.status == STATUS_NOT_EXISTS
    out = search_rstar_sequence(GroupSpec((2,)))
    assert out.status == STATUS_NOT_EXISTS


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
    with pytest.raises(CapExceededError, match="depth 10001 exceeds"):
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
        with pytest.raises(ValueError, match="workers must be at least 1"):
            search_rstar_sequence(E2, workers=workers)
        # routes and degenerate cases that run no search reject it too
        with pytest.raises(ValueError, match="workers must be at least 1"):
            search_rstar_sequence(GroupSpec((2,)), workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            construct_path_antimagic(GroupSpec((8,)), workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            explore_conjecture(2, workers=workers)


class _InlineBranch:
    """Stands in for search._Branch: runs its task in this process when
    its result is taken, logs every start, run and stop, and records the
    most branches started and not yet finished."""

    log: list = []
    live = 0
    peak = 0

    def __init__(self, task):
        self.task = task
        self.log.append(("start", task[1][-2]))
        _InlineBranch.live += 1
        _InlineBranch.peak = max(_InlineBranch.peak, _InlineBranch.live)

    def result(self):
        _InlineBranch.live -= 1
        self.log.append(("ran", self.task[1][-2]))
        return search._run_branch(self.task)

    def stop(self):
        _InlineBranch.live -= 1
        self.log.append(("stopped", self.task[1][-2]))


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
    assert (out.status, out.nodes_explored, peak) == (STATUS_NOT_EXISTS, 966, 3)
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
    assert (out.status, out.nodes_explored, peak) == (STATUS_NOT_EXISTS, 966, 0)


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
            out = search_a_antimagic(tree, spec)
            assert out.status == STATUS_FOUND
            assert out == search_ea_cordial(tree, spec)


# ---------------------------------------------------------------------------
# root symmetry pruning: which first-slot labels run, and that skipping the
# others changes node counts only


_real_run_branch = search._run_branch


@pytest.fixture
def root_splits(monkeypatch):
    """Record every root split (its arguments, what it returned, and the
    result of each branch run in this process, by prefix and budget)."""
    calls = []
    real_split = search._split_solve

    def split_spy(kind, fixed_args, prefix, first_label, kept, budget,
                  workers):
        branches = {}
        calls.append((kind, fixed_args, prefix, first_label, kept, budget,
                      branches))
        result = real_split(kind, fixed_args, prefix, first_label, kept,
                            budget, workers)
        calls[-1] += (result,)
        return result

    def branch_spy(task):
        result = _real_run_branch(task)
        *_, prefix, budget = task[1]
        calls[-1][-1][tuple(prefix), budget] = result
        return result

    monkeypatch.setattr(search, "_split_solve", split_spy)
    monkeypatch.setattr(search, "_run_branch", branch_spy)
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
    assert kept(search_rstar_sequence, E3) == [1]
    assert kept(search_ea_cordial, cycle_graph(3), Z3,
                prefix=((1,),)) == [0, 1, 2]
    assert kept(search_a_cordial, path_graph(8), Z4,
                prefix=((2,), (3,))) == [0, 1, 2, 3]
    # bounds that tell apart two labels of one orbit (1 and 5 in Z6) are
    # no automorphism symmetry, and mixed derived sizes no translation
    caps = [1, 2, 1, 1, 1, 1]
    assert search._least_root_labels(
        Z6, (caps, [0] * 6, [1] * 6, [0] * 6), {1, 2}) == list(range(6))


def _unpruned(kind, fixed_args, prefix, first_label, budget, ran):
    """The root split without pruning: every first-slot label in label
    order, each with its share of the budget, up to the first branch that
    is not exhausted.  Returns that branch's result and the nodes spent.

    A branch the pruned search ran with the same prefix and share (in
    ``ran``) is not run again: the kernels are deterministic."""
    solve = getattr(_kernel.pure, "solve_" + kind)
    labels = range(first_label, fixed_args[0])
    shares = search._shares(budget, len(labels))
    nodes = 0
    for x, share in zip(labels, shares):
        r = ran.get((tuple(prefix) + (x,), share))
        if r is None:
            r = solve(*fixed_args, prefix + [x], share)
        nodes += r[-1]
        if r[0] != EXHAUSTED:
            return r, nodes
    return (EXHAUSTED,), nodes


def _assert_pruning_keeps_outcomes(root_splits, calls):
    """Each call keeps the unpruned status and certificate, spends no more
    nodes, and returns the same outcome with two workers when it runs more
    than one branch."""
    for call in calls:
        del root_splits[:]
        outcome = call(1)
        kind, fixed_args, prefix, first_label, kept, budget, ran, result = \
            root_splits[0]
        if len(kept) > 1:
            # pool workers need the module's own, picklable branch runner
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(search, "_run_branch", _real_run_branch)
                assert call(2) == outcome
        status, payload, nodes = result
        ref, ref_nodes = _unpruned(kind, fixed_args, prefix, first_label,
                                   budget, ran)
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
    calls = []
    for n in range(2, 8):
        for tree in enumerate_trees(n):
            for spec in (g for k in range(2, 8)
                         for g in abelian_groups_of_order(k)):
                for notion in (search_ea_cordial, search_a_cordial):
                    calls.append(lambda w, f=notion, t=tree, g=spec:
                                 f(t, g, workers=w))
            for spec in abelian_groups_of_order(n):
                for notion in (search_a_antimagic, search_a_star_antimagic):
                    calls.append(lambda w, f=notion, t=tree, g=spec:
                                 f(t, g, workers=w))
    _assert_pruning_keeps_outcomes(root_splits, calls)


def test_pruning_keeps_rstar_outcomes(root_splits):
    calls = [lambda w, g=spec: search_rstar_sequence(g, workers=w)
             for n in range(4, 17) for spec in abelian_groups_of_order(n)]
    _assert_pruning_keeps_outcomes(root_splits, calls)


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
            assert search._relabeled(add_t, m, order) == \
                _relabeled_by_comprehension(add_t, m, order), (spec, order)


def test_find_any_keeps_lex_first_results_within_one_restart_unit():
    # restart 1 is the lex-first search on its kept branch, so whatever
    # that search finds within RESTART_UNIT nodes comes out unchanged
    checked = 0
    for n in range(3, 17):
        for spec in abelian_groups_of_order(n):
            want = search_a_cordial(cycle_graph(n), spec,
                                    budget=search.RESTART_UNIT * n)
            got = search.find_equitable_cycle(cycle_graph(n), spec)
            if want.status == STATUS_UNKNOWN:
                continue
            assert (got.status, got.certificate, got.nodes_explored) == (
                want.status, want.certificate, want.nodes_explored), spec
            checked += 1
    assert checked >= 12


def test_find_any_restarts_stop_at_the_branch_share():
    # Z8xZ8 stays Unknown through several restarts at these budgets
    cycle = cycle_graph(64)
    for budget in (0, 1, 100, 6_400_000):
        out = search.find_equitable_cycle(cycle, GroupSpec((8, 8)),
                                          budget=budget)
        assert out.status == STATUS_UNKNOWN
        assert out.nodes_explored == search._shares(budget, 64)[0]
    out = search.find_equitable_cycle(cycle, GroupSpec((8, 8)),
                                      budget=640_000, split=4)
    assert (out.status, out.nodes_explored) == (STATUS_UNKNOWN, 160_000)
    with pytest.raises(InvalidGraphError):
        search.find_equitable_cycle(path_graph(4), Z4)
