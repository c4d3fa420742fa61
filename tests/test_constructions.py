"""Deciders, transfer operations, block construction, and dispatchers."""

import hashlib
import time
from math import prod

import pytest

from cordant import (
    DEFAULT_BUDGET,
    induce_edge_labels,
    ConstructionResult,
    EdgeLabeling,
    GroupSpec,
    InapplicableGroupError,
    InternalCheckError,
    PreconditionError,
    STATUS_FOUND,
    STATUS_IMPOSSIBLE,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    VertexLabeling,
    abelian_groups_of_order,
    ant_layout,
    class_counts,
    construct_ant_path,
    construct_path_antimagic,
    construct_path_ek,
    cycle_graph,
    cycle_to_path,
    cycle_vertex_to_edge,
    decide_cycle_zk_cordial,
    decide_path_a_antimagic,
    decide_path_ek_cordial,
    decide_tree_2mod4_obstruction,
    enumerate_elements,
    induce_vertex_labels,
    load_demo_certificate,
    path_graph,
    project_labeling,
    rotate_to_star,
    rstar_to_path_antimagic,
    search_a_antimagic,
    search_ea_cordial,
    search_rstar_sequence,
    shift_labeling,
    sigma_max_formula,
    verify_a_antimagic,
    verify_ea_cordial,
)
from cordant.constructions import _opened
from cordant.search import _shares, find_equitable_cycle

Z3 = GroupSpec((3,))


# ---------------------------------------------------------------------------
# closed-form deciders

def test_cycle_decider():
    assert decide_cycle_zk_cordial(9, 3)
    assert decide_cycle_zk_cordial(5, 5)
    assert decide_cycle_zk_cordial(10, 5)
    assert decide_cycle_zk_cordial(12, 2)
    assert not decide_cycle_zk_cordial(6, 2)
    assert not decide_cycle_zk_cordial(12, 4)
    assert not decide_cycle_zk_cordial(12, 12)
    with pytest.raises(PreconditionError):
        decide_cycle_zk_cordial(2, 3)
    with pytest.raises(PreconditionError):
        decide_cycle_zk_cordial(5, 1)


def test_path_decider():
    assert not decide_path_ek_cordial(2, 2)
    assert not decide_path_ek_cordial(2, 5)
    assert decide_path_ek_cordial(9, 3)
    assert decide_path_ek_cordial(3, 6)
    assert decide_path_ek_cordial(12, 6)
    assert decide_path_ek_cordial(12, 2)
    assert decide_path_ek_cordial(17, 6)
    assert not decide_path_ek_cordial(6, 6)
    assert not decide_path_ek_cordial(18, 6)
    assert not decide_path_ek_cordial(10, 2)


def test_tree_obstruction_decider():
    assert decide_tree_2mod4_obstruction(6, GroupSpec((6,)))
    assert decide_tree_2mod4_obstruction(10, GroupSpec((2,)))
    assert not decide_tree_2mod4_obstruction(8, GroupSpec((8,)))
    assert not decide_tree_2mod4_obstruction(6, GroupSpec((2, 2, 3)))
    assert not decide_tree_2mod4_obstruction(7, GroupSpec((6,)))
    # the one-vertex tree is the smallest; 1 is not 2 mod 4
    assert not decide_tree_2mod4_obstruction(1, GroupSpec((2,)))
    for n in (0, -5, -2):
        with pytest.raises(PreconditionError):
            decide_tree_2mod4_obstruction(n, GroupSpec((2,)))


def test_antimagic_path_decider_matches_search_up_to_order_8():
    for n in range(2, 9):
        for spec in abelian_groups_of_order(n):
            decided = decide_path_a_antimagic(spec)
            assert decided == (n % 4 != 2)
            searched = search_a_antimagic(path_graph(n), spec, budget=None)
            assert decided == (searched.status == STATUS_FOUND), spec


def test_sigma_max_formula_branches():
    assert sigma_max_formula(GroupSpec((2,))) == 1      # one involution
    assert sigma_max_formula(GroupSpec((6,))) == 5
    assert sigma_max_formula(GroupSpec((8,))) == 7
    assert sigma_max_formula(GroupSpec((2, 2))) == 2    # involutions only
    assert sigma_max_formula(GroupSpec((2, 2, 2, 2))) == 14
    assert sigma_max_formula(GroupSpec((3,))) == 3      # no involution
    assert sigma_max_formula(GroupSpec((2, 4))) == 8    # three involutions
    with pytest.raises(PreconditionError):
        sigma_max_formula(GroupSpec(()))


# ---------------------------------------------------------------------------
# transfer operations

def test_cycle_vertex_to_edge_carries_labels():
    c = VertexLabeling(Z3, ((0,), (1,), (2,)))
    f = cycle_vertex_to_edge(cycle_graph(3), c)
    assert f.labels == c.labels
    # new induced vertex-label multiset equals the old induced edge-label one
    new_sums = induce_vertex_labels(cycle_graph(3), f).labels
    old_sums = induce_edge_labels(cycle_graph(3), c).labels
    assert sorted(new_sums) == sorted(old_sums)


def test_cycle_vertex_to_edge_preconditions():
    c = VertexLabeling(Z3, ((0,), (0,), (0,)))
    with pytest.raises(PreconditionError):
        cycle_vertex_to_edge(cycle_graph(3), c)
    with pytest.raises(PreconditionError):
        cycle_vertex_to_edge(path_graph(3), VertexLabeling(Z3, ((0,), (1,), (2,))))


def test_shift_labeling_subtracts_constant():
    f = EdgeLabeling(GroupSpec((4,)), ((0,), (1,), (3,)))
    assert shift_labeling(f, (1,)).labels == ((3,), (0,), (2,))


def test_cycle_to_path_examples():
    path, f = cycle_to_path(cycle_graph(3), EdgeLabeling(Z3, ((0,), (1,), (2,))))
    assert f.labels == ((1,), (2,))
    assert induce_vertex_labels(path, f).labels == ((1,), (0,), (2,))
    z2 = GroupSpec((2,))
    path, f = cycle_to_path(cycle_graph(4), EdgeLabeling(z2, ((0,), (0,), (1,), (1,))))
    assert f.labels == ((0,), (1,), (1,))
    v = verify_ea_cordial(path, f)
    assert v.ok
    assert v.edge_class_counts == {(0,): 1, (1,): 2}
    assert v.vertex_class_counts == {(0,): 2, (1,): 2}


def test_cycle_to_path_rejects_inequitable_input():
    with pytest.raises(PreconditionError):
        cycle_to_path(cycle_graph(3), EdgeLabeling(Z3, ((0,), (0,), (0,))))


def test_opening_needs_a_full_class():
    f = EdgeLabeling(Z3, ((0,), (0,), (0,), (1,)))
    with pytest.raises(InternalCheckError, match="no full label class"):
        _opened(f, class_counts(Z3, f.labels))


def test_projection_examples():
    fig2 = load_demo_certificate(2)
    f = EdgeLabeling(fig2.group, fig2.edge_labels)
    small = project_labeling(path_graph(24), f, 1)
    assert small.group == GroupSpec((8,))
    assert verify_ea_cordial(path_graph(24), small).ok
    fig4 = load_demo_certificate(4)
    f = EdgeLabeling(fig4.group, fig4.edge_labels)
    small = project_labeling(path_graph(8), f, 2)
    assert small.group == GroupSpec((2, 2))
    assert verify_ea_cordial(path_graph(8), small).ok


def test_projection_preconditions():
    fig4 = load_demo_certificate(4)
    f = EdgeLabeling(fig4.group, fig4.edge_labels)
    with pytest.raises(PreconditionError):
        project_labeling(path_graph(8), f, 5)
    with pytest.raises(PreconditionError):
        project_labeling(cycle_graph(8), f, 1)
    bad = EdgeLabeling(GroupSpec((2, 2, 2)), ((0, 0, 0),) * 7)
    with pytest.raises(PreconditionError):
        project_labeling(path_graph(8), bad, 1)


# ---------------------------------------------------------------------------
# block construction

def test_ant_layout_small_cases():
    layout = ant_layout(GroupSpec((8, 3)))
    assert (layout.m, layout.k) == (2, 3)
    assert layout.base_cycle == ((0,), (1,), (2,))
    layout = ant_layout(GroupSpec((24,)))
    assert (layout.m, layout.k) == (6, 1)
    assert layout.base_cycle == ()


def test_ant_layout_rejects_inapplicable_groups():
    for fac in ((2, 2), (4,), (2, 3), (15,)):
        with pytest.raises(InapplicableGroupError):
            ant_layout(GroupSpec(fac))


FIG2_LABELS = (
    (0, 0), (4, 0), (1, 0), (5, 0), (2, 0), (7, 0), (3, 0),
    (0, 1), (4, 1), (1, 1), (5, 1), (2, 1), (6, 1), (3, 1), (7, 1),
    (4, 2), (0, 2), (5, 2), (1, 2), (6, 2), (2, 2), (7, 2), (3, 2),
)

FIG3_LABELS = (
    (0,), (12,), (1,), (13,), (2,), (14,), (3,), (15,), (4,), (16,), (5,),
    (17,), (6,), (19,), (7,), (20,), (8,), (21,), (9,), (22,), (10,), (23,), (11,),
)


def test_block_construction_frozen_outputs():
    f = construct_ant_path(GroupSpec((8, 3)))
    assert f.labels == FIG2_LABELS
    f = construct_ant_path(GroupSpec((24,)))
    assert f.labels == FIG3_LABELS


def test_block_routes_verify_their_path_once(monkeypatch):
    # ... and neither the odd route, the block layout nor the ek formula
    # searches; the searching routes verify their path once too, and no
    # cycle: the search certified it
    from cordant import constructions, search

    checks = []
    for name in ("verify_ea_cordial", "verify_a_cordial",
                 "verify_a_antimagic"):
        def counted(graph, f, real=getattr(constructions, name), name=name):
            checks.append((name, graph.kind))
            return real(graph, f)
        monkeypatch.setattr(constructions, name, counted)

    ea, ant = [("verify_ea_cordial", "path")], [("verify_a_antimagic", "path")]
    searching = ((lambda: construct_path_antimagic(GroupSpec((2, 4))), ant),
                 (lambda: construct_path_antimagic(GroupSpec((2, 4, 3))), ant),
                 (lambda: construct_path_antimagic(GroupSpec((2, 2))), ant))
    for call, want in searching:
        checks.clear()
        assert call().status == STATUS_FOUND
        assert checks == want

    def no_search(task):
        raise AssertionError(f"kernel call {task[0]}")
    monkeypatch.setattr(search, "_run_branch", no_search)
    # AntLayout checks its base cycle over the odd part, an outside input
    layout = [("verify_ea_cordial", "cycle")]
    for call, want in ((lambda: construct_ant_path(GroupSpec((8, 3))),
                        layout + ea),
                       (lambda: construct_path_antimagic(GroupSpec((8, 3))),
                        layout + ant),
                       (lambda: construct_path_antimagic(GroupSpec((13,))),
                        ant),
                       (lambda: construct_path_ek(10, 3), ea),
                       (lambda: construct_path_ek(36, 12), ea)):
        checks.clear()
        call()
        assert checks == want


def test_block_construction_verifies_with_distinct_sums():
    for fac in ((8, 3), (24,), (4, 3), (16,), (12,), (4, 3, 3)):
        spec = GroupSpec(fac)
        f = construct_ant_path(spec)
        path = path_graph(spec.order)
        assert verify_ea_cordial(path, f).ok
        sums = induce_vertex_labels(path, f).labels
        assert len(set(sums)) == spec.order


# ---------------------------------------------------------------------------
# equitable path dispatcher

# the formula's labels on a few small paths, frozen
EK_LABELS = {
    (4, 4): (0, 2, 1),
    (9, 3): (2, 1, 0, 2, 1, 0, 2, 1),
    (12, 12): (0, 6, 1, 7, 2, 8, 3, 10, 4, 11, 5),
    (18, 5): (0, 2, 1, 3, 2, 4, 3, 0, 4, 1, 0, 2, 1, 3, 2, 4, 3),
    (3, 6): (2, 1),
    (12, 2): (0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1),
    (17, 6): (3, 1, 4, 2, 5, 3, 0, 4, 1, 5, 2, 0, 3, 1, 4, 2),
}


def test_path_ek_dispatcher_routes_and_counts():
    for (n, k), labels in EK_LABELS.items():
        res = construct_path_ek(n, k)
        assert (res.status, res.route, res.nodes_explored) == (
            STATUS_FOUND, "consecutive-sums", 0), (n, k)
        assert res.labeling == EdgeLabeling(GroupSpec((k,)),
                                            tuple((a,) for a in labels))
        assert verify_ea_cordial(path_graph(n), res.labeling).ok


def test_path_ek_formula_matches_the_decider_without_searching(monkeypatch):
    from cordant import search

    def no_search(task):
        raise AssertionError(f"kernel call {task[0]}")
    monkeypatch.setattr(search, "_run_branch", no_search)
    found = 0
    for k in range(2, 33):
        for n in range(3, 201):
            res = construct_path_ek(n, k)
            assert res.nodes_explored == 0, (n, k)
            if decide_path_ek_cordial(n, k):
                assert (res.status, res.route) == (
                    STATUS_FOUND, "consecutive-sums"), (n, k)
                assert verify_ea_cordial(path_graph(n), res.labeling).ok
                found += 1
            else:
                assert (res.status, res.labeling) == (STATUS_IMPOSSIBLE, None)
    assert found == 6037  # of the 6138 pairs; 101 are Impossible


def test_path_ek_labels_extend_by_one_period():
    # the labels depend on n only through n mod 2k
    for k in (2, 3, 4, 6, 10, 16):
        for n in range(3, 4 * k):
            if not decide_path_ek_cordial(n, k):
                continue
            short = construct_path_ek(n, k).labeling.labels
            long = construct_path_ek(n + 2 * k, k).labeling.labels
            assert long[:n - 1] == short, (n, k)


def test_path_ek_formula_reaches_long_paths():
    # no search, so no depth cap and no budget: P_10000 over Z_10 is
    # written down and verified in well under a second
    start = time.perf_counter()
    res = construct_path_ek(10000, 10)
    assert time.perf_counter() - start < 1.0
    assert (res.status, res.route, res.nodes_explored) == (
        STATUS_FOUND, "consecutive-sums", 0)
    assert verify_ea_cordial(path_graph(10000), res.labeling).ok


def test_routes_with_searches_deeper_than_a_thousand_levels():
    # a search over 7240 slots would recurse deeper than Python's default
    # frame limit on the pure kernel; the block route searches nothing
    res = construct_path_antimagic(GroupSpec((8, 905)))
    assert (res.status, res.route) == (STATUS_FOUND, "block")
    assert verify_a_antimagic(path_graph(7240), res.labeling).ok


def test_path_ek_dispatcher_impossible():
    for n, k in ((6, 6), (18, 6), (10, 2), (2, 5)):
        res = construct_path_ek(n, k)
        assert res.status == STATUS_IMPOSSIBLE
        assert res.route == "decided-impossible" and res.labeling is None
    with pytest.raises(PreconditionError):
        construct_path_ek(1, 3)
    with pytest.raises(PreconditionError):
        construct_path_ek(5, 1)


# ---------------------------------------------------------------------------
# difference-sequence route

def test_rotate_to_star_fronts_the_star():
    rs = search_rstar_sequence(GroupSpec((2, 2, 2, 2))).certificate
    turned = rotate_to_star(rs)
    spec = turned.group
    assert sorted(turned.seq) == sorted(rs.seq)
    first, last = turned.seq[0], turned.seq[-1]
    assert turned.seq[1] == tuple((a + b) % 2 for a, b in zip(first, last))


def test_rstar_path_labels_and_verification():
    rs = rotate_to_star(search_rstar_sequence(GroupSpec((2, 2))).certificate)
    f = rstar_to_path_antimagic(rs)
    assert f.labels[0] == (0, 0)
    assert f.labels[1:] == rs.seq[1:]
    assert verify_a_antimagic(path_graph(4), f).ok


def test_rstar_path_rejects_non_elementary_groups():
    rs = rotate_to_star(search_rstar_sequence(GroupSpec((7,))).certificate)
    with pytest.raises(PreconditionError):
        rstar_to_path_antimagic(rs)


# ---------------------------------------------------------------------------
# antimagic path dispatcher

# route, node count and sha256 of repr(labels); rainbow labelings are
# find-any, so the digest is what pins them
DISPATCH_CASES = {
    (4,): ("base-p4", 0,
           "4b0ca899f0603aa4054d22797859021a"
           "230636a23cf04f1077ddd7037605a6d6"),
    (2, 2): ("sequence", 5,
             "1122c8111ecffc6a09644acab84cdff0"
             "26ee8354c118993af021a0b75854de61"),
    (5,): ("odd-cycle-search", 0,
           "d02e3616360ccf8e56e02ef4efba79fb"
           "a9009fdcb9b4c4c97ae0110cb14b99b2"),
    (7,): ("odd-cycle-search", 0,
           "d79f8c82f8fdec6194db8386dcf63597"
           "bca00badafb4b72c039d2ebe5807eb45"),
    (2, 4): ("rainbow-cycle", 67,
             "c62407cbc05486a01a9553a7405315d4"
             "78e470c471a147f64cc0acd07547ea3d"),
    (8,): ("block", 0,
           "89a55ba3817d50a72a8da187e6ac6214"
           "9c365947da3ae9ef92b4c64ff0161d77"),
    (2, 2, 2): ("pinned-cube", 0,
                "14ce7c2aa48af1630a234f8e353eeec0"
                "b5c3ea2e063dc13d39ae1334b495ec77"),
    (9,): ("odd-cycle-search", 0,
           "cb7950df26d05971d85f74543383d9e1"
           "947e9710bee77b210891028357c3927f"),
    (3, 3): ("odd-cycle-search", 0,
             "1fceac86512dfe056befa6e7915d2fed"
             "756eb9e3ea97aa1ec24253649e720297"),
    (11,): ("odd-cycle-search", 0,
            "d7ac549fc6c2a303a31d2a4b79d4700b"
            "b87676e190a39607e0657a59ff73c4d0"),
    (4, 3): ("block", 0,
             "7d5a76baec12adcb3e8e562586eb080a"
             "1167ba341ccdd70128d5d54fb2e1025b"),
    (2, 2, 3): ("rainbow-cycle", 2657,
                "d3306681ed186bc660a2b1ebab67457e"
                "f5b30d4234c99461664d9b03bea01da3"),
    (13,): ("odd-cycle-search", 0,
            "10053d2a1ddbde87f2ed258ae484f25d"
            "bd194e9c51047431e7eb549953d15f9c"),
    (15,): ("odd-cycle-search", 0,
            "f87a361206a3ec9618caa80b6c9af137"
            "b655836e8eb06d21390ded3bbe65c653"),
    (16,): ("block", 0,
            "4b2f4372fd3652692b030bde154baed8"
            "ce5c8301b307d5c5df9ebde5c9cce79c"),
    (2, 8): ("rainbow-cycle", 10615,
             "47f58068e52e60ededbb4c1ca3d40741"
             "8ce4506c566f19f783ba457ee7bc93e1"),
    (4, 4): ("rainbow-cycle", 1463,
             "f9a6abe4003153aded3cafb0271004ac"
             "af036824b1a242b781a9454493808ec7"),
    (2, 2, 4): ("rainbow-cycle", 23607,
                "093a5a2bb007c074480de8908e1fc29d"
                "04d78fcaa65d7963aae3c2d2344b9bb8"),
    (2, 2, 2, 2): ("sequence", 161219,
                   "2dcf40683f97935fff4f610731f9241b"
                   "ddde0f4bfc1a8140da0d917111b79785"),
}


def test_antimagic_path_dispatcher_routes_and_counts():
    for fac, (route, nodes, digest) in DISPATCH_CASES.items():
        spec = GroupSpec(fac)
        res = construct_path_antimagic(spec)
        assert res.status == STATUS_FOUND, fac
        assert (res.route, res.nodes_explored) == (route, nodes), fac
        labels = repr(res.labeling.labels).encode()
        assert hashlib.sha256(labels).hexdigest() == digest, fac
        assert verify_a_antimagic(path_graph(spec.order), res.labeling).ok




def test_cycle_routes_spend_at_most_the_lex_first_share():
    # all restarts together stay within one root branch's budget share
    for budget in (100, DEFAULT_BUDGET):
        res = construct_path_antimagic(GroupSpec((2, 32)), budget=budget)
        assert res.route == "rainbow-cycle"
        assert 0 < res.nodes_explored <= _shares(budget, 64)[0]


def test_rainbow_route_builds_products_from_a_searched_core():
    # the core is the 2-part, or the 2-part times the least odd factor when
    # the 2-part is elementary; the other odd factors come from the product
    cases = {
        (2, 4, 3): (2, 4),
        (2, 4, 5): (2, 4),
        (4, 4, 3): (4, 4),
        (2, 2, 3, 5): (2, 2, 3),
        (2, 2, 3, 3): (2, 2, 3),
        (2, 2, 15): (2, 2, 3),
        (6, 4, 5): (2, 4),
        (4, 30): (2, 4),
    }
    for fac, core in cases.items():
        spec = GroupSpec(fac)
        res = construct_path_antimagic(spec)
        assert (res.status, res.route) == (STATUS_FOUND, "rainbow-cycle"), fac
        assert res.labeling.group == spec
        assert verify_a_antimagic(path_graph(spec.order), res.labeling).ok
        alone = find_equitable_cycle(cycle_graph(prod(core)), GroupSpec(core),
                                     split=spec.order)
        assert res.nodes_explored == alone.nodes_explored, fac


def test_searched_routes_are_deterministic_at_any_worker_count():
    # routes that pass workers on to their search
    results = [construct_path_antimagic(GroupSpec((2, 2, 2, 2)), workers=w)
               for w in (1, 2, 1)]
    assert len({(r.status, r.labeling, r.nodes_explored)
                for r in results}) == 1


def _presentations(n):
    """Every factor tuple with product n, in every order."""
    if n == 1:
        yield ()
        return
    for d in range(2, n + 1):
        if n % d == 0:
            for rest in _presentations(n // d):
                yield (d,) + rest


def test_odd_enumeration_is_an_equitable_cycle_labeling():
    # the lemma behind the odd route and the block layout's base cycle
    for n in range(3, 300, 2):
        for fac in _presentations(n):
            spec = GroupSpec(fac)
            f = EdgeLabeling(spec, tuple(enumerate_elements(spec)))
            assert verify_ea_cordial(cycle_graph(n), f).ok, fac


def test_odd_route_matches_the_lex_first_search():
    # the enumeration is the lex-first cycle, so the search agrees with it
    for n in range(3, 64, 2):
        for spec in abelian_groups_of_order(n):
            cycle = cycle_graph(n)
            lex = search_ea_cordial(cycle, spec)
            res = construct_path_antimagic(spec)
            assert cycle_to_path(cycle, lex.certificate)[1] == res.labeling
            assert res.route == "odd-cycle-search", spec


def test_odd_routes_beyond_the_search_caps():
    # orders past the op-table cap (1024) and the depth cap (10,000), and
    # block layouts over odd parts past the op-table cap
    for fac, route in (((1025,), "odd-cycle-search"),
                       ((10001,), "odd-cycle-search"),
                       ((8, 1025), "block"),
                       ((8, 3, 5, 7, 11), "block")):
        spec = GroupSpec(fac)
        res = construct_path_antimagic(spec)
        assert (res.status, res.route, res.nodes_explored) == (
            STATUS_FOUND, route, 0), fac
        assert verify_a_antimagic(path_graph(spec.order), res.labeling).ok
    layout = ant_layout(GroupSpec((8, 1025)))
    odd = GroupSpec(layout.work.factors[1:])
    assert layout.base_cycle == tuple(enumerate_elements(odd))


def test_antimagic_path_dispatcher_impossible_orders():
    for fac in ((2,), (6,), (2, 3), (2, 5), (2, 7)):
        res = construct_path_antimagic(GroupSpec(fac))
        assert res.status == STATUS_IMPOSSIBLE
        assert res.route == "order-2-mod-4" and res.labeling is None


def test_antimagic_path_dispatcher_budget_unknown():
    res = construct_path_antimagic(GroupSpec((2, 2, 2, 2)), budget=100)
    assert res.status == STATUS_UNKNOWN and res.route == "sequence"
    assert 0 < res.nodes_explored <= 100


def test_construction_results_are_frozen():
    res = construct_path_antimagic(GroupSpec((4,)))
    assert isinstance(res, ConstructionResult)
    with pytest.raises(AttributeError):
        res.route = "other"
