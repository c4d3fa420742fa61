"""Deciders, transfer operations, block construction, and dispatchers."""

import hashlib
import importlib.util
import json
import pathlib
import time
from importlib import resources
from math import prod

import pytest

from cordant import (
    DEFAULT_BUDGET,
    induce_edge_labels,
    CapExceededError,
    ConstructionResult,
    EdgeLabeling,
    GroupSpec,
    InapplicableGroupError,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    PreconditionError,
    STATUS_FOUND,
    STATUS_IMPOSSIBLE,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    VertexLabeling,
    abelian_groups_of_order,
    add,
    ant_decomposition,
    canonicalize_spec,
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
    is_elementary_two,
    load_demo_certificate,
    path_graph,
    project_labeling,
    search_a_antimagic,
    search_ea_cordial,
    sigma_max_formula,
    verify_a_antimagic,
    verify_ea_cordial,
)
from cordant.constructions import _harmonious_core, _harmonious_order, _pinned
from cordant.search import _find_any, _shares

ROOT = pathlib.Path(__file__).resolve().parent.parent
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


def test_tree_obstruction_needs_an_odd_multiple_of_the_group_order():
    # n = 2 = |A| mod 4 alone is no obstruction: P_10 over Z6 and P_6 over
    # Z10 have equitable labelings
    for n, k in ((10, 6), (6, 10), (12, 6)):
        assert not decide_tree_2mod4_obstruction(n, GroupSpec((k,))), (n, k)
    assert construct_path_ek(10, 6).status == STATUS_FOUND
    assert search_ea_cordial(path_graph(6), GroupSpec((10,))).status == \
        STATUS_FOUND
    for n, k in ((6, 6), (18, 6), (30, 10), (10, 2)):
        assert decide_tree_2mod4_obstruction(n, GroupSpec((k,))), (n, k)
    # a path is a tree: where the obstruction applies over Z_k, no
    # equitable Z_k labeling of P_n exists
    for k in range(2, 31):
        for n in range(2, 200):
            if decide_tree_2mod4_obstruction(n, GroupSpec((k,))):
                assert not decide_path_ek_cordial(n, k), (n, k)


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


def test_cycle_to_path_subtracts_the_first_full_class():
    # ceil(5/4) = 2: class (1,) is the full one, so every label drops by
    # 1 to (0, 1, 3, 0, 2), and the path opens past the first zero edge
    f = EdgeLabeling(GroupSpec((4,)), ((1,), (2,), (0,), (1,), (3,)))
    path, opened = cycle_to_path(cycle_graph(5), f)
    assert opened.labels == ((1,), (3,), (0,), (2,))
    assert verify_ea_cordial(path, opened).ok


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

def test_block_construction_rejects_inapplicable_groups():
    for fac in ((2, 2), (4,), (2, 3), (15,)):
        with pytest.raises(InapplicableGroupError):
            construct_ant_path(GroupSpec(fac))


def test_block_groups_past_the_path_cap_are_refused_before_any_label(
        monkeypatch):
    # the labels of Z2097152 alone would take hundreds of MB
    from cordant import constructions

    def no_labels(j, m):
        raise AssertionError("block labels built")
    monkeypatch.setattr(constructions, "_block_column", no_labels)
    spec = GroupSpec((2**21,))
    for call in (construct_ant_path, construct_path_antimagic):
        with pytest.raises(CapExceededError,
                           match="path of 2097152 vertices exceeds cap"):
            call(spec)


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
    # ... and neither the odd route, the block construction nor the ek
    # formula searches; the searching routes verify their path once too,
    # and the cycle a search found once, as the search certified it.
    # Every verifier and every certificate judges through one of these two.
    from cordant import labelings, search

    checks = []
    for name in ("_judge_equitable", "_judge_injective"):
        def counted(graph, f, flag, real=getattr(labelings, name),
                    name=name):
            checks.append((name, graph.kind))
            return real(graph, f, flag)
        monkeypatch.setattr(labelings, name, counted)

    ea = [("_judge_equitable", "path")]
    ant = [("_judge_injective", "path")]
    cycle = [("_judge_equitable", "cycle")]
    searching = ((lambda: construct_path_antimagic(GroupSpec((2, 4))),
                  cycle + ant),
                 (lambda: construct_path_antimagic(GroupSpec((2, 4, 3))),
                  cycle + ant),
                 (lambda: construct_path_antimagic(GroupSpec((2, 2))), ant))
    for call, want in searching:
        checks.clear()
        assert call().status == STATUS_FOUND
        assert checks == want

    def no_search(task):
        raise AssertionError(f"kernel call {task[0]}")
    monkeypatch.setattr(search, "_run_branch", no_search)
    for call, want in ((lambda: construct_ant_path(GroupSpec((8, 3))), ea),
                       (lambda: construct_path_antimagic(GroupSpec((8, 3))),
                        ant),
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
# antimagic path dispatcher

# route, node count and sha256 of repr(labels); rainbow and sequence
# labelings are find-any, so the digest is what pins them
DISPATCH_CASES = {
    (4,): ("base-p4", 0,
           "4b0ca899f0603aa4054d22797859021a"
           "230636a23cf04f1077ddd7037605a6d6"),
    (2, 2): ("sequence", 6,
             "9fe9da31830413b6d20616658a2c430e"
             "dce8bfdeca345abebd95eb633c439e7f"),
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
    (2, 2, 2, 2): ("sequence", 10121,
                   "c5c2e9876d0ef97f976aafea997d67fe"
                   "e445bba9ba50dee05493ae05ce280175"),
    (2, 2, 2, 2, 2): ("sequence", 15718,
                      "1d1eeabe272506021ce1ab74802df6e9"
                      "fb5e37e60cd6b50f9bc6f022b312ee80"),
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
        res = construct_path_antimagic(GroupSpec((4, 8)), budget=budget)
        assert res.route == "rainbow-cycle"
        assert 0 < res.nodes_explored <= _shares(budget, 32)[0]


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
        alone = _find_any(cycle_graph(prod(core)), GroupSpec(core),
                          NOTION_A_CORDIAL, split=spec.order)
        assert res.nodes_explored == alone.nodes_explored, fac


def test_searched_routes_are_deterministic_and_take_no_workers():
    # the find-any searches run one branch in this process: no worker
    # count to take
    for fac in ((2, 2, 2, 2), (2, 2, 2, 2, 2)):
        results = [construct_path_antimagic(GroupSpec(fac)) for _ in range(2)]
        assert len({(r.status, r.labeling, r.nodes_explored)
                    for r in results}) == 1, fac
    with pytest.raises(TypeError):
        construct_path_antimagic(GroupSpec((2, 2, 2, 2)), workers=1)


def test_sequence_route_pins_z2_6_which_one_branch_share_cannot_settle():
    spec = GroupSpec((2,) * 6)
    res = construct_path_antimagic(spec)
    assert (res.status, res.route, res.nodes_explored) == (
        STATUS_FOUND, "sequence", 0)
    assert verify_a_antimagic(path_graph(64), res.labeling).ok
    out = _find_any(path_graph(64), spec, NOTION_A_ANTIMAGIC, DEFAULT_BUDGET)
    assert (out.status, out.nodes_explored) == (
        STATUS_UNKNOWN, _shares(DEFAULT_BUDGET, 64)[0])


def _outcome_digest(rows) -> str:
    """sha256 of (key, status, route, nodes, labels) per result."""
    text = repr([(key, r.status, r.route, r.nodes_explored,
                  r.labeling and r.labeling.labels) for key, r in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def test_routes_other_than_sequence_keep_their_outcomes():
    # the 110 groups of order 2..64 that are not elementary 2-groups, and
    # every construct_path_ek(n, k) for n 3..60, k 2..16: statuses,
    # routes, node counts and labels, frozen when the sequence route
    # moved to the find-any search and again when the rainbow cores were
    # pinned, which turned 12 rows from Unknown to Found and left the
    # other 98 as they were
    rows = [(spec.factors, construct_path_antimagic(spec))
            for n in range(2, 65) for spec in abelian_groups_of_order(n)
            if not is_elementary_two(spec)]
    assert len(rows) == 110
    assert _outcome_digest(rows) == (
        "d93cefff6f785413cf178f863613bfde"
        "bf5bb32cbe0061b6e9f4da25ebbbf9e4")
    rows = [((n, k), construct_path_ek(n, k))
            for n in range(3, 61) for k in range(2, 17)]
    assert len(rows) == 870
    assert _outcome_digest(rows) == (
        "58e4326ec1daf337596b3a538babf463"
        "9ebbec88549d450ace4621eed6ae9611")


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


def test_harmonious_order_on_every_group_it_serves():
    # the groups the dispatcher sends to it: Sylow 2-subgroup trivial or
    # noncyclic, and not an elementary 2-group
    served = pins = 0
    for n in range(2, 65):
        for spec in abelian_groups_of_order(n):
            if (not decide_path_a_antimagic(spec) or spec.factors == (4,)
                    or ant_decomposition(spec) is not None
                    or is_elementary_two(spec)):
                continue
            served += 1
            status, order, nodes = _harmonious_order(spec, DEFAULT_BUDGET)
            assert status == STATUS_FOUND, spec
            assert order[0] == spec.zero(), spec
            assert sorted(order) == enumerate_elements(spec), spec
            sums = {add(spec, order[i - 1], order[i]) for i in range(n)}
            assert len(sums) == n, spec
            pinned = n % 2 == 0 and _pinned(
                "rainbow-cycle", _harmonious_core(spec)[0]) is not None
            assert (nodes == 0) == (n % 2 == 1 or pinned), spec
            pins += pinned
    assert (served, pins) == (74, 12)


# ---------------------------------------------------------------------------
# pinned searches: src/cordant/fixtures/cores.json, by tools/pin_cores.py

def _pin_entries() -> list[dict]:
    text = (resources.files("cordant") / "fixtures"
            / "cores.json").read_text(encoding="utf-8")
    return json.loads(text)["pins"]


def _pin_tool():
    spec = importlib.util.spec_from_file_location(
        "pin_cores", ROOT / "tools" / "pin_cores.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_pinned_cores_are_harmonious_orderings():
    # plain group arithmetic, no kernel: each ordering starts at 0, lists
    # every element once and has |A| distinct cyclic neighbour sums
    cores = [pin for pin in _pin_entries() if pin["route"] == "rainbow-cycle"]
    assert len(cores) == 12
    for pin in cores:
        spec = GroupSpec(tuple(pin["group"]))
        order = [tuple(g) for g in pin["labels"]]
        n = spec.order
        assert spec == canonicalize_spec(spec), spec
        assert order[0] == spec.zero(), spec
        assert sorted(order) == enumerate_elements(spec), spec
        sums = {add(spec, order[i - 1], order[i]) for i in range(n)}
        assert len(sums) == n, spec


def test_pinned_path_labeling_is_antimagic():
    (pin,) = [pin for pin in _pin_entries() if pin["route"] == "sequence"]
    spec = GroupSpec(tuple(pin["group"]))
    assert spec.factors == (2,) * 6
    f = EdgeLabeling(spec, tuple(map(tuple, pin["labels"])))
    assert verify_a_antimagic(path_graph(64), f).ok
    # the default call returns exactly the pin, with no search: the 12
    # pinned cores are frozen with the other non-elementary groups in
    # test_routes_other_than_sequence_keep_their_outcomes
    res = construct_path_antimagic(spec)
    assert (res.status, res.route, res.nodes_explored, res.labeling.labels) \
        == (STATUS_FOUND, "sequence", 0, f.labels)


def test_pins_are_exactly_the_route_calls_the_default_share_leaves_unknown():
    # no pin on a group the search settles, and none missing
    pinned = {(pin["route"], tuple(pin["group"])) for pin in _pin_entries()}
    unsettled = {(route, core.factors)
                 for route, core in _pin_tool().unsettled()}
    assert pinned == unsettled
    assert len(pinned) == 13


def test_pin_tool_reproduces_its_cheapest_entry():
    spec = GroupSpec((2, 2, 2, 2, 3))
    (stored,) = [pin for pin in _pin_entries()
                 if tuple(pin["group"]) == spec.factors]
    assert stored["nodes"] == 408_519
    fresh = _pin_tool().pin("rainbow-cycle", spec)
    assert {**fresh, "labels": [list(g) for g in fresh["labels"]]} == stored


def test_pinned_cores_serve_every_presentation_and_product():
    # keyed by isomorphism class and carried to the presentation asked
    # for; odd cyclic factors multiply a pinned core as they do a
    # searched one, past order 64
    for fac in ((32, 2), (16, 2, 2), (8, 4, 2), (2, 32, 3), (8, 8, 3),
                (2, 2, 2, 2, 3, 5)):
        spec = GroupSpec(fac)
        res = construct_path_antimagic(spec)
        assert (res.status, res.route, res.nodes_explored) == (
            STATUS_FOUND, "rainbow-cycle", 0), fac
        assert res.labeling.group == spec
        assert verify_a_antimagic(path_graph(spec.order), res.labeling).ok


def test_budget_bounds_search_nodes_so_pins_settle_at_budget_zero():
    for fac, route in (((8, 8), "rainbow-cycle"), ((2,) * 6, "sequence")):
        res = construct_path_antimagic(GroupSpec(fac), budget=0)
        assert (res.status, res.route, res.nodes_explored) == (
            STATUS_FOUND, route, 0), fac
    res = construct_path_antimagic(GroupSpec((4, 8)), budget=0)
    assert (res.status, res.route) == (STATUS_UNKNOWN, "rainbow-cycle")


def test_pin_file_is_read_once_and_only_by_the_searching_routes(monkeypatch):
    from cordant import constructions

    monkeypatch.setattr(constructions, "_pins", None)
    for fac in ((4,), (8,), (3, 3), (2, 3), (2, 2, 2), (12,)):
        construct_path_antimagic(GroupSpec(fac))
    construct_path_ek(10, 4)
    assert constructions._pins is None
    construct_path_antimagic(GroupSpec((8, 8)))
    pins = constructions._pins
    assert len(pins) == 13
    construct_path_antimagic(GroupSpec((2,) * 6))
    assert constructions._pins is pins


def test_harmonious_order_of_odd_groups_is_the_enumeration(monkeypatch):
    from cordant import search

    def no_search(task):
        raise AssertionError(f"kernel call {task[0]}")
    monkeypatch.setattr(search, "_run_branch", no_search)
    for n in range(3, 130, 2):
        for spec in abelian_groups_of_order(n):
            assert _harmonious_order(spec, DEFAULT_BUDGET) == (
                STATUS_FOUND, tuple(enumerate_elements(spec)), 0), spec


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
