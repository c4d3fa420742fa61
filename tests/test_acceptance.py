"""Top-level acceptance gate.

Ten numbered end-to-end checks, each asserting a concrete capability of
the library together with a wall-clock ceiling.  Every check prints one
``[PASS]``/``[FAIL]`` line straight to the real stdout so the gate reads
as a scoreboard even under pytest's capture.
"""

import time

from cordant.certificates import load_demo_certificate
from cordant.constructions import (
    STATUS_FOUND,
    STATUS_IMPOSSIBLE,
    construct_ant_path,
    construct_path_antimagic,
    construct_path_ek,
    decide_cycle_zk_cordial,
    decide_path_ek_cordial,
    sigma_max_formula,
)
from cordant.explore import explore_conjecture
from cordant.graphs import cycle_graph, path_graph
from cordant.groups import (
    GroupSpec,
    abelian_groups_of_order,
    add,
    ant_decomposition,
)
from cordant.labelings import (
    EdgeLabeling,
    induce_vertex_labels,
    verify_a_antimagic,
    verify_a_star_antimagic,
    verify_ea_cordial,
)
from cordant.search import (
    compute_sigma_max,
    search_a_antimagic,
    search_a_cordial,
    search_a_star_antimagic,
    search_rstar_sequence,
)


def criterion(number, limit_seconds, description):
    # the scoreboard line bypasses pytest capture via capfd.disabled()
    def decorate(fn):
        def wrapper(capfd):
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                elapsed = time.perf_counter() - start
                with capfd.disabled():
                    print(f"\n[FAIL] {number}: {description} "
                          f"({elapsed:.2f}s)", flush=True)
                raise
            elapsed = time.perf_counter() - start
            ok = elapsed <= limit_seconds
            with capfd.disabled():
                print(f"\n[{'PASS' if ok else 'FAIL'}] {number}: "
                      f"{description} ({elapsed:.2f}s)", flush=True)
            assert ok, (f"criterion {number} took {elapsed:.2f}s, "
                        f"limit {limit_seconds}s")
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return decorate


def _distinct_sums(graph, labeling):
    sums = induce_vertex_labels(graph, labeling).labels
    return len(set(sums)) == len(sums)


@criterion(1, 1.0, "bundled example certificates verify and regenerate")
def test_criterion_01_demo_fidelity():
    one = load_demo_certificate(1)
    assert one.graph.kind == "tree" and one.graph.n == 8
    assert verify_a_star_antimagic(
        one.graph, EdgeLabeling(one.group, one.edge_labels)).ok

    four = load_demo_certificate(4)
    assert four.graph.kind == "path"
    assert verify_a_antimagic(
        four.graph, EdgeLabeling(four.group, four.edge_labels)).ok

    for number in (2, 3):
        cert = load_demo_certificate(number)
        f = EdgeLabeling(cert.group, cert.edge_labels)
        assert verify_ea_cordial(cert.graph, f).ok
        rebuilt = construct_ant_path(cert.group)
        assert rebuilt.labels == cert.edge_labels


@criterion(2, 5.0, "block construction certified for every group of order "
                   "at most 48 that splits as Z_4m + odd, m > 1")
def test_criterion_02_ant_construction_sweep():
    checked = 0
    for order in range(2, 49):
        seen = set()
        pool = list(abelian_groups_of_order(order)) + [GroupSpec((order,))]
        for spec in pool:
            if spec.factors in seen:
                continue
            seen.add(spec.factors)
            if ant_decomposition(spec) is None:
                continue
            f = construct_ant_path(spec)
            graph = path_graph(order)
            assert verify_ea_cordial(graph, f).ok, spec
            assert _distinct_sums(graph, f), spec
            checked += 1
    assert checked >= 20


@criterion(3, 600.0, "closed-form path decider agrees with exhaustive search "
                     "for k in 2..6, n in 2..18")
def test_criterion_03_path_decider_vs_search():
    from cordant.search import search_ea_cordial

    for k in range(2, 7):
        spec = GroupSpec((k,))
        for n in range(2, 19):
            graph = path_graph(n)
            out = search_ea_cordial(graph, spec, budget=None)
            exists = out.status == "Found"
            assert decide_path_ek_cordial(n, k) == exists, (n, k)
            if exists:
                res = construct_path_ek(n, k)
                assert res.status == STATUS_FOUND, (n, k)
                assert verify_ea_cordial(graph, res.labeling).ok, (n, k)


@criterion(4, 120.0, "cycle vertex-labeling search agrees with the parity "
                     "predicate on six cycle/group pairs")
def test_criterion_04_cycle_search_vs_predicate():
    for n, k in ((12, 4), (12, 12), (9, 3), (6, 2), (5, 5), (10, 5)):
        out = search_a_cordial(cycle_graph(n), GroupSpec((k,)), budget=None)
        exists = out.status == "Found"
        assert decide_cycle_zk_cordial(n, k) == exists, (n, k)


@criterion(5, 60.0, "exhaustive neighbour-sum maximum matches the formula "
                    "for every group of order 3..8")
def test_criterion_05_sigma_max():
    expected = {
        (3,): 3, (4,): 3, (2, 2): 2, (5,): 5, (2, 3): 5, (7,): 7,
        (8,): 7, (2, 4): 8, (2, 2, 2): 6,
    }
    seen = {}
    for order in range(3, 9):
        for spec in abelian_groups_of_order(order):
            result = compute_sigma_max(spec, budget=None)
            assert result.status == "Found", spec
            assert result.value == sigma_max_formula(spec), spec
            seen[spec.factors] = result.value
    assert seen == expected


@criterion(6, 900.0, "injective distinct-sum path labelings: found and "
                     "certified at orders 4..64 unless order = 2 mod 4, "
                     "impossible there, with search confirmation at 6 and 10")
def test_criterion_06_antimagic_paths():
    for order in range(4, 65):
        for spec in abelian_groups_of_order(order):
            res = construct_path_antimagic(spec)
            if order % 4 == 2:
                assert res.status == STATUS_IMPOSSIBLE, spec
                continue
            assert res.status == STATUS_FOUND, spec
            verdict = verify_a_antimagic(path_graph(order), res.labeling)
            assert verdict.ok, spec
    for order in (6, 10):
        (spec,) = abelian_groups_of_order(order)
        out = search_a_antimagic(path_graph(order), spec, budget=None)
        assert out.status == "NotExists", spec


@criterion(7, 60.0, "zero-free distinct sums: ruled out on the 4-path and "
                    "8-path, found on the bundled 8-vertex tree")
def test_criterion_07_zero_free():
    out4 = search_a_star_antimagic(path_graph(4), GroupSpec((2, 2)),
                                   budget=None)
    assert out4.status == "NotExists"
    out8 = search_a_star_antimagic(path_graph(8), GroupSpec((2, 2, 2)),
                                   budget=None)
    assert out8.status == "NotExists"
    tree = load_demo_certificate(1).graph
    found = search_a_star_antimagic(tree, GroupSpec((2, 2, 2)), budget=None)
    assert found.status == "Found"


def _star_fronted_path_labels(rs):
    """Edge labels of P_|A| from an R*-sequence over an elementary
    2-group: rotated so the star comes first, entry 1 is the sum of
    entries 0 and -1; the labels are then 0 and entries 1, 2, ..."""
    spec, i = rs.group, rs.star_index
    turned = rs.seq[i:] + rs.seq[:i]
    assert turned[1] == add(spec, turned[0], turned[-1])
    return EdgeLabeling(spec, (spec.zero(),) + turned[1:])


@criterion(8, 60.0, "difference sequences found for (Z2)^2 and (Z2)^4 and "
                    "converted into certified path labelings")
def test_criterion_08_rstar():
    for factors, limit in (((2, 2), 1.0), ((2, 2, 2, 2), 60.0)):
        spec = GroupSpec(factors)
        start = time.perf_counter()
        out = search_rstar_sequence(spec, budget=None)
        elapsed = time.perf_counter() - start
        assert out.status == "Found", factors
        assert elapsed <= limit, (factors, elapsed)
        f = _star_fronted_path_labels(out.certificate)
        assert verify_a_antimagic(path_graph(spec.order), f).ok


@criterion(9, 60.0, "randomized invariant properties, 1000 cases each")
def test_criterion_09_property_suites():
    from tests import test_properties as props

    for name in (
        "test_group_axioms",
        "test_canonicalize_idempotent",
        "test_sylow_split_partitions_the_order",
        "test_ant_decomposition_invariants",
        "test_isomorphism_to_canonical_is_bijective_homomorphism",
        "test_element_index_round_trip",
        "test_parse_format_round_trip",
        "test_degree_sum_is_twice_edge_count",
        "test_tree_canonical_form_is_relabeling_invariant",
        "test_induced_labels_are_linear",
        "test_vertex_sums_conserve_twice_the_edge_sum",
        "test_cycle_shift_moves_vertex_sums_by_twice_the_shift",
        "test_verdicts_are_consistent",
        "test_zero_free_distinct_sums_imply_the_zero_allowed_form",
        "test_tree_of_group_order_equivalence",
        "test_projection_preserves_class_count_totals",
        "test_path_ek_construction_matches_the_decider",
        "test_search_results_are_certified_and_worker_invariant",
        "test_certificate_round_trip",
        "test_explore_row_counts_match_the_inventory",
    ):
        getattr(props, name)()


@criterion(10, 600.0, "tree survey to order 8: distinct sums exist exactly "
                      "away from orders 2 and 6")
def test_criterion_10_explore():
    report = explore_conjecture(8)
    assert not report.violations
    assert not report.unknown_rows
    for row in report.rows:
        if row.n in (2, 6):
            assert row.antimagic_status == "NotExists", (row.n, row.tree_index)
        else:
            assert row.antimagic_status == "Found", (row.n, row.tree_index)
