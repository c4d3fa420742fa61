"""Group core: canonical forms, arithmetic, decompositions, isomorphisms,
automorphism orbits and the orbits of pointwise stabilizers."""

import itertools
from array import array

import pytest

from cordant import (
    CapExceededError,
    EdgeLabeling,
    GroupSpec,
    InapplicableGroupError,
    InvalidElementError,
    InvalidSpecError,
    abelian_groups_of_order,
    add,
    ant_decomposition,
    canonicalize_spec,
    element_at,
    element_index,
    enumerate_elements,
    format_group,
    group,
    involution_count,
    is_elementary_two,
    isomorphism,
    negate,
    parse_group,
    path_graph,
    sylow_split,
)
from cordant import groups
from cordant.groups import (
    STABILIZER_CAP,
    TABLE_CAP,
    automorphism_orbit_keys,
    op_tables,
    stabilizer_table,
)

from canonical_reference import CanonicalMap


# ---------------------------------------------------------------------------
# canonical form

def test_canonicalize_merges_coprime_factors():
    assert canonicalize_spec([24]).factors == (8, 3)


def test_canonicalize_sorts_prime_power_factors():
    assert canonicalize_spec([4, 2, 3]).factors == (2, 4, 3)


def test_canonicalize_splits_composite_factors():
    assert canonicalize_spec([6, 6]).factors == (2, 2, 3, 3)


def test_canonicalize_idempotent_samples():
    for fac in [(24,), (4, 2, 3), (6, 6), (2,), (12, 10)]:
        once = canonicalize_spec(fac)
        assert canonicalize_spec(once) == once


def test_trivial_and_invalid_specs():
    assert GroupSpec(()).order == 1
    assert GroupSpec(()).is_trivial
    with pytest.raises(InvalidSpecError):
        GroupSpec((1,))
    with pytest.raises(InvalidSpecError):
        GroupSpec((0, 3))
    with pytest.raises(InvalidSpecError):
        GroupSpec((-2,))


# ---------------------------------------------------------------------------
# arithmetic

def test_add_and_negate_componentwise():
    z8z3 = GroupSpec((8, 3))
    assert add(z8z3, (7, 2), (1, 1)) == (0, 0)
    assert negate(z8z3, (3, 1)) == (5, 2)


def test_element_validation():
    z6 = GroupSpec((6,))
    with pytest.raises(InvalidElementError):
        add(z6, (6,), (0,))
    with pytest.raises(InvalidElementError):
        add(z6, (1, 0), (0,))


def test_enumeration_order_last_coordinate_fastest():
    z2z2 = GroupSpec((2, 2))
    assert enumerate_elements(z2z2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_element_index_round_trip():
    spec = GroupSpec((4, 3))
    for idx, a in enumerate(enumerate_elements(spec)):
        assert element_at(spec, idx) == a
        assert element_index(spec, a) == idx


# ---------------------------------------------------------------------------
# Cayley tables

NON_CANONICAL = [(3, 2), (2, 4), (4, 2, 3), (5, 3, 2), (8, 2), (6, 10), (12,),
                 (2, 3, 4, 5)]


@pytest.mark.parametrize("specs", [
    [spec for n in range(2, 130) for spec in abelian_groups_of_order(n)],
    [GroupSpec(factors) for factors in NON_CANONICAL],
], ids=["canonical-2..129", "non-canonical"])
def test_op_tables_match_element_arithmetic(specs):
    for spec in specs:
        elems = enumerate_elements(spec)
        m = len(elems)
        index = {a: element_index(spec, a) for a in elems}
        add_t, neg_t = op_tables(spec)
        assert add_t.typecode == neg_t.typecode == "i", spec
        assert list(add_t[:m]) == list(range(m)), spec
        assert list(add_t) == [index[add(spec, a, b)]
                               for a in elems for b in elems], spec
        assert list(neg_t) == [element_index(spec, negate(spec, a))
                               for a in elems], spec


def test_op_tables_at_the_cap_and_the_trivial_group():
    for spec in (GroupSpec((TABLE_CAP,)), GroupSpec((2,) * 10)):
        add_t, neg_t = op_tables(spec)
        assert len(add_t) == TABLE_CAP**2 and len(neg_t) == TABLE_CAP
        for i in (0, 1, 777, TABLE_CAP - 1):
            a = element_at(spec, i)
            assert neg_t[i] == element_index(spec, negate(spec, a))
            assert add_t[i * TABLE_CAP:(i + 1) * TABLE_CAP].tolist() == [
                element_index(spec, add(spec, a, element_at(spec, j)))
                for j in range(TABLE_CAP)]
    assert op_tables(GroupSpec(())) == (array("i", [0]),) * 2


def test_op_tables_past_the_cap_build_nothing(monkeypatch):
    def no_arrays(*args):
        raise AssertionError("built a table past the cap")
    monkeypatch.setattr(groups, "array", no_arrays)
    cached = dict(groups._table_cache)
    for factors in ((TABLE_CAP + 1,), (5, 5, 41)):
        with pytest.raises(CapExceededError):
            op_tables(GroupSpec(factors))
    assert groups._table_cache == cached


# ---------------------------------------------------------------------------
# structure queries

def test_involution_counts():
    assert involution_count(GroupSpec((4,))) == 1
    assert involution_count(GroupSpec((2, 2, 2))) == 7
    assert involution_count(GroupSpec((15,))) == 0


def test_involution_count_matches_enumeration_up_to_64():
    for n in range(1, 65):
        for spec in abelian_groups_of_order(n):
            zero = spec.zero()
            brute = sum(
                1
                for a in enumerate_elements(spec)
                if a != zero and add(spec, a, a) == zero
            )
            assert involution_count(spec) == brute, spec


def test_is_elementary_two():
    assert is_elementary_two(GroupSpec((2, 2, 2)))
    assert is_elementary_two(GroupSpec((2,)))
    assert not is_elementary_two(GroupSpec((4, 2)))
    assert not is_elementary_two(GroupSpec((3,)))


def test_sylow_split_examples():
    two, odd = sylow_split(GroupSpec((24,)))
    assert two.factors == (8,) and odd.factors == (3,)
    two, odd = sylow_split(GroupSpec((15,)))
    assert two.is_trivial and odd.factors == (3, 5)
    two, odd = sylow_split(GroupSpec((2, 4, 9)))
    assert two.factors == (2, 4) and odd.factors == (9,)


def test_sylow_concatenation_is_isomorphic_to_input():
    for n in range(1, 49):
        for spec in abelian_groups_of_order(n):
            two, odd = sylow_split(spec)
            joined = canonicalize_spec(tuple(two.factors) + tuple(odd.factors))
            assert joined == canonicalize_spec(spec)


def _primary(factors):
    """Prime-power pieces of ``factors``, sorted, by trial division."""
    pieces = []
    for d in factors:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                pieces.append((p, q))
            p += 1
    return tuple(q for _, q in sorted(pieces))


def test_group_structure_is_one_record_per_group():
    # every presentation of a group reads one cached record, which
    # agrees with the primary decomposition worked out here
    for order in range(1, 65):
        for spec in _presentations(order):
            structure = groups.group_structure(spec)
            canon = _primary(spec.factors)
            assert structure.canonical.factors == canon
            assert structure.two_part.factors == tuple(
                q for q in canon if q % 2 == 0)
            assert structure.odd_part.factors == tuple(
                q for q in canon if q % 2 == 1)
            assert structure.elementary_two == (
                bool(canon) and set(canon) == {2})
            assert groups.group_structure(GroupSpec(canon)) is structure
    assert groups.group_structure(GroupSpec((32, 2))) is \
        groups.group_structure(GroupSpec((2, 32)))
    assert ant_decomposition(GroupSpec((8, 3))) is \
        ant_decomposition(GroupSpec((8, 3)))


def test_cached_structure_cannot_be_changed():
    spec = GroupSpec((2, 32))
    structure = groups.group_structure(spec)
    dec = ant_decomposition(GroupSpec((8, 3)))
    carry = isomorphism(GroupSpec((24,)), GroupSpec((8, 3)))
    assert isomorphism(GroupSpec((24,)), GroupSpec((8, 3))) is carry
    for record in (structure, structure.canonical, structure.two_part,
                   structure.odd_part, dec, dec.odd_part, carry):
        for name in (*record._fields, "order"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    # every field is a record of factor tuples or a flag, never a list of
    # elements that a caller could edit or that grows with the order
    for cached in groups._structure_cache.values():
        assert isinstance(cached, groups.GroupStructure)
        assert type(cached.elementary_two) is bool
        for part in (cached.canonical, cached.two_part, cached.odd_part):
            assert type(part.factors) is tuple
    for cached in groups._ant_cache.values():
        assert cached is None or type(cached.odd_part.factors) is tuple
    for cached in groups._iso_cache.values():
        assert type(cached.weights) is tuple
        assert all(type(row) is tuple for row in cached.weights)
    assert sylow_split(spec) == (GroupSpec((2, 32)), GroupSpec(()))
    assert canonicalize_spec(spec) == GroupSpec((2, 32))
    assert groups.group_structure(spec) is structure


def test_enumerations_and_zero_count_maps_are_handed_out_fresh():
    spec = GroupSpec((2, 3))
    want = list(itertools.product(range(2), range(3)))
    first = enumerate_elements(spec)
    first.append((9, 9))
    first[0] = (1, 1)
    assert enumerate_elements(spec) == want
    assert enumerate_elements(spec) is not enumerate_elements(spec)
    elements = groups._enumeration(spec)
    assert type(elements) is tuple and list(elements) == want
    assert groups._enumeration(spec) is elements
    zero = groups._zero_counts(spec)
    zero[(0, 0)] = 5
    zero.pop((1, 2))
    again = groups._zero_counts(spec)
    assert again is not zero
    assert list(again.items()) == [(a, 0) for a in want]
    # past the cap each call builds its own, and nothing is kept
    big = GroupSpec((TABLE_CAP + 1,))
    assert groups._zero_counts(big) is not groups._zero_counts(big)
    assert groups._enumeration(big) is not groups._enumeration(big)
    assert big.factors not in groups._zero_cache
    assert big.factors not in groups._element_cache


def test_caches_are_keyed_by_factor_tuples():
    from cordant import construct_path_antimagic, verify_ea_cordial
    for factors in ((5, 7), (4, 3), (2, 2, 2), (3, 9)):
        construct_path_antimagic(GroupSpec(factors))
    verify_ea_cordial(path_graph(6), EdgeLabeling(
        GroupSpec((6,)), ((0,), (1,), (2,), (3,), (4,))))
    caches = {name: cache for name, cache in vars(groups).items()
              if name.endswith("_cache")}
    assert {"_element_cache", "_zero_cache", "_table_cache",
            "_structure_cache"} <= set(caches)
    assert caches["_element_cache"] and caches["_zero_cache"]

    def is_factors(key):
        return type(key) is tuple and all(type(d) is int for d in key)

    for name, cache in caches.items():
        for key in cache:
            if name == "_iso_cache":
                assert type(key) is tuple and len(key) == 2, name
                assert all(map(is_factors, key)), name
            else:
                assert is_factors(key), (name, key)


def test_no_cache_holds_a_group_past_the_table_cap():
    # a block construction over Z5120 with its certificate round trip, and
    # a judge over Z2048, leave nothing order-sized behind: the element,
    # table, orbit and stabilizer caches stop at TABLE_CAP
    from cordant import (NOTION_A_ANTIMAGIC, certificate_dumps,
                         certificate_loads, construct_path_antimagic,
                         make_edge_certificate, verify_ea_cordial)
    spec = GroupSpec((5, 1024))
    result = construct_path_antimagic(spec)
    assert result.route == "block"
    cert = make_edge_certificate(NOTION_A_ANTIMAGIC, path_graph(5120),
                                 result.labeling)
    assert certificate_loads(certificate_dumps(cert)) == cert
    z2048 = GroupSpec((2048,))
    labels = tuple((i % 2048,) for i in range(2047))
    verdict = verify_ea_cordial(path_graph(2048), EdgeLabeling(z2048, labels))
    assert sum(verdict.edge_class_counts.values()) == 2047
    for name in ("_element_cache", "_zero_cache", "_table_cache",
                 "_orbit_cache", "_stabilizer_cache"):
        cache = getattr(groups, name)
        assert all(GroupSpec(key).order <= TABLE_CAP for key in cache), name
    for cache in (groups._element_cache, groups._zero_cache):
        assert (5, 1024) not in cache and (2048,) not in cache
    assert (5,) in groups._element_cache  # the block route's odd part


# ---------------------------------------------------------------------------
# block decomposition: cyclic factor of order 4m (m > 1) plus odd rest

def test_ant_decomposition_cases():
    cases = {
        (8, 3): (8, (3,)),
        (24,): (24, ()),
        (4,): None,
        (4, 3): (12, ()),
        (2, 2, 3): None,
        (16, 3): (16, (3,)),
        (4, 3, 3): (12, (3,)),
        (12,): (12, ()),
        (4, 9): (36, ()),
        (24, 5): (8, (3, 5)),
        (8,): (8, ()),
        (2,): None,
        (4, 2): None,
        (4, 3, 5): (60, ()),
    }
    for fac, want in cases.items():
        got = ant_decomposition(GroupSpec(fac))
        norm = None if got is None else (got.four_m, got.odd_part.factors)
        assert norm == want, fac


def test_ant_decomposition_structural_invariants():
    for n in range(2, 49):
        for spec in abelian_groups_of_order(n):
            dec = ant_decomposition(spec)
            if dec is None:
                continue
            assert dec.four_m % 4 == 0 and dec.four_m > 4
            assert dec.odd_part.order % 2 == 1
            assert dec.four_m * dec.odd_part.order == spec.order
            joined = canonicalize_spec(
                (dec.four_m,) + tuple(dec.odd_part.factors))
            assert joined == canonicalize_spec(spec)


# ---------------------------------------------------------------------------
# isomorphisms

def test_isomorphism_is_bijective_homomorphism():
    for src_fac, dst_fac in [((24,), (8, 3)), ((12,), (4, 3)),
                             ((4, 3, 3), (12, 3))]:
        src, dst = GroupSpec(src_fac), GroupSpec(dst_fac)
        phi = isomorphism(src, dst)
        image = [phi(a) for a in enumerate_elements(src)]
        assert sorted(image) == sorted(enumerate_elements(dst))
        for a in enumerate_elements(src):
            for b in enumerate_elements(src)[:6]:
                assert phi(add(src, a, b)) == add(dst, phi(a), phi(b))


def _presentations(order):
    """Every canonical spec of ``order``, its factors in every order, and
    each with two coprime neighbours merged."""
    out = set()
    for spec in abelian_groups_of_order(order):
        for perm in itertools.permutations(spec.factors):
            out.add(perm)
            for i in range(len(perm) - 1):
                a, b = perm[i], perm[i + 1]
                if canonicalize_spec([a * b]).factors == \
                        canonicalize_spec([a, b]).factors:
                    out.add(perm[:i] + (a * b,) + perm[i + 2:])
    return [GroupSpec(f) for f in sorted(out)]


def test_linear_isomorphism_matches_the_canonical_form_route():
    # the weights are the CRT idempotents: the same map as converting
    # through the canonical form coordinate by coordinate
    checked = 0
    for order in (*range(2, 33), 36, 48, 60, 72):
        specs = _presentations(order)
        for src in specs:
            for dst in specs:
                if canonicalize_spec(src) != canonicalize_spec(dst):
                    continue
                via = CanonicalMap(src), CanonicalMap(dst)
                phi = isomorphism(src, dst)
                elements = enumerate_elements(src)
                images = [phi(a) for a in elements]
                assert images == [via[1].from_canonical(via[0].to_canonical(a))
                                  for a in elements], (src, dst)
                columns = phi.columns([list(c) for c in zip(*elements)])
                assert list(zip(*columns)) == images
                checked += len(elements)
    assert checked > 150_000


def test_isomorphism_checks_its_argument():
    phi = isomorphism(GroupSpec((12,)), GroupSpec((4, 3)))
    for bad in ((12,), (-1,), (1, 2), [3]):
        with pytest.raises(InvalidElementError):
            phi(bad)


def test_isomorphism_rejects_nonisomorphic_pairs():
    with pytest.raises(InvalidSpecError):
        isomorphism(GroupSpec((4,)), GroupSpec((2, 2)))


# ---------------------------------------------------------------------------
# enumeration of groups and text syntax

def test_abelian_groups_of_order_counts():
    assert [g.factors for g in abelian_groups_of_order(1)] == [()]
    assert len(abelian_groups_of_order(8)) == 3
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(36)) == 4
    for spec in abelian_groups_of_order(24):
        assert spec == canonicalize_spec(spec)


def test_parse_and_format_round_trip():
    assert parse_group("Z8xZ3").factors == (8, 3)
    assert parse_group("z2Xz2").factors == (2, 2)
    assert parse_group("[8, 3]").factors == (8, 3)
    spec = GroupSpec((2, 4, 3))
    assert parse_group(format_group(spec)) == spec
    with pytest.raises(InvalidSpecError):
        parse_group("Zfour")


def test_group_constructor_accepts_spec_or_factors():
    assert group((8, 3)) == GroupSpec((8, 3))
    assert group(GroupSpec((8, 3))) == GroupSpec((8, 3))


def test_rank_counts_factors():
    assert GroupSpec((8, 3)).rank == 2
    assert GroupSpec(()).rank == 0


# ---------------------------------------------------------------------------
# automorphism orbits

def _automorphisms(spec):
    """Every automorphism, as the list of images of the element indices,
    and the addition table ``plus[a][b]``.

    Every automorphism is fixed by the images of the factor generators:
    each image g_i needs d_i * g_i = 0, and the induced map must be a
    bijection.  Element arithmetic is done on residue tuples here.
    """
    elems = enumerate_elements(spec)
    m = len(elems)
    index = {a: i for i, a in enumerate(elems)}
    plus = [[index[tuple((x + y) % d for x, y, d in zip(a, b, spec.factors))]
             for b in elems] for a in elems]

    def times(k, i):
        acc = 0
        for _ in range(k):
            acc = plus[acc][i]
        return acc

    choices = [[g for g in range(m) if times(d, g) == 0] for d in spec.factors]
    auts = []
    for gens in itertools.product(*choices):
        images = [0]
        for d, g in zip(spec.factors, gens):
            multiples = [times(k, g) for k in range(d)]
            images = [plus[p][q] for p in images for q in multiples]
        if len(set(images)) == m:
            auts.append(images)
    return auts, plus


def _brute_force_orbits(spec):
    """Aut(A) orbits as a set of frozensets of element indices."""
    auts, _ = _automorphisms(spec)
    return {frozenset(a[i] for a in auts) for i in range(spec.order)}


def _key_orbits(spec):
    classes = {}
    for i, key in enumerate(automorphism_orbit_keys(spec)):
        classes.setdefault(key, set()).add(i)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("spec", [
    *(g for n in range(1, 17) for g in abelian_groups_of_order(n)),
    *(GroupSpec(f) for f in ((6,), (2, 6), (4, 2), (9, 3), (12,), (3, 3, 3),
                             (2, 4, 4), (4, 8), (2, 2, 8))),
], ids=str)
def test_orbit_keys_match_brute_force_automorphisms(spec):
    assert _key_orbits(spec) == _brute_force_orbits(spec)


def test_orbit_keys_follow_the_presentation():
    # the keys are read off each presentation's own table: ``isomorphism``
    # carries its orbits onto the canonical presentation's
    specs = [spec for n in range(1, 65) for spec in _presentations(n)]
    for spec in specs + [GroupSpec((6, 10))]:
        canon = canonicalize_spec(spec)
        phi = isomorphism(spec, canon)
        image = [element_index(canon, phi(a))
                 for a in enumerate_elements(spec)]
        assert {frozenset(image[i] for i in orbit)
                for orbit in _key_orbits(spec)} == _key_orbits(canon), spec


@pytest.mark.parametrize("spec", [
    *(g for n in range(1, 17) for g in abelian_groups_of_order(n)),
    *(GroupSpec(f) for f in ((3, 3, 3), (2, 4, 4), (4, 8), (2, 2, 8))),
], ids=str)
def test_stabilizer_table_matches_brute_force_automorphisms(spec):
    # walk the states from H = {0}: each state's marks are the orbits of
    # the enumerated automorphisms fixing H pointwise, and the state after
    # a moved least x fixes exactly what the automorphisms fixing <H, x>
    # fix (none left: -1)
    auts, plus = _automorphisms(spec)
    m = spec.order
    marks, succ = stabilizer_table(spec)
    subgroup = {0: {0}}
    waiting = [0]
    while waiting:
        s = waiting.pop()
        stab = [a for a in auts if all(a[h] == h for h in subgroup[s])]
        for x in range(m):
            orbit = {a[x] for a in stab}
            mark = 0 if min(orbit) < x else 1 if len(orbit) > 1 else 2
            assert marks[s * m + x] == mark, (s, x)
            t = succ[s * m + x]
            if mark != 1:
                assert t == (s if mark == 2 else -1), (s, x)
                continue
            sub = set(subgroup[s])
            y = x
            while y not in sub:
                sub |= {plus[h][y] for h in sub}
                y = plus[y][x]
            below = [a for a in stab if a[x] == x]
            if all(a == list(range(m)) for a in below):
                assert t == -1, (s, x)
                continue
            if t not in subgroup:
                subgroup[t] = sub
                waiting.append(t)
            fixers = [a for a in auts if all(a[h] == h for h in subgroup[t])]
            assert sorted(fixers) == sorted(below), (s, x, t)
    assert len(marks) == len(succ) == len(subgroup) * m


def test_stabilizer_table_above_the_cap_holds_aut_alone():
    spec = GroupSpec((2, STABILIZER_CAP))
    marks, succ = stabilizer_table(spec)
    least = {}
    for x, key in enumerate(automorphism_orbit_keys(spec)):
        least.setdefault(key, x)
    assert [x for x in range(spec.order) if marks[x]] == sorted(
        least.values())
    assert succ == [0 if mark == 2 else -1 for mark in marks]


def test_orbit_keys_examples():
    # Z6: {0}, {1, 5}, {2, 4}, {3}; Z2xZ4: the two involutions (0,2) and
    # (1,2) are apart, since only (0,2) is a double
    def least(spec):
        first = {}
        for i, key in enumerate(automorphism_orbit_keys(spec)):
            first.setdefault(key, i)
        return sorted(first.values())

    assert least(GroupSpec((6,))) == [0, 1, 2, 3]
    assert least(GroupSpec((3, 3))) == [0, 1]
    assert least(GroupSpec((2, 4))) == [0, 1, 2, 4]
    assert automorphism_orbit_keys(GroupSpec(())) == ((),)
