"""Group core: canonical forms, arithmetic, decompositions, isomorphisms,
automorphism orbits."""

import itertools

import pytest

from cordant import (
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
    sylow_split,
)
from cordant.groups import automorphism_orbit_keys, canonical_map


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
                via = canonical_map(src), canonical_map(dst)
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

def _brute_force_orbits(spec):
    """Aut(A) orbits as a set of frozensets of element indices.

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
    orbits = [{i} for i in range(m)]
    for gens in itertools.product(*choices):
        images = [0]
        for d, g in zip(spec.factors, gens):
            multiples = [times(k, g) for k in range(d)]
            images = [plus[p][q] for p in images for q in multiples]
        if len(set(images)) == m:
            for i, image in enumerate(images):
                orbits[i].add(image)
    return {frozenset(o) for o in orbits}


def _key_orbits(spec):
    classes = {}
    for i, key in enumerate(automorphism_orbit_keys(spec)):
        classes.setdefault(key, set()).add(i)
    return {frozenset(c) for c in classes.values()}


@pytest.mark.parametrize("spec", [
    *(g for n in range(1, 17) for g in abelian_groups_of_order(n)),
    *(GroupSpec(f) for f in ((6,), (2, 6), (4, 2), (9, 3), (12,))),
], ids=str)
def test_orbit_keys_match_brute_force_automorphisms(spec):
    assert _key_orbits(spec) == _brute_force_orbits(spec)


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
