"""Finite Abelian groups presented as direct products of cyclic groups.

A group is a :class:`GroupSpec`: an ordered tuple of cyclic factor orders,
standing for ``Z_{d_1} + Z_{d_2} + ... + Z_{d_r}``.  The empty tuple is the
trivial group.  Elements are plain tuples of residues, one per factor, and
all arithmetic is exact integer arithmetic.

Two presentations with the same multiset of prime-power pieces are the same
group; :func:`canonicalize_spec` computes the shared normal form (prime
powers sorted by prime, then exponent), and :func:`isomorphism` maps
elements linearly between presentations that share it.

The element enumeration order used everywhere (searches, class-count maps,
"first certificate" promises) is mixed-radix lexicographic with the last
coordinate moving fastest, so ``Z2 + Z2`` enumerates as
``(0,0), (0,1), (1,0), (1,1)``.

The automorphism orbits and stabilizer tables that the searches prune by
are in ``_stabilizers``, which only the search modules import.
"""

from __future__ import annotations

from array import array
from itertools import product, repeat
from math import prod
from operator import add as add_int, mod, mul
from typing import Iterable

# TABLE_CAP is defined in ``_vocab`` and stays readable here
from ._vocab import (  # noqa: F401
    TABLE_CAP,
    Record,
    check_table_order,
    set_field,
)
from .errors import CapExceededError, InvalidElementError, InvalidSpecError

#: Elements are bare residue tuples, one coordinate per cyclic factor.
Element = tuple[int, ...]

#: Refuse to materialize element lists longer than this.
DEFAULT_ENUM_CAP = 2**20


class GroupSpec(Record):
    """A direct product of cyclic groups, given by its factor orders.

    ``order``, not a field, is the product of the factors, worked out
    once here."""

    _fields = ("factors",)

    def __init__(self, factors: tuple[int, ...]) -> None:
        factors = tuple(int(d) for d in factors)
        for d in factors:
            if d < 2:
                raise InvalidSpecError(f"cyclic factor orders must be >= 2, got {d}")
        set_field(self, "factors", factors)
        set_field(self, "order", prod(factors))

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def __str__(self) -> str:
        return format_group(self)


def group(factors: Iterable[int] | GroupSpec) -> GroupSpec:
    """Coerce an iterable of factor orders (or a spec) to a :class:`GroupSpec`."""
    if isinstance(factors, GroupSpec):
        return factors
    return GroupSpec(tuple(factors))


TRIVIAL_GROUP = GroupSpec(())


# ---------------------------------------------------------------------------
# element arithmetic


def check_element(spec: GroupSpec, a: Element) -> None:
    """Raise unless ``a`` is a conformant residue tuple for ``spec``."""
    if not isinstance(a, tuple) or len(a) != len(spec.factors):
        raise InvalidElementError(f"element {a!r} does not fit {spec}")
    for x, d in zip(a, spec.factors):
        if not isinstance(x, int) or not 0 <= x < d:
            raise InvalidElementError(f"coordinate {x!r} out of range for Z{d}")


def add(spec: GroupSpec, a: Element, b: Element) -> Element:
    """Componentwise sum in ``spec``."""
    check_element(spec, a)
    check_element(spec, b)
    return tuple((x + y) % d for x, y, d in zip(a, b, spec.factors))


def negate(spec: GroupSpec, a: Element) -> Element:
    """Componentwise additive inverse in ``spec``."""
    check_element(spec, a)
    return tuple((-x) % d for x, d in zip(a, spec.factors))


def sum_elements(spec: GroupSpec, elems: Iterable[Element]) -> Element:
    """Sum of a (possibly empty) collection of elements."""
    acc = spec.zero()
    for e in elems:
        acc = add(spec, acc, e)
    return acc


def enumerate_elements(spec: GroupSpec) -> list[Element]:
    """All elements in mixed-radix lexicographic order, last coordinate fastest.

    >>> enumerate_elements(GroupSpec((2, 2)))
    [(0, 0), (0, 1), (1, 0), (1, 1)]
    """
    return list(_elements(spec))


def element_index(spec: GroupSpec, a: Element) -> int:
    """Position of ``a`` in the enumeration order."""
    check_element(spec, a)
    idx = 0
    for x, d in zip(a, spec.factors):
        idx = idx * d + x
    return idx


def element_at(spec: GroupSpec, idx: int) -> Element:
    """Inverse of :func:`element_index`."""
    if not 0 <= idx < spec.order:
        raise InvalidElementError(f"index {idx} out of range for {spec}")
    coords = []
    for d in reversed(spec.factors):
        coords.append(idx % d)
        idx //= d
    return tuple(reversed(coords))


#: per factor tuple of order at most ``TABLE_CAP``, the elements in
#: enumeration order as a tuple (``_enumeration``), and the count map with
#: every element at 0 in that order (``_zero_counts``), so a group is
#: enumerated once.  Groups past the cap are enumerated on every call, so
#: a block call over Z5120 or an untrusted cli order pins nothing that
#: grows with the order.
_element_cache: dict[tuple[int, ...], tuple[Element, ...]] = {}
_zero_cache: dict[tuple[int, ...], dict[Element, int]] = {}


def _enumeration(spec: GroupSpec) -> tuple[Element, ...]:
    """The elements of ``spec`` in enumeration order, as a tuple, cached
    up to ``TABLE_CAP`` (see ``_element_cache``)."""
    elements = _element_cache.get(spec.factors)
    if elements is None:
        elements = tuple(_elements(spec))
        if spec.order <= TABLE_CAP:
            _element_cache[spec.factors] = elements
    return elements


def _zero_counts(spec: GroupSpec) -> dict[Element, int]:
    """A count map with every element of ``spec`` at 0, in enumeration
    order, for the caller to fill: up to ``TABLE_CAP`` a copy of the
    cached map (a dict copy reuses the stored hashes), past it a map
    built for this call alone."""
    zero = _zero_cache.get(spec.factors)
    if zero is None:
        zero = dict.fromkeys(_enumeration(spec), 0)
        if spec.order > TABLE_CAP:
            return zero
        _zero_cache[spec.factors] = zero
    return zero.copy()


def _elements(spec: GroupSpec):
    """The elements of ``spec`` in enumeration order, as an iterator;
    refuses an order past ``DEFAULT_ENUM_CAP``."""
    if spec.order > DEFAULT_ENUM_CAP:
        raise CapExceededError(
            f"group of order {spec.order} exceeds cap {DEFAULT_ENUM_CAP}")
    return product(*map(range, spec.factors))


_table_cache: dict[tuple[int, ...], tuple[array, array]] = {}


def op_tables(spec: GroupSpec) -> tuple[array, array]:
    """Dense index-based Cayley tables ``(add, neg)`` for kernel use.

    ``add[i * order + j]`` is the index of ``element_at(i) + element_at(j)``
    and ``neg[i]`` the index of the inverse.  Cached per presentation.

    The tables are built by index arithmetic, one factor at a time from
    the last.  With ``A = Z_d + B`` and ``b = |B|``, element ``(x, r)``
    has index ``x * b + r``, and block ``y`` of its row holds
    ``((x + y) % d) * b`` plus row ``r`` of B's table.  So the row of
    ``(0, r)`` is row ``r`` of B repeated ``d`` times, block ``y`` raised
    by ``y * b``, and the row of ``(x, r)`` is that row rotated left by
    ``x * b`` entries, copied as two slices of C ints: no element tuples
    and no list of the table's entries.
    """
    key = spec.factors
    cached = _table_cache.get(key)
    if cached is not None:
        return cached
    check_table_order(spec.order)
    add_t, neg = array("i", [0]), array("i", [0])
    b = 1
    for d in reversed(key):
        n = d * b
        out = array("i", [0]) * (n * n)
        raised = array("i", [y * b for y in range(d) for _ in range(b)])
        for r in range(b):
            out[r * n:(r + 1) * n] = array(
                "i", map(add_int, add_t[r * b:(r + 1) * b] * d, raised))
        with memoryview(out) as view:
            for k in range(b, n, b):
                for r in range(b):
                    at, first = (k + r) * n, r * n
                    view[at:at + n - k] = view[first + k:first + n]
                    view[at + n - k:at + n] = view[first:first + k]
        neg = array("i", [(-x) % d * b + v for x in range(d) for v in neg])
        add_t = out
        b = n
    _table_cache[key] = (add_t, neg)
    return add_t, neg


# ---------------------------------------------------------------------------
# canonical form


def _prime_power_parts(d: int) -> list[tuple[int, int]]:
    """Factor ``d`` into ``(prime, exponent)`` pairs, ascending primes."""
    parts = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            parts.append((p, e))
        p += 1 if p == 2 else 2
    if d > 1:
        parts.append((d, 1))
    return parts


class GroupStructure(Record):
    """A group's primary decomposition and what the constructions and
    deciders read off it, the same for every presentation of the group.

    ``canonical`` is the primary form (see :func:`canonicalize_spec`),
    ``two_part`` and ``odd_part`` its even and odd prime-power factors, in
    canonical order, and ``elementary_two`` whether every factor is Z2
    (and there is at least one).
    """

    _fields = ("canonical", "two_part", "odd_part", "elementary_two")

    def __init__(self, canonical: GroupSpec, two_part: GroupSpec,
                 odd_part: GroupSpec, elementary_two: bool) -> None:
        set_field(self, "canonical", canonical)
        set_field(self, "two_part", two_part)
        set_field(self, "odd_part", odd_part)
        set_field(self, "elementary_two", elementary_two)


# per factor tuple; every presentation of a group maps to one record
_structure_cache: dict[tuple[int, ...], GroupStructure] = {}


def group_structure(spec: Iterable[int] | GroupSpec) -> GroupStructure:
    """The :class:`GroupStructure` of ``spec``, worked out once per factor
    tuple.  It holds a few records of factor tuples, never elements, so
    the cache stays small whatever the group order."""
    key = group(spec).factors
    cached = _structure_cache.get(key)
    if cached is not None:
        return cached
    canon = tuple(p**e for p, e in sorted(
        pe for d in key for pe in _prime_power_parts(d)))
    out = _structure_cache.get(canon)
    if out is None:
        whole = GroupSpec(canon)
        t = sum(d % 2 == 0 for d in canon)  # the powers of 2 come first
        out = _structure_cache[canon] = GroupStructure(
            whole, _part(whole, canon[:t]), _part(whole, canon[t:]),
            bool(canon) and set(canon) == {2})
    _structure_cache[key] = out
    return out


def _part(whole: GroupSpec, factors: tuple[int, ...]) -> GroupSpec:
    """``GroupSpec(factors)`` for some of the factors of ``whole``; all or
    none of them reuse ``whole`` or the trivial group."""
    if factors == whole.factors:
        return whole
    return GroupSpec(factors) if factors else TRIVIAL_GROUP


def canonicalize_spec(spec: Iterable[int] | GroupSpec) -> GroupSpec:
    """Primary decomposition: prime-power factors sorted by (prime, exponent).

    >>> canonicalize_spec([24]).factors
    (8, 3)
    >>> canonicalize_spec([4, 2, 3]).factors
    (2, 4, 3)
    >>> canonicalize_spec([6, 6]).factors
    (2, 2, 3, 3)
    """
    return group_structure(spec).canonical


def involution_count(spec: GroupSpec) -> int:
    """Number of elements of order exactly 2: ``2**e - 1`` for ``e`` even factors.

    >>> involution_count(GroupSpec((4,)))
    1
    >>> involution_count(GroupSpec((2, 2, 2)))
    7
    >>> involution_count(GroupSpec((15,)))
    0
    """
    return 2**group_structure(spec).two_part.rank - 1


def sylow_split(spec: GroupSpec) -> tuple[GroupSpec, GroupSpec]:
    """Canonical 2-part and odd part, as (two_part, odd_part)."""
    structure = group_structure(spec)
    return structure.two_part, structure.odd_part


def is_elementary_two(spec: GroupSpec) -> bool:
    """True when every canonical factor is Z2 (and there is at least one)."""
    return group_structure(spec).elementary_two


class AntDecomposition(Record):
    """A split of a group as Z_{4m} + (odd-order part), with m > 1.

    ``four_m`` is the order of the distinguished cyclic piece (a multiple of
    4, at least 8) and ``odd_part`` the remaining factors (all odd order).
    """

    _fields = ("four_m", "odd_part")

    def __init__(self, four_m: int, odd_part: GroupSpec) -> None:
        set_field(self, "four_m", four_m)
        set_field(self, "odd_part", odd_part)


# per factor tuple (the split depends on the presentation), None included
_ant_cache: dict[tuple[int, ...], AntDecomposition | None] = {}


def ant_decomposition(spec: GroupSpec) -> AntDecomposition | None:
    """Split ``spec`` as Z_{4m} + H with m > 1 and |H| odd, if possible.

    The split is presentation-aware so that single-factor cyclic inputs keep
    their full order on the cyclic side:

    >>> ant_decomposition(GroupSpec((8, 3)))
    AntDecomposition(four_m=8, odd_part=GroupSpec(factors=(3,)))
    >>> ant_decomposition(GroupSpec((24,)))
    AntDecomposition(four_m=24, odd_part=GroupSpec(factors=()))
    >>> ant_decomposition(GroupSpec((4,))) is None
    True

    Returns None when the Sylow 2-subgroup is trivial, noncyclic, or too
    small (order 2, or order 4 with no odd part to absorb).  Worked out
    once per factor tuple.
    """
    key = spec.factors
    if key in _ant_cache:
        return _ant_cache[key]
    out = _ant_cache[key] = _split_ant(spec)
    return out


def _split_ant(spec: GroupSpec) -> AntDecomposition | None:
    """``ant_decomposition``, uncached."""
    two_part, odd_part = sylow_split(spec)
    if len(two_part.factors) != 1:
        return None
    s = two_part.factors[0]
    if s < 4 or (s == 4 and odd_part.is_trivial):
        return None
    if len(spec.factors) == 1:
        # a bare cyclic presentation keeps its whole order on the cyclic side
        return AntDecomposition(spec.factors[0], TRIVIAL_GROUP)
    if s >= 8:
        return AntDecomposition(s, odd_part)
    # s == 4 with a nontrivial odd part: absorb the largest odd invariant
    # factor (one highest power per odd prime) into the cyclic piece
    by_prime: dict[int, list[int]] = {}
    for d in odd_part.factors:
        ((p, _),) = _prime_power_parts(d)
        by_prime.setdefault(p, []).append(d)
    lam = 1
    rest = []
    for p in sorted(by_prime):
        powers = sorted(by_prime[p])
        lam *= powers.pop()
        rest.extend(powers)
    return AntDecomposition(4 * lam, canonicalize_spec(GroupSpec(tuple(rest))))


# ---------------------------------------------------------------------------
# maps between presentations


def _pieces(spec: GroupSpec) -> list[tuple[int, int, int]]:
    """(prime, exponent, factor index) of each prime-power piece of the
    factors, in canonical order."""
    return sorted((p, e, src) for src, d in enumerate(spec.factors)
                  for p, e in _prime_power_parts(d))


class LinearMap(Record):
    """A homomorphism between presentations, given by the images of the
    unit vectors: coordinate i of the image of ``a`` is
    ``sum(a[j] * weights[i][j]) mod dst.factors[i]``."""

    _fields = ("src", "dst", "weights")

    def __init__(self, src: GroupSpec, dst: GroupSpec,
                 weights: tuple[tuple[int, ...], ...]) -> None:
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "weights", weights)

    def __call__(self, a: Element) -> Element:
        check_element(self.src, a)
        return tuple(sum(map(mul, a, w)) % d
                     for w, d in zip(self.weights, self.dst.factors))

    def columns(self, cols: list) -> list:
        """Images of elements given as coordinate columns (one sequence
        per ``src`` factor, all of one length), as columns of ``dst``.
        Nothing is checked: the columns must hold elements already."""
        out = []
        for w, d in zip(self.weights, self.dst.factors):
            # every factor of an isomorphic image has a nonzero weight
            terms = [col if x == 1 else map(mul, col, repeat(x))
                     for col, x in zip(cols, w) if x]
            acc = terms[0]
            for t in terms[1:]:
                acc = map(add_int, acc, t)
            out.append(list(map(mod, acc, repeat(d))))
        return out


# per pair of factor tuples (src, dst)
_iso_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], LinearMap] = {}


def isomorphism(src: GroupSpec, dst: GroupSpec) -> LinearMap:
    """An explicit isomorphism between two presentations of one group.

    Both presentations split into the same prime-power pieces, matched
    in canonical order.  The map is linear: the image of unit vector j
    has, in factor i of ``dst``, the sum of the CRT idempotents (1 on
    the piece, 0 on the rest of factor i) of the pieces that factor j
    contributes to factor i.  Raises InvalidSpecError when the canonical
    forms differ.  Worked out once per pair of factor tuples.
    """
    key = (src.factors, dst.factors)
    cached = _iso_cache.get(key)
    if cached is not None:
        return cached
    src_pieces, dst_pieces = _pieces(src), _pieces(dst)
    if [pe[:2] for pe in src_pieces] != [pe[:2] for pe in dst_pieces]:
        raise InvalidSpecError(f"{src} and {dst} are not isomorphic")
    # the idempotent of piece q of d = dst factor i: 1 mod q, 0 mod d / q
    weights = [[0] * src.rank for _ in dst.factors]
    for (p, e, j), (_, _, i) in zip(src_pieces, dst_pieces):
        q, d = p**e, dst.factors[i]
        rest = d // q
        weights[i][j] = (weights[i][j] + rest * pow(rest, -1, q)) % d
    out = _iso_cache[key] = LinearMap(src, dst, tuple(map(tuple, weights)))
    return out


# ---------------------------------------------------------------------------
# group inventories


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n as non-increasing tuples, lexicographic."""
    if n == 0:
        return [()]
    out = []

    def rec(rest: int, cap: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def abelian_groups_of_order(n: int) -> list[GroupSpec]:
    """Every Abelian group of order ``n``, one canonical spec each.

    >>> [g.factors for g in abelian_groups_of_order(8)]
    [(2, 2, 2), (2, 4), (8,)]
    """
    if n < 1:
        raise InvalidSpecError("order must be positive")
    if n == 1:
        return [TRIVIAL_GROUP]
    choices: list[list[tuple[int, ...]]] = []
    for p, e in _prime_power_parts(n):
        choices.append([tuple(p**k for k in sorted(part)) for part in _partitions(e)])
    specs: list[GroupSpec] = []

    def rec(i: int, acc: list[tuple[int, ...]]) -> None:
        if i == len(choices):
            factors: list[int] = []
            for fs in acc:
                factors.extend(fs)
            specs.append(canonicalize_spec(GroupSpec(tuple(factors))))
            return
        for fs in choices[i]:
            acc.append(fs)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    specs.sort(key=lambda s: s.factors)
    return specs


# ---------------------------------------------------------------------------
# text syntax


def parse_group(text: str) -> GroupSpec:
    """Parse ``"Z8xZ3"`` / ``"8x3"`` / ``"[8, 3]"`` (case-insensitive).

    >>> parse_group("Z8xZ3").factors
    (8, 3)
    >>> parse_group("[2,2,2]").factors
    (2, 2, 2)
    """
    s = text.strip()
    if s.startswith("["):
        import json

        try:
            data = json.loads(s)
        except ValueError as exc:
            raise InvalidSpecError(f"bad group syntax: {text!r}") from exc
        if not isinstance(data, list) or not all(isinstance(d, int) for d in data):
            raise InvalidSpecError(f"bad group syntax: {text!r}")
        return GroupSpec(tuple(data))
    factors = []
    for piece in s.lower().split("x"):
        piece = piece.strip()
        if piece.startswith("z"):
            piece = piece[1:]
        if not piece.isdigit():
            raise InvalidSpecError(f"bad group syntax: {text!r}")
        factors.append(int(piece))
    if factors == [1]:
        return TRIVIAL_GROUP
    return GroupSpec(tuple(factors))


def format_group(spec: GroupSpec) -> str:
    """Inverse of :func:`parse_group` on its primary form."""
    if spec.is_trivial:
        return "Z1"
    return "x".join(f"Z{d}" for d in spec.factors)
