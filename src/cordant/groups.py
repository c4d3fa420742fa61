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
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import product, repeat
from math import prod
from operator import add as add_int, mod, mul
from typing import Iterable

from .errors import CapExceededError, InvalidElementError, InvalidSpecError

#: Elements are bare residue tuples, one coordinate per cyclic factor.
Element = tuple[int, ...]

#: Refuse to materialize element lists longer than this.
DEFAULT_ENUM_CAP = 2**20

#: Refuse to build dense Cayley tables for groups larger than this.
TABLE_CAP = 1024


@dataclass(frozen=True)
class GroupSpec:
    """A direct product of cyclic groups, given by its factor orders."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(int(d) for d in self.factors))
        for d in self.factors:
            if d < 2:
                raise InvalidSpecError(f"cyclic factor orders must be >= 2, got {d}")

    @property
    def order(self) -> int:
        return prod(self.factors)

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
    if spec.order > DEFAULT_ENUM_CAP:
        raise CapExceededError(
            f"group of order {spec.order} exceeds cap {DEFAULT_ENUM_CAP}")
    return list(product(*map(range, spec.factors)))


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


_table_cache: dict[tuple[int, ...], tuple[array, array]] = {}


def op_tables(spec: GroupSpec) -> tuple[array, array]:
    """Dense index-based Cayley tables ``(add, neg)`` for kernel use.

    ``add[i * order + j]`` is the index of ``element_at(i) + element_at(j)``
    and ``neg[i]`` the index of the inverse.  Cached per presentation.
    """
    key = spec.factors
    cached = _table_cache.get(key)
    if cached is not None:
        return cached
    m = spec.order
    if m > TABLE_CAP:
        raise CapExceededError(f"refusing dense tables for order {m} > {TABLE_CAP}")
    elems = enumerate_elements(spec)
    acc = [0] * (m * m)
    neg = array("i", [0] * m)
    for i, a in enumerate(elems):
        row = i * m
        for j, b in enumerate(elems):
            acc[row + j] = element_index(
                spec, tuple((x + y) % d for x, y, d in zip(a, b, spec.factors))
            )
        neg[i] = element_index(spec, tuple((-x) % d for x, d in zip(a, spec.factors)))
    add_t = array("i", acc)
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


def canonicalize_spec(spec: Iterable[int] | GroupSpec) -> GroupSpec:
    """Primary decomposition: prime-power factors sorted by (prime, exponent).

    >>> canonicalize_spec([24]).factors
    (8, 3)
    >>> canonicalize_spec([4, 2, 3]).factors
    (2, 4, 3)
    >>> canonicalize_spec([6, 6]).factors
    (2, 2, 3, 3)
    """
    spec = group(spec)
    parts = []
    for d in spec.factors:
        parts.extend(_prime_power_parts(d))
    parts.sort()
    return GroupSpec(tuple(p**e for p, e in parts))


def involution_count(spec: GroupSpec) -> int:
    """Number of elements of order exactly 2: ``2**e - 1`` for ``e`` even factors.

    >>> involution_count(GroupSpec((4,)))
    1
    >>> involution_count(GroupSpec((2, 2, 2)))
    7
    >>> involution_count(GroupSpec((15,)))
    0
    """
    e = sum(1 for d in canonicalize_spec(spec).factors if d % 2 == 0)
    return 2**e - 1


def sylow_split(spec: GroupSpec) -> tuple[GroupSpec, GroupSpec]:
    """Canonical 2-part and odd part, as (two_part, odd_part)."""
    canon = canonicalize_spec(spec)
    twos = tuple(d for d in canon.factors if d % 2 == 0)
    odds = tuple(d for d in canon.factors if d % 2 == 1)
    return GroupSpec(twos), GroupSpec(odds)


def is_elementary_two(spec: GroupSpec) -> bool:
    """True when every canonical factor is Z2 (and there is at least one)."""
    canon = canonicalize_spec(spec)
    return bool(canon.factors) and all(d == 2 for d in canon.factors)


@dataclass(frozen=True)
class AntDecomposition:
    """A split of a group as Z_{4m} + (odd-order part), with m > 1.

    ``four_m`` is the order of the distinguished cyclic piece (a multiple of
    4, at least 8) and ``odd_part`` the remaining factors (all odd order).
    """

    four_m: int
    odd_part: GroupSpec


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
    small (order 2, or order 4 with no odd part to absorb).
    """
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


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2) for coprime moduli."""
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


@dataclass(frozen=True)
class CanonicalMap:
    """Coordinate change between a presentation and its canonical form."""

    spec: GroupSpec
    canonical: GroupSpec
    # per canonical position: (index of the source factor, prime-power modulus)
    slots: tuple[tuple[int, int], ...]

    def to_canonical(self, a: Element) -> Element:
        check_element(self.spec, a)
        return tuple(a[src] % m for src, m in self.slots)

    def from_canonical(self, c: Element) -> Element:
        check_element(self.canonical, c)
        coords = []
        for i, d in enumerate(self.spec.factors):
            r, m = 0, 1
            for pos, (src, mod) in enumerate(self.slots):
                if src == i:
                    r = _crt_pair(r, m, c[pos], mod)
                    m *= mod
            coords.append(r % d)
        return tuple(coords)


def _pieces(spec: GroupSpec) -> list[tuple[int, int, int]]:
    """(prime, exponent, factor index) of each prime-power piece of the
    factors, in canonical order."""
    return sorted((p, e, src) for src, d in enumerate(spec.factors)
                  for p, e in _prime_power_parts(d))


def canonical_map(spec: GroupSpec) -> CanonicalMap:
    """Build the coordinate change onto :func:`canonicalize_spec` order."""
    slots = tuple((src, p**e) for p, e, src in _pieces(spec))
    canon = GroupSpec(tuple(m for _, m in slots))
    return CanonicalMap(spec, canon, slots)


_orbit_cache: dict[tuple[int, ...], tuple[tuple, ...]] = {}


def automorphism_orbit_keys(spec: GroupSpec) -> tuple[tuple, ...]:
    """Per element index, a key that two elements share exactly when some
    automorphism of the group maps one onto the other.

    An automorphism acts on each p-primary part on its own, and two
    elements of a finite Abelian p-group lie in one orbit exactly when
    x, px, p^2 x, ... have the same heights (their Ulm sequences agree;
    Kaplansky, "Infinite Abelian Groups").  In canonical coordinates the
    height of an element is the least p-adic valuation of its nonzero
    coordinates, so the key holds, per prime, the heights of x_p, p x_p,
    ... down to zero.  Cached per presentation.

    >>> automorphism_orbit_keys(GroupSpec((4,)))
    (((),), ((0, 1),), ((1,),), ((0, 1),))
    """
    key = spec.factors
    cached = _orbit_cache.get(key)
    if cached is not None:
        return cached
    by_prime: dict[int, list[tuple[int, int, int]]] = {}
    for src, mod in canonical_map(spec).slots:
        ((p, e),) = _prime_power_parts(mod)
        by_prime.setdefault(p, []).append((src, mod, e))
    keys = []
    for idx in range(spec.order):
        a = element_at(spec, idx)
        per_prime = []
        for p, pieces in by_prime.items():
            # (valuation, exponent) of each nonzero p-primary coordinate
            vals = []
            for src, mod, e in pieces:
                c = a[src] % mod
                if c:
                    v = 0
                    while c % p == 0:
                        c //= p
                        v += 1
                    vals.append((v, e))
            heights = []
            k = 0
            while True:
                live = [v + k for v, e in vals if v + k < e]
                if not live:
                    break
                heights.append(min(live))
                k += 1
            per_prime.append(tuple(heights))
        keys.append(tuple(per_prime))
    out = tuple(keys)
    _orbit_cache[key] = out
    return out


@dataclass(frozen=True)
class LinearMap:
    """A homomorphism between presentations, given by the images of the
    unit vectors: coordinate i of the image of ``a`` is
    ``sum(a[j] * weights[i][j]) mod dst.factors[i]``."""

    src: GroupSpec
    dst: GroupSpec
    weights: tuple[tuple[int, ...], ...]

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


def isomorphism(src: GroupSpec, dst: GroupSpec) -> LinearMap:
    """An explicit isomorphism between two presentations of one group.

    Both presentations split into the same prime-power pieces, matched
    in canonical order.  The map is linear: the image of unit vector j
    has, in factor i of ``dst``, the sum of the CRT idempotents (1 on
    the piece, 0 on the rest of factor i) of the pieces that factor j
    contributes to factor i.  Raises InvalidSpecError when the canonical
    forms differ.
    """
    src_pieces, dst_pieces = _pieces(src), _pieces(dst)
    if [pe[:2] for pe in src_pieces] != [pe[:2] for pe in dst_pieces]:
        raise InvalidSpecError(f"{src} and {dst} are not isomorphic")
    # the idempotent of piece q of d = dst factor i: 1 mod q, 0 mod d / q
    weights = [[0] * src.rank for _ in dst.factors]
    for (p, e, j), (_, _, i) in zip(src_pieces, dst_pieces):
        q, d = p**e, dst.factors[i]
        rest = d // q
        weights[i][j] = (weights[i][j] + rest * pow(rest, -1, q)) % d
    return LinearMap(src, dst, tuple(map(tuple, weights)))


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
