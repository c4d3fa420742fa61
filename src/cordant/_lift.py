"""Harmonious orderings lifted from a quotient by an element of order 2.

Let z in A have order 2, let G = A/<z> with n = |G|, and let s: G -> A
be a section with s(0) = 0.  Every element of A is s(v) or s(v) + z for
exactly one v in G, and s(a) + s(b) = s(a + b) + c(a, b) z, where the
carry c is 0 or 1.  The quotients used here halve one factor Z_2h of A
(a Z2 factor drops out): z is h in that factor, s keeps the factor's
coordinate below h, and c(a, b) is 1 exactly when the two coordinates
add up to h or more (never, for a dropped Z2).

Let g_0 = 0, g_1, .., g_{n-1} be a harmonious ordering of G: every
element once, and all n cyclic sums g_i + g_{i+1} distinct, so every
element once as a sum.  A candidate is the cyclic walk w = g ++ h of
length 2n, where h = phi(x) + u for an automorphism phi of G, a rotation
x of g or of its reversal, and a translation u.  Then h lists every
element of G once, and its n - 1 inner sums are every element once but
m_h = h_{n-1} + h_0, since x's cyclic sums s are all of G, and so are
the phi(s) + 2u.  g's inner sums are every element but m_g =
g_{n-1}.  The walk's two joins add g_{n-1} + h_0 and h_{n-1} + g_0 =
h_{n-1}, and they are exactly the missing m_g and m_h when h_0 = 0, or
when h_{n-1} = g_{n-1}: the two translations tried.  So w has every
element of G twice and every element of G twice as a sum.

Lift the walk with unknowns e_p in GF(2): a_p = s(w_p) + e_p z.  Then
a_p + a_{p+1} = s(w_p + w_{p+1}) + (c_p + e_p + e_{p+1}) z, with c_p
the carry of that edge.  The a_p are all of A, each once, exactly when
the two places p, q of each element of G get e_p + e_q = 1; and the 2n
cyclic sums are distinct exactly when the two edges i, j with each sum
get e_i + e_{i+1} + e_j + e_{j+1} = 1 + c_i + c_j.  So a solution of
these rows is a harmonious ordering of A, and the rows are all that one
needs.  The element rows are solved outright: with x_v the unknown of
the place of v in g, the place of v in h gets x_v + 1, which leaves one
row per sum over the n unknowns x_v.  Every such row has an even number
of unknowns, so flipping every x_v keeps a solution one, and the one
kept has x_0 = 0: a_0 = s(g_0) = 0, and the ordering starts at 0.

Rows are Python ints, the right-hand side as bit 0 and unknown v as bit
v + 1, eliminated one at a time as each candidate yields them
(``solve``), so a candidate stops at its first inconsistent row.
Candidates come in a fixed order: the automorphisms of
``_automorphisms`` (products of unit scalings and transvections drawn
from a ``random.Random`` with a fixed seed), and for each, the rotations
of g and then of its reversal, each with its two translations.  Only
``constructions._core_order`` imports this module, and only when it
lifts.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from math import gcd

from .groups import Element, GroupSpec, _enumeration, op_tables

#: automorphisms of the quotient a step tries before it gives up
AUTOMORPHISMS = 24
#: elementary scalings and transvections multiplied into each of them
AUTOMORPHISM_STEPS = 8
LIFT_SEED = 1991


def solve(rows: Iterable[int], n: int) -> int | None:
    """A solution of GF(2) rows over n unknowns, or None.

    Each row is an int: bit 0 is the right-hand side, and bit v + 1 the
    coefficient of unknown v.  The rows are reduced as they come, each
    by the pivot rows of its highest bit, so an iterator is read only up
    to its first inconsistent row.  The solution is an int with bit v
    set when unknown v is 1; unknowns no row pins are 0.
    """
    pivots = [0] * (n + 2)
    for row in rows:
        while row > 1:
            pivot = pivots[row.bit_length()]
            if not pivot:
                pivots[row.bit_length()] = row
                break
            row ^= pivot
        if row == 1:
            return None
    # every other unknown of a pivot row is lower than its pivot
    solution = 0
    for b, pivot in enumerate(pivots):
        if pivot and (pivot & (solution | 1)).bit_count() & 1:
            solution |= 1 << (b - 1)
    return solution >> 1


def _automorphisms(spec: GroupSpec) -> Iterator[list[int]]:
    """``AUTOMORPHISMS`` automorphisms of ``spec``, one at a time, as
    permutations of element indices: each a product of
    ``AUTOMORPHISM_STEPS`` steps drawn from a fixed-seed generator.  A
    step scales factor i by a unit, or adds c times coordinate j to
    coordinate i where f_i divides c f_j (a transvection).  The identity
    is left out: its candidates solved no more often than these in
    trials (none of 387 at quotient orders 16 and 20)."""
    factors = spec.factors
    rank, n = len(factors), spec.order
    add = op_tables(spec)[0]
    rng = random.Random(LIFT_SEED)
    for _ in range(AUTOMORPHISMS):
        # images of the unit vectors, as coordinate lists
        images = [[int(i == j) for i in range(rank)] for j in range(rank)]
        for _ in range(AUTOMORPHISM_STEPS):
            i, j = rng.randrange(rank), rng.randrange(rank)
            f = factors[i]
            if i == j:
                unit = rng.randrange(1, f)
                if gcd(unit, f) == 1:
                    for image in images:
                        image[i] = image[i] * unit % f
            elif (common := gcd(f, factors[j])) > 1:
                c = rng.randrange(1, common) * (f // common)
                for image in images:
                    image[i] = (image[i] + c * image[j]) % f
        # the permutation, one factor at a time, the last fastest
        perm = [0]
        for image, f in zip(images, factors):
            at = 0  # the image's element index
            for x, d in zip(image, factors):
                at = at * d + x
            multiples = [0]
            for _ in range(1, f):
                multiples.append(add[multiples[-1] * n + at])
            perm = [add[a * n + b] for a in perm for b in multiples]
        yield perm


def lift(core: GroupSpec, i: int, base: GroupSpec,
         order: tuple[Element, ...]) -> tuple[Element, ...] | None:
    """A harmonious ordering of ``core`` starting at 0, lifted from the
    harmonious ordering ``order`` of ``base`` starting at 0, where
    ``base`` is ``core`` with factor i halved (dropped if it is 2); None
    when no candidate solves.
    """
    n = base.order
    add, neg = op_tables(base)
    half = core.factors[i] // 2
    elements = _enumeration(base)
    index = {a: v for v, a in enumerate(elements)}
    g = [index[a] for a in order]
    last = g[-1]
    # the section's coordinate on factor i, and the index in core of s(v)
    low = [a[i] if half > 1 else 0 for a in elements]
    cut = i + (half > 1)
    where = {a: v for v, a in enumerate(_enumeration(core))}
    section = [where[a[:i] + (x,) + a[cut:]] for a, x in zip(elements, low)]
    zero = core.zero()
    shift = where[zero[:i] + (half,) + zero[i + 1:]]  # the index of z
    # an edge's side of a row: the bits of its ends, with the right-hand
    # side bit set for each end in h (x_v + 1 there) and for its carry
    bit = [2 << v for v in range(n)]
    hbit = [b ^ 1 for b in bit]
    carry = [int(x + y >= half) for x in low for y in low]
    # g's inner edges, by sum, each with the row's 1 already added
    inner = [None] * n
    for a, b in zip(g, g[1:]):
        k = a * n + b
        inner[add[k]] = bit[a] ^ bit[b] ^ carry[k] ^ 1

    def rows(walk: list[int]):
        """One row per sum, from h's edges and the two joins of ``walk``
        = g_{n-1} ++ h ++ g_0, each met with the other edge of its sum."""
        seen = inner[:]
        sides = [bit[last], *map(hbit.__getitem__, walk[1:-1]), bit[0]]
        for a, b, side_a, side_b in zip(walk, walk[1:], sides, sides[1:]):
            k = a * n + b
            side = side_a ^ side_b ^ carry[k]
            other = seen[add[k]]
            if other is None:
                seen[add[k]] = side ^ 1
            else:
                yield other ^ side

    for perm in _automorphisms(base):
        image = [perm[v] for v in g]
        for y in (image, image[::-1]):
            for r in range(n):
                x = y[r:] + y[:r]
                # h_0 = 0, or h_{n-1} = g_{n-1}
                for u in sorted({neg[x[0]], add[last * n + neg[x[-1]]]}):
                    walk = [last, *map(add[u * n:(u + 1) * n].__getitem__,
                                       x), 0]
                    e = solve(rows(walk), n)
                    if e is not None:
                        e ^= (1 << n) - 1 if e & 1 else 0  # x_0 = 0
                        lifted = [section[v] + shift * (e >> v & 1)
                                  for v in g]
                        lifted += [section[v] + shift * (~e >> v & 1)
                                   for v in walk[1:-1]]
                        return tuple(map(_enumeration(core).__getitem__,
                                         lifted))
    return None
