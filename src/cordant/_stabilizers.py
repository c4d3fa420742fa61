"""Automorphism orbits and the stabilizer tables the searches prune by.

Per group, ``automorphism_orbit_keys`` tells which elements some
automorphism maps onto one another, and ``stabilizer_table`` gives the
orbits of the automorphisms fixing the labels a search has placed so far,
in the form every kernel takes as its ``table`` argument.  Only the
search modules (``search`` and ``_orderings``) import this one, so the
commands that never search do not compile it.
"""

from __future__ import annotations

from .groups import GroupSpec, _prime_power_parts, op_tables


_orbit_cache: dict[tuple[int, ...], tuple[tuple, ...]] = {}


def automorphism_orbit_keys(spec: GroupSpec) -> tuple[tuple, ...]:
    """Per element index, a key that two elements share exactly when some
    automorphism of the group maps one onto the other.

    An automorphism acts on each p-primary part on its own, and two
    elements of a finite Abelian p-group lie in one orbit exactly when
    x, px, p^2 x, ... have the same heights (their Ulm sequences agree;
    Kaplansky, "Infinite Abelian Groups").  The p-height of x is that of
    its p-part, so the key holds, per prime, the p-heights of x, px, ...
    up to the first multiple with p-part 0, read off the Cayley table
    (see ``_heights``).  Cached per presentation.

    >>> automorphism_orbit_keys(GroupSpec((4,)))
    (((),), ((0, 1),), ((1,),), ((0, 1),))
    """
    key = spec.factors
    cached = _orbit_cache.get(key)
    if cached is not None:
        return cached
    heights = _heights(spec, op_tables(spec)[0])
    keys = []
    for x in range(spec.order):
        per_prime = []
        for _, times, height in heights:
            # the elements with p-part 0 share the height of 0
            ulm, y = [], x
            while height[y] != height[0]:
                ulm.append(height[y])
                y = times[y]
            per_prime.append(tuple(ulm))
        keys.append(tuple(per_prime))
    out = tuple(keys)
    _orbit_cache[key] = out
    return out


#: Groups up to this order get a stabilizer state below the root; above it
#: the table holds Aut(A) alone (building it grows steeply with the order).
STABILIZER_CAP = 64

_stabilizer_cache: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}


def stabilizer_table(spec: GroupSpec) -> tuple[list[int], list[int]]:
    """Orbits of the pointwise stabilizers met by a search that places
    orbit-least elements one after another, as ``(marks, succ)``.

    A state ``s`` stands for a subgroup H_s and the automorphisms fixing
    every element of it, Stab(H_s); state 0 is H = {0}, so Aut(A).  Per
    element x, ``marks[s * m + x]`` is 0 when x is not least in its
    Stab(H_s) orbit, 1 when it is and is moved, 2 when Stab(H_s) fixes it;
    ``succ[s * m + x]`` is the state after x: itself for a fixed x, the
    state of <H_s, x> for a moved least x (-1 once its stabilizer is
    trivial), and -1 for an x that is not least.  States are told apart
    by the elements their stabilizer fixes.  Above ``STABILIZER_CAP`` the
    table has state 0 alone.  Cached per presentation.

    Two elements y, z share a Stab(H) orbit exactly when h + k y -> h + k z
    is a well-defined map (y and z have one order k0 modulo H and
    k0 y = k0 z) that keeps every element's p-height, for every prime p:
    the extension lemma of Kaplansky and Mackey from the proof of Ulm's
    theorem.  Multiplying by a unit keeps p-heights, so the elements
    h + p^i y are enough.
    """
    key = spec.factors
    cached = _stabilizer_cache.get(key)
    if cached is not None:
        return cached
    m = spec.order
    keys = automorphism_orbit_keys(spec)
    classes: dict = {}
    for x, k in enumerate(keys):
        classes.setdefault(k, []).append(x)
    marks = [0] * m
    for x, *rest in classes.values():
        marks[x] = 1 if rest else 2
    moves: dict[int, int] = {}
    if m <= STABILIZER_CAP and 1 in marks:
        add_t = op_tables(spec)[0]
        heights = _heights(spec, add_t)
        states = {frozenset(x for x in range(m) if marks[x] == 2): 0}
        s = 0
        while s * m < len(marks):
            row = marks[s * m:(s + 1) * m]
            fixed = [x for x in range(m) if row[x] == 2]
            for x in range(m):
                if row[x] != 1:
                    continue
                sub = {add_t[h * m + y] for h in fixed
                       for y in _multiples(add_t, m, x)}
                new = _stabilizer_marks(m, add_t, heights, keys, sorted(sub))
                if 1 not in new:
                    continue
                state = frozenset(y for y in range(m) if new[y] == 2)
                t = states.get(state)
                if t is None:
                    t = states[state] = len(states)
                    marks += new
                moves[s * m + x] = t
            s += 1
    # a fixed label keeps its state
    succ = [moves.get(i, i // m if mark == 2 else -1)
            for i, mark in enumerate(marks)]
    out = (marks, succ)
    _stabilizer_cache[key] = out
    return out


def _multiples(add_t, m: int, x: int) -> list[int]:
    """0, x, 2x, ... up to the last before the cycle returns to 0."""
    out = [0]
    y = x
    while y:
        out.append(y)
        y = add_t[y * m + x]
    return out


def _heights(spec: GroupSpec, add_t) -> list[tuple[int, list, list]]:
    """Per prime p of the order, with p^e its power in the order: e, each
    element times p, and each element's p-height, 0's above every other."""
    m = spec.order
    out = []
    for p, e in _prime_power_parts(m):
        times = [0] * m
        for x in range(m):
            y = 0
            for _ in range(p):
                y = add_t[y * m + x]
            times[x] = y
        # p^j A shrinks until it is the elements with p-part 0
        height = [0] * m
        level = set(range(m))
        j = 0
        while True:
            below = {times[x] for x in level}
            j += 1
            for x in below:
                height[x] = j
            if len(below) == len(level):
                break
            level = below
        out.append((e, times, height))
    return out


def _stabilizer_marks(m: int, add_t, heights, keys,
                      sub: list[int]) -> list[int]:
    """Per element, 0, 1 or 2 as in ``stabilizer_table``, for the
    automorphisms fixing every element of the subgroup ``sub``."""
    inside = bytearray(m)
    for h in sub:
        inside[h] = 1

    def same_orbit(y, z):
        # y and z have one order k0 modulo sub and k0 y = k0 z, so from the
        # first p^i y in sub on, p^i y = p^i z; from p^e y on the p-parts
        # are 0
        for e, times, height in heights:
            a, b = y, z
            for _ in range(e):
                if inside[a] or a == b:
                    break
                for h in sub:
                    if height[add_t[h * m + a]] != height[add_t[h * m + b]]:
                        return False
                a, b = times[a], times[b]
        return True

    marks = [0] * m
    reps: dict = {}
    for y in range(m):
        k, v = 1, y
        while not inside[v]:
            v = add_t[v * m + y]
            k += 1
        bucket = reps.setdefault((k, v, keys[y]), [])
        for z in bucket:
            if same_orbit(y, z):
                marks[z] = 1
                break
        else:
            bucket.append(y)
            marks[y] = 2
    return marks
