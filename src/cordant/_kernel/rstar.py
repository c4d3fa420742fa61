"""The pure R*-sequence kernel, ``solve_rstar`` (see ``pure``)."""

from __future__ import annotations

from .pure import BUDGET, EXHAUSTED, FOUND, _allowed


def solve_rstar(m, add_t, neg_t, budget, table=None):
    """Search for an ordering of the nonzero elements whose cyclic
    consecutive differences are pairwise distinct and which contains a
    position equal to the sum of its two cyclic neighbours.

    Only orderings beginning with element 1 are searched: every rotation
    of such an ordering is one, so the lex-first one begins with it, and
    the 1 is pinned at position 0 as ``solve_sigma`` pins 0.  Returns
    ``(status, sequence, star_index, nodes)`` where ``star_index`` is the
    first qualifying position (cyclic) of the found sequence.  ``table``
    (None: off) prunes as in ``solve_generic``, from the state after the
    pinned 1: every automorphism maps such an ordering to one.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    length = m - 1
    seq = [-1] * length
    seq[0] = 1
    dused = bytearray(m)
    limit = budget if budget >= 0 else 1 << 64
    nodes = 0
    star_at = -1
    marks, succ = table if table is not None else (None, None)
    at = [-1] * (length + 1)  # symmetry states, as in solve_generic
    if table is not None:
        at[1] = succ[1]
    top = 1
    # the labels other than the 1, linked as in solve_generic; 0 is the
    # sentinel
    nxt = [0] * m
    prv = [0] * m
    tail = 0
    for x in range(2, m):
        nxt[tail] = x
        prv[x] = tail
        tail = x
    nxt[tail] = 0
    prv[0] = tail

    def dfs(i):
        nonlocal nodes, star_at, top
        if i == length:
            d0 = add_t[seq[0] * m + neg_t[seq[length - 1]]]
            if dused[d0]:
                return EXHAUSTED
            for idx in range(length):
                a = seq[(idx - 1) % length]
                b = seq[(idx + 1) % length]
                if add_t[a * m + b] == seq[idx]:
                    star_at = idx
                    return FOUND
            return EXHAUSTED
        walk = nxt
        if i <= top and at[i] >= 0:
            row = at[i] * m
            walk = _allowed(nxt, 0, marks, row)
        x = prev = 0
        while True:
            x = walk[x]
            if not x:
                break
            nodes += x - prev
            if nodes > limit:
                nodes = limit
                return BUDGET
            prev = x
            d = add_t[x * m + neg_t[seq[i - 1]]]
            if dused[d]:
                continue
            dused[d] = 1
            nxt[prv[x]] = nxt[x]
            prv[nxt[x]] = prv[x]
            seq[i] = x
            if walk is not nxt:
                at[i + 1] = succ[row + x]
                top = i + 1
            r = dfs(i + 1)
            if r == FOUND:
                return FOUND
            nxt[prv[x]] = x
            prv[nxt[x]] = x
            seq[i] = -1
            dused[d] = 0
            if r == BUDGET:
                return BUDGET
        nodes += m - 1 - prev
        if nodes > limit:
            nodes = limit
            return BUDGET
        return EXHAUSTED

    status = dfs(1)
    if status == FOUND:
        return (FOUND, list(seq), star_at, nodes)
    return (status, None, -1, nodes)
