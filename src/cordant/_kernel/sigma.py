"""The pure sigma-max kernel, ``solve_sigma`` (see ``pure``)."""

from __future__ import annotations

from .pure import BUDGET, EXHAUSTED, FOUND, _allowed


def solve_sigma(m, add_t, budget, table=None):
    """Exhaustive branch-and-bound for the most distinct cyclic pair sums.

    Walks every ordering of the elements that starts at 0 (mirror images
    skipped by requiring the second element below the last), tracking the
    number of distinct consecutive-pair sums, and keeps the first ordering
    that attains the final maximum.  Returns ``(status, value, cycle,
    nodes)``; status is FOUND when the space was fully explored and BUDGET
    when the node budget ran out (value is then only a lower bound).

    ``table`` (None: off) prunes as in ``solve_generic``, from the state
    after the pinned 0.  An automorphism g keeps the number of distinct
    sums.  Let W be the first maximal ordering walked and g fix its first
    k elements.  If g(W) is walked it is not before W, so W[k] <= g(W[k]).
    Otherwise its mirror is, beginning 0, g(W[m-1]) < g(W[1]): for k = 1
    that puts the mirror before W unless W[1] < g(W[1]), and for k >= 2,
    where g(W[1]) = W[1], always.  So W[k] is least in its orbit.
    """
    if m == 2:
        return (FOUND, 1, [0, 1], 0)
    order = [0] * m
    scount = [0] * m
    limit = budget if budget >= 0 else 1 << 64
    nodes = 0
    best = 0
    best_cycle = None
    distinct = 0
    # the labels not yet in the order, linked as in solve_rstar
    nxt = [*range(1, m), 0]
    prv = [m - 1, *range(m - 1)]
    # symmetry states, as in solve_generic; 0 is fixed in state 0
    marks, succ = table if table is not None else (None, None)
    at = [-1] * (m + 1)
    top = 1
    if table is not None:
        at[1] = succ[0]

    def dfs(i):
        nonlocal nodes, best, best_cycle, distinct, top
        if i == m:
            s_close = add_t[order[m - 1] * m + order[0]]
            d = distinct + (0 if scount[s_close] else 1)
            if d > best:
                best = d
                best_cycle = list(order)
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
            if i == m - 1 and x < order[1]:
                continue
            s_new = add_t[order[i - 1] * m + x]
            nd = distinct + (0 if scount[s_new] else 1)
            if nd + (m - i) <= best:
                continue
            nxt[prv[x]] = nxt[x]
            prv[nxt[x]] = prv[x]
            order[i] = x
            scount[s_new] += 1
            saved = distinct
            distinct = nd
            if walk is not nxt:
                at[i + 1] = succ[row + x]
                top = i + 1
            r = dfs(i + 1)
            scount[s_new] -= 1
            distinct = saved
            nxt[prv[x]] = x
            prv[nxt[x]] = x
            if r == BUDGET:
                return BUDGET
        nodes += m - 1 - prev
        if nodes > limit:
            nodes = limit
            return BUDGET
        return EXHAUSTED

    status = dfs(1)
    final = FOUND if status == EXHAUSTED else BUDGET
    return (final, best, best_cycle, nodes)
