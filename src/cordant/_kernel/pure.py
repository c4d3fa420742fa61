"""Pure Python search kernels.

Reference twin of the compiled kernels in ``_speed.c``: identical
traversal order, pruning rules, memo policy, and node accounting, so the
two backends return identical results (including node counts) and can be
cross-checked against each other.  There are three: one labeling kernel
(``solve_generic``) for paths, cycles and trees alike, ``solve_rstar`` and
``solve_sigma``.

All kernels work on index-encoded instances: group elements are their
positions in the enumeration order, and ``add_t``/``neg_t`` are dense
Cayley tables (``add_t[a * m + b]``, ``neg_t[a]``).

Node accounting: every (slot, label) placement attempt costs one node,
counted before any feasibility check.  A nonnegative ``budget`` makes the
search give up with BUDGET once that many nodes are spent; ``budget = -1``
means unbounded.

Most attempts are rejected, so the labeling kernel decides a label before
changing any state on edge slots (two fed sums: every interior slot of a
path or cycle and every tree-edge slot), and the floor deficits and the
memo key travel down the recursion as arguments, the key updated by each
field's change.  Other slots (the ends of vertex-labeled paths, the
vertices of trees) go through ``place``.
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1
BUDGET = 2

#: Stop inserting dead states beyond this many entries (lookups continue).
MEMO_LIMIT = 1 << 22

#: Dead-state keys must pack into this many bits or memoization is skipped.
MEMO_MAX_BITS = 63


def solve_generic(
    m,
    add_t,
    neg_t,
    num_slots,
    slot_cap,
    slot_floor,
    dcap,
    dfloor,
    num_derived,
    sd_ptr,
    sd_ids,
    comp_ptr,
    comp_ids,
    prefix,
    budget,
):
    """Backtracking search over a slot/derived-sum incidence.

    Derived item ``d`` sums the labels of the slots that feed it: the CSR
    structure ``sd_ptr``/``sd_ids`` lists, per slot, the items it feeds,
    and ``comp_ptr``/``comp_ids`` lists, per slot, the items it completes.
    A slot feeds an item at most once, and an item is completed at most
    once, by the last slot that feeds it.  Class counts of slot labels are
    bounded by ``slot_cap``/``slot_floor`` and those of completed sums by
    ``dcap``/``dfloor``.

    Searches labels in index order at each slot, so the first solution is
    the lexicographically first extension of ``prefix``.  Fully explored
    subtrees are memoized by their state when it packs into 63 bits: the
    next position, the partial sum of every open item (fed by a placed slot
    and completed by a later one), the slot counts and the derived counts.
    Partial sums are restored by saving them, which equals adding
    ``neg_t[x]`` back in a group.
    """
    s = num_slots
    last = s - 1
    assign = [-1] * s
    psum = [0] * num_derived
    scount = [0] * m
    dcount = [0] * m

    remaining_at = [0] * (s + 1)
    for j in range(s - 1, -1, -1):
        remaining_at[j] = remaining_at[j + 1] + (comp_ptr[j + 1] - comp_ptr[j])
    feeds = [tuple(sd_ids[sd_ptr[i]:sd_ptr[i + 1]]) for i in range(s)]
    closes = [tuple(comp_ids[comp_ptr[i]:comp_ptr[i + 1]]) for i in range(s)]
    # Edge slots feed two derived items and complete none, one or both:
    # (the item completed first, or either, the other, completions).
    edges = [None] * s
    for i, (feed, close) in enumerate(zip(feeds, closes)):
        if len(feed) == 2:
            d1, d2 = feed if not close or close[0] == feed[0] else feed[::-1]
            edges[i] = (d1, d2, len(close))

    # The memo key packs, most significant first: the next position, one
    # field per open item, the slot counts and the derived counts.  Open
    # items share fields by greedy interval partitioning: a field is free
    # again once its item completes (one field on paths, two on cycles).
    # No count outgrows its cap's field, so the key is kept current by
    # adding each field's change.
    bits_pos = max(1, s.bit_length())
    bits_lab = max(1, (m - 1).bit_length())
    bits_sc = max(1, (max(slot_cap) if m else 0).bit_length())
    bits_dc = max(1, (max(dcap) if m else 0).bit_length())
    count_bits = m * (bits_sc + bits_dc)
    memo_on = bits_pos + count_bits <= MEMO_MAX_BITS
    if memo_on:
        close_at = [s] * num_derived
        for i, close in enumerate(closes):
            for d in close:
                close_at[d] = i
        field = [-1] * num_derived
        free: list[int] = []
        width = 0
        for i in range(s):
            for d in closes[i]:
                if field[d] >= 0:
                    free.append(field[d])
            for d in feeds[i]:
                if field[d] < 0 and close_at[d] > i:
                    if free:
                        field[d] = free.pop()
                    else:
                        field[d] = width
                        width += 1
        memo_on = bits_pos + width * bits_lab + count_bits <= MEMO_MAX_BITS
    if memo_on:
        dunit = [1 << (bits_dc * (m - 1 - a)) for a in range(m)]
        sunit = [1 << (bits_dc * m + bits_sc * (m - 1 - a)) for a in range(m)]
        pos_unit = 1 << (count_bits + width * bits_lab)
        tables = [[v << (count_bits + f * bits_lab) for v in range(m)]
                  for f in range(width)]
        tables.append([0] * m)  # field -1: items that are never open
        ftab = [tables[f] for f in field]
    dead: set[int] = set()

    def place(i, x, sdef, ddef, t):
        """Apply label ``x`` (within its slot cap) at slot ``i``; return
        the new (sdef, ddef, key), or None with the state unchanged."""
        feed = feeds[i]
        saved = [psum[d] for d in feed]
        for d in feed:
            psum[d] = add_t[psum[d] * m + x]
        done = []
        for d in closes[i]:
            v = psum[d]
            if dcount[v] >= dcap[v]:
                break
            dcount[v] += 1
            if dcount[v] <= dfloor[v]:
                ddef -= 1
            done.append(v)
        else:
            scount[x] += 1
            if scount[x] <= slot_floor[x]:
                sdef -= 1
            if sdef <= s - i - 1 and ddef <= remaining_at[i + 1]:
                assign[i] = x
                if memo_on:
                    t += pos_unit + sunit[x]
                    for d, old in zip(feed, saved):
                        tab = ftab[d]
                        t += tab[psum[d]] - tab[old]
                    for d in closes[i]:
                        v = psum[d]
                        t += dunit[v] - ftab[d][v]
                return sdef, ddef, t
            scount[x] -= 1
        for v in done:
            dcount[v] -= 1
        for d, old in zip(feed, saved):
            psum[d] = old
        return None

    def unplace(i, x, saved):
        scount[x] -= 1
        for d in closes[i]:
            dcount[psum[d]] -= 1
        for d, old in zip(feeds[i], saved):
            psum[d] = old

    limit = budget if budget >= 0 else 1 << 64  # no search gets that far
    stop = EXHAUSTED  # FOUND or BUDGET once the search ends

    def dfs(i, sdef, ddef, t, nodes):
        """Try every label at slot ``i``; return the node count.
        ``sdef``/``ddef`` are the class-floor deficits and ``t`` the memo
        key of the state before slot ``i``.  A label is looked up in the
        memo once it passes every bound, and its key is added once its
        subtree is exhausted; the last slot has no key."""
        nonlocal stop
        if i == s:
            stop = FOUND
            return nodes
        keyed = memo_on and i < last
        edge = edges[i]
        if edge is None:
            saved = [psum[d] for d in feeds[i]]
            for x in range(m):
                if nodes >= limit:
                    stop = BUDGET
                    return nodes
                nodes += 1
                if scount[x] >= slot_cap[x]:
                    continue
                placed = place(i, x, sdef, ddef, t)
                if placed is None:
                    continue
                if keyed:
                    key = placed[2]
                    if key in dead:
                        unplace(i, x, saved)
                        continue
                nodes = dfs(i + 1, *placed, nodes)
                if stop != EXHAUSTED:
                    return nodes
                unplace(i, x, saved)
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
            return nodes
        # an edge slot, tested before any state moves
        d1, d2, nclose = edge
        left = s - i - 1
        rem = remaining_at[i + 1]
        p1 = psum[d1]
        p2 = psum[d2]
        row1, row2 = p1 * m, p2 * m
        key = 0
        if keyed:
            tab1, tab2 = ftab[d1], ftab[d2]
            base = t + pos_unit - tab1[p1] - tab2[p2]
        if nclose == 1:
            # completes d1 and carries d2 on: every interior slot of a path
            # or cycle
            for x in range(m):
                if nodes >= limit:
                    stop = BUDGET
                    return nodes
                nodes += 1
                sc = scount[x]
                if sc >= slot_cap[x]:
                    continue
                v = add_t[row1 + x]
                dv = dcount[v]
                if dv >= dcap[v]:
                    continue
                ns = sdef - 1 if sc < slot_floor[x] else sdef
                nd = ddef - 1 if dv < dfloor[v] else ddef
                if ns > left or nd > rem:
                    continue
                w = add_t[row2 + x]
                if keyed:
                    key = base + sunit[x] + dunit[v] + tab2[w]
                    if key in dead:
                        continue
                scount[x] = sc + 1
                dcount[v] = dv + 1
                psum[d1] = v
                psum[d2] = w
                assign[i] = x
                nodes = dfs(i + 1, ns, nd, key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                scount[x] = sc
                dcount[v] = dv
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
            psum[d1] = p1
            psum[d2] = p2
            return nodes
        for x in range(m):
            if nodes >= limit:
                stop = BUDGET
                return nodes
            nodes += 1
            sc = scount[x]
            if sc >= slot_cap[x]:
                continue
            ns = sdef - 1 if sc < slot_floor[x] else sdef
            if ns > left:
                continue
            v = add_t[row1 + x]
            w = add_t[row2 + x]
            nd = ddef
            if nclose:
                # completes both
                dv = dcount[v]
                if dv >= dcap[v]:
                    continue
                if dv < dfloor[v]:
                    nd -= 1
                dw = dcount[w] + 1 if w == v else dcount[w]
                if dw >= dcap[w]:
                    continue
                if dw < dfloor[w]:
                    nd -= 1
            if nd > rem:
                continue
            if keyed:
                key = base + sunit[x] + (dunit[v] + dunit[w] if nclose
                                         else tab1[v] + tab2[w])
                if key in dead:
                    continue
            if nclose:
                dcount[v] = dv + 1
                dcount[w] = dw + 1
            psum[d1] = v
            psum[d2] = w
            scount[x] = sc + 1
            assign[i] = x
            nodes = dfs(i + 1, ns, nd, key, nodes)
            if stop != EXHAUSTED:
                return nodes
            scount[x] = sc
            if nclose:
                dcount[w] = dw
                dcount[v] = dv
            if keyed and len(dead) < MEMO_LIMIT:
                dead.add(key)
        psum[d1] = p1
        psum[d2] = p2
        return nodes

    p = len(prefix)
    if p > s:
        raise ValueError("prefix longer than the slot list")
    state = (sum(slot_floor), sum(dfloor), 0)
    for i in range(p):
        x = prefix[i]
        if scount[x] >= slot_cap[x]:
            return (EXHAUSTED, None, 0)
        state = place(i, x, *state)
        if state is None:
            return (EXHAUSTED, None, 0)
    nodes = dfs(p, *state, 0)
    if stop == FOUND:
        return (FOUND, list(assign), nodes)
    return (stop, None, nodes)


#: ``perfbench/spans.py`` wraps the kernels by name, this one included, so
#: the old name of the path and cycle kernel stays as an alias.
solve_chain = solve_generic


def solve_rstar(m, add_t, neg_t, prefix, budget):
    """Search for an ordering of the nonzero elements whose cyclic
    consecutive differences are pairwise distinct and which contains a
    position equal to the sum of its two cyclic neighbours.

    Returns ``(status, sequence, star_index, nodes)`` where ``star_index``
    is the first qualifying position (cyclic) of the found sequence.
    """
    length = m - 1
    seq = [-1] * length
    used = bytearray(m)
    dused = bytearray(m)
    nodes = 0
    star_at = -1

    def dfs(i):
        nonlocal nodes, star_at
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
        for x in range(1, m):
            if budget >= 0 and nodes >= budget:
                return BUDGET
            nodes += 1
            if used[x]:
                continue
            d = -1
            if i >= 1:
                d = add_t[x * m + neg_t[seq[i - 1]]]
                if dused[d]:
                    continue
                dused[d] = 1
            used[x] = 1
            seq[i] = x
            r = dfs(i + 1)
            if r == FOUND:
                return FOUND
            used[x] = 0
            seq[i] = -1
            if d >= 0:
                dused[d] = 0
            if r == BUDGET:
                return BUDGET
        return EXHAUSTED

    p = len(prefix)
    if p > length:
        raise ValueError("prefix longer than the sequence")
    for i in range(p):
        x = prefix[i]
        if x < 1 or x >= m or used[x]:
            return (EXHAUSTED, None, -1, 0)
        if i >= 1:
            d = add_t[x * m + neg_t[seq[i - 1]]]
            if dused[d]:
                return (EXHAUSTED, None, -1, 0)
            dused[d] = 1
        used[x] = 1
        seq[i] = x
    status = dfs(p)
    if status == FOUND:
        return (FOUND, list(seq), star_at, nodes)
    return (status, None, -1, nodes)


def solve_sigma(m, add_t, budget):
    """Exhaustive branch-and-bound for the most distinct cyclic pair sums.

    Walks every ordering of the elements that starts at 0 (mirror images
    skipped by requiring the second element below the last), tracking the
    number of distinct consecutive-pair sums, and keeps the first ordering
    that attains the final maximum.  Returns ``(status, value, cycle,
    nodes)``; status is FOUND when the space was fully explored and BUDGET
    when the node budget ran out (value is then only a lower bound).
    """
    if m == 2:
        return (FOUND, 1, [0, 1], 0)
    order = [0] * m
    used = bytearray(m)
    used[0] = 1
    scount = [0] * m
    nodes = 0
    best = 0
    best_cycle = None
    distinct = 0

    def dfs(i):
        nonlocal nodes, best, best_cycle, distinct
        if i == m:
            s_close = add_t[order[m - 1] * m + order[0]]
            d = distinct + (0 if scount[s_close] else 1)
            if d > best:
                best = d
                best_cycle = list(order)
            return EXHAUSTED
        for x in range(1, m):
            if budget >= 0 and nodes >= budget:
                return BUDGET
            nodes += 1
            if used[x]:
                continue
            if i == m - 1 and x < order[1]:
                continue
            s_new = add_t[order[i - 1] * m + x]
            nd = distinct + (0 if scount[s_new] else 1)
            if nd + (m - i) <= best:
                continue
            used[x] = 1
            order[i] = x
            scount[s_new] += 1
            saved = distinct
            distinct = nd
            r = dfs(i + 1)
            scount[s_new] -= 1
            distinct = saved
            used[x] = 0
            if r == BUDGET:
                return BUDGET
        return EXHAUSTED

    status = dfs(1)
    final = FOUND if status == EXHAUSTED else BUDGET
    return (final, best, best_cycle, nodes)
