"""Pure Python search kernels.

Reference twin of the compiled kernels in ``_speed.c``: identical
traversal order, pruning rules, memo policy, and node accounting, so the
two backends return identical results (including node counts) and can be
cross-checked against each other.

All kernels work on index-encoded instances: group elements are their
positions in the enumeration order, and ``add_t``/``neg_t`` are dense
Cayley tables (``add_t[a * m + b]``, ``neg_t[a]``).

Node accounting: every (slot, label) placement attempt costs one node,
counted before any feasibility check.  A nonnegative ``budget`` makes the
search give up with BUDGET once that many nodes are spent; ``budget = -1``
means unbounded.

Most attempts are rejected, so the chain and generic kernels decide a
label before changing any state: interior chain slots (one derived sum)
and edge slots of the generic kernel (two fed sums) are tested inline,
and the floor deficits and the chain's memo key travel down the recursion
as arguments, the key updated by one unit per count change.  The first
and last chain slots and other generic slots go through ``place``.
"""

from __future__ import annotations

FOUND = 0
EXHAUSTED = 1
BUDGET = 2

#: Stop inserting dead states beyond this many entries (lookups continue).
MEMO_LIMIT = 1 << 22

#: Dead-state keys must pack into this many bits or memoization is skipped.
MEMO_MAX_BITS = 63


def solve_chain(
    m,
    add_t,
    num_slots,
    slot_cap,
    slot_floor,
    dcap,
    dfloor,
    start_singleton,
    end_singleton,
    cyclic,
    prefix,
    budget,
):
    """Backtracking search over a path or cycle of slots.

    Slots sit along a path (or around a cycle when ``cyclic``).  Derived
    sums are formed by every adjacent slot pair, plus the first and last
    slot alone when the singleton flags are set, plus the closing pair
    when ``cyclic``.  Class counts of slot labels are bounded by
    ``slot_cap``/``slot_floor`` and derived sums by ``dcap``/``dfloor``.

    Searches labels in index order at each slot, so the first solution is
    the lexicographically first extension of ``prefix``.  Fully explored
    subtrees are memoized by their packed state (position, previous label,
    first label on cycles, and both count vectors) when that fits 63 bits.
    """
    s = num_slots
    if s < 1:
        raise ValueError("chain instances need at least one slot")
    if cyclic and (start_singleton or end_singleton or s < 3):
        raise ValueError("cyclic chains exclude singletons and need 3+ slots")

    last = s - 1
    assign = [-1] * s
    scount = [0] * m
    dcount = [0] * m

    total_derived = (s - 1) + int(start_singleton) + int(end_singleton) + int(cyclic)
    remaining_at = [0] * (s + 1)
    for j in range(s + 1):
        done = max(0, j - 1)
        if start_singleton and j >= 1:
            done += 1
        if j == s:
            done += int(end_singleton) + int(cyclic)
        remaining_at[j] = total_derived - done

    bits_pos = max(1, s.bit_length())
    bits_lab = max(1, (m - 1).bit_length())
    bits_sc = max(1, (max(slot_cap) if m else 0).bit_length())
    bits_dc = max(1, (max(dcap) if m else 0).bit_length())
    total_bits = (
        bits_pos + bits_lab + (bits_lab if cyclic else 0) + m * (bits_sc + bits_dc)
    )
    memo_on = total_bits <= MEMO_MAX_BITS
    dead: set[int] = set()
    # The memo key packs, most significant first: the next position, the
    # previous label, the first label (cycles), the slot counts and the
    # derived counts.  No count outgrows its cap's field, so a count change
    # moves the key by that field's unit and the key is kept up to date
    # incrementally.  ``t`` below is the key less its position and
    # previous-label fields.
    if memo_on:
        dunit = [1 << (bits_dc * (m - 1 - a)) for a in range(m)]
        sunit = [1 << (bits_dc * m + bits_sc * (m - 1 - a)) for a in range(m)]
        first_shift = m * (bits_sc + bits_dc)
        prev_shift = first_shift + (bits_lab if cyclic else 0)
        pos_shift = prev_shift + bits_lab
        prev_part = [x << prev_shift for x in range(m)]

    def count_key():
        t = assign[0] << first_shift if cyclic else 0
        for a in range(m):
            t += scount[a] * sunit[a] + dcount[a] * dunit[a]
        return t

    def derived_sums(i, x, prev):
        """Derived sums label ``x`` completes at slot ``i``."""
        comps = []
        if i:
            comps.append(add_t[prev * m + x])
        elif start_singleton:
            comps.append(x)
        if i == last:
            if cyclic:
                comps.append(add_t[x * m + assign[0]])
            if end_singleton:
                comps.append(x)
        return comps

    def place(i, x, comps, sdef, ddef):
        """Apply label ``x`` (within its slot cap) at slot ``i``; return
        the new (sdef, ddef), or None with the state unchanged."""
        for k, c in enumerate(comps):
            if dcount[c] >= dcap[c]:
                for c in comps[:k]:
                    dcount[c] -= 1
                return None
            dcount[c] += 1
            if dcount[c] <= dfloor[c]:
                ddef -= 1
        scount[x] += 1
        if scount[x] <= slot_floor[x]:
            sdef -= 1
        if sdef > s - i - 1 or ddef > remaining_at[i + 1]:
            unplace(x, comps)
            return None
        assign[i] = x
        return sdef, ddef

    def unplace(x, comps):
        scount[x] -= 1
        for c in comps:
            dcount[c] -= 1

    limit = budget if budget >= 0 else 1 << 64  # no search gets that far
    stop = EXHAUSTED  # FOUND or BUDGET once the search ends

    def dfs(i, prev, sdef, ddef, t, nodes):
        """Try every label at slot ``i`` after ``prev``; return the node
        count.  ``sdef``/``ddef`` are the class-floor deficits."""
        nonlocal stop
        if i == s:
            stop = FOUND
            return nodes
        left = s - i - 1
        rem = remaining_at[i + 1]
        if 0 < i < last:
            # interior slot: one derived sum, tested before any state moves
            row = prev * m
            if memo_on:
                at = (i + 1) << pos_shift
            for x in range(m):
                if nodes >= limit:
                    stop = BUDGET
                    return nodes
                nodes += 1
                sc = scount[x]
                if sc >= slot_cap[x]:
                    continue
                c = add_t[row + x]
                dc = dcount[c]
                if dc >= dcap[c]:
                    continue
                ns = sdef - 1 if sc < slot_floor[x] else sdef
                nd = ddef - 1 if dc < dfloor[c] else ddef
                if ns > left or nd > rem:
                    continue
                if memo_on:
                    nt = t + sunit[x] + dunit[c]
                    key = at + prev_part[x] + nt
                    if key in dead:
                        continue
                else:
                    nt = 0
                scount[x] = sc + 1
                dcount[c] = dc + 1
                assign[i] = x
                nodes = dfs(i + 1, x, ns, nd, nt, nodes)
                if stop != EXHAUSTED:
                    return nodes
                scount[x] = sc
                dcount[c] = dc
                if memo_on and len(dead) < MEMO_LIMIT:
                    dead.add(key)
            return nodes
        # first or last slot: singletons and the closing pair
        keyed = memo_on and i < last
        for x in range(m):
            if nodes >= limit:
                stop = BUDGET
                return nodes
            nodes += 1
            if scount[x] >= slot_cap[x]:
                continue
            comps = derived_sums(i, x, prev)
            deficits = place(i, x, comps, sdef, ddef)
            if deficits is None:
                continue
            nt = 0
            if keyed:
                nt = count_key()
                key = ((i + 1) << pos_shift) + prev_part[x] + nt
                if key in dead:
                    unplace(x, comps)
                    continue
            nodes = dfs(i + 1, x, *deficits, nt, nodes)
            if stop != EXHAUSTED:
                return nodes
            unplace(x, comps)
            if keyed and len(dead) < MEMO_LIMIT:
                dead.add(key)
        return nodes

    p = len(prefix)
    if p > s:
        raise ValueError("prefix longer than the slot list")
    deficits = (sum(slot_floor), sum(dfloor))
    prev = -1
    for i in range(p):
        x = prefix[i]
        if scount[x] >= slot_cap[x]:
            return (EXHAUSTED, None, 0)
        deficits = place(i, x, derived_sums(i, x, prev), *deficits)
        if deficits is None:
            return (EXHAUSTED, None, 0)
        prev = x
    t = count_key() if memo_on and p else 0
    nodes = dfs(p, prev, *deficits, t, 0)
    if stop == FOUND:
        return (FOUND, list(assign), nodes)
    return (stop, None, nodes)


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
    """Backtracking search over an arbitrary slot/derived-sum incidence.

    Derived item ``d`` sums the labels of the slots listed in the CSR
    structure ``sd_ptr``/``sd_ids`` transposed; ``sd_ptr`` indexes by slot
    (the derived items each slot feeds into) and ``comp_ptr``/``comp_ids``
    lists, per slot, the derived items whose last member it is.  Caps,
    floors, ordering, and node accounting match :func:`solve_chain`; no
    memoization is attempted.  Partial sums are restored by saving them,
    which equals adding ``neg_t[x]`` back in a group.
    """
    s = num_slots
    assign = [-1] * s
    psum = [0] * num_derived
    scount = [0] * m
    dcount = [0] * m

    remaining_at = [0] * (s + 1)
    for j in range(s - 1, -1, -1):
        remaining_at[j] = remaining_at[j + 1] + (comp_ptr[j + 1] - comp_ptr[j])
    feeds = [tuple(sd_ids[sd_ptr[i]:sd_ptr[i + 1]]) for i in range(s)]
    closes = [tuple(comp_ids[comp_ptr[i]:comp_ptr[i + 1]]) for i in range(s)]
    # Edge slots feed two distinct derived items and complete none, one or
    # both: (the item completed first, or either, the other, completions).
    edges = [None] * s
    for i, (feed, close) in enumerate(zip(feeds, closes)):
        if len(set(feed)) == len(feed) == 2 and len(set(close)) == len(close) \
                and set(close) <= set(feed):
            d1, d2 = feed if not close or close[0] == feed[0] else feed[::-1]
            edges[i] = (d1, d2, len(close))

    def place(i, x, sdef, ddef):
        """Apply label ``x`` (within its slot cap) at slot ``i``; return
        the new (sdef, ddef), or None with the state unchanged."""
        saved = [psum[d] for d in feeds[i]]
        for d in feeds[i]:
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
                return sdef, ddef
            scount[x] -= 1
        for v in done:
            dcount[v] -= 1
        for d, old in zip(feeds[i], saved):
            psum[d] = old
        return None

    def unplace(i, x):
        scount[x] -= 1
        for d in closes[i]:
            dcount[psum[d]] -= 1

    limit = budget if budget >= 0 else 1 << 64  # no search gets that far
    stop = EXHAUSTED  # FOUND or BUDGET once the search ends

    def dfs(i, sdef, ddef, nodes):
        """Try every label at slot ``i``; return the node count.
        ``sdef``/``ddef`` are the class-floor deficits."""
        nonlocal stop
        if i == s:
            stop = FOUND
            return nodes
        edge = edges[i]
        if edge is None:
            feed = feeds[i]
            saved = [psum[d] for d in feed]
            for x in range(m):
                if nodes >= limit:
                    stop = BUDGET
                    return nodes
                nodes += 1
                if scount[x] >= slot_cap[x]:
                    continue
                deficits = place(i, x, sdef, ddef)
                if deficits is None:
                    continue
                nodes = dfs(i + 1, *deficits, nodes)
                if stop != EXHAUSTED:
                    return nodes
                unplace(i, x)
                for d, old in zip(feed, saved):
                    psum[d] = old
            return nodes
        # an edge slot, tested before any state moves
        d1, d2, nclose = edge
        left = s - i - 1
        rem = remaining_at[i + 1]
        p1 = psum[d1]
        p2 = psum[d2]
        row1, row2 = p1 * m, p2 * m
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
                dv = dcount[v]
                if dv >= dcap[v]:
                    continue
                if dv < dfloor[v]:
                    nd -= 1
                if nclose == 2:
                    dw = dcount[w] + 1 if w == v else dcount[w]
                    if dw >= dcap[w]:
                        continue
                    if dw < dfloor[w]:
                        nd -= 1
            if nd > rem:
                continue
            if nclose:
                dcount[v] = dv + 1
                if nclose == 2:
                    dcount[w] = dw + 1
            psum[d1] = v
            psum[d2] = w
            scount[x] = sc + 1
            assign[i] = x
            nodes = dfs(i + 1, ns, nd, nodes)
            if stop != EXHAUSTED:
                return nodes
            scount[x] = sc
            if nclose:
                if nclose == 2:
                    dcount[w] = dw
                dcount[v] = dv
            psum[d1] = p1
            psum[d2] = p2
        return nodes

    p = len(prefix)
    if p > s:
        raise ValueError("prefix longer than the slot list")
    deficits = (sum(slot_floor), sum(dfloor))
    for i in range(p):
        x = prefix[i]
        if scount[x] >= slot_cap[x]:
            return (EXHAUSTED, None, 0)
        deficits = place(i, x, *deficits)
        if deficits is None:
            return (EXHAUSTED, None, 0)
    nodes = dfs(p, *deficits, 0)
    if stop == FOUND:
        return (FOUND, list(assign), nodes)
    return (stop, None, nodes)


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
