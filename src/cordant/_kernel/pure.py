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

    assign = [-1] * s
    scount = [0] * m
    dcount = [0] * m
    sdef = sum(slot_floor)
    ddef = sum(dfloor)
    comp_buf = [[0, 0] for _ in range(s)]
    ncomp = [0] * s

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
    memo_entries = 0

    def pack(j, prev):
        key = j
        key = (key << bits_lab) | prev
        if cyclic:
            key = (key << bits_lab) | assign[0]
        for a in range(m):
            key = (key << bits_sc) | scount[a]
        for a in range(m):
            key = (key << bits_dc) | dcount[a]
        return key

    def place(i, x):
        """Apply label x at slot i; return completion count, or -1 if rejected."""
        nonlocal sdef, ddef
        if scount[x] >= slot_cap[x]:
            return -1
        comps = comp_buf[i]
        n = 0
        if i == 0:
            if start_singleton:
                comps[0] = x
                n = 1
        else:
            comps[0] = add_t[assign[i - 1] * m + x]
            n = 1
        if i == s - 1:
            if cyclic:
                comps[n] = add_t[x * m + assign[0]]
                n += 1
            if end_singleton:
                comps[n] = x
                n += 1
        applied = 0
        for t in range(n):
            c = comps[t]
            if dcount[c] >= dcap[c]:
                break
            dcount[c] += 1
            if dcount[c] <= dfloor[c]:
                ddef -= 1
            applied += 1
        if applied < n:
            for t in range(applied - 1, -1, -1):
                c = comps[t]
                if dcount[c] <= dfloor[c]:
                    ddef += 1
                dcount[c] -= 1
            return -1
        scount[x] += 1
        if scount[x] <= slot_floor[x]:
            sdef -= 1
        assign[i] = x
        ncomp[i] = n
        if sdef > s - i - 1 or ddef > remaining_at[i + 1]:
            unplace(i, x)
            return -1
        return n

    def unplace(i, x):
        nonlocal sdef, ddef
        if scount[x] <= slot_floor[x]:
            sdef += 1
        scount[x] -= 1
        assign[i] = -1
        comps = comp_buf[i]
        for t in range(ncomp[i] - 1, -1, -1):
            c = comps[t]
            if dcount[c] <= dfloor[c]:
                ddef += 1
            dcount[c] -= 1

    nodes = 0

    def dfs(i):
        nonlocal nodes, memo_entries
        if i == s:
            return FOUND
        for x in range(m):
            if budget >= 0 and nodes >= budget:
                return BUDGET
            nodes += 1
            if place(i, x) < 0:
                continue
            key = -1
            if memo_on and i + 1 < s:
                key = pack(i + 1, x)
                if key in dead:
                    unplace(i, x)
                    continue
            r = dfs(i + 1)
            if r == FOUND:
                return FOUND
            unplace(i, x)
            if r == BUDGET:
                return BUDGET
            if key >= 0 and memo_entries < MEMO_LIMIT:
                dead.add(key)
                memo_entries += 1
        return EXHAUSTED

    p = len(prefix)
    if p > s:
        raise ValueError("prefix longer than the slot list")
    for i in range(p):
        if place(i, prefix[i]) < 0:
            return (EXHAUSTED, None, 0)
    status = dfs(p)
    if status == FOUND:
        return (FOUND, list(assign), nodes)
    return (status, None, nodes)


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
    memoization is attempted.
    """
    s = num_slots
    assign = [-1] * s
    psum = [0] * num_derived
    scount = [0] * m
    dcount = [0] * m
    sdef = sum(slot_floor)
    ddef = sum(dfloor)

    remaining_at = [0] * (s + 1)
    for j in range(s - 1, -1, -1):
        remaining_at[j] = remaining_at[j + 1] + (comp_ptr[j + 1] - comp_ptr[j])

    def place(i, x):
        nonlocal sdef, ddef
        if scount[x] >= slot_cap[x]:
            return False
        for t in range(sd_ptr[i], sd_ptr[i + 1]):
            d = sd_ids[t]
            psum[d] = add_t[psum[d] * m + x]
        applied = comp_ptr[i]
        ok = True
        for t in range(comp_ptr[i], comp_ptr[i + 1]):
            v = psum[comp_ids[t]]
            if dcount[v] >= dcap[v]:
                ok = False
                break
            dcount[v] += 1
            if dcount[v] <= dfloor[v]:
                ddef -= 1
            applied = t + 1
        if not ok:
            for t in range(applied - 1, comp_ptr[i] - 1, -1):
                v = psum[comp_ids[t]]
                if dcount[v] <= dfloor[v]:
                    ddef += 1
                dcount[v] -= 1
            for t in range(sd_ptr[i + 1] - 1, sd_ptr[i] - 1, -1):
                d = sd_ids[t]
                psum[d] = add_t[psum[d] * m + neg_t[x]]
            return False
        scount[x] += 1
        if scount[x] <= slot_floor[x]:
            sdef -= 1
        assign[i] = x
        if sdef > s - i - 1 or ddef > remaining_at[i + 1]:
            unplace(i, x)
            return False
        return True

    def unplace(i, x):
        nonlocal sdef, ddef
        if scount[x] <= slot_floor[x]:
            sdef += 1
        scount[x] -= 1
        assign[i] = -1
        for t in range(comp_ptr[i + 1] - 1, comp_ptr[i] - 1, -1):
            v = psum[comp_ids[t]]
            if dcount[v] <= dfloor[v]:
                ddef += 1
            dcount[v] -= 1
        for t in range(sd_ptr[i + 1] - 1, sd_ptr[i] - 1, -1):
            d = sd_ids[t]
            psum[d] = add_t[psum[d] * m + neg_t[x]]

    nodes = 0

    def dfs(i):
        nonlocal nodes
        if i == s:
            return FOUND
        for x in range(m):
            if budget >= 0 and nodes >= budget:
                return BUDGET
            nodes += 1
            if not place(i, x):
                continue
            r = dfs(i + 1)
            if r == FOUND:
                return FOUND
            unplace(i, x)
            if r == BUDGET:
                return BUDGET
        return EXHAUSTED

    p = len(prefix)
    if p > s:
        raise ValueError("prefix longer than the slot list")
    for i in range(p):
        if not place(i, prefix[i]):
            return (EXHAUSTED, None, 0)
    status = dfs(p)
    if status == FOUND:
        return (FOUND, list(assign), nodes)
    return (status, None, nodes)


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
