"""The pure labeling kernel, ``solve_generic`` (see ``pure``).

Most attempts are rejected, so the kernel decides a label before changing
any state on edge slots (two fed sums: every interior slot of a path or
cycle and every tree-edge slot), and the floor deficits and the memo key
travel down the recursion as arguments, the key updated by each field's
change.  Other slots (the ends of vertex-labeled paths, the vertices of
trees) go through ``place``.  Under the leaf-room bound (see
``solve_generic``) an edge slot with leaf slots after it runs in
``bounded``, the edge loops with the leaf room kept as well, and a last
slot after it in ``final``; ``place`` checks the bound for the others and
for a prefix.  Searches without the bound run the loops without it.  The
labels below a slot's twin bound cost no node: the walk starts at the
bound.  The edge loops of ``bounded``, and that of ``dfs`` for slots
completing one item, each have a twin for cap-one instances that skips
the class counts' arithmetic (see ``solve_generic``).

``dfs`` refers to itself, and that reference cycle would keep the memo
(tens of thousands of keys) alive until the cyclic garbage collector
runs, raising peak memory; the kernel breaks the cycle before it returns.
"""

from __future__ import annotations

from operator import sub

from .pure import BUDGET, EXHAUSTED, FOUND, _allowed

#: Stop inserting dead states beyond this many entries (lookups continue).
MEMO_LIMIT = 1 << 22

#: Dead-state keys must pack into this many bits or memoization is skipped.
MEMO_MAX_BITS = 63

#: A cycle's symmetries g that the labeling kernel uses move slot 0 below
#: this, and it compares S with g(S) at the positions below this only,
#: which S <= g(S) implies: the labels of a long cycle repeat, keep many
#: rotations tied and would make the comparisons quadratic in its length.
LEX_SPAN = 16


def _floors_hold(cap, floor, total):
    """Whether the floors ``floor`` of classes capped at ``cap`` (each at
    most 1) can never reject a label when ``total`` labels or sums are
    counted in all: every floor 0, or every floor its cap, ``total`` in
    all (see ``solve_generic``)."""
    return not any(floor) or list(floor) == list(cap) and sum(floor) == total


def solve_generic(
    m,
    add_t,
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
    table=None,
    graph_sym=None,
    roots=None,
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

    ``table`` (None: off) is the pair ``(marks, succ)`` of
    ``_stabilizers.stabilizer_table``: symmetry states s, each the
    automorphisms that fix every label placed so far, with
    ``marks[s * m + x]`` nonzero when label x is least in its orbit under
    them and ``succ[s * m + x]`` the state after placing x (-1: no
    symmetry left).  The search starts in state 0, follows the prefix
    through ``succ``, and every slot in a state tries only the labels its
    marks allow.

    ``graph_sym`` (None: off) is ``(low, cycle, neg_t)``: constraints
    S <= g(S), lexicographically, from automorphisms g of the graph, S
    being the labels in slot order.

    * ``low[i]`` (-1: none) is an earlier slot j with S[j] <= S[i] (twin
      leaves, which an automorphism swaps): slot i's walk starts at label
      S[j], and the labels below it cost no node.
    * ``cycle`` (true: the slots lie in cycle order) adds that cycle's
      rotations pi(p) = a + p and reflections pi(p) = a - p, mod s, with
      g(S)[p] = S[pi(p)], for every a below ``LEX_SPAN``: one moving slot
      0 further would only start comparing deep in the search, where it
      prunes little and costs a check at every node.  ``neg_t`` (None:
      plain) composes each with the translation that maps its first
      image back to 0: g(S)[p] = S[pi(p)] - S[a], which needs S[0] = 0
      (the prefix pins it), so position 0 is not compared.  Position p <
      ``LEX_SPAN`` of g is compared once the last of the slots it reads
      (p, pi(p), and a when translated) is placed: a label making
      S > g(S) there is rejected, one making S < g(S) retires g, and a
      tie moves g on to its next position.

    Every symmetry given must map the solutions that extend ``prefix`` to
    such solutions.  Then the lex-least of them, S*, is what the search
    returns: each symmetry maps S* to a solution that is not less, so no
    rule above prunes S*.  So no position only the last slot decides is
    compared: the last slot completes a solution, and the first one the
    search reaches is S*.  The memo key holds no symmetry state, and need
    not: had an earlier path P recorded S*'s key at depth i as dead, P
    followed by S*'s labels from slot i on would be a solution below S*.
    So a key is dead as soon as a path reaches it, and the key of a label
    the graph symmetries reject is recorded too.

    The leaf-room bound (forward checking, Haralick and Elliott, AI 1980).
    A leaf slot completes an item no other slot feeds, as a tree's pendant
    edge completes its leaf, so that item's sum is the slot's label y: the
    slot takes a unit of y's label room (``slot_cap[y]`` less y's slot
    count) and a unit of y's sum room (``dcap[y]`` less y's derived
    count).  Two leaf slots never take the same unit, as each has an item
    of its own, so at most min(label room, sum room) of the leaf slots
    still empty can take label y, and the leaf room, that minimum summed
    over every label, is at least their number in every solution the
    state extends to.  A placement that leaves less leaf room than there
    are leaf slots after its slot is rejected, its node counted, as every
    bound rejects: it reads only the counts in the memo key, so a key is
    still dead only when no solution extends its state, as the arguments
    above need.  Counting leaf items instead of slots would be unsound:
    the edge of a K2 component completes two of them with one label.  The
    bound is on when two or more leaf slots come after slot 0, which
    paths, cycles and vertex labelings never have: they keep the loops
    without it.  A placement keeps the leaf room current by one unit per
    class whose room shrinks where it is the smaller of the two: the
    label x's when its label room is at most its sum room, and then each
    completed sum v's when its sum room is at most its label room.

    The cap-one walk.  On an instance where every slot and sum cap is at
    most 1 and, for slots and for sums alike, every floor is 0 or every
    floor equals its cap with the floors totalling the slots (for sums,
    the ``remaining_at[0]`` completions), the edge loops of ``dfs`` and
    ``bounded`` skip the class counts' arithmetic: antimagic and
    A*-antimagic trees and paths, and equitable instances with no more
    slots, and no more sums, than labels.  A label the walk reaches has
    room, so its count is 0 and its cap 1, and placing it fills it; a sum
    with room likewise.  So the walk keeps only the room tests
    (``dcount[v] < dcap[v]``: a cap may be 0), always unlinks the label it
    places, and passes on ``sdef - slot_floor[x]`` and ``ddef -
    dfloor[v]`` without comparing them: with the floors 0 the deficits
    stay 0, and with the floors at their caps the slot deficit before
    slot i is the s - i slots still empty and the sum deficit the
    ``remaining_at[i]`` completions left, so after a placement they equal
    the slots and completions after it, and the general loops' deficit
    tests never reject.  The traversal and node counts are the general
    loops', which every other instance runs.

    ``roots`` (None: one search on ``budget``) is a list of (label, share)
    pairs: the branches extending ``prefix`` by each label at the first
    free slot, run in order as separate calls on ``prefix + [label]`` and
    ``share`` would run them, each with a fresh memo (``budget`` is then
    unused).  They stop at the first branch that is not exhausted, whose
    status and labels are returned, with the nodes of every branch run.
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

    # leaf slots, each completing an item no other slot feeds: need[i]
    # counts those after slot i, and room[i] is the leaf room before slot
    # i.  Only an instance with two or more after slot 0 is bounded, so
    # one with two single items, one of them completed at slot 0 (a
    # path's edges), is not looked at further.
    fed = [0] * num_derived
    for d in sd_ids:
        fed[d] += 1
    need = room = None
    singles = fed.count(1)
    if singles > 2 or singles == 2 and s and 1 not in map(fed.__getitem__,
                                                          closes[0]):
        need = [0] * (s + 1)
        leaves = 0
        for i in range(s - 1, 0, -1):
            for d in closes[i]:
                if fed[d] == 1:
                    leaves += 1
                    break
            need[i - 1] = leaves
        if leaves > 1:
            room = [0] * (s + 1)
            room[0] = sum(map(min, slot_cap, dcap))

    # cap-one instances (see the docstring) walk edge slots without the
    # class counts' arithmetic
    cap_one = (max(slot_cap, default=0) <= 1 and max(dcap, default=0) <= 1
               and _floors_hold(slot_cap, slot_floor, s)
               and _floors_hold(dcap, dfloor, remaining_at[0]))

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

    # the labels with room left, in index order, linked through nxt/prv
    # with sentinel m; place/unplace and the edge loops unlink a label that
    # fills up and relink it when that placement is undone
    nxt = [m] * (m + 1)
    prv = [m] * (m + 1)
    tail = m
    for x in range(m):
        if slot_cap[x] > 0:
            nxt[tail] = x
            prv[x] = tail
            tail = x
    nxt[tail] = m
    prv[m] = tail

    # slot i on the current path is in symmetry state at[i] while i <= top
    # (-1: no symmetry left); a slot in a state sets the state of the slot
    # below, and top, before each label it descends into
    marks, succ = table if table is not None else (None, None)
    at = [-1] * (s + 1)
    top = -1

    # graph symmetries: the twin bounds, and due[i], the rotations and
    # reflections that slot i compares next, each as (a, b, p): the slot
    # map pi(p) = (a + b p) mod s, tied before position p
    low = due = neg_t = None  # due is None: graph symmetries off
    if graph_sym is not None:
        low, cycle, neg_t = graph_sym
        # translated, position 0 compares S[0] with 0, which the search
        # pins there: each symmetry starts at position 1
        start = 0 if neg_t is None else 1
        span = min(s, LEX_SPAN)
        due = [[] for _ in range(s)]
        for a in range(span) if cycle and start < span else ():
            for b in (1, -1) if a else (-1,):  # a = 0, b = 1: identity
                d = max(start, (a + b * start) % s, a)
                if d < last:
                    due[d].append((a, b, start))

    def settle(i, moves):
        """Pop ``moves``, those of slot i's previous label, then compare S
        with g(S) for each symmetry due at slot i, slot i labeled: None
        when S > g(S) for one, else the moves (d, (a, b, p)) of those
        still tied, each pushed onto due[d] for the slot d that decides
        position p, unless that is the last slot."""
        for d, _ in moves:
            due[d].pop()
        moves = []
        for a, b, p in due[i]:
            # subtract S[pi(0)] when translated; label 0 is the identity
            shift = 0 if neg_t is None else neg_t[assign[a]]
            q = (a + b * p) % s
            while True:
                x = assign[p]
                y = add_t[assign[q] * m + shift]
                if x != y:
                    if x > y:
                        return None
                    break
                p += 1
                if p == span:
                    break
                # pi(0) is placed: position p waits for p and pi(p) alone
                q = (a + b * p) % s
                if p > i or q > i:
                    d = p if p > q else q
                    if d < last:
                        moves.append((d, (a, b, p)))
                    break
        for d, entry in moves:
            due[d].append(entry)
        return moves

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
                if scount[x] == slot_cap[x]:
                    nxt[prv[x]] = nxt[x]
                    prv[nxt[x]] = prv[x]
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
        if scount[x] == slot_cap[x]:
            nxt[prv[x]] = x
            prv[nxt[x]] = x
        scount[x] -= 1
        for d in closes[i]:
            dcount[psum[d]] -= 1
        for d, old in zip(feeds[i], saved):
            psum[d] = old

    if room is not None:
        unbounded = place

        def place(i, x, sdef, ddef, t):
            """``unbounded`` with the leaf-room bound: the leaf room is
            counted afresh, which only prefixes and slots that are not
            edge slots need."""
            saved = [psum[d] for d in feeds[i]]
            placed = unbounded(i, x, sdef, ddef, t)
            if placed is not None and need[i]:
                r = sum(map(min, map(sub, slot_cap, scount),
                            map(sub, dcap, dcount)))
                if r < need[i]:
                    unplace(i, x, saved)
                    return None
                room[i + 1] = r
            return placed

    limit = budget if budget >= 0 else 1 << 64  # no search gets that far
    stop = EXHAUSTED  # FOUND or BUDGET once the search ends

    def dfs(i, sdef, ddef, t, nodes):
        """Try every label at slot ``i``; return the node count.
        ``sdef``/``ddef`` are the class-floor deficits and ``t`` the memo
        key of the state before slot ``i``.  A label is looked up in the
        memo once it passes every bound, and its key is added once its
        subtree is exhausted, or once the graph symmetries reject it; the
        last slot has no key.

        Each loop walks the labels with room, or, in a symmetry state or
        at a slot with graph symmetries due, a snapshot of them, less
        those the state's marks rule out: every label's room is restored
        before the next one is tried.  So only a snapshot walk tests the
        symmetries, and a search without them pays nothing per label.
        Reaching label ``x`` costs the ``x - prev`` nodes from the last one
        tried, and the loop ends with the ``m - 1 - prev`` after it: a
        label-by-label count checks the budget before each node, so it
        stops when the former passes ``limit`` and only when the latter
        does."""
        nonlocal stop, top
        if i == s:
            stop = FOUND
            return nodes
        walk = nxt
        row = -1
        if i <= top and at[i] >= 0:
            row = at[i] * m
            walk = _allowed(nxt, m, marks, row)
        keyed = memo_on and i < last
        edge = edges[i]
        x = m
        prev = -1
        tied = None
        if due is not None:  # graph symmetries on
            tied = due[i]
            if tied:
                moves = ()
                if walk is nxt:
                    walk = nxt[:]
            if low[i] >= 0:
                prev = assign[low[i]] - 1
                while walk[x] <= prev:
                    x = walk[x]
        if edge is None:
            saved = [psum[d] for d in feeds[i]]
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                placed = place(i, x, sdef, ddef, t)
                if placed is None:
                    continue
                if keyed:
                    key = placed[2]
                    if key in dead:
                        unplace(i, x, saved)
                        continue
                if walk is not nxt:
                    if tied:
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            unplace(i, x, saved)
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                nodes = dfs(i + 1, *placed, nodes)
                if stop != EXHAUSTED:
                    return nodes
                unplace(i, x, saved)
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
            if tied:
                for d, _ in moves:
                    due[d].pop()
            nodes += m - 1 - prev
            if nodes > limit:
                stop = BUDGET
                return limit
            return nodes
        # an edge slot, tested before any state moves
        d1, d2, nclose = edge
        if nclose > 2:
            return bounded(i, sdef, ddef, t, nodes)
        left = s - i - 1
        rem = remaining_at[i + 1]
        p1 = psum[d1]
        p2 = psum[d2]
        row1, row2 = p1 * m, p2 * m
        key = 0
        if keyed:
            tab1, tab2 = ftab[d1], ftab[d2]
            base = t + pos_unit - tab1[p1] - tab2[p2]
        if nclose == 1 and cap_one:
            # the loop below on a cap-one instance: the label and sum found
            # with room hold none, and their floors set the deficits
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                v = add_t[row1 + x]
                if dcount[v] >= dcap[v]:
                    continue
                w = add_t[row2 + x]
                if keyed:
                    key = base + sunit[x] + dunit[v] + tab2[w]
                    if key in dead:
                        continue
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                nxt[prv[x]] = nxt[x]
                prv[nxt[x]] = prv[x]
                scount[x] = dcount[v] = 1
                psum[d1] = v
                psum[d2] = w
                assign[i] = x
                nodes = dfs(i + 1, sdef - slot_floor[x], ddef - dfloor[v], key,
                            nodes)
                if stop != EXHAUSTED:
                    return nodes
                nxt[prv[x]] = x
                prv[nxt[x]] = x
                scount[x] = dcount[v] = 0
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        elif nclose == 1:
            # completes d1 and carries d2 on: every interior slot of a path
            # or cycle
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                v = add_t[row1 + x]
                dv = dcount[v]
                if dv >= dcap[v]:
                    continue
                sc = scount[x]
                ns = sdef - 1 if sc < slot_floor[x] else sdef
                nd = ddef - 1 if dv < dfloor[v] else ddef
                if ns > left or nd > rem:
                    continue
                w = add_t[row2 + x]
                if keyed:
                    key = base + sunit[x] + dunit[v] + tab2[w]
                    if key in dead:
                        continue
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                full = sc + 1 == slot_cap[x]
                if full:
                    nxt[prv[x]] = nxt[x]
                    prv[nxt[x]] = prv[x]
                scount[x] = sc + 1
                dcount[v] = dv + 1
                psum[d1] = v
                psum[d2] = w
                assign[i] = x
                nodes = dfs(i + 1, ns, nd, key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                if full:
                    nxt[prv[x]] = x
                    prv[nxt[x]] = x
                scount[x] = sc
                dcount[v] = dv
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        else:
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                sc = scount[x]
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
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                if nclose:
                    dcount[v] = dv + 1
                    dcount[w] = dw + 1
                full = sc + 1 == slot_cap[x]
                if full:
                    nxt[prv[x]] = nxt[x]
                    prv[nxt[x]] = prv[x]
                psum[d1] = v
                psum[d2] = w
                scount[x] = sc + 1
                assign[i] = x
                nodes = dfs(i + 1, ns, nd, key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                if full:
                    nxt[prv[x]] = x
                    prv[nxt[x]] = x
                scount[x] = sc
                if nclose:
                    dcount[w] = dw
                    dcount[v] = dv
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        if tied:
            for d, _ in moves:
                due[d].pop()
        psum[d1] = p1
        psum[d2] = p2
        nodes += m - 1 - prev
        if nodes > limit:
            stop = BUDGET
            return limit
        return nodes

    def bounded(i, sdef, ddef, t, nodes):
        """``dfs`` at an edge slot with leaf slots after it: the same
        walks, each placement also leaving them leaf room.  Label x takes
        a unit of it when its label room is at most its sum room, then
        each sum it completes when its sum room is at most its label room
        (see the docstring).  ``below`` searches the next slot."""
        nonlocal stop, top
        d1, d2, nclose, left, rem, want, below, tab1, tab2, lo = bounds[i]
        walk = nxt
        row = -1
        if i <= top and at[i] >= 0:
            row = at[i] * m
            walk = _allowed(nxt, m, marks, row)
        keyed = memo_on  # a leaf slot comes later: i is not the last slot
        x = m
        prev = -1
        tied = due[i] if due is not None else None
        if tied:
            moves = ()
            if walk is nxt:
                walk = nxt[:]
        if lo >= 0:
            prev = assign[lo] - 1
            while walk[x] <= prev:
                x = walk[x]
        p1 = psum[d1]
        p2 = psum[d2]
        row1 = p1 * m
        row2 = p2 * m
        key = 0
        if keyed:
            base = t + pos_unit - tab1[p1] - tab2[p2]
        rm = room[i]
        if nclose == 1 and cap_one:
            # the first loop below on a cap-one instance (see dfs): label x
            # has one unit of label room, and the sum v one of sum room,
            # which takes leaf room when v is another label with room
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                v = add_t[row1 + x]
                if dcount[v] >= dcap[v]:
                    continue
                r = rm - 1 if dcount[x] < dcap[x] else rm
                if v != x and scount[v] < slot_cap[v]:
                    r -= 1
                if r < want:
                    continue
                w = add_t[row2 + x]
                if keyed:
                    key = base + sunit[x] + dunit[v] + tab2[w]
                    if key in dead:
                        continue
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                nxt[prv[x]] = nxt[x]
                prv[nxt[x]] = prv[x]
                scount[x] = dcount[v] = 1
                psum[d2] = w  # d1 is complete: no later slot reads it
                assign[i] = x
                room[i + 1] = r
                nodes = below(i + 1, sdef - slot_floor[x], ddef - dfloor[v],
                              key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                nxt[prv[x]] = x
                prv[nxt[x]] = x
                scount[x] = dcount[v] = 0
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        elif cap_one:
            # the last loop below on a cap-one instance, the same way
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                v = add_t[row1 + x]
                w = add_t[row2 + x]
                r = rm - 1 if dcount[x] < dcap[x] else rm
                nd = ddef
                if nclose:
                    if dcount[v] >= dcap[v] or w == v or dcount[w] >= dcap[w]:
                        continue
                    nd -= dfloor[v] + dfloor[w]
                    if v != x and scount[v] < slot_cap[v]:
                        r -= 1
                    if w != x and scount[w] < slot_cap[w]:
                        r -= 1
                if r < want:
                    continue
                if keyed:
                    key = base + sunit[x] + (dunit[v] + dunit[w] if nclose
                                             else tab1[v] + tab2[w])
                    if key in dead:
                        continue
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                if nclose:
                    dcount[v] = dcount[w] = 1
                nxt[prv[x]] = nxt[x]
                prv[nxt[x]] = prv[x]
                psum[d1] = v
                psum[d2] = w
                scount[x] = 1
                assign[i] = x
                room[i + 1] = r
                nodes = below(i + 1, sdef - slot_floor[x], nd, key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                nxt[prv[x]] = x
                prv[nxt[x]] = x
                scount[x] = 0
                if nclose:
                    dcount[v] = dcount[w] = 0
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        elif nclose == 1:
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                v = add_t[row1 + x]
                dv = dcount[v]
                if dv >= dcap[v]:
                    continue
                sc = scount[x]
                ns = sdef - 1 if sc < slot_floor[x] else sdef
                nd = ddef - 1 if dv < dfloor[v] else ddef
                if ns > left or nd > rem:
                    continue
                lx = slot_cap[x] - sc
                r = rm - 1 if lx <= dcap[x] - dcount[x] else rm
                if dv + spare[v] - scount[v] >= (v == x):
                    r -= 1
                if r < want:
                    continue
                w = add_t[row2 + x]
                if keyed:
                    key = base + sunit[x] + dunit[v] + tab2[w]
                    if key in dead:
                        continue
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                full = lx == 1
                if full:
                    nxt[prv[x]] = nxt[x]
                    prv[nxt[x]] = prv[x]
                scount[x] = sc + 1
                dcount[v] = dv + 1
                psum[d2] = w  # d1 is complete: no later slot reads it
                assign[i] = x
                room[i + 1] = r
                nodes = below(i + 1, ns, nd, key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                if full:
                    nxt[prv[x]] = x
                    prv[nxt[x]] = x
                scount[x] = sc
                dcount[v] = dv
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        else:
            while True:
                x = walk[x]
                if x == m:
                    break
                nodes += x - prev
                if nodes > limit:
                    stop = BUDGET
                    return limit
                prev = x
                sc = scount[x]
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
                    dw = dcount[w] + 1 if w == v else dcount[w]
                    if dw >= dcap[w]:
                        continue
                    if dw < dfloor[w]:
                        nd -= 1
                if nd > rem:
                    continue
                lx = slot_cap[x] - sc
                r = rm - 1 if lx <= dcap[x] - dcount[x] else rm
                if nclose:
                    if dv + spare[v] - scount[v] >= (v == x):
                        r -= 1
                    if dw + spare[w] - scount[w] >= (w == x):
                        r -= 1
                if r < want:
                    continue
                if keyed:
                    key = base + sunit[x] + (dunit[v] + dunit[w] if nclose
                                             else tab1[v] + tab2[w])
                    if key in dead:
                        continue
                if walk is not nxt:
                    if tied:
                        assign[i] = x
                        moves = settle(i, moves)
                        if moves is None:
                            moves = ()
                            if keyed and len(dead) < MEMO_LIMIT:
                                dead.add(key)
                            continue
                    if row >= 0:
                        at[i + 1] = succ[row + x]
                        top = i + 1
                if nclose:
                    dcount[v] = dv + 1
                    dcount[w] = dw + 1
                full = lx == 1
                if full:
                    nxt[prv[x]] = nxt[x]
                    prv[nxt[x]] = prv[x]
                psum[d1] = v
                psum[d2] = w
                scount[x] = sc + 1
                assign[i] = x
                room[i + 1] = r
                nodes = below(i + 1, ns, nd, key, nodes)
                if stop != EXHAUSTED:
                    return nodes
                if full:
                    nxt[prv[x]] = x
                    prv[nxt[x]] = x
                scount[x] = sc
                if nclose:
                    dcount[w] = dw
                    dcount[v] = dv
                if keyed and len(dead) < MEMO_LIMIT:
                    dead.add(key)
        if tied:
            for d, _ in moves:
                due[d].pop()
        psum[d1] = p1
        psum[d2] = p2
        nodes += m - 1 - prev
        if nodes > limit:
            stop = BUDGET
            return limit
        return nodes

    def final(i, sdef, ddef, t, nodes):
        """``dfs`` at the last slot, an edge slot after a bounded one:
        it has no memo key and no graph symmetry due, so the first label
        within every bound completes the solution."""
        nonlocal stop
        walk = nxt
        if i <= top and at[i] >= 0:
            walk = _allowed(nxt, m, marks, at[i] * m)
        x = m
        prev = -1
        if due is not None and low[i] >= 0:
            prev = assign[low[i]] - 1
            while walk[x] <= prev:
                x = walk[x]
        d1, d2, nclose = edges[i]
        row1 = psum[d1] * m
        row2 = psum[d2] * m
        while True:
            x = walk[x]
            if x == m:
                break
            nodes += x - prev
            if nodes > limit:
                stop = BUDGET
                return limit
            prev = x
            if sdef - (scount[x] < slot_floor[x]) > 0:
                continue
            nd = ddef
            if nclose:
                v = add_t[row1 + x]
                dv = dcount[v]
                if dv >= dcap[v]:
                    continue
                nd -= dv < dfloor[v]
                if nclose == 2:
                    w = add_t[row2 + x]
                    dw = dcount[w] + 1 if w == v else dcount[w]
                    if dw >= dcap[w]:
                        continue
                    nd -= dw < dfloor[w]
            if nd > 0:
                continue
            assign[i] = x
            stop = FOUND
            return nodes
        nodes += m - 1 - prev
        if nodes > limit:
            stop = BUDGET
            return limit
        return nodes

    if room is not None:
        # bounded: the edge slots with leaf slots after them.  Each gets
        # its completions plus 3 in edges[i], which sends dfs to bounded,
        # and in bounds[i] its items and completions, the slots and
        # completions after it, the leaf slots after it, the search of the
        # next slot (final for the last slot), its items' key tables and
        # its twin bound.
        bounds = [None] * s
        below = final if edges[last] is not None else dfs
        for i in range(s - 2, -1, -1):
            if need[i] and edges[i] is not None:
                d1, d2, nclose = edges[i]
                edges[i] = (d1, d2, nclose + 3)
                tabs = (ftab[d1], ftab[d2]) if memo_on else (None, None)
                bounds[i] = (d1, d2, nclose, s - i - 1, remaining_at[i + 1],
                             need[i], below, *tabs,
                             -1 if due is None else low[i])
                below = bounded
            else:
                below = dfs
        # a completed sum v takes leaf room when its sum room, dcap[v] -
        # dcount[v], is at most its label room, slot_cap[v] - scount[v]
        # less 1 when v is the label placed: when dcount[v] + spare[v] -
        # scount[v] is at least that 1 or 0
        spare = list(map(sub, slot_cap, dcap))

    def pin(i, x, state):
        """Place prefix label ``x`` at slot ``i``, or a root label at the
        first free slot, checked as the search checks a label: the twin
        bound and the graph symmetries too.  Returns the new state, the
        symmetries' moves and the saved partial sums, or None with nothing
        placed."""
        if scount[x] >= slot_cap[x]:
            return None
        saved = [psum[d] for d in feeds[i]]
        placed = place(i, x, *state)
        if placed is None:
            return None
        moves = ()
        if due is not None and (
                0 <= low[i] and x < assign[low[i]]
                or due[i] and (moves := settle(i, ())) is None):
            unplace(i, x, saved)
            return None
        return placed, moves, saved

    p = len(prefix)
    if p > s:
        raise ValueError("prefix longer than the slot list")
    if roots is not None and p == s:
        raise ValueError("no free slot for the root labels")
    state = (sum(slot_floor), sum(dfloor), 0)
    st = -1 if table is None else 0
    for i in range(p):
        pinned = pin(i, prefix[i], state)
        if pinned is None:
            return (EXHAUSTED, None, 0)
        state = pinned[0]
        if st >= 0:
            st = succ[st * m + prefix[i]]
    at[p] = st
    top = p
    if roots is None:
        nodes = dfs(p, *state, 0)
    else:
        # each root label at slot p as the prefix's last label would be,
        # undone once its branch is exhausted
        nodes = 0
        for x, share in roots:
            pinned = pin(p, x, state)
            if pinned is None:
                continue
            placed, moves, saved = pinned
            at[p + 1] = succ[st * m + x] if st >= 0 else -1
            top = p + 1
            limit = share if share >= 0 else 1 << 64
            dead.clear()
            nodes += dfs(p + 1, *placed, 0)
            if stop != EXHAUSTED:
                break
            for d, _ in moves:
                due[d].pop()
            unplace(p, x, saved)
    # break the search's cycles through itself: frees the memo now
    dfs = bounded = final = bounds = None
    if stop == FOUND:
        return (FOUND, list(assign), nodes)
    return (stop, None, nodes)


#: ``perfbench/spans.py`` wraps the kernels by name, this one included, so
#: the old name of the path and cycle kernel stays as an alias.
solve_chain = solve_generic
