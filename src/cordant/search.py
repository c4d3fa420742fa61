"""Exhaustive searches with certificates, budgets, and parallel splitting.

Every search enumerates labels in group enumeration order at each slot, so
a Found outcome always carries the lexicographically first solution, a
NotExists outcome means the pruned space was exhausted, and an Unknown
outcome means the node budget ran out first.  A Found labeling search
carries the ``Certificate`` its one verification made (its ``labels`` are
the labeling).  Node accounting is defined by the kernels: one node per
placement attempt.  Every labeling search, on a path, cycle or tree, runs
on the one labeling kernel, built from the graph's slot/derived-sum
incidence.  Instances deeper than ``MAX_DEPTH`` levels are refused with
``CapExceededError`` before any kernel runs.

Every labeling search splits into a branch per first-slot label; each
label gets a fixed share of the budget.  Without a prefix, only the labels
that are least in their orbit under the instance's symmetries run, each
with the share it has among all first-slot labels (the lex-first solution
is the least member of its orbit, so the other branches cannot hold it,
nor a solution the least branch lacks).  The same argument reaches below
the root: when the automorphisms of the group are symmetries, every slot
tries only labels that are least in their orbit under the automorphisms
fixing every label placed before it, in the kernels, from one table of
those stabilizers per group (``groups.stabilizer_table``).  With a prefix
only the automorphisms fixing every prefix label are symmetries: they
prune the first free slot and those below it from the table's state
after the prefix.  The graph's own automorphisms prune too
(``_graph_symmetry``): twin leaves bound one another's labels from below,
and without a prefix a cycle's lex-first labeling is no later than its
image under a rotation or reflection composed with the translation that
maps that image's first label back to 0, which the kernels check as the
slots deciding each comparison are placed.  Branches are merged in label
order, and ``workers`` only decides how many branches run concurrently, so
parallelism never changes results; branches still running when the
answer is known are terminated.  Run one at a time, every branch of a
search is one kernel call.  The R*-sequence search is not split: it
is one kernel call on the sequences that start with element 1, pruned by
the same table below it.

The one exception to lex-first is ``_find_any``, the find-any search
behind the construct routes ``rainbow-cycle`` (a cycle's vertices) and
``sequence`` (the edges of P_|A|): it restarts on relabeled copies of its
instance and returns some certified labeling, the same one on every run,
within the node share its lex-first search would get.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import deque
from itertools import islice
from operator import itemgetter

from . import _kernel
from ._kernel import BUDGET, EXHAUSTED, FOUND
from ._vocab import (
    DEFAULT_BUDGET,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    Record,
    check_searchable,
    check_workers,
    set_field,
)
from .errors import (
    CapExceededError,
    InternalCheckError,
    InvalidGraphError,
    InvalidSpecError,
)
from .graphs import CYCLE, PATH, TREE, SimpleGraph
from .groups import (
    Element,
    GroupSpec,
    automorphism_orbit_keys,
    element_at,
    element_index,
    op_tables,
    stabilizer_table,
)
from .labelings import EdgeLabeling, VertexLabeling, _computed

#: Node cutoff of a find-any restart per term of the Luby sequence.
RESTART_UNIT = 10_000

#: Seed of the label orders that find-any restarts after the first search.
RESTART_SEED = 4

#: Deepest search any entry point runs: slots for the labeling searches,
#: group order for R*-sequences and sigma-max.  Both backends refuse deeper
#: instances before searching, so they answer alike.  The pure kernel
#: recurses once per level; ``_run_branch`` raises Python's frame
#: limit by this much (plus ``_KERNEL_FRAMES``) while kernel calls run,
#: so the cap holds however deep the caller is.
MAX_DEPTH = 10_000

#: Frames a pure kernel uses beyond one per level (entry, place/unplace).
_KERNEL_FRAMES = 50

# Kernel calls running in this process, and the frame limit to restore
# when the last of them returns; guarded by ``_lift_lock``.
_lift_lock = threading.Lock()
_lifted_calls = 0
_unlifted_limit = 0


class SearchOutcome(Record):
    """Result of one search: status, certificate (when Found: the
    labeling's ``Certificate``, or the ``RStarSequence``), and cost, the
    nodes of every root branch of a labeling search that ran, or of the
    one call of an R*-sequence search."""

    _fields = ("status", "certificate", "nodes_explored")

    def __init__(self, status: str, certificate: object | None,
                 nodes_explored: int) -> None:
        set_field(self, "status", status)
        set_field(self, "certificate", certificate)
        set_field(self, "nodes_explored", nodes_explored)


class RStarSequence(Record):
    """An ordering of the nonzero elements whose cyclic consecutive
    differences are pairwise distinct, with a marked position equal to
    the sum of its two cyclic neighbours."""

    _fields = ("group", "seq", "star_index")

    def __init__(self, group: GroupSpec, seq: tuple[Element, ...],
                 star_index: int) -> None:
        from .groups import add, negate, check_element

        seq = tuple(tuple(a) for a in seq)
        zero = group.zero()
        if len(seq) != group.order - 1:
            raise InvalidSpecError("sequence must list every nonzero element once")
        seen = set()
        for a in seq:
            check_element(group, a)
            if a == zero or a in seen:
                raise InvalidSpecError("sequence must list every nonzero element once")
            seen.add(a)
        n = len(seq)
        diffs = set()
        for i in range(n):
            d = add(group, seq[i], negate(group, seq[i - 1]))
            if d in diffs:
                raise InvalidSpecError("cyclic consecutive differences collide")
            diffs.add(d)
        i = star_index
        if not 0 <= i < n:
            raise InvalidSpecError("star index out of range")
        if add(group, seq[i - 1], seq[(i + 1) % n]) != seq[i]:
            raise InvalidSpecError("star position is not the sum of its neighbours")
        set_field(self, "group", group)
        set_field(self, "seq", seq)
        set_field(self, "star_index", star_index)


class HamiltonianCycle(Record):
    """A cyclic ordering of all group elements, starting at zero, and
    the number of distinct sums of its cyclic neighbours."""

    _fields = ("group", "order", "distinct_sum_count")

    def __init__(self, group: GroupSpec, order: tuple[Element, ...]) -> None:
        from .groups import add, check_element

        order = tuple(tuple(a) for a in order)
        if len(order) != group.order or len(set(order)) != len(order):
            raise InvalidSpecError("cycle must visit every element exactly once")
        for a in order:
            check_element(group, a)
        if order and order[0] != group.zero():
            raise InvalidSpecError("cycle must start at zero")
        set_field(self, "group", group)
        set_field(self, "order", order)
        set_field(self, "distinct_sum_count", len(
            {add(group, order[i - 1], order[i]) for i in range(len(order))}))


class SigmaMaxResult(Record):
    """Maximum number of distinct cyclic pair sums, with a witness cycle.

    ``status`` is Found when the value is exact (full exhaustion) and
    Unknown when the budget ran out (the value is then a lower bound).
    """

    _fields = ("status", "value", "witness", "nodes_explored")

    def __init__(self, status: str, value: int,
                 witness: HamiltonianCycle | None,
                 nodes_explored: int) -> None:
        set_field(self, "status", status)
        set_field(self, "value", value)
        set_field(self, "witness", witness)
        set_field(self, "nodes_explored", nodes_explored)


def _equitable_bounds(count: int, m: int) -> tuple[list[int], list[int]]:
    q, r = divmod(count, m)
    cap = q + (1 if r else 0)
    return [cap] * m, [q] * m


#: Budgets from here up are unbounded: no search spends that many nodes,
#: and the compiled kernel takes the budget as a signed 64-bit integer.
_UNBOUNDED_FROM = 1 << 62


def _norm_budget(budget: int | None) -> int:
    if budget is None:
        return -1
    if budget < 0:
        raise ValueError("budget must be nonnegative (or None for unbounded)")
    return int(budget) if budget < _UNBOUNDED_FROM else -1


def _shares(budget: int, branches: int) -> list[int]:
    if budget < 0:
        return [-1] * branches
    base, rem = divmod(budget, branches)
    return [base + (1 if i < rem else 0) for i in range(branches)]


def _run_branch(task):
    """Call one kernel; every kernel call goes through here.

    Python's frame limit is interpreter-wide, so concurrent calls share one
    lift: the first call in raises it and the last call out restores it.
    The kernel is called in this frame: an extra Python frame between the
    search and the pure kernel made the construct benchmark slower.
    """
    global _lifted_calls, _unlifted_limit
    kind, args = task
    kern = _kernel.active_backend()
    with _lift_lock:
        if _lifted_calls == 0:
            _unlifted_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(_unlifted_limit + MAX_DEPTH + _KERNEL_FRAMES)
        _lifted_calls += 1
    try:
        return getattr(kern, "solve_" + kind)(*args)
    finally:
        with _lift_lock:
            _lifted_calls -= 1
            if _lifted_calls == 0:
                sys.setrecursionlimit(_unlifted_limit)


def _branch_child(task, conn) -> None:
    try:
        conn.send((True, _run_branch(task)))
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        conn.send((False, exc))


class _Branch:
    """One branch task in a process of its own: ``result()`` waits for it
    and ``stop()`` terminates it.  Each branch has its own pipe, so a
    branch stopped mid-reply leaves no lock held (terminating
    ``multiprocessing.Pool`` workers can, and then its shutdown hangs)."""

    def __init__(self, task):
        import multiprocessing

        self._conn, child = multiprocessing.Pipe(duplex=False)
        self._proc = multiprocessing.Process(target=_branch_child,
                                             args=(task, child), daemon=True)
        self._proc.start()
        child.close()

    def result(self):
        try:
            ok, value = self._conn.recv()
        finally:
            self._proc.join()
            self._conn.close()
        if not ok:
            raise value
        return value

    def stop(self) -> None:
        self._proc.terminate()
        self._proc.join()
        self._conn.close()


def _orchestrate(tasks: list, workers: int) -> list:
    """Run branch tasks, each in a process of its own, collecting results
    in branch order.

    Stops at the first branch that is not exhausted.  The next branches
    run meanwhile, at most ``workers`` at a time; those still running then
    are terminated, so outcomes match the sequential run exactly.
    """
    results = []
    waiting = iter(tasks)
    running: deque = deque()
    try:
        running.extend(_Branch(t) for t in islice(waiting, workers))
        while running:
            r = running.popleft().result()
            results.append(r)
            if r[0] != EXHAUSTED:
                break
            running.extend(_Branch(t) for t in islice(waiting, 1))
    finally:
        for branch in running:
            branch.stop()
    return results


def _merge(results: list) -> tuple[int, object, int]:
    # every kernel, pure and compiled, returns its node count last
    nodes = sum(r[-1] for r in results)
    last = results[-1] if results else None
    if last is not None and last[0] == FOUND:
        return FOUND, last, nodes
    if last is not None and last[0] == BUDGET:
        return BUDGET, None, nodes
    return EXHAUSTED, None, nodes


def _split_solve(fixed_args: tuple, prefix: list, kept, budget: int,
                 workers: int, tail: tuple) -> tuple[int, object, int]:
    """Root-split a labeling kernel call on the labels of the first free
    slot.

    ``fixed_args`` starts with the group order, which the kernel takes
    first.  Only the labels in ``kept`` run, each with the budget share it
    has among all labels of the group.  ``kept`` is None when the prefix
    fills every slot: one call then runs on the whole budget.  ``tail``
    holds the kernel's arguments after the budget.

    Run one at a time, the branches are one kernel call (its ``roots``).
    With more than one worker, and more than one branch and CPU, each
    branch is a call in a process of its own.  Never more processes run
    than branches or CPUs.
    """
    if kept is None:
        r = _run_branch(("generic", fixed_args + (prefix, budget) + tail))
        return (r[0], r if r[0] == FOUND else None, r[-1])
    shares = _shares(budget, fixed_args[0])
    if workers > 1:
        workers = min(workers, len(kept), os.cpu_count() or 1)
    if workers <= 1:
        roots = [(x, shares[x]) for x in kept]
        return _merge([_run_branch(
            ("generic", fixed_args + (prefix, budget) + tail + (roots,)))])
    tasks = [("generic", fixed_args + (prefix + [x], shares[x]) + tail)
             for x in kept]
    return _merge(_orchestrate(tasks, workers))


def _symmetry_table(spec: GroupSpec, bounds: tuple = ()) -> tuple | None:
    """The kernels' ``table`` argument: ``stabilizer_table(spec)``, the
    orbits of the automorphisms of ``spec`` that fix the labels placed so
    far.  None when some bound (per label, as in ``bounds``) differs on
    two labels of one Aut orbit: the automorphisms are then no symmetry."""
    bound_of: dict = {}
    for key, column in zip(automorphism_orbit_keys(spec), zip(*bounds)):
        if bound_of.setdefault(key, column) != column:
            return None
    return stabilizer_table(spec)


def _root_labels(spec: GroupSpec, bounds: tuple, derived_sizes: set[int],
                 prefix: list[int]
                 ) -> tuple[range | list[int], tuple | None, bool]:
    """The labels the first free slot of a labeling search has to try, the
    symmetry table (see ``_symmetry_table``) that prunes every slot below
    it, and whether translation is a symmetry the search may use.

    The lex-first solution is the least member of its orbit under every
    symmetry of the instance (the lex-leader argument of Crawford,
    Ginsberg, Luks and Roy, KR 1996), so its first label is the least of
    that label's orbit; and any solution maps to one whose first label is.
    ``bounds`` are the slot and derived-sum class bounds, per label.

    * Translation c -> c + g of every label shifts a derived sum of k
      slots by kg.  It is a symmetry when every bound is uniform and every
      derived item sums the same number of slots (``derived_sizes``); all
      labels then share the orbit of 0.
    * An automorphism of the group applied to every label is a symmetry
      when every bound is constant on each of its orbits.  The lex-first
      solution S is no later than its image under any automorphism that
      fixes its first k labels, which agrees with S there, so label k+1
      of S is least in its orbit under the pointwise stabilizer of the
      first k: the argument reaches every slot.  The kernels prune by the
      table at every slot whose stabilizer is not yet trivial.
    * With a ``prefix``, the symmetries must map extensions of it to
      extensions of it: translation does not, and only the automorphisms
      fixing every prefix label remain, so the first free slot keeps the
      labels least in their orbits under those (the table's state after
      the prefix).

    Otherwise every label runs, with no table.
    """
    m = spec.order
    table = _symmetry_table(spec, bounds)
    if table is None:
        return range(m), None, False
    if not prefix and _translates(bounds, derived_sizes):
        return [0], table, True
    marks, succ = table
    state = 0
    for x in prefix:
        state = succ[state * m + x]
        if state < 0:
            return range(m), None, False
    return [x for x in range(m) if marks[state * m + x]], table, False


def _translates(bounds: tuple, derived_sizes: set[int]) -> bool:
    """Whether translating every label is a symmetry of the instance:
    every bound (per label, as in ``bounds``) uniform, and every derived
    item the sum of the same number of slots."""
    return len(derived_sizes) <= 1 and all(len(set(b)) == 1 for b in bounds)


_STATUS_NAME = {FOUND: STATUS_FOUND, EXHAUSTED: STATUS_NOT_EXISTS, BUDGET: STATUS_UNKNOWN}


# ---------------------------------------------------------------------------
# instance builders


def _generic_structures(members, num_slots: int):
    """CSR structures mapping slots to the derived sums they feed;
    ``members`` lists the slots of each derived item."""
    num_derived = len(members)
    by_slot: list[list[int]] = [[] for _ in range(num_slots)]
    comp_at: list[list[int]] = [[] for _ in range(num_slots)]
    for d, slots in enumerate(members):
        for i in slots:
            by_slot[i].append(d)
        if slots:
            comp_at[max(slots)].append(d)
    sd_ptr, sd_ids = [0], []
    comp_ptr, comp_ids = [0], []
    for i in range(num_slots):
        sd_ids.extend(by_slot[i])
        sd_ptr.append(len(sd_ids))
        comp_ids.extend(comp_at[i])
        comp_ptr.append(len(comp_ids))
    return num_derived, sd_ptr, sd_ids, comp_ptr, comp_ids


def _labels_from_indices(spec: GroupSpec, indices) -> tuple[Element, ...]:
    return tuple(element_at(spec, i) for i in indices)


def _check_depth(levels: int) -> None:
    if levels > MAX_DEPTH:
        raise CapExceededError(
            f"search depth {levels} exceeds the cap of {MAX_DEPTH} levels")


def _certified(graph: SimpleGraph, spec: GroupSpec, notion: str, indices):
    """The certificate of the labeling a kernel found, checked as
    ``notion``: the one verification a Found outcome gets."""
    from .certificates import make_edge_certificate, make_vertex_certificate

    labels = _labels_from_indices(spec, indices)
    if notion == NOTION_A_CORDIAL:
        cert = make_vertex_certificate(
            graph, _computed(VertexLabeling, spec, labels))
    else:
        cert = make_edge_certificate(
            notion, graph, _computed(EdgeLabeling, spec, labels))
    if not cert.verdict.ok:
        raise InternalCheckError(
            f"search produced a labeling that is not {notion}: "
            f"{cert.verdict.violation}")
    return cert


def _instance(graph: SimpleGraph, spec: GroupSpec, notion: str
              ) -> tuple[int, tuple, list] | None:
    """The labeling kernel's instance of a ``notion`` labeling of the
    vertices (a-cordial) or edges of ``graph``: (slots, class bounds,
    derived items).  The bounds, per label, are the slot cap and floor
    and the derived-sum cap and floor: label and induced-sum classes
    equitable, or for a-star-antimagic every nonzero label and every sum
    once.  Each derived item lists the slots it sums.  None when no
    labeling exists by counting alone."""
    check_searchable(spec)
    if notion in (NOTION_A_ANTIMAGIC, NOTION_A_STAR_ANTIMAGIC):
        if graph.kind not in (PATH, TREE):
            raise InvalidGraphError("antimagic searches need a path or tree")
        if graph.n != spec.order:
            raise InvalidSpecError(
                f"tree order {graph.n} must equal group order {spec.order}")
    on_edges = notion != NOTION_A_CORDIAL
    s = graph.edge_count if on_edges else graph.n
    _check_depth(s)
    m = spec.order
    # a derived item per vertex (its incident edge slots) or per edge (its
    # two endpoint slots)
    members = graph.incidence() if on_edges else graph.edges
    if notion == NOTION_A_STAR_ANTIMAGIC:
        slot_cap = slot_floor = [0] + [1] * (m - 1)
        dcap = dfloor = [1] * m
    else:
        slot_cap, slot_floor = _equitable_bounds(s, m)
        dcap, dfloor = _equitable_bounds(len(members), m)
    # items no slot feeds (isolated vertices) sum to 0 and never complete
    empty = sum(not x for x in members)
    dcap = [dcap[0] - empty, *dcap[1:]]
    dfloor = [max(0, dfloor[0] - empty), *dfloor[1:]]
    if dcap[0] < 0:
        return None
    return s, (slot_cap, slot_floor, dcap, dfloor), members


def _graph_symmetry(graph: SimpleGraph, incidence: list | None, s: int,
                    fixed: int, neg_t) -> tuple | None:
    """The labeling kernel's ``graph_sym`` (see ``pure.solve_generic``):
    lex-leader constraints from automorphisms of ``graph`` that fix each
    of the first ``fixed`` slots (a prefix's), or None when none is left.
    The slots are the edges when ``incidence`` is given (the instance's
    derived items, ``graph.incidence()``), and the vertices when it is
    None.

    * Twin leaves, two leaves with one neighbour, swap; on edges, so do
      their pendant edges.  Each twin's slot is bounded below by the label
      of the twin slot before it.
    * A cycle's slots, its vertices or its edges, lie in cycle order, so
      its rotations and reflections are automorphisms, each composed with
      the translation that maps its first image back to 0 when ``neg_t``
      (the negation table) is given.  No rotation fixes a prefix slot,
      and the one reflection that fixes slot 0 compares slot 1 with the
      last slot first, which the kernel never does (it would only reject
      a solution), so a prefix leaves none.

    Paths get no reversal rule: it compares their first and last slots,
    so it would decide nothing before the last slot.
    """
    on_edges = incidence is not None
    if not on_edges:
        incidence = graph.incidence()
    low = [-1] * s
    leaves: dict[int, list[int]] = {}
    for v, ids in enumerate(incidence):
        if len(ids) == 1:
            u, w = graph.edges[ids[0]]
            leaves.setdefault(u + w - v, []).append(ids[0] if on_edges else v)
    for twins in leaves.values():
        twins = sorted(i for i in twins if i >= fixed)
        for j, i in zip(twins, twins[1:]):
            low[i] = j
    cycle = graph.kind == CYCLE and not fixed
    if not cycle and low.count(-1) == s:
        return None
    return low, cycle, neg_t


def _search_labeling(graph: SimpleGraph, spec: GroupSpec, notion: str,
                     prefix: tuple[Element, ...], budget: int | None,
                     workers: int) -> SearchOutcome:
    """Lex-first ``notion`` labeling (see ``_instance``), with its
    certificate.  Paths, cycles and trees all run on the one labeling
    kernel, pruned by the symmetries of the group (``_root_labels``) and
    of the graph (``_graph_symmetry``)."""
    instance = _instance(graph, spec, notion)
    check_workers(workers)
    pfx = [element_index(spec, a) for a in prefix]
    budget = _norm_budget(budget)
    if instance is None:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    s, bounds, members = instance
    m = spec.order
    add_t, neg_t = op_tables(spec)
    fixed = (m, add_t, s, *bounds, *_generic_structures(members, s))
    kept = table = sym = None
    if len(pfx) < s:
        kept, table, translated = _root_labels(
            spec, bounds, {len(x) for x in members}, pfx)
        sym = _graph_symmetry(
            graph, members if notion != NOTION_A_CORDIAL else None, s,
            len(pfx), neg_t if translated else None)
    status, payload, nodes = _split_solve(fixed, pfx, kept, budget, workers,
                                          (table, sym))
    if status != FOUND:
        return SearchOutcome(_STATUS_NAME[status], None, nodes)
    return SearchOutcome(STATUS_FOUND, _certified(graph, spec, notion,
                                                  payload[1]), nodes)


def _luby(i: int) -> int:
    """Term ``i`` (from 1) of the restart sequence of Luby, Sinclair and
    Zuckerman (IPL 1993): 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _relabeled(add_t, m: int, order: list[int]) -> tuple[int, ...]:
    """Addition table of the same group with element ``order[x]`` renamed
    ``x``; ``order[0]`` is 0, so the identity keeps index 0.  Rows and
    columns are gathered by ``itemgetter`` and renamed in one pass, into
    the tuple that pass makes: both kernels take any sequence of ints,
    and an ``array`` copy of it cost a third of the relabeling."""
    new_of = [0] * m
    for new, old in enumerate(order):
        new_of[old] = new
    columns = itemgetter(*order)
    sums: list[int] = []
    for old in order:
        sums += columns(add_t[old * m:(old + 1) * m])
    return itemgetter(*sums)(new_of)


def _find_any(graph: SimpleGraph, spec: GroupSpec, notion: str,
              budget: int | None = DEFAULT_BUDGET,
              split: int | None = None) -> SearchOutcome:
    """Some certified ``notion`` labeling of ``graph`` over ``spec`` (see
    ``_instance``): a find-any search, the same labeling on every run but
    not necessarily the lex-first one.

    When translating every label is a symmetry (every bound uniform and
    every derived item the sum of the same number of slots, as on a
    cycle's vertices), slot 0 keeps label 0; otherwise it is free, as on
    the edges of a path.  The search restarts with node cutoffs
    ``RESTART_UNIT`` times the Luby sequence.  Restart 1 searches labels
    in enumeration order and every later restart the labels 1..m-1 in an
    order drawn from ``RESTART_SEED``, so results are deterministic.  No
    restart prunes by the symmetry table, so restart 1 reproduces the
    lex-first search only with that table off: an instance that search
    solves within one unit gets its labeling, and on a cycle its node
    count too.  On a path restart 1 also tries the first labels the
    lex-first search skips by orbit, and counts each first label as a
    node, where the lex-first search makes it a branch's prefix.
    All restarts together spend at most the budget share of one of
    ``split`` root branches (default: one per element, as the lex-first
    search gives its one kept branch); ``budget=None`` is unbounded.  A
    restart that exhausts its instance proves that no labeling exists:
    NotExists.  Nothing bounds it by the lex-first search's node count,
    only by its share: an instance that search solves after more than one
    unit may cost more here, or come out Unknown.
    """
    import random

    instance = _instance(graph, spec, notion)
    if instance is None:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    s, bounds, members = instance
    m = spec.order
    fixed = (s, *bounds, *_generic_structures(members, s))
    prefix = [0] if _translates(bounds, {len(x) for x in members}) else []
    # the first and largest of the shares ``_shares`` would plan
    cap = _norm_budget(budget)
    if cap >= 0:
        cap = -(-cap // (split or m))
    add_t = table = op_tables(spec)[0]
    rng = random.Random(RESTART_SEED)
    order = list(range(m))
    spent = 0
    restart = 1
    while True:
        cutoff = _luby(restart) * RESTART_UNIT
        if cap >= 0:
            cutoff = min(cutoff, cap - spent)
        status, found, nodes = _run_branch(
            ("generic", (m, table, *fixed, prefix, cutoff)))
        spent += nodes
        if status != BUDGET or spent == cap:
            break
        restart += 1
        order[1:] = rng.sample(range(1, m), m - 1)
        table = _relabeled(add_t, m, order)
    if status != FOUND:
        return SearchOutcome(_STATUS_NAME[status], None, spent)
    cert = _certified(graph, spec, notion, [order[x] for x in found])
    return SearchOutcome(STATUS_FOUND, cert, spent)


# ---------------------------------------------------------------------------
# search entry points


def search_ea_cordial(graph: SimpleGraph, spec: GroupSpec,
                      budget: int | None = DEFAULT_BUDGET, workers: int = 1,
                      prefix: tuple[Element, ...] = ()) -> SearchOutcome:
    """Lex-first edge labeling with equitable edge and vertex-sum classes.

    ``prefix`` pins the labels of the first edges (by storage order); the
    certificate, when Found, is the lexicographically first valid
    extension of it.
    """
    return _search_labeling(graph, spec, NOTION_EA_CORDIAL, prefix, budget,
                            workers)


def search_a_cordial(graph: SimpleGraph, spec: GroupSpec,
                     budget: int | None = DEFAULT_BUDGET, workers: int = 1,
                     prefix: tuple[Element, ...] = ()) -> SearchOutcome:
    """Lex-first vertex labeling with equitable vertex and edge-sum classes."""
    return _search_labeling(graph, spec, NOTION_A_CORDIAL, prefix, budget,
                            workers)


def search_a_antimagic(graph: SimpleGraph, spec: GroupSpec,
                       budget: int | None = DEFAULT_BUDGET,
                       workers: int = 1) -> SearchOutcome:
    """Injective edge labels with pairwise distinct vertex sums, |T| = |A|.

    On a tree of group order these are the equitable bounds (every class
    holds at most one label and at most one sum), so the instance, the
    lex-first certificate and the node count are those of
    :func:`search_ea_cordial`.
    """
    return _search_labeling(graph, spec, NOTION_A_ANTIMAGIC, (), budget,
                            workers)


def search_a_star_antimagic(graph: SimpleGraph, spec: GroupSpec,
                            budget: int | None = DEFAULT_BUDGET,
                            workers: int = 1) -> SearchOutcome:
    """Bijective nonzero edge labels with pairwise distinct vertex sums."""
    return _search_labeling(graph, spec, NOTION_A_STAR_ANTIMAGIC, (), budget,
                            workers)


def search_rstar_sequence(spec: GroupSpec,
                          budget: int | None = DEFAULT_BUDGET) -> SearchOutcome:
    """Lex-first difference-distinct ordering of the nonzero elements with
    a star position (one term the sum of its cyclic neighbours).

    Degenerate below three nonzero elements: NotExists without a search.
    Only sequences starting with element 1 are searched: every rotation of
    a solution is one, so the lex-first sequence starts with it.  That one
    kernel call gets the share of the budget the 1 has among the m - 1
    nonzero first elements.  Every automorphism maps a solution to one, so
    below the 1 the kernel prunes by the symmetry table as the labeling
    searches do.
    """
    check_searchable(spec)
    _check_depth(spec.order)
    m = spec.order
    if m - 1 < 3:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    add_t, neg_t = op_tables(spec)
    share = _shares(_norm_budget(budget), m - 1)[0]
    r = _run_branch(("rstar", (m, add_t, neg_t, [1], share,
                               stabilizer_table(spec))))
    if r[0] != FOUND:
        return SearchOutcome(_STATUS_NAME[r[0]], None, r[-1])
    cert = RStarSequence(spec, _labels_from_indices(spec, r[1]), r[2])
    return SearchOutcome(STATUS_FOUND, cert, r[-1])


def compute_sigma_max(spec: GroupSpec,
                      budget: int | None = None) -> SigmaMaxResult:
    """Exact maximum of distinct cyclic pair sums over all element cycles.

    Exhaustive branch-and-bound with the start pinned at zero, every
    later element least in its orbit under the automorphisms fixing the
    earlier ones and mirror orderings skipped; unbounded by default (the
    instances are tiny).
    """
    check_searchable(spec)
    _check_depth(spec.order)
    add_t, _ = op_tables(spec)
    status, value, cycle, nodes = _run_branch(
        ("sigma", (spec.order, add_t, _norm_budget(budget),
                   stabilizer_table(spec))))
    witness = None
    if cycle is not None:
        witness = HamiltonianCycle(spec, _labels_from_indices(spec, cycle))
        if witness.distinct_sum_count != value:
            raise InternalCheckError("witness cycle does not attain the reported value")
    name = STATUS_FOUND if status == FOUND else STATUS_UNKNOWN
    return SigmaMaxResult(name, value, witness, nodes)
