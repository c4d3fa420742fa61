"""Exhaustive searches with certificates, budgets, and parallel splitting.

Every search enumerates labels in group enumeration order at each slot, so
a Found outcome always carries the lexicographically first solution, a
NotExists outcome means the pruned space was exhausted, and an Unknown
outcome means the node budget ran out first.  Node accounting is defined
by the kernels: one node per placement attempt.  Every labeling search,
on a path, cycle or tree, runs on the one labeling kernel, built from the
graph's slot/derived-sum incidence.  Instances deeper than ``MAX_DEPTH``
levels are refused with ``CapExceededError`` before any kernel runs.

Every search is split into one branch per first-slot label, and each
label gets a fixed share of the budget.  Without a prefix, only the labels
that are least in their orbit under the instance's symmetries run, each
with the share it has among all first-slot labels (the lex-first solution
is the least member of its orbit, so the other branches cannot hold it,
nor a solution the least branch lacks).  With a prefix every label runs.
Branches are merged in label order, and ``workers`` only decides how many
branches run concurrently, so parallelism never changes results; branches
still running when the answer is known are terminated.

The one exception to lex-first is ``find_equitable_cycle``, the find-any
search behind the construct route ``rainbow-cycle``: it restarts on
relabeled copies of its instance and returns some certified labeling, the
same one on every run, within the node share its lex-first search would
get.
"""

from __future__ import annotations

import os
import sys
import threading
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from . import _kernel
from ._kernel import BUDGET, EXHAUSTED, FOUND
from ._vocab import (
    DEFAULT_BUDGET,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    check_searchable,
    check_workers,
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
)
from .labelings import (
    EdgeLabeling,
    VertexLabeling,
    verify_a_antimagic,
    verify_a_cordial,
    verify_a_star_antimagic,
    verify_ea_cordial,
)

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


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one search: status, certificate (when Found), and cost."""

    status: str
    certificate: object | None
    nodes_explored: int


@dataclass(frozen=True)
class RStarSequence:
    """An ordering of the nonzero elements whose cyclic consecutive
    differences are pairwise distinct, with a marked position equal to
    the sum of its two cyclic neighbours."""

    group: GroupSpec
    seq: tuple[Element, ...]
    star_index: int

    def __post_init__(self) -> None:
        from .groups import add, negate, check_element

        object.__setattr__(self, "seq", tuple(tuple(a) for a in self.seq))
        spec = self.group
        zero = spec.zero()
        if len(self.seq) != spec.order - 1:
            raise InvalidSpecError("sequence must list every nonzero element once")
        seen = set()
        for a in self.seq:
            check_element(spec, a)
            if a == zero or a in seen:
                raise InvalidSpecError("sequence must list every nonzero element once")
            seen.add(a)
        n = len(self.seq)
        diffs = set()
        for i in range(n):
            d = add(spec, self.seq[i], negate(spec, self.seq[i - 1]))
            if d in diffs:
                raise InvalidSpecError("cyclic consecutive differences collide")
            diffs.add(d)
        i = self.star_index
        if not 0 <= i < n:
            raise InvalidSpecError("star index out of range")
        if add(spec, self.seq[i - 1], self.seq[(i + 1) % n]) != self.seq[i]:
            raise InvalidSpecError("star position is not the sum of its neighbours")


@dataclass(frozen=True)
class HamiltonianCycle:
    """A cyclic ordering of all group elements, starting at zero, and
    the number of distinct sums of its cyclic neighbours."""

    group: GroupSpec
    order: tuple[Element, ...]
    distinct_sum_count: int = field(init=False)

    def __post_init__(self) -> None:
        from .groups import add, check_element

        object.__setattr__(self, "order", tuple(tuple(a) for a in self.order))
        if len(self.order) != self.group.order or len(set(self.order)) != len(self.order):
            raise InvalidSpecError("cycle must visit every element exactly once")
        for a in self.order:
            check_element(self.group, a)
        if self.order and self.order[0] != self.group.zero():
            raise InvalidSpecError("cycle must start at zero")
        n = len(self.order)
        sums = len({add(self.group, self.order[i - 1], self.order[i])
                    for i in range(n)})
        object.__setattr__(self, "distinct_sum_count", sums)


@dataclass(frozen=True)
class SigmaMaxResult:
    """Maximum number of distinct cyclic pair sums, with a witness cycle.

    ``status`` is Found when the value is exact (full exhaustion) and
    Unknown when the budget ran out (the value is then a lower bound).
    """

    status: str
    value: int
    witness: HamiltonianCycle | None
    nodes_explored: int


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
    """Run branch tasks, collecting results in branch order.

    Stops at the first branch that is not exhausted.  With workers > 1 the
    next branches run meanwhile, at most ``workers`` at a time; those still
    running then are terminated, so outcomes match the sequential run
    exactly.  Never more processes run than branches or CPUs.
    """
    results = []
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        for t in tasks:
            r = _run_branch(t)
            results.append(r)
            if r[0] != EXHAUSTED:
                break
        return results
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


def _split_solve(kind: str, fixed_args: tuple, prefix: list, first_label: int,
                 kept, budget: int, workers: int) -> tuple[int, object, int]:
    """Root-split a kernel call on the labels of the first free slot.

    ``fixed_args`` starts with the group order, which every kernel takes
    first; the free slot can take the labels ``first_label`` up to it.
    Only the labels in ``kept`` run, each with the budget share it has
    among all of them.  ``kept`` is None when the prefix fills every
    slot: one call then runs on the whole budget.
    """
    if kept is None:
        r = _run_branch((kind, fixed_args + (prefix, budget)))
        return (r[0], r if r[0] == FOUND else None, r[-1])
    shares = _shares(budget, fixed_args[0] - first_label)
    tasks = [(kind, fixed_args + (prefix + [x], shares[x - first_label]))
             for x in kept]
    return _merge(_orchestrate(tasks, workers))


def _least_root_labels(spec: GroupSpec, bounds: tuple,
                       derived_sizes: set[int]) -> list[int]:
    """First-slot labels an unprefixed labeling search has to run.

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
      when every bound is constant on each of its orbits.

    Otherwise every label runs.
    """
    if len(derived_sizes) <= 1 and all(len(set(b)) == 1 for b in bounds):
        return [0]
    keys = automorphism_orbit_keys(spec)
    bound_of: dict = {}
    least: dict = {}
    for x, key in enumerate(keys):
        column = tuple(b[x] for b in bounds)
        if bound_of.setdefault(key, column) != column:
            return list(range(spec.order))
        least.setdefault(key, x)
    return list(least.values())


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


def _certified(graph: SimpleGraph, spec: GroupSpec, on_edges: bool,
               indices, verifier) -> EdgeLabeling | VertexLabeling:
    """The labeling a kernel found, re-checked by ``verifier``."""
    labels = _labels_from_indices(spec, indices)
    labeling = (EdgeLabeling if on_edges else VertexLabeling)(spec, labels)
    verdict = verifier(graph, labeling)
    if not verdict.ok:
        raise InternalCheckError(
            f"search produced a labeling that fails {verifier.__name__}: "
            f"{verdict.violation}")
    return labeling


def _search_labeling(graph: SimpleGraph, spec: GroupSpec, on_edges: bool,
                     slot_cap: list[int], slot_floor: list[int],
                     dcap: list[int], dfloor: list[int],
                     prefix: tuple[Element, ...], budget: int | None,
                     workers: int, verifier) -> SearchOutcome:
    """Lex-first labeling of the edges (``on_edges``) or vertices whose
    label classes and derived-sum classes stay within the given bounds,
    certified by ``verifier``.  Paths, cycles and trees all run on the
    one labeling kernel.
    """
    check_workers(workers)
    pfx = [element_index(spec, a) for a in prefix]
    budget = _norm_budget(budget)
    s = len(graph.edges) if on_edges else graph.n
    _check_depth(s)
    m = spec.order
    # a derived item per vertex (its incident edge slots) or per edge (its
    # two endpoint slots)
    members = graph.incidence() if on_edges else graph.edges
    # items no slot feeds (isolated vertices) sum to 0 and never complete
    empty = sum(not x for x in members)
    dcap = [dcap[0] - empty, *dcap[1:]]
    dfloor = [max(0, dfloor[0] - empty), *dfloor[1:]]
    if dcap[0] < 0:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    fixed = (m, op_tables(spec)[0], s, slot_cap, slot_floor, dcap, dfloor,
             *_generic_structures(members, s))
    if len(pfx) >= s:
        kept = None
    elif pfx:
        kept = range(m)
    else:
        kept = _least_root_labels(spec, (slot_cap, slot_floor, dcap, dfloor),
                                  {len(x) for x in members})
    status, payload, nodes = _split_solve("generic", fixed, pfx, 0, kept,
                                          budget, workers)
    if status != FOUND:
        return SearchOutcome(_STATUS_NAME[status], None, nodes)
    return SearchOutcome(STATUS_FOUND, _certified(graph, spec, on_edges,
                                                  payload[1], verifier), nodes)


def _luby(i: int) -> int:
    """Term ``i`` (from 1) of the restart sequence of Luby, Sinclair and
    Zuckerman (IPL 1993): 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


def _relabeled(add_t, m: int, order: list[int]) -> array:
    """Addition table of the same group with element ``order[x]`` renamed
    ``x``; ``order[0]`` is 0, so the identity keeps index 0.  Rows and
    columns are gathered by ``itemgetter`` and renamed in one pass."""
    new_of = [0] * m
    for new, old in enumerate(order):
        new_of[old] = new
    columns = itemgetter(*order)
    sums: list[int] = []
    for old in order:
        sums += columns(add_t[old * m:(old + 1) * m])
    return array("i", itemgetter(*sums)(new_of))


def find_equitable_cycle(cycle: SimpleGraph, spec: GroupSpec,
                         budget: int | None = DEFAULT_BUDGET,
                         split: int | None = None) -> SearchOutcome:
    """Some equitable (a-cordial) vertex labeling of ``cycle`` over
    ``spec``, with label 0 first.

    A find-any search: any certified labeling will do, not the lex-first
    one.  On a cycle every class bound is uniform and every derived sum
    adds two slots, so translating every label is a symmetry and slot 0
    keeps label 0.  The search restarts with node cutoffs ``RESTART_UNIT``
    times the Luby sequence; restart 1 searches labels in enumeration
    order, so an instance the lex-first search solves within one unit
    gets its labeling and node count, and every later restart searches
    the labels 1..m-1 in an order drawn from ``RESTART_SEED``, so results
    are deterministic.  All restarts together spend at most the budget
    share of one of ``split`` root branches (default: one per element, as
    the lex-first search gives its one kept branch); ``budget=None`` is
    unbounded.  A restart that exhausts its instance proves that no
    labeling exists: NotExists.  Nothing bounds it by the lex-first
    search's node count, only by its share: an instance that search solves
    after more than one unit may cost more here, or come out Unknown.
    """
    import random

    check_searchable(spec)
    if cycle.kind != CYCLE:
        raise InvalidGraphError("find-any searches run on cycles")
    n = cycle.n
    _check_depth(n)
    m = spec.order
    # n slots and n derived sums: the same equitable bounds on both
    cap_floor = _equitable_bounds(n, m)
    fixed = (n, *cap_floor, *cap_floor, *_generic_structures(cycle.edges, n))
    cap = _shares(_norm_budget(budget), split or m)[0]
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
            ("generic", (m, table, *fixed, [0], cutoff)))
        spent += nodes
        if status != BUDGET or spent == cap:
            break
        restart += 1
        order[1:] = rng.sample(range(1, m), m - 1)
        table = _relabeled(add_t, m, order)
    if status != FOUND:
        return SearchOutcome(_STATUS_NAME[status], None, spent)
    labeling = _certified(cycle, spec, False, [order[x] for x in found],
                          verify_a_cordial)
    return SearchOutcome(STATUS_FOUND, labeling, spent)


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
    check_searchable(spec)
    scap, sfloor = _equitable_bounds(len(graph.edges), spec.order)
    dcap, dfloor = _equitable_bounds(graph.n, spec.order)
    return _search_labeling(graph, spec, True, scap, sfloor, dcap, dfloor,
                            prefix, budget, workers, verify_ea_cordial)


def search_a_cordial(graph: SimpleGraph, spec: GroupSpec,
                     budget: int | None = DEFAULT_BUDGET, workers: int = 1,
                     prefix: tuple[Element, ...] = ()) -> SearchOutcome:
    """Lex-first vertex labeling with equitable vertex and edge-sum classes."""
    check_searchable(spec)
    scap, sfloor = _equitable_bounds(graph.n, spec.order)
    dcap, dfloor = _equitable_bounds(len(graph.edges), spec.order)
    return _search_labeling(graph, spec, False, scap, sfloor, dcap, dfloor,
                            prefix, budget, workers, verify_a_cordial)


def _check_tree_order(graph: SimpleGraph, spec: GroupSpec) -> None:
    if graph.kind not in (PATH, TREE):
        raise InvalidGraphError("antimagic searches need a path or tree")
    if graph.n != spec.order:
        raise InvalidSpecError(
            f"tree order {graph.n} must equal group order {spec.order}")


def search_a_antimagic(graph: SimpleGraph, spec: GroupSpec,
                       budget: int | None = DEFAULT_BUDGET,
                       workers: int = 1) -> SearchOutcome:
    """Injective edge labels with pairwise distinct vertex sums, |T| = |A|.

    On a tree of group order these are the equitable bounds (every class
    holds at most one label and at most one sum), so the instance, the
    lex-first certificate and the node count are those of
    :func:`search_ea_cordial`.
    """
    check_searchable(spec)
    _check_tree_order(graph, spec)
    scap, sfloor = _equitable_bounds(len(graph.edges), spec.order)
    dcap, dfloor = _equitable_bounds(graph.n, spec.order)
    return _search_labeling(graph, spec, True, scap, sfloor, dcap, dfloor,
                            (), budget, workers, verify_a_antimagic)


def search_a_star_antimagic(graph: SimpleGraph, spec: GroupSpec,
                            budget: int | None = DEFAULT_BUDGET,
                            workers: int = 1) -> SearchOutcome:
    """Bijective nonzero edge labels with pairwise distinct vertex sums."""
    check_searchable(spec)
    _check_tree_order(graph, spec)
    m = spec.order
    nonzero_once = [0] + [1] * (m - 1)
    return _search_labeling(graph, spec, True, nonzero_once, nonzero_once,
                            [1] * m, [1] * m, (), budget, workers,
                            verify_a_star_antimagic)


def search_rstar_sequence(spec: GroupSpec, budget: int | None = DEFAULT_BUDGET,
                          workers: int = 1) -> SearchOutcome:
    """Lex-first difference-distinct ordering of the nonzero elements with
    a star position (one term the sum of its cyclic neighbours).

    Degenerate below three nonzero elements: NotExists without a search.
    Only sequences starting with element 1 are searched: every rotation of
    a solution is one, so the lex-first sequence starts with it.
    """
    check_workers(workers)
    check_searchable(spec)
    _check_depth(spec.order)
    m = spec.order
    if m - 1 < 3:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    add_t, neg_t = op_tables(spec)
    fixed = (m, add_t, neg_t)
    status, payload, nodes = _split_solve(
        "rstar", fixed, [], 1, [1], _norm_budget(budget), workers)
    if status != FOUND:
        return SearchOutcome(_STATUS_NAME[status], None, nodes)
    seq = _labels_from_indices(spec, payload[1])
    cert = RStarSequence(spec, seq, payload[2])
    return SearchOutcome(STATUS_FOUND, cert, nodes)


def compute_sigma_max(spec: GroupSpec,
                      budget: int | None = None) -> SigmaMaxResult:
    """Exact maximum of distinct cyclic pair sums over all element cycles.

    Exhaustive branch-and-bound with the start pinned at zero and mirror
    orderings skipped; unbounded by default (the instances are tiny).
    """
    check_searchable(spec)
    _check_depth(spec.order)
    add_t, _ = op_tables(spec)
    status, value, cycle, nodes = _run_branch(
        ("sigma", (spec.order, add_t, _norm_budget(budget))))
    witness = None
    if cycle is not None:
        witness = HamiltonianCycle(spec, _labels_from_indices(spec, cycle))
        if witness.distinct_sum_count != value:
            raise InternalCheckError("witness cycle does not attain the reported value")
    name = STATUS_FOUND if status == FOUND else STATUS_UNKNOWN
    return SigmaMaxResult(name, value, witness, nodes)
