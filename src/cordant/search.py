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
those stabilizers per group (``_stabilizers.stabilizer_table``).  With a
prefix only the automorphisms fixing every prefix label are symmetries:
they prune the first free slot and those below it from the table's state
after the prefix.  The graph's own automorphisms prune too
(``_graph_symmetry``): twin leaves bound one another's labels from below,
and without a prefix a cycle's lex-first labeling is no later than its
image under a rotation or reflection composed with the translation that
maps that image's first label back to 0, which the kernels check as the
slots deciding each comparison are placed.  Branches are merged in label
order, and ``workers`` only decides how many branches run concurrently, so
parallelism never changes results; branches still running when the
answer is known are terminated.  Run one at a time, every branch of a
search is one kernel call.

The R*-sequence and sigma-max searches (``search_rstar_sequence``,
``compute_sigma_max`` and their records) are not split: each is one
kernel call.  They are defined in ``_orderings`` and read here on first
use (PEP 562), so a labeling search never compiles them and they never
compile this module.  The kernel calls, budget shares, depth cap and
``SearchOutcome`` that both families use are in ``_runner``.

The one exception to lex-first is ``_find_any``, the find-any search
behind the construct routes ``rainbow-cycle`` (a cycle's vertices) and
``sequence`` (the edges of P_|A|): it restarts on relabeled copies of its
instance and returns some certified labeling, the same one on every run,
within the node share its lex-first search would get.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from operator import itemgetter

from ._kernel import BUDGET, EXHAUSTED, FOUND
# MAX_DEPTH stays readable here; the labeling searches call ``_shares``
# and ``_run_branch`` through this module, where tests and
# perfbench/spans.py swap them
from ._runner import (  # noqa: F401
    _STATUS_NAME,
    MAX_DEPTH,
    SearchOutcome,
    _check_depth,
    _labels_from_indices,
    _norm_budget,
    _run_branch,
    _shares,
)
from ._stabilizers import automorphism_orbit_keys, stabilizer_table
# STATUS_UNKNOWN stays readable here
from ._vocab import (  # noqa: F401
    DEFAULT_BUDGET,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    check_searchable,
    check_workers,
)
from .errors import InternalCheckError, InvalidGraphError, InvalidSpecError
from .graphs import CYCLE, PATH, TREE, SimpleGraph
from .groups import Element, GroupSpec, element_index, op_tables
from .labelings import EdgeLabeling, VertexLabeling, _computed

# defined in ``_orderings``, read here on first use
_ORDERINGS = ("HamiltonianCycle", "RStarSequence", "SigmaMaxResult",
              "compute_sigma_max", "search_rstar_sequence")


def __getattr__(name: str):
    if name not in _ORDERINGS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _orderings
    value = getattr(_orderings, name)
    globals()[name] = value
    return value


#: Node cutoff of a find-any restart per term of the Luby sequence.
RESTART_UNIT = 10_000

#: Seed of the label orders that find-any restarts after the first search.
RESTART_SEED = 4


def _equitable_bounds(count: int, m: int) -> tuple[list[int], list[int]]:
    q, r = divmod(count, m)
    cap = q + (1 if r else 0)
    return [cap] * m, [q] * m


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


def _check_notion(graph: SimpleGraph, spec: GroupSpec, notion: str) -> None:
    """Reject a group no search runs on, and an antimagic search on a
    graph that is not a path or tree of the group's order."""
    check_searchable(spec)
    if notion in (NOTION_A_ANTIMAGIC, NOTION_A_STAR_ANTIMAGIC):
        if graph.kind not in (PATH, TREE):
            raise InvalidGraphError("antimagic searches need a path or tree")
        if graph.n != spec.order:
            raise InvalidSpecError(
                f"tree order {graph.n} must equal group order {spec.order}")


def _slots(graph: SimpleGraph, notion: str) -> tuple[int, list]:
    """The slots of a ``notion`` labeling of ``graph``, the vertices
    (a-cordial) or the edges, and its derived items, each listing the
    slots it sums: per edge its two endpoint slots, or per vertex its
    incident edge slots."""
    if notion == NOTION_A_CORDIAL:
        s, members = graph.n, graph.edges
    else:
        s, members = graph.edge_count, graph.incidence()
    _check_depth(s)
    return s, members


def _class_bounds(spec: GroupSpec, notion: str, s: int, items: int,
                  empty: int) -> tuple | None:
    """The class bounds of a ``notion`` instance with ``s`` slots and
    ``items`` derived items, ``empty`` of them fed by no slot: per label,
    the slot cap and floor and the derived-sum cap and floor, label and
    induced-sum classes equitable, or for a-star-antimagic every nonzero
    label and every sum once.  None when no labeling exists by counting
    alone."""
    m = spec.order
    if notion == NOTION_A_STAR_ANTIMAGIC:
        slot_cap = slot_floor = [0] + [1] * (m - 1)
        dcap = dfloor = [1] * m
    else:
        slot_cap, slot_floor = _equitable_bounds(s, m)
        dcap, dfloor = _equitable_bounds(items, m)
    # items no slot feeds (isolated vertices) sum to 0 and never complete
    dcap = [dcap[0] - empty, *dcap[1:]]
    dfloor = [max(0, dfloor[0] - empty), *dfloor[1:]]
    if dcap[0] < 0:
        return None
    return slot_cap, slot_floor, dcap, dfloor


def _instance(graph: SimpleGraph, spec: GroupSpec, notion: str
              ) -> tuple[int, tuple, list] | None:
    """The labeling kernel's instance of a ``notion`` labeling of
    ``graph``: (slots, class bounds, derived items), as ``_slots`` and
    ``_class_bounds`` give them.  None when no labeling exists by
    counting alone."""
    _check_notion(graph, spec, notion)
    s, members = _slots(graph, notion)
    bounds = _class_bounds(spec, notion, s, len(members),
                           sum(not x for x in members))
    return None if bounds is None else (s, bounds, members)


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


def _graph_side(graph: SimpleGraph, notion: str, fixed: int = 0) -> tuple:
    """The set-up of a ``notion`` labeling search on ``graph`` that the
    group does not enter, for a prefix of ``fixed`` labels: (slots,
    derived items, the kernel's CSR structures, the derived items'
    sizes, the shape, the graph symmetry).  The shape (slots, items,
    items no slot feeds, whether every item has one size) is all that
    ``_group_side`` reads of it.  The graph symmetry is
    ``_graph_symmetry``'s untranslated one; ``_run_labeling`` composes it
    with translation where the group side says so."""
    s, members = _slots(graph, notion)
    sizes = {len(x) for x in members}
    shape = (s, len(members), sum(not x for x in members), len(sizes) <= 1)
    sym = None
    if fixed < s:
        sym = _graph_symmetry(
            graph, None if notion == NOTION_A_CORDIAL else members, s, fixed,
            None)
    return s, members, _generic_structures(members, s), sizes, shape, sym


def _group_side(spec: GroupSpec, notion: str, side: tuple,
                prefix: list[int] = ()) -> tuple | None:
    """The rest of the set-up of a ``notion`` search over ``spec`` on a
    graph whose ``_graph_side`` is ``side``, for ``prefix`` (label
    indices): (class bounds, ``op_tables``, the negation table when
    translation is a symmetry, else None, and the root labels kept and
    the symmetry table of ``_root_labels``).  It reads only the shape of
    ``side``, so it serves every graph of that shape.  None when no
    labeling exists by counting alone."""
    s, _, _, sizes, (_, items, empty, _), _ = side
    bounds = _class_bounds(spec, notion, s, items, empty)
    if bounds is None:
        return None
    add_t, neg_t = op_tables(spec)
    kept = table = None
    translated = False
    if len(prefix) < s:
        # _root_labels reads the sizes only as whether they are one size
        kept, table, translated = _root_labels(spec, bounds, sizes, prefix)
    return bounds, add_t, neg_t if translated else None, kept, table


def _run_labeling(graph: SimpleGraph, spec: GroupSpec, notion: str,
                  side: tuple, group: tuple | None, prefix: list[int],
                  budget: int, workers: int) -> SearchOutcome:
    """The lex-first ``notion`` labeling of ``graph`` over ``spec`` that
    extends ``prefix`` (label indices), with its certificate, by the
    set-up ``side`` (``_graph_side``) and ``group`` (``_group_side``) and
    a normalized ``budget``.  Paths, cycles and trees all run on the one
    labeling kernel, pruned by the symmetries of the group
    (``_root_labels``) and of the graph (``_graph_symmetry``)."""
    if group is None:
        return SearchOutcome(STATUS_NOT_EXISTS, None, 0)
    s, _, structures, _, _, sym = side
    bounds, add_t, neg_t, kept, table = group
    if sym is not None and neg_t is not None:
        sym = (*sym[:2], neg_t)
    status, payload, nodes = _split_solve(
        (spec.order, add_t, s, *bounds, *structures), prefix, kept, budget,
        workers, (table, sym))
    if status != FOUND:
        return SearchOutcome(_STATUS_NAME[status], None, nodes)
    return SearchOutcome(STATUS_FOUND, _certified(graph, spec, notion,
                                                  payload[1]), nodes)


def _search_labeling(graph: SimpleGraph, spec: GroupSpec, notion: str,
                     prefix: tuple[Element, ...], budget: int | None,
                     workers: int) -> SearchOutcome:
    """Lex-first ``notion`` labeling (see ``_run_labeling``), with its
    certificate, set up from scratch."""
    _check_notion(graph, spec, notion)
    side = _graph_side(graph, notion, len(prefix))
    check_workers(workers)
    pfx = [element_index(spec, a) for a in prefix]
    return _run_labeling(graph, spec, notion, side,
                         _group_side(spec, notion, side, pfx), pfx,
                         _norm_budget(budget), workers)


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
