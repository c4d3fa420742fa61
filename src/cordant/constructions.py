"""Explicit constructions for path labelings.

Everything here either transfers one kind of labeling into another
(cycle to path, vertex side to edge side, big group to quotient view),
builds a labeling outright (block construction over a group with a
cyclic part of order 4m, a harmonious ordering opened at zero: the
element enumeration of an odd-order group, or a found core ordering
times odd cyclic factors; consecutive vertex sums on a path over Z_k),
or finds one on the path itself (elementary 2-groups).  The closed-form
deciders live in ``deciders``, which this module re-exports.

Every constructor verifies the labeling it returns exactly once, at its
end, and raises InternalCheckError on a mismatch, so a returned labeling
is always a certified one; the two dispatchers and the block
construction verify by building the certificate their Found result
carries.  The steps before that point hand on unchecked values: the
dispatchers build their paths with private helpers
(``_harmonious_order``, ``_ant_path_labels``), not through the public
transfer maps, which also check their input because it may come from
outside.  A searched cycle or path is certified by the search that
found it, and the ``sequence`` route's Found carries that certificate.

Only the ``rainbow-cycle`` and ``sequence`` routes search, both with the
find-any search ``search._find_any``, and they import ``search`` when
they run: the deciders and every other route never load it.  Before
they search, both look up the package data ``fixtures/cores.json``
(read once per process, on their first call): the answers their search
cannot find within its default budget share, each found once by an
unbounded find-any search and written, with that call and its node
count, by ``tools/pin_cores.py``.
"""

from __future__ import annotations

from math import ceil

from ._vocab import (
    DEFAULT_BUDGET,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_EA_CORDIAL,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    Record,
    set_field,
)
from .deciders import (
    decide_cycle_zk_cordial,
    decide_path_a_antimagic,
    decide_path_ek_cordial,
    decide_tree_2mod4_obstruction,
    sigma_max_formula,
)
from .errors import (
    InapplicableGroupError,
    InternalCheckError,
    PreconditionError,
)
from .graphs import CYCLE, SimpleGraph, cycle_graph, path_graph
from .groups import (
    AntDecomposition,
    Element,
    GroupSpec,
    _enumeration,
    add,
    ant_decomposition,
    canonicalize_spec,
    group,
    is_elementary_two,
    isomorphism,
    negate,
    sylow_split,
)
from .labelings import (
    EdgeLabeling,
    VertexLabeling,
    _computed,
    verify_a_cordial,
    verify_ea_cordial,
)

STATUS_IMPOSSIBLE = "Impossible"

__all__ = [
    "ConstructionResult",
    "STATUS_IMPOSSIBLE",
    "construct_ant_path",
    "construct_path_antimagic",
    "construct_path_ek",
    "cycle_to_path",
    "cycle_vertex_to_edge",
    "decide_cycle_zk_cordial",
    "decide_path_a_antimagic",
    "decide_path_ek_cordial",
    "decide_tree_2mod4_obstruction",
    "project_labeling",
    "sigma_max_formula",
]


class ConstructionResult(Record):
    """Outcome of a dispatching constructor.

    ``status`` is Found (labeling attached), Impossible (no labeling
    exists, by a decider), or Unknown (a search route ran out of
    budget).  ``route`` names the branch that produced the outcome and
    ``nodes_explored`` counts search work, 0 for formula routes.
    ``certificate``, not a field, is the ``Certificate`` that verified a
    dispatcher's Found labeling, and None on a result built by hand.
    """

    _fields = ("status", "labeling", "route", "nodes_explored")
    certificate = None

    def __init__(self, status: str, labeling: EdgeLabeling | None,
                 route: str, nodes_explored: int = 0) -> None:
        set_field(self, "status", status)
        set_field(self, "labeling", labeling)
        set_field(self, "route", route)
        set_field(self, "nodes_explored", nodes_explored)


#: the ``certificates`` module, once ``_found`` has imported it; an
#: import statement costs every call about a microsecond
_certificates = None


def _found(notion: str, path: SimpleGraph, f: EdgeLabeling, route: str,
           nodes: int = 0) -> ConstructionResult:
    """Found, with the certificate of ``f`` on ``path``: the one
    verification of a dispatcher's labeling."""
    global _certificates
    if _certificates is None:
        from . import certificates as _certificates

    cert = _certificates.make_edge_certificate(notion, path, f)
    if not cert.verdict.ok:
        raise InternalCheckError(
            f"route {route} failed verification ({cert.verdict.violation})")
    result = ConstructionResult(STATUS_FOUND, f, route, nodes)
    set_field(result, "certificate", cert)
    return result


# ---------------------------------------------------------------------------
# transfer maps

def cycle_vertex_to_edge(cycle: SimpleGraph, c: VertexLabeling) -> EdgeLabeling:
    """Copy cycle vertex labels onto the edges: edge (v_i, v_i+1) gets c(v_i).

    For an equitable vertex labeling the result is an equitable edge
    labeling with the same class structure shifted one notch: the new
    induced vertex labels are the old induced edge labels.  Requires the
    input to pass the vertex-side verifier.
    """
    if cycle.kind != CYCLE:
        raise PreconditionError("vertex-to-edge transfer is defined on cycles")
    if len(c.labels) != cycle.n:
        raise PreconditionError("vertex labeling does not fit the cycle")
    verdict = verify_a_cordial(cycle, c)
    if not verdict.ok:
        raise PreconditionError(
            f"input labeling is not equitable ({verdict.violation})")
    # edge i of a cycle is (i, i+1 mod n), so the label list carries over
    return EdgeLabeling(c.group, c.labels)


def cycle_to_path(cycle: SimpleGraph, f: EdgeLabeling
                  ) -> tuple[SimpleGraph, EdgeLabeling]:
    """Open an equitably edge-labeled cycle into an equitably labeled path.

    Shifts all labels by the first element whose class is full (count
    equal to ceil(n/|A|); an equitable labeling has one), deletes the
    first edge now labeled zero, and renumbers vertices starting just
    past the deleted edge.  Deleting a zero edge changes no vertex sum,
    and the shrunken zero class stays within the equitable band, so the
    result verifies again.
    """
    if cycle.kind != CYCLE:
        raise PreconditionError("input must be a cycle")
    verdict = verify_ea_cordial(cycle, f)
    if not verdict.ok:
        raise PreconditionError(
            f"cycle labeling is not equitable ({verdict.violation})")
    spec = f.group
    n = cycle.n
    target = ceil(n / spec.order)
    neg = negate(spec, next(g for g, count in
                            verdict.edge_class_counts.items()
                            if count == target))
    shifted = [add(spec, a, neg) for a in f.labels]
    cut = shifted.index(spec.zero())
    f_path = EdgeLabeling(
        spec, tuple(shifted[(cut + 1 + j) % n] for j in range(n - 1)))
    path = path_graph(n)
    out = verify_ea_cordial(path, f_path)
    if not out.ok:
        raise InternalCheckError(
            f"opened cycle lost equitability ({out.violation})")
    return path, f_path


def project_labeling(graph: SimpleGraph, f: EdgeLabeling, keep: int
                     ) -> EdgeLabeling:
    """Drop all but the first ``keep`` coordinates of every edge label.

    Coordinate dropping is a homomorphism, so induced vertex labels
    project the same way.  On a tree whose order equals the group order
    this keeps both count families equitable; that case is enforced, and
    the output is re-verified.
    """
    spec = f.group
    if not 0 <= keep <= spec.rank:
        raise PreconditionError("keep must select a prefix of the factors")
    sub = GroupSpec(spec.factors[:keep])
    if graph.edge_count != graph.n - 1 or not graph.is_connected():
        raise PreconditionError("projection guarantee needs a tree")
    if graph.n != spec.order:
        raise PreconditionError("projection guarantee needs order |A|")
    verdict = verify_ea_cordial(graph, f)
    if not verdict.ok:
        raise PreconditionError(
            f"input labeling is not equitable ({verdict.violation})")
    out = EdgeLabeling(sub, tuple(a[:keep] for a in f.labels))
    verdict = verify_ea_cordial(graph, out)
    if not verdict.ok:
        raise InternalCheckError(
            f"projection lost equitability ({verdict.violation})")
    return out


# ---------------------------------------------------------------------------
# block construction: Z_4m (+ odd part H) in k blocks of 4m vertices

def _block_column(j: int, m: int) -> list[int]:
    """Z_4m coordinates of the 4m - 1 edges inside block j.

    Each block alternates a low run (even edges) with a high run (odd
    edges), skipping one value so that exactly one residue is missing
    overall: 3m in block 0, 0 in odd blocks, 2m in later even blocks.
    """
    col = [0] * (4 * m - 1)
    if j == 0:
        col[0::2] = range(2 * m)
        col[1::2] = [*range(2 * m, 3 * m), *range(3 * m + 1, 4 * m)]
    elif j % 2 == 1:
        col[0::2] = range(2 * m, 4 * m)
        col[1::2] = range(1, 2 * m)
    else:
        col[0::2] = range(2 * m)
        col[1::2] = range(2 * m + 1, 4 * m)
    return col


def _ant_path_labels(spec: GroupSpec, dec: AntDecomposition
                     ) -> EdgeLabeling:
    """The block construction's labeling of P_|A|, not yet verified.

    With A = Z_4m + H as ``dec = ant_decomposition(spec)`` splits it
    and k = |H| odd, lays the path out as k blocks of 4m vertices joined
    by connector edges.  Within block j every edge carries element j of
    H in the odd coordinates: H's enumeration, an equitable labeling of
    C_k starting at zero (its harmonious ordering; see
    ``_harmonious_order``).  The Z_4m coordinates run through an
    interleaved low/high pattern that makes consecutive sums sweep all
    residues.  The labels are built coordinate column by column over
    Z_4m + H and carried to ``spec`` by the linear ``isomorphism``, so
    they are elements without a check.
    """
    m, odd = dec.four_m // 4, dec.odd_part
    base = _enumeration(odd)
    k = len(base)
    run = 4 * m - 1
    blocks = [_block_column(j, m) for j in range(min(k, 3))]
    first: list[int] = []
    odd_cols: list[list[int]] = [[] for _ in odd.factors]
    for j in range(k):
        # block 0, then odd blocks alike and later even blocks alike
        first += blocks[2 - j % 2 if j else 0]
        for col, x in zip(odd_cols, base[j]):
            col += [x] * run
        if j < k - 1:
            first.append(0 if j % 2 == 0 else 2 * m)
            for col, x in zip(odd_cols, base[j + 1]):
                col.append(x)
    carry = isomorphism(GroupSpec((dec.four_m,) + odd.factors), spec)
    labels = tuple(zip(*carry.columns([first, *odd_cols])))
    return _computed(EdgeLabeling, spec, labels)


def _ant_path(spec) -> ConstructionResult:
    """The block construction's Found, with the certificate of its one
    verification."""
    spec = group(spec)
    # the path's size cap refuses the order before any factoring or label
    path = path_graph(spec.order)
    dec = ant_decomposition(spec)
    if dec is None:
        raise InapplicableGroupError(
            f"{spec} has no cyclic direct factor of order 4m with m > 1")
    return _found(NOTION_EA_CORDIAL, path, _ant_path_labels(spec, dec),
                  "block")


def construct_ant_path(spec) -> EdgeLabeling:
    """Equitable edge labeling of P_|A| for groups with a Z_4m piece, m > 1.

    The block construction (see ``_ant_path_labels``), verified.  Every
    vertex sum is distinct, so the output is also an injective-distinct-sum
    labeling whenever anyone asks: on |A| vertices an ea-cordial verdict
    already means one sum per class.
    """
    return _ant_path(spec).labeling


# ---------------------------------------------------------------------------
# dispatcher: equitable Z_k edge labelings of paths

def construct_path_ek(n: int, k: int) -> ConstructionResult:
    """Equitable Z_k edge labeling of P_n, or Impossible, by formula.

    Impossible exactly when ``decide_path_ek_cordial`` says so; otherwise
    the ``consecutive-sums`` route writes the labeling down, with no
    search.  Number the vertices 1..n and let edge i join v_i and v_i+1.
    With s = n mod 2k and h = floor(s/2), pick (c, d, p):

    ==================  =====  ======  =============================
    residue             c      d       p (jump after vertex p)
    ==================  =====  ======  =============================
    s odd               h + 1  h       none (p = n)
    s even, s <= k      0      -h - 2  h + 1
    s even, s > k       0      -h - 1  none (p = n)
    ==================  =====  ======  =============================

    Then f_1 = c and f_i = (d + i + [i > p]) - f_(i-1) mod k for
    i = 2..n-1.  So vertex 1 sums to c, interior vertex i to d + i (plus
    1 past p), and vertex n to f_(n-1).

    Why it is equitable, for every k.  Write n = 2kq + s.  The recurrence
    gives f_i = f_(i-2) + 1 for i >= 3, plus 1 more at i = p + 1, so the
    odd- and the even-numbered edges each carry a run of consecutive
    residues, the run through the jump skipping one value.  The interior
    sums run through consecutive residues too, with vertex 1's c in the
    gap the jump leaves.  A run of L consecutive integers covers every
    residue floor(L/k) times and a window of L mod k residues once more.
    Over 2q per class, these classes get one more:

    - s odd: edges 1..2h; vertex sums h..3h (they are h..h+n-1);
    - s even, s > k: edges 1-h..h-1; vertex sums 1-h..h-1, and 0 once
      more (vertex 1; 0 is not doubled in that window since h < k);
    - s = 0: edges all but 0 (one less there); vertex sums none;
    - s even, 0 < s <= k: edges -h..h less -1 and (h+1)/2 (h odd), or
      -h..h-1 less -h/2 (h even); vertex sums -h..h-2 and f_(n-1),
      which is h (h odd) or h-1 (h even).

    Every window is shorter than 2k, so no class is two ahead of
    another, except at s = k with h odd, where h = -h mod k is counted
    twice: that is k = 2 mod 4 with n an odd multiple of k, which the
    decider rules out.

    Periodicity.  (c, d, p) depend on n only through s, so the labels
    for n + 2k start with the labels for n.  Past p they are 2k-periodic,
    so appending 2k edges adds exactly 2 to every edge class and to
    every vertex class: once n > p, whether the labeling is equitable
    depends only on s, and the checks for n < 4k cover every n.

    The labeling is verified once before it is returned.
    """
    if n < 2:
        raise PreconditionError("paths need n >= 2")
    if k < 2:
        raise PreconditionError("modulus must be at least 2")
    if not decide_path_ek_cordial(n, k):
        return ConstructionResult(STATUS_IMPOSSIBLE, None, "decided-impossible")
    path = path_graph(n)  # its size cap refuses n before the labels exist
    s = n % (2 * k)
    h = s // 2
    if s % 2 == 1:
        c, d, p = h + 1, h, n
    elif s <= k:
        c, d, p = 0, -h - 2, h + 1
    else:
        c, d, p = 0, -h - 1, n
    labels = [c % k]
    for i in range(2, n):
        labels.append((d + i + (i > p) - labels[-1]) % k)
    # residues mod k, so already elements of Z_k
    f = _computed(EdgeLabeling, GroupSpec((k,)), tuple(zip(labels)))
    return _found(NOTION_EA_CORDIAL, path, f, "consecutive-sums")


# ---------------------------------------------------------------------------
# dispatcher: injective distinct-sum labelings of P_|A|

# pinned labeling of P_8 over (Z2)^3, the one elementary 2-group with no
# R*-sequence; shipped also as demo fixture 4
_E2_CUBE_LABELS: tuple[Element, ...] = (
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 1, 1), (1, 0, 1),
)


#: the pinned searches (see the module docstring), under fixtures/
_PINS_FILE = "cores.json"
#: (route, canonical factors) -> labels, once ``_pinned`` has read the file
_pins: dict | None = None


def _pinned(route: str, spec: GroupSpec) -> tuple[Element, ...] | None:
    """The labels ``route`` pins for the isomorphism class of ``spec``,
    in its canonical presentation, or None.  The file is read on the
    first call in a process; only the ``rainbow-cycle`` and ``sequence``
    routes call this."""
    global _pins
    if _pins is None:
        import json
        from importlib import resources

        text = (resources.files("cordant") / "fixtures" /
                _PINS_FILE).read_text(encoding="utf-8")
        _pins = {(pin["route"], tuple(pin["group"])):
                 tuple(map(tuple, pin["labels"]))
                 for pin in json.loads(text)["pins"]}
    return _pins.get((route, canonicalize_spec(spec).factors))


def _harmonious_core(spec: GroupSpec) -> tuple[GroupSpec, list[int]]:
    """The core of an even-order ``spec`` that ``_harmonious_order``
    orders first, in canonical form, and the odd cyclic factors the
    product step adds to it, ascending: the core is the 2-part, or, when
    the 2-part is elementary, the 2-part times the least odd factor."""
    two, odd = sylow_split(spec)
    rest = sorted(odd.factors)
    if is_elementary_two(two):
        return GroupSpec(two.factors + (rest.pop(0),)), rest
    return two, rest


def _harmonious_order(spec: GroupSpec, budget: int | None
                      ) -> tuple[str, tuple[Element, ...] | None, int]:
    """A harmonious ordering of ``spec``, as (status, ordering, nodes).

    The ordering g_0 = 0, g_1, .., g_{n-1} lists every element once with
    all n cyclic neighbour sums g_i + g_{i+1} distinct; it is None unless
    the status is Found.  As edge labels g_1..g_{n-1} (the cycle opened
    at its zero edge) those sums are the vertex sums of P_n.

    Odd order: the element enumeration, with no search.  Induction on
    A = Z_d x B, first coordinate slowest: the inner sums are (2a, s)
    with s a linear neighbour sum of B, never B's closing sum c since
    B's cyclic sums are distinct; the block joins and the closing edge
    give (2a + 1, c) for every a in Z_d; and 2 is invertible mod odd d.

    Otherwise the product construction of Beals, Gallian, Headley and
    Jungreis ("Harmonious groups", JCTA 1991): repeating such an ordering
    of G k times, with Z_k coordinate j in block j, orders G x Z_k for
    odd k.  The inner sums are (g_i + g_{i+1}, 2j) and the block joins
    (g_{n-1} + g_0, 2j + 1), all distinct as j runs over Z_k.  So only a
    core is needed (see ``_harmonious_core``).  The other odd factors
    come from the product, and ``isomorphism`` carries the result to
    ``spec``.

    A pinned core (``_pinned``, keyed by isomorphism class) is taken as
    it is, with 0 nodes: the 12 cores up to order 64 whose search cannot
    finish within its share, each found once by an unbounded find-any
    search on the cycle of its order.  Any other core is searched, in the
    presentation asked for when there is no product to build, and all
    searching spends at most the budget share of a search over ``spec``
    itself.  ``budget`` bounds search nodes only, so a pinned core comes
    out Found even at budget 0.
    """
    if spec.order % 2 == 1:
        return STATUS_FOUND, _enumeration(spec), 0
    core, rest = _harmonious_core(spec)
    order = _pinned("rainbow-cycle", core)
    nodes = 0
    if order is None:
        from .search import _find_any

        if not rest:
            core = spec  # no product to build: search the presentation asked for
        out = _find_any(cycle_graph(core.order), core, NOTION_A_CORDIAL,
                        budget, split=spec.order)
        if out.status != STATUS_FOUND:
            return out.status, None, out.nodes_explored
        order, nodes = out.certificate.labels, out.nodes_explored
    for k in rest:
        order = tuple(g + (j,) for j in range(k) for g in order)
    built = GroupSpec(core.factors + tuple(rest))
    if built != spec:
        carry = isomorphism(built, spec)
        order = tuple(zip(*carry.columns(list(zip(*order)))))
    return STATUS_FOUND, order, nodes


def construct_path_antimagic(spec, budget: int | None = DEFAULT_BUDGET
                             ) -> ConstructionResult:
    """Injective edge labeling of P_|A| with all vertex sums distinct.

    Impossible exactly when |A| is 2 mod 4.  Otherwise one of: the
    pinned P_4 labeling (Z_4); the block construction (cyclic part of
    order 4m, m > 1); a harmonious ordering of A opened at zero (every
    other group but the elementary 2-groups; see ``_harmonious_order``);
    the pinned P_8 labeling ((Z2)^3); or ``sequence`` (other elementary
    2-groups), a find-any search for the labeling on the path itself,
    named after the R*-sequences it once took.  The harmonious step is
    one route under two names: ``odd-cycle-search`` for odd orders, where
    it writes down the element enumeration and no longer searches despite
    the historical name, and ``rainbow-cycle`` otherwise, where the
    find-any search finds a core ordering.  Both searches return a fixed
    labeling, not the lex-first one, and run in this process alone.

    Both searching routes first look up a pinned answer (``_pinned``):
    the 12 harmonious cores and the (Z2)^6 path labeling of order up to
    64 whose search runs out of its default share.  A pinned answer
    reports 0 nodes and is verified once like any other.  ``budget``
    bounds search nodes only, so these groups are Found even at budget
    0, and every group of order up to 64 is Found or Impossible at the
    default budget.
    """
    spec = group(spec)
    n = spec.order
    if n < 2:
        raise PreconditionError("need a group of order at least 2")
    if not decide_path_a_antimagic(spec):
        return ConstructionResult(STATUS_IMPOSSIBLE, None, "order-2-mod-4")
    # the path's size cap refuses n before any factoring or label
    path = path_graph(n)
    dec = ant_decomposition(spec)
    nodes = 0
    if n == 4 and spec.factors == (4,):
        f = EdgeLabeling(spec, ((0,), (1,), (2,)))
        route = "base-p4"
    elif dec is not None:
        # verified once, below
        f = _ant_path_labels(spec, dec)
        route = "block"
    elif not is_elementary_two(spec):
        # Sylow 2-subgroup trivial or noncyclic: a harmonious ordering
        # exists, and opened at zero it labels the path
        route = "odd-cycle-search" if n % 2 == 1 else "rainbow-cycle"
        status, order, nodes = _harmonious_order(spec, budget)
        if status == STATUS_UNKNOWN:
            return ConstructionResult(STATUS_UNKNOWN, None, route, nodes)
        if status == STATUS_NOT_EXISTS:
            raise InternalCheckError(
                f"no harmonious ordering of {spec}; one is guaranteed")
        f = _computed(EdgeLabeling, spec, order[1:])
    elif n == 8:
        f = EdgeLabeling(spec, _E2_CUBE_LABELS)
        route = "pinned-cube"
    elif (labels := _pinned("sequence", spec)) is not None:
        f = _computed(EdgeLabeling, spec, labels)
        route = "sequence"
    else:
        from .search import _find_any

        out = _find_any(path, spec, NOTION_A_ANTIMAGIC, budget)
        if out.status == STATUS_UNKNOWN:
            return ConstructionResult(STATUS_UNKNOWN, None, "sequence",
                                      out.nodes_explored)
        if out.status == STATUS_NOT_EXISTS:
            raise InternalCheckError(
                f"no antimagic labeling of P_{n} over {spec}; one is "
                f"guaranteed")
        # the search verified its labeling on this path: carry that
        # certificate, with no second verification
        cert = out.certificate
        result = ConstructionResult(
            STATUS_FOUND, _computed(EdgeLabeling, spec, cert.edge_labels),
            "sequence", out.nodes_explored)
        set_field(result, "certificate", cert)
        return result
    return _found(NOTION_A_ANTIMAGIC, path, f, route, nodes)
