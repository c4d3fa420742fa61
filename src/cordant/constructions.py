"""Explicit constructions and closed-form deciders for path labelings.

Everything here either transfers one kind of labeling into another
(cycle to path, vertex side to edge side, big group to quotient view),
builds a labeling outright (block construction over a group with a
cyclic part of order 4m, sequence-based construction for elementary
2-groups, a harmonious ordering opened at zero: the element enumeration
of an odd-order group, or a found core ordering times odd cyclic
factors; consecutive vertex sums on a path over Z_k), or answers
existence questions by formula.

Every constructor verifies the labeling it returns exactly once, at its
end, and raises InternalCheckError on a mismatch, so a returned labeling
is always a certified one.  The steps before that point hand on
unchecked values: the dispatchers build their paths with private
helpers (``_harmonious_order``, ``_ant_path_labels``,
``_rstar_path_labels``), not through the public transfer maps, which
also check their input because it may come from outside.  A searched
cycle is certified by the search that found it.

Only the ``rainbow-cycle`` and ``sequence`` routes search, and they
import ``search`` when they run: the deciders and every other route
never load it.  ``search_rstar_sequence`` is read off the package, so a
name swapped there (a test double, the benchmark's layer tracer) is the
one called.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil
from typing import TYPE_CHECKING

from ._vocab import (
    DEFAULT_BUDGET,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    check_workers,
)
from .errors import (
    InapplicableGroupError,
    InternalCheckError,
    PreconditionError,
)
from .graphs import CYCLE, SimpleGraph, cycle_graph, path_graph
from .groups import (
    Element,
    GroupSpec,
    add,
    ant_decomposition,
    check_element,
    enumerate_elements,
    group,
    involution_count,
    is_elementary_two,
    isomorphism,
    negate,
    sylow_split,
)
from .labelings import (
    EdgeLabeling,
    VertexLabeling,
    _computed,
    verify_a_antimagic,
    verify_a_cordial,
    verify_ea_cordial,
)

if TYPE_CHECKING:
    from .search import RStarSequence

STATUS_IMPOSSIBLE = "Impossible"

__all__ = [
    "AntLayout",
    "ConstructionResult",
    "STATUS_IMPOSSIBLE",
    "ant_layout",
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
    "rotate_to_star",
    "rstar_to_path_antimagic",
    "shift_labeling",
    "sigma_max_formula",
]


@dataclass(frozen=True)
class ConstructionResult:
    """Outcome of a dispatching constructor.

    ``status`` is Found (labeling attached), Impossible (no labeling
    exists, by a decider), or Unknown (a search route ran out of
    budget).  ``route`` names the branch that produced the outcome and
    ``nodes_explored`` counts search work, 0 for formula routes.
    """

    status: str
    labeling: EdgeLabeling | None
    route: str
    nodes_explored: int = 0


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


def shift_labeling(f: EdgeLabeling, g: Element) -> EdgeLabeling:
    """Subtract the constant ``g`` from every edge label."""
    check_element(f.group, g)
    neg = negate(f.group, g)
    return EdgeLabeling(f.group, tuple(add(f.group, a, neg) for a in f.labels))


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
    shift = next(g for g, count in verdict.edge_class_counts.items()
                 if count == target)
    shifted = shift_labeling(f, shift).labels
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
    if len(graph.edges) != graph.n - 1 or not graph.is_connected():
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
# closed-form deciders

def decide_cycle_zk_cordial(n: int, k: int) -> bool:
    """Whether the cycle C_n admits an equitable Z_k vertex labeling.

    True exactly when k is odd or n is not an odd multiple of k.
    """
    if n < 3:
        raise PreconditionError("cycles need n >= 3")
    if k < 2:
        raise PreconditionError("modulus must be at least 2")
    q, r = divmod(n, k)
    return k % 2 == 1 or not (r == 0 and q % 2 == 1)


def decide_path_ek_cordial(n: int, k: int) -> bool:
    """Whether the path P_n admits an equitable Z_k edge labeling.

    For n >= 3 this holds exactly when k is not 2 mod 4 or n is not an
    odd multiple of k.  P_2 is a special case: its single edge label is
    both vertex sums, so one class holds every vertex and no k >= 2
    balances.  ``construct_path_ek`` is the proof of sufficiency: it
    writes down a labeling for every allowed (n, k), and its docstring
    shows why each one is equitable.
    """
    if n < 2:
        raise PreconditionError("paths need n >= 2")
    if k < 2:
        raise PreconditionError("modulus must be at least 2")
    if n == 2:
        return False
    q, r = divmod(n, k)
    return k % 4 != 2 or not (r == 0 and q % 2 == 1)


def decide_tree_2mod4_obstruction(n: int, spec) -> bool:
    """Parity obstruction for trees: order 2 mod 4 against |A| 2 mod 4.

    Returns True when the obstruction applies, meaning no tree on n
    vertices has an equitable edge labeling over the group.
    """
    if n < 1:
        raise PreconditionError("trees need n >= 1")
    spec = group(spec)
    return n % 4 == 2 and spec.order % 4 == 2


def decide_path_a_antimagic(spec) -> bool:
    """Whether P_|A| has an injective edge labeling with distinct sums."""
    spec = group(spec)
    if spec.order < 2:
        raise PreconditionError("need a group of order at least 2")
    return spec.order % 4 != 2


def sigma_max_formula(spec) -> int:
    """Most distinct neighbour sums any cyclic ordering of A achieves.

    |A| - 1 with exactly one involution, |A| - 2 for elementary
    2-groups of order above 2, |A| otherwise.
    """
    spec = group(spec)
    if spec.order < 2:
        raise PreconditionError("need a group of order at least 2")
    if involution_count(spec) == 1:
        return spec.order - 1
    if is_elementary_two(spec):
        return spec.order - 2
    return spec.order


# ---------------------------------------------------------------------------
# block construction: Z_4m (+ odd part H) in k blocks of 4m vertices

@dataclass(frozen=True)
class AntLayout:
    """Shape data for the block construction on a group of order 4mk.

    ``work`` presents the group as Z_4m then the odd factors; labels
    are computed there and carried to ``spec`` by coordinate
    isomorphism.  ``base_cycle`` is an equitable edge labeling of C_k
    over the odd part: its harmonious ordering, the elements in
    enumeration order, which is also the lexicographically first such
    labeling with leading zero.  It is empty when k == 1 and the odd
    part plays no role.
    """

    spec: GroupSpec
    work: GroupSpec
    m: int
    k: int
    base_cycle: tuple[Element, ...]

    def __post_init__(self) -> None:
        if self.m < 2:
            raise PreconditionError("block construction needs m > 1")
        if self.k % 2 == 0 or self.k < 1:
            raise PreconditionError("block count must be odd")
        if 4 * self.m * self.k != self.spec.order:
            raise PreconditionError("layout does not cover the group")
        if self.k == 1:
            if self.base_cycle != ():
                raise PreconditionError("single block takes no base cycle")
        else:
            odd = GroupSpec(self.work.factors[1:])
            if len(self.base_cycle) != self.k:
                raise PreconditionError("base cycle must have k edges")
            if self.base_cycle[0] != odd.zero():
                raise PreconditionError("base cycle must start at zero")
            verdict = verify_ea_cordial(
                cycle_graph(self.k), EdgeLabeling(odd, self.base_cycle))
            if not verdict.ok:
                raise PreconditionError("base cycle labeling is not equitable")


def ant_layout(spec) -> AntLayout:
    """Build the block layout for a group with a Z_4m piece, m > 1."""
    spec = group(spec)
    dec = ant_decomposition(spec)
    if dec is None:
        raise InapplicableGroupError(
            f"{spec} has no cyclic direct factor of order 4m with m > 1")
    four_m = dec.four_m
    odd = dec.odd_part
    k = odd.order
    work = GroupSpec((four_m,) + odd.factors)
    base = _harmonious_order(odd, None)[1] if k > 1 else ()
    return AntLayout(spec=spec, work=work, m=four_m // 4, k=k,
                     base_cycle=base)


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


def _ant_path_labels(spec) -> EdgeLabeling:
    """The block construction's labeling of P_|A|, not yet verified.

    Lays the path out as k blocks of 4m vertices joined by connector
    edges.  Within block j every edge carries the block's base-cycle
    element in the odd coordinates; the Z_4m coordinates run through an
    interleaved low/high pattern that makes consecutive sums sweep all
    residues.  The labels are built coordinate column by column and
    carried to ``spec`` by the linear ``isomorphism``, so they are
    elements without a check.
    """
    layout = ant_layout(spec)
    m, k = layout.m, layout.k
    run = 4 * m - 1
    base = layout.base_cycle or (GroupSpec(layout.work.factors[1:]).zero(),)
    blocks = [_block_column(j, m) for j in range(min(k, 3))]
    first: list[int] = []
    odd_cols: list[list[int]] = [[] for _ in layout.work.factors[1:]]
    for j in range(k):
        # block 0, then odd blocks alike and later even blocks alike
        first += blocks[2 - j % 2 if j else 0]
        for col, x in zip(odd_cols, base[j]):
            col += [x] * run
        if j < k - 1:
            first.append(0 if j % 2 == 0 else 2 * m)
            for col, x in zip(odd_cols, base[j + 1]):
                col.append(x)
    carry = isomorphism(layout.work, layout.spec)
    labels = tuple(zip(*carry.columns([first, *odd_cols])))
    return _computed(EdgeLabeling, layout.spec, labels)


def construct_ant_path(spec) -> EdgeLabeling:
    """Equitable edge labeling of P_|A| for groups with a Z_4m piece, m > 1.

    The block construction (see ``_ant_path_labels``), verified.  Every
    vertex sum is distinct, so the output is also an injective-distinct-sum
    labeling whenever anyone asks: on |A| vertices an ea-cordial verdict
    already means one sum per class.
    """
    f = _ant_path_labels(spec)
    verdict = verify_ea_cordial(path_graph(f.group.order), f)
    if not verdict.ok:
        raise InternalCheckError(
            f"block construction failed verification ({verdict.violation})")
    return f


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
    f = EdgeLabeling(GroupSpec((k,)), tuple((a,) for a in labels))
    verdict = verify_ea_cordial(path, f)
    if not verdict.ok:
        raise InternalCheckError(
            f"route consecutive-sums failed verification ({verdict.violation})")
    return ConstructionResult(STATUS_FOUND, f, "consecutive-sums")


# ---------------------------------------------------------------------------
# sequence route for elementary 2-groups

def rotate_to_star(rs: RStarSequence) -> RStarSequence:
    """Rotate the sequence so entry 1 is the sum of entries 0 and -1.

    For elementary 2-groups the rotation moving the starred entry to
    the front always works; the scan keeps the operation meaningful for
    any group that happens to admit such a rotation.
    """
    spec = rs.group
    length = len(rs.seq)
    for r in range(length):
        turned = tuple(rs.seq[(j + r) % length] for j in range(length))
        if turned[1] == add(spec, turned[0], turned[-1]):
            for i in range(length):
                neighbours = add(spec, turned[i - 1], turned[(i + 1) % length])
                if neighbours == turned[i]:
                    return replace(rs, seq=turned, star_index=i)
    raise PreconditionError("no rotation places the star at the front")


def _rstar_path_labels(rs: RStarSequence) -> EdgeLabeling:
    """Edge labels 0 then entries 1..n-2 of ``rs``, not yet verified.

    In an elementary 2-group with ``rs`` star-fronted, the n vertex sums
    are 0, the n-2 consecutive-pair sums skipping the first, and the last
    entry; the star condition routes the last entry to the one unused
    pair sum, so the sums are exactly the whole group.
    """
    return EdgeLabeling(rs.group, (rs.group.zero(),) + rs.seq[1:])


def rstar_to_path_antimagic(rs: RStarSequence) -> EdgeLabeling:
    """Path labeling from a star-fronted difference sequence over an
    elementary 2-group (see ``_rstar_path_labels``), verified."""
    spec = rs.group
    if not is_elementary_two(spec):
        raise PreconditionError("sequence route needs an elementary 2-group")
    if rs.seq[1] != add(spec, rs.seq[0], rs.seq[-1]):
        raise PreconditionError("rotate the sequence to star-front form first")
    f = _rstar_path_labels(rs)
    verdict = verify_a_antimagic(path_graph(spec.order), f)
    if not verdict.ok:
        raise InternalCheckError(
            f"sequence route failed verification ({verdict.violation})")
    return f


# ---------------------------------------------------------------------------
# dispatcher: injective distinct-sum labelings of P_|A|

# pinned labeling of P_8 over (Z2)^3, the one elementary 2-group with no
# usable difference sequence; shipped also as demo fixture 4
_E2_CUBE_LABELS: tuple[Element, ...] = (
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 1, 1), (1, 0, 1),
)


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
    core is searched: the 2-part, or, when the 2-part is elementary (it
    has no such ordering), the 2-part times the least odd cyclic factor.
    The other odd factors come from the product, and ``isomorphism``
    carries the result to ``spec``.  All searching spends at most the
    budget share of a search over ``spec`` itself.
    """
    if spec.order % 2 == 1:
        return STATUS_FOUND, tuple(enumerate_elements(spec)), 0
    from .search import find_equitable_cycle

    two, odd = sylow_split(spec)
    rest = sorted(odd.factors)
    core = GroupSpec(two.factors + (rest.pop(0),)) \
        if is_elementary_two(two) else two
    if not rest:
        core = spec  # no product to build: search the presentation asked for
    out = find_equitable_cycle(cycle_graph(core.order), core, budget,
                               split=spec.order)
    if out.status != STATUS_FOUND:
        return out.status, None, out.nodes_explored
    order = out.certificate.labels
    if rest:
        for k in rest:
            order = tuple(g + (j,) for j in range(k) for g in order)
        carry = isomorphism(GroupSpec(core.factors + tuple(rest)), spec)
        order = tuple(zip(*carry.columns(list(zip(*order)))))
    return STATUS_FOUND, order, out.nodes_explored


def construct_path_antimagic(spec, budget: int | None = DEFAULT_BUDGET,
                             workers: int = 1) -> ConstructionResult:
    """Injective edge labeling of P_|A| with all vertex sums distinct.

    Impossible exactly when |A| is 2 mod 4.  Otherwise one of: the
    pinned P_4 labeling (Z_4); the block construction (cyclic part of
    order 4m, m > 1); a harmonious ordering of A opened at zero (every
    other group but the elementary 2-groups; see ``_harmonious_order``);
    the pinned P_8 labeling ((Z2)^3); or the difference sequence route
    (other elementary 2-groups).  The harmonious step is one route under
    two names: ``odd-cycle-search`` for odd orders, where it writes down
    the element enumeration and no longer searches despite the historical
    name, and ``rainbow-cycle`` otherwise, where ``find_equitable_cycle``
    finds a core ordering: a fixed one, not the lex-first one.
    ``workers`` reaches only the difference sequence search.
    """
    check_workers(workers)
    spec = group(spec)
    n = spec.order
    if n < 2:
        raise PreconditionError("need a group of order at least 2")
    if not decide_path_a_antimagic(spec):
        return ConstructionResult(STATUS_IMPOSSIBLE, None, "order-2-mod-4")
    nodes = 0
    if n == 4 and spec.factors == (4,):
        f = EdgeLabeling(spec, ((0,), (1,), (2,)))
        route = "base-p4"
    elif ant_decomposition(spec) is not None:
        # verified once, below
        f = _ant_path_labels(spec)
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
    else:
        from . import search_rstar_sequence

        out = search_rstar_sequence(spec, budget=budget, workers=workers)
        if out.status == STATUS_UNKNOWN:
            return ConstructionResult(STATUS_UNKNOWN, None, "sequence",
                                      out.nodes_explored)
        if out.status == STATUS_NOT_EXISTS:
            raise InternalCheckError(
                f"no difference sequence over {spec}; one is guaranteed")
        f = _rstar_path_labels(rotate_to_star(out.certificate))
        route = "sequence"
        nodes = out.nodes_explored
    verdict = verify_a_antimagic(path_graph(n), f)
    if not verdict.ok:
        raise InternalCheckError(
            f"route {route} failed verification ({verdict.violation})")
    return ConstructionResult(STATUS_FOUND, f, route, nodes)
