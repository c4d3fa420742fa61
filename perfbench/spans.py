"""Layer spans for the traced benchmark pass.

Wrappers are installed on the module-level names through which one
layer of ``cordant`` calls the next (and on the public names the
benchmark itself calls).  A wrapper records one span -- layer key,
function name, start, end, parent span and benchmark call id -- and
passes arguments, results and exceptions through unchanged.  Nothing
under ``src/`` is edited: the names are swapped for the duration of the
traced pass and restored afterwards.

Layer keys, one per reported self time:

    kernel             the active backend's ``solve_*`` functions
    search             ``search_*`` / ``compute_sigma_max`` entry points
    groups.op_tables   dense Cayley tables
    groups.isomorphism presentation isomorphisms (building the map)
    labelings.verify   ``verify_*``
    constructions      ``construct_*``
    certificates.make  ``make_*_certificate``
    certificates.dumps ``certificate_dumps``
    certificates.loads ``certificate_loads`` / ``load_demo_certificate``
    graphs.build       ``path_graph`` / ``cycle_graph`` / ``tree_graph``
    trees.enumerate    steps of the ``enumerate_trees`` generator
    explore            ``explore_conjecture``
    cli.main           in-process ``cordant.cli.main``

A span's self time is its duration minus its children's durations, so
the layer self times plus the time outside every span add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = (
    "kernel", "search", "groups.op_tables", "groups.isomorphism",
    "labelings.verify", "constructions", "certificates.make",
    "certificates.dumps", "certificates.loads", "graphs.build",
    "trees.enumerate", "explore", "cli.main",
)

# every route either dispatcher can report; each gets .calls/.unknown/.share
ROUTES = (
    "order-2-mod-4", "odd-cycle-search", "base-p4", "block",
    "rainbow-cycle", "pinned-cube", "sequence", "decided-impossible",
    "block-project", "cycle-search",
)

_SEARCH_NAMES = (
    "search_ea_cordial", "search_a_cordial", "search_a_antimagic",
    "search_a_star_antimagic", "search_rstar_sequence", "compute_sigma_max",
)
_VERIFY_NAMES = (
    "verify_ea_cordial", "verify_a_cordial", "verify_a_antimagic",
    "verify_a_star_antimagic",
)
_CONSTRUCT_NAMES = (
    "construct_path_antimagic", "construct_path_ek", "construct_ant_path",
)
_GRAPH_NAMES = ("path_graph", "cycle_graph", "tree_graph")


class Tracer:
    """Span recorder plus the name swaps that feed it."""

    def __init__(self) -> None:
        self.active = False
        self.call_id = -1
        # span: [layer, name, start, end, parent, call_id, child_total]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), 0.0, parent,
                           self.call_id, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[4] >= 0:
            self.spans[span[4]][6] += span[3] - span[2]

    def _count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def parent_layer(self, idx: int) -> str | None:
        parent = self.spans[idx][4]
        return self.spans[parent][0] if parent >= 0 else None

    def wrap(self, layer: str, fn, on_exit=None):
        """Time ``fn`` as a ``layer`` span; ``on_exit(idx, args, kwargs,
        result)`` records counts from the call's own inputs and result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_exit is not None:
                on_exit(idx, args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, layer: str, fn, count_key: str):
        """Time each step of the generator ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            gen = fn(*args, **kwargs)
            while True:
                idx = tracer._open(layer, fn.__name__)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer._count(count_key)
                yield item

        return wrapper

    # -- name swaps --------------------------------------------------------

    def _swap(self, owner, name: str, replacement) -> None:
        """Replace a module attribute, or a dict entry, until uninstall."""
        if isinstance(owner, dict):
            self._patched.append((owner, name, owner[name]))
            owner[name] = replacement
        else:
            self._patched.append((owner, name, getattr(owner, name)))
            setattr(owner, name, replacement)

    def install(self, cordant) -> None:
        """Wrap every layer boundary of an imported ``cordant`` package."""
        import cordant.certificates as certificates
        import cordant.cli as cli
        import cordant.constructions as constructions
        import cordant.explore as explore
        import cordant.search as search
        from cordant import _kernel

        originals: dict[str, object] = {}

        def wrapped(layer, fn, on_exit=None):
            key = f"{fn.__module__}.{fn.__qualname__}"
            if key not in originals:
                originals[key] = self.wrap(layer, fn, on_exit)
            return originals[key]

        # kernel: _run_branch and compute_sigma_max look solve_* up on the
        # active backend module at call time
        kern = _kernel.active_backend()
        for kind in ("chain", "generic", "rstar", "sigma"):
            fn = getattr(kern, "solve_" + kind)
            self._swap(kern, "solve_" + kind,
                       wrapped("kernel", fn, self._kernel_exit(kind)))

        # root split: counts the branches each search plans
        shares = search._shares

        def counted_shares(budget, branches):
            if self.active:
                self._count("search.branches", branches)
            return shares(budget, branches)

        self._swap(search, "_shares", counted_shares)

        search_exit = self._search_exit
        for mod in (cordant, constructions, explore, cli):
            for name in _SEARCH_NAMES:
                if hasattr(mod, name):
                    fn = getattr(search, name)
                    self._swap(mod, name, wrapped("search", fn, search_exit(fn)))
        self._swap(search, "op_tables",
                   wrapped("groups.op_tables", search.op_tables))
        self._swap(constructions, "isomorphism",
                   wrapped("groups.isomorphism", constructions.isomorphism))

        verify_exit = self._verify_exit
        for mod in (cordant, search, constructions, certificates):
            for name in _VERIFY_NAMES:
                if hasattr(mod, name):
                    self._swap(mod, name, wrapped(
                        "labelings.verify", getattr(mod, name), verify_exit))
        table = certificates._EDGE_VERIFIERS
        for notion, fn in list(table.items()):
            self._swap(table, notion,
                       wrapped("labelings.verify", fn, verify_exit))

        for mod in (cordant, constructions, cli):
            for name in _CONSTRUCT_NAMES:
                if hasattr(mod, name):
                    self._swap(mod, name, wrapped(
                        "constructions", getattr(constructions, name),
                        self._construct_exit))

        for mod in (cordant, certificates, cli):
            for name in ("make_edge_certificate", "make_vertex_certificate"):
                if hasattr(mod, name):
                    self._swap(mod, name, wrapped(
                        "certificates.make", getattr(certificates, name)))
            if hasattr(mod, "certificate_dumps"):
                self._swap(mod, "certificate_dumps", wrapped(
                    "certificates.dumps", certificates.certificate_dumps,
                    self._bytes_exit("certificates.dumps_bytes", result=True)))
            if hasattr(mod, "certificate_loads"):
                self._swap(mod, "certificate_loads", wrapped(
                    "certificates.loads", certificates.certificate_loads,
                    self._bytes_exit("certificates.loads_bytes", result=False)))
            if hasattr(mod, "load_demo_certificate"):
                self._swap(mod, "load_demo_certificate", wrapped(
                    "certificates.loads", certificates.load_demo_certificate))

        for mod in (cordant, constructions, certificates, cli):
            for name in _GRAPH_NAMES:
                if hasattr(mod, name):
                    self._swap(mod, name, wrapped(
                        "graphs.build", getattr(mod, name)))

        self._swap(explore, "enumerate_trees", self.wrap_generator(
            "trees.enumerate", explore.enumerate_trees, "trees.count"))
        for mod in (cordant, cli):
            self._swap(mod, "explore_conjecture", wrapped(
                "explore", explore.explore_conjecture, self._explore_exit))
        self._swap(cli, "main", wrapped("cli.main", cli.main))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    # -- counters read from a call's own inputs and results ----------------

    def _kernel_exit(self, kind: str):
        from cordant._kernel import BUDGET
        nodes_at = 2 if kind in ("chain", "generic") else 3

        def on_exit(idx, args, kwargs, result):
            self._count("kernel.calls")
            self._count("kernel.nodes", result[nodes_at])
            if result[0] == BUDGET:
                self._count("kernel.budget_stops")
        return on_exit

    def _search_exit(self, fn):
        signature = inspect.signature(fn)

        def on_exit(idx, args, kwargs, result):
            self._count("search.calls")
            if result.status == "Unknown":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                budget = bound.arguments["budget"]
                if budget is not None:
                    self._count("search.unknown_nodes", result.nodes_explored)
                    self._count("search.unknown_budget", budget)
        return on_exit

    def _verify_exit(self, idx, args, kwargs, result):
        self._count("labelings.verify_calls")
        self._count("labelings.verify_labels", len(args[1].labels))

    def _construct_exit(self, idx, args, kwargs, result):
        # routes are counted once per top-level construction; the block
        # call nested inside construct_path_antimagic is part of its route
        if self.parent_layer(idx) == "constructions":
            return
        self._count("constructions.calls")
        route = getattr(result, "route", "block")
        span = self.spans[idx]
        self._count(f"constructions.route.{route}.calls")
        self._count(f"constructions.route.{route}.s", span[3] - span[2])
        if getattr(result, "status", None) == "Unknown":
            self._count(f"constructions.route.{route}.unknown")

    def _bytes_exit(self, key: str, result: bool):
        def on_exit(idx, args, kwargs, value):
            self._count(key, len(value if result else args[0]))
        return on_exit

    def _explore_exit(self, idx, args, kwargs, result):
        self._count("explore.rows", len(result.rows))

    # -- summary -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for layer, _name, start, end, _parent, _call, child in self.spans:
            out[layer] += (end - start) - child
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON document."""
        rows = [{"layer": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "call_id": s[5]} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": self.counts}, fh)
