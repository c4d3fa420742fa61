"""The benchmark's span tracer (``perfbench/spans.py``) on this layout.

The tracer swaps the names through which one layer calls the next: the
active backend's ``solve_*`` kernels, ``search._shares`` and
``search.op_tables``, every search name read off ``cordant.search``,
``constructions.isomorphism`` and ``certificates._EDGE_VERIFIERS``.
Each must resolve where it looks, and ``uninstall`` must put every one
back.
"""

import importlib.util
import os

import cordant
from cordant import GroupSpec, _kernel, path_graph

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, name):
    return owner[name] if isinstance(owner, dict) else getattr(owner, name)


def test_the_tracer_installs_counts_and_restores_every_name():
    from cordant import certificates, constructions, search

    tracer = _spans().Tracer()
    kern = _kernel.active_backend()
    tracer.install(cordant)
    try:
        patched = list(tracer._patched)
        swapped = {(id(owner), name) for owner, name, _ in patched}
        for kind in ("chain", "generic", "rstar", "sigma"):
            assert (id(kern), "solve_" + kind) in swapped
        for owner, name in ((search, "_shares"), (search, "op_tables"),
                            (constructions, "isomorphism"),
                            (cordant, "compute_sigma_max"),
                            (cordant, "search_rstar_sequence"),
                            (cordant, "search_ea_cordial")):
            assert (id(owner), name) in swapped, name
        for notion in certificates._EDGE_VERIFIERS:
            assert (id(certificates._EDGE_VERIFIERS), notion) in swapped
        tracer.active = True
        z6 = GroupSpec((6,))
        assert cordant.compute_sigma_max(z6).status == "Found"
        assert cordant.search_rstar_sequence(
            GroupSpec((2, 2, 2, 2))).status == "Found"
        assert cordant.search_ea_cordial(path_graph(6), z6).status \
            == "NotExists"
        tracer.active = False
    finally:
        tracer.uninstall()
    assert [_current(owner, name) is original
            for owner, name, original in patched] == [True] * len(patched)
    assert tracer.counts["kernel.calls"] == 3
    assert tracer.counts["search.calls"] == 3
    # only the labeling search plans its branches through search._shares:
    # one per label of Z6
    assert tracer.counts["search.branches"] == 6
    assert {span[0] for span in tracer.spans} >= {"kernel", "search"}
