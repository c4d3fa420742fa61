"""Record one point of the benchmark trajectory as a JSON file.

Usage (from the repository root; needs only the standard library):

    python3 benchmarks/record.py --seed 301 --out BENCH_7.json

Runs the unmodified ``perfbench/run.py`` on each of its four workloads,
once with ``--trace 0`` and once with ``--trace 1``, at perfbench's own
run length, and writes one JSON document with the seed, the run length,
the Python version and the kernel backend, and per workload:

* the gate's verdict (``correct``, ``attempted``, ``failed``) of both runs;
* the end-to-end metrics of the untraced run, in perfbench's units;
* from the traced run, the counts and times in ``TRACED``.

It also times direct library calls in this process, on the checkout's
``src``: the ``construct_path_ek`` sweep over n in 3..60 and k in 2..16
(870 calls; seconds, nodes and the Found/Impossible/Unknown counts), one
long path, P10000 over Z10, and ``construct_path_antimagic`` on all 116
groups of order 2..64 (seconds, nodes and the status counts, in all and
by route, and ``labels_sha256``, the sha256 of the sweep's rows
(factors, status, route, nodes, labels), each row's ``repr`` followed
by a newline, in sweep order, and ``outcomes_sha256``, the same over
(factors, status, route, labels): a change that only searches less
keeps it; per route, the status counts, the nodes and the
``outcomes_sha256`` of that route's rows, so a change to one route shows
which digests it leaves alone).  The ``antimagic_128`` and
``antimagic_192`` rows run ``construct_path_antimagic`` on every group
of that order (seconds, nodes, status counts, and the status and route
of each group); ``pinned`` counts the rainbow-cycle groups Found with 0
nodes, that is, through a pinned core.  The ``graph_symmetry`` row gives the
status, nodes and seconds (the median of ``SYMMETRY_RUNS`` runs) of the
searches the graph symmetries prune most: a-cordial C20/Z4, C10/Z10 and
C8/Z8, and the exhaust workload's three seeded order-10 trees with their
pinned first labels, built by ``perfbench/workloads.py`` from the seed.
It times ``explore_conjecture(10)`` (seconds, the zero-allowed and
the zero-free nodes summed over the rows, the number of zero-free
searches run, rows, Unknown rows, violations, and ``outcomes_sha256``
over the rows' (n, factors, tree index, zero-allowed status and labels,
zero-free status and labels), each row's ``repr`` followed by a
newline, in row order: a change that only searches less keeps it).
The ``survey_fixed_cost`` row times the survey workload's call,
``explore_conjecture(9)``, with the kernel's results replayed (its work
outside the kernel) and its kernel calls at a budget of 0 (the kernel's
own set-up); see ``survey_fixed_cost_row``.  It times the certificate
round trip of the block-route labeling of P5120 over Z5xZ1024 (the median of
``ROUND_TRIP_RUNS`` runs of make, dumps and loads each, in seconds) and
records the text's size and sha256, which later files can compare for
byte identity.  The ``fixed_cost`` row gives the median microseconds
per call (``FIXED_COST_RUNS`` runs of ``FIXED_COST_NUMBER`` calls) of
the calls whose cost is the fixed work of a certified answer: group
analysis, the one verification and the certificate round trip rather
than search.  These are ``construct_path_antimagic`` on Z5xZ7 and Z37
(``odd-cycle-search``) and on Z8 and Z4xZ3 (``block``),
``construct_path_ek(24, 13)``, and make, dumps and loads of the
order-35 Z5xZ7 certificate.  In a fresh interpreter it times cold ``op_tables`` calls:
the 116 groups of order 2..64 together, then Z1024 and (Z2)^10 (seconds
each), and records the sha256 of all their tables' bytes, add then neg
per group in that order, and in another the tracemalloc peak of building
Z1024 and (Z2)^10 each.  In fresh interpreters it also times
``import cordant.cli`` (the median of ``IMPORT_RUNS`` runs, import
statement only) and counts the ``cordant.*`` modules that importing the
CLI and then running ``decide path-ek`` each leave loaded.  For each of
``PROCESS_COMMANDS`` it takes the median wall time of ``PROCESS_RUNS``
whole ``python -m cordant.cli`` processes, start-up and import included,
and records which of ``dataclasses`` and ``inspect`` running the command
loads, the ``cordant`` modules it loads and the source lines those hold:
a count of the compile work of a process that finds no ``.pyc``, which
does not depend on the machine.

Node counts are exact and repeat run to run, so they double as a
determinism check; times are for comparison with earlier files only.
The recorder gates nothing: a run that fails the benchmark's gate is
recorded as it is.  It exits 2 only when a run prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exhaust", "construct", "survey", "cli")
TRACED = ("kernel.nodes", "kernel.calls", "labelings.verify_calls",
          "labelings.verify_s", "certificates.make_s", "certificates.dumps_s",
          "certificates.loads_s", "groups.isomorphism_s", "graphs.build_s")
ROUND_TRIP_RUNS = 9
FIXED_COST_RUNS = 9
FIXED_COST_NUMBER = 200
SYMMETRY_RUNS = 5
SURVEY_FIXED_RUNS = 9
# perfbench's default --seconds; not passed, so every point has this length
SECONDS = 20
IMPORT_RUNS = 9
PROCESS_RUNS = 9
# commands whose whole process is timed: a decider, two searches, a verify
PROCESS_COMMANDS = {
    "decide path-ek": ("decide", "path-ek", "--n", "10", "--k", "4"),
    "search rstar (Z2)^4": ("search", "rstar", "--group", "Z2xZ2xZ2xZ2",
                            "--format", "json"),
    "sigma-max Z10": ("sigma-max", "--group", "Z10"),
    "verify --certificate demo 1": (
        "verify", "--certificate",
        str(ROOT / "src" / "cordant" / "fixtures" / "demo1.json")),
}

# "workload construct  seed 301  backend pure  python 3.11.7  nproc 2 ..."
HEADER = re.compile(r"backend (\S+)\s+python (\S+)")
# "  kernel.nodes      9393434.000000 count": every metric, by name
METRIC = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+\S+$")


def run(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its header fields, printed metrics and verdict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: {workload} --trace {trace} printed no "
                         f"result (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    header = HEADER.search(lines[0])
    printed = {}
    for line in lines[1:-1]:
        match = METRIC.match(line)
        if match:
            printed[match.group(1)] = float(match.group(2))
    return {
        "backend": header.group(1) if header else None,
        "python": header.group(2) if header else None,
        "verdict": {key: result[key]
                    for key in ("correct", "attempted", "failed")},
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "printed": printed,
    }


def direct_rows() -> dict:
    """Time the direct library calls (see the module docstring)."""
    sys.path.insert(0, str(ROOT / "src"))
    from cordant import (abelian_groups_of_order, construct_path_antimagic,
                         construct_path_ek)

    statuses: Counter = Counter()
    nodes = 0
    start = time.perf_counter()
    for n in range(3, 61):
        for k in range(2, 17):
            res = construct_path_ek(n, k)
            statuses[res.status] += 1
            nodes += res.nodes_explored
    sweep_s = time.perf_counter() - start
    start = time.perf_counter()
    long_path = construct_path_ek(10000, 10)
    long_s = time.perf_counter() - start
    antimagic = Counter()
    by_route: dict = {}
    antimagic_nodes = 0
    results = []
    start = time.perf_counter()
    for order in range(2, 65):
        for spec in abelian_groups_of_order(order):
            res = construct_path_antimagic(spec)
            antimagic[res.status] += 1
            antimagic_nodes += res.nodes_explored
            results.append((spec.factors, res))
    antimagic_s = time.perf_counter() - start
    digest = hashlib.sha256()
    outcomes = hashlib.sha256()
    route_outcomes: dict = {}
    for factors, res in results:
        labels = res.labeling.labels if res.labeling else None
        digest.update(repr((factors, res.status, res.route,
                            res.nodes_explored, labels)).encode() + b"\n")
        line = repr((factors, res.status, res.route, labels)).encode() + b"\n"
        outcomes.update(line)
        route = by_route.setdefault(res.route, Counter())
        route[res.status] += 1
        route["nodes"] += res.nodes_explored
        route_outcomes.setdefault(res.route, hashlib.sha256()).update(line)
    return {
        "ek_sweep": {"n": [3, 60], "k": [2, 16],
                     "calls": sum(statuses.values()),
                     "seconds": round(sweep_s, 4), "nodes": nodes,
                     "found": statuses["Found"],
                     "impossible": statuses["Impossible"],
                     "unknown": statuses["Unknown"]},
        "ek_P10000_Z10": {"status": long_path.status,
                          "route": long_path.route,
                          "nodes": long_path.nodes_explored,
                          "seconds": round(long_s, 4)},
        "antimagic_sweep": {"orders": [2, 64],
                            "groups": sum(antimagic.values()),
                            "seconds": round(antimagic_s, 4),
                            "nodes": antimagic_nodes,
                            "found": antimagic["Found"],
                            "impossible": antimagic["Impossible"],
                            "unknown": antimagic["Unknown"],
                            "labels_sha256": digest.hexdigest(),
                            "outcomes_sha256": outcomes.hexdigest(),
                            "by_route": {
                                route: {**dict(sorted(counts.items())),
                                        "outcomes_sha256":
                                            route_outcomes[route].hexdigest()}
                                for route, counts in sorted(by_route.items())}},
    }


def antimagic_order_row(order: int) -> dict:
    """``construct_path_antimagic`` on every group of one order."""
    sys.path.insert(0, str(ROOT / "src"))
    from cordant import abelian_groups_of_order, construct_path_antimagic

    start = time.perf_counter()
    results = [(spec, construct_path_antimagic(spec))
               for spec in abelian_groups_of_order(order)]
    seconds = time.perf_counter() - start
    statuses = Counter(res.status for _, res in results)
    return {"groups": len(results), "seconds": round(seconds, 4),
            "nodes": sum(res.nodes_explored for _, res in results),
            "found": statuses["Found"], "unknown": statuses["Unknown"],
            "pinned": sum(res.route == "rainbow-cycle"
                          and res.status == "Found"
                          and res.nodes_explored == 0 for _, res in results),
            "by_group": {str(spec): [res.status, res.route]
                         for spec, res in results}}


def graph_symmetry_row(seed: int) -> dict:
    """The cycles and seeded pinned trees the graph symmetries prune."""
    import cordant
    from cordant import GroupSpec, cycle_graph, search_a_cordial

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    calls = [(f"a-cordial C{n}/Z{k}", search_a_cordial,
              (cycle_graph(n), GroupSpec((k,))), {})
             for n, k in ((20, 4), (10, 10), (8, 8))]
    calls += [(call.label, getattr(cordant, call.fn), call.args, call.kwargs)
              for call in workloads.build("exhaust", seed, cordant)
              if call.label.startswith("tree#")]
    row = {}
    for label, fn, args, kwargs in calls:
        seconds = []
        for _ in range(SYMMETRY_RUNS):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds.append(time.perf_counter() - start)
        row[label] = {"status": out.status, "nodes": out.nodes_explored,
                      "seconds": round(statistics.median(seconds), 4)}
    return row


def explore_row() -> dict:
    """The order-10 tree survey, timed once, counting the zero-free
    searches it runs (the rows it does not settle without one): every
    survey search runs through ``search._run_labeling``."""
    import cordant
    from cordant import NOTION_A_STAR_ANTIMAGIC, search

    run = search._run_labeling
    searches = 0

    def counted(graph, spec, notion, *args):
        nonlocal searches
        searches += notion == NOTION_A_STAR_ANTIMAGIC
        return run(graph, spec, notion, *args)

    search._run_labeling = counted
    try:
        start = time.perf_counter()
        report = cordant.explore_conjecture(10)
        seconds = time.perf_counter() - start
    finally:
        search._run_labeling = run
    outcomes = hashlib.sha256()
    for row in report.rows:
        outcomes.update(repr((row.n, row.group.factors, row.tree_index,
                              row.antimagic_status, row.antimagic_labels,
                              row.astar_status, row.astar_labels)).encode()
                        + b"\n")
    return {"n_max": 10, "seconds": round(seconds, 4),
            "zero_allowed_nodes": sum(row.antimagic_nodes
                                      for row in report.rows),
            "zero_free_nodes": sum(row.astar_nodes for row in report.rows),
            "zero_free_searches": searches,
            "rows": len(report.rows),
            "unknown": len(report.unknown_rows),
            "violations": len(report.violations),
            "outcomes_sha256": outcomes.hexdigest()}


def survey_fixed_cost_row() -> dict:
    """The survey workload's call, ``explore_conjecture(9)``, with the
    kernel's results replayed from a recording, so only its work outside
    the kernel is timed, and a replay of its kernel calls at a budget of 0
    (every root share 0), which stop at their first node, so only the
    kernel's own set-up is timed: seconds, the median of
    ``SURVEY_FIXED_RUNS`` runs each, with the kernel calls and nodes of
    the recording."""
    from cordant import _kernel, explore_conjecture

    kern = _kernel.active_backend()
    solve = kern.solve_generic
    calls, results = [], []

    def recording(*args):
        calls.append(args)
        results.append(solve(*args))
        return results[-1]

    answers = iter(())

    def replay(*args):
        return next(answers)

    replayed = []
    try:
        kern.solve_generic = recording
        explore_conjecture(9)
        kern.solve_generic = replay
        for _ in range(SURVEY_FIXED_RUNS):
            answers = iter(results)
            start = time.perf_counter()
            explore_conjecture(9)
            replayed.append(time.perf_counter() - start)
    finally:
        kern.solve_generic = solve
    # (..., prefix, budget, table, graph_sym[, roots]): budget 0, shares 0
    stopped = [list(args) for args in calls]
    for args in stopped:
        args[13] = 0
        if args[16:] and args[16] is not None:
            args[16] = [(x, 0) for x, _ in args[16]]
    budget_0 = []
    for _ in range(SURVEY_FIXED_RUNS):
        start = time.perf_counter()
        for args in stopped:
            solve(*args)
        budget_0.append(time.perf_counter() - start)
    return {"n_max": 9, "runs": SURVEY_FIXED_RUNS,
            "kernel_calls": len(calls),
            "kernel_nodes": sum(r[-1] for r in results),
            "replayed_s": round(statistics.median(replayed), 5),
            "budget_0_s": round(statistics.median(budget_0), 5)}


def round_trip_row() -> dict:
    """Make, dumps and loads of the Z5xZ1024 block certificate."""
    from cordant import (NOTION_A_ANTIMAGIC, GroupSpec, certificate_dumps,
                         certificate_loads, construct_path_antimagic,
                         make_edge_certificate, path_graph)

    spec = GroupSpec((5, 1024))
    f = construct_path_antimagic(spec).labeling
    graph = path_graph(spec.order)
    times: dict = {"make": [], "dumps": [], "loads": []}
    for _ in range(ROUND_TRIP_RUNS):
        start = time.perf_counter()
        cert = make_edge_certificate(NOTION_A_ANTIMAGIC, graph, f)
        times["make"].append(time.perf_counter() - start)
        start = time.perf_counter()
        text = certificate_dumps(cert)
        times["dumps"].append(time.perf_counter() - start)
        start = time.perf_counter()
        loaded = certificate_loads(text)
        times["loads"].append(time.perf_counter() - start)
        assert loaded == cert
    return {"group": list(spec.factors), "runs": ROUND_TRIP_RUNS,
            **{f"{step}_s": round(statistics.median(ts), 5)
               for step, ts in times.items()},
            "bytes": len(text.encode()),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def fixed_cost_row() -> dict:
    """Median microseconds of the fixed-cost calls (see the module
    docstring)."""
    import timeit
    from functools import partial

    sys.path.insert(0, str(ROOT / "src"))
    from cordant import (NOTION_A_ANTIMAGIC, GroupSpec, certificate_dumps,
                         certificate_loads, construct_path_antimagic,
                         construct_path_ek, make_edge_certificate, path_graph)

    calls = {f"antimagic {name}": partial(construct_path_antimagic,
                                          GroupSpec(factors))
             for name, factors in (("Z5xZ7", (5, 7)), ("Z37", (37,)),
                                   ("Z8", (8,)), ("Z4xZ3", (4, 3)))}
    calls["ek P24/Z13"] = partial(construct_path_ek, 24, 13)
    f = construct_path_antimagic(GroupSpec((5, 7))).labeling
    graph = path_graph(35)
    cert = make_edge_certificate(NOTION_A_ANTIMAGIC, graph, f)
    calls["make Z5xZ7"] = partial(make_edge_certificate, NOTION_A_ANTIMAGIC,
                                  graph, f)
    calls["dumps Z5xZ7"] = partial(certificate_dumps, cert)
    calls["loads Z5xZ7"] = partial(certificate_loads, certificate_dumps(cert))
    row: dict = {"runs": FIXED_COST_RUNS, "number": FIXED_COST_NUMBER}
    for label, fn in calls.items():
        fn()
        runs = timeit.repeat(fn, number=FIXED_COST_NUMBER,
                             repeat=FIXED_COST_RUNS)
        row[label + "_us"] = round(
            statistics.median(runs) / FIXED_COST_NUMBER * 1e6, 2)
    return row


def src_env() -> dict:
    """This environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on ``src``."""
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=src_env(), capture_output=True, text=True,
                          check=True).stdout


OP_TABLES = """\
import hashlib, json, time
from cordant.groups import GroupSpec, abelian_groups_of_order, op_tables
runs = {"orders_2_64": [spec for n in range(2, 65)
                        for spec in abelian_groups_of_order(n)],
        "Z1024": [GroupSpec((1024,))], "(Z2)^10": [GroupSpec((2,) * 10)]}
out = {"groups": len(runs["orders_2_64"])}
for name, specs in runs.items():
    start = time.perf_counter()
    for spec in specs:
        op_tables(spec)
    out[name + "_s"] = round(time.perf_counter() - start, 5)
digest = hashlib.sha256()
for specs in runs.values():
    for spec in specs:
        for table in op_tables(spec):
            digest.update(table.tobytes())
out["sha256"] = digest.hexdigest()
print(json.dumps(out))
"""

OP_TABLES_PEAK = """\
import json, tracemalloc
from cordant.groups import GroupSpec, op_tables
peaks = {}
for name, factors in (("Z1024", (1024,)), ("(Z2)^10", (2,) * 10)):
    tracemalloc.start()
    op_tables(GroupSpec(factors))
    peaks[name + "_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 1e6, 2)
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def op_tables_row() -> dict:
    """Cold ``op_tables`` builds, their tables' sha256 and memory peaks."""
    return {**json.loads(fresh(OP_TABLES)), **json.loads(fresh(OP_TABLES_PEAK))}


def process_row(argv) -> dict:
    """Median wall time of a whole ``cordant`` process running ``argv``,
    the heavy standard modules the command loads, and the ``cordant``
    modules it loads with the lines of their source files."""
    seconds = []
    for _ in range(PROCESS_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "cordant.cli", *argv],
                       cwd=ROOT, env=src_env(), capture_output=True)
        seconds.append(time.perf_counter() - start)
    loaded = json.loads(fresh(
        "import contextlib, io, json, sys\n"
        "from cordant.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main({list(argv)!r})\n"
        "mods = {m: getattr(sys.modules[m], '__file__', None) or ''\n"
        "        for m in sys.modules if m.split('.')[0] == 'cordant'}\n"
        "lines = 0\n"
        "for path in mods.values():\n"
        "    if path.endswith('.py'):\n"
        "        with open(path, encoding='utf-8') as fh:\n"
        "            lines += sum(1 for _ in fh)\n"
        "print(json.dumps([m in sys.modules "
        "for m in ('dataclasses', 'inspect')] + [sorted(mods), lines]))\n"))
    return {"wall_s": round(statistics.median(seconds), 4),
            "loads_dataclasses": loaded[0], "loads_inspect": loaded[1],
            "cordant_modules": loaded[2], "source_lines": loaded[3]}


def cli_import_row() -> dict:
    """Import time of ``cordant.cli``, the modules two steps load, and
    the wall time of whole processes."""
    timed = ("import time; t = time.perf_counter(); import cordant.cli; "
             "print(time.perf_counter() - t)")
    seconds = [float(fresh(timed)) for _ in range(IMPORT_RUNS)]
    count = ("import sys; print(sum(m.startswith('cordant.') "
             "for m in sys.modules))")
    decide = ("import contextlib, io, cordant.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    cordant.cli.main(['decide', 'path-ek', '--n', '10', "
              "'--k', '4'])\n")
    return {"runs": IMPORT_RUNS,
            "import_s": round(statistics.median(seconds), 4),
            "modules": {
                "import cordant.cli": int(fresh(f"import cordant.cli\n{count}")),
                "decide path-ek": int(fresh(f"{decide}{count}")),
            },
            "process_runs": PROCESS_RUNS,
            "processes": {label: process_row(argv)
                          for label, argv in PROCESS_COMMANDS.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    doc: dict = {"seed": args.seed, "seconds": SECONDS,
                 "python": None, "backend": None, "workloads": {}}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, 0)
        traced = run(workload, args.seed, 1)
        doc["python"], doc["backend"] = plain["python"], plain["backend"]
        doc["workloads"][workload] = {
            "untraced": plain["verdict"],
            "traced": traced["verdict"],
            "end_to_end": plain["metrics"],
            "layers": {name: traced["printed"].get(name) for name in TRACED},
        }
        print(f"{workload}: correct {plain['verdict']['correct']}/"
              f"{traced['verdict']['correct']}  "
              f"wall_s {plain['metrics'].get('wall_s')}", flush=True)
    doc["direct"] = {"op_tables": op_tables_row(), **direct_rows()}
    for order in (128, 192):
        doc["direct"][f"antimagic_{order}"] = antimagic_order_row(order)
    doc["direct"]["graph_symmetry"] = graph_symmetry_row(args.seed)
    doc["direct"]["explore_10"] = explore_row()
    doc["direct"]["survey_fixed_cost"] = survey_fixed_cost_row()
    doc["direct"]["round_trip_Z5xZ1024"] = round_trip_row()
    doc["direct"]["fixed_cost"] = fixed_cost_row()
    doc["direct"]["cli_import"] = cli_import_row()
    print(f"direct: {json.dumps(doc['direct'])}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
