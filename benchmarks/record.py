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
by a newline, in sweep order).  It times the certificate round trip
of the block-route labeling of P5120 over Z5xZ1024 (the median of
``ROUND_TRIP_RUNS`` runs of make, dumps and loads each, in seconds) and
records the text's size and sha256, which later files can compare for
byte identity.  In fresh interpreters it times
``import cordant.cli`` (the median of ``IMPORT_RUNS`` runs, import
statement only) and counts the ``cordant.*`` modules that importing the
CLI and then running ``decide path-ek`` each leave loaded.

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
          "certificates.loads_s", "groups.isomorphism_s")
ROUND_TRIP_RUNS = 9
# perfbench's default --seconds; not passed, so every point has this length
SECONDS = 20
IMPORT_RUNS = 9

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
    by_route: dict = {}
    antimagic_nodes = 0
    results = []
    start = time.perf_counter()
    for order in range(2, 65):
        for spec in abelian_groups_of_order(order):
            res = construct_path_antimagic(spec)
            by_route.setdefault(res.route, Counter())[res.status] += 1
            antimagic_nodes += res.nodes_explored
            results.append((spec.factors, res))
    antimagic_s = time.perf_counter() - start
    digest = hashlib.sha256()
    for factors, res in results:
        labels = res.labeling.labels if res.labeling else None
        digest.update(repr((factors, res.status, res.route,
                            res.nodes_explored, labels)).encode() + b"\n")
    antimagic = sum(by_route.values(), Counter())
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
                            "by_route": {route: dict(sorted(counts.items()))
                                         for route, counts
                                         in sorted(by_route.items())}},
    }


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


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True).stdout


def cli_import_row() -> dict:
    """Import time of ``cordant.cli`` and the modules two steps load."""
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
            }}


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
    doc["direct"] = direct_rows()
    doc["direct"]["round_trip_Z5xZ1024"] = round_trip_row()
    doc["direct"]["cli_import"] = cli_import_row()
    print(f"direct: {json.dumps(doc['direct'])}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
