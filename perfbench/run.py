"""The cordant benchmark: four closed-loop workloads, checked and timed.

Usage (from the repository root; needs only the standard library):

    python3 perfbench/run.py --workload exhaust --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (one caller, ``workers=1``, the next call starts when the
previous one returns):

    exhaust    lex-first exhaustive searches, kernel-bound
    construct  construct_path_antimagic over every Abelian group of order
               2..64, seeded construct_path_ek pairs and seeded block
               groups, each Found round-tripped through a certificate
    survey     explore_conjecture(9)
    cli        one ``python -m cordant.cli`` process at a time

A run builds the workload's batch of calls from ``--seed`` and executes
it a fixed number of times for the given ``--seconds`` (``BATCHES_AT_20S``
scaled, at least 2), so the same ``--seconds`` always means the same work
and the same sample counts: faster code finishes sooner instead of doing
more.
Every outcome goes through the correctness gate in ``workloads.py``;
node counts must repeat exactly across batches and between the untraced
and traced passes.

``--trace 0`` reports the end-to-end metrics.  Their times are in
reference seconds (``speed.py``): a clock probes the host's speed with a
fixed stdlib computation every tenth of a second (inside long calls too)
and scales every stretch of time by it, because on a shared host the same
call's raw time moves by tens of percent from one half-minute to the
next.  Raw batch walls and set-up times are printed next to them.

    setup_s         fresh interpreter to first timed call (import cordant,
                    build the inputs, warm up: workloads.warm_up); median
                    of several fresh processes
    wall_s          one batch: the sum of each call's median time
    call_p50_ms     median call (survey: one explore_conjecture per batch)
    call_tail_ms    highest percentile with at least ten calls beyond it,
                    the maximum when there are ten calls or fewer
    certified_frac  calls ending in a certified answer; fail_frac, printed
                    too, is its complement (not in the JSON: it is 0 on
                    survey every run, and a metric must never be 0)
    peak_rss_mb     peak resident memory of the process doing the work
                    (cli: the largest child)

``--trace 1`` runs a warm-up batch, then alternates untraced and traced
batches, and reports the per-layer split from ``spans.py``, per batch, in
raw seconds (no probes run in the traced pass).  Layer times
that are 0 on some workload are given in the JSON as shares of the
traced wall time; their seconds are printed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric by name with its
unit.  ``failed`` counts gate mismatches; known defects (Unknown
outcomes frozen in ``expected.json``, the CLI exit-code bug in
``workloads.CLI_FIXED``) are not mismatches but count against
``certified_frac``.  The exit code is 1
when any outcome fails the gate, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans as layers  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

# batches per run at --seconds 20, which takes 20-35 s of raw time per run
# on the baseline host (pure backend, 2 cores, busy); other --seconds scale
# it.  Each workload gets enough batches for a steady per-call median; with
# four, the tail sample (the 11th largest) is the third-largest call's third
# sample, a middle one, on exhaust (see workloads.SMALL_REPEATS) and
# construct.  On cli, three put it in the middle of the cluster of ~0.2 s
# commands below the two slowest ones.  The traced cli pass calls
# cordant.cli.main in-process, where a batch takes about
# NOMINAL_INPROCESS_CLI_S.
BATCHES_AT_20S = {"exhaust": 4, "construct": 4, "survey": 3, "cli": 3}
NOMINAL_INPROCESS_CLI_S = 0.5
SETUP_SAMPLES = 5
SETUP_PROBE_SAMPLES = 4
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "call_p50_ms": "ms", "call_tail_ms": "ms",
    "certified_frac": "frac", "peak_rss_mb": "MB",
}


def batch_count(workload: str, seconds: int, in_process: bool) -> int:
    if in_process:
        return max(2, round(seconds / NOMINAL_INPROCESS_CLI_S))
    return max(2, round(BATCHES_AT_20S[workload] * seconds / 20))


# ---------------------------------------------------------------------------
# set-up

def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, build the inputs, warm up,
    report."""
    sys.path.insert(0, str(W.SRC))
    import cordant
    W.warm_up(W.build(workload, seed, cordant), cordant)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter to first timed call, sampled several times, in
    reference seconds (and raw seconds)."""
    clock = speed.SpeedClock()
    spans = []
    for _ in range(SETUP_SAMPLES):
        clock.probe(SETUP_PROBE_SAMPLES)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=W.ROOT)
        line = proc.stdout.readline().strip()
        spans.append((start, time.perf_counter()))
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line != "ready":
            raise SystemExit(f"set-up probe failed for {workload}")
    clock.probe(SETUP_PROBE_SAMPLES)
    return ([clock.scaled(a, b) for a, b in spans],
            [b - a for a, b in spans])


def measure_cli_import() -> float:
    code = ("import time; t = time.perf_counter(); import cordant.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, cwd=W.ROOT,
                             env=W.cli_env())
        samples.append(float(out.stdout))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# batches

def run_batches(calls, cordant, count: int, in_process: bool,
                tracer=None, clock=None,
                raw_walls=None) -> tuple[list[float], list[list[W.Outcome]]]:
    """Run the batch ``count`` times.  With a ``speed.SpeedClock`` (its
    timer started or not) the clock also probes between calls, and every
    time returned is in reference seconds (raw batch walls go to
    ``raw_walls``); without one, times are raw ``perf_counter`` seconds."""
    walls, batches, marks = [], [], []
    for _ in range(count):
        outcomes = []
        gc.collect()
        if clock is not None:
            clock.probe()
        start = time.perf_counter()
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.call_id = i
            if clock is not None:
                clock.maybe_probe()
            t0 = time.perf_counter()
            value = W.invoke(call, cordant, in_process)
            t1 = time.perf_counter()
            out = W.Outcome(value, t1 - t0)
            out.extra = W.round_trip(call, value, cordant)
            t2 = time.perf_counter()
            out.item_seconds = t2 - t0
            outcomes.append(out)
            marks.append((out, t0, t1, t2))
        end = time.perf_counter()
        walls.append(end - start)
        if clock is not None:
            clock.probe()
            marks.append((None, start, end, end))
        if tracer is not None:
            tracer.active = False
        for call, out in zip(calls, outcomes):
            W.check(call, out, cordant)
            # keep what the report needs, not the results themselves, so
            # later batches do not run on a bigger heap
            out.value = out.extra = None
        if tracer is not None:
            tracer.active = True
        batches.append(outcomes)
    if clock is not None:
        # every probe is in: convert to reference seconds
        clock.stop_timer()
        if raw_walls is not None:
            raw_walls += walls
        walls = []
        for out, t0, t1, t2 in marks:
            if out is None:
                walls.append(clock.scaled(t0, t1))
            else:
                out.seconds = clock.scaled(t0, t1)
                out.item_seconds = clock.scaled(t0, t2)
    return walls, batches


def node_mismatches(calls, batches) -> list[str]:
    """Calls whose node counts differ between any two batches."""
    bad = []
    for i, call in enumerate(calls):
        seen = {repr(b[i].nodes) for b in batches}
        if len(seen) > 1:
            bad.append(call.label)
    return bad


def batch_wall(batches) -> float:
    """Wall time of one batch, estimated call by call: the sum over the
    batch's calls of each call's median time (with its certificate round
    trip) across batches.  A burst of machine noise then moves one call of
    one batch, not the whole estimate."""
    return sum(statistics.median(b[i].item_seconds for b in batches)
               for i in range(len(batches[0])))


def backend_parity(calls, cordant, batch) -> list[str] | None:
    """With both kernels importable, rerun every library call on the kernel
    not selected at import, after the timed batches: statuses and node
    counts must agree.  None when only one kernel imports."""
    from cordant import _kernel
    if _kernel.compiled is None:
        return None
    saved = _kernel._active
    _kernel._active = (_kernel.pure if saved is _kernel.compiled
                       else _kernel.compiled)
    bad = []
    try:
        for call, out in zip(calls, batch):
            if call.fn == "cli":
                continue
            other = W.Outcome(W.invoke(call, cordant, False), 0.0)
            W.check(call, other, cordant)
            if (other.status, other.nodes) != (out.status, out.nodes):
                bad.append(call.label)
    finally:
        _kernel._active = saved
    return bad


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and which
    percentile that is; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# reports

def end_to_end(workload, calls, setup, batches, child_peak_mb):
    """The end-to-end metrics; every time in reference seconds."""
    flat = [out for batch in batches for out in batch]
    times_ms = [out.seconds * 1000 for out in flat]
    tail_ms, tail_pct = tail(times_ms)
    certified = sum(out.certified for out in flat)
    peak = (child_peak_mb if workload == "cli"
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": batch_wall(batches),
        "call_p50_ms": statistics.median(times_ms),
        "call_tail_ms": tail_ms,
        "certified_frac": certified / len(flat),
        "peak_rss_mb": peak,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"{len(calls)} calls, each its median of {len(batches)} "
                  f"batches",
        "call_p50_ms": f"{len(flat)} calls",
        "call_tail_ms": f"p{tail_pct:.1f} of {len(flat)} calls",
        "certified_frac": f"{certified} of {len(flat)} calls certified",
        "peak_rss_mb": ("max over cli child processes" if workload == "cli"
                        else "benchmark process"),
    }
    return metrics, notes


def per_layer(tracer, traced_walls, plain_walls, batches_traced, calls,
              import_s):
    """Per-batch layer metrics from the traced pass."""
    nb = len(traced_walls)
    wall = sum(traced_walls) / nb
    self_s = {k: v / nb for k, v in tracer.self_times().items()}
    counts = {k: v / nb for k, v in tracer.counts.items()}
    spans = {}
    for span in tracer.spans:
        spans[span[0]] = spans.get(span[0], 0) + 1

    def count(key):
        return counts.get(key, 0)

    def n_spans(layer):
        return spans.get(layer, 0) / nb

    def share(seconds):
        return seconds / wall

    m = {}
    m["kernel.calls"] = count("kernel.calls")
    m["kernel.nodes"] = count("kernel.nodes")
    m["kernel.self_s"] = self_s["kernel"]
    m["kernel.nodes_per_s"] = (count("kernel.nodes") / self_s["kernel"]
                               if self_s["kernel"] else 0.0)
    m["kernel.budget_stops"] = count("kernel.budget_stops")
    m["search.calls"] = count("search.calls")
    m["search.branches"] = count("search.branches")
    m["search.self_s"] = self_s["search"]
    granted = count("search.unknown_budget")
    m["search.budget_used_frac"] = (count("search.unknown_nodes") / granted
                                    if granted else 0.0)
    m["groups.op_tables_calls"] = n_spans("groups.op_tables")
    m["groups.op_tables_s"] = self_s["groups.op_tables"]
    m["groups.isomorphism_calls"] = n_spans("groups.isomorphism")
    m["groups.isomorphism_share"] = share(self_s["groups.isomorphism"])
    m["labelings.verify_calls"] = count("labelings.verify_calls")
    m["labelings.verify_labels"] = count("labelings.verify_labels")
    m["labelings.verify_s"] = self_s["labelings.verify"]
    m["constructions.calls"] = count("constructions.calls")
    m["constructions.self_share"] = share(self_s["constructions"])
    for route in layers.ROUTES:
        key = f"constructions.route.{route}"
        m[f"{key}.calls"] = count(f"{key}.calls")
        m[f"{key}.unknown"] = count(f"{key}.unknown")
        m[f"{key}.share"] = share(count(f"{key}.s"))
    m["certificates.make_share"] = share(self_s["certificates.make"])
    m["certificates.dumps_share"] = share(self_s["certificates.dumps"])
    m["certificates.loads_share"] = share(self_s["certificates.loads"])
    m["certificates.bytes"] = (count("certificates.dumps_bytes")
                               + count("certificates.loads_bytes"))
    m["trees.count"] = count("trees.count")
    m["trees.enumerate_share"] = share(self_s["trees.enumerate"])
    m["graphs.build_share"] = share(self_s["graphs.build"])
    m["explore.rows"] = count("explore.rows")
    m["explore.self_share"] = share(self_s["explore"])
    m["cli.import_s"] = import_s
    m["cli.main_share"] = share(self_s["cli.main"])
    m["cli.exit_mismatches"] = sum(
        1 for batch in batches_traced for call, out in zip(calls, batch)
        if call.fn == "cli" and out.exit != call.expect["exit"]) / nb
    other = wall - sum(self_s.values())
    m["other.self_s"] = other
    m["trace.overhead_frac"] = wall / (sum(plain_walls) / len(plain_walls)) - 1
    # layers that sit idle on some workloads are shares in the JSON (an idle
    # layer would read 0 s on every run there); their seconds are printed
    seconds = {
        "groups.isomorphism_s": self_s["groups.isomorphism"],
        "constructions.self_s": self_s["constructions"],
        **{f"constructions.route.{route}.s": count(f"constructions.route.{route}.s")
           for route in layers.ROUTES},
        "certificates.make_s": self_s["certificates.make"],
        "certificates.dumps_s": self_s["certificates.dumps"],
        "certificates.loads_s": self_s["certificates.loads"],
        "trees.enumerate_s": self_s["trees.enumerate"],
        "graphs.build_s": self_s["graphs.build"],
        "explore.self_s": self_s["explore"],
        "cli.main_s": self_s["cli.main"],
        "trace.wall_s": wall,
    }
    return m, seconds


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_share", ".share", "_frac")):
        return "frac"
    if name.endswith(".bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# one workload

def run_workload(args) -> int:
    workload, seed = args.workload, args.seed
    setup, setup_raw = measure_setup(workload, seed)
    sys.path.insert(0, str(W.SRC))
    import cordant
    import cordant.cli  # noqa: F401  (called in-process by the traced cli pass)
    from cordant._kernel import backend_name

    calls = W.build(workload, seed, cordant)
    W.warm_up(calls, cordant)
    in_process = workload == "cli" and args.trace == 1
    total = batch_count(workload, args.seconds, in_process)
    print(f"workload {workload}  seed {seed}  backend {backend_name()}  "
          f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  "
          f"batches {total}  trace {args.trace}")

    tracer = None
    raw_walls: list[float] = []
    if args.trace == 0:
        clock = speed.SpeedClock()
        # the cli children run outside this process: probe between them
        # only, so that no probe competes with a child for the cores
        if workload != "cli":
            clock.start_timer()
        try:
            walls, batches = run_batches(calls, cordant, total, in_process,
                                         clock=clock, raw_walls=raw_walls)
        finally:
            clock.stop_timer()
        all_batches = list(batches)
    else:
        # a first batch fills the library's caches; then untraced and
        # traced batches alternate, so the overhead compares warm with warm
        import_s = measure_cli_import()
        _, all_batches = run_batches(calls, cordant, 1, in_process)
        walls, traced_walls, traced = [], [], []
        tracer = layers.Tracer()
        for _ in range(max(1, (total - 1) // 2)):
            plain_wall, plain = run_batches(calls, cordant, 1, in_process)
            tracer.install(cordant)
            tracer.active = True
            try:
                traced_wall, batch = run_batches(calls, cordant, 1,
                                                 in_process, tracer)
            finally:
                tracer.active = False
                tracer.uninstall()
            walls += plain_wall
            traced_walls += traced_wall
            traced += batch
            all_batches += plain + batch
        W.WORK.mkdir(exist_ok=True)
        tracer.dump(W.WORK / f"trace-{workload}-{seed}.json")

    flat = [(call, out) for b in all_batches for call, out in zip(calls, b)]
    wrong = [(call.label, out.note) for call, out in flat if not out.correct]
    drift = node_mismatches(calls, all_batches)
    for label, note in wrong[:20]:
        print(f"MISMATCH {label}: {note}")
    for label in drift:
        print(f"NODE DRIFT {label}: node counts differ between batches")
    parity = backend_parity(calls, cordant, all_batches[0])
    if parity is None:
        print("backend parity: only one kernel imports; not checked")
    else:
        for label in parity:
            print(f"BACKEND DISAGREEMENT {label}")
        print(f"backend parity: {len(parity)} disagreements between kernels")
        drift += parity
    nodes = sum(sum(out.nodes) if isinstance(out.nodes, tuple)
                else (out.nodes or 0) for out in all_batches[0])
    print(f"calls per batch {len(calls)}  nodes per batch {nodes}  "
          f"(not frozen; must repeat exactly)")
    if args.trace == 0:
        print("batch walls, reference s: "
              + " ".join(f"{w:.3f}" for w in walls)
              + "  raw s: " + " ".join(f"{w:.3f}" for w in raw_walls))
        print("set-up, reference s: " + " ".join(f"{w:.3f}" for w in setup)
              + "  raw s: " + " ".join(f"{w:.3f}" for w in setup_raw))
    else:
        print("batch walls s: " + " ".join(f"{w:.3f}" for w in walls)
              + "  traced: " + " ".join(f"{w:.3f}" for w in traced_walls))

    if args.trace == 0:
        child_peak = max((out.peak_mb for b in batches for out in b),
                         default=0.0)
        metrics, notes = end_to_end(workload, calls, setup, batches,
                                    child_peak)
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"  {name:<16} {value:>14.6f} {units[name]:<5} {notes[name]}")
        print(f"  {'fail_frac':<16} {1 - metrics['certified_frac']:>14.6f} "
              f"{'frac':<5} calls not ending in a certified answer "
              f"(Unknown, raised, or an unexpected cli exit code)")
    else:
        metrics, seconds = per_layer(tracer, traced_walls, walls, traced,
                                     calls, import_s)
        units = {name: unit_of(name) for name in metrics}
        for name, value in {**metrics, **seconds}.items():
            print(f"  {name:<44} {value:>16.6f} {unit_of(name)}")
        print(f"  traced spans {len(tracer.spans)} written to "
              f"{(W.WORK / f'trace-{workload}-{seed}.json').relative_to(W.ROOT)}")

    correct = not wrong and not drift
    failed = len(wrong) + len(drift)
    print(json.dumps({
        "correct": correct,
        "attempted": len(flat),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for workload in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=W.ROOT, check=False)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (W.SRC / "cordant" / "__init__.py").is_file():
        print(f"error: no cordant package under {W.SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
