"""Workload inputs, call execution and the correctness gate.

Each workload is a fixed list of calls (a batch) built from the seed.
The library only ever sees the generated inputs; expected outcomes come
from ``expected.json`` (frozen at the baseline) or from rules stated
here, never from the code under test.

Outcome vocabulary:

* certified -- the call ended in a certified answer (Found, NotExists,
  Impossible, or the expected CLI exit code).  ``fail_frac`` counts the
  calls that did not.
* correct -- the outcome matches its expectation.  Known defects are
  part of the expectation: a call frozen as Unknown may stay Unknown (or
  improve to a verified answer), and the CLI exit-code bug may keep its
  frozen wrong exit code.  Anything else is a mismatch and fails the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("exhaust", "construct", "survey", "cli")

# exhaust: a batch runs ten small fixed searches (under 0.06 s each) three
# times, then two fixed calls near 0.1 s, three pinned-root searches on
# seeded random trees (0.1-0.55M nodes), and four fixed calls from 0.5 s
# up: 39 calls.  The median call is the 20th, the middle of the nine runs
# of the three searches that take 14-17 ms (P9/Z3xZ3, P9/Z9, (Z2)^6), so
# it is drawn from a dense cluster of samples; with four batches the tail
# sample (the 11th largest) is one of the third-largest call's.  The seed
# then moves wall_s a little and call_p50_ms/call_tail_ms not at all.
SMALL_REPEATS = 3
SEEDED_TREES = 3
SEEDED_EK_PAIRS = 24      # construct: seeded construct_path_ek(n, k)
EK_MAX_N = 30             # every pair up to here resolves in < 0.1 s
# construct: two seeded block groups of order 4096..6144, 10240 in sum; at
# this size they stay below the slowest sweep calls, so the seed does not
# decide which call sets the tail
BLOCK_TOTAL_ORDER = 10240
SURVEY_N_MAX = 9
# construct: a pair past EK_MAX_N whose cycle search stops Unknown on one
# root branch's budget share (share waste)
EK_FIXED = ((39, 10),)


@dataclass
class Call:
    """One user-facing call of a batch."""

    label: str
    fn: str                        # public cordant name, or "cli"
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a call returned, how long it took, and what the gate said."""

    value: object
    seconds: float
    extra: object = None           # certificate round trip (construct)
    certified: bool = False
    correct: bool = False
    nodes: object = None
    note: str = ""
    status: str = ""               # library calls: the status returned
    exit: int | None = None        # cli: the exit code
    peak_mb: float = 0.0           # cli: the child's peak resident memory
    item_seconds: float = 0.0      # the call plus its certificate round trip


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def group_key(factors) -> str:
    return "x".join(str(d) for d in factors)


# ---------------------------------------------------------------------------
# existence rules the gate checks against (stated here, not imported)

def ek_path_exists(n: int, k: int) -> bool:
    """Equitable Z_k edge labeling of P_n: fails only for P_2, and for n an
    odd multiple of k with k = 2 mod 4."""
    if n == 2:
        return False
    return k % 4 != 2 or not (n % k == 0 and (n // k) % 2 == 1)


def cycle_zk_exists(n: int, k: int) -> bool:
    return k % 2 == 1 or not (n % k == 0 and (n // k) % 2 == 1)


# ---------------------------------------------------------------------------
# seeded input generators

def prufer_tree_edges(rng: random.Random, n: int) -> tuple:
    """A uniformly random labeled tree on n vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(n) if degree[i] == 1]
    edges.append((u, v))
    return tuple(edges)


def block_presentation(rng: random.Random, order: int) -> tuple:
    """A seeded presentation of a group Z_(2^a) + H of the given order,
    2^a >= 8, H odd: the odd part split into cyclic factors one of
    several ways, and the factors in a seeded order."""
    two = order & -order
    odd = order // two
    primes: list[int] = []
    rest, p = odd, 3
    while rest > 1:
        while rest % p == 0:
            primes.append(p)
            rest //= p
        p += 2
    # group equal primes, then optionally split prime powers
    odd_factors: list[int] = []
    for p in sorted(set(primes)):
        e = primes.count(p)
        if e > 1 and rng.random() < 0.5:
            odd_factors.extend([p] * e)
        else:
            odd_factors.append(p ** e)
    shapes = [(two, *odd_factors), (*odd_factors, two)]
    if len(odd_factors) <= 1 or len(set(odd_factors)) == len(odd_factors):
        # pairwise coprime factors: the group is cyclic
        shapes.append((order,))
    return rng.choice(shapes)


def build(workload: str, seed: int, cordant) -> list[Call]:
    """The batch of calls for ``workload``; the seed picks the inputs."""
    rng = random.Random(f"{workload}:{seed}")
    expected = load_expected()
    return {"exhaust": _build_exhaust, "construct": _build_construct,
            "survey": _build_survey, "cli": _build_cli}[workload](
                rng, cordant, expected)


def _build_exhaust(rng, C, expected) -> list[Call]:
    G = C.GroupSpec
    frozen = expected["exhaust"]
    small = [
        Call("a-cordial C6/Z6", "search_a_cordial",
             (C.cycle_graph(6), G((6,)))),
        Call("a-cordial C12/Z2xZ6", "search_a_cordial",
             (C.cycle_graph(12), G((2, 6)))),
        Call("ea-cordial C9/Z3xZ3", "search_ea_cordial",
             (C.cycle_graph(9), G((3, 3)))),
        Call("antimagic P9/Z3xZ3", "search_a_antimagic",
             (C.path_graph(9), G((3, 3)))),
        Call("ea-cordial P9/Z9", "search_ea_cordial",
             (C.path_graph(9), G((9,)))),
        Call("antimagic P12/Z2xZ6", "search_a_antimagic",
             (C.path_graph(12), G((2, 6)))),
        Call("antimagic P16/Z16", "search_a_antimagic",
             (C.path_graph(16), G((16,)))),
        Call("rstar (Z2)^4", "search_rstar_sequence", (G((2, 2, 2, 2)),)),
        Call("rstar Z2xZ8", "search_rstar_sequence", (G((2, 8)),)),
        # share waste: one root branch spends its 1/m budget share and
        # the whole search stops Unknown with most of the budget unused
        Call("rstar (Z2)^6", "search_rstar_sequence", (G((2,) * 6),)),
    ]
    fixed = [
        # about 0.1 s each, below every pinned-root tree
        Call("a-cordial C8/Z8", "search_a_cordial",
             (C.cycle_graph(8), G((8,)))),
        Call("sigma-max Z10", "compute_sigma_max", (G((10,)),)),
    ]
    large = [
        # share waste again (625k of 10M nodes)
        Call("astar-antimagic P16/Z16", "search_a_star_antimagic",
             (C.path_graph(16), G((16,)))),
        # full exhaustions of 0.8-1.9M nodes, the three largest calls
        Call("ea-cordial P10/Z10", "search_ea_cordial",
             (C.path_graph(10), G((10,)))),
        Call("a-cordial C10/Z10", "search_a_cordial",
             (C.cycle_graph(10), G((10,)))),
        Call("a-cordial C20/Z4", "search_a_cordial",
             (C.cycle_graph(20), G((4,)))),
    ]
    for call in small + fixed + large:
        call.expect = dict(frozen[call.label])
    calls = [Call(c.label if r == 0 else f"{c.label} (repeat {r})", c.fn,
                  c.args, c.kwargs, c.expect)
             for r in range(SMALL_REPEATS) for c in small] + fixed
    for i in range(SEEDED_TREES):
        edges = prufer_tree_edges(rng, 10)
        first = rng.randrange(10)
        # order 10 and |Z10| are both 2 mod 4: no equitable labeling, so
        # the pinned-root search must exhaust its branch
        calls.append(Call(
            f"tree#{i} {list(edges)} first={first}", "search_ea_cordial",
            (C.tree_graph(10, edges), G((10,))),
            {"prefix": ((first,),)}, {"status": "NotExists"}))
    # a fixed order: the order of the big searches sets how far the heap
    # has grown when each runs, so a seeded order would move peak_rss_mb
    return calls + large


def _build_construct(rng, C, expected) -> list[Call]:
    frozen = expected["construct"]
    calls = []
    for n in range(2, 65):
        for spec in C.abelian_groups_of_order(n):
            key = group_key(spec.factors)
            calls.append(Call(f"antimagic {key}", "construct_path_antimagic",
                              (spec,), {}, dict(frozen["sweep"][key])))
    for n, k in EK_FIXED:
        calls.append(Call(f"ek P{n}/Z{k}", "construct_path_ek", (n, k), {},
                          dict(frozen["ek"][f"{n},{k}"])))
    for _ in range(SEEDED_EK_PAIRS):
        n, k = rng.randint(3, EK_MAX_N), rng.randint(2, 16)
        status = "Found" if ek_path_exists(n, k) else "Impossible"
        calls.append(Call(f"ek P{n}/Z{k}", "construct_path_ek", (n, k), {},
                          {"status": status}))
    j = rng.randint(4, 6)
    for order in (1024 * j, BLOCK_TOTAL_ORDER - 1024 * j):
        factors = block_presentation(rng, order)
        calls.append(Call(f"antimagic {group_key(factors)}",
                          "construct_path_antimagic", (C.GroupSpec(factors),),
                          {}, {"status": "Found", "route": "block"}))
    return calls


def _build_survey(rng, C, expected) -> list[Call]:
    return [Call(f"explore_conjecture({SURVEY_N_MAX})", "explore_conjecture",
                 (SURVEY_N_MAX,), {}, dict(expected["survey"]))]


# fixed CLI invocations: (label, argv, expectation); exit codes follow the
# CLI contract (0 yes/valid, 1 no/invalid, 2 bad input, 3 out of budget)
CLI_FIXED = (
    ("search antimagic P9/Z3xZ3",
     ("search", "antimagic", "--group", "Z3xZ3", "--kind", "path", "--n", "9",
      "--format", "json"),
     {"exit": 0, "json_certificate": True, "json_nodes": True}),
    ("search ea-cordial P6/Z6",
     ("search", "ea-cordial", "--group", "Z6", "--kind", "path", "--n", "6",
      "--format", "json"),
     {"exit": 1, "json_nodes": True}),
    ("search rstar (Z2)^4",
     ("search", "rstar", "--group", "Z2xZ2xZ2xZ2", "--format", "json"),
     {"exit": 0, "json_nodes": True}),
    ("sigma-max Z10", ("sigma-max", "--group", "Z10"), {"exit": 0}),
    ("construct ant-path Z1024",
     ("construct", "ant-path", "--group", "Z1024", "--format", "json"),
     {"exit": 0, "json_certificate": True}),
    ("explore 6", ("explore", "--n-max", "6"), {"exit": 0}),
    ("demo 1", ("demo", "1", "--format", "json"),
     {"exit": 0, "json_certificate": True}),
    ("demo 2", ("demo", "2", "--format", "json"),
     {"exit": 0, "json_certificate": True}),
    ("demo 3", ("demo", "3", "--format", "json"),
     {"exit": 0, "json_certificate": True}),
    ("demo 4", ("demo", "4", "--format", "json"),
     {"exit": 0, "json_certificate": True}),
    # bad input must exit 2 with a one-line error; the null label is a
    # known defect that exits 1 with a traceback
    ("verify null label",
     ("verify", "--notion", "ea-cordial", "--group", "Z3", "--kind", "path",
      "--n", "3", "--labels", "[0, null]"),
     {"exit": 2, "known_defect_exit": 1}),
    ("construct bad group",
     ("construct", "antimagic-path", "--group", "Zfoo"), {"exit": 2}),
    ("search trivial group",
     ("search", "ea-cordial", "--group", "Z1", "--kind", "path", "--n", "3"),
     {"exit": 2}),
    ("decide P1", ("decide", "path-ek", "--n", "1", "--k", "3"), {"exit": 2}),
)


def _build_cli(rng, C, expected) -> list[Call]:
    WORK.mkdir(exist_ok=True)
    cert_path = WORK / "z4096-ea-cordial.json"
    labeling = C.construct_ant_path(C.GroupSpec((4096,)))
    text = C.certificate_dumps(C.make_edge_certificate(
        C.NOTION_EA_CORDIAL, C.path_graph(4096), labeling))
    cert_path.write_text(text, encoding="utf-8")

    calls = [Call(label, "cli", argv, {}, dict(expect))
             for label, argv, expect in CLI_FIXED]
    calls.append(Call("verify --certificate Z4096", "cli",
                      ("verify", "--certificate", str(cert_path)), {},
                      {"exit": 0, "stdout_prefix": "valid"}))
    sweep = expected["construct"]["sweep"]
    settled = sorted(k for k, v in sweep.items()
                     if v["status"] in ("Found", "Impossible"))
    key = rng.choice(settled)
    group = "x".join(f"Z{d}" for d in key.split("x"))
    calls.append(Call(f"construct antimagic-path {group}", "cli",
                      ("construct", "antimagic-path", "--group", group,
                       "--format", "json"), {},
                      {"exit": 0 if sweep[key]["status"] == "Found" else 1,
                       "json_certificate": sweep[key]["status"] == "Found"}))
    n, k = rng.randint(3, EK_MAX_N), rng.randint(2, 16)
    found = ek_path_exists(n, k)
    calls.append(Call(f"construct ek-path {n} {k}", "cli",
                      ("construct", "ek-path", "--n", str(n), "--k", str(k),
                       "--format", "json"), {},
                      {"exit": 0 if found else 1, "json_certificate": found}))
    n, k = rng.randint(2, 200), rng.randint(2, 40)
    calls.append(Call(f"decide path-ek {n} {k}", "cli",
                      ("decide", "path-ek", "--n", str(n), "--k", str(k)), {},
                      {"exit": 0 if ek_path_exists(n, k) else 1}))
    n, k = rng.randint(3, 200), rng.randint(2, 40)
    calls.append(Call(f"decide cycle-zk {n} {k}", "cli",
                      ("decide", "cycle-zk", "--n", str(n), "--k", str(k)), {},
                      {"exit": 0 if cycle_zk_exists(n, k) else 1}))
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# execution

WARM_BUDGET = 2000
WARM_MAX_ORDER = 64


def warm_up(calls: list[Call], cordant) -> None:
    """Before the first timed batch, run every search and construction
    call once with a small node budget: the first call on a group builds
    its Cayley tables, which the library then caches, and in a cold first
    batch that one-off cost (half again the warm time of a small
    construct call) moves the pooled call_p50_ms.  The seeded block groups
    (order 4096 and up) are left cold: one call each, never near the
    median, and warming them would double set-up time.  Outcomes are not
    used; set-up time includes this."""
    for call in calls:
        if call.fn == "construct_path_antimagic" \
                and call.args[0].order > WARM_MAX_ORDER:
            continue
        if call.fn.startswith(("search_", "construct_")) \
                or call.fn == "compute_sigma_max":
            try:
                getattr(cordant, call.fn)(*call.args,
                                          **{**call.kwargs,
                                             "budget": WARM_BUDGET})
            except Exception:  # noqa: BLE001 - the timed call reports it
                pass

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(argv) -> tuple[int, str, str, float]:
    """Run ``python -m cordant.cli`` once; (exit, stdout, stderr, peak MB)."""
    out_path, err_path = WORK / "cli.stdout", WORK / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cordant.cli", *argv],
                                stdout=out, stderr=err, cwd=ROOT,
                                env=cli_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), usage.ru_maxrss / 1024)


def run_cli_inprocess(cordant, argv) -> tuple[int, str, str]:
    """``cordant.cli.main(argv)`` with the process exit mapped as the
    interpreter would map it (uncaught exception: 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cordant.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - mirrors an uncaught error
            print(f"Traceback: {type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def invoke(call: Call, cordant, in_process: bool):
    """Run one call; returns its raw value (or the exception it raised)."""
    try:
        if call.fn == "cli":
            if in_process:
                return run_cli_inprocess(cordant, call.args)
            return run_cli_process(call.args)
        return getattr(cordant, call.fn)(*call.args, **call.kwargs)
    except Exception as exc:  # noqa: BLE001 - a raise is an outcome
        return exc


def round_trip(call: Call, value, cordant):
    """construct: certificate make -> dumps -> loads for every Found."""
    if call.fn != "construct_path_antimagic" and call.fn != "construct_path_ek":
        return None
    if getattr(value, "status", None) != "Found":
        return None
    notion = (cordant.NOTION_A_ANTIMAGIC if call.fn == "construct_path_antimagic"
              else cordant.NOTION_EA_CORDIAL)
    n = len(value.labeling.labels) + 1
    try:
        cert = cordant.make_edge_certificate(notion, cordant.path_graph(n),
                                             value.labeling)
        return cordant.certificate_loads(cordant.certificate_dumps(cert))
    except Exception as exc:  # noqa: BLE001
        return exc


# ---------------------------------------------------------------------------
# the gate

def check(call: Call, out: Outcome, cordant) -> None:
    """Fill in ``out.certified``, ``out.correct``, ``out.nodes``."""
    value = out.value
    if isinstance(value, Exception):
        out.note = f"raised {type(value).__name__}: {value}"
        return
    if call.fn == "cli":
        checker = _check_cli
    elif call.fn == "explore_conjecture":
        checker = _check_survey
    elif call.fn.startswith("construct_"):
        checker = _check_construct
    else:
        checker = _check_search
    try:
        checker(call, out, cordant)
    except Exception as exc:  # noqa: BLE001 - malformed output is a mismatch
        out.correct = False
        out.note = f"check raised {type(exc).__name__}: {exc}"


def _status_matches(expect: dict, status: str) -> bool:
    # a frozen Unknown is a known defect: it may stay, or be resolved
    if expect["status"] == "Unknown":
        return True
    return status == expect["status"]


def _check_search(call, out, C):
    value = out.value
    out.nodes, out.status = value.nodes_explored, value.status
    out.certified = value.status != "Unknown"
    if not _status_matches(call.expect, value.status):
        out.note = f"status {value.status}, expected {call.expect['status']}"
        return
    if value.status == "Found":
        problem = _reverify_search(call, value, C)
        if problem:
            out.note = problem
            return
        want = call.expect.get("digest")
        if want is not None and search_digest(value) != want:
            out.note = "lex-first certificate differs from the frozen one"
            return
    out.correct = True


def search_digest(value) -> str:
    cert = getattr(value, "certificate", None)
    if cert is None:  # SigmaMaxResult
        return digest([value.value, [list(a) for a in value.witness.order]])
    if hasattr(cert, "star_index"):
        return digest([[list(a) for a in cert.seq], cert.star_index])
    return digest([list(a) for a in cert.labels])


def _reverify_search(call, value, C) -> str:
    spec = call.args[-1] if call.fn != "compute_sigma_max" else call.args[0]
    if call.fn == "compute_sigma_max":
        if value.value != C.sigma_max_formula(spec):
            return "sigma-max value disagrees with the closed formula"
        cycle = C.HamiltonianCycle(spec, value.witness.order)
        return "" if cycle.distinct_sum_count == value.value else "bad witness"
    if call.fn == "search_rstar_sequence":
        cert = value.certificate
        try:
            C.RStarSequence(spec, cert.seq, cert.star_index)
        except C.CordantError as exc:
            return f"R*-sequence does not re-verify: {exc}"
        return ""
    verifier = {
        "search_ea_cordial": C.verify_ea_cordial,
        "search_a_cordial": C.verify_a_cordial,
        "search_a_antimagic": C.verify_a_antimagic,
        "search_a_star_antimagic": C.verify_a_star_antimagic,
    }[call.fn]
    verdict = verifier(call.args[0], value.certificate)
    return "" if verdict.ok else f"certificate does not verify: {verdict.violation}"


def _check_construct(call, out, C):
    value = out.value
    out.nodes, out.status = value.nodes_explored, value.status
    out.certified = value.status != "Unknown"
    expect = call.expect
    if not _status_matches(expect, value.status):
        out.note = f"status {value.status}, expected {expect['status']}"
        return
    if expect["status"] != "Unknown" and "route" in expect \
            and value.route != expect["route"]:
        out.note = f"route {value.route}, expected {expect['route']}"
        return
    if value.status == "Found":
        n = len(value.labeling.labels) + 1
        verify = (C.verify_a_antimagic if call.fn == "construct_path_antimagic"
                  else C.verify_ea_cordial)
        verdict = verify(C.path_graph(n), value.labeling)
        if not verdict.ok:
            out.note = f"labeling does not verify: {verdict.violation}"
            return
        loaded = out.extra
        if isinstance(loaded, Exception) or loaded is None \
                or not loaded.verdict.ok \
                or loaded.edge_labels != value.labeling.labels:
            out.note = f"certificate round trip failed: {loaded!r}"
            return
    out.correct = True


def survey_digest(report) -> str:
    return digest([[r.n, list(r.group.factors), r.tree_index,
                    r.antimagic_status, r.antimagic_labels and
                    [list(a) for a in r.antimagic_labels],
                    r.astar_status, r.astar_labels and
                    [list(a) for a in r.astar_labels]]
                   for r in report.rows])


def _check_survey(call, out, C):
    report = out.value
    out.nodes = tuple(x for r in report.rows
                      for x in (r.antimagic_nodes, r.astar_nodes))
    out.certified = not report.unknown_rows
    expect = call.expect
    violations = [[r.n, list(r.group.factors), r.tree_index]
                  for r in report.violations]
    if len(report.rows) != expect["rows"]:
        out.note = f"{len(report.rows)} rows, expected {expect['rows']}"
    elif violations != expect["violations"]:
        out.note = f"violation rows {violations}"
    elif len(report.unknown_rows) != expect["unknown"]:
        out.note = f"{len(report.unknown_rows)} unknown rows"
    elif survey_digest(report) != expect["digest"]:
        out.note = "lex-first certificates differ from the frozen ones"
    else:
        for r in report.rows:
            tree = C.tree_graph(r.n, r.edges)
            for labels, verify in ((r.antimagic_labels, C.verify_a_antimagic),
                                   (r.astar_labels, C.verify_a_star_antimagic)):
                if labels is not None and not verify(
                        tree, C.EdgeLabeling(r.group, labels)).ok:
                    out.note = f"row n={r.n} tree#{r.tree_index} fails"
                    return
        out.correct = True


def _check_cli(call, out, C):
    code, stdout, stderr = out.value[:3]
    out.exit = code
    if len(out.value) == 4:
        out.peak_mb = out.value[3]
    expect = call.expect
    out.certified = code == expect["exit"]
    allowed = {expect["exit"]}
    if "known_defect_exit" in expect:
        allowed.add(expect["known_defect_exit"])
    if code not in allowed:
        out.note = f"exit {code}, expected {expect['exit']}: {stderr[-200:]}"
        return
    if code == 2 and not (stderr.startswith("error:")
                          and stderr.count("\n") <= 1):
        out.note = f"usage error is not one line: {stderr[-200:]}"
        return
    if code == expect["exit"]:
        if expect.get("json_certificate") or expect.get("json_nodes"):
            doc = json.loads(stdout)
            if expect.get("json_nodes"):
                out.nodes = doc.get("nodes_explored")
                doc = doc.get("certificate") or doc
            if expect.get("json_certificate"):
                try:
                    if not C.certificate_from_obj(doc).verdict.ok:
                        out.note = "printed certificate is not valid"
                        return
                except C.CordantError as exc:
                    out.note = f"printed certificate does not load: {exc}"
                    return
        prefix = expect.get("stdout_prefix")
        if prefix is not None and not stdout.startswith(prefix):
            out.note = f"stdout does not start with {prefix!r}"
            return
    out.correct = True
