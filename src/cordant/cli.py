"""Command-line surface: construct, verify, decide, search, survey, demo.

Exit codes are uniform across subcommands: 0 for success / exists /
valid, 1 for not-exists / invalid / impossible, 2 for usage or input
errors, 3 when a search ran out of budget.  Budgets count explored
search nodes.

Importing this module loads no library layer.  Each handler imports the
names it calls when it runs, off the package (so a name swapped there is
the one called), and parses ``--group`` first, so a bad group is
reported before anything heavier loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING

from ._vocab import (
    DEFAULT_BUDGET,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_ALIASES,
    NOTION_EA_CORDIAL,
    NOTIONS,
    STATUS_FOUND,
    STATUS_NOT_EXISTS,
    STATUS_UNKNOWN,
    check_searchable,
    indented_json,
    is_json_int,
    notion_name,
)
from .errors import CordantError

if TYPE_CHECKING:
    from .certificates import Certificate
    from .graphs import SimpleGraph
    from .groups import GroupSpec

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

BUDGET_ENV = "CORDANT_BUDGET"

__all__ = ["main"]


def __getattr__(name: str):
    # ``cli.explore_conjecture`` stays readable, as when this module
    # imported it; perfbench/spans.py swaps it
    if name == "explore_conjecture":
        from . import explore_conjecture
        return explore_conjecture
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _group(args):
    """The parsed ``--group``."""
    from . import parse_group
    return parse_group(args.group)


def _resolve_budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return None if args.budget < 0 else args.budget
    if args.env_budget is not None:
        return None if args.env_budget < 0 else args.env_budget
    return DEFAULT_BUDGET


def _env_budget() -> int | None:
    """``$CORDANT_BUDGET`` as an integer, None when unset.  Every command
    reads it, so a bad value is an error even where nothing searches."""
    env = os.environ.get(BUDGET_ENV)
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise CordantError(
            f"{BUDGET_ENV} must be an integer, not {env!r}") from None


def _emit(args, lines: list[str], doc: dict,
          cert: Certificate | None = None) -> None:
    """Print ``lines`` (text) or ``doc`` (JSON), and write ``doc`` to
    ``--output`` when given.  With ``cert``, the document is the
    certificate's JSON updated with ``doc``, and text output ends with the
    certificate itself."""
    if cert is not None:
        from . import certificate_dumps, certificate_to_obj
        doc = {**certificate_to_obj(cert), **doc}
    output = getattr(args, "output", None)
    text = (indented_json(doc)
            if args.format == "json" or output else None)
    if args.format == "json":
        print(text)
    else:
        for line in lines:
            print(line)
        if cert is not None:
            print(certificate_dumps(cert))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_elements(spec: GroupSpec, text: str) -> tuple:
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise CordantError("labels must be a JSON array")
    out = []
    for item in raw:
        if is_json_int(item):
            out.append((item,))
        elif isinstance(item, list) and all(map(is_json_int, item)):
            out.append(tuple(item))
        else:
            raise CordantError(f"label {json.dumps(item)} is not an integer "
                               "or a list of integers")
    return tuple(out)


def _graph_from_args(args) -> SimpleGraph:
    from . import cycle_graph, path_graph, tree_graph
    kind = args.kind or "path"
    if kind in ("path", "cycle"):
        if args.edges is not None:
            raise CordantError(f"{kind} graphs take --n, not --edges")
        if args.n is None:
            raise CordantError(f"{kind} graphs need --n")
        return (path_graph if kind == "path" else cycle_graph)(args.n)
    if args.edges is None:
        raise CordantError("tree graphs need --edges")
    raw = json.loads(args.edges)
    if not isinstance(raw, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(is_json_int, e))
            for e in raw):
        raise CordantError("edges must be a JSON array of [u, v] integer pairs")
    edges = tuple(map(tuple, raw))
    if args.n is None and not edges:
        raise CordantError("an empty edge list needs --n")
    n = args.n if args.n is not None else 1 + max(max(e) for e in edges)
    return tree_graph(n, edges)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_construct(args) -> int:
    spec = None if args.target == "ek-path" else _group(args)
    from . import (
        STATUS_IMPOSSIBLE,
        construct_path_antimagic,
        construct_path_ek,
    )
    if args.target == "antimagic-path":
        result = construct_path_antimagic(spec, budget=_resolve_budget(args))
    elif args.target == "ek-path":
        result = construct_path_ek(args.n, args.k)
    else:  # ant-path
        from .constructions import _ant_path
        _emit(args, ["status Found (route block)"], {"route": "block"},
              _ant_path(spec).certificate)
        return EXIT_OK
    if result.status == STATUS_IMPOSSIBLE:
        _emit(args, ["impossible"],
              {"status": result.status, "route": result.route})
        return EXIT_NO
    if result.status == STATUS_UNKNOWN:
        _emit(args, [f"unknown (budget exhausted after "
                     f"{result.nodes_explored} nodes)"],
              {"status": result.status, "route": result.route,
               "nodes_explored": result.nodes_explored})
        return EXIT_UNKNOWN
    _emit(args, [f"status Found (route {result.route}, "
                 f"{result.nodes_explored} nodes)"],
          {"route": result.route, "nodes_explored": result.nodes_explored},
          result.certificate)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.certificate:
        inline = [f"--{name}" for name in ("notion", "group", "kind", "n",
                                           "edges", "labels")
                  if getattr(args, name) is not None]
        if inline:
            raise CordantError("--certificate cannot be combined with "
                               + ", ".join(inline))
        from . import certificate_loads
        with open(args.certificate, encoding="utf-8") as fh:
            cert = certificate_loads(fh.read())
    else:
        if not (args.notion and args.group and args.labels):
            raise CordantError(
                "inline verification needs --notion, --group, --labels")
        spec = _group(args)
        graph = _graph_from_args(args)
        labels = _parse_elements(spec, args.labels)
        from . import (
            EdgeLabeling,
            VertexLabeling,
            make_edge_certificate,
            make_vertex_certificate,
        )
        if args.notion == NOTION_A_CORDIAL:
            cert = make_vertex_certificate(graph, VertexLabeling(spec, labels))
        else:
            cert = make_edge_certificate(args.notion, graph,
                                         EdgeLabeling(spec, labels))
    verdict = cert.verdict
    line = "valid" if verdict.ok else f"invalid ({verdict.violation})"
    _emit(args, [line], {}, cert)
    return EXIT_OK if verdict.ok else EXIT_NO


def _cmd_decide(args) -> int:
    spec = (_group(args) if args.question in ("path-antimagic", "tree-2mod4")
            else None)
    from . import (
        decide_cycle_zk_cordial,
        decide_path_a_antimagic,
        decide_path_ek_cordial,
        decide_tree_2mod4_obstruction,
    )
    if args.question == "path-ek":
        answer = decide_path_ek_cordial(args.n, args.k)
        subject = f"equitable Z_{args.k} edge labeling of P_{args.n}"
    elif args.question == "cycle-zk":
        answer = decide_cycle_zk_cordial(args.n, args.k)
        subject = f"equitable Z_{args.k} vertex labeling of C_{args.n}"
    elif args.question == "path-antimagic":
        from . import format_group
        answer = decide_path_a_antimagic(spec)
        subject = (f"injective distinct-sum labeling of "
                   f"P_{spec.order} over {format_group(spec)}")
    else:  # tree-2mod4
        obstructed = decide_tree_2mod4_obstruction(args.n, spec)
        word = "obstructed" if obstructed else "unobstructed"
        _emit(args, [word], {"question": args.question, "n": args.n,
                             "group": list(spec.factors),
                             "obstructed": obstructed})
        return EXIT_NO if obstructed else EXIT_OK
    word = "possible" if answer else "impossible"
    _emit(args, [word], {"question": args.question, "decision": answer,
                         "subject": subject})
    return EXIT_OK if answer else EXIT_NO


def _cmd_search(args) -> int:
    budget = _resolve_budget(args)
    spec = _group(args)
    # the searches' own input checks, in their order, before they load
    if args.notion != "rstar":
        graph = _graph_from_args(args)
    check_searchable(spec)
    if args.notion == "rstar":
        from . import search_rstar_sequence
        outcome = search_rstar_sequence(spec, budget=budget)
    else:
        from . import (
            certificate_dumps,
            certificate_to_obj,
            search_a_antimagic,
            search_a_cordial,
            search_a_star_antimagic,
            search_ea_cordial,
        )
        runner = {
            NOTION_EA_CORDIAL: search_ea_cordial,
            NOTION_A_CORDIAL: search_a_cordial,
            NOTION_A_ANTIMAGIC: search_a_antimagic,
            NOTION_A_STAR_ANTIMAGIC: search_a_star_antimagic,
        }[args.notion]
        outcome = runner(graph, spec, budget=budget, workers=args.workers)
    cert = outcome.certificate
    cert_obj = None
    lines = [f"{outcome.status} ({outcome.nodes_explored} nodes)"]
    if cert is not None and args.notion == "rstar":
        cert_obj = {"seq": [list(a) for a in cert.seq],
                    "star_index": cert.star_index}
        lines.append(f"sequence {cert_obj['seq']} star "
                     f"{cert_obj['star_index']}")
    elif cert is not None:
        cert_obj = certificate_to_obj(cert)
        if args.format != "json":
            lines.append(certificate_dumps(cert))
    _emit(args, lines, {"status": outcome.status, "certificate": cert_obj,
                        "nodes_explored": outcome.nodes_explored})
    if outcome.status == STATUS_FOUND:
        return EXIT_OK
    if outcome.status == STATUS_NOT_EXISTS:
        return EXIT_NO
    return EXIT_UNKNOWN


def _cmd_sigma_max(args) -> int:
    spec = _group(args)
    doc: dict = {"group": list(spec.factors), "mode": args.mode}
    lines: list[str] = []
    formula = searched = None
    if args.mode in ("formula", "both"):
        from . import sigma_max_formula
        formula = sigma_max_formula(spec)
        doc["formula"] = formula
        lines.append(f"formula {formula}")
    if args.mode in ("search", "both"):
        from . import compute_sigma_max
        result = compute_sigma_max(spec, budget=_resolve_budget(args))
        if result.status == STATUS_UNKNOWN:
            doc["search"] = None
            doc["status"] = result.status
            lines.append("search unknown (budget exhausted)")
            _emit(args, lines, doc)
            return EXIT_UNKNOWN
        searched = result.value
        doc["search"] = searched
        doc["witness"] = [list(a) for a in result.witness.order]
        doc["nodes_explored"] = result.nodes_explored
        lines.append(f"search {searched}")
        lines.append(f"witness {[list(a) for a in result.witness.order]}")
    if args.mode == "both":
        agree = formula == searched
        doc["agree"] = agree
        lines.append(f"agree {str(agree).lower()}")
        _emit(args, lines, doc)
        return EXIT_OK if agree else EXIT_NO
    _emit(args, lines, doc)
    return EXIT_OK


def _cmd_explore(args) -> int:
    from . import explore_conjecture
    report = explore_conjecture(args.n_max, budget=_resolve_budget(args),
                                workers=args.workers)
    doc = {
        "n_max": report.n_max,
        "rows": [{
            "n": r.n, "group": list(r.group.factors),
            "tree_index": r.tree_index,
            "edges": [list(e) for e in r.edges],
            "zero_allowed": r.antimagic_status,
            "zero_allowed_nodes": r.antimagic_nodes,
            "zero_allowed_labels": ([list(a) for a in r.antimagic_labels]
                                    if r.antimagic_labels else None),
            "zero_free": r.astar_status,
            "zero_free_nodes": r.astar_nodes,
            "zero_free_labels": ([list(a) for a in r.astar_labels]
                                 if r.astar_labels else None),
            "violation": r.violates,
        } for r in report.rows],
        "violations": len(report.violations),
        "unknown": len(report.unknown_rows),
    }
    _emit(args, report.summary_lines(), doc)
    if report.violations:
        return EXIT_NO
    if report.unknown_rows:
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_demo(args) -> int:
    from . import format_group, load_demo_certificate
    cert = load_demo_certificate(args.number)
    extra = {}
    lines = [f"demo {args.number}: {cert.notion} on {cert.graph.kind} "
             f"n={cert.graph.n} over {format_group(cert.group)}"]
    if args.number in (2, 3):
        from . import construct_ant_path
        rebuilt = construct_ant_path(cert.group)
        if rebuilt.labels != cert.edge_labels:
            print("error: fixture does not match the regenerated labeling",
                  file=sys.stderr)
            return EXIT_USAGE
        extra["regenerated"] = "match"
        lines.append("regenerated labeling matches the fixture")
    _emit(args, lines, extra, cert)
    return EXIT_OK if cert.verdict.ok else EXIT_NO


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, budget=True, workers=True, graph=False) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--output", help="also write the JSON document here")
    if budget:
        sub.add_argument("--budget", type=int, default=None,
                         help="search node budget; negative for unlimited "
                              f"(default {DEFAULT_BUDGET} or ${BUDGET_ENV})")
    if workers:
        sub.add_argument("--workers", type=int, default=1,
                         help="parallel branches; results are identical "
                              "for any value")
    if graph:
        sub.add_argument("--kind", choices=("path", "cycle", "tree"),
                         help="graph kind (default path)")
        sub.add_argument("--n", type=int, default=None)
        sub.add_argument("--edges", default=None,
                         help='JSON edge list for --kind tree, e.g. "[[0,1],[1,2]]"')


_NOTION_HELP = "older spellings still accepted: " + ", ".join(
    f"{old} ({new})" for old, new in NOTION_ALIASES.items())


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one ``error:`` line, like every other
    input error; ``--help`` still prints the usage.

    A subcommand's parser is made empty, with ``fill`` set: ``fill``
    adds its arguments (and its own subcommands) when it first parses,
    so a call fills in only the parsers on its command's path."""

    fill = None

    def parse_known_args(self, args=None, namespace=None):
        if self.fill is not None:
            fill, self.fill = self.fill, None
            fill(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _command(subs, name: str, fill, **kwargs) -> None:
    """Subcommand ``name``, filled in by ``fill`` when it parses."""
    subs.add_parser(name, **kwargs).fill = fill


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cordant",
        description="Equitable and distinct-sum group labelings of paths, "
                    "cycles, and trees: constructions, deciders, searches.")
    subs = parser.add_subparsers(dest="command", required=True)
    _command(subs, "construct", _fill_construct,
             help="build a certified labeling")
    _command(subs, "verify", _fill_verify,
             help="check a labeling or a certificate")
    _command(subs, "decide", _fill_decide,
             help="closed-form existence answers")
    _command(subs, "search", _fill_search,
             help="exhaustive backtracking searches")
    _command(subs, "sigma-max", _fill_sigma_max,
             help="most distinct neighbour sums on an element cycle")
    _command(subs, "explore", _fill_explore,
             help="survey all groups and trees per order")
    _command(subs, "demo", _fill_demo,
             help="print a bundled example certificate")
    return parser


def _fill_construct(con) -> None:
    con_subs = con.add_subparsers(dest="target", required=True)
    _command(con_subs, "antimagic-path", _fill_antimagic_path,
             help="injective distinct-sum labeling of P_|A|")
    _command(con_subs, "ek-path", _fill_ek_path,
             help="equitable Z_k edge labeling of P_n")
    _command(con_subs, "ant-path", _fill_ant_path,
             help="block construction for groups with a Z_4m factor, m > 1")


def _fill_antimagic_path(c1) -> None:
    c1.add_argument("--group", required=True)
    _add_common(c1, workers=False)
    c1.set_defaults(func=_cmd_construct)


def _fill_ek_path(c2) -> None:
    c2.add_argument("--n", type=int, required=True)
    c2.add_argument("--k", type=int, required=True)
    _add_common(c2, budget=False, workers=False)
    c2.set_defaults(func=_cmd_construct)


def _fill_ant_path(c3) -> None:
    c3.add_argument("--group", required=True)
    _add_common(c3, budget=False, workers=False)
    c3.set_defaults(func=_cmd_construct)


def _fill_verify(ver) -> None:
    ver.add_argument("--certificate", help="certificate JSON file")
    ver.add_argument("--notion", type=notion_name, choices=NOTIONS,
                     help=_NOTION_HELP)
    ver.add_argument("--group")
    ver.add_argument("--labels", help="JSON label array")
    _add_common(ver, budget=False, workers=False, graph=True)
    ver.set_defaults(func=_cmd_verify)


# per ``decide`` question, its own arguments
_QUESTIONS = {
    "path-ek": ("--n", "--k"),
    "cycle-zk": ("--n", "--k"),
    "tree-2mod4": ("--n", "--group"),
    "path-antimagic": ("--group",),
}


def _fill_decide(dec) -> None:
    dec_subs = dec.add_subparsers(dest="question", required=True)
    for question, options in _QUESTIONS.items():
        _command(dec_subs, question, partial(_fill_question, options=options))


def _fill_question(d, options) -> None:
    for option in options:
        d.add_argument(option, type=None if option == "--group" else int,
                       required=True)
    _add_common(d, budget=False, workers=False)
    d.set_defaults(func=_cmd_decide)


def _fill_search(sea) -> None:
    sea_subs = sea.add_subparsers(dest="notion", required=True)
    for notion in NOTIONS + ("rstar",):
        _command(sea_subs, notion, partial(_fill_notion, notion=notion),
                 aliases=[old for old, new in NOTION_ALIASES.items()
                          if new == notion])


def _fill_notion(sub, notion: str) -> None:
    sub.add_argument("--group", required=True)
    # an R*-sequence search has no graph and makes one kernel call
    labeling = notion != "rstar"
    _add_common(sub, workers=labeling, graph=labeling)
    sub.set_defaults(func=_cmd_search, notion=notion)


def _fill_sigma_max(sig) -> None:
    sig.add_argument("--group", required=True)
    sig.add_argument("--mode", choices=("formula", "search", "both"),
                     default="both")
    _add_common(sig, workers=False)
    sig.set_defaults(func=_cmd_sigma_max)


def _fill_explore(exp) -> None:
    exp.add_argument("--n-max", type=int, required=True)
    _add_common(exp)
    exp.set_defaults(func=_cmd_explore)


def _fill_demo(dem) -> None:
    dem.add_argument("number", type=int, choices=(1, 2, 3, 4))
    _add_common(dem, budget=False, workers=False)
    dem.set_defaults(func=_cmd_demo)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.env_budget = _env_budget()
        return args.func(args)
    except (CordantError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
