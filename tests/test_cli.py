"""End-to-end checks of the command line interface.

Every test drives ``cordant.cli.main`` in process and asserts on exit
codes, stdout text, and the JSON documents the tool emits.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
import types

import pytest

from cordant.cli import (
    BUDGET_ENV,
    EXIT_NO,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    main,
)

DEMO1 = os.path.join(os.path.dirname(__file__), os.pardir,
                     "src", "cordant", "fixtures", "demo1.json")
DEMO4 = os.path.join(os.path.dirname(DEMO1), "demo4.json")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# decide

def test_decide_path_ek(capsys):
    code, out, _ = run(capsys, ["decide", "path-ek", "--n", "6", "--k", "6"])
    assert (code, out) == (EXIT_NO, "impossible\n")
    code, out, _ = run(capsys, ["decide", "path-ek", "--n", "9", "--k", "3"])
    assert (code, out) == (EXIT_OK, "possible\n")


def test_decide_cycle_zk(capsys):
    code, out, _ = run(capsys, ["decide", "cycle-zk", "--n", "12", "--k", "4"])
    assert (code, out) == (EXIT_NO, "impossible\n")
    code, out, _ = run(capsys, ["decide", "cycle-zk", "--n", "9", "--k", "3"])
    assert (code, out) == (EXIT_OK, "possible\n")


def test_decide_tree_2mod4(capsys):
    code, out, _ = run(capsys, ["decide", "tree-2mod4",
                                "--n", "6", "--group", "Z6"])
    assert (code, out) == (EXIT_NO, "obstructed\n")
    code, out, _ = run(capsys, ["decide", "tree-2mod4",
                                "--n", "8", "--group", "Z8"])
    assert (code, out) == (EXIT_OK, "unobstructed\n")


def test_decide_tree_2mod4_needs_an_odd_multiple_of_the_order(capsys):
    # P_10 has an equitable Z6 labeling, so no tree on 10 vertices is
    # obstructed over Z6; 18 = 3 * 6 is
    code, out, _ = run(capsys, ["decide", "tree-2mod4",
                                "--n", "10", "--group", "Z6"])
    assert (code, out) == (EXIT_OK, "unobstructed\n")
    code, out, _ = run(capsys, ["construct", "ek-path", "--n", "10",
                                "--k", "6"])
    assert code == EXIT_OK
    code, out, _ = run(capsys, ["decide", "tree-2mod4",
                                "--n", "18", "--group", "Z6"])
    assert (code, out) == (EXIT_NO, "obstructed\n")


@pytest.mark.parametrize("n", ["0", "-5"])
def test_decide_tree_2mod4_needs_a_vertex(capsys, n):
    code, out, err = run(capsys, ["decide", "tree-2mod4",
                                  "--n", n, "--group", "Z2"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decide_path_antimagic(capsys):
    code, out, _ = run(capsys, ["decide", "path-antimagic", "--group", "Z6"])
    assert (code, out) == (EXIT_NO, "impossible\n")
    code, out, _ = run(capsys, ["decide", "path-antimagic", "--group", "Z8"])
    assert (code, out) == (EXIT_OK, "possible\n")


# ---------------------------------------------------------------------------
# construct

def test_construct_antimagic_path_found(capsys):
    code, out, _ = run(capsys, ["construct", "antimagic-path",
                                "--group", "Z2xZ2xZ2"])
    assert code == EXIT_OK
    first, _, rest = out.partition("\n")
    assert first == "status Found (route pinned-cube, 0 nodes)"
    doc = json.loads(rest)
    assert doc["notion"] == "a-antimagic"
    assert doc["graph"] == {"kind": "path", "n": 8}
    assert doc["verdict"]["ok"] is True


def test_construct_antimagic_path_impossible(capsys):
    code, out, _ = run(capsys, ["construct", "antimagic-path",
                                "--group", "Z6"])
    assert (code, out) == (EXIT_NO, "impossible\n")


def test_construct_unknown_on_tiny_budget(capsys):
    code, out, _ = run(capsys, ["construct", "antimagic-path",
                                "--group", "Z2xZ2xZ2xZ2", "--budget", "10"])
    assert code == EXIT_UNKNOWN
    assert out == "unknown (budget exhausted after 1 nodes)\n"


def test_construct_ant_path_json_document(capsys):
    code, out, _ = run(capsys, ["construct", "ant-path", "--group", "Z8xZ3",
                                "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["route"] == "block"
    assert doc["notion"] == "ea-cordial"
    assert doc["graph"] == {"kind": "path", "n": 24}
    assert doc["verdict"]["ok"] is True
    # 24 vertex sums, all distinct
    sums = [tuple(v) for v in doc["vertex_labels"]]
    assert len(set(sums)) == 24


def test_construct_ant_path_beyond_the_op_table_cap(capsys):
    # the odd part Z1025 is past the op-table cap; its base cycle is the
    # enumeration, so nothing searches
    code, out, _ = run(capsys, ["construct", "ant-path", "--group", "Z8xZ1025"])
    assert code == EXIT_OK
    assert out.startswith("status Found (route block)\n")


def test_construct_ek_path_route_line(capsys):
    code, out, _ = run(capsys, ["construct", "ek-path", "--n", "9", "--k", "3"])
    assert code == EXIT_OK
    assert out.startswith("status Found (route consecutive-sums, 0 nodes)\n")


@pytest.mark.parametrize("option", [["--budget", "5"], ["--workers", "2"],
                                    ["--budget-seconds", "1"]])
def test_construct_ek_path_takes_no_search_options(capsys, option):
    # the route is a formula: a budget or worker count would do nothing
    with pytest.raises(SystemExit) as exc:
        main(["construct", "ek-path", "--n", "9", "--k", "3"] + option)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert err == f"error: unrecognized arguments: {' '.join(option)}\n"


# ---------------------------------------------------------------------------
# verify

def test_verify_certificate_file(capsys):
    code, out, _ = run(capsys, ["verify", "--certificate", DEMO1])
    assert code == EXIT_OK
    assert out.startswith("valid\n")
    doc = json.loads(out.partition("\n")[2])
    assert doc["notion"] == "a-star-antimagic"


@pytest.mark.parametrize("options, named", [
    (["--group", "Zfoo", "--labels", "junk"], "--group, --labels"),
    (["--notion", "ea-cordial"], "--notion"),
    (["--kind", "path"], "--kind"),
    (["--n", "4", "--edges", "[[0,1]]"], "--n, --edges"),
])
def test_verify_certificate_takes_no_inline_options(capsys, options, named):
    # the certificate names its own notion, group, graph and labels
    code, out, err = run(capsys, ["verify", "--certificate", DEMO1] + options)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: --certificate cannot be combined with {named}\n"


def test_verify_inline_valid(capsys):
    # bare ints in --labels are wrapped into rank-1 tuples
    code, out, _ = run(capsys, ["verify", "--notion", "ea-cordial",
                                "--group", "Z3", "--kind", "cycle",
                                "--n", "3", "--labels", "[0,1,2]"])
    assert code == EXIT_OK
    assert out.startswith("valid\n")


def test_verify_inline_invalid(capsys):
    code, out, _ = run(capsys, ["verify", "--notion", "ea-cordial",
                                "--group", "Z6", "--kind", "path",
                                "--n", "4", "--labels", "[0,1,5]"])
    assert code == EXIT_NO
    assert out.startswith("invalid (vertex-imbalance)\n")
    doc = json.loads(out.partition("\n")[2])
    assert doc["verdict"]["violation"] == "vertex-imbalance"


def test_verify_inline_tree_edges(capsys):
    code, out, _ = run(capsys, [
        "verify", "--notion", "a-antimagic", "--group", "Z7",
        "--kind", "tree",
        "--edges", "[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6]]",
        "--labels", "[0,1,2,3,4,5]"])
    assert code == EXIT_NO
    assert out.startswith("invalid (vertex-collision)\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("notion,graph,labels,n", [
    ("a-star-antimagic", ["--kind", "path", "--n", "3"], "[1,2]", 3),
    ("a-antimagic", ["--kind", "tree", "--edges", "[[0,1],[1,2],[1,3],[3,4]]"],
     "[1,2,3,1]", 5),
])
def test_verify_antimagic_on_a_tree_of_the_wrong_order(capsys, notion, graph,
                                                        labels, n, fmt):
    code, out, err = run(capsys, ["verify", "--notion", notion,
                                  "--group", "Z4", *graph, "--labels", labels,
                                  "--format", fmt])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: tree order {n} must equal group order 4\n"


# ---------------------------------------------------------------------------
# search

# both subcommands take each antimagic notion under its one name and its
# older search-only spelling, with the same output and exit code
@pytest.mark.parametrize("argv, codes", [
    (["search", "{}", "--group", "Z3xZ3", "--kind", "path", "--n", "9"],
     (EXIT_OK, EXIT_OK)),
    (["search", "{}", "--group", "Z2xZ2xZ2", "--kind", "path", "--n", "8"],
     (EXIT_OK, EXIT_NO)),
    (["search", "{}", "--group", "Z8", "--kind", "path", "--n", "8",
      "--budget", "5"], (EXIT_UNKNOWN, EXIT_UNKNOWN)),
    (["verify", "--notion", "{}", "--group", "Z4", "--kind", "path", "--n",
      "4", "--labels", "[0,1,2]"], (EXIT_OK, EXIT_NO)),
    (["verify", "--notion", "{}", "--group", "Z4", "--kind", "path", "--n",
      "3", "--labels", "[1,2]"], (EXIT_USAGE, EXIT_USAGE)),
])
@pytest.mark.parametrize("which, name, alias", [
    (0, "a-antimagic", "antimagic"), (1, "a-star-antimagic", "astar-antimagic")])
def test_notions_take_both_spellings(capsys, argv, codes, which, name, alias):
    runs = [run(capsys, [a.format(spelling) for a in argv])
            for spelling in (name, alias)]
    assert runs[0] == runs[1]
    assert runs[0][0] == codes[which]


@pytest.mark.parametrize("command", [["search", "{}", "--group", "Z3"],
                                     ["verify", "--notion", "{}"]])
def test_unknown_notion_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([a.format("magic") for a in command])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert "invalid choice: 'magic'" in err


def test_search_found_text_and_json(capsys):
    code, out, _ = run(capsys, ["search", "ea-cordial", "--group", "Z4",
                                "--kind", "path", "--n", "4"])
    assert code == EXIT_OK
    assert out.startswith("Found (5 nodes)\n")

    code, out, _ = run(capsys, ["search", "ea-cordial", "--group", "Z4",
                                "--kind", "path", "--n", "4",
                                "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert sorted(doc) == ["certificate", "nodes_explored", "status"]
    assert doc["status"] == "Found"
    assert doc["nodes_explored"] == 5
    assert doc["certificate"]["verdict"]["ok"] is True


def test_search_not_exists(capsys):
    code, out, _ = run(capsys, ["search", "ea-cordial", "--group", "Z6",
                                "--kind", "path", "--n", "6"])
    assert (code, out) == (EXIT_NO, "NotExists (738 nodes)\n")


def test_search_rstar(capsys):
    code, out, _ = run(capsys, ["search", "rstar", "--group", "Z2xZ2"])
    assert code == EXIT_OK
    assert out == "Found (5 nodes)\nsequence [[0, 1], [1, 0], [1, 1]] star 0\n"


@pytest.mark.parametrize("option", [
    ["--workers", "2"], ["--workers", "0"], ["--n", "5"], ["--edges", "[]"],
    ["--kind", "path"], ["--kind", "tree", "--edges", "garbage", "--n", "99",
                         "--workers", "7"]])
def test_search_rstar_takes_no_graph_or_workers(capsys, option):
    # an R*-sequence has no graph, and its search is one kernel call
    with pytest.raises(SystemExit) as exc:
        main(["search", "rstar", "--group", "Z2xZ2"] + option)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert err == f"error: unrecognized arguments: {' '.join(option)}\n"


@pytest.mark.parametrize("argv", [
    ["search", "ea-cordial", "--group", "Z4"],
    ["verify", "--notion", "ea-cordial", "--group", "Z4", "--labels", "[0]"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_paths_and_cycles_take_no_edges(capsys, argv, kind):
    code, out, err = run(capsys, argv + ["--kind", kind, "--n", "4",
                                         "--edges", "garbage"])
    assert (code, out, err) == (
        EXIT_USAGE, "", f"error: {kind} graphs take --n, not --edges\n")


# ---------------------------------------------------------------------------
# sigma-max

def test_sigma_max_both(capsys):
    code, out, _ = run(capsys, ["sigma-max", "--group", "Z4",
                                "--mode", "both"])
    assert code == EXIT_OK
    assert out == ("formula 3\nsearch 3\n"
                   "witness [[0], [1], [3], [2]]\nagree true\n")


def test_sigma_max_formula_only(capsys):
    code, out, _ = run(capsys, ["sigma-max", "--group", "Z2xZ2xZ2",
                                "--mode", "formula"])
    assert (code, out) == (EXIT_OK, "formula 6\n")


def test_sigma_max_budget_unknown(capsys):
    code, out, _ = run(capsys, ["sigma-max", "--group", "Z9",
                                "--mode", "search", "--budget", "3"])
    assert (code, out) == (EXIT_UNKNOWN, "search unknown (budget exhausted)\n")


# ---------------------------------------------------------------------------
# budget plumbing

def test_budget_env_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "100")
    code, out, _ = run(capsys, ["search", "a-cordial", "--group", "Z4",
                                "--kind", "cycle", "--n", "12"])
    assert code == EXIT_UNKNOWN
    assert out.startswith("Unknown (")

    # explicit flag wins; negative means unlimited
    code, out, _ = run(capsys, ["search", "a-cordial", "--group", "Z4",
                                "--kind", "cycle", "--n", "12",
                                "--budget", "-1"])
    assert (code, out) == (EXIT_NO, "NotExists (3208 nodes)\n")


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_non_integer_budget_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv(BUDGET_ENV, value)
    code, out, err = run(capsys, ["search", "ea-cordial", "--group", "Z4",
                                  "--kind", "path", "--n", "4"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: CORDANT_BUDGET must be an integer, not {value!r}\n"


@pytest.mark.parametrize("argv", [
    ["decide", "path-ek", "--n", "6", "--k", "6"],
    ["decide", "tree-2mod4", "--n", "6", "--group", "Z6"],
    ["verify", "--notion", "ea-cordial", "--group", "Z3", "--kind", "path",
     "--n", "4", "--labels", "[0, 1, 2]"],
    ["demo", "1"],
])
def test_non_integer_budget_env_fails_commands_that_do_not_search(
        capsys, monkeypatch, argv):
    monkeypatch.setenv(BUDGET_ENV, "1e6")
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: CORDANT_BUDGET must be an integer, not '1e6'\n"


@pytest.mark.parametrize("argv", [
    ["construct", "antimagic-path", "--group", "Z4"],
    ["search", "ea-cordial", "--group", "Z4", "--kind", "path", "--n", "4"],
    ["sigma-max", "--group", "Z6"],
    ["explore", "--n-max", "4"],
], ids=lambda argv: argv[0])
def test_budgets_are_counted_in_nodes_only(capsys, argv):
    # no wall-clock budget: a time converted at a fixed node rate stopped
    # searches early or late depending on the machine
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget-seconds", "1"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert err == "error: unrecognized arguments: --budget-seconds 1\n"


@pytest.mark.parametrize("argv", [
    ["search", "ea-cordial", "--group", "Z4", "--kind", "path", "--n", "4",
     "--budget", "99999999999999999999999"],
    ["sigma-max", "--group", "Z6", "--budget", "99999999999999999999999"],
])
def test_budgets_beyond_any_search_are_unbounded(capsys, argv):
    # the compiled kernel takes a 64-bit budget; these run unbounded
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.startswith(("Found (5 nodes)\n", "formula 5\nsearch 5\n"))


def test_output_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, ["search", "ea-cordial", "--group", "Z4",
                                "--kind", "path", "--n", "4",
                                "--output", str(target)])
    assert code == EXIT_OK
    raw = target.read_text()
    assert raw.endswith("\n")
    doc = json.loads(raw)
    assert doc["status"] == "Found"
    assert doc["nodes_explored"] == 5


def test_json_output_file_is_stdout_encoded_once(capsys, tmp_path,
                                                 monkeypatch):
    # one call of the indented writer serves stdout and --output, and the
    # json module's pure-Python indenting encoder never runs
    import cordant.cli as cli
    writes, indented = [], []
    writer = cli.indented_json
    iterencode = json.JSONEncoder.iterencode

    def counted(obj):
        writes.append(obj)
        return writer(obj)

    def watched(self, o, *args, **kwargs):
        if self.indent is not None:
            indented.append(o)
        return iterencode(self, o, *args, **kwargs)

    monkeypatch.setattr(cli, "indented_json", counted)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", watched)
    target = tmp_path / "doc.json"
    code, out, _ = run(capsys, ["construct", "ek-path", "--n", "12",
                                "--k", "4", "--format", "json",
                                "--output", str(target)])
    assert code == EXIT_OK
    assert target.read_bytes() == out.encode("utf-8")
    assert len(writes) == 1
    assert indented == []


# ---------------------------------------------------------------------------
# demo

def test_demo_all_valid(capsys):
    for number in (1, 2, 3, 4):
        code, out, _ = run(capsys, ["demo", str(number)])
        assert code == EXIT_OK, number
        assert out.startswith(f"demo {number}: ")


def test_demo_regeneration_note(capsys):
    code, out, _ = run(capsys, ["demo", "2"])
    assert code == EXIT_OK
    assert "regenerated labeling matches the fixture" in out
    code, out, _ = run(capsys, ["demo", "3", "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["regenerated"] == "match"


def test_demo_mismatch_is_usage_error(capsys, monkeypatch):
    # the handler reads construct_ant_path off the package when it runs
    import cordant
    monkeypatch.setattr(
        cordant, "construct_ant_path",
        lambda group: types.SimpleNamespace(labels=()))
    code, _, err = run(capsys, ["demo", "2"])
    assert code == EXIT_USAGE
    assert "does not match" in err


# ---------------------------------------------------------------------------
# error handling

def test_bad_group_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "--notion", "ea-cordial",
                                  "--group", "Zbad", "--kind", "path",
                                  "--n", "4", "--labels", "[0,1,2]"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("labels", ["[0, null]", '[0, [1, "x"]]',
                                    "[true, 1]", "[1.5, 0]", "[[0], {}]"])
def test_bad_label_is_usage_error(capsys, labels):
    code, out, err = run(capsys, ["verify", "--notion", "ea-cordial",
                                  "--group", "Z3", "--kind", "path",
                                  "--n", "3", "--labels", labels])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: label ") and err.count("\n") == 1


@pytest.mark.parametrize("edges", ["5", "[[0,null]]", "[[0,1.5]]",
                                   "[[0,true]]", "[[0,1,2]]", "[0,1]",
                                   '{"0": 1}'])
def test_bad_edges_are_usage_errors(capsys, edges):
    # [[0,1.5]] must not be read as [[0,1]]
    code, out, err = run(capsys, ["verify", "--notion", "a-antimagic",
                                  "--group", "Z2", "--kind", "tree",
                                  "--edges", edges, "--labels", "[1]"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: edges ") and err.count("\n") == 1


@pytest.mark.parametrize("where, value", [
    (("edge_labels", 1), [1.9, 0.2, 0]),
    (("graph", "n"), 8.6),
    (("group", 2), 2.0),
])
def test_certificate_with_non_integers_is_usage_error(capsys, tmp_path,
                                                      where, value):
    # int() would read each of these as demo 4's own number: valid, exit 0
    with open(DEMO4, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc[where[0]][where[1]] = value
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["verify", "--certificate", str(path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: malformed certificate: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["search", "ea-cordial", "--group", "Z3", "--kind", "path"],
    ["verify", "--notion", "ea-cordial", "--group", "Z3", "--kind", "cycle",
     "--labels", "[0,1,2]"],
])
def test_missing_n_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {argv[argv.index('--kind') + 1]} graphs need --n\n"


def test_empty_edge_list_needs_n(capsys):
    argv = ["verify", "--notion", "a-antimagic", "--kind", "tree",
            "--edges", "[]", "--group", "Z1", "--labels", "[]"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: an empty edge list needs --n\n"
    code, out, _ = run(capsys, argv + ["--n", "1"])
    assert code == EXIT_OK and out.startswith("valid\n")


def test_certificate_verdict_flag_must_be_a_json_boolean(capsys, tmp_path):
    # bool() would read 1 as true: demo 4 would print valid and exit 0
    with open(DEMO4, encoding="utf-8") as fh:
        doc = json.load(fh)
    for flag in (1, "true", None):
        doc["verdict"]["ok"] = flag
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["verify", "--certificate", str(path)])
        assert (code, out) == (EXIT_USAGE, ""), flag
        assert err == ("error: malformed certificate: verdict ok must be "
                       "true or false\n")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run(capsys, ["search", "ea-cordial", "--group", "Z4",
                                  "--kind", "path", "--n", "4",
                                  "--workers", workers])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: workers must be at least 1\n"


@pytest.mark.parametrize("argv", [
    ["explore", "--n-max", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_workers_below_one_is_usage_error_on_every_command(capsys, argv):
    # a survey that reaches no root split
    code, out, err = run(capsys, argv + ["--workers", "0"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: workers must be at least 1\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_construct_antimagic_path_takes_no_workers(capsys, workers):
    # its find-any searches run one branch each: a worker count would do
    # nothing
    with pytest.raises(SystemExit) as exc:
        main(["construct", "antimagic-path", "--group", "Z2xZ2xZ2xZ2",
              "--workers", workers])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_USAGE, "")
    assert err == f"error: unrecognized arguments: --workers {workers}\n"


def test_search_beyond_depth_cap_is_usage_error(capsys):
    code, out, err = run(capsys, ["search", "ea-cordial", "--group", "Z3",
                                  "--kind", "path", "--n", "10002"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == ("error: search depth 10001 exceeds the cap of 10000 "
                   "levels\n")


@pytest.mark.parametrize("argv", [
    ["construct", "ek-path", "--k", "10", "--format", "json"],
    ["search", "ea-cordial", "--group", "Z3", "--kind", "path"],
    ["search", "a-cordial", "--group", "Z3", "--kind", "cycle"],
    ["verify", "--notion", "ea-cordial", "--group", "Z3", "--kind", "path",
     "--labels", "[0]"],
], ids=lambda argv: " ".join(argv[:2]))
def test_graphs_beyond_the_size_cap_are_refused_before_they_are_built(
        capsys, argv):
    # 10**8 vertices would take tens of GB; the cap is 2**20
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--n", "100000000"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_USAGE, "")
    kind = "cycle" if "cycle" in argv else "path"
    assert err == f"error: {kind} of 100000000 vertices exceeds cap 1048576\n"


@pytest.mark.parametrize("target", ["ant-path", "antimagic-path"])
@pytest.mark.parametrize("order", [268435456, 10**16 + 61])
def test_groups_beyond_the_size_cap_are_refused_before_any_label(
        capsys, monkeypatch, target, order):
    # the labels of Z268435456 would exhaust memory, and factoring the
    # prime 10**16 + 61 by trial division takes seconds; neither may start
    from cordant import constructions

    def no_labels(j, m):
        raise AssertionError("block labels built")
    monkeypatch.setattr(constructions, "_block_column", no_labels)
    start = time.perf_counter()
    code, out, err = run(capsys, ["construct", target, "--group",
                                  f"Z{order}"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: path of {order} vertices exceeds cap 1048576\n"


@pytest.mark.parametrize("argv, message", [
    (["search", "ea-cordial", "--group", "Z1", "--kind", "path", "--n", "3"],
     "searches need a group with at least two elements"),
    (["search", "antimagic", "--group", "Z1", "--kind", "tree",
      "--edges", "[[0, 1], [2, 3]]"],
     "tree kind requires a connected graph on n-1 edges"),
    (["search", "ea-cordial", "--group", "Z1", "--kind", "path", "--n", "3",
      "--workers", "0"],
     "searches need a group with at least two elements"),
    (["search", "rstar", "--group", "Z1"],
     "searches need a group with at least two elements"),
])
def test_search_input_errors_keep_their_order(capsys, argv, message):
    # a bad graph before the trivial group, as the searches themselves
    # check
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("notion", ["ea-cordial", "a-cordial", "antimagic",
                                    "astar-antimagic", "rstar"])
def test_search_past_the_table_cap_is_refused_before_it_allocates(
        capsys, monkeypatch, notion):
    # a group of order 99999999999: equitable bounds as long as the order
    # would take 800 GB, and no search gets tables past TABLE_CAP (1024);
    # building them fails here rather than allocate
    from cordant import search

    def refuse(count, m):
        raise AssertionError("bounds built before the group was refused")

    monkeypatch.setattr(search, "_equitable_bounds", refuse)
    argv = ["search", notion, "--group", "Z99999999999"]
    if notion != "rstar":
        argv += ["--kind", "path", "--n", "4"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (
        EXIT_USAGE, "",
        "error: refusing dense tables for order 99999999999 > 1024\n")


def test_missing_certificate_file(capsys):
    code, _, err = run(capsys, ["verify", "--certificate",
                                "/nonexistent/cert.json"])
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: argument command: invalid choice: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# determinism

def test_repeated_runs_byte_identical(capsys):
    argv = ["construct", "antimagic-path", "--group", "Z13",
            "--format", "json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["route"] == "odd-cycle-search"
    assert doc["nodes_explored"] == 0


# sha256 of stdout under --format text and --format json, recorded before
# search and construct results carried their own certificates: handing the
# certificate through changes no byte.  (argv, exit code, text, json)
# Z2xZ2xZ2xZ2 was re-pinned when its route, ``sequence``, moved from the
# R*-sequence search to the find-any path search: a new labeling.
PINNED_OUTPUTS = (
    ("construct antimagic-path --group Z13", EXIT_OK,
     "741dc613fb53fa7a5366e8bc8a6a449a2c7462669377e4af73bdfea22109b676",
     "6acf17b238b66b0a95cc6cfa81d28d653c2ee66ea540339c29158a747a2ea5be"),
    ("construct antimagic-path --group Z2xZ2xZ4", EXIT_OK,
     "112c02ad5101bde708e5049dd51cae77003c0cf1a98f1852e5747f458565c174",
     "1023f977a66d619e074175e2791143561789e0f2cd3e782b09c4d414a7e0d94c"),
    ("construct antimagic-path --group Z2xZ2xZ2xZ2", EXIT_OK,
     "c33b7d5e730fc5bebb7c59635e82aecffce5d24c45fadf82545d759dc95180dc",
     "6bd572d94f6d9239970d1105750b9bf2477a8570e7d7c13213ed6d35c85a1e76"),
    ("construct antimagic-path --group Z6", EXIT_NO,
     "2c58f4f087b138a11e9f3f0c5dc615f93da544c25fec688ca9912d439e624eef",
     "1ef63317c4e465e4723496aa26e28780628bdb47b1063c77ef327a606ebfff92"),
    ("construct ek-path --n 50 --k 6", EXIT_OK,
     "e5778df8a46d77981d2e6e436d2851962c46775d39bfff613ef9e5ac88e8d532",
     "ef12a1c17d57821762f669f2d174a56d5c94e41450316b2946b363de2865b4b0"),
    ("construct ek-path --n 10 --k 6", EXIT_OK,
     "e1c2f418975c5a4d7cc7d77b426f5036dfb611b15b88055c4af355db974493f1",
     "0deaf0e50bf56820e9dbd9c9f96a1593230c224e7e26f90bd939bd806542463d"),
    ("construct ant-path --group Z1024", EXIT_OK,
     "6fbb1481a0fe5c37a43a834f63f7f14eb8561e26e5082f82d594a97d4ed317c8",
     "7c5fec8d2cfb60c43c12ccc2b79ef4e939105b9ad731ef4b00623dfbc289af57"),
    ("search ea-cordial --group Z10 --kind path --n 6", EXIT_OK,
     "4ad0a8346192919bc88f0dfc7ae580de9490df59c074e005a439818bac52f889",
     "2cbc67ed9d14810ce446d4d31110c2516441bc0907258d7d0941b6f615d042c7"),
    ("search a-cordial --group Z2xZ2 --kind cycle --n 8", EXIT_OK,
     "807adcabd65cd6a5dfba882f0dad02601b67ec38a3bac7d23ecfeee334407d76",
     "7a75807acf17947f4b36269fdd294c2256eef44587f4d550a8854e5aee724c98"),
    ("search antimagic --group Z2xZ4 --kind path --n 8", EXIT_OK,
     "1845a1185a1f247311cd16b02c8e8bb20621ba585154353a982828e7702d0afe",
     "6870142a16a9529d055aa8a0ecd7877df3e939b78df123891c2e364f01aa714e"),
    ("search astar-antimagic --group Z2xZ4 --kind path --n 8", EXIT_OK,
     "1a8135ac8e95d5190f8da0824048be266107b3d0adb67c5037ecb772f373b47a",
     "eaea6b1242e5a401f7f7c40c93a89a461e2faccc8f23e476aad3f3e9672d309f"),
    ("search rstar --group Z7", EXIT_OK,
     "328979ba273479a3c76e15eceb3bb3f27c28d1c14c6da827c7cdcd5eece0c261",
     "425f484618a54c5b6a8be6d62befcc5a768b5075a5a183f87a1355097fb51572"),
)


@pytest.mark.parametrize("argv, want, text_sha, json_sha", PINNED_OUTPUTS,
                         ids=[row[0] for row in PINNED_OUTPUTS])
def test_found_outputs_keep_their_bytes(capsys, argv, want, text_sha,
                                        json_sha):
    for fmt, sha in (("text", text_sha), ("json", json_sha)):
        code, out, _ = run(capsys, argv.split() + ["--format", fmt])
        assert code == want
        assert hashlib.sha256(out.encode()).hexdigest() == sha, fmt


@pytest.fixture
def judged(monkeypatch):
    """The kind of every graph a labeling is judged on: every verifier
    and every certificate judges through one of these two."""
    from cordant import labelings

    kinds = []
    for name in ("_judge_equitable", "_judge_injective"):
        def counted(graph, f, flag, real=getattr(labelings, name)):
            kinds.append(graph.kind)
            return real(graph, f, flag)
        monkeypatch.setattr(labelings, name, counted)
    return kinds


@pytest.mark.parametrize("argv", [
    "construct antimagic-path --group Z13",
    "construct antimagic-path --group Z8",
    "construct antimagic-path --group Z2xZ2xZ2",
    "construct antimagic-path --group Z2xZ2xZ2xZ2",
    "construct antimagic-path --group Z2xZ2xZ2xZ2xZ2",
    "construct ant-path --group Z8xZ3",
    "construct ek-path --n 50 --k 6",
    "search ea-cordial --group Z10 --kind path --n 6",
    "search a-cordial --group Z2xZ2 --kind cycle --n 8",
    "search antimagic --group Z2xZ4 --kind path --n 8",
    "search astar-antimagic --group Z2xZ4 --kind path --n 8",
])
def test_a_found_is_judged_once(capsys, monkeypatch, judged, argv):
    # the printed certificate is the one judgement the search or the
    # construction made, and construct ek-path builds its path once
    import cordant
    from cordant import constructions

    paths = []
    real_path = cordant.path_graph

    def counted_path(n):
        paths.append(n)
        return real_path(n)
    monkeypatch.setattr(cordant, "path_graph", counted_path)
    monkeypatch.setattr(constructions, "path_graph", counted_path)
    code, out, _ = run(capsys, argv.split())
    assert code == EXIT_OK and "Found" in out
    assert len(judged) == 1
    if argv.startswith("construct ek-path"):
        assert paths == [50]


def test_the_rainbow_route_judges_its_cycle_and_its_path_once(capsys,
                                                               judged):
    # the search certifies the cycle it found, the construction its path
    code, _, _ = run(capsys, ["construct", "antimagic-path", "--group",
                              "Z2xZ2xZ4"])
    assert code == EXIT_OK
    assert sorted(judged) == ["cycle", "path"]


# ---------------------------------------------------------------------------
# what each command imports

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
SEARCH_STACK = ("cordant.search", "cordant._kernel", "cordant.explore",
                "cordant.trees", "multiprocessing")


def loaded_after(*argvs):
    """Exit codes of ``argvs`` run through ``main`` in a fresh interpreter,
    and the modules that interpreter has loaded then."""
    code = ("import contextlib, io, json, sys\n"
            "import cordant\n"
            "before = sorted(sys.modules)\n"
            "from cordant.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {list(argvs)!r}]\n"
            "print(json.dumps([before, codes, sorted(sys.modules)]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    before, codes, after = json.loads(proc.stdout)
    return set(before), codes, set(after)


def loads(modules, name):
    return any(m == name or m.startswith(name + ".") for m in modules)


def test_import_cordant_loads_no_submodule():
    before, _, _ = loaded_after()
    assert sorted(m for m in before if m.startswith("cordant.")) == []


def test_deciders_demos_and_verify_never_load_the_search_stack():
    _, codes, after = loaded_after(
        ["decide", "path-ek", "--n", "10", "--k", "4"],
        ["demo", "1"],
        ["verify", "--certificate", os.path.abspath(DEMO1)])
    assert codes == [EXIT_OK] * 3
    assert [m for m in SEARCH_STACK if loads(after, m)] == []


def test_search_on_the_trivial_group_never_loads_the_search_stack():
    _, codes, after = loaded_after(
        ["search", "ea-cordial", "--group", "Z1", "--kind", "path",
         "--n", "3"])
    assert codes == [EXIT_USAGE]
    assert [m for m in SEARCH_STACK if loads(after, m)] == []


def test_single_worker_search_never_loads_multiprocessing():
    _, codes, after = loaded_after(
        ["search", "antimagic", "--group", "Z3xZ3", "--kind", "path",
         "--n", "9", "--workers", "1"])
    assert codes == [EXIT_OK]
    assert loads(after, "cordant.search")
    assert not loads(after, "multiprocessing")


# one interpreter runs the cli workload's commands in turn: every search
# notion, sigma-max, each construct target (the antimagic one on a
# rainbow-cycle group, which searches), a survey, every demo and both
# kinds of verify
WORKLOAD_COMMANDS = (
    ["search", "antimagic", "--group", "Z3xZ3", "--kind", "path", "--n", "9",
     "--format", "json"],
    ["search", "ea-cordial", "--group", "Z6", "--kind", "path", "--n", "6",
     "--format", "json"],
    ["search", "rstar", "--group", "Z2xZ2xZ2xZ2", "--format", "json"],
    ["sigma-max", "--group", "Z10"],
    ["construct", "ant-path", "--group", "Z1024", "--format", "json"],
    ["construct", "antimagic-path", "--group", "Z2xZ2xZ3", "--format",
     "json"],
    ["construct", "ek-path", "--n", "20", "--k", "6", "--format", "json"],
    ["explore", "--n-max", "6"],
    ["demo", "1", "--format", "json"],
    ["demo", "2", "--format", "json"],
    ["demo", "3", "--format", "json"],
    ["demo", "4", "--format", "json"],
    ["verify", "--notion", "ea-cordial", "--group", "Z3", "--kind", "path",
     "--n", "3", "--labels", "[0, 1]"],
    ["verify", "--certificate", os.path.abspath(DEMO1)],
    ["decide", "path-ek", "--n", "10", "--k", "4"],
    ["decide", "cycle-zk", "--n", "12", "--k", "4"],
)


def test_workload_commands_load_neither_dataclasses_nor_inspect():
    _, codes, after = loaded_after(*WORKLOAD_COMMANDS)
    assert codes == ([EXIT_OK, EXIT_NO] + [EXIT_OK] * 10
                     + [EXIT_NO, EXIT_OK, EXIT_OK, EXIT_NO])
    assert loads(after, "cordant.search")
    assert [m for m in ("dataclasses", "inspect") if loads(after, m)] == []


@pytest.mark.parametrize("argv", [
    ["decide", "path-ek", "--n", "10", "--k", "4"],
    ["decide", "cycle-zk", "--n", "12", "--k", "4"],
], ids=lambda argv: argv[1])
def test_zk_deciders_load_only_the_deciders(argv):
    _, codes, after = loaded_after(argv)
    assert codes == [EXIT_OK if argv[1] == "path-ek" else EXIT_NO]
    assert sorted(m for m in after if m.startswith("cordant")) == [
        "cordant", "cordant._vocab", "cordant.cli", "cordant.deciders",
        "cordant.errors"]


def test_sigma_max_never_loads_the_constructions():
    _, codes, after = loaded_after(["sigma-max", "--group", "Z10"])
    assert codes == [EXIT_OK]
    assert loads(after, "cordant.deciders")
    assert not loads(after, "cordant.constructions")


def test_search_past_the_table_cap_never_loads_the_search_stack():
    _, codes, after = loaded_after(
        ["search", "ea-cordial", "--group", "Z99999999999", "--kind", "path",
         "--n", "4"])
    assert codes == [EXIT_USAGE]
    assert [m for m in SEARCH_STACK if loads(after, m)] == []


# ---------------------------------------------------------------------------
# help texts and usage errors, byte for byte: a call fills in only the
# parsers on its command's path, and what it prints stays as it was

TOP_HELP = """\
usage: cordant [-h]
               {construct,verify,decide,search,sigma-max,explore,demo} ...

Equitable and distinct-sum group labelings of paths, cycles, and trees:
constructions, deciders, searches.

positional arguments:
  {construct,verify,decide,search,sigma-max,explore,demo}
    construct           build a certified labeling
    verify              check a labeling or a certificate
    decide              closed-form existence answers
    search              exhaustive backtracking searches
    sigma-max           most distinct neighbour sums on an element cycle
    explore             survey all groups and trees per order
    demo                print a bundled example certificate

options:
  -h, --help            show this help message and exit
"""

SEARCH_HELP = """\
usage: cordant search [-h]
                      {ea-cordial,a-cordial,a-antimagic,antimagic,a-star-antimagic,astar-antimagic,rstar}
                      ...

positional arguments:
  {ea-cordial,a-cordial,a-antimagic,antimagic,a-star-antimagic,astar-antimagic,rstar}

options:
  -h, --help            show this help message and exit
"""

# an alias prints the help of the notion it names
ANTIMAGIC_SEARCH_HELP = """\
usage: cordant search a-antimagic [-h] --group GROUP [--format {text,json}]
                                  [--output OUTPUT] [--budget BUDGET]
                                  [--workers WORKERS]
                                  [--kind {path,cycle,tree}] [--n N]
                                  [--edges EDGES]

options:
  -h, --help            show this help message and exit
  --group GROUP
  --format {text,json}
  --output OUTPUT       also write the JSON document here
  --budget BUDGET       search node budget; negative for unlimited (default
                        10000000 or $CORDANT_BUDGET)
  --workers WORKERS     parallel branches; results are identical for any value
  --kind {path,cycle,tree}
                        graph kind (default path)
  --n N
  --edges EDGES         JSON edge list for --kind tree, e.g. "[[0,1],[1,2]]"
"""

CONSTRUCT_HELP = """\
usage: cordant construct antimagic-path [-h] --group GROUP
                                        [--format {text,json}]
                                        [--output OUTPUT] [--budget BUDGET]

options:
  -h, --help            show this help message and exit
  --group GROUP
  --format {text,json}
  --output OUTPUT       also write the JSON document here
  --budget BUDGET       search node budget; negative for unlimited (default
                        10000000 or $CORDANT_BUDGET)
"""


@pytest.mark.parametrize("argv, code, out, err", [
    (["--help"], EXIT_OK, TOP_HELP, ""),
    (["-h"], EXIT_OK, TOP_HELP, ""),
    (["search", "--help"], EXIT_OK, SEARCH_HELP, ""),
    (["search", "antimagic", "--group", "Z4", "--help"], EXIT_OK,
     ANTIMAGIC_SEARCH_HELP, ""),
    (["construct", "antimagic-path", "--help"], EXIT_OK, CONSTRUCT_HELP, ""),
    (["bogus"], EXIT_USAGE, "",
     "error: argument command: invalid choice: 'bogus' (choose from "
     "'construct', 'verify', 'decide', 'search', 'sigma-max', 'explore', "
     "'demo')\n"),
    ([], EXIT_USAGE, "",
     "error: the following arguments are required: command\n"),
    (["search"], EXIT_USAGE, "",
     "error: the following arguments are required: notion\n"),
    (["search", "a-cordial", "--group", "Z3", "--kind", "cycle", "--n", "3",
      "--bogus"], EXIT_USAGE, "", "error: unrecognized arguments: --bogus\n"),
    (["decide", "path-ek", "--n", "x", "--k", "4"], EXIT_USAGE, "",
     "error: argument --n: invalid int value: 'x'\n"),
])
def test_help_and_usage_errors_are_pinned(capsys, monkeypatch, argv, code,
                                          out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_a_call_fills_in_only_its_commands_parsers():
    from cordant.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["decide", "path-ek", "--n", "10", "--k", "4"])
    assert (args.n, args.k, args.question) == (10, 4, "path-ek")
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    filled = sorted(name for name, sub in commands.choices.items()
                    if sub.fill is None)
    assert filled == ["decide"]
    (questions,) = [a for a in commands.choices["decide"]._actions
                    if a.dest == "question"]
    assert sorted(name for name, sub in questions.choices.items()
                  if sub.fill is None) == ["path-ek"]
