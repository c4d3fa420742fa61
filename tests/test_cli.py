"""End-to-end checks of the command line interface.

Every test drives ``cordant.cli.main`` in process and asserts on exit
codes, stdout text, and the JSON documents the tool emits.
"""

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
    assert (code, out) == (EXIT_NO, "NotExists (966 nodes)\n")


def test_search_rstar(capsys):
    code, out, _ = run(capsys, ["search", "rstar", "--group", "Z2xZ2"])
    assert code == EXIT_OK
    assert out == "Found (5 nodes)\nsequence [[0, 1], [1, 0], [1, 1]] star 0\n"


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
    assert (code, out) == (EXIT_NO, "NotExists (12260 nodes)\n")


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
    ["search", "rstar", "--group", "Z2"],
    ["construct", "antimagic-path", "--group", "Z8"],
    ["explore", "--n-max", "2"],
], ids=lambda argv: " ".join(argv[:2]))
def test_workers_below_one_is_usage_error_on_every_command(capsys, argv):
    # none of these reaches a root split: a degenerate search, the block
    # and pinned routes, and a survey
    code, out, err = run(capsys, argv + ["--workers", "0"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: workers must be at least 1\n"


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


@pytest.mark.parametrize("argv, message", [
    (["search", "ea-cordial", "--group", "Z1", "--kind", "path", "--n", "3"],
     "searches need a group with at least two elements"),
    (["search", "antimagic", "--group", "Z1", "--kind", "tree",
      "--edges", "[[0, 1], [2, 3]]"],
     "tree kind requires a connected graph on n-1 edges"),
    (["search", "ea-cordial", "--group", "Z1", "--kind", "path", "--n", "3",
      "--workers", "0"],
     "searches need a group with at least two elements"),
    (["search", "rstar", "--group", "Z1", "--workers", "0"],
     "workers must be at least 1"),
    (["search", "rstar", "--group", "Z1"],
     "searches need a group with at least two elements"),
])
def test_search_input_errors_keep_their_order(capsys, argv, message):
    # a bad graph before the trivial group, and on rstar a bad --workers
    # before it too, as the searches themselves check
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


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
