"""The result records: immutable values compared, hashed and shown by
their fields, with the constructors they always had."""

import copy
import inspect
import os
import pickle
import subprocess
import sys

import pytest

from cordant import (
    AntDecomposition,
    Certificate,
    ConstructionResult,
    EdgeLabeling,
    ExploreReport,
    ExploreRow,
    GroupSpec,
    HamiltonianCycle,
    RStarSequence,
    SearchOutcome,
    SigmaMaxResult,
    SimpleGraph,
    Verdict,
    VertexLabeling,
    cycle_graph,
    make_edge_certificate,
    path_graph,
    verify_ea_cordial,
)
from cordant.groups import LinearMap
from cordant.labelings import _computed

Z3 = GroupSpec((3,))
Z6 = GroupSpec((6,))
Z2xZ3 = GroupSpec((2, 3))
P3 = SimpleGraph(3, ((0, 1), (1, 2)), "path")
F = EdgeLabeling(Z3, ((0,), (1,)))
CYCLE_Z3 = HamiltonianCycle(Z3, ((0,), (1,), (2,)))
ROW = ExploreRow(2, GroupSpec((2,)), 0, ((0, 1),), "Found", 3, ((0,),),
                 "NotExists", 1, None)
CERT = make_edge_certificate("ea-cordial", P3, F)

# per record: its constructor's parameters (name, default) as they were
# when the records were dataclasses, and arguments for each of them
NO_DEFAULT = inspect.Parameter.empty
CASES = {
    GroupSpec: ((("factors", NO_DEFAULT),), ((2, 3),)),
    AntDecomposition: ((("four_m", NO_DEFAULT), ("odd_part", NO_DEFAULT)),
                       (8, Z3)),
    LinearMap: ((("src", NO_DEFAULT), ("dst", NO_DEFAULT),
                 ("weights", NO_DEFAULT)),
                (Z6, Z2xZ3, ((1,), (1,)))),
    SimpleGraph: ((("n", NO_DEFAULT), ("edges", NO_DEFAULT),
                   ("kind", "general")),
                  (3, ((0, 1), (1, 2)), "path")),
    EdgeLabeling: ((("group", NO_DEFAULT), ("labels", NO_DEFAULT)),
                   (Z3, ((0,), (1,)))),
    VertexLabeling: ((("group", NO_DEFAULT), ("labels", NO_DEFAULT)),
                     (Z3, ((0,), (1,), (2,)))),
    Verdict: ((("ok", NO_DEFAULT), ("edge_class_counts", NO_DEFAULT),
               ("vertex_class_counts", NO_DEFAULT), ("violation", None)),
              (False, {(0,): 1}, {(1,): 2}, "vertex-imbalance")),
    SearchOutcome: ((("status", NO_DEFAULT), ("certificate", NO_DEFAULT),
                     ("nodes_explored", NO_DEFAULT)),
                    ("Found", F, 7)),
    RStarSequence: ((("group", NO_DEFAULT), ("seq", NO_DEFAULT),
                     ("star_index", NO_DEFAULT)),
                    (GroupSpec((2, 2)), ((0, 1), (1, 0), (1, 1)), 0)),
    HamiltonianCycle: ((("group", NO_DEFAULT), ("order", NO_DEFAULT)),
                       (Z3, ((0,), (1,), (2,)))),
    SigmaMaxResult: ((("status", NO_DEFAULT), ("value", NO_DEFAULT),
                      ("witness", NO_DEFAULT), ("nodes_explored", NO_DEFAULT)),
                     ("Found", 3, CYCLE_Z3, 5)),
    Certificate: ((("notion", NO_DEFAULT), ("group", NO_DEFAULT),
                   ("graph", NO_DEFAULT), ("edge_labels", NO_DEFAULT),
                   ("vertex_labels", NO_DEFAULT), ("verdict", NO_DEFAULT)),
                  (CERT.notion, CERT.group, CERT.graph, CERT.edge_labels,
                   CERT.vertex_labels, CERT.verdict)),
    ConstructionResult: ((("status", NO_DEFAULT), ("labeling", NO_DEFAULT),
                          ("route", NO_DEFAULT), ("nodes_explored", 0)),
                         ("Found", F, "consecutive-sums", 0)),
    ExploreRow: (tuple((name, NO_DEFAULT) for name in (
        "n", "group", "tree_index", "edges", "antimagic_status",
        "antimagic_nodes", "antimagic_labels", "astar_status", "astar_nodes",
        "astar_labels")),
        (2, GroupSpec((2,)), 0, ((0, 1),), "Found", 3, ((0,),), "NotExists",
         1, None)),
    ExploreReport: ((("n_max", NO_DEFAULT), ("rows", NO_DEFAULT)),
                    (2, (ROW,))),
}
# fields a record computes rather than takes
COMPUTED = {HamiltonianCycle: ("distinct_sum_count",)}


def _fields(cls):
    return [name for name, _ in CASES[cls][0]] + list(COMPUTED.get(cls, ()))


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record(cls):
    params, args = CASES[cls]
    names = [name for name, _ in params]

    # the constructor's signature is unchanged
    assert [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
        for name, default in params]

    # positional and keyword construction give the same value
    obj = cls(*args)
    assert cls(**dict(zip(names, args))) == obj
    for name, value in zip(names, args):
        assert getattr(obj, name) == value

    # anything not a record of this class differs
    assert obj != object()
    assert obj != dict(obj.__dict__)

    # immutable: assignment and deletion raise
    first = names[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, args[0])
    with pytest.raises(AttributeError):
        setattr(obj, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert getattr(obj, first) == args[0]

    # the dataclass form of repr
    assert repr(obj) == "%s(%s)" % (cls.__name__, ", ".join(
        f"{name}={getattr(obj, name)!r}" for name in _fields(cls)))

    # pickle and deepcopy rebuild an equal record
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj and twin is not obj
        assert repr(twin) == repr(obj)
        with pytest.raises(AttributeError):
            setattr(twin, first, args[0])

    # hashable exactly when every field is
    try:
        hash(tuple(getattr(obj, name) for name in _fields(cls)))
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(pickle.loads(pickle.dumps(obj)))
        assert {obj: 1}[cls(*args)] == 1


def test_records_compare_by_fields():
    assert GroupSpec((2, 3)) == GroupSpec([2, 3]) != GroupSpec((3, 2))
    assert GroupSpec(("4",)).factors == (4,)
    assert EdgeLabeling(Z3, ((0,),)) != VertexLabeling(Z3, ((0,),))
    assert SearchOutcome("Found", None, 1) != SearchOutcome("Found", None, 2)
    assert ConstructionResult("Impossible", None, "r") == \
        ConstructionResult("Impossible", None, "r", 0)
    assert CYCLE_Z3.distinct_sum_count == 3
    assert repr(GroupSpec((8,))) == "GroupSpec(factors=(8,))"


def test_validation_is_unchanged():
    with pytest.raises(ValueError, match="cyclic factor orders must be >= 2"):
        GroupSpec((2, 1))
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        EdgeLabeling(Z3, ((3,),))
    with pytest.raises(ValueError, match="star index out of range"):
        RStarSequence(GroupSpec((2, 2)), ((0, 1), (1, 0), (1, 1)), 3)
    with pytest.raises(ValueError, match="start at zero"):
        HamiltonianCycle(Z3, ((1,), (0,), (2,)))


def test_unchecked_builders_equal_their_validated_twins():
    labels = ((0,), (1,), (2,))
    for cls in (EdgeLabeling, VertexLabeling):
        fast, checked = _computed(cls, Z3, labels), cls(Z3, labels)
        assert fast == checked and hash(fast) == hash(checked)
        assert repr(fast) == repr(checked)
        with pytest.raises(AttributeError):
            fast.labels = ()
    for build, kind in ((path_graph, "path"), (cycle_graph, "cycle")):
        fast = build(5)
        checked = SimpleGraph(5, fast.edges, kind)
        assert fast == checked and hash(fast) == hash(checked)
        assert repr(fast) == repr(checked)
        assert verify_ea_cordial(fast, EdgeLabeling(
            Z3, ((0,),) * len(fast.edges))) == verify_ea_cordial(
            checked, EdgeLabeling(Z3, ((0,),) * len(checked.edges)))


def test_the_library_loads_no_dataclasses_or_inspect():
    modules = ("_vocab", "errors", "groups", "graphs", "labelings",
               "certificates", "deciders", "constructions", "search",
               "explore", "trees", "cli", "_kernel")
    code = ("import importlib, sys\n"
            f"for m in {modules!r}:\n"
            "    importlib.import_module('cordant.' + m)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
