"""Certificate JSON: round trips, byte determinism, bundled fixtures."""

import hashlib
import importlib.resources as resources
import json

import pytest

from cordant import (
    CordantError,
    EdgeLabeling,
    GroupSpec,
    InvalidElementError,
    InvalidLabelingError,
    InvalidSpecError,
    NOTION_A_ANTIMAGIC,
    NOTION_A_CORDIAL,
    NOTION_A_STAR_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    VertexLabeling,
    certificate_dumps,
    certificate_loads,
    certificate_to_obj,
    construct_ant_path,
    construct_path_antimagic,
    cycle_graph,
    load_demo_certificate,
    make_edge_certificate,
    make_vertex_certificate,
    path_graph,
)

Z3 = GroupSpec((3,))


def _fixture_text(number: int) -> str:
    return (resources.files("cordant") / "fixtures"
            / f"demo{number}.json").read_text()


# ---------------------------------------------------------------------------
# construction and round trips

def test_edge_certificate_round_trip():
    cert = make_edge_certificate(
        NOTION_EA_CORDIAL, path_graph(4), EdgeLabeling(Z3, ((0,), (1,), (2,))))
    assert cert.verdict.ok
    assert cert.vertex_labels == ((0,), (1,), (0,), (2,))
    again = certificate_loads(certificate_dumps(cert))
    assert again == cert


def test_vertex_certificate_round_trip():
    cert = make_vertex_certificate(
        cycle_graph(3), VertexLabeling(Z3, ((0,), (1,), (2,))))
    assert cert.notion == NOTION_A_CORDIAL
    assert cert.verdict.ok
    assert cert.edge_labels == ((1,), (0,), (2,))
    assert certificate_loads(certificate_dumps(cert)) == cert


def test_failing_labelings_still_serialize():
    cert = make_edge_certificate(
        NOTION_EA_CORDIAL, path_graph(4), EdgeLabeling(Z3, ((0,), (0,), (0,))))
    assert not cert.verdict.ok
    assert cert.verdict.violation == "edge-imbalance"
    assert certificate_loads(certificate_dumps(cert)) == cert


@pytest.mark.parametrize("notion", [NOTION_A_ANTIMAGIC,
                                    NOTION_A_STAR_ANTIMAGIC])
def test_antimagic_certificates_need_a_tree_of_group_order(notion):
    f = EdgeLabeling(GroupSpec((4,)), ((1,), (2,)))
    with pytest.raises(InvalidLabelingError,
                       match="^tree order 3 must equal group order 4$"):
        make_edge_certificate(notion, path_graph(3), f)


def test_dumps_is_deterministic():
    cert = make_edge_certificate(
        NOTION_EA_CORDIAL, path_graph(4), EdgeLabeling(Z3, ((0,), (1,), (2,))))
    assert certificate_dumps(cert) == certificate_dumps(cert)


def test_json_shape_and_count_order():
    cert = make_edge_certificate(
        NOTION_EA_CORDIAL, path_graph(4), EdgeLabeling(Z3, ((0,), (1,), (2,))))
    obj = certificate_to_obj(cert)
    assert obj["notion"] == "ea-cordial"
    assert obj["group"] == [3]
    assert obj["graph"] == {"kind": "path", "n": 4}
    assert obj["edge_labels"] == [[0], [1], [2]]
    # counts are serialized as lists in element enumeration order
    assert obj["verdict"]["edge_class_counts"] == [1, 1, 1]
    assert obj["verdict"]["vertex_class_counts"] == [2, 1, 1]
    assert obj["verdict"]["ok"] is True


def _no_chain_edges(*args):
    pytest.fail("built the edge tuple of a path or cycle")


def test_path_and_cycle_certificates_build_no_chain_edges(monkeypatch):
    # a path or cycle derives its edge tuple only when it is read, and no
    # dispatcher, judge, writer or loader of its certificate reads it
    import cordant.graphs as graphs
    from cordant import construct_path_ek

    monkeypatch.setattr(graphs, "_chain_edges", _no_chain_edges)
    results = {factors: construct_path_antimagic(GroupSpec(factors))
               for factors in ((5, 7), (37,), (8,), (4, 3), (4,), (2, 2, 2))}
    assert {factors: result.route for factors, result in results.items()} \
        == {(5, 7): "odd-cycle-search", (37,): "odd-cycle-search",
            (8,): "block", (4, 3): "block", (4,): "base-p4",
            (2, 2, 2): "pinned-cube"}
    certs = [result.certificate for result in results.values()]
    ek = construct_path_ek(24, 13)
    assert ek.route == "consecutive-sums"
    certs.append(ek.certificate)
    certs.append(make_edge_certificate(NOTION_A_ANTIMAGIC, path_graph(35),
                                       results[(5, 7)].labeling))
    certs.append(make_edge_certificate(NOTION_EA_CORDIAL, cycle_graph(3),
                                       EdgeLabeling(Z3, ((0,), (1,), (2,)))))
    certs.append(make_vertex_certificate(
        cycle_graph(3), VertexLabeling(Z3, ((0,), (1,), (2,)))))
    assert all(cert.verdict.ok for cert in certs)
    texts = [certificate_dumps(cert) for cert in certs]
    loaded = [certificate_loads(text) for text in texts]
    assert [certificate_dumps(cert) for cert in loaded] == texts
    monkeypatch.undo()
    assert loaded == certs


# ---------------------------------------------------------------------------
# bundled fixtures

def test_demo_certificates_verify():
    expected = {
        1: (NOTION_A_STAR_ANTIMAGIC, "tree", 8, (2, 2, 2)),
        2: (NOTION_EA_CORDIAL, "path", 24, (8, 3)),
        3: (NOTION_EA_CORDIAL, "path", 24, (24,)),
        4: (NOTION_A_ANTIMAGIC, "path", 8, (2, 2, 2)),
    }
    for number, (notion, kind, n, factors) in expected.items():
        cert = load_demo_certificate(number)
        assert cert.notion == notion
        assert (cert.graph.kind, cert.graph.n) == (kind, n)
        assert cert.group == GroupSpec(factors)
        assert cert.verdict.ok


def test_demo_numbers_are_1_to_4():
    with pytest.raises(InvalidSpecError):
        load_demo_certificate(0)
    with pytest.raises(InvalidSpecError):
        load_demo_certificate(5)


def test_block_construction_regenerates_fixtures_bit_exactly():
    for number, factors in ((2, (8, 3)), (3, (24,))):
        spec = GroupSpec(factors)
        cert = make_edge_certificate(
            NOTION_EA_CORDIAL, path_graph(24), construct_ant_path(spec))
        assert certificate_dumps(cert) + "\n" == _fixture_text(number)
        assert cert == load_demo_certificate(number)


@pytest.mark.parametrize("notion, factors, digest", [
    (NOTION_EA_CORDIAL, (4096,),
     "06fc5a46e705f20f55cb4e84d075d4684e910a9a5cfa86ae5bc743979d5b6cf6"),
    (NOTION_A_ANTIMAGIC, (5, 1024),
     "38ad99ac0bad41ac94531c46ba6a472d9e7a68525233f279e010ef10178f6e77"),
])
def test_block_certificates_keep_their_bytes(notion, factors, digest):
    """The certificate JSON of two large block-route labelings, frozen as
    sha256 digests."""
    spec = GroupSpec(factors)
    if notion == NOTION_EA_CORDIAL:
        f = construct_ant_path(spec)
    else:
        result = construct_path_antimagic(spec)
        assert result.route == "block"
        f = result.labeling
    text = certificate_dumps(
        make_edge_certificate(notion, path_graph(spec.order), f))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert certificate_dumps(certificate_loads(text)) == text


def test_fixture_bytes_round_trip():
    for number in (1, 2, 3, 4):
        text = _fixture_text(number)
        cert = certificate_loads(text)
        assert certificate_dumps(cert) + "\n" == text


# ---------------------------------------------------------------------------
# corruption rejection

def test_rejects_tampered_labels():
    obj = json.loads(_fixture_text(2))
    obj["edge_labels"][0] = [4, 0]
    with pytest.raises(InvalidLabelingError):
        certificate_loads(json.dumps(obj))


def test_rejects_tampered_verdict():
    obj = json.loads(_fixture_text(4))
    obj["verdict"]["ok"] = False
    with pytest.raises(InvalidLabelingError):
        certificate_loads(json.dumps(obj))


@pytest.mark.parametrize("flag", [1, 0, "true", None, [True]])
def test_rejects_a_verdict_flag_that_is_not_a_json_boolean(flag):
    # bool() would read 1 (or "true", or [True]) as demo 4's own true
    obj = json.loads(_fixture_text(4))
    obj["verdict"]["ok"] = flag
    with pytest.raises(InvalidLabelingError, match="true or false"):
        certificate_loads(json.dumps(obj))


def test_rejects_tampered_counts():
    obj = json.loads(_fixture_text(1))
    counts = obj["verdict"]["vertex_class_counts"]
    counts[0], counts[1] = counts[1] + 1, counts[0] - 1
    with pytest.raises(InvalidLabelingError):
        certificate_loads(json.dumps(obj))


def _set(path, value):
    def corrupt(obj):
        *keys, last = path
        for key in keys:
            obj = obj[key]
        obj[last] = value
    return corrupt


def _tree_graph(obj, last=(6, 7)):
    obj["graph"] = {"kind": "tree", "n": 8,
                    "edges": [[i, i + 1] for i in range(6)] + [list(last)]}


def test_a_path_written_as_a_tree_loads():
    # the control for the tree-edge corruption below
    obj = json.loads(_fixture_text(4))
    _tree_graph(obj)
    assert certificate_loads(json.dumps(obj)).verdict.ok


_NON_INTEGERS = {
    # int() would read the first three as the fixture's own numbers
    "edge-label-floats": _set(("edge_labels", 1), [1.9, 0.2, 0]),
    "n-float": _set(("graph", "n"), 8.6),
    "n-integral-float": _set(("graph", "n"), 8.0),
    "n-null": _set(("graph", "n"), None),
    "n-string": _set(("graph", "n"), "8"),
    "group-float": _set(("group",), [2, 2.0, 2]),
    "group-bool": _set(("group",), [2, True, 2]),
    "vertex-label-null": _set(("vertex_labels", 0), [0, None, 0]),
    "vertex-label-bool": _set(("vertex_labels", 1), [True, 0, 0]),
    "count-list-null": _set(("verdict", "edge_class_counts"), None),
    "edge-count-float": _set(("verdict", "edge_class_counts", 0), 1.0),
    "vertex-count-bool": _set(("verdict", "vertex_class_counts", 7), True),
    "vertex-count-null": _set(("verdict", "vertex_class_counts", 7), None),
    "tree-edge-float": lambda obj: _tree_graph(obj, (6, 7.0)),
    "tree-edge-null": lambda obj: _tree_graph(obj, (6, None)),
}


@pytest.mark.parametrize("corrupt", _NON_INTEGERS.values(),
                         ids=_NON_INTEGERS.keys())
def test_rejects_numbers_that_are_not_integers(corrupt):
    obj = json.loads(_fixture_text(4))
    corrupt(obj)
    with pytest.raises(InvalidLabelingError):
        certificate_loads(json.dumps(obj))


def test_rejects_missing_fields():
    obj = json.loads(_fixture_text(1))
    del obj["vertex_labels"]
    with pytest.raises((InvalidLabelingError, KeyError, InvalidSpecError)):
        certificate_loads(json.dumps(obj))


def _fail_if_called(*args, **kwargs):
    pytest.fail("work sized by the document was done before its sizes "
                "were checked")


@pytest.mark.parametrize("graph", [
    {"kind": "path", "n": 10**12},
    {"kind": "cycle", "n": 10**12},
    {"kind": "tree", "n": 10**12, "edges": [[0, 1]]},
    {"kind": "general", "n": 10**12, "edges": []},
])
def test_rejects_declared_sizes_the_document_does_not_hold(monkeypatch, graph):
    import cordant.certificates as certificates
    for name in ("path_graph", "cycle_graph", "SimpleGraph"):
        monkeypatch.setattr(certificates, name, _fail_if_called)
    obj = {"notion": "ea-cordial", "group": [3], "graph": graph,
           "edge_labels": [[0]], "vertex_labels": [[0], [0]],
           "verdict": {"ok": True, "violation": None,
                       "edge_class_counts": [1, 0, 0],
                       "vertex_class_counts": [2, 0, 0]}}
    with pytest.raises(InvalidLabelingError, match="2 vertex labels"):
        certificate_loads(json.dumps(obj))


def test_rejects_a_group_larger_than_its_count_lists(monkeypatch):
    # nothing the loader runs may enumerate the group
    import cordant.groups as groups
    monkeypatch.setattr(groups, "_elements", _fail_if_called)
    obj = json.loads(_fixture_text(4))
    obj["group"] = [10**12]
    with pytest.raises(InvalidLabelingError, match="does not cover the group"):
        certificate_loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# malformed labels: the bulk checks raise what the label-by-label checks
# raise, for the document's first bad label

def _a_cordial_obj():
    return certificate_to_obj(make_vertex_certificate(
        cycle_graph(3), VertexLabeling(Z3, ((0,), (1,), (2,)))))


_ROW_TYPE = "malformed certificate: a label must be a list of integers"
_MALFORMED = {
    "float-coordinate": (4, ("edge_labels", 1, 0), 1.0,
                         InvalidLabelingError, _ROW_TYPE),
    "bool-coordinate": (4, ("edge_labels", 1, 2), True,
                        InvalidLabelingError, _ROW_TYPE),
    "null-coordinate": (4, ("edge_labels", 6, 1), None,
                        InvalidLabelingError, _ROW_TYPE),
    "string-coordinate": (4, ("edge_labels", 0, 0), "0",
                          InvalidLabelingError, _ROW_TYPE),
    "short-label": (4, ("edge_labels", 2), [0, 1], InvalidElementError,
                    "element (0, 1) does not fit Z2xZ2xZ2"),
    "long-label": (4, ("edge_labels", 3), [0, 0, 1, 0], InvalidElementError,
                   "element (0, 0, 1, 0) does not fit Z2xZ2xZ2"),
    "empty-label": (4, ("edge_labels", 0), [], InvalidElementError,
                    "element () does not fit Z2xZ2xZ2"),
    "out-of-range": (4, ("edge_labels", 4, 1), 2, InvalidElementError,
                     "coordinate 2 out of range for Z2"),
    "negative": (4, ("edge_labels", 5, 2), -1, InvalidElementError,
                 "coordinate -1 out of range for Z2"),
    "row-int": (4, ("edge_labels", 1), 5, InvalidLabelingError, _ROW_TYPE),
    "row-string": (4, ("edge_labels", 1), "101",
                   InvalidLabelingError, _ROW_TYPE),
    "row-object": (4, ("edge_labels", 1), {"a": 1},
                   InvalidLabelingError, _ROW_TYPE),
    "row-null": (4, ("edge_labels", 1), None, InvalidLabelingError, _ROW_TYPE),
    "edge-labels-int": (4, ("edge_labels",), 7, InvalidLabelingError,
                        "malformed certificate: 'int' object is not iterable"),
    "edge-labels-null": (4, ("edge_labels",), None, InvalidLabelingError,
                         "malformed certificate: 'NoneType' object is not "
                         "iterable"),
    "edge-labels-string": (4, ("edge_labels",), "abc",
                           InvalidLabelingError, _ROW_TYPE),
    "edge-labels-empty-string": (4, ("edge_labels",), "", InvalidLabelingError,
                                 "labeling has 0 labels, graph needs 7"),
    "edge-labels-object": (4, ("edge_labels",), {}, InvalidLabelingError,
                           "labeling has 0 labels, graph needs 7"),
    "vertex-out-of-range": (4, ("vertex_labels", 3, 0), 2,
                            InvalidLabelingError,
                            "stored vertex labels are not the induced sums"),
    "vertex-float": (4, ("vertex_labels", 3, 0), 0.5,
                     InvalidLabelingError, _ROW_TYPE),
    "vertex-labels-int": (4, ("vertex_labels",), 3, InvalidLabelingError,
                          "malformed certificate: 'int' object is not "
                          "iterable"),
    "a-cordial-vertex-out-of-range": (
        "a", ("vertex_labels", 1, 0), 3, InvalidElementError,
        "coordinate 3 out of range for Z3"),
    "a-cordial-vertex-negative": (
        "a", ("vertex_labels", 2, 0), -3, InvalidElementError,
        "coordinate -3 out of range for Z3"),
    "a-cordial-vertex-arity": (
        "a", ("vertex_labels", 0), [0, 0], InvalidElementError,
        "element (0, 0) does not fit Z3"),
    "a-cordial-edge-out-of-range": (
        "a", ("edge_labels", 1, 0), 3, InvalidLabelingError,
        "stored edge labels are not the induced endpoint sums"),
}


@pytest.mark.parametrize("source, path, value, error, message",
                         _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_labels_raise_the_label_by_label_error(source, path, value,
                                                         error, message):
    obj = (_a_cordial_obj() if source == "a"
           else json.loads(_fixture_text(source)))
    _set(path, value)(obj)
    with pytest.raises(CordantError) as caught:
        certificate_loads(json.dumps(obj))
    assert (type(caught.value), str(caught.value)) == (error, message)


def test_the_first_bad_label_names_the_error():
    obj = json.loads(_fixture_text(4))
    obj["edge_labels"][5][0] = 9
    obj["edge_labels"][6] = [0]
    with pytest.raises(InvalidElementError,
                       match="^coordinate 9 out of range for Z2$"):
        certificate_loads(json.dumps(obj))
    # every label's type is checked before any label's range
    obj = json.loads(_fixture_text(4))
    obj["edge_labels"][0][0] = 9
    obj["vertex_labels"][7][0] = "x"
    with pytest.raises(InvalidLabelingError, match=_ROW_TYPE):
        certificate_loads(json.dumps(obj))
