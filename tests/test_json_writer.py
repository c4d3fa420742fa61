"""The indented JSON writer: byte for byte ``json.dumps(obj, indent=2)``."""

import importlib.util
import json
import math
import pathlib
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from cordant import (
    GroupSpec,
    NOTION_A_ANTIMAGIC,
    NOTION_EA_CORDIAL,
    abelian_groups_of_order,
    certificate_dumps,
    certificate_to_obj,
    construct_path_antimagic,
    construct_path_ek,
    make_edge_certificate,
    path_graph,
)
from cordant._vocab import indented_json

ROOT = pathlib.Path(__file__).resolve().parent.parent

big_ints = st.one_of(st.integers(), st.integers(-(10**40), 10**40))
scalars = st.one_of(
    st.none(), st.booleans(), big_ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f",
                                "é ü ß", "  ", "日本", "😀"]))
int_lists = st.lists(big_ints, max_size=4)
# label-shaped data: lists of integer lists, of one length or ragged,
# empty rows included
int_rows = st.one_of(
    st.integers(0, 4).flatmap(
        lambda k: st.lists(st.lists(big_ints, min_size=k, max_size=k),
                           max_size=4)),
    st.lists(int_lists, max_size=4))
documents = st.recursive(
    st.one_of(scalars, int_lists, int_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.lists(children, max_size=3).map(tuple)),
    max_leaves=12)


@given(documents)
def test_writer_matches_json_dumps(obj):
    assert indented_json(obj) == json.dumps(obj, indent=2)


@given(st.dictionaries(
    st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
    st.one_of(scalars, int_lists), max_size=3))
def test_writer_matches_json_dumps_on_non_string_keys(obj):
    doc = {"outer": [obj, {"inner": obj}]}
    assert indented_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], []], [[], [1], [2, 3]], [(1, 2), (3, 4)],
    [[True, 1]], [[1.0, 2]], [1, True], [[[]]], [[[1]]], {"": [[0]]},
    [10**30, -(10**30)], [math.nan, -math.inf], {"a": {"b": {}}},
])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert indented_json(obj) == json.dumps(obj, indent=2)


def test_writer_refuses_what_json_refuses():
    for obj in ([object()], {"k": {(1, 2): 3}}, {"k": [1, {2, 3}]}):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            indented_json(obj)


def _construct_certificates():
    for order in range(2, 65):
        for spec in abelian_groups_of_order(order):
            result = construct_path_antimagic(spec, budget=20_000)
            if result.labeling is not None:
                yield make_edge_certificate(
                    NOTION_A_ANTIMAGIC, path_graph(order), result.labeling)
    for n, k in ((3, 2), (23, 8), (60, 16), (97, 5)):
        yield make_edge_certificate(
            NOTION_EA_CORDIAL, path_graph(n), construct_path_ek(n, k).labeling)
    spec = GroupSpec((5, 1024))
    yield make_edge_certificate(NOTION_A_ANTIMAGIC, path_graph(spec.order),
                                construct_path_antimagic(spec).labeling)


def test_certificate_text_is_json_dumps_of_its_object():
    checked = 0
    for cert in _construct_certificates():
        assert certificate_dumps(cert) == json.dumps(
            certificate_to_obj(cert), indent=2)
        checked += 1
    assert checked > 60


def test_gen_fixtures_rewrites_the_bundled_fixtures_byte_for_byte():
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", ROOT / "tools" / "gen_fixtures.py")
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    texts = gen_fixtures.fixture_texts()
    assert sorted(texts) == [1, 2, 3, 4]
    for number, text in texts.items():
        bundled = (resources.files("cordant") / "fixtures"
                   / f"demo{number}.json").read_text(encoding="utf-8")
        assert text == bundled, number
