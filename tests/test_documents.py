import json

import pytest
from hypothesis import given, settings, strategies as st

from entinv.documents import (
    MAX_COEFFICIENTS,
    MAX_ELIMINATION,
    DocumentError,
    document_dict,
    emit_document,
    parse_document,
)
from entinv.fields import GF, QQ, QQI
from entinv.tensors import Shape, Tensor, from_terms, random_tensor


def test_dense_round_trip():
    v = random_tensor(Shape((2, 3, 4)), 5, seed=3)
    assert parse_document(emit_document(v)) == v


def test_sparse_round_trip():
    v = from_terms(Shape((2, 2, 2)), [(1, 1, 1), (2, 2, 2)])
    text = emit_document(v, sparse=True)
    data = json.loads(text)
    assert len(data["entries"]) == 2
    assert parse_document(text) == v


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (2, 3)])
def test_sparse_zero_state_round_trip(dims):
    zero = from_terms(Shape(dims), [], field=QQ)
    text = emit_document(zero, sparse=True)
    assert json.loads(text)["entries"] == []
    assert parse_document(text) == zero


def test_round_trip_preserves_scalar_strings():
    doc = {
        "field": "rational",
        "dims": [2, 2],
        "entries": ["1/3", "-7/2", "0", "5"],
    }
    v = parse_document(json.dumps(doc))
    assert document_dict(v)["entries"] == ["1/3", "-7/2", "0", "5"]


def test_gaussian_round_trip():
    doc = {
        "field": "gaussian-rational",
        "dims": [2, 2],
        "entries": ["1/2+3/4i", "-2i", "0", "1-1i"],
    }
    v = parse_document(json.dumps(doc))
    assert v.field == QQI
    assert parse_document(emit_document(v)) == v


def test_gf_document():
    doc = {"field": "gf(7)", "dims": [2, 2], "entries": ["3", "10", "0", "-1"]}
    v = parse_document(json.dumps(doc))
    assert v.field == GF(7)
    assert [c.value for c in v.coeffs] == [3, 3, 0, 6]


def test_sparse_defaults_to_zero():
    doc = {
        "field": "rational",
        "dims": [2, 2, 2],
        "entries": [{"index": [1, 1, 1], "value": "4"}],
    }
    v = parse_document(json.dumps(doc))
    assert v.coeffs[7] == QQ.parse("4")
    assert sum(1 for c in v.coeffs if c) == 1


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.pop("dims"), "missing field"),
        (lambda d: d.update(field="float64"), "unknown field descriptor"),
        (lambda d: d.update(dims=[2]), "2 or 3 factors"),
        (lambda d: d.update(dims=[2, 2.5]), "list of integers"),
        (lambda d: d.update(entries=["1", "0"]), "dense entries need 4"),
        (lambda d: d.update(entries=["1", "0", "1.5", "0"]), "entries[2]"),
        (lambda d: d.update(entries="10"), "must be a list"),
    ],
)
def test_dense_document_errors(mutate, fragment):
    doc = {"field": "rational", "dims": [2, 2], "entries": ["1", "0", "0", "1"]}
    mutate(doc)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "entries,fragment",
    [
        ([{"index": [0, 0], "value": "1", "x": 1}], "unknown field"),
        ([{"index": [0, 0]}], "need exactly"),
        ([{"index": [0], "value": "1"}], "list of 2 integers"),
        ([{"index": [0, 5], "value": "1"}], "out of range"),
        ([{"index": [0, 0], "value": "1"}, {"index": [0, 0], "value": "2"}], "duplicate index"),
        ([{"index": [0, 0], "value": 1}], "scalar string"),
        ([{"index": [0, 0], "value": "1"}, "3"], "all scalar strings"),
    ],
)
def test_sparse_document_errors(entries, fragment):
    doc = {"field": "rational", "dims": [2, 2], "entries": entries}
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert fragment in str(err.value)


def test_coefficient_cap_is_inclusive():
    doc = {"field": "gf(2)", "dims": [2, 2, MAX_COEFFICIENTS // 4], "entries": []}
    assert parse_document(json.dumps(doc)).shape.size == MAX_COEFFICIENTS
    doc["dims"][2] += 1
    with pytest.raises(DocumentError, match="more than the cap of 1048576"):
        parse_document(json.dumps(doc))


def test_elimination_cap_is_inclusive():
    # a bipartite (d1, d2) state eliminates its d1 x d2 flattening
    assert 64 * 2048 * 64 == MAX_ELIMINATION
    doc = {"field": "rational", "dims": [64, 2048], "entries": []}
    assert parse_document(json.dumps(doc)).shape.dims == (64, 2048)
    for dims in ([64, 2049], [2049, 64], [204, 204]):
        with pytest.raises(DocumentError, match="more than the cap of 8388608"):
            parse_document(json.dumps({**doc, "dims": dims}))
    # over Q(i) the cap counts a d1 x d2 matrix as 2 d1 x 2 d2
    doc = {"field": "gaussian-rational", "dims": [101, 101], "entries": []}
    assert parse_document(json.dumps(doc)).shape.dims == (101, 101)
    with pytest.raises(DocumentError, match="a 204x204 matrix"):
        parse_document(json.dumps({**doc, "dims": [102, 102]}))
    # a (2,3,d) state faces the coefficient cap alone
    doc = {"field": "rational", "dims": [2, 3, MAX_COEFFICIENTS // 6], "entries": []}
    assert parse_document(json.dumps(doc)).shape.size <= MAX_COEFFICIENTS


def test_invalid_json_reports_source():
    with pytest.raises(DocumentError) as err:
        parse_document("{not json", source="states/x.json")
    assert "states/x.json" in str(err.value)


def test_floats_rejected_everywhere():
    doc = {"field": "rational", "dims": [2, 2], "entries": ["1", "0", "0", "1e-3"]}
    with pytest.raises(DocumentError):
        parse_document(json.dumps(doc))


# JSON values whose integers stay small, so that no "dims" they form
# allocates a large zero state; strings lean towards the format's own words
_words = st.sampled_from([
    "field", "dims", "entries", "index", "value", "rational", "gaussian-rational",
    "gf(2)", "gf(7)", "gf(4)", "1", "-2/3", "0", "1/0", "2+3i", "i", "1e-3", " 1",
])
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=6) | _words,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_words | st.text(max_size=4), children, max_size=4),
    max_leaves=24,
)
# documents close to valid ones, so that most examples reach the entries;
# a sparse index runs one past each dimension.  In some, one key holds any
# JSON value instead
_scalars = st.sampled_from(["1", "-2/3", "0", "5"]) | _words | st.text(max_size=4)


def _near_document(dims):
    index = st.tuples(*(st.integers(0, d) for d in dims)).map(list)
    return st.fixed_dictionaries({
        "field": st.sampled_from(["rational", "gaussian-rational", "gf(2)", "gf(7)"]),
        "dims": st.just(dims),
        "entries": st.lists(_scalars, max_size=9)
        | st.lists(st.fixed_dictionaries({"index": index, "value": _scalars | _json}),
                   max_size=4),
    })


_near_documents = st.lists(st.integers(1, 3), min_size=2, max_size=3).flatmap(_near_document)
_documents = st.builds(
    lambda doc, key, value: {**doc, key: value} if key else doc,
    _near_documents, st.sampled_from([None, None, None, "field", "dims", "entries"]), _json,
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), _json.map(json.dumps), _documents.map(json.dumps)))
def test_any_input_gives_a_tensor_or_a_document_error(text):
    try:
        v = parse_document(text)
    except DocumentError:
        return
    assert isinstance(v, Tensor)
