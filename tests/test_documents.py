import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entinv.documents import (
    MAX_COEFFICIENTS,
    MAX_ELIMINATION,
    DocumentError,
    document_dict,
    emit_document,
    indented_json,
    parse_document,
)
from entinv import cli, documents, linalg
from entinv.cli import main
from entinv.fields import GF, QQ, QQI, field_from_descriptor
from entinv.invariants import signature
from entinv.linalg import CHUNK
from entinv.tables import ClassificationGapError
from entinv.tensors import Shape, Tensor, from_terms, random_tensor
from elements import GAP_DOC, parse, zero
import oracle_documents


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
    assert v.coeffs[7] == parse(QQ, "4")
    assert sum(1 for c in v.coeffs if c) == 1


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.pop("dims"), "missing field"),
        (lambda d: d.update(field="float64"), "unknown field descriptor"),
        (lambda d: d.update(dims=[2]), "2 or 3 factors"),
        (lambda d: d.update(dims=[2, 2.5]), "must be ints"),
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
        ([{"index": 0, "value": "1"}], "list of 2 integers"),
        ([{"index": [0], "value": "1"}], "index (0,) is not 2 ints for (2, 2)"),
        ([{"index": [0, True], "value": "1"}], "index (0, True) is not 2 ints"),
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


def test_image_cap_is_inclusive(monkeypatch):
    # bits of the common denominator times integers: 4 x 8 bits for 1/128
    monkeypatch.setattr("entinv.linalg.MAX_IMAGE_BITS", 32)
    doc = {"field": "rational", "dims": [2, 2], "entries": ["1/128", "1", "0", "3/64"]}
    assert parse_document(json.dumps(doc)).den == 128
    doc["entries"][3] = "3/256"
    with pytest.raises(DocumentError, match=r"^<input>: 4 integers over one denominator of 9\+ bits "
                                            r"pass the cap of 32 bits"):
        parse_document(json.dumps(doc))
    with pytest.raises(ValueError, match="cap of 32 bits"):
        Tensor(QQ, Shape((2, 2)), [Fraction(1, 256)] * 4)
    # over Q(i) an entry is two integers
    doc = {"field": "gaussian-rational", "dims": [1, 2], "entries": ["1/128i", "1/16+1/2i"]}
    assert parse_document(json.dumps(doc)).den == 128
    doc["entries"][1] = "1/256"
    with pytest.raises(DocumentError, match="cap of 32 bits"):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("field,d3", [("rational", MAX_COEFFICIENTS // 4),
                                      ("gaussian-rational", 2**14)])
def test_many_denominators_past_the_image_cap_exit_1(field, d3, monkeypatch, capsys):
    """Entries 1/1, 1/2, ... within both document caps: one denominator for
    all of them, lcm(1, ..., 4 d3), would give every entry an integer of
    about 1.44 * 4 d3 bits, so the document is refused before any is made."""
    entries = [f"1/{k}" + ("+1/3i" if field == "gaussian-rational" else "")
               for k in range(1, 4 * d3 + 1)]
    doc = json.dumps({"field": field, "dims": [2, 2, d3], "entries": entries})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["classify", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: <stdin>: ")
    assert err[0].endswith("pass the cap of 268435456 bits on an image")


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_image_cap_refuses_before_every_scalar_is_read(sparse, monkeypatch):
    """Entries 1/1, 1/2, ... of a (2,2,262144) state: the common denominator
    of the first CHUNK of them, lcm(1, ..., 4096), already gives 2**20
    integers about 5,900 bits each, so no scalar after them is read.  A
    sparse document is checked in the order it lists its entries."""
    calls, parse_image = [], QQ.parse_image
    monkeypatch.setattr(QQ, "parse_image", lambda text: calls.append(text) or parse_image(text))
    entries = [f"1/{k}" for k in range(1, 2**20 + 1)]
    if sparse:
        entries = [{"index": [1, 1, 8191 - k], "value": entries[k]} for k in range(8192)]
    doc = json.dumps({"field": "rational", "dims": [2, 2, 2**18], "entries": entries})
    with pytest.raises(DocumentError, match=r"^<input>: 1048576 integers over one denominator "
                                            r"of 5\d{3}\+ bits pass the cap of 268435456 bits"):
        parse_document(doc)
    assert len(calls) == CHUNK < len(entries)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("field", [QQ, QQI], ids=lambda f: f.descriptor)
def test_each_denominator_is_capped_once(field, sparse, monkeypatch):
    """With CHUNK at 10, the denominators of entries -1/1, 1/2, ..., 1/24
    (over Q(i) each minus i/5) reach `capped` in full chunks and a
    leftover, each once, and the document is read exactly."""
    calls, chunks, capped = [], [], linalg.capped
    for module in (documents, linalg):
        monkeypatch.setattr(module, "capped", lambda count, den, dens: calls.extend(dens)
                            or chunks.append(len(dens)) or capped(count, den, dens))
    monkeypatch.setattr(documents, "CHUNK", 10)
    im = "-1/5i" if field == QQI else ""
    scalars = [f"{(-1) ** k}/{k}{im}" for k in range(1, 25)]
    entries = ([{"index": [o // 12, o // 4 % 3, o % 4], "value": x} for o, x in enumerate(scalars)]
               if sparse else scalars)
    v = parse_document(json.dumps({"field": field.descriptor, "dims": [2, 3, 4],
                                   "entries": entries}))
    assert calls == [d for k in range(1, 25) for d in ((k, 5) if im else (k,))]
    assert chunks == ([10] * 4 + [8] if im else [10, 10, 4])
    assert v == Tensor(field, v.shape, [parse(field, x) for x in scalars])
    assert v.den == 5354228880


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_numerator_bits_are_capped(sparse, monkeypatch):
    """The numerators' bits in all, over Q(i) both parts', are capped by
    MAX_IMAGE_BITS as each chunk is read, apart from the denominators'
    cap: at the cap the document is read, one bit more is refused with
    its own message, and a chunk that passes it ends the read."""
    def doc(field, entries):
        if sparse:
            entries = [{"index": [k // 2, k % 2], "value": x} for k, x in enumerate(entries)]
        return json.dumps({"field": field, "dims": [2, 2], "entries": entries})

    monkeypatch.setattr(documents, "MAX_IMAGE_BITS", 40)
    at_cap = ["1023", "-1023/7", "1023", "1023"]
    assert parse_document(doc("rational", at_cap)) == Tensor(
        QQ, Shape((2, 2)), [parse(QQ, x) for x in at_cap])
    for field, entries in (("rational", ["1023", "-1023/7", "-1024", "1023"]),
                           ("gaussian-rational", ["1023+1023i", "0", "1023-1024i", "0"])):
        with pytest.raises(DocumentError, match=r"^<input>: numerators of 41\+ bits pass the "
                                                r"cap of 40 bits on an image$"):
            parse_document(doc(field, entries))
    monkeypatch.setattr(documents, "CHUNK", 2)
    with pytest.raises(DocumentError, match=r"^<input>: numerators of 41\+ bits"):
        parse_document(doc("rational", [str(2**40 - 1), "1", "1.5", "0"]))


def test_many_denominators_within_the_image_cap_are_read_exactly():
    # entries -1/1, 1/2, ..., 1/24, over Q(i) each minus i/5, share the
    # 33-bit denominator lcm(1, ..., 24)
    for field, im in ((QQ, ""), (QQI, "-1/5i")):
        entries = [f"{(-1) ** k}/{k}{im}" for k in range(1, 25)]
        v = parse_document(json.dumps({"field": field.descriptor, "dims": [2, 3, 4],
                                       "entries": entries}))
        want = Tensor(field, v.shape, [parse(field, s) for s in entries])
        assert v == want and v.den == 5354228880
        assert signature(v) == signature(want)


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


# -- the chunked entry loop against the per-entry oracle ----------------

# scalars each field reads, and scalars no field reads
_GOOD = {"rational": ["1", "-2/3", "0", "5", "7/2", " 3 / 4 "],
         "gf(7)": ["1", "-2/3", "0", "5", " 3 / 4 "], "gf(2)": ["1", "0", "-1", "1/3"],
         "gaussian-rational": ["1", "-2/3", "0", "1/5+2/3i", "-1i", "0+1/2i"]}
_BAD = ["1.5", "x", "1/0", "", "1 2", "5/7", "2+3i", "٣"]
_FAULTS = ["scalar", "value type", "index range", "index length", "index type",
           "duplicate", "unknown key", "missing key"]


def _faulty(entry, fault, earlier):
    """A sparse `entry` with one `fault`; `earlier` are the indices before it."""
    index, value = entry["index"], entry["value"]
    return {
        "scalar": {"index": index, "value": "1.5"},
        "value type": {"index": index, "value": 7},
        "index range": {"index": [0] * (len(index) - 1) + [5], "value": value},
        "index length": {"index": index + [0], "value": value},
        "index type": {"index": "0", "value": value},
        "duplicate": {"index": earlier[0] if earlier else index, "value": value},
        "unknown key": {"index": index, "value": value, "note": "x"},
        "missing key": {"index": index},
    }[fault]


@st.composite
def _chunked_documents(draw):
    """Dense and sparse documents, valid or with one or two faults in
    entries, for every field the grammar knows."""
    field = draw(st.sampled_from(sorted(_GOOD)))
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    size, good = Shape(dims).size, st.sampled_from(_GOOD[field])
    if draw(st.booleans()):  # dense, of the right length or one off
        length = max(size + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1])), 0)
        scalars = good | st.sampled_from(_BAD) if draw(st.booleans()) else good
        entries = draw(st.lists(scalars, min_size=length, max_size=length))
    else:
        offsets = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
        shape = Shape(dims)
        indices = [list(i) for i in shape.indices()]
        valid = [{"index": indices[o], "value": draw(good)} for o in offsets]
        faults = draw(st.lists(st.sampled_from(_FAULTS), max_size=min(2, len(valid))))
        at = draw(st.lists(st.integers(0, len(valid) - 1), unique=True,
                           min_size=len(faults), max_size=len(faults))) if valid else []
        entries = list(valid)
        for k, fault in zip(at, faults):
            entries[k] = _faulty(valid[k], fault, [x["index"] for x in valid[:k]])
    return {"field": field, "dims": dims, "entries": entries}


def _outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return str(exc)


@pytest.mark.parametrize("chunk", [2, 3, CHUNK])
@settings(max_examples=300, deadline=None)
@given(doc=_chunked_documents())
def test_chunked_entries_match_the_per_entry_oracle(chunk, doc):
    """One chunk or several, a document gives an equal tensor or the same
    DocumentError text as the oracle that reads one entry at a time."""
    text = json.dumps(doc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(documents, "CHUNK", chunk)
        assert _outcome(parse_document, text) == _outcome(oracle_documents.parse_document, text)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("first,second", [
    ("scalar", "duplicate"), ("index range", "scalar"), ("unknown key", "value type"),
    ("scalar", "scalar"), ("missing key", "index type"),
])
def test_two_sparse_faults_report_the_first_listed(first, second, order):
    """Of two faults in one sparse document, in either order, the one
    listed first is reported, within one chunk and across two."""
    shape = Shape((2, 2, 2))
    entries = [{"index": list(i), "value": "1/2"} for i in shape.indices()]
    faults = [first, second] if order == (0, 1) else [second, first]
    for k, fault in zip((2, 5), faults):
        entries[k] = _faulty(entries[k], fault, [x["index"] for x in entries[:k]])
    text = json.dumps({"field": "rational", "dims": [2, 2, 2], "entries": entries})
    want = _outcome(oracle_documents.parse_document, text)
    assert want.startswith("<input>: entries[2]: ")
    for chunk in (2, 4, 8, CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(documents, "CHUNK", chunk)
            assert _outcome(parse_document, text) == want


# -- the scalar grammar, through the CLI -------------------------------


@pytest.mark.parametrize("field,bad", [
    ("rational", "٣/٤"), ("rational", "３"), ("rational", "1 2"), ("rational", "1/2 0"),
    ("gf(101)", "３"), ("gf(101)", "1 01"), ("gf(101)", "5/101"),
    ("gaussian-rational", "1 2"), ("gaussian-rational", "1 2i"), ("gaussian-rational", "٣+1i"),
    ("gaussian-rational", "1+2 3i"),
])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_bad_scalar_exits_1_naming_its_entry(field, bad, sparse, monkeypatch, capsys):
    entries = ["1", "0", bad, "1"]
    if sparse:
        entries = [{"index": [i // 2, i % 2], "value": s} for i, s in enumerate(entries)]
    doc = json.dumps({"field": field, "dims": [2, 2], "entries": entries})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["classify", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: <stdin>: entries[2]: ")


def test_gf_descriptor_digits_are_ascii():
    doc = {"field": "gf(１０１)", "dims": [2, 2], "entries": ["1", "0", "0", "1"]}
    with pytest.raises(DocumentError, match="unknown field descriptor"):
        parse_document(json.dumps(doc))


def test_spaces_around_signs_slashes_and_i():
    doc = {"field": "gaussian-rational", "dims": [2, 2],
           "entries": ["3/4 + 1/2 i", " - 2 i ", "1 / 3", "0"]}
    assert document_dict(parse_document(json.dumps(doc)))["entries"] == [
        "3/4+1/2i", "-2i", "1/3", "0"]
    doc = {"field": "rational", "dims": [2, 2], "entries": [" -6 / 4 ", "+ 5", "0", "1"]}
    assert document_dict(parse_document(json.dumps(doc)))["entries"] == ["-3/2", "5", "0", "1"]


def test_gf_reduced_denominator_decides():
    doc = {"field": "gf(101)", "dims": [2, 2], "entries": ["101/101", "202/101", "0/101", "1"]}
    v = parse_document(json.dumps(doc))
    assert [c.value for c in v.coeffs] == [1, 2, 0, 1]
    sparse = {"field": "gf(101)", "dims": [2, 2],
              "entries": [{"index": [0, 1], "value": "202/101"}]}
    assert [c.value for c in parse_document(json.dumps(sparse)).coeffs] == [0, 2, 0, 0]
    doc["entries"][3] = "5/101"
    with pytest.raises(DocumentError, match=r"entries\[3\]: denominator of '5/101' vanishes"):
        parse_document(json.dumps(doc))


def test_unreduced_fraction_prints_reduced_in_gap_payloads():
    doc = {"field": "rational", "dims": [2, 2], "entries": ["6/4", "0", "0", "-10/4"]}
    v = parse_document(json.dumps(doc))
    payload = ClassificationGapError(v, signature(v)).payload()
    assert payload["entries"] == ["3/2", "0", "0", "-5/2"]
    assert json.loads(emit_document(v))["entries"] == ["3/2", "0", "0", "-5/2"]


# -- the direct parse against the element route -------------------------


_ORACLE_DIMS = st.sampled_from([(2, 2), (1, 3), (3, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3)])
_ORACLE_FIELDS = st.sampled_from([QQ, GF(2), GF(7), GF(101), QQI])


@st.composite
def _scalar(draw, field):
    """A scalar string of the grammar: unreduced fractions, signs, zeros, spaces."""
    space = st.sampled_from(["", "", " ", "  "])

    def rational(signed):
        text = draw(st.sampled_from(["", "", "-", "+", "- "])) if signed else ""
        text += str(draw(st.sampled_from([0, 0, 1, 2]) | st.integers(0, 300)))
        if draw(st.booleans()):
            text += draw(space) + "/" + draw(space) + str(draw(st.integers(1, 210)))
        return text

    text = rational(True)
    if field == QQI:
        form = draw(st.sampled_from(["real", "imaginary", "both"]))
        if form == "imaginary":
            text += draw(space) + "i"
        elif form == "both":
            text += (draw(space) + draw(st.sampled_from("+-")) + draw(space) + rational(False)
                     + draw(space) + "i")
    return draw(space) + text + draw(space)


@st.composite
def _oracle_document(draw):
    field, dims = draw(_ORACLE_FIELDS), draw(_ORACLE_DIMS)
    shape = Shape(dims)
    if draw(st.booleans()):
        entries = [draw(_scalar(field)) for _ in range(shape.size)]
    else:
        offsets = draw(st.sets(st.integers(0, shape.size - 1)))
        index = list(shape.indices())
        entries = [{"index": list(index[o]), "value": draw(_scalar(field))} for o in offsets]
    return {"field": field.descriptor, "dims": list(dims), "entries": entries}


def _element_route(doc) -> Tensor:
    """The reference: `parse` on each scalar, then `Tensor` on the values."""
    field, shape = field_from_descriptor(doc["field"]), Shape(doc["dims"])
    values = [zero(field)] * shape.size
    for pos, entry in enumerate(doc["entries"]):
        if isinstance(entry, str):
            values[pos] = parse(field, entry)
        else:
            values[shape.offset(entry["index"])] = parse(field, entry["value"])
    return Tensor(field, shape, values)


@settings(max_examples=300, deadline=None)
@given(_oracle_document())
def test_direct_parse_matches_the_element_route(doc):
    try:
        want = _element_route(doc)
    except ValueError:
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))
        return
    got = parse_document(json.dumps(doc))
    assert got == want
    assert got.coeffs == want.coeffs
    for sparse in (False, True):
        assert emit_document(got, sparse=sparse) == emit_document(want, sparse=sparse)
    assert signature(got) == signature(want)


# strings that stress the encoder: quotes, backslashes, control and
# non-ASCII characters, one past the BMP, and lone surrogates
_hard_text = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "a", "\u00e9",
                                      "\u2028", "\U0001f600", "\ud800", "\udfff"]))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**300, 2**300) | st.text()
    | _hard_text,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | _hard_text, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_json_values)
def test_indented_json_is_the_text_of_json_dumps(value):
    assert indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, [float("nan")], {"a": {1, 2}}, [b"x"], {1: "a"},
                                   {"a": [{(1, 2): 3}]}])
def test_indented_json_refuses_what_it_does_not_cover(value):
    with pytest.raises(TypeError):
        indented_json(value)


_GHZ = {"field": "rational", "dims": [2, 2, 2], "entries": ["1", "0", "0", "0", "0", "0", "0", "1"]}


@pytest.mark.parametrize("argv,doc", [
    (["classify", "-", "--format", "json"], _GHZ),
    (["classify", "-"], GAP_DOC),
    (["table", "--family", "23d", "--d", "3", "--format", "json"], None),
    (["verify", "--suite", "exhaustive-222", "--format", "json"], None),
    (["explain3", "-", "--format", "json"], _GHZ),
], ids=["classify", "gap", "table", "verify", "explain3"])
def test_every_cli_payload_is_printed_as_json_dumps_prints_it(argv, doc, monkeypatch, capsys):
    payloads = []
    monkeypatch.setattr(cli, "indented_json",
                        lambda value: payloads.append(value) or indented_json(value))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    main(argv)
    [payload] = payloads
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_emit_document_is_the_text_of_json_dumps(sparse):
    v = random_tensor(Shape((2, 3, 4)), 3, seed=5, field=QQI).scale(parse(QQI, "1/3-2/7i"))
    want = json.dumps(document_dict(v, sparse=sparse), indent=2) + "\n"
    assert emit_document(v, sparse=sparse) == want
