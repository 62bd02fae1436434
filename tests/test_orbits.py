"""Exact local orbits over GF(2) and GF(3) against the signature and the tables.

`oracle_orbits` splits every state of a small shape into its orbits
under GL_d1 x GL_d2 x GL_d3, with no signature and no table.  On that
partition the signature must be constant on each orbit, and each label
must be a union of whole orbits.  A label may hold more than one orbit
only where a class splits over a finite field: the pencil's eigenvalues
lie in GF(q) or only in an extension of it (C6 and C16).  The strict
xfails stand for the open ROADMAP items that the orbits expose.
"""

import functools
from collections import defaultdict

import pytest

from entinv.fields import GF
from entinv.invariants import signature
from entinv.tables import ClassificationGapError, classify, representative, table_for
from entinv.tensors import Shape, Tensor
from oracle_orbits import coefficients, orbits

# (dims, q) -> number of orbits
ORBIT_COUNTS = {
    ((2, 2, 2), 2): 8,
    ((2, 2, 3), 2): 10,
    ((2, 3, 2), 2): 10,
    ((2, 3, 3), 2): 21,
    ((2, 2, 2), 3): 8,
}
CASES = sorted(ORBIT_COUNTS)
SMALL = [case for case in CASES if case != ((2, 3, 3), 2)]

# labels that hold several orbits although each is one class over the
# algebraic closure, with their number of orbits
SPLITS = {case: {"C6": 2} for case in CASES}
SPLITS[(2, 3, 3), 2] = {"C6": 2, "C16": 3}
# labels that hold several orbits because the tables are wrong: C12 takes
# two (ROADMAP item 1), and C14 takes C15's (item 9)
WRONG = {"C12", "C14"}


def _id(case):
    dims, q = case
    return f"{dims}-gf({q})"


def _state(dims, q, coeffs) -> Tensor:
    return Tensor.of_image(GF(q), Shape(dims), coeffs)


def _label(v):
    try:
        return classify(v)
    except ClassificationGapError:
        return None


@functools.cache
def _orbits(dims, q):
    return orbits(dims, q)


@functools.cache
def _labels(dims, q) -> dict:
    """Label (None for a gap) -> the sizes of its orbits, in orbit order."""
    labels = defaultdict(list)
    for size, smallest in _orbits(dims, q)[1]:
        labels[_label(_state(dims, q, smallest))].append(size)
    return dict(labels)


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_orbit_count(case):
    dims, q = case
    found = _orbits(*case)[1]
    assert len(found) == ORBIT_COUNTS[case]
    assert sum(size for size, _ in found) == q ** (dims[0] * dims[1] * dims[2])


@pytest.mark.parametrize("case", SMALL, ids=_id)
def test_every_state_has_its_orbits_signature(case):
    dims, q = case
    orbit, found = _orbits(*case)
    n = len(found[0][1])
    expected = [signature(_state(dims, q, smallest)) for _, smallest in found]
    for s, k in enumerate(orbit):
        assert signature(_state(dims, q, coefficients(s, n, q))) == expected[k], s


def test_largest_state_has_its_orbits_signature_at_233():
    # 2^18 states are too many to sign; the largest of each orbit stands in
    dims, q = (2, 3, 3), 2
    orbit, found = _orbits(dims, q)
    largest = {k: s for s, k in enumerate(orbit)}
    for k, (_, smallest) in enumerate(found):
        state = _state(dims, q, coefficients(largest[k], len(smallest), q))
        assert signature(state) == signature(_state(dims, q, smallest)), k


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_labels_split_orbits_only_where_the_field_splits_a_class(case):
    split = {label: len(sizes) for label, sizes in _labels(*case).items() if len(sizes) > 1}
    assert {label: k for label, k in split.items() if label not in WRONG} == SPLITS[case]


def test_gf3_222_labels():
    assert _labels((2, 2, 2), 3) == {
        "C0": [1], "C1": [128], "C2": [192], "C3": [192], "C4": [192], "C5": [1536],
        "C6": [3456, 864],
    }


def test_what_the_tables_get_wrong_today():
    # the W orbit is a gap over GF(2); at (2,3,3) C12 holds two orbits and
    # C14 holds its own and C15's
    gaps = {case: _labels(*case).get(None) for case in CASES}
    assert gaps == {
        ((2, 2, 2), 2): [54], ((2, 2, 3), 2): [378], ((2, 3, 2), 2): [378],
        ((2, 3, 3), 2): [2646], ((2, 2, 2), 3): None,
    }
    labels = _labels((2, 3, 3), 2)
    assert (labels["C12"], labels["C14"]) == ([10584, 7056], [21168, 84672])
    assert "C15" not in labels


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        case[1] == 2, strict=True, raises=AssertionError,
        reason="the W orbit is a gap over GF(2) (ROADMAP item 9)"))
    for case in CASES
], ids=_id)
def test_every_orbit_has_a_label(case):
    assert None not in _labels(*case)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="C12 holds two orbits (ROADMAP item 1)")
def test_c12_holds_one_orbit():
    assert len(_labels((2, 3, 3), 2)["C12"]) == 1


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(
        case == ((2, 3, 3), 2), strict=True, raises=AssertionError,
        reason="C14 takes the orbit of C15's representative (ROADMAP item 9)"))
    for case in CASES
], ids=_id)
def test_no_label_takes_another_entrys_orbit(case):
    # the orbit of each representative is labelled with its entry's label or
    # is a gap; test_every_orbit_has_a_label covers the gaps
    dims, q = case
    orbit, found = _orbits(*case)
    shape = Shape(dims)
    taken = {}
    for entry in table_for(shape).entries:
        coeffs = [c.value for c in representative(entry.label, shape, field=GF(q)).coeffs]
        code = sum(c * q ** (len(coeffs) - 1 - t) for t, c in enumerate(coeffs))
        label = _label(_state(dims, q, found[orbit[code]][1]))
        if label not in (entry.label, None):
            taken[entry.label] = label
    assert taken == {}
