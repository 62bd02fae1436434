"""Matrices built from a tensor's image against the element route.

`flatten`, `triple_constraint_matrix`, `general_form_decomposition` and
`apply_local` read the integer image a tensor or a map holds, and
`random_invertible` draws one.  Here each
is compared with the matrix or the state built from field values, entry
by entry, with the arithmetic of `oracle_linalg`, on states whose
entries carry denominators (1/2, 2/3 and 1/5 i) over Q, GF(101) and Q(i).
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from elements import from_rows, zero
from entinv.fields import GF, QQ, QQI, GaussianRational
from entinv.invariants import KERNELS, general_form_decomposition, triple_constraint_matrix
from entinv.linalg import ExactMatrix, from_image, to_image
from entinv.tensors import Shape, ShapeError, Tensor, apply_local, flatten, random_invertible
from oracle_linalg import local_action, ring, rref

FIELDS = [QQ, GF(101), QQI]
IDS = [f.descriptor for f in FIELDS]
FLATTENINGS = {2: KERNELS[:2], 3: KERNELS}
HALF, TWO_THIRDS = Fraction(1, 2), Fraction(2, 3)


def _scalar(field, x):
    """The value of a Fraction or a Gaussian rational in `field`."""
    if field == GF(101):
        x = Fraction(x)
        return field.coerce(x.numerator * pow(x.denominator, -1, 101))
    return field.coerce(x)


def _values(field, count, offset=0):
    """`count` values cycling through 1/2, 2/3, -1, 0, 3 and 1/5 i over Q(i),
    or -5/4 elsewhere."""
    last = GaussianRational(Fraction(0), Fraction(1, 5)) if field == QQI else Fraction(-5, 4)
    cycle = [HALF, TWO_THIRDS, -1, 0, 3, last]
    return [_scalar(field, cycle[(7 * k + offset) % len(cycle)]) for k in range(count)]


def _upper(field, d, offset):
    """An invertible d x d map: 1/2 and 2/3 down the diagonal, `_values` above it."""
    above, diagonal = _values(field, d * d, offset), _values(field, 2)
    return from_rows(field, [[above[d * r + c] if c > r else diagonal[r % 2] if c == r else 0
                              for c in range(d)] for r in range(d)])


def _states(field):
    return [Tensor(field, Shape(dims), _values(field, Shape(dims).size, seed))
            for dims in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)] for seed in range(3)]


def _element_flattening(v, factors):
    """The flattening of `v` with the row factors `factors` as field values,
    read index by index."""
    dims = v.shape.dims
    others = tuple(f for f in range(1, len(dims) + 1) if f not in factors)
    row_side, col_side = (list(product(*(range(dims[f - 1]) for f in side)))
                          for side in (factors, others))
    rows = []
    for row_index in row_side:
        row = []
        for col_index in col_side:
            index = [0] * len(dims)
            for f, i in zip(factors + others, row_index + col_index):
                index[f - 1] = i
            row.append(v.coeffs[v.shape.offset(index)])
        rows.append(row)
    return rows


def _element_triple(v):
    """The three blocks of the k123 system as rows of field values."""
    d1, d2, d3 = v.shape.dims
    indices = list(v.shape.indices())
    rows = []
    # block by block, the identity on factor 3, 2 and 1: row (m, l) puts
    # v at index m of that factor on the unknown with index l there
    for axis, d in ((2, d3), (1, d2), (0, d1)):
        for m, l in product(range(d), repeat=2):
            row = [zero(v.field)] * len(indices)
            for k, index in enumerate(indices):
                if index[axis] == l:
                    source = index[:axis] + (m,) + index[axis + 1:]
                    row[k] = v.coeffs[v.shape.offset(source)]
            rows.append(row)
    return rows


def test_states_carry_denominators():
    for field in (QQ, QQI):
        assert all(v.den > 1 for v in _states(field))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_flatten_matches_element_route(field):
    for v in _states(field):
        for factors in FLATTENINGS[v.n]:
            m = flatten(v, factors)
            rows = _element_flattening(v, factors)
            assert m == from_rows(field, rows)
            assert m.entries == [x for row in rows for x in row]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_triple_constraint_matrix_matches_element_route(field):
    for v in _states(field):
        if v.n == 3:
            m = triple_constraint_matrix(v)
            assert m == from_rows(field, _element_triple(v))
            assert m.rank() == len(rref(ring(field), ring(field).rows(_element_triple(v)))[1])


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_decomposition_matches_element_route(field):
    R = ring(field)
    for v in _states(field):
        for factors in FLATTENINGS[v.n]:
            rows = R.rows(_element_flattening(v, factors))
            reduced, pivots = rref(R, rows)
            pairs = general_form_decomposition(v, factors)
            assert R.rows([w for w, _ in pairs]) == [[row[p] for row in rows] for p in pivots]
            assert R.rows([wp for _, wp in pairs]) == reduced[: len(pivots)]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_apply_local_with_denominators_matches_element_route(field):
    R = ring(field)
    for n, v in enumerate(_states(field)):
        maps = [_upper(field, d, n + axis) for axis, d in enumerate(v.shape.dims)]
        if field != GF(101):
            assert all(a.den > 1 for a in maps)
        want = local_action(R, v.shape.dims, [R.lift(c) for c in v.coeffs],
                            [R.rows(a) for a in maps])
        assert [R.lift(c) for c in apply_local(v, maps).coeffs] == want


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_values_and_image_give_one_matrix(field):
    values = _values(field, 12)
    image, den = to_image(field, values)
    m = ExactMatrix(field, 3, 4, values)
    assert m == ExactMatrix.of_image(field, 3, 4, image, den)
    # an image not in lowest terms, over GF(p) one over a denominator too
    assert m == ExactMatrix.of_image(field, 3, 4, [6 * x for x in image], 6 * den)
    assert m.entries == values
    assert [m[i, j] for i in range(3) for j in range(4)] == values
    assert ExactMatrix.of_image(field, 4, 3, image, den) != m
    for key in [(0, 4), (3, 0), (-1, 3), (0, -1)]:
        with pytest.raises(ShapeError, match="out of range"):
            m[key]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_random_invertible_matches_value_route(field):
    # the same draws, turned into field values and imaged again
    for d, seed in product((1, 2, 3, 5), range(6)):
        rng = random.Random(f"invertible|{d}|2|{seed}")
        while True:
            draws = [rng.randint(-2, 2) for _ in range(field.width * d * d)]
            want = ExactMatrix(field, d, d, from_image(field, draws, 1))
            if want.rank() == d:
                break
        assert random_invertible(d, 2, seed, field) == want
