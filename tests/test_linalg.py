import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entinv.fields import GF, QQ, QQI, FieldMismatchError, GaussianRational
from entinv.linalg import (
    ExactMatrix,
    InternalConsistencyError,
    _step_z,
    _step_zi,
    eliminate,
    from_image,
    to_image,
)
from entinv.tensors import Shape, ShapeError, Tensor, apply_local, flatten, from_terms
from elements import DENOMINATOR_FIELDS, denominator_values, from_rows, rows_of, zero
from oracle_linalg import det, ring, rref, rref_of

FIELDS = [QQ, GF(7), QQI]
I = GaussianRational(0, 1)


def _random_entry(field, rng, bound=5):
    # over Q(i), a nonzero draw has a nonzero imaginary part and denominators
    n = rng.randint(-bound, bound)
    if field != QQI or n == 0:
        return field.coerce(n)
    im = rng.choice((-1, 1)) * rng.randint(1, bound)
    return GaussianRational(Fraction(n, rng.randint(1, 4)), Fraction(im, rng.randint(1, 4)))


def _value(field, x):
    """The package scalar of an oracle element."""
    return GaussianRational(*x) if field == QQI else field.coerce(x)


def _random_matrix(field, rows, cols, rng, bound=5):
    return ExactMatrix(
        field, rows, cols, [_random_entry(field, rng, bound) for _ in range(rows * cols)]
    )


def _random_low_rank(field, rows, cols, r, rng):
    # r terms [j,j] in invertible bases flatten to a matrix of rank exactly r;
    # invertibility is judged by the rref oracle, not by the rank under test
    bases = []
    for d in (rows, cols):
        b = _random_matrix(field, d, d, rng, bound=3)
        while len(rref_of(b)[1]) != d:
            b = _random_matrix(field, d, d, rng, bound=3)
        bases.append(b)
    terms = [(j, j) for j in range(1, r + 1)]
    v = apply_local(from_terms(Shape((rows, cols)), terms, field=field), bases)
    return flatten(v, (1,))


_SCALARS = {
    QQ: st.fractions(-5, 5, max_denominator=6),
    GF(7): st.integers(0, 6).map(GF(7).coerce),
    QQI: st.builds(
        GaussianRational,
        st.fractions(-3, 3, max_denominator=4),
        st.fractions(-3, 3, max_denominator=4),
    ) | st.just(I),
}


@st.composite
def _matrices(draw, field):
    """Matrices with 1 to 5 rows and columns, plus rows that are multiples
    of others (over Q(i) also i times another row), so that pivots skip."""
    scalars, R = _SCALARS[field], ring(field)
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(rows) - 1))
        c = R.lift(draw(scalars))
        rows.insert(draw(st.integers(0, len(rows))),
                    [_value(field, R.mul(c, R.lift(x))) for x in rows[j]])
    return ExactMatrix(field, len(rows), cols, [x for row in rows for x in row])


@st.composite
def _sparse_matrices(draw, field):
    """Matrices from 1 x 1 to 8 x 8 with at most a third of the entries
    nonzero, so that most steps scale a row with a 0 in the pivot column,
    and such rows become pivot rows."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entries = [zero(field)] * (rows * cols)
    at = st.integers(0, rows * cols - 1)
    for k, x in draw(st.dictionaries(at, _SCALARS[field], max_size=rows * cols // 3)).items():
        entries[k] = x
    return ExactMatrix(field, rows, cols, entries)


def _image_rows(field, rows):
    """The `to_image` of each row, without its denominator."""
    return [to_image(field, row)[0] for row in rows]


def _entries(field, row):
    """The field elements of an `_image_rows` row: over Q(i), two integers each."""
    if field == QQI:
        return [GaussianRational(a, b) for a, b in zip(row[::2], row[1::2])]
    return [field.coerce(x) for x in row]


def _zeros(field, rows, cols):
    return ExactMatrix(field, rows, cols, [0] * (rows * cols))


def _identity(field, n):
    return from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])


class TestRref:
    def test_identity(self):
        m = _identity(QQ, 2)
        reduced, pivots = rref_of(m)
        assert reduced == ring(QQ).rows(m)
        assert pivots == [0, 1]

    def test_zero_matrix(self):
        m = _zeros(QQ, 3, 4)
        reduced, pivots = rref_of(m)
        assert reduced == ring(QQ).rows(m)
        assert pivots == []

    def test_single_elimination_step(self):
        # hand row reduction: R2 <- R2 - 2 R1 kills the second row
        m = from_rows(QQ, [[1, 2], [2, 4]])
        reduced, pivots = rref_of(m)
        assert reduced == ring(QQ).rows([[1, 2], [0, 0]])
        assert pivots == [0]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    def test_idempotent(self, field):
        rng = random.Random(11)
        for _ in range(40):
            m = _random_matrix(field, rng.randint(1, 6), rng.randint(1, 6), rng)
            reduced, pivots = rref_of(m)
            again, pivots2 = rref(ring(field), reduced)
            assert again == reduced
            assert pivots2 == pivots

    def test_pivot_entries_are_clean(self):
        rng = random.Random(5)
        m = _random_matrix(QQ, 5, 7, rng)
        reduced, pivots = rref_of(m)
        for r, p in enumerate(pivots):
            col = [reduced[i][p] for i in range(len(reduced))]
            assert col[r] == ring(QQ).one
            assert all(x == ring(QQ).zero for i, x in enumerate(col) if i != r)

    def test_mixed_field_entries_rejected(self):
        with pytest.raises(FieldMismatchError):
            ExactMatrix(QQ, 1, 2, [Fraction(1), GF(5).coerce(1)])
        with pytest.raises(FieldMismatchError):
            ExactMatrix(GF(5), 1, 1, [Fraction(1, 2)])

    @pytest.mark.parametrize("rows,cols,values,message", [
        (-1, 2, [], "factor dimensions must be >= 1: (-1, 2)"),
        (1, -1, [], "factor dimensions must be >= 1: (1, -1)"),
        (0, 3, [], "factor dimensions must be >= 1: (0, 3)"),
        (2, 2, [1, 0, 0], "expected 4 coefficients for shape (2, 2), got 3"),
        (1, 1, [1, 0], "expected 1 coefficients for shape (1, 1), got 2"),
    ])
    def test_malformed_dimensions_rejected(self, rows, cols, values, message):
        # a matrix is a two-factor tensor: its Shape and Tensor checks apply
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            ExactMatrix(QQ, rows, cols, values)


class TestPivots:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    @pytest.mark.parametrize("jordan", [False, True])
    def test_empty_image_has_no_pivots(self, field, jordan):
        # no ExactMatrix is empty, but the zero state's signature ranks
        # both: its k1 system has rows of 0 columns, its k2 system no rows
        assert eliminate(field, [], 3, jordan) == []
        assert eliminate(field, [[], []], 0, jordan) == []
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    @given(data=st.data())
    def test_integer_elimination_matchesrref_of(self, field, data):
        m = data.draw(_matrices(field))
        pivots = rref_of(m)[1]
        assert eliminate(m.field, m.image_rows(), m.cols) == pivots
        assert m.rank() == len(pivots)

    @pytest.mark.parametrize("field", [QQ, QQI], ids=lambda f: f.descriptor)
    @settings(deadline=None)
    @given(data=st.data())
    def test_sparse_elimination_matchesrref_of(self, field, data):
        m = data.draw(_sparse_matrices(field))
        assert eliminate(m.field, m.image_rows(), m.cols) == rref_of(m)[1]

    # Each matrix has rows with a 0 in the pivot column, which a step only
    # scales by p / prev, and each pivot must be the leading Bareiss minor:
    # - row 1 has a 0 at step 0 and becomes the pivot row at step 1, where
    #   prev = 2;
    # - the same with other entries;
    # - row 2 has a 0 at step 0 and is written at step 1, dividing by 2;
    # - row 3 has a 0 at step 0 and is swapped into the pivot row at step 1;
    # - column 1 holds no pivot, row 2 is twice row 0 and vanishes, and row 1
    #   is the pivot row at column 2.
    # Over GF(101) no minor of these vanishes, so each takes the same steps.
    @pytest.mark.parametrize("field", [QQ, GF(101)], ids=lambda f: f.descriptor)
    @pytest.mark.parametrize("rows,pivots", [
        ([[2, 1, 0], [0, 3, 1], [4, 5, 7]], [0, 1, 2]),
        ([[2, 1, 0], [0, 1, 1], [1, 0, 0]], [0, 1, 2]),
        ([[2, 0, 1], [1, 1, 0], [0, 1, 0]], [0, 1, 2]),
        ([[2, 0, 1, 0], [1, 0, 0, 0], [1, 0, 1, 1], [0, 1, 0, 0]], [0, 1, 2, 3]),
        ([[2, 0, 2, 1], [0, 0, 1, 1], [4, 0, 4, 2]], [0, 2]),
    ])
    def test_skipped_rows_keep_bareiss_pivots(self, field, rows, pivots):
        m = from_rows(field, rows)
        assert eliminate(m.field, m.image_rows(), m.cols) == rref_of(m)[1] == pivots
        # each pivot is the minor on the rows chosen so far, in their order,
        # and the pivot columns (mod p over GF(p)): a row scaled by the wrong
        # factor shows here
        work = [list(row) for row in rows]
        start = {id(row): i for i, row in enumerate(work)}
        assert eliminate(field, work, len(rows[0])) == pivots
        # rows are swapped as list objects, so each still names its input row
        chosen = [rows[start[id(row)]] for row in work]
        for k, c in enumerate(pivots):
            minor = [[row[j] for j in pivots[: k + 1]] for row in chosen[: k + 1]]
            assert work[k][c] == det(ring(field), ring(field).rows(minor))

    # the matrices above with complex entries and the same zeros, so each
    # takes the same steps over Z[i]; every pivot other than the last is
    # not 1, so a row scaled or divided by a wrong factor shows in a pivot
    @pytest.mark.parametrize("rows,pivots", [
        ([[1 + 1j, 1, 0], [0, 3j, 1], [4, 5, 7j]], [0, 1, 2]),
        ([[1 + 1j, 1, 0], [0, 1, 1j], [1, 0, 0]], [0, 1, 2]),
        ([[1 + 1j, 0, 1], [1, 1, 0], [0, 1j, 0]], [0, 1, 2]),
        ([[2j, 0, 1, 0], [1, 0, 0, 0], [1, 0, 1, 1], [0, 1 + 1j, 0, 0]], [0, 1, 2, 3]),
        ([[1 + 1j, 0, 2, 1], [0, 0, 1j, 1], [2j, 0, 2 + 2j, 1 + 1j]], [0, 2]),
    ])
    def test_skipped_rows_keep_gaussian_bareiss_pivots(self, rows, pivots):
        rows = [[GaussianRational(int(z.real), int(z.imag)) for z in map(complex, row)]
                for row in rows]
        m = from_rows(QQI, rows)
        assert eliminate(m.field, m.image_rows(), m.cols) == rref_of(m)[1] == pivots
        # each pivot is the Gaussian minor on the rows chosen so far
        work = _image_rows(QQI, rows)
        start = {id(row): i for i, row in enumerate(work)}
        assert eliminate(QQI, work, len(rows[0])) == pivots
        chosen = [rows[start[id(row)]] for row in work]
        for k, c in enumerate(pivots):
            minor = [[row[j] for j in pivots[: k + 1]] for row in chosen[: k + 1]]
            assert (work[k][2 * c], work[k][2 * c + 1]) == det(ring(QQI), ring(QQI).rows(minor))

    def test_scaling_by_a_non_divisor_is_a_fault(self):
        # each kernel divides by d a row with f != 0 (a step) and one with
        # f = 0 (a scaling), above the pivot or below it; the pivot row's
        # entries right of the pivot are 0, so a row's entry x becomes p x / d
        for f in (0, 1):
            row = [f, 4]
            assert _step_z([1, 0], [], [row], 0, 2) == 1 and row == [0, 2]
            for above, below in (([[f, 3]], []), ([], [[f, 3]])):
                with pytest.raises(InternalConsistencyError, match="inexact division"):
                    _step_z([1, 0], above, below, 0, 2)
            # (1 + 3i) / (1 + i) = 2 + i, but (1 + 2i) / 2 and (2 + i) / 2 are
            # not in Z[i]: one has a real remainder, the other an imaginary one
            row = [f, 0, 1, 3]
            assert _step_zi([1, 0, 0, 0], [row], [], 0, (1, 1)) == (1, 0) and row == [0, 0, 2, 1]
            for x in ([f, 0, 1, 2], [f, 0, 2, 1]):
                for above, below in (([list(x)], []), ([], [list(x)])):
                    with pytest.raises(InternalConsistencyError, match="inexact division"):
                        _step_zi([1, 0, 0, 0], above, below, 0, (2, 0))

    def test_rows_dependent_only_through_i(self):
        # each row pair (u, i u) is independent over Q but not over Q(i)
        rng, R = random.Random(3), ring(QQI)
        for _ in range(40):
            m = _random_matrix(QQI, rng.randint(1, 4), rng.randint(1, 6), rng)
            rows = [row for u in rows_of(m)
                    for row in (u, [_value(QQI, R.mul(R.lift(I), R.lift(x))) for x in u])]
            doubled = from_rows(QQI, rows)
            pivots = eliminate(m.field, m.image_rows(), m.cols)
            assert eliminate(QQI, doubled.image_rows(), doubled.cols) == pivots == rref_of(m)[1]
            assert doubled.rank() == len(rref_of(doubled)[1])

    def test_gaussian_columns_pivot_in_their_own_place(self):
        # column 1 is i times column 0, so column 2 is the second pivot
        m = from_rows(QQI, [[1, I, 0], [I, -1, 1]])
        assert eliminate(m.field, m.image_rows(), m.cols) == rref_of(m)[1] == [0, 2]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    @settings(deadline=None)
    @given(data=st.data())
    def test_jordan_form_is_d_timesrref_of(self, field, data):
        # over Q(i), D is a Gaussian integer
        m = data.draw(st.one_of(_matrices(field), _sparse_matrices(field)))
        R = ring(field)
        reduced, pivots = rref_of(m)
        image = _image_rows(field, rows_of(m))
        assert eliminate(field, image, m.cols, jordan=True) == pivots
        d = R.lift(_entries(field, image[0])[pivots[0]]) if pivots else R.one
        for i in range(m.rows):
            assert [R.div(R.lift(x), d) for x in _entries(field, image[i])] == reduced[i]


class TestImage:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    def test_round_trip(self, field):
        rng = random.Random(41)
        for n in range(6):
            values = [_random_entry(field, rng) for _ in range(n)]
            image, den = to_image(field, values)
            assert from_image(field, image, den) == values
            assert len(image) == (2 if field == QQI else 1) * n

    def test_values_are_the_image_over_its_denominator(self):
        assert to_image(QQ, [Fraction(1, 2), Fraction(-2, 3), 0]) == ([3, -4, 0], 6)
        assert from_image(QQ, [3, -4, 0], -6) == [Fraction(-1, 2), Fraction(2, 3), 0]
        assert to_image(GF(7), [GF(7).coerce(9)]) == ([2], 1)
        # 2 * 4 = 8 = 1 mod 7, and the residues are reduced
        assert from_image(GF(7), [1, 3, -9], 2) == [GF(7).coerce(x) for x in (4, 5, 6)]
        z = [GaussianRational(Fraction(1, 2), -1), GaussianRational(0, Fraction(1, 3))]
        assert to_image(QQI, z) == ([3, -6, 0, 2], 6)
        assert from_image(QQI, [3, -6, 0, 2], 6) == z

    @pytest.mark.parametrize("field", DENOMINATOR_FIELDS, ids=lambda f: f.descriptor)
    def test_values_and_image_give_one_matrix(self, field):
        values = denominator_values(field, 12)
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


class TestRank:
    def test_zero_and_identity(self):
        assert _zeros(QQ, 3, 5).rank() == 0
        assert _identity(QQ, 4).rank() == 4
        assert _identity(GF(3), 4).rank() == 4

    def test_epr_flattening_is_full_rank(self):
        assert from_rows(QQ, [[1, 0], [0, 1]]).rank() == 2

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    def test_rank_equals_transpose_rank(self, field):
        rng = random.Random(23)
        for _ in range(200):
            m = _random_matrix(field, rng.randint(1, 8), rng.randint(1, 8), rng)
            # the complementary flattening of the same entries is the transpose
            t = flatten(Tensor(field, Shape((m.rows, m.cols)), m.entries), (2,))
            assert m.rank() == t.rank()

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    def test_rank_matches_rref_pivot_count(self, field):
        # the integer/modular fast paths must agree with plain elimination
        rng = random.Random(37)
        for _ in range(150):
            m = _random_matrix(field, rng.randint(1, 7), rng.randint(1, 7), rng)
            assert m.rank() == len(rref_of(m)[1])
        for _ in range(60):
            rows, cols = rng.randint(2, 7), rng.randint(2, 7)
            r = rng.randint(0, min(rows, cols))
            m = _random_low_rank(field, rows, cols, r, rng)
            assert m.rank() == len(rref_of(m)[1])
            assert m.rank() == r

    def test_rank_with_rational_denominators(self):
        # second row is 3 times the first: rank 1 despite messy denominators
        m = from_rows(
            QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        )
        assert m.rank() == 1
        full = from_rows(
            QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 1)]]
        )
        assert full.rank() == 2
        assert full.rank() == len(rref_of(full)[1])

    def test_rank_duplicate_and_zero_rows(self):
        m = from_rows(QQ, [[1, 2, 3], [0, 0, 0], [1, 2, 3], [2, 4, 6]])
        assert m.rank() == 1


def test_gaussian_rational_matrix_rank():
    i = GaussianRational(0, 1)
    one, minus_one = GaussianRational(1, 0), GaussianRational(-1, 0)
    m = from_rows(QQI, [[one, i], [i, minus_one]])  # second row = i * first
    assert m.rank() == 1
