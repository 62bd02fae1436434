import json
import random
from fractions import Fraction
from itertools import product

import pytest

from entinv.documents import parse_document
from entinv.fields import GF, QQ, QQI, GaussianRational, PrimeField
from entinv.invariants import KERNELS, general_form_decomposition, kernel_dim
from entinv.linalg import ExactMatrix, from_image
from entinv.tables import representative
from entinv.tensors import (
    BasisError,
    Shape,
    ShapeError,
    Tensor,
    apply_local,
    flatten,
    from_terms,
    random_invertible,
    random_tensor,
)
from elements import DENOMINATOR_FIELDS, denominator_states, from_rows, parse, upper_map, zero
from oracle_linalg import local_action, ring, rref_of

FIELDS = [QQ, GF(7), QQI]
GHZ_TERMS = [(1, 1, 1), (2, 2, 2)]

# the row factors of every proper bipartition, singles first, each
# complement its mirror
FLATTENINGS = {2: KERNELS[:2], 3: KERNELS}


def _identity(field, n):
    return from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])


class TestShape:
    def test_offsets_are_row_major(self):
        s = Shape((2, 3, 4))
        assert s.offset((0, 0, 0)) == 0
        assert s.offset((0, 0, 1)) == 1  # last index fastest
        assert s.offset((0, 1, 0)) == 4
        assert s.offset((1, 0, 0)) == 12
        assert list(s.indices())[1] == (0, 0, 1)

    def test_repr(self):
        assert repr(Shape((2, 3))) == "Shape(2, 3)"

    def test_offsets_run_over_the_given_axes(self):
        s = Shape((2, 3, 4))
        assert s.offsets([]) == [0]
        assert s.offsets([1]) == [0, 4, 8]
        assert s.offsets([2, 0]) == [0, 12, 1, 13, 2, 14, 3, 15]
        assert s.offsets([0, 1, 2]) == list(range(24))

    # a dimension is an int, not a bool or a float that int() would truncate
    @pytest.mark.parametrize("dims", [(2,), (2, 2, 2, 2), (0, 2), (2, -1),
                                      (2.9, True), (2, True), (2.0, 2), ("2", 2)])
    def test_rejects_bad_dims(self, dims):
        with pytest.raises(ShapeError):
            Shape(dims)

    # the state [1,1,2]: an index of the wrong length or with a non-int entry
    # is refused, not read as some other coefficient
    @pytest.mark.parametrize("index", [(0,), (0, 0), (0, 0, 1, 1), (0, 0, 1.0), (0, True, 1),
                                       ("0", 0, 1)])
    def test_offset_rejects_a_malformed_index(self, index):
        v = from_terms(Shape((2, 2, 2)), [(1, 1, 2)])
        assert v[(0, 0, 1)] == QQ.coerce(1)
        with pytest.raises(ShapeError, match=r"is not 3 ints for \(2, 2, 2\)$"):
            v.shape.offset(index)
        with pytest.raises(ShapeError):
            v[index]

    @pytest.mark.parametrize("count", [3, 5])
    def test_tensor_refuses_the_wrong_coefficient_count(self, count):
        with pytest.raises(ShapeError,
                           match=f"^expected 4 coefficients for shape \\(2, 2\\), got {count}$"):
            Tensor(QQ, Shape((2, 2)), [0] * count)


class TestFlatten:
    def test_epr_is_identity(self):
        epr = from_terms(Shape((2, 2)), [(1, 1), (2, 2)])
        assert flatten(epr, (1,)) == _identity(QQ, 2)

    def test_ghz_single_factor(self):
        ghz = from_terms(Shape((2, 2, 2)), GHZ_TERMS)
        m = flatten(ghz, (1,))
        assert m == from_rows(QQ, [[1, 0, 0, 0], [0, 0, 0, 1]])

    def test_complement_is_transpose(self):
        for dims in [(2, 2), (3, 4), (2, 2, 2), (2, 3, 4)]:
            shape = Shape(dims)
            for i in range(5):
                v = random_tensor(shape, 4, seed=i)
                for rows, cols in zip(FLATTENINGS[shape.n], FLATTENINGS[shape.n][::-1]):
                    m, t = flatten(v, rows), flatten(v, cols)
                    assert (t.rows, t.cols) == (m.cols, m.rows)
                    for r in range(m.rows):
                        for c in range(m.cols):
                            assert m[r, c] == t[c, r]

    @pytest.mark.parametrize("field", DENOMINATOR_FIELDS, ids=lambda f: f.descriptor)
    @pytest.mark.parametrize("dims", [(2, 2), (4, 3), (2, 3), (3, 3), (2, 2, 2), (2, 3, 4), (3, 2, 5)])
    def test_entries_are_coefficients_at_the_merged_index(self, dims, field):
        # each side's indices enumerated row-major, and v read through the
        # validated Shape.offset, not through Shape.offsets; the matrix of
        # those values is the flattening, image and denominator alike
        carried = [v for v in denominator_states(field) if v.shape.dims == dims]
        assert isinstance(field, PrimeField) or all(v.den > 1 for v in carried)
        for v in [random_tensor(Shape(dims), 9, seed=1, field=field)] + carried:
            for rows in FLATTENINGS[v.n]:
                m = flatten(v, rows)
                cols = tuple(f for f in range(1, v.n + 1) if f not in rows)
                row_side, col_side = (
                    list(product(*(range(dims[f - 1]) for f in factors)))
                    for factors in (rows, cols)
                )
                # the merged index, its entries sorted back into factor order
                want = [[v[[i for _, i in sorted(zip(rows + cols, row_index + col_index))]]
                         for col_index in col_side] for row_index in row_side]
                assert m == from_rows(field, want)
                assert m.entries == [x for row in want for x in row]
                assert [[m[r, c] for c in range(m.cols)] for r in range(m.rows)] == want

    def test_wrong_arity_rejected(self):
        # a bipartite state has no third factor
        v = random_tensor(Shape((2, 2)), 2, seed=0)
        with pytest.raises(ShapeError):
            flatten(v, (3,))

    @pytest.mark.parametrize("rows", [(1.9,), (True,), ("1",), (), (1, 2, 3), (0,), (4,), (1, 1)],
                             ids=repr)
    def test_rejects_bad_row_factors(self, rows):
        # row factors are distinct ints forming a nonempty proper subset of
        # 1..n; none is truncated or converted
        v = random_tensor(Shape((2, 2, 2)), 2, seed=0)
        for route in (flatten, kernel_dim, general_form_decomposition):
            with pytest.raises(ShapeError, match=r"^row factors must be distinct ints"):
                route(v, rows)

    def test_row_factors_in_any_order(self):
        v = random_tensor(Shape((2, 3, 4)), 4, seed=3)
        assert flatten(v, (3, 1)) == flatten(v, (1, 3)) == flatten(v, [1, 3])


class TestFromTerms:
    def test_ghz_coefficients(self):
        ghz = from_terms(Shape((2, 2, 2)), GHZ_TERMS)
        expected = [zero(QQ)] * 8
        expected[0] = QQ.coerce(1)
        expected[7] = QQ.coerce(1)
        assert list(ghz.coeffs) == expected

    def test_empty_terms_give_zero(self):
        assert not any(from_terms(Shape((2, 3)), []).coeffs)

    def test_distinct_terms_place_unit_coefficients(self):
        v = from_terms(Shape((2, 3, 4)), [(1, 2, 3), (2, 1, 4), (1, 1, 1)])
        assert sum(1 for c in v.coeffs if c) == 3
        assert all(c == 1 for c in v.coeffs if c)

    # a term is counted each time it is listed, in the field: twice is 0 in GF(2)
    def test_repeated_terms_add_up(self):
        terms = [(1, 2), (2, 1), (1, 2)]
        assert from_terms(Shape((2, 2)), terms).coeffs == tuple(map(QQ.coerce, (0, 2, 1, 0)))
        F = GF(2)
        assert from_terms(Shape((2, 2)), terms, field=F).coeffs == tuple(map(F.coerce, (0, 0, 1, 0)))

    # `Shape.offset` checks the 0-based index; the message names the term too
    def test_out_of_range_term(self):
        with pytest.raises(ShapeError, match=r"^term \(1, 1, 3\) \(1-based\): index \(0, 0, 2\) "
                                             r"out of range for \(2, 2, 2\)$"):
            from_terms(Shape((2, 2, 2)), [(1, 1, 2), (1, 1, 3)])
        with pytest.raises(ShapeError, match=r"^term \(1, 1\) \(1-based\): index \(0, 0\) "
                                             r"is not 3 ints for \(2, 2, 2\)$"):
            from_terms(Shape((2, 2, 2)), [(1, 1)])

    def test_singular_basis_rejected(self):
        singular = from_rows(QQ, [[1, 1], [1, 1]])
        eye = _identity(QQ, 2)
        with pytest.raises(BasisError):
            representative("C1", Shape((2, 2)), bases=[singular, eye])

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.descriptor)
    def test_generic_bases_match_local_action(self, field):
        # the same state built two independent ways: direct expansion in
        # the given bases, in the oracle's arithmetic, versus a local
        # transform of the standard build
        R = ring(field)

        def expand(shape, terms, bases):
            # term (j1, ..., jn) is the product of column ji of each bases[i-1]
            coeffs = [R.zero] * shape.size
            for term in terms:
                cols = [[R.lift(b[a, j - 1]) for a in range(b.rows)] for b, j in zip(bases, term)]
                for off, full in enumerate(shape.indices()):
                    prod_val = R.one
                    for col, a in zip(cols, full):
                        prod_val = R.mul(prod_val, col[a])
                    coeffs[off] = R.add(coeffs[off], prod_val)
            return coeffs

        for dims, terms in [
            ((2, 2, 2), [(1, 1, 1), (1, 2, 2), (2, 1, 2)]),
            ((2, 3, 4), [(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 3, 4)]),
        ]:
            shape = Shape(dims)
            for seed in range(10):
                bases = [random_invertible(d, 3, seed=seed * 31 + axis, field=field)
                         for axis, d in enumerate(dims)]
                direct = expand(shape, terms, bases)
                via_action = apply_local(from_terms(shape, terms, field=field), bases)
                assert [R.lift(c) for c in via_action.coeffs] == direct


class TestApplyLocal:
    def test_identity_maps_fix_everything(self):
        v = random_tensor(Shape((2, 3, 4)), 5, seed=1)
        eyes = [_identity(QQ, d) for d in (2, 3, 4)]
        assert apply_local(v, eyes) == v

    def test_singular_map_rejected(self):
        v = random_tensor(Shape((2, 2)), 2, seed=3)
        singular = from_rows(QQ, [[1, 2], [2, 4]])
        with pytest.raises(BasisError):
            apply_local(v, [singular, _identity(QQ, 2)])

    def test_shape_mismatch_rejected(self):
        v = random_tensor(Shape((2, 2)), 2, seed=3)
        with pytest.raises(ShapeError):
            apply_local(v, [_identity(QQ, 3), _identity(QQ, 2)])

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_maps_rejected(self, count):
        v = random_tensor(Shape((2, 2)), 2, seed=3)
        with pytest.raises(ShapeError, match=f"^need 2 local maps, got {count}$"):
            apply_local(v, [_identity(QQ, 2)] * count)

    # elements define no arithmetic, so this check is all that stops a
    # map's image from being read in another field's layout
    @pytest.mark.parametrize("field,other", [(QQ, GF(7)), (GF(7), GF(5)), (QQI, QQ), (QQ, QQI)],
                             ids=lambda f: f.descriptor)
    def test_wrong_field_map_rejected(self, field, other):
        v = random_tensor(Shape((2, 3)), 2, seed=3, field=field)
        with pytest.raises(ShapeError, match="local map for factor 2 is over the wrong field"):
            apply_local(v, [_identity(field, 2), _identity(other, 3)])

    # the integer-image action against the element-arithmetic one it replaced
    @pytest.mark.parametrize("field", FIELDS + [GF(101)], ids=lambda f: f.descriptor)
    def test_matches_element_arithmetic_oracle(self, field):
        R = ring(field)
        prime = isinstance(field, PrimeField)
        cases = []
        for dims in [(2, 2), (3, 2), (2, 2, 2), (2, 3, 4), (3, 1, 2)]:
            for seed in range(6):
                v = random_tensor(Shape(dims), 3, seed=seed, field=field)
                if seed % 2 and not prime:  # denominators in the state
                    v = v.scale(Fraction(1, 6))
                maps = [random_invertible(d, 2, seed=10 * seed + axis, field=field)
                        for axis, d in enumerate(dims)]
                if not prime:  # denominators in a map too: a quarter of it
                    maps[0] = ExactMatrix(field, dims[0], dims[0], [
                        GaussianRational(x.re / 4, x.im / 4) if field == QQI else x / 4
                        for x in maps[0].entries])
                cases.append((v, maps))
        # upper-triangular maps with 1/2 and 2/3 on the diagonal: a
        # denominator in every map
        for n, v in enumerate(denominator_states(field)):
            maps = [upper_map(field, d, n + axis) for axis, d in enumerate(v.shape.dims)]
            assert prime or all(a.den > 1 for a in maps)
            cases.append((v, maps))
        for v, maps in cases:
            want = local_action(R, v.shape.dims, [R.lift(c) for c in v.coeffs],
                                [R.rows(a) for a in maps])
            assert [R.lift(c) for c in apply_local(v, maps).coeffs] == want

    def test_preserves_flattening_ranks(self):
        rng = random.Random(77)
        for dims in [(2, 2), (2, 2, 2), (2, 3, 4)]:
            shape = Shape(dims)
            for trial in range(10):
                v = random_tensor(shape, 4, seed=rng.randint(0, 10**6))
                maps = [random_invertible(d, 2, seed=rng.randint(0, 10**6)) for d in dims]
                w = apply_local(v, maps)
                for rows in FLATTENINGS[shape.n]:
                    assert flatten(v, rows).rank() == flatten(w, rows).rank()


class TestRankDuality:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 4), (2, 2, 2), (2, 2, 3), (2, 3, 4)])
    def test_complementary_ranks_agree(self, dims):
        shape = Shape(dims)
        for i in range(200):
            v = random_tensor(shape, 5, seed=i)
            for factor in range(1, shape.n + 1):
                cols = tuple(f for f in range(1, shape.n + 1) if f != factor)
                assert flatten(v, (factor,)).rank() == flatten(v, cols).rank()


class TestRandomSources:
    def test_random_tensor_deterministic(self):
        a = random_tensor(Shape((2, 3, 4)), 3, seed=9)
        b = random_tensor(Shape((2, 3, 4)), 3, seed=9)
        assert a == b
        assert a != random_tensor(Shape((2, 3, 4)), 3, seed=10)

    def test_random_tensor_bound_required(self):
        with pytest.raises(ValueError):
            random_tensor(Shape((2, 2)), 0, seed=1)

    def test_random_tensor_respects_bound(self):
        v = random_tensor(Shape((2, 3, 4)), 2, seed=5)
        assert all(-2 <= c <= 2 for c in v.coeffs)

    def test_random_invertible(self):
        for seed in range(20):
            m = random_invertible(3, 2, seed=seed)
            assert m.rank() == 3
        one = random_invertible(1, 5, seed=0)
        assert one.entries[0] != zero(QQ)

    @pytest.mark.parametrize("d,bound,message", [
        (0, 3, "dimension must be >= 1, got 0"),
        (2, 0, "bound must be >= 1, got 0"),
        (2, -1, "bound must be >= 1, got -1"),
    ])
    def test_random_invertible_refuses_bad_arguments(self, d, bound, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_invertible(d, bound, seed=0)

    @pytest.mark.parametrize("field", DENOMINATOR_FIELDS, ids=lambda f: f.descriptor)
    def test_random_invertible_matches_value_route(self, field):
        # the same draws, turned into field values and imaged again
        for d, seed in product((1, 2, 3, 5), range(6)):
            rng = random.Random(f"invertible|{d}|2|{seed}")
            while True:
                draws = [rng.randint(-2, 2) for _ in range(field.width * d * d)]
                want = ExactMatrix(field, d, d, from_image(field, draws, 1))
                if want.rank() == d:
                    break
            assert random_invertible(d, 2, seed, field) == want

    def test_random_invertible_over_gf(self):
        m = random_invertible(4, 3, seed=2, field=GF(5))
        assert m.rank() == 4

    def test_rational_and_prime_field_draws_unchanged(self):
        # literal draws pin the rng stream over Q and GF(p)
        shape = Shape((2, 3, 4))
        v = random_tensor(shape, 3, seed=5)
        assert [QQ.format(c) for c in v.coeffs] == [
            "0", "3", "0", "2", "2", "0", "-2", "0", "1", "-1", "3", "-2",
            "-1", "3", "-3", "0", "-1", "-3", "-2", "-1", "-3", "2", "0", "2",
        ]
        field = GF(101)
        v = random_tensor(shape, 3, seed=5, field=field)
        assert [field.format(c) for c in v.coeffs] == [
            "0", "3", "0", "2", "2", "0", "99", "0", "1", "100", "3", "99",
            "100", "3", "98", "0", "100", "98", "99", "100", "98", "2", "0", "2",
        ]
        m = random_invertible(3, 2, seed=4)
        assert [QQ.format(c) for c in m.entries] == [
            "2", "2", "2", "-1", "-2", "1", "0", "-2", "0",
        ]

    def test_gaussian_draws_have_imaginary_parts(self):
        v = random_tensor(Shape((2, 3, 4)), 3, seed=5, field=QQI)
        assert any(c.im for c in v.coeffs)
        m = random_invertible(3, 2, seed=4, field=QQI)
        assert any(c.im for c in m.entries)
        assert m.rank() == 3


def test_tensor_over_gf_field():
    v = from_terms(Shape((2, 2, 2)), GHZ_TERMS, field=GF(3))
    assert flatten(v, (1,)).rank() == 2


def test_scale_preserves_flattening_kernels():
    v = random_tensor(Shape((2, 3, 4)), 3, seed=4)
    w = v.scale(parse(QQ, "-5/3"))
    for rows in KERNELS:
        assert rref_of(flatten(v, rows)) == rref_of(flatten(w, rows))


# the scalar's image times the image, against the oracle's products
@pytest.mark.parametrize("field,scalars", [
    (QQ, [Fraction(-5, 3), Fraction(7), 0]),
    (GF(7), [3, 6, 0, 7]),
    (QQI, [GaussianRational(Fraction(2, 3), -1), GaussianRational(0, 1), Fraction(-1, 4), 0]),
], ids=["rational", "gf(7)", "gaussian-rational"])
def test_scale_matches_element_arithmetic_oracle(field, scalars):
    R = ring(field)
    for seed in range(4):
        v = random_tensor(Shape((2, 3, 2)), 3, seed=seed, field=field)
        if seed % 2 and field != GF(7):  # denominators in the state
            v = v.scale(Fraction(1, 5))
        for c in scalars:
            w = v.scale(c)
            assert [R.lift(x) for x in w.coeffs] == [R.mul(R.lift(c), R.lift(x)) for x in v.coeffs]
            assert w.field == field and w.shape == v.shape
            if not c:
                assert w == Tensor(field, v.shape, [0] * v.shape.size)


class TestImageEquality:
    """A tensor holds its image in lowest terms, so equality never sees a denominator."""

    @pytest.mark.parametrize("descriptor", ["rational", "gaussian-rational", "gf(7)"])
    def test_unreduced_entries_give_equal_tensors(self, descriptor):
        def doc(entries):
            return json.dumps({"field": descriptor, "dims": [1, 2], "entries": entries})

        v, w = parse_document(doc(["1/2", "1"])), parse_document(doc(["2/4", "2/2"]))
        assert v == w and v.coeffs == w.coeffs
        assert (v.image, v.den) == (w.image, w.den)
        assert v != parse_document(doc(["1/2", "2"]))

    @pytest.mark.parametrize("field", [QQ, QQI], ids=lambda f: f.descriptor)
    def test_scaling_there_and_back_is_the_identity(self, field):
        for seed in range(6):
            v = random_tensor(Shape((2, 3, 2)), 4, seed=seed, field=field)
            if seed % 2:
                v = v.scale(Fraction(3, 10))
            assert v.scale(2).scale(Fraction(1, 2)) == v
            assert v.scale(Fraction(-7, 6)).scale(Fraction(-6, 7)) == v
            assert v == Tensor(field, v.shape, v.coeffs)

    def test_gaussian_scaling_by_i_four_times(self):
        v = random_tensor(Shape((2, 2, 3)), 3, seed=2, field=QQI).scale(Fraction(1, 3))
        w = v
        for _ in range(4):
            w = w.scale(GaussianRational(0, 1))
        assert w == v and w.scale(GaussianRational(0, 1)) != v

    @pytest.mark.parametrize("p", [2, 7, 101])
    def test_gf_values_stay_residues(self, p):
        field = GF(p)
        for seed in range(4):
            shape = Shape((2, 3, 3))
            v = random_tensor(shape, 50, seed=seed, field=field)
            maps = [random_invertible(d, 50, seed=seed + axis, field=field)
                    for axis, d in enumerate(shape.dims)]
            for w in (apply_local(v, maps), v.scale(p - 1), v.scale(3 * p + 2)):
                assert all(0 <= c.value < p for c in w.coeffs)
                assert w.den == 1 and all(0 <= x < p for x in w.image)
