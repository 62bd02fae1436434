import random
import re
from fractions import Fraction

import pytest

from entinv import invariants
from entinv.fields import GF, QQ, QQI, GaussianRational, PrimeField, field_from_descriptor
from entinv.invariants import (
    KERNELS,
    InvariantSignature,
    general_form_decomposition,
    kernel_dim,
    signature,
    triple_constraint_matrix,
    triple_kernel_dim,
)
from entinv.linalg import ExactMatrix, InternalConsistencyError, eliminate, from_image, to_image
from entinv.tables import ClassEntry, table_for
from entinv.tensors import (
    ArityError,
    Shape,
    Tensor,
    apply_local,
    flatten,
    from_terms,
    random_invertible,
    random_tensor,
)
from elements import (DENOMINATOR_FIELDS, denominator_states, from_rows, parse, upper_map,
                      zero)
from oracle_linalg import ring, rref, rref_of

S222 = Shape((2, 2, 2))
GHZ = from_terms(S222, [(1, 1, 1), (2, 2, 2)])

# the row factors of every proper bipartition, singles first
FLATTENINGS = {2: KERNELS[:2], 3: KERNELS}


class TestKernelDim:
    def test_zero_tensor_single_factor(self):
        for d in (2, 3, 5):
            v = from_terms(Shape((2, 2, d)), [], field=QQ)
            assert kernel_dim(v, (1,)) == 2
            assert kernel_dim(v, (3,)) == d

    def test_ghz_third_factor(self):
        assert kernel_dim(GHZ, (3,)) == 0

    def test_product_state_pair(self):
        one = from_terms(S222, [(1, 1, 1)])
        for rows in ((1, 2), (1, 3), (2, 3)):
            assert kernel_dim(one, rows) == 3


class TestTripleConstraintMatrix:
    def test_shape_is_stacked_blocks(self):
        m = triple_constraint_matrix(random_tensor(S222, 3, seed=0))
        assert (m.rows, m.cols) == (12, 8)
        m = triple_constraint_matrix(random_tensor(Shape((2, 3, 4)), 3, seed=0))
        assert (m.rows, m.cols) == (16 + 9 + 4, 24)

    def test_zero_tensor_gives_zero_matrix(self):
        v = from_terms(S222, [], field=QQ)
        m = triple_constraint_matrix(v)
        assert all(x == zero(QQ) for x in m.entries)
        assert triple_kernel_dim(v, *_concise(v)) == 8

    def test_product_state_forces_four_coordinates(self):
        # for the state with a single unit coefficient at (1,1,1) the
        # constraints reduce to w111 = w112 = w121 = w211 = 0
        v = from_terms(S222, [(1, 1, 1)])
        m = triple_constraint_matrix(v)
        reduced, pivots = rref_of(m)
        assert m.cols - len(pivots) == 4
        # a coordinate vanishes on the whole kernel exactly when it is a unit row of the rref
        supports = [[j for j, x in enumerate(reduced[r]) if x] for r in range(len(pivots))]
        forced = [S222.offset(x) for x in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]
        assert sorted(s[0] for s in supports if len(s) == 1) == sorted(forced)

    def test_rejects_bipartite_input(self):
        with pytest.raises(ArityError):
            triple_constraint_matrix(random_tensor(Shape((2, 2)), 2, seed=1))

    @pytest.mark.parametrize("field", DENOMINATOR_FIELDS, ids=lambda f: f.descriptor)
    def test_rows_are_the_docstring_sums(self, field):
        # row r applied to each unit vector w must equal the r-th sum of the
        # docstring, taken in the oracle's arithmetic, so any misplaced or
        # reordered row fails; and the rank is plain elimination's
        R = ring(field)
        states = [random_tensor(Shape((2, 3, 4)), 5, seed=3, field=field)]
        states += [v for v in denominator_states(field) if v.n == 3]
        for v in states:
            d1, d2, d3 = v.shape.dims
            x = {index: R.lift(v[index]) for index in v.shape.indices()}
            sums = (
                [[((i, j, k), (i, j, l)) for i in range(d1) for j in range(d2)]
                 for k in range(d3) for l in range(d3)]
                + [[((i, j, k), (i, l, k)) for i in range(d1) for k in range(d3)]
                   for j in range(d2) for l in range(d2)]
                + [[((i, j, k), (l, j, k)) for j in range(d2) for k in range(d3)]
                   for i in range(d1) for l in range(d1)]
            )
            # the sum of terms v[a] w[b] at the unit vector w with its 1 at
            # index b is the sum of v[a] over the terms with that b
            want = []
            for terms in sums:
                row = dict.fromkeys(v.shape.indices(), R.zero)
                for a, b in terms:
                    row[b] = R.add(row[b], x[a])
                want.append(list(row.values()))
            m = triple_constraint_matrix(v)
            assert R.rows(m) == want
            assert m.rank() == len(rref_of(m)[1])


class TestTripleKernelDim:
    def test_ghz(self):
        assert triple_kernel_dim(GHZ, *_concise(GHZ)) == 0

    def test_three_term_state(self):
        v = from_terms(S222, [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
        assert triple_kernel_dim(v, *_concise(v)) == 1

    def test_on_taller_third_factor(self):
        v = from_terms(Shape((2, 2, 3)), [(1, 1, 1), (2, 2, 1)])
        assert triple_kernel_dim(v, *_concise(v)) == 6

    # each block's diagonal rows sum to 0 on the kernel of the slices, so R,
    # the one system `triple_kernel_dim` eliminates, drops row (0, 0) of
    # both: d1^2 + d2^2 - 2 rows
    @pytest.mark.parametrize("dims,height", [((2, 2, 3), 6), ((2, 3, 4), 11), ((3, 3, 3), 16)])
    @pytest.mark.parametrize("descriptor", ["gf(2)", "rational", "gaussian-rational"])
    def test_r_drops_a_trace_row_of_each_block(self, monkeypatch, dims, height, descriptor):
        v = random_tensor(Shape(dims), 1, seed=2, field=field_from_descriptor(descriptor))
        rows, kernel = _concise(v)
        assert 0 < len(rows) < dims[0] * dims[1]
        heights, eliminate = [], invariants.eliminate
        monkeypatch.setattr(invariants, "eliminate", lambda field, rows, cols, jordan=False:
                            heights.append(len(rows)) or eliminate(field, rows, cols, jordan))
        triple_kernel_dim(v, rows, kernel)
        assert heights == [height]

    # the stacked system stays the reference for the concise-slice route
    @pytest.mark.parametrize("descriptor,d_max", [
        ("rational", 8), ("gf(101)", 8), ("gaussian-rational", 4),
    ])
    def test_matches_stacked_system_on_class_states(self, descriptor, d_max):
        field = field_from_descriptor(descriptor)
        for base in (2, 3):
            for d in range(2, d_max + 1):
                shape = Shape((2, base, d))
                for n, entry in enumerate(table_for(shape).entries):
                    bases = [
                        _random_basis(dim, (100 * base + d) * 100 + 3 * n + axis, field)
                        for axis, dim in enumerate(shape.dims)
                    ]
                    v = apply_local(from_terms(shape, entry.terms, field=field), bases)
                    got = triple_kernel_dim(v, *_concise(v))
                    assert got == _stacked_k123(v), (shape.dims, entry.label)

    # the concise systems are the sparse ones that `rank()` eliminates for
    # k123; their pivots are checked against plain elimination, which does
    # not share the Bareiss loop
    @pytest.mark.parametrize("descriptor,d_max", [("rational", 6), ("gaussian-rational", 3)])
    def test_concise_systems_pivot_likerref_of(self, descriptor, d_max):
        field = field_from_descriptor(descriptor)
        for base in (2, 3):
            for d in range(2, d_max + 1):
                shape = Shape((2, base, d))
                for n, entry in enumerate(table_for(shape).entries):
                    bases = [
                        _random_basis(dim, (100 * base + d) * 100 + 3 * n + axis + 11, field)
                        for axis, dim in enumerate(shape.dims)
                    ]
                    v = apply_local(from_terms(shape, entry.terms, field=field), bases)
                    slices = rref_of(flatten(v, (1, 2)))[1]
                    if not 0 < len(slices) < 2 * base:
                        continue
                    concise = Tensor(field, Shape((2, base, len(slices))), [
                        v.coeffs[o + k] for o in shape.offsets((0, 1)) for k in slices
                    ])
                    m = triple_constraint_matrix(concise)
                    pivots = eliminate(m.field, m.image_rows(), m.cols)
                    assert pivots == rref_of(m)[1], (shape.dims, entry.label)

    # over Q(i) the oracle ranks the stacked system over the Gaussian
    # integers, whose pivots are checked against plain elimination above
    # and in test_linalg; plain elimination here would take about 90 s
    @pytest.mark.parametrize("descriptor", ["gf(2)", "gf(3)", "rational", "gaussian-rational"])
    @pytest.mark.parametrize("dims", [(3, 3, 3), (1, 3, 4), (2, 2, 1), (3, 3, 10), (2, 4, 5)])
    def test_matches_stacked_system_off_the_tables(self, dims, descriptor):
        field = field_from_descriptor(descriptor)
        shape = Shape(dims)
        states = [from_terms(shape, [], field=field)]
        states += [random_tensor(shape, 1, seed=seed, field=field) for seed in range(8)]
        states += [
            _few_slices(shape, t, seed, field) for t in range(1, 4) for seed in range(6)
        ]
        for v in states:
            if field == QQI:
                want = shape.size - triple_constraint_matrix(v).rank()
            else:
                want = _stacked_k123(v)
            assert triple_kernel_dim(v, *_concise(v)) == want, v

    # Concise states, one slice per row of the slice matrix S^T, made to
    # reach each branch of a Gauss-Jordan elimination of S^T; the kernel
    # basis `signature` leaves differs from that elimination's, and k123
    # must not.  The first, third and fourth, like the Q(i) ones, have
    # k123 > 0.  D is given over Q.
    # - r = 1: pivot column 1, D = 2;
    # - r = 3 = d1 d2 - 1: a row above the pivot has a 0 in the pivot
    #   column at step 1, so it is scaled, and is cleared at step 2; another
    #   has a 0 at step 2 and is scaled from 2 to D = 6;
    # - r = 5 = d1 d2 - 1: pivot columns 0, 1, 2, 3, 5 and D = 21;
    # - r = 2: pivot columns 0 and 2, D = 3;
    # - r = 2 with denominators: pivot columns 1 and 2.
    # The Q(i) states have r = 1, 2 and 3 = d1 d2 - 1, with complex entries;
    # over Z[i] their pivot columns are the first r, with D = 1 + i, -4i
    # and -4 - 4i.
    @pytest.mark.parametrize("descriptor,dims,slices", [
        *((descriptor, dims, slices) for descriptor in ("rational", "gf(101)", "gaussian-rational")
          for dims, slices in [
              ((2, 3), [["0", "2", "3", "0", "2", "3"]]),
              ((2, 2), [["1", "0", "1", "1"], ["0", "2", "0", "1"], ["0", "0", "3", "1"]]),
              ((2, 3), [["0", "0", "0", "0", "0", "-1"], ["-1", "-1", "-1", "2", "2", "1"],
                        ["2", "2", "3", "3", "3", "0"], ["-1", "2", "0", "3", "0", "0"],
                        ["2", "0", "1", "0", "2", "0"]]),
              ((2, 3), [["0", "0", "3", "1", "2", "0"], ["1", "2", "2", "0", "0", "-1"]]),
              ((2, 3), [["0", "1/2", "1", "0", "0", "1"], ["0", "1", "0", "3", "1/3", "0"]]),
          ]),
        ("gaussian-rational", (2, 2), [["1+1i", "-2i", "1i", "1-1i"]]),
        ("gaussian-rational", (2, 3), [["2", "0", "0", "2", "0", "0"],
                                       ["0", "-2i", "1i", "-2i", "-2i", "1i"]]),
        ("gaussian-rational", (2, 2), [["2", "1-1i", "0", "1+1i"], ["-2i", "1-1i", "2", "1-1i"],
                                       ["1-1i", "1", "0", "1+1i"]]),
    ])
    def test_hand_made_concise_states_match_stacked_system(self, descriptor, dims, slices):
        field = field_from_descriptor(descriptor)
        d12, r = dims[0] * dims[1], len(slices)
        v = Tensor(field, Shape((*dims, r)), [
            parse(field, slices[m][q]) for q in range(d12) for m in range(r)
        ])
        assert _slices(v) == list(range(r))
        assert triple_kernel_dim(v, *_concise(v)) == _stacked_k123(v)

    def test_rejects_bipartite_input(self):
        with pytest.raises(ArityError):
            triple_kernel_dim(random_tensor(Shape((2, 2)), 2, seed=1), [], [])


class TestSliceKernel:
    # the rows that `signature`'s slice elimination leaves below its pivots
    # are a basis of K = ker S^T: random states of t <= d3 independent
    # slices, in bases whose entries carry denominators
    @pytest.mark.parametrize("field", [QQ, GF(7), QQI], ids=lambda f: f.descriptor)
    def test_rows_below_the_slice_pivots_are_a_kernel_basis(self, field):
        rng, seen = random.Random(29), set()
        for _ in range(60):
            dims = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5))
            t = rng.randint(0, min(dims[0] * dims[1], dims[2]))
            v = (_few_slices(Shape(dims), t, rng.randrange(10**6), field) if t
                 else from_terms(Shape(dims), [], field=field))
            v = apply_local(v, [upper_map(field, d, k) for k, d in enumerate(dims)])
            rows, kernel = _concise(v)
            _assert_slice_kernel(v, kernel)
            seen.add((not rows, not kernel, v.den > 1))
        # r = 0, r = d1 d2 and the rest are each reached, the last with
        # denominators over Q and Q(i)
        assert {(True, False), (False, True), (False, False)} <= {s[:2] for s in seen}
        assert (False, False, not isinstance(field, PrimeField)) in seen


def _slices(v):
    """Pivot columns of the (1,2) flattening: the concise slices of `v`."""
    m = flatten(v, (1, 2))
    return eliminate(m.field, m.image_rows(), m.cols)


def _concise_rows(v):
    """Integer images of the concise slices of `v`, one row per slice."""
    qoff = v.shape.offsets((0, 1))
    return [to_image(v.field, [v.coeffs[o + k] for o in qoff])[0] for k in _slices(v)]


def _concise(v):
    """The concise rows and the basis of K = ker S^T that `signature` hands
    to `triple_kernel_dim`, in its one call of it."""
    passed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "triple_kernel_dim",
                   lambda v, rows, kernel: passed.append((rows, kernel)) or 0)
        signature(v)
    [args] = passed
    return args


def _assert_slice_kernel(v, kernel):
    """`kernel`, rows of integer images, is a basis of the left kernel of
    the (1,2) flattening, made afresh from v: d1 d2 - r rows x, each with
    x^T M = 0, of rank d1 d2 - r, in the oracle's arithmetic."""
    field, R = v.field, ring(v.field)
    m = flatten(v, (1, 2))
    r = len(rref_of(m)[1])
    assert len(kernel) == m.rows - r
    basis = [[R.lift(x) for x in from_image(field, row, 1)] for row in kernel]
    for x in basis:
        assert len(x) == m.rows
        for col in zip(*R.rows(m)):
            assert R.dot(x, col) == R.zero
    assert len(rref(R, basis)[1]) == m.rows - r


def _stacked_k123(v):
    # Q(i) ranks over the Gaussian integers; plain elimination stays its oracle
    m = triple_constraint_matrix(v)
    return v.shape.size - (len(rref_of(m)[1]) if v.field == QQI else m.rank())


def _random_basis(dim, seed, field):
    """Random invertible basis; over Q(i) it is X + iY with X, Y integer,
    redrawn until plain elimination finds it invertible."""
    x = random_invertible(dim, 2, seed=seed, field=field)
    if field != QQI:
        return x
    while True:
        seed += 7919
        y = random_invertible(dim, 2, seed=seed, field=field)
        # s + i t, for s and t with integer real parts
        b = ExactMatrix(field, dim, dim, [
            GaussianRational(s.re - t.im, s.im + t.re) for s, t in zip(x.entries, y.entries)
        ])
        if len(rref_of(b)[1]) == dim:
            return b


def _few_slices(shape, t, seed, field):
    """Random tensor whose third-factor slices span at most t dimensions:
    the product of a (d1 d2) x t and a t x d3 matrix, in the oracle's
    arithmetic."""
    d1, d2, d3 = shape.dims
    R = ring(field)
    u = [R.lift(x) for x in random_tensor(Shape((d1 * d2, t)), 1, seed=seed, field=field).coeffs]
    c = [R.lift(x) for x in random_tensor(Shape((t, d3)), 1, seed=seed + 1000, field=field).coeffs]
    return Tensor(field, shape, [
        _value(field, R.dot(u[o * t : (o + 1) * t], c[k::d3]))
        for o in range(d1 * d2)
        for k in range(d3)
    ])


def _value(field, x):
    """The package scalar of an oracle element."""
    return GaussianRational(*x) if field == QQI else field.coerce(x)


class TestSignature:
    def test_out_of_range_kernel_dims_are_faults(self):
        for singles in ((3, 0), (0, -1)):
            with pytest.raises(InternalConsistencyError, match="single kernel dim .* out of"):
                InvariantSignature(dims=(2, 2), singles=singles)
        for triple in (9, -1):
            with pytest.raises(InternalConsistencyError,
                               match=f"triple kernel dim {triple} out of range"):
                InvariantSignature(dims=(2, 2, 2), singles=(0, 0, 0), pairs=(2, 2, 2),
                                   triple=triple)
        assert InvariantSignature(dims=(2, 2, 2), singles=(2, 2, 2), pairs=(4, 4, 4), triple=8)

    @pytest.mark.parametrize("x,text", [
        (InvariantSignature(dims=(2, 2), singles=(1, 1)),
         "InvariantSignature(dims=(2, 2), singles=(1, 1), pairs=None, triple=None)"),
        (InvariantSignature((2, 2, 2), (0, 0, 0), (2, 2, 2), 0),
         "InvariantSignature(dims=(2, 2, 2), singles=(0, 0, 0), pairs=(2, 2, 2), triple=0)"),
        (ClassEntry("C6", (0, 0, 0), ((1, 1, 1), (2, 2, 2))),
         "ClassEntry(label='C6', concise=(0, 0, 0), terms=((1, 1, 1), (2, 2, 2)))"),
    ], ids=["bipartite", "tripartite", "class-entry"])
    def test_records_are_frozen_and_shown_as_a_dataclass(self, x, text):
        assert repr(x) == text
        for name in re.findall(r"(\w+)=", text) + ["r", "extent"]:
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert repr(x) == text

    def test_zero_234(self):
        sig = signature(from_terms(Shape((2, 3, 4)), [], field=QQ))
        assert sig.singles == (2, 3, 4)
        assert sig.pairs == (6, 8, 12)
        assert sig.triple == 24

    def test_three_term_233(self):
        v = from_terms(Shape((2, 3, 3)), [(1, 1, 1), (1, 2, 2), (2, 3, 1)])
        sig = signature(v)
        assert sig.singles == (0, 0, 1)
        assert sig.triple == 5

    def test_epr(self):
        epr = from_terms(Shape((2, 2)), [(1, 1), (2, 2)])
        sig = signature(epr)
        assert sig.singles == (0, 0)
        assert sig.pairs is None and sig.triple is None
        assert str(sig) == "(0,0)"

    def test_str_form(self):
        assert str(signature(GHZ)) == "(0,0,0;2,2,2;0)"

    def test_three_qubit_case_families(self):
        # the three two-term states with one extra direction share triple dim 3
        for terms, singles in [
            ([(1, 1, 1), (2, 2, 1)], (0, 0, 1)),
            ([(1, 1, 1), (2, 1, 2)], (0, 1, 0)),
            ([(1, 1, 1), (1, 2, 2)], (1, 0, 0)),
        ]:
            sig = signature(from_terms(S222, terms))
            assert sig.singles == singles
            assert sig.triple == 3

    def test_local_invariance_sample(self):
        v = from_terms(S222, [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
        base = signature(v)
        for seed in range(10):
            maps = [random_invertible(2, 2, seed=seed * 7 + axis) for axis in range(3)]
            assert signature(apply_local(v, maps)) == base

    def test_scaling_invariance(self):
        for dims in [(2, 2), (2, 3, 4)]:
            v = random_tensor(Shape(dims), 3, seed=8)
            base = signature(v)
            for c in (Fraction(-1, 3), Fraction(7, 2), Fraction(5)):
                assert signature(v.scale(c)) == base

    def test_signature_over_gf(self):
        v = from_terms(S222, [(1, 1, 1), (2, 2, 2)], field=GF(5))
        assert signature(v).key() == (0, 0, 0, 0)

    # six separate flattening ranks plus the stacked k123 system stay the
    # oracle for the signature that derives three kernels by rank duality;
    # no class has more than 6 independent slices, so from d = 7 on k1 and
    # k2 are ranked on fewer slices than every state has
    @pytest.mark.parametrize("descriptor,d_max", [
        ("rational", 8), ("gf(101)", 8), ("gaussian-rational", 4),
    ])
    def test_matches_six_ranks_on_class_states(self, descriptor, d_max):
        field = field_from_descriptor(descriptor)
        for base in (2, 3):
            for d in range(2, d_max + 1):
                shape = Shape((2, base, d))
                for n, entry in enumerate(table_for(shape).entries):
                    bases = [
                        _random_basis(dim, (100 * base + d) * 100 + 3 * n + axis + 7, field)
                        for axis, dim in enumerate(shape.dims)
                    ]
                    v = apply_local(from_terms(shape, entry.terms, field=field), bases)
                    assert signature(v) == _six_rank_signature(v), (shape.dims, entry.label)

    # random states, plus the edges of the concise-slice route: the zero
    # state (r = 0), states with r = d1 d2 or with few slices, small prime
    # fields, and d1 != d2, where a swapped (1) and (2) flattening shows
    @pytest.mark.parametrize("descriptor", [
        "rational", "gf(101)", "gaussian-rational", "gf(2)", "gf(3)",
    ])
    def test_matches_six_ranks_on_random_states(self, descriptor):
        field = field_from_descriptor(descriptor)
        shapes = [(d1, d2) for d1 in range(1, 5) for d2 in range(1, 5)]
        shapes += [(3, 3, 3), (1, 3, 4), (2, 4, 5), (3, 2, 4), (2, 2, 5), (2, 3, 7)]
        full = 0
        for dims in shapes:
            shape = Shape(dims)
            # entries in [-1, 1] leave small shapes a fair share of kernels
            states = [random_tensor(shape, 1, seed=seed, field=field) for seed in range(8)]
            if shape.n == 3:
                d12 = dims[0] * dims[1]
                states.append(from_terms(shape, [], field=field))
                states += [_few_slices(shape, t, seed, field) for t in (1, 2) for seed in range(3)]
                if dims[2] >= d12:
                    states.append(from_terms(shape, [
                        (i + 1, j + 1, i * dims[1] + j + 1) for i in range(dims[0])
                        for j in range(dims[1])
                    ], field=field))
                full += sum(len(_slices(v)) == d12 for v in states)
            for v in states:
                assert signature(v) == _six_rank_signature(v), v
        assert full >= 2

    # the rows `signature` hands to `triple_kernel_dim` are the images of
    # the pivot slices of the (1,2) flattening: the pivots of the transposed
    # slice matrix are those of the flattening, here on states with complex
    # entries
    def test_concise_rows_are_the_flattening_pivots(self):
        i = GaussianRational(0, 1)
        states = []
        for dims in [(2, 2, 3), (2, 3, 5), (3, 2, 4), (1, 3, 4)]:
            shape = Shape(dims)
            states += [_few_slices(shape, t, seed, QQI) for t in (1, 2, 3) for seed in range(3)]
            states += [random_tensor(shape, 1, seed=seed, field=QQI) for seed in range(2)]
        states += [
            from_terms(Shape((2, 3, 4)), [(1, 1, 2), (1, 2, 2), (2, 3, 4)], field=QQI).scale(i),
            Tensor(QQI, Shape((2, 2, 3)), [GaussianRational(*z) for z in [
                (0, 1), (1, 1), (0, 0), (0, -1), (1, -1), (0, 0),
                (1, 0), (1, 0), (0, 0), (0, 0), (0, 0), (0, 2),
            ]]),
        ]
        for v in states:
            rows, kernel = _concise(v)
            assert rows == _concise_rows(v), v
            _assert_slice_kernel(v, kernel)
        assert any(_slices(v) != list(range(len(_slices(v)))) for v in states)
        assert all(any(c.im for c in v.coeffs) for v in states[-2:])


def _six_rank_signature(v):
    """Every kernel from its own flattening, k123 from the stacked system."""
    ks = tuple(kernel_dim(v, rows) for rows in FLATTENINGS[v.n])
    if v.n == 2:
        return InvariantSignature(dims=v.shape.dims, singles=ks)
    k123 = v.shape.size - triple_constraint_matrix(v).rank()
    return InvariantSignature(dims=v.shape.dims, singles=ks[:3], pairs=ks[3:], triple=k123)


def _expand(pairs, nrows, ncols):
    out = [zero(QQ)] * (nrows * ncols)
    for w, wp in pairs:
        for r in range(nrows):
            for c in range(ncols):
                out[r * ncols + c] = out[r * ncols + c] + w[r] * wp[c]
    return out


class TestDecomposition:
    def test_zero_tensor_empty(self):
        zero = from_terms(S222, [], field=QQ)
        assert general_form_decomposition(zero, (1,)) == []

    def test_epr_two_pairs(self):
        epr = from_terms(Shape((2, 2)), [(1, 1), (2, 2)])
        pairs = general_form_decomposition(epr, (1,))
        assert len(pairs) == 2
        assert _expand(pairs, 2, 2) == list(epr.coeffs)

    def test_ghz_pairs_are_independent(self):
        pairs = general_form_decomposition(GHZ, (1,))
        assert len(pairs) == 2
        assert from_rows(QQ, [w for w, _ in pairs]).rank() == 2
        assert from_rows(QQ, [wp for _, wp in pairs]).rank() == 2

    # the w'_i are the nonzero rows of the flattening's reduced row echelon
    # form and the w_i its pivot columns, here against the oracle's
    # reduction, so each set is independent and there are rank-many pairs;
    # and sum_i w_i x w'_i is the flattening in its arithmetic
    @pytest.mark.parametrize("descriptor", ["rational", "gf(7)", "gf(101)", "gaussian-rational"])
    def test_matches_element_arithmetic_oracle(self, descriptor):
        field = field_from_descriptor(descriptor)
        R = ring(field)
        states = denominator_states(field)
        for dims in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]:
            shape = Shape(dims)
            drawn = [random_tensor(shape, 1, seed=seed, field=field) for seed in range(6)]
            if shape.n == 3:
                drawn += [_few_slices(shape, t, seed, field) for t in (1, 2) for seed in range(2)]
            if not isinstance(field, PrimeField):  # denominators in the state and in D
                drawn = [v.scale(Fraction(2, 3)) if n % 2 else v for n, v in enumerate(drawn)]
            states += drawn + [random_tensor(shape, 4, seed=seed, field=field) for seed in range(15)]
        for v in states:
            for rows in FLATTENINGS[v.n]:
                m = flatten(v, rows)
                reduced, pivots = rref_of(m)
                pairs = general_form_decomposition(v, rows)
                assert [R.rows([wp])[0] for _, wp in pairs] == reduced[: len(pivots)]
                assert [w for w, _ in pairs] == [[m[i, p] for i in range(m.rows)] for p in pivots]
                ws, wps = R.rows([w for w, _ in pairs]), R.rows([wp for _, wp in pairs])
                assert [[R.dot([w[r] for w in ws], [wp[c] for wp in wps])
                         for c in range(m.cols)] for r in range(m.rows)] == R.rows(m)
