from fractions import Fraction

import pytest

from entinv import invariants
from entinv.fields import GF, QQ, QQI, GaussianRational, field_from_descriptor
from entinv.invariants import (
    KERNELS,
    InvariantSignature,
    general_form_decomposition,
    kernel_dim,
    signature,
    triple_constraint_matrix,
    triple_kernel_dim,
)
from entinv.linalg import ExactMatrix, InternalConsistencyError, eliminate, to_image
from entinv.tables import table_for
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
from elements import from_rows, parse, rows_of, zero
from oracle_linalg import ring, rref_of

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
        assert triple_kernel_dim(v, _concise_rows(v)) == 8

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

    def test_rows_are_the_docstring_sums(self):
        # row r applied to each unit vector w must equal the r-th sum of the
        # docstring, evaluated directly, so any misplaced or reordered row fails
        shape = Shape((2, 3, 4))
        d1, d2, d3 = shape.dims
        v = random_tensor(shape, 5, seed=3)
        m = triple_constraint_matrix(v)
        for unit in shape.indices():
            w = Tensor(QQ, shape, [int(index == unit) for index in shape.indices()])
            sums = (
                [sum(v[i, j, k] * w[i, j, l] for i in range(d1) for j in range(d2))
                 for k in range(d3) for l in range(d3)]
                + [sum(v[i, j, k] * w[i, l, k] for i in range(d1) for k in range(d3))
                   for j in range(d2) for l in range(d2)]
                + [sum(v[i, j, k] * w[l, j, k] for j in range(d2) for k in range(d3))
                   for i in range(d1) for l in range(d1)]
            )
            applied = [sum(a * b for a, b in zip(row, w.coeffs)) for row in rows_of(m)]
            assert applied == sums


class TestTripleKernelDim:
    def test_ghz(self):
        assert triple_kernel_dim(GHZ, _concise_rows(GHZ)) == 0

    def test_three_term_state(self):
        v = from_terms(S222, [(1, 1, 1), (1, 2, 2), (2, 1, 2)])
        assert triple_kernel_dim(v, _concise_rows(v)) == 1

    def test_on_taller_third_factor(self):
        v = from_terms(Shape((2, 2, 3)), [(1, 1, 1), (2, 2, 1)])
        assert triple_kernel_dim(v, _concise_rows(v)) == 6

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
                    got = triple_kernel_dim(v, _concise_rows(v))
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
            assert triple_kernel_dim(v, _concise_rows(v)) == want, v

    # Concise states, one slice per row of the slice matrix S^T, made to
    # reach each branch of its Gauss-Jordan elimination.  The first, third
    # and fourth, like the Q(i) ones, have k123 > 0, which a kernel basis
    # off by the factor D or by the sign of Y changes.  D is given over Q.
    # - r = 1: pivot column 1, D = 2;
    # - r = 3 = d1 d2 - 1: a row above the pivot is left alone at step 1
    #   and written at step 2; another is left alone at step 2 and scaled
    #   from 2 to D = 6 at the end;
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
        assert triple_kernel_dim(v, _concise_rows(v)) == _stacked_k123(v)

    def test_rejects_bipartite_input(self):
        with pytest.raises(ArityError):
            triple_kernel_dim(random_tensor(Shape((2, 2)), 2, seed=1), [])


def _slices(v):
    """Pivot columns of the (1,2) flattening: the concise slices of `v`."""
    m = flatten(v, (1, 2))
    return eliminate(m.field, m.image_rows(), m.cols)


def _concise_rows(v):
    """Integer images of the concise slices of `v`, one row per slice."""
    qoff = v.shape.offsets((0, 1))
    return [to_image(v.field, [v.coeffs[o + k] for o in qoff])[0] for k in _slices(v)]


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
    def test_concise_rows_are_the_flattening_pivots(self, monkeypatch):
        passed = []
        triple = invariants.triple_kernel_dim
        monkeypatch.setattr(invariants, "triple_kernel_dim",
                            lambda v, rows: passed.append(rows) or triple(v, rows))
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
            passed.clear()
            signature(v)
            assert passed == [_concise_rows(v)], v
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

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (2, 3, 4)])
    def test_reconstruction_oracle_on_random_tensors(self, dims):
        # multiply the pairs back out by hand and compare coefficient arrays
        shape = Shape(dims)
        for seed in range(15):
            v = random_tensor(shape, 4, seed=seed)
            for rows in FLATTENINGS[shape.n]:
                m_rows = 1
                for i in rows:
                    m_rows *= dims[i - 1]
                m_cols = shape.size // m_rows
                pairs = general_form_decomposition(v, rows)
                assert len(pairs) == m_rows - kernel_dim(v, rows)
                flat = _expand(pairs, m_rows, m_cols)
                # reassemble in tensor coefficient order
                from entinv.tensors import flatten

                target = flatten(v, rows)
                assert flat == target.entries

    # the w'_i are the nonzero rows of the flattening's reduced row echelon
    # form and the w_i its pivot columns, here against the oracle's
    # reduction, and sum_i w_i x w'_i is the flattening in its arithmetic
    @pytest.mark.parametrize("descriptor", ["rational", "gf(7)", "gaussian-rational"])
    def test_matches_element_arithmetic_oracle(self, descriptor):
        field = field_from_descriptor(descriptor)
        R = ring(field)
        for dims in [(2, 3), (3, 3), (2, 2, 2), (2, 3, 4)]:
            shape = Shape(dims)
            states = [random_tensor(shape, 1, seed=seed, field=field) for seed in range(6)]
            if shape.n == 3:
                states += [_few_slices(shape, t, seed, field) for t in (1, 2) for seed in range(2)]
            if field != GF(7):  # denominators in the state and in D
                states = [v.scale(Fraction(2, 3)) if n % 2 else v for n, v in enumerate(states)]
            for v in states:
                for rows in FLATTENINGS[shape.n]:
                    m = flatten(v, rows)
                    reduced, pivots = rref_of(m)
                    pairs = general_form_decomposition(v, rows)
                    assert [R.rows([wp])[0] for _, wp in pairs] == reduced[: len(pivots)]
                    assert [w for w, _ in pairs] == [[m[i, p] for i in range(m.rows)]
                                                     for p in pivots]
                    ws, wps = R.rows([w for w, _ in pairs]), R.rows([wp for _, wp in pairs])
                    assert [[R.dot([w[r] for w in ws], [wp[c] for wp in wps])
                             for c in range(m.cols)] for r in range(m.rows)] == R.rows(m)

    def test_span_dimensions_match_rank(self):
        v = random_tensor(Shape((2, 3, 4)), 3, seed=21)
        for rows in KERNELS:
            pairs = general_form_decomposition(v, rows)
            if not pairs:
                continue
            left = from_rows(QQ, [w for w, _ in pairs])
            right = from_rows(QQ, [wp for _, wp in pairs])
            assert left.rank() == len(pairs)
            assert right.rank() == len(pairs)
