import functools
import random
import re
from fractions import Fraction
from math import prod

import pytest

from entinv import tables
from entinv.documents import document_dict
from entinv.invariants import KERNELS, signature, triple_constraint_matrix
from entinv.linalg import InternalConsistencyError
from entinv.suites import suite_tables
from entinv.tables import (
    _TRIPARTITE_ENTRIES,
    TRIPARTITE_DIMS,
    ClassEntry,
    ClassificationGapError,
    LabelValidityError,
    UnsupportedShapeError,
    classify,
    classify_full,
    expected_count,
    representative,
    table_for,
    tripartite_shape,
)
from entinv.tensors import (
    Shape,
    flatten,
    from_terms,
    random_invertible,
)
from entinv.fields import GF, QQ, QQI
from oracle_linalg import det, ring

class TestTableFor:
    def test_222_has_seven_classes(self):
        table = table_for(Shape((2, 2, 2)))
        assert [e.label for e in table.entries] == [f"C{i}" for i in range(7)]

    def test_235_has_25_classes(self):
        assert len(table_for(Shape((2, 3, 5))).entries) == 25

    def test_count_progressions(self):
        for d, want in zip(range(2, 9), (7, 9, 10, 10, 10, 10, 10)):
            assert len(table_for(Shape((2, 2, d))).entries) == want
            assert expected_count("22d", d) == want
        for d, want in zip(range(2, 9), (9, 17, 23, 25, 26, 26, 26)):
            assert len(table_for(Shape((2, 3, d))).entries) == want
            assert expected_count("23d", d) == want
        with pytest.raises(ValueError, match="^family 22d starts at d=2, got d=1$"):
            expected_count("22d", 1)

    def test_each_shape_is_built_once(self):
        for dims in ((2, 2, 2), (2, 3, 7), (3, 4)):
            assert table_for(Shape(dims)) is table_for(Shape(dims))
        # a refused shape is refused every time, not cached
        for _ in range(2):
            with pytest.raises(UnsupportedShapeError):
                table_for(Shape((3, 3, 3)))

    def test_bipartite_entries(self):
        table = table_for(Shape((3, 4)))
        assert [e.label for e in table.entries] == ["C0", "C1", "C2", "C3"]
        assert [e.invariants_at(table.shape)[0] for e in table.entries] == [3, 2, 1, 0]

    def test_unsupported_shape_names_families(self):
        with pytest.raises(UnsupportedShapeError) as err:
            table_for(Shape((3, 3, 3)))
        assert "(2,2,d)" in str(err.value)
        with pytest.raises(UnsupportedShapeError):
            table_for(Shape((2, 2, 1)))

    def test_signature_keys_distinct_per_d(self):
        for d in range(2, 9):
            for base in (2, 3):
                table = table_for(Shape((2, base, d)))
                keys = [e.invariants_at(table.shape) for e in table.entries]
                assert len(set(keys)) == len(keys)

    def test_bracket_notation(self):
        brackets = {e.label: e.bracket() for e in table_for(Shape((2, 2, 2))).entries}
        assert brackets["C0"] == "0"
        assert brackets["C6"] == "[1,1,1]+[2,2,2]"

    def test_discard_rule_matches_validity(self):
        # an entry is valid at d exactly when all four invariants are >= 0
        for family, base in (("22d", 2), ("23d", 3)):
            for entry in _TRIPARTITE_ENTRIES[family]:
                for d in range(2, 9):
                    shape = Shape((2, base, d))
                    nonneg = all(x >= 0 for x in entry.invariants_at(shape))
                    assert entry.valid_at(shape) == nonneg, (entry.label, d)

    def test_stored_invariants_hold_at_the_concise_shape(self):
        # d = r reaches (2, b, 1), below the tables' floor of d = 2
        checked = 0
        for family in TRIPARTITE_DIMS:
            for entry in _TRIPARTITE_ENTRIES[family]:
                if entry.r >= 1:
                    v = from_terms(tripartite_shape(family, entry.r), entry.terms)
                    k1, k2, k123 = entry.concise
                    assert signature(v).key() == (k1, k2, 0, k123), (family, entry.label)
                    checked += 1
        assert checked == 34


@pytest.fixture
def uncached_tables():
    """Clear `table_for`'s cache around a test that patches what it builds from."""
    table_for.cache_clear()
    yield
    table_for.cache_clear()


class TestTableSelfChecks:
    def test_duplicate_signature_key_is_refused(self, uncached_tables, monkeypatch):
        # C6 replaced by a relabelled copy of C2: the count still holds at
        # d = 2, but two valid entries share C2's key
        entries = _TRIPARTITE_ENTRIES["22d"]
        copy = ClassEntry("C6", entries[2].concise, entries[2].terms)
        monkeypatch.setitem(tables._TRIPARTITE_ENTRIES, "22d",
                            tuple(copy if e.label == "C6" else e for e in entries))
        with pytest.raises(InternalConsistencyError,
                           match=re.escape("duplicate signature keys in 22d at (2, 2, 2)")):
            table_for(Shape((2, 2, 2)))

    def test_valid_entry_count_is_checked(self, uncached_tables, monkeypatch):
        monkeypatch.setitem(tables._EXPECTED_COUNTS, "23d", (9, 18, 23, 25, 26))
        assert len(table_for(Shape((2, 3, 2))).entries) == 9
        with pytest.raises(InternalConsistencyError,
                           match="23d at d=3: 17 valid entries, expected 18"):
            table_for(Shape((2, 3, 3)))


class TestClassify:
    def test_ghz(self):
        assert classify(from_terms(Shape((2, 2, 2)), [(1, 1, 1), (2, 2, 2)])) == "C6"

    def test_c7_on_223(self):
        v = from_terms(Shape((2, 2, 3)), [(1, 1, 1), (1, 2, 2), (2, 2, 3)])
        assert classify(v) == "C7"

    def test_zero_tensor(self):
        assert classify(from_terms(Shape((2, 3, 4)), [], field=QQ)) == "C0"

    def test_bipartite_epr(self):
        assert classify(from_terms(Shape((2, 2)), [(1, 1), (2, 2)])) == "C2"

    def test_gap_error_carries_payload(self):
        # no real gap is known, so force one through a fake signature check
        v = from_terms(Shape((2, 2, 2)), [(1, 1, 1)])
        err = ClassificationGapError(v, signature(v))
        payload = err.payload()
        assert payload["dims"] == [2, 2, 2]
        assert payload["entries"][0] == "1"
        assert payload["signature"]["singles"] == [1, 1, 1]
        assert "reportable" in str(err)
        # the state travels in its document form, the signature after it
        assert payload == {**document_dict(v), "signature": signature(v).as_dict()}
        assert list(payload) == ["field", "dims", "entries", "signature"]


class TestRepresentative:
    def test_c9_on_224(self):
        v = representative("C9", Shape((2, 2, 4)))
        want = from_terms(Shape((2, 2, 4)), [(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 4)])
        assert v == want

    def test_c25_on_236_has_zero_triple(self):
        v = representative("C25", Shape((2, 3, 6)))
        sig = signature(v)
        assert sig.triple == 0
        assert classify(v) == "C25"

    def test_discarded_label_rejected(self):
        with pytest.raises(LabelValidityError) as err:
            representative("C9", Shape((2, 2, 3)))
        assert "discarded" in str(err.value)
        with pytest.raises(LabelValidityError):
            representative("C99", Shape((2, 2, 3)))

    def test_round_trip_all_entries(self):
        for base in (2, 3):
            for d in range(2, 9):
                shape = Shape((2, base, d))
                for entry in table_for(shape).entries:
                    assert classify(representative(entry.label, shape)) == entry.label
        for d1 in range(1, 6):
            for d2 in range(1, 6):
                shape = Shape((d1, d2))
                for entry in table_for(shape).entries:
                    assert classify(representative(entry.label, shape)) == entry.label

    def test_generic_bases_round_trip(self):
        for d in (2, 3):
            shape = Shape((2, 2, d))
            for entry in table_for(shape).entries:
                for draw in range(20):
                    bases = [
                        random_invertible(dim, 2, seed=1000 * draw + 7 * axis)
                        for axis, dim in enumerate(shape.dims)
                    ]
                    v = representative(entry.label, shape, bases=bases)
                    assert classify(v) == entry.label

    def test_tall_23d_classes_round_trip_in_random_bases(self):
        # at d = 48 the stacked k123 system would be 2,317 x 288 per state
        shape = Shape((2, 3, 48))
        entries = table_for(shape).entries
        assert len(entries) == 26
        for n, entry in enumerate(entries):
            bases = [
                random_invertible(dim, 2, seed=10 * n + axis)
                for axis, dim in enumerate(shape.dims)
            ]
            assert classify(representative(entry.label, shape, bases=bases)) == entry.label

    def test_flattening_rank_bounded_by_distinct_row_indices(self):
        for base in (2, 3):
            for d in range(2, 6):
                shape = Shape((2, base, d))
                for entry in table_for(shape).entries:
                    v = from_terms(shape, entry.terms)
                    for rows in KERNELS:
                        projections = {tuple(t[i - 1] for i in rows) for t in entry.terms}
                        assert flatten(v, rows).rank() <= len(projections)


# two (2,3,d) states in different orbits that share C12's signature at every d >= 3
C12_JORDAN = ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2))  # pencil s*I + t*N
C12_KRONECKER = ((1, 1, 1), (1, 2, 3), (2, 1, 2), (2, 3, 3))  # pencil L1 (+) L1^T


def _fraction_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _normal_rank(v):
    """Largest rank of s*A + t*B, with A = v[0,:,:] and B = v[1,:,:].

    A nonzero maximal minor is a binary form of degree at most m, so it
    vanishes at no more than m of the m + 1 points (1, t) tried here.
    """
    _, m, n = v.shape.dims
    a = [[Fraction(v[0, j, k]) for k in range(n)] for j in range(m)]
    b = [[Fraction(v[1, j, k]) for k in range(n)] for j in range(m)]
    return max(
        _fraction_rank([[x + t * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        for t in range(m + 1)
    )


class TestC12HoldsTwoOrbits:
    def test_equal_signatures_but_different_pencils(self):
        for d in (3, 4, 6):
            shape = Shape((2, 3, d))
            jordan = from_terms(shape, C12_JORDAN)
            kronecker = from_terms(shape, C12_KRONECKER)
            assert signature(jordan) == signature(kronecker), d
            # local maps preserve the normal rank, so no local map joins them
            assert (_normal_rank(jordan), _normal_rank(kronecker)) == (3, 2), d

    @pytest.mark.xfail(strict=True, reason="the signature merges both orbits into C12")
    def test_classified_apart(self):
        shape = Shape((2, 3, 3))
        jordan = from_terms(shape, C12_JORDAN)
        kronecker = from_terms(shape, C12_KRONECKER)
        assert classify(jordan) != classify(kronecker)


_GATE_FIELDS = [QQ, QQI] + [GF(p) for p in range(2, 100) if all(p % q for q in range(2, p))]


@functools.cache
def _misread_representatives(field):
    """The valid representatives at 22d and 23d, d = 2..7, that do not
    classify as their own label over `field`: (family, d, label, what it
    classifies as), the last None for a gap."""
    misread = set()
    for family in TRIPARTITE_DIMS:
        for d in range(2, 8):
            shape = tripartite_shape(family, d)
            for entry in table_for(shape).entries:
                try:
                    label = classify(representative(entry.label, shape, field=field))
                except ClassificationGapError:
                    label = None
                if label != entry.label:
                    misread.add((family, d, entry.label, label))
    return misread


class TestEveryRepresentativeClassifiesAsItself:
    @pytest.mark.parametrize("field", [
        pytest.param(field, marks=pytest.mark.xfail(
            field.descriptor in ("gf(2)", "gf(3)"), strict=True, raises=AssertionError,
            reason="the stored keys are characteristic-0 values, and over gf(2) and "
                   "gf(3) some representatives have others (ROADMAP item 9)"))
        for field in _GATE_FIELDS
    ], ids=lambda field: field.descriptor)
    def test_own_label(self, field):
        assert _misread_representatives(field) == set()

    def test_what_gf2_and_gf3_read_today(self):
        # over gf(2): the W orbit's C5 is a gap in both families, C19 is a gap
        # and C15 reads as C14; over gf(3): C14 reads as C13
        gf2 = ({(family, d, "C5", None) for family in TRIPARTITE_DIMS for d in range(2, 8)}
               | {("23d", d, "C19", None) for d in range(4, 8)}
               | {("23d", d, "C15", "C14") for d in range(3, 8)})
        assert _misread_representatives(GF(2)) == gf2
        assert _misread_representatives(GF(3)) == {("23d", d, "C14", "C13") for d in range(3, 8)}


def _invariant_factors(rows):
    """The nonzero invariant factors of an integer matrix, each dividing the next,
    by Smith reduction: unimodular row and column operations down to a diagonal."""
    a, factors = [list(row) for row in rows], []
    while entries := [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]:
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        # clear the pivot's column and row; a remainder is a smaller entry,
        # which the next round takes as its pivot
        for row in a[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, a[0])]
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            for row in a:
                row[j] -= q * row[0]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue
        # a row with an entry that p does not divide, added to the pivot
        # row, leaves a remainder in the next round
        rest = next((row for row in a[1:] if any(x % p for x in row)), None)
        if rest:
            a[0] = [x + y for x, y in zip(a[0], rest)]
            continue
        factors.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return factors


class TestNoPrimeAboveThreeChangesAKey:
    """Rank mod p is below rank over Q exactly when p divides the rho-th
    determinantal divisor, the gcd of the rho x rho minors, which is the
    product of the invariant factors.  So the divisors of each
    representative's systems at its concise shape cover every gf(p), not
    a sample: for p >= 5 each stored key is its representative's key."""

    def test_divisor_of_a_square_matrix_is_its_determinant(self):
        rng, R = random.Random(5), ring(QQ)
        for n in range(1, 6):
            for _ in range(10):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                factors = _invariant_factors(rows)
                assert (prod(factors) if len(factors) == n else 0) == abs(det(R, R.rows(rows)))
                assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    def test_divisors_of_the_representatives(self):
        divisors = {}
        for family in TRIPARTITE_DIMS:
            for entry in _TRIPARTITE_ENTRIES[family]:
                if entry.r < 1:
                    continue
                v = from_terms(tripartite_shape(family, entry.r), entry.terms)
                systems = {"(1)": flatten(v, (1,)), "(2)": flatten(v, (2,)),
                           "(1,2)": flatten(v, (1, 2)), "k123": triple_constraint_matrix(v)}
                for name, m in systems.items():
                    assert m.den == 1
                    factors = _invariant_factors(m.image_rows())
                    assert len(factors) == m.rank()
                    divisors[family, entry.label, name] = prod(factors)
        # every divisor but these is 1, and these are primes: 2 divides only
        # the k123 systems of C5 (the W orbit), C15 and C19, and 3 only C14's,
        # ROADMAP item 9's misreads over gf(2) and gf(3)
        assert len(divisors) == 4 * 34
        assert {key: n for key, n in divisors.items() if n != 1} == {
            ("22d", "C5", "k123"): 2, ("23d", "C5", "k123"): 2, ("23d", "C15", "k123"): 2,
            ("23d", "C19", "k123"): 2, ("23d", "C14", "k123"): 3,
        }


class TestThreeQubitPairKernels:
    # pair kernel dimensions of the seven (2,2,2) classes, via direct flattening
    EXPECTED = {
        "C0": (4, 4, 4),
        "C1": (3, 3, 3),
        "C2": (3, 2, 2),
        "C3": (2, 3, 2),
        "C4": (2, 2, 3),
        "C5": (2, 2, 2),
        "C6": (2, 2, 2),
    }

    def test_pair_dims(self):
        shape = Shape((2, 2, 2))
        for label, pairs in self.EXPECTED.items():
            sig = signature(representative(label, shape))
            assert sig.pairs == pairs, label
        perms = sorted(self.EXPECTED[label] for label in ("C2", "C3", "C4"))
        assert perms == [(2, 2, 3), (2, 3, 2), (3, 2, 2)]


class TestVerifyTables:
    """The table checks of the tables suite: a count per tripartite shape, a check per entry."""

    def test_tripartite_families_pass(self):
        report = suite_tables(d_max=8)
        assert report.passed, [c.name for c in report.checks if not c.passed]

    def test_bipartite_law(self):
        checks = [c for c in suite_tables(d_max=2).checks if re.match(r"\(\d,\d\) ", c.name)]
        assert all(c.passed for c in checks)
        # C0..C_min(d1,d2) at each (d1,d2) with d1, d2 <= 5
        assert len(checks) == 80

    def test_check_strings_are_pinned(self):
        checks = suite_tables(d_max=4).checks
        names = [c.name for c in checks]
        # the order: 22d by d, 23d by d, bipartite by (d1, d2), the (2,2,2) references
        assert names[:2] == ["22d d=2 class count", "22d d=2 C0"]
        assert names.index("23d d=2 class count") == 3 + 7 + 9 + 10
        first = names.index("(1,1) C0")
        assert names[first:first + 4] == ["(1,1) C0", "(1,1) C1", "(1,2) C0", "(1,2) C1"]
        assert first == 3 + 26 + 3 + 49
        assert names[-1] == "(2,2,2) C6 full kernel dims"
        by_name = {c.name: c for c in checks}
        c = by_name["(2,3) C2"]
        assert (c.detail, c.repro) == (
            "k1=0 expected 0, classified C2",
            "entinv representative --family bipartite --d1 2 --d2 3 --label C2"
            " | entinv classify -",
        )
        c = by_name["22d d=3 class count"]
        assert (c.detail, c.repro) == ("9 valid entries, expected 9", "")
        c = by_name["23d d=4 C17"]
        assert (c.detail, c.repro) == (
            "signature key (0, 1, 0, 6), expected (0, 1, 0, 6), classified C17",
            "entinv representative --family 23d --d 4 --label C17 | entinv classify -",
        )

    def test_one_signature_per_entry(self, monkeypatch):
        calls = []

        def counted(v):
            calls.append(v)
            return signature(v)

        monkeypatch.setattr("entinv.tables.signature", counted)
        report = suite_tables(d_max=4)
        assert report.passed
        # 22d, 23d and bipartite entries; the references go through suites.signature
        assert len(calls) == (7 + 9 + 10) + (9 + 17 + 23) + 80

    def test_classify_full_returns_signature(self):
        label, sig = classify_full(from_terms(Shape((2, 2, 2)), [(1, 1, 1), (2, 2, 2)]))
        assert label == "C6"
        assert sig.key() == (0, 0, 0, 0)
