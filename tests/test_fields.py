from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from entinv.fields import (
    GF,
    QQ,
    QQI,
    FieldMismatchError,
    GaussianRational,
    GFElement,
    PrimeField,
    field_from_descriptor,
)
from entinv.linalg import ExactMatrix
from entinv.tensors import Shape, Tensor
from oracle_linalg import ring


class TestRational:
    def test_parse_forms(self):
        assert QQ.parse("3") == Fraction(3)
        assert QQ.parse("-3") == Fraction(-3)
        assert QQ.parse("+5/7") == Fraction(5, 7)
        assert QQ.parse("6/4") == Fraction(3, 2)
        assert QQ.parse(" -6/4 ") == Fraction(-3, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1e3", "", "+-2", "1/0", "nan", "0x3", "1/2/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            QQ.parse(bad)

    def test_normalized(self):
        x = QQ.parse("-6/4")
        assert x.numerator == -3 and x.denominator == 2

    @given(st.integers(-50, 50), st.integers(1, 50))
    def test_format_parse_round_trip(self, n, d):
        x = Fraction(n, d)
        assert QQ.parse(QQ.format(x)) == x


class TestPrimeField:
    @pytest.mark.parametrize("p", [2, 3, 7, 31, 2147483629])
    def test_accepts_primes(self, p):
        assert GF(p).p == p

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 2**31])
    def test_rejects_non_primes(self, p):
        with pytest.raises(ValueError):
            GF(p)

    # the arithmetic laws are those of the test oracle, on coerced residues
    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_matches_integer_arithmetic_mod_p(self, a, b):
        p = 13
        F, R = GF(p), ring(GF(p))
        x, y = R.lift(F.coerce(a)), R.lift(F.coerce(b))
        assert R.add(x, y) == (a + b) % p
        assert R.sub(x, y) == (a - b) % p
        assert R.mul(x, y) == (a * b) % p

    @given(st.integers(1, 12))
    def test_inverse(self, a):
        F, R = GF(13), ring(GF(13))
        x = R.lift(F.coerce(a))
        assert R.mul(x, R.div(R.one, x)) == 1

    def test_additive_inverse(self):
        F, R = GF(7), ring(GF(7))
        for a in range(7):
            x = R.lift(F.coerce(a))
            assert R.add(x, R.neg(x)) == 0

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            GF(7).coerce(GF(5).coerce(1))
        with pytest.raises(FieldMismatchError):
            GF(5).coerce(GF(7).coerce(1))

    def test_parse_reduces_fractions(self):
        F = GF(7)
        assert F.parse("1/2").value == 4  # 2 * 4 = 8 = 1 mod 7
        with pytest.raises(ValueError):
            F.parse("1/7")


small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


class TestGaussianRational:
    def test_parse_forms(self):
        assert QQI.parse("3/4+1/2i") == GaussianRational(Fraction(3, 4), Fraction(1, 2))
        assert QQI.parse("3/4 + 1/2 i") == GaussianRational(Fraction(3, 4), Fraction(1, 2))
        assert QQI.parse("-1/2-3/4i") == GaussianRational(Fraction(-1, 2), Fraction(-3, 4))
        assert QQI.parse("2i") == GaussianRational(0, 2)
        assert QQI.parse("-2i") == GaussianRational(0, -2)
        assert QQI.parse("5") == GaussianRational(5, 0)
        for text in ("3/4+1/2i", "2i", "5"):
            z = QQI.parse(text)
            assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)

    @pytest.mark.parametrize("bad", ["i", "+i", "1.5i", "1+i+i", "2j", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            QQI.parse(bad)

    # the arithmetic laws are those of the test oracle, on lifted elements
    @given(small_rationals, small_rationals, small_rationals, small_rationals)
    def test_mul_div_round_trip(self, a, b, c, d):
        R = ring(QQI)
        x = R.lift(GaussianRational(a, b))
        y = R.lift(GaussianRational(c, d))
        if y != R.zero:
            assert R.div(R.mul(x, y), y) == x

    @given(small_rationals, small_rationals)
    def test_additive_and_multiplicative_identities(self, a, b):
        R = ring(QQI)
        x = R.lift(GaussianRational(a, b))
        assert R.add(x, R.neg(x)) == R.lift(GaussianRational(0, 0))
        if x != R.zero:
            assert R.mul(x, R.div(R.one, x)) == R.one

    def test_i_squared(self):
        R = ring(QQI)
        i = R.lift(QQI.parse("1i"))
        assert R.mul(i, i) == R.lift(QQI.coerce(-1))

    @given(small_rationals, small_rationals)
    def test_format_parse_round_trip(self, a, b):
        x = GaussianRational(a, b)
        assert QQI.parse(QQI.format(x)) == x

    def test_mismatch_with_gf(self):
        with pytest.raises(FieldMismatchError):
            QQI.coerce(GF(5).coerce(1))


class TestDescriptors:
    def test_round_trip(self):
        for descriptor in ["rational", "gaussian-rational", "gf(7)"]:
            assert field_from_descriptor(descriptor).descriptor == descriptor

    def test_a_field_is_its_descriptor(self):
        assert GF(7) is not PrimeField(7)
        assert GF(7) == PrimeField(7)
        assert hash(GF(7)) == hash(PrimeField(7))
        assert len({QQ, QQI, GF(7), PrimeField(7), GF(11)}) == 4
        assert QQ != "rational"

    @pytest.mark.parametrize("field", [QQ, QQI, GF(2), GF(7)], ids=lambda f: f.descriptor)
    def test_from_int_is_coerce(self, field):
        for n in (-15, -8, -7, -1, 0, 1, 2, 6, 7, 8, 100):
            x = field.coerce(n)
            if field == QQ:
                assert x == n and isinstance(x, Fraction)
            elif field == QQI:
                assert x == GaussianRational(n, 0)
                assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
            else:
                assert x.value == n % field.p and x.p == field.p

    # every computation runs on the integer image, so elements only compare
    @pytest.mark.parametrize("field", [GF(7), QQI], ids=lambda f: f.descriptor)
    def test_elements_define_no_arithmetic(self, field):
        x = field.coerce(3)
        for op in (lambda: x + x, lambda: x - 1, lambda: 2 * x, lambda: x / x, lambda: -x):
            with pytest.raises(TypeError):
                op()

    def test_rejects_unknown(self):
        for bad in ["real", "gf(4)", "gf(x)", "float"]:
            with pytest.raises(ValueError):
                field_from_descriptor(bad)


# small ranges, so that equal values of different types are often drawn
_NUMBERS = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=2)
_ELEMENTS = {
    "rational": _NUMBERS.map(QQ.coerce),
    "gf(7)": st.integers(-10, 10).map(GF(7).coerce)
    | st.builds(GFElement, st.integers(0, 6), st.just(7)),
    "gaussian-rational": _NUMBERS.map(QQI.coerce)
    | st.builds(GaussianRational, _NUMBERS, _NUMBERS).map(QQI.coerce)
    | st.builds(GaussianRational, _NUMBERS, _NUMBERS),
}


class TestEquality:
    """Equality and hash agree, and an element equals only its own field's elements."""

    @pytest.mark.parametrize("descriptor", sorted(_ELEMENTS))
    @given(data=st.data())
    def test_equal_values_hash_alike(self, descriptor, data):
        values = _NUMBERS | _ELEMENTS[descriptor]
        x, y = data.draw(values), data.draw(values)
        if x == y:
            assert hash(x) == hash(y)
        assert (y in {x}) == (x == y)
        assert (y in {x: None}) == (x == y)

    def test_elements_equal_no_int(self):
        x = GF(7).coerce(3)
        assert x != 3 and x != 10 and 3 not in {x} and x not in {3, 10}
        assert QQI.coerce(3) != 3 and QQI.coerce(3) not in {3}
        assert x == GF(7).coerce(10) == GF(7).parse("10") and GF(7).coerce(10) in {x}
        assert x != GF(5).coerce(3) and QQI.coerce(3) == GaussianRational(3, 0)

    def test_coerce_reduces_a_residue(self):
        assert GF(7).coerce(GFElement(10, 7)) == GFElement(3, 7)
        assert GF(7).coerce(GFElement(-1, 7)) == GFElement(6, 7)
        assert GF(7).parse("-1/2") == GFElement(3, 7)

    @pytest.mark.parametrize("z", [
        GaussianRational(0.1, 0),
        GaussianRational(Fraction(1, 2), 1.5),
        GaussianRational(0, float("nan")),
        GaussianRational("1", 0),
    ], ids=repr)
    def test_float_part_refused(self, z):
        with pytest.raises(FieldMismatchError):
            QQI.coerce(z)
        with pytest.raises(FieldMismatchError):
            Tensor(QQI, Shape((2, 2)), [z, 0, 0, 0])
        with pytest.raises(FieldMismatchError):
            ExactMatrix(QQI, 1, 2, [1, z])

    def test_float_residue_refused(self):
        for x in (GFElement(0.5, 7), 0.5, Fraction(1, 2)):
            with pytest.raises(FieldMismatchError):
                GF(7).coerce(x)


_FIELDS = [QQ, GF(101), QQI]


class TestGrammar:
    """One ASCII grammar: ASCII digits, no space inside an integer, spaces
    at the ends and around a sign, a slash and the i."""

    @pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.descriptor)
    @pytest.mark.parametrize("bad", [
        "٣/٤", "３", "1/４", "𝟙", "1 2", "1 2/3", "1/2 3", "-1 0", "1\u00a02", "\u00a01",
        "1_0", "+ -1", "1/-2",
    ])
    def test_outside_the_grammar_refused(self, field, bad):
        with pytest.raises(ValueError):
            field.parse(bad)
        with pytest.raises(ValueError):
            field.parse_image(bad)

    @pytest.mark.parametrize("bad", ["1 2i", "1+2 3i", "٣i", "1+２i", "3/4 1/2i", "1 +i", "i 2"])
    def test_gaussian_split_integers_refused(self, bad):
        with pytest.raises(ValueError):
            QQI.parse(bad)

    @pytest.mark.parametrize("text,value", [
        (" 3/4 ", Fraction(3, 4)), ("3 / 4", Fraction(3, 4)), ("- 3", Fraction(-3)),
        ("+ 5 /7", Fraction(5, 7)), ("\t-6/4\n", Fraction(-3, 2)),
    ])
    def test_spaces_around_signs_and_slashes(self, text, value):
        assert QQ.parse(text) == value
        assert QQI.parse(text) == GaussianRational(value, Fraction(0))

    @pytest.mark.parametrize("text,re,im", [
        ("3/4 + 1/2 i", Fraction(3, 4), Fraction(1, 2)),
        (" - 1 / 2 - 3 / 4 i ", Fraction(-1, 2), Fraction(-3, 4)),
        ("2 i", 0, 2), ("- 2i", 0, -2), ("+ 1/3 i", 0, Fraction(1, 3)), ("0/5i", 0, 0),
    ])
    def test_gaussian_spaces(self, text, re, im):
        assert QQI.parse(text) == GaussianRational(Fraction(re), Fraction(im))

    @pytest.mark.parametrize("bad", ["gf(１０１)", "gf(٣)", "gf(10 1)", "gf(+7)"])
    def test_descriptor_digits_are_ascii(self, bad):
        with pytest.raises(ValueError):
            field_from_descriptor(bad)
        assert field_from_descriptor(" GF(101) ") == GF(101)

    def test_gf_reduced_denominator_decides(self):
        # a/b is read in lowest terms before p is looked for in b
        F = GF(101)
        assert F.parse("101/101").value == 1
        assert F.parse("202/101").value == 2
        assert F.parse("0/101").value == 0
        assert F.parse("-303/202").value == F.parse("-3/2").value
        with pytest.raises(ValueError):
            F.parse("5/101")
        with pytest.raises(ValueError):
            F.parse("0/0")
