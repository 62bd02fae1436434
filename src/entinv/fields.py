"""Exact coefficient fields: rationals, prime fields GF(p), Gaussian rationals.

Every invariant in this package is a kernel dimension, so coefficient
arithmetic must be exact; floating point is rejected at every boundary.
Rationals are `fractions.Fraction` (already normalized: lowest terms,
positive denominator).  GF(p) residues and Gaussian rationals get small
element classes that are built, compared, hashed and printed but define
no arithmetic: every computation runs on the integer image of
:mod:`~entinv.linalg`.

Scalar strings accepted by :meth:`Field.parse`:

    rational           "a" or "a/b"             e.g. "-3", "5/7"
    gf(p)              same forms, reduced mod p (denominator coprime to p)
    gaussian-rational  "a/b", "a/b+c/di", "c/di" (spaces allowed, floats not)
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache


class FieldMismatchError(TypeError):
    """Raised when scalars from different fields are combined."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _parse_fraction(text: str) -> Fraction:
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r} (floats are rejected)")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


class GFElement:
    """A residue modulo a prime p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"GFElement({self.value}, p={self.p})"


class GaussianRational:
    """An element a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            o = QQI.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


class Field:
    """Common interface of the three supported exact fields.

    A field is its descriptor: two fields are equal exactly when their
    descriptors are, and hash alike.
    """

    descriptor: str

    @property
    def zero(self):
        return self.coerce(0)

    def coerce(self, value):
        """Accept an element or an int; return an element (strings go through `parse`)."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, value) -> str:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and other.descriptor == self.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"<field {self.descriptor}>"


class RationalField(Field):
    descriptor = "rational"

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldMismatchError(f"not a rational scalar: {value!r}")

    def parse(self, text: str) -> Fraction:
        return _parse_fraction(text)

    def format(self, value) -> str:
        return str(value)


class PrimeField(Field):
    """GF(p) for a prime p < 2**31 (primality checked by trial division)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"prime field order must be an integer >= 2, got {p!r}")
        if p >= 2**31:
            raise ValueError(f"prime field order too large: {p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.descriptor = f"gf({p})"

    def coerce(self, value) -> GFElement:
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise FieldMismatchError(f"GF({value.p}) element in GF({self.p})")
            return value
        if isinstance(value, int):
            return GFElement(value, self.p)
        raise FieldMismatchError(f"not a GF({self.p}) scalar: {value!r}")

    def parse(self, text: str) -> GFElement:
        q = _parse_fraction(text)
        if q.denominator % self.p == 0:
            raise ValueError(f"denominator of {text!r} vanishes in GF({self.p})")
        return GFElement(q.numerator * pow(q.denominator, -1, self.p), self.p)

    def format(self, value) -> str:
        return str(value.value)


class GaussianRationalField(Field):
    descriptor = "gaussian-rational"

    def coerce(self, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise FieldMismatchError(f"not a Gaussian rational scalar: {value!r}")

    def parse(self, text: str) -> GaussianRational:
        s = "".join(text.split())
        if not s:
            raise ValueError("empty scalar string")
        if not s.endswith("i"):
            return GaussianRational(_parse_fraction(s))
        body = s[:-1]
        if not body:
            raise ValueError(f"imaginary part needs an explicit coefficient: {text!r}")
        # Last sign character after position 0 separates real and imaginary parts.
        split = max(body.rfind("+", 1), body.rfind("-", 1))
        if split <= 0:
            return GaussianRational(0, _parse_fraction(body))
        return GaussianRational(
            _parse_fraction(body[:split]), _parse_fraction(body[split:])
        )

    def format(self, value) -> str:
        if value.im == 0:
            return str(value.re)
        if value.re == 0:
            return f"{value.im}i"
        sign = "+" if value.im > 0 else "-"
        return f"{value.re}{sign}{abs(value.im)}i"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


QQ = RationalField()
QQI = GaussianRationalField()


@cache
def GF(p: int) -> PrimeField:
    """The prime field GF(p); instances are cached per p."""
    return PrimeField(p)


_GF_DESCRIPTOR_RE = re.compile(r"^gf\((\d+)\)$")


def field_from_descriptor(text: str) -> Field:
    """Map a descriptor string ("rational", "gf(p)", "gaussian-rational") to a field."""
    s = text.strip().lower()
    if s == "rational":
        return QQ
    if s == "gaussian-rational":
        return QQI
    m = _GF_DESCRIPTOR_RE.match(s)
    if m:
        return GF(int(m.group(1)))
    raise ValueError(
        f"unknown field descriptor {text!r}; expected 'rational', "
        "'gaussian-rational', or 'gf(p)' with p prime"
    )
