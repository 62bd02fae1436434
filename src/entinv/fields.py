"""Exact coefficient fields: rationals, prime fields GF(p), Gaussian rationals.

Every invariant in this package is a kernel dimension, so coefficient
arithmetic must be exact; floating point is rejected at every boundary.
Rationals are `fractions.Fraction` (already normalized: lowest terms,
positive denominator).  GF(p) residues and Gaussian rationals are frozen
records, `GFElement(value, p)` and `GaussianRational(re, im)`, that their
field normalizes: `coerce` and `parse` reduce a residue mod p and make
both parts of a Gaussian rational `Fraction`s, refusing any other part.
Equality and hash come from the same fields, so an element equals only an
element of its own field (never an int).  The records define no
arithmetic: every computation runs on the integer image of
:mod:`~entinv.linalg`.

Scalar strings, one ASCII grammar for every field (`parse_image` reads
a scalar's integers, `parse` its element):

    rational           "a" or "a/b"             e.g. "-3", "5/7"
    gf(p)              same forms, reduced mod p (a/b in lowest terms, b coprime to p)
    gaussian-rational  "a/b", "a/b+c/di", "c/di"

with ASCII digits, and spaces only at the ends and around a sign, a
slash and the i ("3/4 + 1/2 i"); floats are refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd


class FieldMismatchError(TypeError):
    """Raised when scalars from different fields are combined."""


# no space inside an integer; \s is the ASCII whitespace of _SPACES
_RATIONAL_RE = re.compile(r"\s*([+-]?)\s*([0-9]+)(?:\s*/\s*([0-9]+))?\s*", re.ASCII)
_SPACES = " \t\n\r\f\v"


def _rational(text: str) -> tuple[int, int]:
    """A rational as (numerator, denominator > 0), not reduced."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not an exact rational: {text!r} (floats are rejected)")
    sign, num, den = m.groups()
    d = 1 if den is None else int(den)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return (-int(num) if sign == "-" else int(num)), d


@dataclass(frozen=True, slots=True)
class GFElement:
    """A residue `value` in [0, p) modulo a prime p, as `PrimeField` makes it."""

    value: int
    p: int

    def __bool__(self):
        return self.value != 0


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """An element re + im*i; `QQI` makes both parts `Fraction`s."""

    re: Fraction
    im: Fraction

    def __bool__(self):
        return bool(self.re or self.im)


class Field:
    """Common interface of the three supported exact fields.

    A field is its descriptor: two fields are equal exactly when their
    descriptors are, and hash alike.
    """

    descriptor: str
    # integers an entry takes in the integer image of :mod:`~entinv.linalg`
    width = 1

    @property
    def zero(self):
        return self.coerce(0)

    def coerce(self, value):
        """Accept an element or an int; return an element (strings go through `parse`)."""
        raise NotImplementedError

    def parse(self, text: str):
        """The element a scalar string denotes, read through `parse_image`."""
        from .linalg import cleared, from_image  # linalg imports this module
        return from_image(self, *cleared(self.parse_image(text)))[0]

    def parse_image(self, text: str) -> tuple[int, ...]:
        """A scalar's image as flat pairs n, d > 0, not reduced: (n, d) over Q,
        (residue, 1) over GF(p), (a, d, b, e) for a/d + (b/e)i over Q(i)."""
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

    parse_image = staticmethod(_rational)

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
            if isinstance(value.value, int) and 0 <= value.value < self.p:
                return value
            value = value.value
        if isinstance(value, int):
            return GFElement(value % self.p, self.p)
        raise FieldMismatchError(f"not a GF({self.p}) scalar: {value!r}")

    def parse_image(self, text: str) -> tuple[int, int]:
        """The residue of a/b, refused when p divides b in lowest terms."""
        n, d = _rational(text)
        g = gcd(n, d)
        if d // g % self.p == 0:
            raise ValueError(f"denominator of {text!r} vanishes in GF({self.p})")
        return n // g * pow(d // g, -1, self.p) % self.p, 1

    def format(self, value) -> str:
        return str(value.value)


class GaussianRationalField(Field):
    descriptor = "gaussian-rational"
    width = 2

    def coerce(self, value) -> GaussianRational:
        """An int, a `Fraction` or an element; int parts become `Fraction`s."""
        if isinstance(value, GaussianRational):
            if isinstance(value.re, Fraction) and isinstance(value.im, Fraction):
                return value
            parts = value.re, value.im
        else:
            parts = value, 0
        if all(isinstance(t, (int, Fraction)) for t in parts):
            return GaussianRational(Fraction(parts[0]), Fraction(parts[1]))
        raise FieldMismatchError(f"not a Gaussian rational scalar: {value!r}")

    def parse_image(self, text: str) -> tuple[int, int, int, int]:
        s = text.strip(_SPACES)
        if not s.endswith("i"):
            return _rational(text) + (0, 1)
        # a sign after the first character splits off the imaginary part
        k = max(s.rfind("+", 0, -1), s.rfind("-", 0, -1), 0)
        return _rational(s[:k] or "0") + _rational(s[k:-1])

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


_GF_DESCRIPTOR_RE = re.compile(r"^gf\(([0-9]+)\)$")


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
