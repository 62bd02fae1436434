"""Exact tensors and matrices, and the integer image in which all their
arithmetic runs.

Field elements are parsed, compared and printed, never multiplied: each
computation runs on an image of integers, one per field.  A vector's
image is its residues over GF(p) and its numerators over one common
denominator over Q; over Q(i) it is Gaussian integers over one common
denominator, the entry a + bi stored as the two integers a, b.
`to_image` and `from_image` are the one way between values and image,
each with one branch per field.  A tensor holds its image in lowest
terms (`Tensor.of_image`); a matrix is a two-factor tensor, eliminated
on the rows of the image it holds.  `eliminate` finds pivots by one fraction-free
Bareiss elimination, over Z for Q, over the Gaussian integers Z[i] for
Q(i) and over Z/p for GF(p); there are no tolerances, and the pivot is
the first nonzero entry in column order.  Each ring supplies one pivot
kernel, called once per pivot, which writes every other row by the
Bareiss step (p x - f y) / d; for a row with f = 0 in the pivot column
that is the exact scaling p x / d.
That these are the pivots of plain Gauss-Jordan elimination is tested
against the oracle in the tests, not assumed.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .fields import Field, GaussianRational, GFElement, PrimeField, RationalField, fraction_type


class InternalConsistencyError(RuntimeError):
    """An identity that must hold mathematically failed; this is a bug."""


# the cap on bits times integers of an image over one denominator: 2**28
# bits is 32 MiB, and lets a state of 2**20 rationals share a 256-bit one
MAX_IMAGE_BITS = 2**28
# the count of denominators read between two checks of that cap
CHUNK = 4096


class ShapeError(ValueError):
    """A shape, an index, or the row factors of a flattening are inconsistent."""


class Shape:
    """Factor dimensions (d1, ..., dn) with n in {2, 3} and every di >= 1."""

    __slots__ = ("dims",)

    def __init__(self, dims: Sequence[int]):
        dims = tuple(dims)
        if not 2 <= len(dims) <= 3:
            raise ShapeError(f"supported tensors have 2 or 3 factors, got {len(dims)}")
        if not all(type(d) is int for d in dims):
            raise ShapeError(f"factor dimensions must be ints: {dims}")
        if any(d < 1 for d in dims):
            raise ShapeError(f"factor dimensions must be >= 1: {dims}")
        self.dims = dims

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return prod(self.dims)

    def offset(self, index: Sequence[int]) -> int:
        """Row-major offset of a 0-based multi-index of n ints."""
        if len(index) != len(self.dims) or not all(type(i) is int for i in index):
            raise ShapeError(f"index {tuple(index)} is not {self.n} ints for {self.dims}")
        off = 0
        for d, i in zip(self.dims, index):
            if not 0 <= i < d:
                raise ShapeError(f"index {tuple(index)} out of range for {self.dims}")
            off = off * d + i
        return off

    def offsets(self, axes: Sequence[int]) -> list[int]:
        """Row-major offsets of the indices running over `axes`, others held at 0.

        Axes are 0-based and the first one is outermost, so the offsets of
        every axis in some order list the coefficients in that order.
        """
        out = [0]
        for axis in axes:
            stride = prod(self.dims[axis + 1 :])
            out = [o + i * stride for o in out for i in range(self.dims[axis])]
        return out

    def indices(self):
        """All 0-based multi-indices in row-major order."""
        return product(*(range(d) for d in self.dims))

    def __eq__(self, other):
        return isinstance(other, Shape) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"Shape{self.dims}"


class Tensor:
    """Immutable dense tensor over one exact field, held as the image of its
    coefficients in lowest terms, so equal tensors have equal `image` and `den`."""

    __slots__ = ("field", "shape", "image", "den")

    def __init__(self, field: Field, shape: Shape, coeffs: Sequence):
        if len(coeffs) != shape.size:
            raise ShapeError(
                f"expected {shape.size} coefficients for shape {shape.dims}, got {len(coeffs)}"
            )
        # `to_image` of field values is in lowest terms already
        image, self.den = to_image(field, [field.coerce(c) for c in coeffs])
        self.field, self.shape, self.image = field, shape, tuple(image)

    @classmethod
    def of_image(cls, field: Field, shape: Shape, image: Sequence[int], den: int = 1) -> "Tensor":
        """The tensor whose coefficients have the image `image` over `den > 0`,
        brought to lowest terms: residues over 1 over GF(p), else integers
        over a den sharing no prime with all of them."""
        if isinstance(field, PrimeField):
            inv = pow(den, -1, field.p)
            image, den = [x * inv % field.p for x in image], 1
        elif den > 1 and (g := gcd(den, *image)) > 1:
            image, den = [x // g for x in image], den // g
        v = cls.__new__(cls)
        # tuple() of a list allocates the exact size once, keeping the heap compact
        v.field, v.shape, v.image, v.den = field, shape, tuple(image), den
        return v

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field values, converted from the image on each call."""
        return tuple(from_image(self.field, self.image, self.den))

    def __getitem__(self, index) -> object:
        e = self.field.width
        k = e * self.shape.offset(index)
        return from_image(self.field, self.image[k : k + e], self.den)[0]

    def scale(self, scalar) -> "Tensor":
        """This tensor times a scalar: the scalar's image multiplies every entry of its image."""
        field = self.field
        s, den = to_image(field, [field.coerce(scalar)])
        return Tensor.of_image(field, self.shape, scaled(self.image, s), den * self.den)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.field == other.field
            and self.shape == other.shape
            and self.den == other.den
            and self.image == other.image
        )

    def __repr__(self):
        vals = ", ".join(self.field.format(c) for c in self.coeffs)
        return f"{type(self).__name__}({self.shape.dims} over {self.field.descriptor}: [{vals}])"


class ExactMatrix(Tensor):
    """A rows x cols matrix over one exact field: a tensor of shape
    (rows, cols), whose rank is computed on the first call and kept."""

    __slots__ = ("_rank",)

    def __init__(self, field: Field, rows: int, cols: int, values: Sequence):
        super().__init__(field, Shape((rows, cols)), values)
        self._rank = None

    @classmethod
    def of_image(cls, field: Field, rows: int, cols: int, image: Sequence[int],
                 den: int = 1) -> "ExactMatrix":
        """The matrix whose entries, row by row, have the image `image` over `den > 0`."""
        m = super().of_image(field, Shape((rows, cols)), image, den)
        m._rank = None
        return m

    @property
    def rows(self) -> int:
        return self.shape.dims[0]

    @property
    def cols(self) -> int:
        return self.shape.dims[1]

    @property
    def entries(self) -> list:
        """The entries as field values, row by row, converted from the image on each call."""
        return from_image(self.field, self.image, self.den)

    def image_rows(self) -> list[list[int]]:
        """The image row by row, as fresh lists that elimination may overwrite."""
        w = self.field.width * self.cols
        return [list(self.image[w * i : w * (i + 1)]) for i in range(self.rows)]

    def rank(self) -> int:
        """Number of pivot columns of the reduced row echelon form, by integer
        elimination of the image on the first call and kept, as the image is
        never mutated."""
        if self._rank is None:
            self._rank = len(eliminate(self.field, self.image_rows(), self.cols))
        return self._rank


# -- integer elimination -----------------------------------------------


def to_image(field: Field, values: Sequence) -> tuple[list[int], int]:
    """The image of a vector of values, and its common denominator.

    The denominator is 1 over GF(p); over Q(i), entry k of the image x
    is (x[2k] + x[2k + 1] i) / den.
    """
    if isinstance(field, PrimeField):
        return [x.value for x in values], 1
    if not isinstance(field, RationalField):
        values = [t for x in values for t in (x.re, x.im)]
    return cleared([t for x in values for t in (x.numerator, x.denominator)])


def from_image(field: Field, image: list[int], den: int) -> list:
    """The values whose image over the denominator `den` is `image`: its
    integers over den, times den^-1 mod p, or its pairs over den."""
    if isinstance(field, PrimeField):
        inv = pow(den, -1, field.p)
        return [GFElement(x * inv % field.p, field.p) for x in image]
    Fraction = fraction_type()
    if isinstance(field, RationalField):
        return [Fraction(x, den) for x in image]
    return [GaussianRational(Fraction(a, den), Fraction(b, den))
            for a, b in zip(image[::2], image[1::2])]


def action_rows(rows: list[list[int]]) -> list[list[int]]:
    """The integer rows through which a square matrix acts on images.

    `rows` are the rows of the matrix's image.  Over Q(i) (two integers
    an entry) row i gives two rows, the real and the imaginary part of
    the product: an entry p + qi acts on an entry's pair as the block
    [[p, -q], [q, p]].
    """
    if len(rows[0]) == len(rows):
        return rows
    return [g for row in rows for g in gaussian_rows(zip(row[::2], row[1::2]))]


def gaussian_rows(pairs) -> tuple[list[int], list[int]]:
    """For entries p + qi given as pairs (p, q), the rows (p, -q, ...) and
    (q, p, ...): their dot products with a vector of Gaussian integers,
    two integers an entry, are the real and imaginary parts of its dot
    product with the entries."""
    pairs = list(pairs)
    return [t for p, q in pairs for t in (p, -q)], [t for p, q in pairs for t in (q, p)]


def scaled(image: list[int], s: list[int]) -> list[int]:
    """`image` with every entry multiplied by the one whose image is `s`."""
    e, rows = len(s), action_rows([s])
    return [sum(map(mul, row, image[k : k + e])) for k in range(0, len(image), e) for row in rows]


def eliminate(field: Field, image: list[list[int]], cols: int, jordan: bool = False) -> list[int]:
    """Pivot columns of a matrix with `cols` columns, by fraction-free
    (Bareiss) elimination of its image, which is overwritten; the pivot
    is the first nonzero entry in column order.

    Bareiss's elimination is exact over any integral domain: Z for Q, the
    Gaussian integers Z[i] for Q(i), and Z/p for GF(p), whose rows are
    reduced mod p as they enter (the k123 system holds unreduced dot
    products).  At each pivot p one call of the ring's kernel writes every
    other row x once by the step (p x - f y) / prev, with y the pivot row,
    f the entry of x in the pivot column and prev the previous pivot; a
    row with f = 0 is scaled by p / prev.  Entries stay minors of the
    input, so intermediate growth is polynomial and every division is
    exact; a nonzero remainder would mean a bug, not a data issue.

    With `jordan`, each step also clears above the pivot (Gauss-Jordan)
    by the same step; every pivot row ends as D times its row of the
    reduced row echelon form, D the last pivot (a Gaussian integer over
    Q(i), a residue over GF(p)), whose entries are again minors.
    """
    e = field.width  # integers per entry: entry c of a row x is x[e c : e c + e]
    if isinstance(field, PrimeField):
        step = partial(_step_zp, field.p)
        for row in image:
            row[:] = [x % field.p for x in row]
    else:
        step = _step_z if e == 1 else _step_zi
    nr, last = len(image), e - 1
    pivots, prev = [], 1 if e == 1 else (1, 0)
    for c in range(cols):
        rank, k = len(pivots), e * c
        for piv in range(rank, nr):
            if image[piv][k] or image[piv][k + last]:
                break
        else:
            continue
        image[rank], image[piv] = image[piv], image[rank]
        prev = step(image[rank], image[:rank] if jordan else (), image[rank + 1 :], k, prev)
        pivots.append(c)
    return pivots


def capped(count: int, den: int, dens: Sequence[int]) -> int:
    """lcm(den, *dens) as the denominator of an image of `count` integers,
    each about as large: refused by a ValueError once its bit length times
    the count passes MAX_IMAGE_BITS."""
    den = lcm(den, *dens)
    if count * den.bit_length() > MAX_IMAGE_BITS:
        raise ValueError(f"{count} integers over one denominator of {den.bit_length()}+ "
                         f"bits pass the cap of {MAX_IMAGE_BITS} bits on an image")
    return den


def cleared(pairs: Sequence[int]) -> tuple[list[int], int]:
    """The integers n / d, given as the flat pairs n, d, ..., over their
    least common denominator, and that denominator, `capped` as each
    CHUNK of the d is read."""
    count, den = len(pairs) // 2, 1
    for k in range(1, 2 * count, 2 * CHUNK):
        den = capped(count, den, pairs[k : k + 2 * CHUNK : 2])
    return over_den(pairs, den), den


def over_den(pairs: Sequence[int], den: int) -> list[int]:
    """The integers n / d, given as the flat pairs n, d, ..., over `den`,
    a common multiple of the d."""
    it = iter(pairs)
    # an integer already over den is kept, not copied
    return [n if d == den else n * (den // d) for n, d in zip(it, it)]


# -- the pivot kernel of `eliminate`, one per ring: step(rp, above, below,
# k, d) sets each row x of `above`, and of `below` right of the pivot, to
# (p x - f rp) / d, p and f the entries of rp and x at integer k and d the
# previous pivot (f = 0 scales by p / d), leaves 0 in the pivot column and
# returns p.  Over Z/m, m prime, it takes m first and multiplies by d^-1


def _step_z(rp: list[int], above, below, k: int, d: int) -> int:
    p = rp[k]
    for rows, start in ((above, 0), (below, k + 1)):
        for ri in rows:
            f = ri[k]
            for j in range(start, len(ri)):
                q, rem = divmod(p * ri[j] - f * rp[j], d)
                if rem:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                ri[j] = q
            ri[k] = 0
    return p


def _step_zi(rp: list[int], above, below, k: int, d: tuple[int, int]) -> tuple[int, int]:
    # (p x - f y) / d is (a x - b y) / n for x and y the entries of a row
    # and of rp, a = p conj(d), b = f conj(d) and n = |d|^2; both remainders count
    (pr, pi), (dr, di) = rp[k : k + 2], d
    n, ar, ai = dr * dr + di * di, pr * dr + pi * di, pi * dr - pr * di
    for rows, start in ((above, 0), (below, k + 2)):
        for ri in rows:
            fr, fi = ri[k], ri[k + 1]
            br, bi = fr * dr + fi * di, fi * dr - fr * di
            for j in range(start, len(ri), 2):
                xr, xi, yr, yi = ri[j], ri[j + 1], rp[j], rp[j + 1]
                qr, er = divmod(ar * xr - ai * xi - br * yr + bi * yi, n)
                qi, ei = divmod(ar * xi + ai * xr - br * yi - bi * yr, n)
                if er or ei:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                ri[j], ri[j + 1] = qr, qi
            ri[k] = ri[k + 1] = 0
    return pr, pi


def _step_zp(m: int, rp: list[int], above, below, k: int, d: int) -> int:
    p, inv = rp[k], pow(d, -1, m)
    a = p * inv % m
    for rows, start in ((above, 0), (below, k + 1)):
        for ri in rows:
            b = ri[k] * inv % m
            for j in range(start, len(ri)):
                ri[j] = (a * ri[j] - b * rp[j]) % m
            ri[k] = 0
    return p
