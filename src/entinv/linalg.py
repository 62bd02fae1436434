"""Exact matrices, and the integer image in which all their arithmetic runs.

Field elements are parsed, compared and printed, never multiplied: each
computation runs on an image of integers, one per field.  A vector's
image is its residues over GF(p) and its numerators over one common
denominator over Q; over Q(i) it is Gaussian integers over one common
denominator, the entry a + bi stored as the two integers a, b.
`to_image` and `from_image` are the one way between values and image,
each with one branch per field; a tensor holds its image in lowest
terms, and a matrix is eliminated on the images of its rows, each over
its own denominator.  `eliminate` finds pivots by fraction-free Bareiss
elimination over Z for Q and over the Gaussian integers Z[i] for Q(i),
and on residues over GF(p); there are no tolerances, and the pivot is
the first nonzero entry in column order.
That these are the pivots of plain Gauss-Jordan elimination is tested
against the oracle in the tests, not assumed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .fields import Field, GaussianRational, GFElement, PrimeField, RationalField


class InternalConsistencyError(RuntimeError):
    """An identity that must hold mathematically failed; this is a bug."""


# the cap on bits times integers of an image over one denominator: 2**28
# bits is 32 MiB, and lets a state of 2**20 rationals share a 256-bit one
MAX_IMAGE_BITS = 2**28


class ExactMatrix:
    """A rows x cols matrix of scalars drawn from one exact field."""

    __slots__ = ("field", "rows", "cols", "entries", "_pivots")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(entries)}"
            )
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = [field.coerce(x) for x in entries]
        self._pivots = None

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "ExactMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for row in rows:
            if len(row) != nc:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(field, nr, nc, flat)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field.descriptor}: {body})"

    # -- elimination ---------------------------------------------------

    def pivots(self) -> list[int]:
        """The pivot columns of the reduced row echelon form, by integer
        elimination on the first call.

        Entries are never mutated, so the pivot list is kept for later calls.
        """
        if self._pivots is None:
            image = [to_image(self.field, row)[0] for row in self.row_lists()]
            self._pivots = eliminate(self.field, image, self.cols)
        return list(self._pivots)

    def rank(self) -> int:
        """Number of pivot columns of the reduced row echelon form."""
        return len(self.pivots())


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
    if isinstance(field, RationalField):
        return [Fraction(x, den) for x in image]
    return [GaussianRational(Fraction(a, den), Fraction(b, den))
            for a, b in zip(image[::2], image[1::2])]


def action_rows(image: list[int], d: int) -> list[list[int]]:
    """The integer rows through which a d x d matrix acts on images.

    `image` is the matrix's image, row by row.  Over Q(i) (two integers
    an entry) row i gives two rows, the real and the imaginary part of
    the product: an entry p + qi acts on an entry's pair as the block
    [[p, -q], [q, p]].
    """
    w = len(image) // d
    rows = [image[w * i : w * (i + 1)] for i in range(d)]
    if w == d:
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
    e, rows = len(s), action_rows(s, 1)
    return [sum(map(mul, row, image[k : k + e])) for k in range(0, len(image), e) for row in rows]


def eliminate(field: Field, image: list[list[int]], cols: int, jordan: bool = False) -> list[int]:
    """Pivot columns of a matrix with `cols` columns, eliminating its image.

    Bareiss over Z or, over Q(i), over Z[i]; residues over GF(p).  The
    image is overwritten; with `jordan`, it is left in Gauss-Jordan form:
    D times its reduced row echelon form, where D is the last Bareiss
    pivot (a Gaussian integer over Q(i)), or 1 over GF(p).
    """
    if isinstance(field, PrimeField):
        return _pivots_prime(image, cols, field.p, jordan)
    if isinstance(field, RationalField):
        return _pivots_bareiss(image, cols, jordan)
    return _pivots_gauss(image, cols, jordan)


def image_kernel(field: Field, image: list[list[int]], cols: int) -> list[list[int]]:
    """A kernel basis of a full-row-rank matrix with `cols` columns, from its image.

    One Gauss-Jordan elimination of the image gives its pivot columns P,
    the common pivot D and the reduced rows Y.  Basis vector f has D on
    the free column f, -Y[m][f] on P_m and 0 elsewhere.  The result has
    one row per column and, for each basis vector, the e integers of one
    entry in the image's own layout: over Q(i), D and -Y[m][f] are
    Gaussian integers, two integers each.
    """
    e = len(image[0]) // cols  # integers per entry: 2 over Q(i), else 1
    pivots = eliminate(field, image, cols, jordan=True)
    if len(pivots) < len(image):
        raise InternalConsistencyError(f"rank {len(image)} matrix has {len(pivots)} pivots")
    d, zero = image[0][e * pivots[0] : e * pivots[0] + e], [0] * e
    free = [q for q in range(cols) if q not in pivots]
    basis = [[t for f in free for t in (d if q == f else zero)] for q in range(cols)]
    for row, p in zip(image, pivots):
        basis[p] = [-row[e * f + u] for f in free for u in range(e)]
    return basis


def cleared(pairs: Sequence[int]) -> tuple[list[int], int]:
    """The integers n / d, given as the flat pairs n, d, ..., over their
    least common denominator, and that denominator.  An image holds an
    integer about as large as it for each n, so one whose bit length times
    the count passes MAX_IMAGE_BITS is refused by a ValueError first."""
    count, den = len(pairs) // 2, 1
    for k in range(0, 2 * count, 8192):
        den = lcm(den, *pairs[k + 1 : k + 8192 : 2])
        if count * den.bit_length() > MAX_IMAGE_BITS:
            raise ValueError(f"{count} integers over one denominator of {den.bit_length()}+ "
                             f"bits pass the cap of {MAX_IMAGE_BITS} bits on an image")
    it = iter(pairs)
    # an integer already over den is kept, not copied
    return [n if d == den else n * (den // d) for n, d in zip(it, it)], den


def _pivots_bareiss(rows: list[list[int]], cols: int, jordan: bool = False) -> list[int]:
    """Pivot columns of an integer matrix by fraction-free (Bareiss) elimination.

    Entries stay exact minors of the input, so intermediate growth is
    polynomial and every division below is exact; a nonzero remainder
    would mean a bug, not a data issue.

    A row whose entry in the pivot column is 0 is left alone: a Bareiss
    step would only scale it by p / prev, and those factors telescope.
    So a row last written at the step whose pivot was den[i] holds its
    Bareiss value times den[i] / prev.  Its next write divides by den[i]
    instead of prev, and a row that becomes the pivot row is first scaled
    by prev / den[i]; both results are the Bareiss values themselves, so
    both divisions are exact and the pivots are those of the full loop.

    With `jordan`, each step also clears the pivot column above the pivot
    row (Gauss-Jordan), by the same rule, and the pivot rows are finally
    scaled to the last pivot D: the rows become D times the reduced row
    echelon form, whose entries are again minors of the input.
    """
    nr = len(rows)
    den = [1] * nr
    pivots = []
    prev = 1
    for c in range(cols):
        rank = len(pivots)
        piv = None
        for i in range(rank, nr):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        den[rank], den[piv] = den[piv], den[rank]
        rp = rows[rank]
        if den[rank] != prev:
            _scale(rp, prev, den[rank], c)
        p = rp[c]
        # a pivot row is not written at its own step: its Bareiss value
        # at this step is its value now
        den[rank] = p
        for i in range(0 if jordan else rank + 1, nr):
            ri = rows[i]
            f = ri[c]
            if f == 0 or i == rank:
                continue
            d = den[i]
            # a row below the pivot row is 0 left of column c
            for j in range(0 if i < rank else c + 1, cols):
                q, rem = divmod(p * ri[j] - f * rp[j], d)
                if rem:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                ri[j] = q
            ri[c] = 0
            den[i] = p
        prev = p
        pivots.append(c)
    if jordan:
        for i in range(len(pivots)):
            if den[i] != prev:
                _scale(rows[i], prev, den[i], 0)
    return pivots


def _scale(row: list[int], num: int, den: int, start: int) -> None:
    """Multiply row[start:] by num / den in place, checking exactness."""
    for j in range(start, len(row)):
        q, rem = divmod(num * row[j], den)
        if rem:
            raise InternalConsistencyError("inexact division in Bareiss step")
        row[j] = q


def _pivots_gauss(rows: list[list[int]], cols: int, jordan: bool = False) -> list[int]:
    """`_pivots_bareiss` over the Gaussian integers, for `to_image` rows over Q(i).

    Bareiss's elimination is fraction-free over any integral domain, and
    Z[i] is one: entries stay minors of the input, now Gaussian, and the
    pivot rule, the rows left alone, their den, the Gauss-Jordan clearing
    and the final scaling to D are those of `_pivots_bareiss`.  Entry c of
    a row x is x[2c] + x[2c + 1] i.  A division x / d is x conj(d) / |d|^2
    in integers, and both remainders are checked.
    """
    nr = len(rows)
    den = [(1, 0)] * nr
    pivots = []
    prev = (1, 0)
    for c in range(cols):
        rank = len(pivots)
        k = 2 * c
        piv = None
        for i in range(rank, nr):
            if rows[i][k] or rows[i][k + 1]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        den[rank], den[piv] = den[piv], den[rank]
        rp = rows[rank]
        if den[rank] != prev:
            _scale_gauss(rp, prev, den[rank], k)
        p = pr, pi = rp[k], rp[k + 1]
        den[rank] = p
        for i in range(0 if jordan else rank + 1, nr):
            ri = rows[i]
            fr, fi = ri[k], ri[k + 1]
            if not (fr or fi) or i == rank:
                continue
            # (p x - f y) / d is (a x - b y) / n for x and y the entries of
            # ri and rp, a = p conj(d), b = f conj(d) and n = |d|^2
            dr, di = den[i]
            n = dr * dr + di * di
            ar, ai = pr * dr + pi * di, pi * dr - pr * di
            br, bi = fr * dr + fi * di, fi * dr - fr * di
            for j in range(0 if i < rank else k + 2, 2 * cols, 2):
                xr, xi, yr, yi = ri[j], ri[j + 1], rp[j], rp[j + 1]
                qr, er = divmod(ar * xr - ai * xi - br * yr + bi * yi, n)
                qi, ei = divmod(ar * xi + ai * xr - br * yi - bi * yr, n)
                if er or ei:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                ri[j] = qr
                ri[j + 1] = qi
            ri[k] = ri[k + 1] = 0
            den[i] = p
        prev = p
        pivots.append(c)
    if jordan:
        for i in range(len(pivots)):
            if den[i] != prev:
                _scale_gauss(rows[i], prev, den[i], 0)
    return pivots


def _scale_gauss(row: list[int], num: tuple[int, int], den: tuple[int, int], start: int) -> None:
    """Multiply the Gaussian entries of row[start:] by num / den in place,
    checking exactness; num and den are (re, im) pairs."""
    (ur, ui), (dr, di) = num, den
    n = dr * dr + di * di
    # num conj(den) / n, in integers
    ur, ui = ur * dr + ui * di, ui * dr - ur * di
    for j in range(start, len(row), 2):
        xr, xi = row[j], row[j + 1]
        qr, er = divmod(xr * ur - xi * ui, n)
        qi, ei = divmod(xr * ui + xi * ur, n)
        if er or ei:
            raise InternalConsistencyError("inexact division in Bareiss step")
        row[j] = qr
        row[j + 1] = qi


def _pivots_prime(rows: list[list[int]], cols: int, p: int, jordan: bool = False) -> list[int]:
    """Pivot columns of a matrix of residues mod p; with `jordan`, the rows
    are left in reduced row echelon form mod p (pivots 1)."""
    nr = len(rows)
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        piv = None
        for i in range(rank, nr):
            if rows[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rp = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(0 if jordan else rank + 1, nr):
            f = rows[i][c] % p
            if f and i != rank:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rp)]
        pivots.append(c)
    return pivots
