"""Exact matrices with reduced row echelon form, pivots, and rank.

All arithmetic is exact field arithmetic; there are no tolerances and no
pivoting heuristics (the first nonzero entry in column order is the pivot).
`pivots` and `rank` eliminate integers only: fraction-free Bareiss over
Z for Q and over the Gaussian integers Z[i] for Q(i), residues over
GF(p).  Their agreement with the pivots of `rref` is a tested invariant,
not an assumption.  The tripartite signature of `invariants` works in the
same integer image: `integer_image`, `image_kernel` and `eliminate`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .fields import Field, PrimeField, RationalField


class InternalConsistencyError(RuntimeError):
    """An identity that must hold mathematically failed; this is a bug."""


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

    def rref(self) -> tuple["ExactMatrix", list[int]]:
        """Reduced row echelon form and the ordered pivot column indices.

        Row space is preserved, pivots are 1 with zeros above and below,
        and the result is deterministic: pivots are the first nonzero
        entries in column order.
        """
        m = self.row_lists()
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            piv = None
            for i in range(r, self.rows):
                if m[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv_p = self.field.one / m[r][c]
            m[r] = [x * inv_p for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        flat = [x for row in m for x in row]
        return ExactMatrix(self.field, self.rows, self.cols, flat), pivots

    def pivots(self) -> list[int]:
        """The pivot columns of `rref()`, by integer elimination on the first call.

        Entries are never mutated, so the pivot list is kept for later calls.
        """
        if self._pivots is None:
            image = integer_image(self.field, self.row_lists())
            self._pivots = eliminate(self.field, image, self.cols)
        return list(self._pivots)

    def rank(self) -> int:
        """Number of pivot columns of the reduced row echelon form."""
        return len(self.pivots())


# -- integer elimination -----------------------------------------------


def integer_image(field: Field, rows: list[list]) -> list[list[int]]:
    """Integer rows whose elimination gives the pivots of `rows`, row for row.

    Cleared denominators over Q and residues over GF(p).  Over Q(i) each
    row is a row of Gaussian integers over one cleared denominator, the
    entry a + bi stored as the e = 2 integers a, b: entry k of a row x is
    x[2k] + x[2k + 1] i.
    """
    if isinstance(field, PrimeField):
        return [[x.value for x in row] for row in rows]
    if isinstance(field, RationalField):
        return _integer_rows(rows)
    return _integer_rows([[t for x in row for t in (x.re, x.im)] for row in rows])


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


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    int_rows = []
    for row in rows:
        # a list, not a generator: an `f(*generator)` argument tuple is
        # grown to size, and CPython keeps up to 2,000 of each size freed
        scale = lcm(*[x.denominator for x in row])
        int_rows.append([x.numerator * (scale // x.denominator) for x in row])
    return int_rows


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
    """`_pivots_bareiss` over the Gaussian integers, for `integer_image` rows over Q(i).

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
