"""Exact matrices with reduced row echelon form, pivots, and rank.

All arithmetic is exact field arithmetic; there are no tolerances and no
pivoting heuristics (the first nonzero entry in column order is the pivot).
`pivots` and `rank` eliminate integers only (Bareiss over Q and over the
rational image of Q(i), residues over GF(p)); their agreement with the
pivots of `rref` is a tested invariant, not an assumption.  The tripartite
signature of `invariants` works in the same integer image: `integer_image`,
`image_kernel` and `eliminate`.
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

        Over Q(i), a + bi acts on Q^2 as [[a, -b], [b, a]]; column c is a
        pivot exactly when columns 2c and 2c + 1 of that rational image are.
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
    """Integer rows whose elimination gives the pivots of `rows`.

    Cleared denominators over Q and residues over GF(p), row for row.  Over
    Q(i) the rational image: a + bi becomes the block [[a, -b], [b, a]],
    so a row of n entries gives e = 2 image rows x of 2n integers, and
    entry k is the block [[x[e k + u] for u in range(e)] for x in them].
    The block map is a ring homomorphism, so the image of a product is
    the product of the images.
    """
    if isinstance(field, PrimeField):
        return [[x.value for x in row] for row in rows]
    if isinstance(field, RationalField):
        return _integer_rows(rows)
    image = []
    for ab in _integer_rows([[t for x in row for t in (x.re, x.im)] for row in rows]):
        image.append([-t if k % 2 else t for k, t in enumerate(ab)])
        image.append([ab[k ^ 1] for k in range(len(ab))])
    return image


def eliminate(field: Field, image: list[list[int]], cols: int, jordan: bool = False) -> list[int]:
    """Pivot columns of a matrix with `cols` columns, eliminating its image.

    Over Q(i), column c is a pivot when image columns 2c and 2c + 1 are;
    unpaired image pivots are a bug.  The image is overwritten; with
    `jordan`, it is left in Gauss-Jordan form: D times its reduced row
    echelon form, where D is the last Bareiss pivot, or 1 over GF(p).
    """
    if isinstance(field, PrimeField):
        return _pivots_prime(image, cols, field.p, jordan)
    if isinstance(field, RationalField):
        return _pivots_bareiss(image, cols, jordan)
    paired = _pivots_bareiss(image, 2 * cols, jordan)
    pivots = [c // 2 for c in paired[::2]]
    if paired != [2 * c + j for c in pivots for j in (0, 1)]:
        raise InternalConsistencyError("pivots of the rational image are not paired")
    return pivots


def image_kernel(field: Field, image: list[list[int]], cols: int) -> list[list[int]]:
    """A kernel basis of a full-row-rank matrix with `cols` columns, from its image.

    One Gauss-Jordan elimination of the image gives its pivot columns P,
    the common pivot D and the reduced rows Y.  Basis vector f has D on
    the free column f, -Y[m][f] on P_m and 0 elsewhere.  The result has
    one row per image column and one column per basis vector, all in the
    image's integers.  Over Q(i) it is the image of a kernel basis over
    Q(i), as the reduced form of an image is the image of the reduced form.
    """
    e = len(image[0]) // cols  # image columns per column: 2 over Q(i), else 1
    pivots = [e * c + u for c in eliminate(field, image, cols, jordan=True) for u in range(e)]
    if len(pivots) < len(image):
        raise InternalConsistencyError(f"rank {len(image)} matrix has {len(pivots)} pivots")
    d = image[0][pivots[0]]
    free = [q for q in range(e * cols) if q not in pivots]
    basis = [[d if q == f else 0 for f in free] for q in range(e * cols)]
    for row, p in zip(image, pivots):
        basis[p] = [-row[f] for f in free]
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
