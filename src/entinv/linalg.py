"""Exact matrices with reduced row echelon form, pivots, and rank.

All arithmetic is exact field arithmetic; there are no tolerances and no
pivoting heuristics (the first nonzero entry in column order is the pivot).
`pivots` and `rank` eliminate integers only (Bareiss over Q and over the
rational image of Q(i), residues over GF(p)); their agreement with the
pivots of `rref` is a tested invariant, not an assumption.
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
            self._pivots = _eliminate(self.field, self.row_lists(), self.cols)
        return list(self._pivots)

    def rank(self) -> int:
        """Number of pivot columns of the reduced row echelon form."""
        return len(self.pivots())


# -- fraction-free fast paths ------------------------------------------


def _eliminate(field: Field, rows: list[list], cols: int) -> list[int]:
    if isinstance(field, PrimeField):
        return _pivots_prime(rows, cols, field.p)
    if isinstance(field, RationalField):
        return _pivots_bareiss(_integer_rows(rows), cols)
    image = []
    for ab in _integer_rows([[t for x in row for t in (x.re, x.im)] for row in rows]):
        image.append([-t if k % 2 else t for k, t in enumerate(ab)])
        image.append([ab[k ^ 1] for k in range(len(ab))])
    paired = _pivots_bareiss(image, 2 * cols)
    pivots = [c // 2 for c in paired[::2]]
    if paired != [2 * c + j for c in pivots for j in (0, 1)]:
        raise InternalConsistencyError("pivots of the rational image are not paired")
    return pivots


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    int_rows = []
    for row in rows:
        # a list, not a generator: an `f(*generator)` argument tuple is
        # grown to size, and CPython keeps up to 2,000 of each size freed
        scale = lcm(*[x.denominator for x in row])
        int_rows.append([x.numerator * (scale // x.denominator) for x in row])
    return int_rows


def _pivots_bareiss(rows: list[list[int]], cols: int) -> list[int]:
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
        d = den[rank]
        if d != prev:
            for j in range(c, cols):
                q, rem = divmod(prev * rp[j], d)
                if rem:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                rp[j] = q
        p = rp[c]
        for i in range(rank + 1, nr):
            ri = rows[i]
            f = ri[c]
            if f == 0:
                continue
            d = den[i]
            for j in range(c + 1, cols):
                q, rem = divmod(p * ri[j] - f * rp[j], d)
                if rem:
                    raise InternalConsistencyError("inexact division in Bareiss step")
                ri[j] = q
            ri[c] = 0
            den[i] = p
        prev = p
        pivots.append(c)
    return pivots


def _pivots_prime(rows: list[list], cols: int, p: int) -> list[int]:
    m = [[x.value for x in row] for row in rows]
    nr = len(m)
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        piv = None
        for i in range(rank, nr):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, nr):
            f = m[i][c]
            if f:
                mr = m[rank]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], mr)]
        pivots.append(c)
    return pivots
