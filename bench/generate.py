"""Seeded benchmark inputs: class representatives written in random bases.

Each basis is a product L*U of a random lower- and a random
upper-unitriangular matrix, so its determinant is 1 over Q, Q(i) and
GF(p) and no invertibility check is needed.  A state is the sum of a
table entry's terms [j1,...,jn] -> u_{1,j1} (x) ... (x) u_{n,jn}, where
u_{i,j} is column j of the basis of factor i, so its expected class is the
entry it was built from.  The arithmetic here is the benchmark's own
(ints, Fractions, Gaussian integers as int pairs); only the class tables
come from the program.  The same arguments always give byte-identical
documents.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

import entinv

GF_P = 101
_GAUSSIAN_UNITS_AND_SUMS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


class _Ring:
    """Element arithmetic and formatting for one document field."""

    def __init__(self, descriptor: str):
        self.descriptor = descriptor
        self.gaussian = descriptor == "gaussian-rational"
        self.modulus = GF_P if descriptor == f"gf({GF_P})" else None
        if not (self.gaussian or self.modulus or descriptor == "rational"):
            raise ValueError(f"no generator for field {descriptor!r}")
        self.zero = (0, 0) if self.gaussian else Fraction(0)
        self.one = (1, 0) if self.gaussian else Fraction(1)

    def add(self, a, b):
        if self.gaussian:
            return (a[0] + b[0], a[1] + b[1])
        return a + b

    def mul(self, a, b):
        if self.gaussian:
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        return a * b

    def draw(self, rng: random.Random, rational: bool):
        """A nonzero off-diagonal unitriangular entry.

        Never zero, so that every basis is dense and the cost of a state
        depends on its class rather than on how sparse its bases came out.
        """
        if self.gaussian:
            return rng.choice(_GAUSSIAN_UNITS_AND_SUMS)
        if self.modulus:
            return Fraction(rng.randrange(1, self.modulus))
        if rational:
            return Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        return Fraction(rng.choice((-1, 1)))

    def format(self, x) -> str:
        if self.gaussian:
            re, im = x
            if im == 0:
                return str(re)
            if re == 0:
                return f"{im}i"
            return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"
        if self.modulus:
            return str(x % self.modulus)
        return str(x)


def random_basis(ring: _Ring, d: int, rng: random.Random, rational: bool = False) -> list[list]:
    """Rows of L*U for random unitriangular L (lower) and U (upper)."""
    lower = [[ring.one if i == j else ring.draw(rng, rational) if j < i else ring.zero
              for j in range(d)] for i in range(d)]
    upper = [[ring.one if i == j else ring.draw(rng, rational) if j > i else ring.zero
              for j in range(d)] for i in range(d)]
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = ring.zero
            for k in range(min(i, j) + 1):
                acc = ring.add(acc, ring.mul(lower[i][k], upper[k][j]))
            row.append(acc)
        out.append(row)
    return out


def state_document(ring: _Ring, dims: tuple[int, ...], terms, bases) -> str:
    """Dense JSON document of the sum of `terms` in the given bases."""
    coeffs = []
    for index in product(*(range(d) for d in dims)):
        acc = ring.zero
        for term in terms:
            p = ring.one
            for basis, a, j in zip(bases, index, term):
                p = ring.mul(p, basis[a][j - 1])
            acc = ring.add(acc, p)
        coeffs.append(ring.format(acc))
    doc = {"field": ring.descriptor, "dims": list(dims), "entries": coeffs}
    return json.dumps(doc, separators=(",", ":"))


def class_state(field: str, dims: tuple[int, ...], label: str, rng: random.Random,
                rational: bool = False) -> str:
    """Document of class `label` at `dims`, written in fresh random bases."""
    entry = next(e for e in table_entries(dims) if e.label == label)
    ring = _Ring(field)
    bases = [random_basis(ring, d, rng, rational) for d in dims]
    return state_document(ring, dims, entry.terms, bases)


def table_entries(dims: tuple[int, ...]):
    return entinv.table_for(entinv.Shape(dims)).entries


def class_labels(dims: tuple[int, ...]) -> list[str]:
    return [e.label for e in table_entries(dims)]
