"""Dense tensors over exact fields, flattenings, and local transformations.

A tensor of shape (d1, ..., dn), n in {2, 3}, stores its coefficients
row-major (last index fastest), and only `Shape` knows that layout: a
flattening, a fiber of the local action and a block of the k123 system
each read the coefficient tuple through `Shape.offsets` of some axes.
Flattening against an ordered bipartition of the factors produces an
:class:`~entinv.linalg.ExactMatrix`; states are built either
coefficient-by-coefficient or from bracket-notation term lists like
[1,1,1]+[2,2,1] (1-based indices, converted at the boundary) in the
standard basis.  `apply_local` is the one local action: it moves
a state into other bases or along a local orbit.  A tensor stores field
values; `apply_local` and `Tensor.scale` compute on its integer image
(see :mod:`~entinv.linalg`) and convert the result back once.
"""

from __future__ import annotations

import random
from itertools import product
from math import prod
from operator import mul
from typing import Sequence

from .fields import QQ, QQI, Field, GaussianRational
from .linalg import ExactMatrix, action_rows, from_image, scaled, to_image


class ShapeError(ValueError):
    """A shape, index, or flattening specification is inconsistent."""


class ArityError(ShapeError):
    """An operation that needs a specific subsystem count got another."""


class BasisError(ValueError):
    """A supplied basis or local map is not invertible (or malformed)."""


class Shape:
    """Factor dimensions (d1, ..., dn) with n in {2, 3} and every di >= 1."""

    __slots__ = ("dims",)

    def __init__(self, dims: Sequence[int]):
        dims = tuple(int(d) for d in dims)
        if not 2 <= len(dims) <= 3:
            raise ShapeError(f"supported tensors have 2 or 3 factors, got {len(dims)}")
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
        """Row-major offset of a 0-based multi-index."""
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


class FlatteningSpec:
    """An ordered bipartition of factor positions (1-based, increasing).

    `row_factors` index the side whose tensor product forms matrix rows;
    the complementary factors form the columns.
    """

    __slots__ = ("n", "row_factors", "col_factors")

    def __init__(self, row_factors: Sequence[int], n: int):
        rows = tuple(sorted(set(int(i) for i in row_factors)))
        if len(rows) != len(tuple(row_factors)):
            raise ShapeError(f"duplicate factors in {tuple(row_factors)}")
        if not rows:
            raise ShapeError("row factor set must be nonempty")
        if any(i < 1 or i > n for i in rows):
            raise ShapeError(f"factor positions must lie in 1..{n}: {rows}")
        if len(rows) == n:
            raise ShapeError("row factor set must be a proper subset")
        self.n = n
        self.row_factors = rows
        self.col_factors = tuple(i for i in range(1, n + 1) if i not in rows)

    def complement(self) -> "FlatteningSpec":
        return FlatteningSpec(self.col_factors, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, FlatteningSpec)
            and self.n == other.n
            and self.row_factors == other.row_factors
        )

    def __hash__(self):
        return hash((self.n, self.row_factors))

    def __repr__(self):
        return f"FlatteningSpec(rows={self.row_factors}, n={self.n})"


class Tensor:
    """Immutable dense tensor over one exact field."""

    __slots__ = ("field", "shape", "coeffs")

    def __init__(self, field: Field, shape: Shape, coeffs: Sequence):
        if len(coeffs) != shape.size:
            raise ShapeError(
                f"expected {shape.size} coefficients for shape {shape.dims}, got {len(coeffs)}"
            )
        self.field = field
        self.shape = shape
        # from a list, not a generator: tuple() then allocates the exact
        # size once instead of growing it, which keeps the heap compact
        self.coeffs = tuple([field.coerce(c) for c in coeffs])

    @property
    def n(self) -> int:
        return self.shape.n

    def __getitem__(self, index) -> object:
        return self.coeffs[self.shape.offset(index)]

    def scale(self, scalar) -> "Tensor":
        """This tensor times a scalar: the scalar's image multiplies every entry of its image."""
        field = self.field
        s, den = to_image(field, [field.coerce(scalar)])
        x, d = to_image(field, self.coeffs)
        return Tensor(field, self.shape, from_image(field, scaled(x, s), den * d))

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.field == other.field
            and self.shape == other.shape
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        vals = ", ".join(self.field.format(c) for c in self.coeffs)
        return f"Tensor({self.shape.dims} over {self.field.descriptor}: [{vals}])"


def flatten(v: Tensor, spec: FlatteningSpec) -> ExactMatrix:
    """Matrix of `v` against the given bipartition.

    Entry [r, c] is the coefficient of v at the multi-index merging the
    row-side and column-side indices; both sides are flattened row-major
    in increasing factor order.  The complementary spec gives the
    transpose.
    """
    if spec.n != v.n:
        raise ShapeError(f"spec for n={spec.n} applied to n={v.n} tensor")
    nrows = prod(v.shape.dims[i - 1] for i in spec.row_factors)
    axes = [i - 1 for i in spec.row_factors + spec.col_factors]
    coeffs = v.coeffs
    entries = [coeffs[o] for o in v.shape.offsets(axes)]
    return ExactMatrix(v.field, nrows, v.shape.size // nrows, entries)


def from_terms(shape: Shape, terms: Sequence[Sequence[int]], field: Field = QQ) -> Tensor:
    """Sum of decomposable terms given in 1-based bracket notation.

    Term (j1, ..., jn) is the standard basis vector e_{j1} x ... x e_{jn},
    so each distinct term lands as a single unit coefficient.  To write
    the state in other bases, act on it with `apply_local`.
    """
    counts = [0] * shape.size
    for term in terms:
        if len(term) != shape.n:
            raise ShapeError(f"term {tuple(term)} has wrong arity for {shape.dims}")
        for j, d in zip(term, shape.dims):
            if not 1 <= j <= d:
                raise ShapeError(f"term index {tuple(term)} out of range for {shape.dims}")
        counts[shape.offset(tuple(j - 1 for j in term))] += 1
    return Tensor(field, shape, counts)


def apply_local(v: Tensor, maps: Sequence[ExactMatrix]) -> Tensor:
    """Act on each factor with an invertible matrix.

    Coefficients transform as v'[a1', ..., an'] =
    sum A1[a1', a1] ... An[an', an] v[a1, ..., an].  Every map is checked
    before any arithmetic; then v and each map are imaged once, the maps
    act on v's image, and the denominators multiply.
    """
    if len(maps) != v.n:
        raise ShapeError(f"need {v.n} local maps, got {len(maps)}")
    for i, a in enumerate(maps):
        d = v.shape.dims[i]
        if a.rows != d or a.cols != d:
            raise ShapeError(f"local map for factor {i + 1} must be {d}x{d}")
        if a.field != v.field:
            raise ShapeError(f"local map for factor {i + 1} is over the wrong field")
        if a.rank() < d:
            raise BasisError(f"local map for factor {i + 1} is singular")
    x, den = to_image(v.field, v.coeffs)
    for axis, a in enumerate(maps):
        image, d = to_image(v.field, a.entries)
        x = _mode_apply(x, v.shape, axis, action_rows(image, a.rows))
        den *= d
    return Tensor(v.field, v.shape, from_image(v.field, x, den))


def _mode_apply(x: list[int], shape: Shape, axis: int, rows: list[list[int]]) -> list[int]:
    """Apply the `action_rows` of a map to every fiber of the image x along
    `axis`: the integers `step` from each base, e per entry."""
    e = len(rows) // shape.dims[axis]
    step = [e * s + u for s in shape.offsets([axis]) for u in range(e)]
    out = [0] * len(x)
    for base in shape.offsets([i for i in range(shape.n) if i != axis]):
        base *= e
        fiber = [x[base + s] for s in step]
        for s, row in zip(step, rows):
            out[base + s] = sum(map(mul, row, fiber))
    return out


def _draw(rng: random.Random, bound: int, field: Field):
    """An integer uniform in [-bound, bound]; over Q(i) a second one is the imaginary part."""
    n = rng.randint(-bound, bound)
    if field == QQI:
        return GaussianRational(n, rng.randint(-bound, bound))
    return field.coerce(n)


def random_tensor(shape: Shape, bound: int, seed: int, field: Field = QQ) -> Tensor:
    """Deterministic tensor of integer coefficients uniform in [-bound, bound] (see _draw)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rng = random.Random(f"tensor|{shape.dims}|{bound}|{seed}")
    return Tensor(field, shape, [_draw(rng, bound, field) for _ in range(shape.size)])


def random_invertible(d: int, bound: int, seed: int, field: Field = QQ) -> ExactMatrix:
    """Deterministic invertible d x d matrix of `_draw` entries, by rejection sampling."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rng = random.Random(f"invertible|{d}|{bound}|{seed}")
    while True:
        m = ExactMatrix(field, d, d, [_draw(rng, bound, field) for _ in range(d * d)])
        if m.rank() == d:
            return m
