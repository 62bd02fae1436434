"""Dense tensors over exact fields, flattenings, and local transformations.

A tensor of shape (d1, ..., dn), n in {2, 3}, stores its coefficients
row-major (last index fastest), and only `Shape` knows that layout: a
flattening, a fiber of the local action and a block of the k123 system
each read the coefficients through `Shape.offsets` of some axes.
A flattening reads a tensor as an :class:`~entinv.linalg.ExactMatrix`
whose rows are indexed by some of its factors, named 1-based; states are
built either coefficient-by-coefficient or from bracket-notation term
lists like [1,1,1]+[2,2,1] (1-based indices, converted at the boundary)
in the standard basis.  `apply_local` is the one local action: it moves
a state into other bases or along a local orbit.  A tensor holds the
integer image of its coefficients (see :mod:`~entinv.linalg`), which
every computation reads and returns; `coeffs` converts it to field values
where a tensor is printed.  A flattening and a local map hold their
image too: `flatten` slices the tensor's, and a map acts with its own.
"""

from __future__ import annotations

import random
from itertools import product
from math import prod
from operator import mul
from typing import Sequence

from .fields import QQ, Field
from .linalg import ExactMatrix, action_rows, from_image, lowest_terms, scaled, to_image


class ShapeError(ValueError):
    """A shape, an index, or the row factors of a flattening are inconsistent."""


class ArityError(ShapeError):
    """An operation that needs a specific subsystem count got another."""


class BasisError(ValueError):
    """A supplied basis or local map is not invertible (or malformed)."""


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
        """The tensor whose coefficients have the image `image` over `den > 0`."""
        v = cls.__new__(cls)
        v.field, v.shape = field, shape
        v.image, v.den = lowest_terms(field, image, den)
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
        return f"Tensor({self.shape.dims} over {self.field.descriptor}: [{vals}])"


def flatten(v: Tensor, rows: Sequence[int]) -> ExactMatrix:
    """Matrix of `v` whose rows are indexed by the factors `rows` (1-based).

    Entry [r, c] is the coefficient of v at the multi-index merging the
    row-side and column-side indices; both sides are flattened row-major
    in increasing factor order.  The complementary factors give the
    transpose.
    """
    if not (all(type(i) is int and 1 <= i <= v.n for i in rows)
            and 0 < len(set(rows)) == len(rows) < v.n):
        raise ShapeError(f"row factors must be distinct ints forming a nonempty proper "
                         f"subset of 1..{v.n}, got {rows}")
    axes = [i - 1 for i in range(1, v.n + 1) if i in rows]
    nrows = prod(v.shape.dims[i] for i in axes)
    axes += [i for i in range(v.n) if i not in axes]
    e, image = v.field.width, v.image
    entries = [image[e * o + u] for o in v.shape.offsets(axes) for u in range(e)]
    return ExactMatrix.of_image(v.field, nrows, v.shape.size // nrows, entries, v.den)


def from_terms(shape: Shape, terms: Sequence[Sequence[int]], field: Field = QQ) -> Tensor:
    """Sum of decomposable terms given in 1-based bracket notation.

    Term (j1, ..., jn) is the standard basis vector e_{j1} x ... x e_{jn},
    so each distinct term lands as a single unit coefficient.  To write
    the state in other bases, act on it with `apply_local`.  A term whose
    0-based index `Shape.offset` refuses raises its ShapeError, naming the term.
    """
    counts = [0] * (field.width * shape.size)
    for term in terms:
        try:
            counts[field.width * shape.offset([j - 1 for j in term])] += 1
        except ShapeError as exc:
            raise ShapeError(f"term {tuple(term)} (1-based): {exc}") from exc
    return Tensor.of_image(field, shape, counts)


def apply_local(v: Tensor, maps: Sequence[ExactMatrix]) -> Tensor:
    """Act on each factor with an invertible matrix.

    Coefficients transform as v'[a1', ..., an'] =
    sum A1[a1', a1] ... An[an', an] v[a1, ..., an].  Every map is checked
    before any arithmetic; then each map's image acts on v's image, and
    the denominators multiply.
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
    x, den = v.image, v.den
    for axis, a in enumerate(maps):
        x = _mode_apply(x, v.shape, axis, action_rows(a.image_rows()))
        den *= a.den
    return Tensor.of_image(v.field, v.shape, x, den)


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


def random_tensor(shape: Shape, bound: int, seed: int, field: Field = QQ) -> Tensor:
    """Deterministic tensor of integer coefficients uniform in [-bound, bound];
    over Q(i), each entry's real part is drawn first, then its imaginary part."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rng = random.Random(f"tensor|{shape.dims}|{bound}|{seed}")
    return Tensor.of_image(field, shape,
                           [rng.randint(-bound, bound) for _ in range(field.width * shape.size)])


def random_invertible(d: int, bound: int, seed: int, field: Field = QQ) -> ExactMatrix:
    """Deterministic invertible d x d matrix whose image is drawn as
    `random_tensor` draws one, by rejection sampling."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rng = random.Random(f"invertible|{d}|{bound}|{seed}")
    while True:
        draws = [rng.randint(-bound, bound) for _ in range(field.width * d * d)]
        m = ExactMatrix.of_image(field, d, d, draws)
        if m.rank() == d:
            return m
