"""Flattenings, local transformations and random sources for tensors.

A tensor of shape (d1, ..., dn), n in {2, 3}, stores its coefficients
row-major (last index fastest), and only `Shape` knows that layout: a
flattening, a fiber of the local action and a block of the k123 system
each read the coefficients through `Shape.offsets` of some axes.
`Shape` and `Tensor` live in :mod:`~entinv.linalg` beside the matrix, a
two-factor tensor, and are imported here.  A flattening reads a tensor
as an :class:`~entinv.linalg.ExactMatrix` whose rows are indexed by some
of its factors, named 1-based; states are built either
coefficient-by-coefficient or from bracket-notation term lists like
[1,1,1]+[2,2,1] (1-based indices, converted at the boundary) in the
standard basis.  `apply_local` is the one local action: it moves a state
into other bases or along a local orbit.  Every computation reads and
returns a tensor's integer image.  A flattening and a local map hold
their image too: `flatten` slices the tensor's, and a map acts with its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod
from operator import mul

from .fields import QQ, Field
from .linalg import ExactMatrix, Shape, ShapeError, Tensor, action_rows


class ArityError(ShapeError):
    """An operation that needs a specific subsystem count got another."""


class BasisError(ValueError):
    """A supplied basis or local map is not invertible (or malformed)."""


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
    import random

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
    import random

    rng = random.Random(f"invertible|{d}|{bound}|{seed}")
    while True:
        draws = [rng.randint(-bound, bound) for _ in range(field.width * d * d)]
        m = ExactMatrix.of_image(field, d, d, draws)
        if m.rank() == d:
            return m
