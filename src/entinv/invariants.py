"""Kernel-dimension invariants of a state and its rank decomposition.

For each bipartition of the factors, the flattening of a state has a
kernel whose dimension is invariant under invertible local maps.  For
three factors there is one more invariant: the dimension of the joint
kernel cut out by applying each pair flattening alongside the identity on
the remaining factor.  The full signature collects all of these.  A
flattening and its complement are transposes of one rank, so the
signature derives complementary kernels by rank duality, which `verify
--suite duality` checks with two separate eliminations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import mul
from typing import Optional

from .linalg import ExactMatrix, InternalConsistencyError, eliminate, image_kernel, integer_image
from .tensors import ArityError, FlatteningSpec, Shape, Tensor, flatten


@dataclass(frozen=True)
class InvariantSignature:
    """Kernel dimensions of a state: singles, and for n=3 pairs and triple.

    `singles` is (k1, ..., kn); `pairs` is (k12, k13, k23) and `triple`
    the intersection-kernel dimension, both None for n=2.
    """

    dims: tuple[int, ...]
    singles: tuple[int, ...]
    pairs: Optional[tuple[int, int, int]] = None
    triple: Optional[int] = None

    def __post_init__(self):
        for k_i, d_i in zip(self.singles, self.dims):
            if not 0 <= k_i <= d_i:
                raise InternalConsistencyError(f"single kernel dim {k_i} out of [0, {d_i}]")
        if self.triple is not None and not 0 <= self.triple <= prod(self.dims):
            raise InternalConsistencyError(f"triple kernel dim {self.triple} out of range")

    @property
    def n(self) -> int:
        return len(self.dims)

    def key(self) -> tuple[int, ...]:
        """The tuple used for class lookup: (k1,) for n=2, else (k1,k2,k3,k123)."""
        if self.n == 2:
            return (self.singles[0],)
        return self.singles + (self.triple,)

    def as_dict(self) -> dict:
        out = {"n": self.n, "dims": list(self.dims), "singles": list(self.singles)}
        if self.n == 3:
            out["pairs"] = list(self.pairs)
            out["triple"] = self.triple
        return out

    def __str__(self):
        singles = ",".join(str(k) for k in self.singles)
        if self.n == 2:
            return f"({singles})"
        pairs = ",".join(str(k) for k in self.pairs)
        return f"({singles};{pairs};{self.triple})"


def kernel_dim(v: Tensor, spec: FlatteningSpec) -> int:
    """Kernel dimension of the flattening against `spec` (dim W - rank)."""
    m = flatten(v, spec)
    return m.rows - m.rank()


def triple_constraint_matrix(v: Tensor) -> ExactMatrix:
    """Stacked constraint rows whose kernel is the triple intersection.

    For shape (d1, d2, d3) the matrix is (d3^2 + d2^2 + d1^2) x (d1 d2 d3),
    over the unknown w flattened like tensor coefficients.  Row blocks, in
    order, encode for all (k, l), (j, l), (i, l) respectively:

        sum_{i,j} v[i,j,k] w[i,j,l] = 0
        sum_{i,k} v[i,j,k] w[i,l,k] = 0
        sum_{j,k} v[i,j,k] w[l,j,k] = 0

    with each block's (outer, inner) row pairs in row-major order.
    """
    if v.n != 3:
        raise ArityError(f"triple intersection needs 3 factors, got {v.n}")
    size = v.shape.size
    coeffs = v.coeffs
    zero = v.field.zero
    rows = []
    # block by block, the factor carrying the identity is 3, 2, 1; row
    # (m, l) moves each coefficient with index m there to index l
    for axis in (2, 1, 0):
        step = v.shape.offsets([axis])
        base = v.shape.offsets([i for i in range(3) if i != axis])
        for m, l in product(step, repeat=2):
            row = [zero] * size
            for o in base:
                row[o + l] = coeffs[o + m]
            rows.append(row)
    return ExactMatrix.from_rows(v.field, rows)


def triple_kernel_dim(v: Tensor, slices: list[int]) -> int:
    """Dimension of the joint kernel of the three extended pair maps.

    Computed on the concise slice subtensor.  `slices` are the pivot
    columns S of the (1,2) flattening, whose columns are the slices
    v[:,:,k]: the first r independent slices, r its rank.  With v|S the
    (d1, d2, r) subtensor keeping only those slices,

        k123(v) = k123(v|S) + (d3 - r) (d1 d2 - r),

    with k123(v|S) = 0 when r = 0 (no slices) or r = d1 d2 (block 1 of
    `triple_constraint_matrix` then forces w = 0).  Why: v = sum over k in S
    of v_k x f_k with the f_k independent, and k123 is invariant under
    invertible local maps, so a map on V3 turns v into v|S padded with
    d3 - r zero slices.  There block 1 puts every slice w[:,:,l] in K12,
    of dimension d1 d2 - r; slices l >= r appear in no row of blocks 2
    and 3, which only see third indices < r, and the remaining rows are
    exactly the system of v|S.

    The system of v|S is not stacked either.  Its block 1 says that each
    slice w[:,:,l] lies in K = ker S^T, S^T the r x d1 d2 matrix of the
    slices, which has rank r.  With a basis of K from `image_kernel`,
    w[q, l] = sum_f K[q, f] y[f, l], and k123(v|S) is (d1 d2 - r) r minus
    the rank of blocks 2 and 3 in the unknowns y: a (d1^2 + d2^2) x
    (d1 d2 - r) r system, at most 13 x 9 for (2, 3, d).  With the identity
    on factor 2, its row (m, n) holds sum_i v[i, m, l] K[(i, n), f] at
    (l, f); with the identity on factor 1, sum_j v[m, j, l] K[(n, j), f].
    All of it is computed in the integer image of the field.
    `triple_constraint_matrix(v)` stays the full stacked system; tests
    compare the two routes.
    """
    if v.n != 3:
        raise ArityError(f"triple intersection needs 3 factors, got {v.n}")
    d1, d2, d3 = v.shape.dims
    d12 = d1 * d2
    r = len(slices)
    free = (d3 - r) * (d12 - r)
    if r in (0, d12):
        return free
    field = v.field
    coeffs = v.coeffs
    qoff = v.shape.offsets((0, 1))  # v[q, k] is coeffs[qoff[q] + k], q = (i, j)
    # each matrix row is brought to its integer image on its own, as in
    # `ExactMatrix`: the slices here, the coefficients of a block row below
    slice_rows = [[coeffs[o + k] for o in qoff] for k in slices]
    kernel = image_kernel(field, integer_image(field, slice_rows), d12)
    e = len(kernel) // d12  # image rows per coordinate: 2 over Q(i), else 1
    pairs = Shape((d1, d2))
    rows = []
    for axis in (1, 0):
        base = pairs.offsets([1 - axis])
        step = pairs.offsets([axis])
        for m in step:
            # v[o + m, l] for each slice l and each o in base
            image = integer_image(field, [[coeffs[qoff[o + m] + k] for k in slices for o in base]])
            w = e * len(base)
            xs = [[x[w * l : w * (l + 1)] for l in range(r)] for x in image]
            for n in step:
                ks = list(zip(*[kernel[e * (o + n) + u] for o in base for u in range(e)]))
                rows += [[sum(map(mul, xl, k)) for xl in xls for k in ks] for xls in xs]
    return (d12 - r) * r - len(eliminate(field, rows, (d12 - r) * r)) + free


def signature(v: Tensor) -> InvariantSignature:
    """Complete invariant signature of a 2- or 3-factor state.

    Each distinct matrix is eliminated once; a flattening's complement is
    its transpose, whose kernel follows by rank duality.  Tripartite, the
    pivots of the (1,2) flattening give k3 and k12 and are the concise
    slices of `triple_kernel_dim`.
    """
    d = v.shape.dims
    k1 = kernel_dim(v, FlatteningSpec((1,), v.n))
    if v.n == 2:
        return InvariantSignature(d, (k1, d[1] - d[0] + k1))
    k2 = kernel_dim(v, FlatteningSpec((2,), 3))
    slices = flatten(v, FlatteningSpec((1, 2), 3)).pivots()
    r = len(slices)
    pairs = (d[0] * d[1] - r, d[0] * d[2] - d[1] + k2, d[1] * d[2] - d[0] + k1)
    return InvariantSignature(d, (k1, k2, d[2] - r), pairs, triple_kernel_dim(v, slices))


def duality_fault(v: Tensor) -> str:
    """The first single factor whose flattening and its complement, each
    ranked on its own, differ in rank; "" when every such pair agrees."""
    for axis in range(1, 2 if v.n == 2 else 4):
        spec = FlatteningSpec((axis,), v.n)
        rank, dual = flatten(v, spec).rank(), flatten(v, spec.complement()).rank()
        if rank != dual:
            return (f"rank duality violated: factor {axis} "
                    f"flattening has rank {rank}, its complement {dual}")
    return ""


def general_form_decomposition(
    v: Tensor, spec: FlatteningSpec
) -> list[tuple[list, list]]:
    """Rank factorization of a flattening as pairs (w_i, w'_i).

    Exactly dim W - k(v) pairs are returned, with {w_i} and {w'_i} each
    linearly independent and sum_i w_i x w'_i reproducing v.  Pivot
    columns of the flattening supply the w_i, the nonzero reduced rows
    supply the w'_i, so the output is deterministic.
    """
    m = flatten(v, spec)
    reduced, pivots = m.rref()
    out = []
    for r, p in enumerate(pivots):
        w = [m.entries[i * m.cols + p] for i in range(m.rows)]
        w_prime = reduced.row(r)
        out.append((w, w_prime))
    return out
