"""Kernel-dimension invariants of a state and its rank decomposition.

For each bipartition of the factors, the flattening of a state has a
kernel whose dimension is invariant under invertible local maps.  For
three factors there is one more invariant: the dimension of the joint
kernel cut out by applying each pair flattening alongside the identity on
the remaining factor.  The full signature collects all of these.  A
flattening and its complement are transposes of one rank, so the
signature derives complementary kernels by rank duality, which `verify
--suite duality` checks with two separate eliminations.  A tripartite
signature computes them all on the first r independent slices v[:,:,k],
and the one elimination that finds them also gives k123 its kernel basis.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import prod
from operator import mul

from .fields import Record
from .linalg import (ExactMatrix, InternalConsistencyError, eliminate, from_image, gaussian_rows,
                     scaled)
from .tensors import ArityError, Shape, Tensor, flatten


# row factors of the six kernels in a signature's order; KERNELS[5 - k] is KERNELS[k]'s complement
KERNELS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))


class InvariantSignature(Record):
    """Kernel dimensions of a state: singles, and for n=3 pairs and triple.

    `singles` is (k1, ..., kn); `pairs` is (k12, k13, k23) and `triple`
    the intersection-kernel dimension, both None for n=2.
    """

    __slots__ = _fields = ("dims", "singles", "pairs", "triple")

    def __init__(self, dims: tuple[int, ...], singles: tuple[int, ...],
                 pairs: tuple[int, int, int] | None = None, triple: int | None = None):
        for k_i, d_i in zip(singles, dims):
            if not 0 <= k_i <= d_i:
                raise InternalConsistencyError(f"single kernel dim {k_i} out of [0, {d_i}]")
        if triple is not None and not 0 <= triple <= prod(dims):
            raise InternalConsistencyError(f"triple kernel dim {triple} out of range")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "singles", singles)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "triple", triple)

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


def kernel_dim(v: Tensor, rows: Sequence[int]) -> int:
    """Kernel dimension of the flattening with the row factors `rows` (dim W - rank)."""
    m = flatten(v, rows)
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
    size, e, image = v.shape.size, v.field.width, v.image
    out = []
    # block by block, the factor carrying the identity is 3, 2, 1; row
    # (m, l) moves each coefficient with index m there to index l, with
    # its e integers in the image
    for axis in (2, 1, 0):
        step = v.shape.offsets([axis])
        base = v.shape.offsets([i for i in range(3) if i != axis])
        for m, l in product(step, repeat=2):
            row = [0] * (e * size)
            for o in base:
                row[e * (o + l) : e * (o + l + 1)] = image[e * (o + m) : e * (o + m + 1)]
            out += row
    return ExactMatrix.of_image(v.field, len(out) // (e * size), size, out, v.den)


def triple_kernel_dim(v: Tensor, rows: list[list[int]], kernel: list[list[int]]) -> int:
    """Dimension of the joint kernel of the three extended pair maps.

    `rows` are the integer images of the concise slices v[:,:,k], k in S,
    the first r independent slices, as `signature` reads them: one row of
    e d1 d2 integers each, e = 2 over Q(i) (Gaussian integers), else 1;
    `kernel` is a basis K_f of K = ker S^T in the same layout, one row per
    basis vector, as `signature`'s slice elimination leaves it.
    A map on V3 turns v into v|S, its (d1, d2, r) subtensor on S, padded
    with zero slices.  Block 1 of `triple_constraint_matrix` puts each
    slice of w in K, of dimension d1 d2 - r, and blocks 2 and 3 never see
    a padded one, so k123(v) = k123(v|S) + (d3 - r)(d1 d2 - r), and
    k123(v|S) = 0 when r is 0 or d1 d2.  Otherwise, with w[:,:,l] =
    sum_f y[f, l] K_f (K_f as d1 x d2 matrices), k123(v|S) is
    (d1 d2 - r) r minus the rank of blocks 2 and 3 in y: a
    (d1^2 + d2^2 - 2) x (d1 d2 - r) r system R, at most 11 x 9 for
    (2, 3, d).  Its column (l, f) holds v_l^T K_f and v_l K_f^T, v_l the
    slice as a d1 x d2 matrix; a slice's or a basis vector's scale in the
    image scales it.  The traces of both are <v_l, K_f> = 0, so each block
    drops its row (0, 0).  Over Q(i) an entry of R is two dot products of
    slice integers, with (p, -q) and (q, p) interleaved for the kernel
    entries p + qi: its real and imaginary parts.
    """
    if v.n != 3:
        raise ArityError(f"triple intersection needs 3 factors, got {v.n}")
    d1, d2, d3 = v.shape.dims
    d12, r = d1 * d2, len(rows)
    free = (d3 - r) * (d12 - r)
    if r in (0, d12):
        return free
    e = len(rows[0]) // d12
    # the e integers of each entry (i, j) of a d1 x d2 matrix, read as (j, i)
    spread = [e * (d2 * i + j) + u for j in range(d2) for i in range(d1) for u in range(e)]
    R = []
    transposed = ([[x[q] for q in spread] for x in xs] for xs in (rows, kernel))
    for xs, ks, da, db in ((*transposed, d2, d1), (rows, kernel, d1, d2)):
        w = e * db  # a row of a da x db matrix in the image
        if e == 2:  # the rows of kernel entries p + qi
            ks = [c for x in ks for c in gaussian_rows(zip(x[::2], x[1::2]))]
        kn = [[c[w * n : w * (n + 1)] for c in ks] for n in range(da)]
        xm = [[x[w * m : w * (m + 1)] for x in xs] for m in range(da)]
        # row (0, 0) is minus the sum of the other diagonal rows (n, n)
        R += [[sum(map(mul, xl, c)) for xl in xm[m] for c in kn[n]]
              for m, n in list(product(range(da), repeat=2))[1:]]
    return (d12 - r) * r - len(eliminate(v.field, R, (d12 - r) * r)) + free


def signature(v: Tensor) -> InvariantSignature:
    """Complete invariant signature of a 2- or 3-factor state.

    A flattening's complement is its transpose, whose kernel follows by
    rank duality.  Bipartite, the (1)-flattening's rows are read from v's
    image and ranked.  Tripartite, so are the (1,2)-flattening's rows, runs
    of e d3 integers of the image, each followed by its coordinates; its
    pivots are the concise slices S = v[:,:,k], which give r, k3 and k12,
    and the rows left below them, zero on the flattening (else a bug),
    hold in their coordinates a basis of K = ker S^T, as Bareiss steps are
    invertible.  Only those r slices are read, each one row of e d1 d2
    integers; k1 and k2 are ranked on [v_1 | ... | v_r] and [v_1; ...; v_r].
    """
    d, field, flat = v.shape.dims, v.field, v.image
    e = field.width
    if v.n == 2:
        w = e * d[1]  # a row of the (1)-flattening in the image
        rows = [list(flat[w * i : w * (i + 1)]) for i in range(d[0])]
        k1 = d[0] - len(eliminate(field, rows, d[1]))
        return InvariantSignature(d, (k1, d[1] - d[0] + k1))
    d1, d2, d3 = d
    w = e * d3  # a row of the (1,2)-flattening in the image
    spread = [o + u for o in range(0, len(flat), w) for u in range(e)]
    zeros = [0] * (e * d1 * d2)  # and a coordinate vector: 1, or 1 + 0i over Q(i)
    image = [[*flat[o : o + w], *zeros[: e * q], 1, *zeros[e * q + 1 :]]
             for q, o in enumerate(spread[::e])]
    slices = eliminate(field, image, d3)
    r, rows = len(slices), [[flat[s + e * k] for s in spread] for k in slices]
    if any(any(x[:w]) for x in image[r:]):
        raise InternalConsistencyError(f"slice elimination of rank {r} left a nonzero row")
    kernel = [x[w:] for x in image[r:]]
    w = e * d2  # a row of a slice in the image
    k1 = d1 - len(eliminate(field, [[t for x in rows for t in x[w * i : w * (i + 1)]]
                                    for i in range(d1)], d2 * r))
    k2 = d2 - len(eliminate(field, [x[w * i : w * (i + 1)] for x in rows for i in range(d1)], d2))
    pairs = (d1 * d2 - r, d1 * d3 - d2 + k2, d2 * d3 - d1 + k1)
    return InvariantSignature(d, (k1, k2, d3 - r), pairs, triple_kernel_dim(v, rows, kernel))


def slow_route_fault(v: Tensor, sig: InvariantSignature | None = None) -> str:
    """What ranking every flattening through its own `ExactMatrix` finds
    wrong, or "": first a single factor whose flattening and complement
    differ in rank, then, given `sig`, the first of its kernels that
    differs, with k123 from `triple_constraint_matrix` of the concise
    state v|S, S the pivots of the (1,2) flattening's image, plus
    (d3 - r)(d1 d2 - r) for the zero slices it drops (see
    `triple_kernel_dim`): r^2 + d1^2 + d2^2 rows, whatever d3 is."""
    names = list(KERNELS[: 2 if v.n == 2 else 6])
    slow = [kernel_dim(v, rows) for rows in names]
    ranks = [prod(v.shape.dims[i - 1] for i in rows) - k for rows, k in zip(names, slow)]
    for axis, rank, dual in zip(range(1, len(names) // 2 + 1), ranks, ranks[::-1]):
        if rank != dual:
            return (f"rank duality violated: factor {axis} "
                    f"flattening has rank {rank}, its complement {dual}")
    if sig is None:
        return ""
    if v.n == 3:
        (d1, d2, d3), e, m = v.shape.dims, v.field.width, flatten(v, (1, 2))
        rows, S = m.image_rows(), eliminate(v.field, m.image_rows(), d3)
        k123, r = v.shape.size, len(S)
        if S:
            vs = Tensor.of_image(v.field, Shape((d1, d2, r)),
                                 [x[e * k + u] for x in rows for k in S for u in range(e)], m.den)
            k123 = (d3 - r) * (d1 * d2 - r) + vs.shape.size - triple_constraint_matrix(vs).rank()
        names.append((1, 2, 3))
        slow.append(k123)
    for rows, k, s in zip(names, [*sig.singles, *(sig.pairs or ()), sig.triple], slow):
        if k != s:
            return f"signature gives k{''.join(map(str, rows))} = {k}, its recomputation {s}"
    return ""


def general_form_decomposition(v: Tensor, rows: Sequence[int]) -> list[tuple[list, list]]:
    """Rank factorization of the flattening with row factors `rows`, as pairs (w_i, w'_i).

    Exactly dim W - k(v) pairs are returned, with {w_i} and {w'_i} each
    linearly independent and sum_i w_i x w'_i reproducing v.  Pivot
    columns of the flattening supply the w_i, the nonzero rows of its
    reduced row echelon form supply the w'_i, so the output is
    deterministic.  Gauss-Jordan elimination of the flattening's image
    leaves D times those rows; over Q(i), x / D is x conj(D) / |D|^2.
    """
    m = flatten(v, rows)
    image = m.image_rows()
    pivots = eliminate(v.field, image, m.cols, jordan=True)
    if not pivots:
        return []
    e, entries = v.field.width, m.entries
    d, rows = image[0][e * pivots[0] : e * pivots[0] + e], image[: len(pivots)]
    if e == 2:
        rows = [scaled(row, [d[0], -d[1]]) for row in rows]
    den = d[0] if e == 1 else d[0] * d[0] + d[1] * d[1]
    return [(entries[p :: m.cols], from_image(v.field, row, den)) for p, row in zip(pivots, rows)]
