"""Plain exact linear algebra over Q, GF(p) and Q(i), for the tests to trust.

The package multiplies no field element: it computes on integer images.
This module keeps the element-arithmetic routes that image replaced, as
the reference its results are compared with: field arithmetic,
Gauss-Jordan reduced row echelon form, determinants, and the local action
of one matrix per factor on a tensor.

Like `oracle_222`, it takes no arithmetic from the package.  A package
scalar is read through its attributes only (`value` of a GF(p) residue,
`re` and `im` of a Gaussian rational) and becomes a `Fraction` over Q, an
int in [0, p) over GF(p), or a pair of `Fraction`s over Q(i).
"""

from fractions import Fraction
from functools import cache
from itertools import product


class Ring:
    """Exact arithmetic of the field with the given descriptor."""

    def __init__(self, descriptor: str):
        self.descriptor = descriptor
        self.gaussian = descriptor == "gaussian-rational"
        self.p = int(descriptor[3:-1]) if descriptor.startswith("gf(") else None
        if not (self.gaussian or self.p or descriptor == "rational"):
            raise ValueError(f"no oracle for field {descriptor!r}")
        self.zero = self.lift(0)
        self.one = self.lift(1)

    def lift(self, x):
        """An int, a Fraction or a package scalar of this field, as an oracle element."""
        if self.p:
            if isinstance(x, Fraction):
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return getattr(x, "value", x) % self.p
        if self.gaussian:
            return (Fraction(getattr(x, "re", x)), Fraction(getattr(x, "im", 0)))
        return Fraction(x)

    def rows(self, m):
        """The rows of an `ExactMatrix`, or of a list of rows, lifted."""
        rows = [m.row(i) for i in range(m.rows)] if hasattr(m, "row") else m
        return [[self.lift(x) for x in row] for row in rows]

    def add(self, a, b):
        if self.p:
            return (a + b) % self.p
        if self.gaussian:
            return (a[0] + b[0], a[1] + b[1])
        return a + b

    def neg(self, a):
        if self.p:
            return -a % self.p
        if self.gaussian:
            return (-a[0], -a[1])
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.p:
            return a * b % self.p
        if self.gaussian:
            return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
        return a * b

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError(f"division by zero over {self.descriptor}")
        if self.p:
            return pow(a, -1, self.p)
        if self.gaussian:
            n = a[0] * a[0] + a[1] * a[1]
            return (a[0] / n, -a[1] / n)
        return 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def dot(self, xs, ys):
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc


@cache
def ring(field) -> Ring:
    """The oracle ring of a package field or of a descriptor string."""
    return Ring(getattr(field, "descriptor", field))


def rref(r: Ring, rows):
    """Reduced row echelon form of lifted `rows`, and its pivot columns.

    Pivots are 1, with zeros above and below; the pivot of each column is
    the first row at or below the current one whose entry is nonzero.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][c] != r.zero), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        scale = r.inv(m[k][c])
        m[k] = [r.mul(x, scale) for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c] != r.zero:
                f = m[i][c]
                m[i] = [r.sub(a, r.mul(f, b)) for a, b in zip(m[i], m[k])]
        pivots.append(c)
    return m, pivots


def rref_of(m):
    """`rref` of an `ExactMatrix`, over its own field."""
    r = ring(m.field)
    return rref(r, r.rows(m))


def det(r: Ring, rows):
    """Determinant of a square list of lifted rows, by plain elimination."""
    m = [list(row) for row in rows]
    out = r.one
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != r.zero), None)
        if piv is None:
            return r.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = r.neg(out)
        out = r.mul(out, m[c][c])
        for i in range(c + 1, len(m)):
            f = r.div(m[i][c], m[c][c])
            m[i] = [r.sub(a, r.mul(f, b)) for a, b in zip(m[i], m[c])]
    return out


def local_action(r: Ring, dims, coeffs, maps):
    """Lifted row-major coefficients of a tensor of shape `dims`, acted on
    by one square matrix (lifted rows) per factor:

        v'[a1', ..., an'] = sum A1[a1', a1] ... An[an', an] v[a1, ..., an],

    one factor at a time, each fiber along it multiplied by its matrix.
    """
    strides = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    out = list(coeffs)
    for axis, a in enumerate(maps):
        others = [range(d) if i != axis else range(1) for i, d in enumerate(dims)]
        step = [i * strides[axis] for i in range(dims[axis])]
        new = [r.zero] * len(out)
        for index in product(*others):
            base = sum(i * s for i, s in zip(index, strides))
            fiber = [out[base + s] for s in step]
            for s, row in zip(step, a):
                new[base + s] = r.dot(row, fiber)
        out = new
    return out
