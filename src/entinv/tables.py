"""Built-in entanglement class tables and the signature classifier.

Three families are covered: any bipartite shape (d1, d2), and the
tripartite shapes (2, 2, d) and (2, 3, d) for d >= 2.  An entry is a
label, a representative term list, and the invariants of its concise
state.  Let r be the largest last index of the representative: its
number of independent last-factor slices.  A tripartite entry stores
(k1, k2, k123) of the representative at d = r.  Padding the last factor
from r to d leaves k1 and k2 alone, gives k3 = d - r and adds
(d - r)(d1 d2 - r) to k123 (the concise-slice identity of
`triple_kernel_dim`), so one stored triple gives the key at every d.  The
bipartite class C_l is [1,1]+...+[l,l], so r = l and k1 = d1 - l.  An
entry is valid at a shape exactly when its representative fits in it.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence

from .documents import document_dict
from .fields import Field, QQ, Record
from .invariants import InvariantSignature, slow_route_fault, signature
from .linalg import ExactMatrix, InternalConsistencyError
from .tensors import Shape, Tensor, apply_local, from_terms

# label, (k1, k2, k123) at d = r, representative terms
_RAW_22D = (
    ("C0", (2, 2, 0), ()),
    ("C1", (1, 1, 1), ((1, 1, 1),)),
    ("C2", (0, 0, 0), ((1, 1, 1), (2, 2, 1))),
    ("C3", (0, 1, 3), ((1, 1, 1), (2, 1, 2))),
    ("C4", (1, 0, 3), ((1, 1, 1), (1, 2, 2))),
    ("C5", (0, 0, 1), ((1, 1, 1), (1, 2, 2), (2, 1, 2))),
    ("C6", (0, 0, 0), ((1, 1, 1), (2, 2, 2))),
    ("C7", (0, 0, 1), ((1, 1, 1), (1, 2, 2), (2, 2, 3))),
    ("C8", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3))),
    ("C9", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 4))),
)

_RAW_23D = (
    ("C0", (2, 3, 0), ()),
    ("C1", (1, 2, 2), ((1, 1, 1),)),
    ("C2", (0, 1, 0), ((1, 1, 1), (2, 2, 1))),
    ("C3", (0, 2, 6), ((1, 1, 1), (2, 1, 2))),
    ("C4", (1, 1, 5), ((1, 1, 1), (1, 2, 2))),
    ("C5", (0, 1, 3), ((1, 1, 1), (1, 2, 2), (2, 1, 2))),
    ("C6", (0, 1, 2), ((1, 1, 1), (2, 2, 2))),
    ("C7", (0, 0, 1), ((1, 1, 1), (1, 2, 2), (2, 3, 1))),
    ("C8", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 3, 2))),
    ("C9", (1, 0, 8), ((1, 1, 1), (1, 2, 2), (1, 3, 3))),
    ("C10", (0, 1, 5), ((1, 1, 1), (1, 2, 2), (2, 1, 3))),
    ("C11", (0, 1, 4), ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3))),
    ("C12", (0, 0, 4), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2))),
    ("C13", (0, 0, 3), ((1, 1, 1), (1, 2, 2), (2, 3, 3))),
    ("C14", (0, 0, 2), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2), (2, 2, 3))),
    ("C15", (0, 0, 1), ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 3, 1))),
    ("C16", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 3, 3))),
    ("C17", (0, 1, 6), ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 4))),
    ("C18", (0, 0, 5), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 3, 4))),
    ("C19", (0, 0, 3), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 2, 4), (2, 3, 1))),
    ("C20", (0, 0, 2), ((1, 1, 1), (1, 2, 2), (2, 2, 3), (2, 3, 4))),
    ("C21", (0, 0, 1), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 2, 3), (2, 3, 4))),
    ("C22", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2), (2, 2, 3), (2, 3, 4))),
    ("C23", (0, 0, 2), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 4), (2, 2, 5))),
    ("C24", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 3), (2, 2, 4), (2, 3, 5))),
    ("C25", (0, 0, 0), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 4), (2, 2, 5), (2, 3, 6))),
)

# the fixed first two dims of each tripartite family; the third is any d >= 2
TRIPARTITE_DIMS = {"22d": (2, 2), "23d": (2, 3)}

# valid-entry counts at d = 2, 3, ... (the last value holds from there on)
_EXPECTED_COUNTS = {"22d": (7, 9, 10), "23d": (9, 17, 23, 25, 26)}


class UnsupportedShapeError(ValueError):
    """The shape has no built-in class table."""

    def __init__(self, dims):
        super().__init__(
            f"no class table for shape {tuple(dims)}; supported families are "
            "any bipartite (d1,d2), (2,2,d) with d>=2, and (2,3,d) with d>=2"
        )


class LabelValidityError(ValueError):
    """A class label does not exist, or is discarded, at the given shape."""


class ClassificationGapError(RuntimeError):
    """A computed signature matches no table entry.

    Either an implementation defect or a counterexample to the table's
    completeness; the offending state and signature travel with the error
    so the finding is reportable.
    """

    def __init__(self, tensor: Tensor, sig: InvariantSignature):
        self.tensor = tensor
        self.signature = sig
        super().__init__(
            f"signature {sig} on shape {tensor.shape.dims} over "
            f"{tensor.field.descriptor} matches no class entry; "
            "this is a reportable finding, not a normal failure"
        )

    def payload(self) -> dict:
        return {**document_dict(self.tensor), "signature": self.signature.as_dict()}


class ClassEntry(Record):
    """One class: its label, the invariants of its concise state, and its representative.

    `concise` is (k1, k2, k123) at d = r for a tripartite entry and empty
    for a bipartite one.
    """

    _fields = ("label", "concise", "terms")
    # derived from `terms` once, as every lookup reads them: the smallest
    # dims the representative fits in (none for the zero state), and r
    __slots__ = _fields + ("extent", "r")

    def __init__(self, label: str, concise: tuple[int, ...], terms: tuple[tuple[int, ...], ...]):
        extent = tuple(map(max, zip(*terms)))
        values = label, concise, terms, extent, extent[-1] if extent else 0
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def invariants_at(self, shape: Shape) -> tuple[int, ...]:
        """The signature key this entry predicts at a concrete shape.

        Bipartite: (d1 - r,).  Tripartite: the concise key padded from r to d.
        """
        *head, d = shape.dims
        if len(head) == 1:
            return (head[0] - self.r,)
        k1, k2, k123 = self.concise
        pad = d - self.r
        return (k1, k2, pad, k123 + pad * (head[0] * head[1] - self.r))

    def valid_at(self, shape: Shape) -> bool:
        return all(e <= d for e, d in zip(self.extent, shape.dims))

    def bracket(self) -> str:
        """Representative in bracket notation, '0' for the zero state."""
        if not self.terms:
            return "0"
        return "+".join("[" + ",".join(str(j) for j in t) + "]" for t in self.terms)


class ClassTable(Record):
    _fields = ("family", "shape", "entries")
    # signature key -> entry; table_for refuses a table with a repeated key
    __slots__ = _fields + ("by_key",)

    def __init__(self, family: str, shape: Shape, entries: tuple[ClassEntry, ...]):
        by_key = {e.invariants_at(shape): e for e in entries}
        for name, value in zip(self.__slots__, (family, shape, entries, by_key)):
            object.__setattr__(self, name, value)

    def lookup(self, key: tuple[int, ...]) -> ClassEntry | None:
        return self.by_key.get(key)


_TRIPARTITE_ENTRIES = {
    family: tuple(ClassEntry(*row) for row in rows)
    for family, rows in (("22d", _RAW_22D), ("23d", _RAW_23D))
}


def expected_count(family: str, d: int) -> int:
    """Number of valid classes of a tripartite family at a given d."""
    counts = _EXPECTED_COUNTS[family]
    if d < 2:
        raise ValueError(f"family {family} starts at d=2, got d={d}")
    return counts[min(d, len(counts) + 1) - 2]


def family_of(shape: Shape) -> str:
    if shape.n == 2:
        return "bipartite"
    for family, head in TRIPARTITE_DIMS.items():
        if shape.dims[:2] == head and shape.dims[2] >= 2:
            return family
    raise UnsupportedShapeError(shape.dims)


def tripartite_shape(family: str, d: int) -> Shape:
    """The shape (2, 2, d) or (2, 3, d) of a tripartite family."""
    return Shape(TRIPARTITE_DIMS[family] + (d,))


@functools.cache
def table_for(shape: Shape) -> ClassTable:
    """The class table valid at `shape`, with its self-checks applied.

    Valid entries must have pairwise distinct signature keys, and for the
    tripartite families the valid-entry count must match the expected
    progression (7, 9, 10 for (2,2,d); 9, 17, 23, 25, 26 for (2,3,d)).
    A table depends on its shape alone, so each is built and checked once.
    """
    family = family_of(shape)
    if family == "bipartite":
        entries = tuple(
            ClassEntry(f"C{l}", (), tuple((j, j) for j in range(1, l + 1)))
            for l in range(min(shape.dims) + 1)
        )
    else:
        entries = tuple(e for e in _TRIPARTITE_ENTRIES[family] if e.valid_at(shape))
        want = expected_count(family, shape.dims[2])
        if len(entries) != want:
            raise InternalConsistencyError(
                f"{family} at d={shape.dims[2]}: {len(entries)} valid entries, expected {want}"
            )
    table = ClassTable(family=family, shape=shape, entries=entries)
    if len(table.by_key) != len(entries):
        raise InternalConsistencyError(f"duplicate signature keys in {family} at {shape.dims}")
    return table


def classify(v: Tensor) -> str:
    """Class label of `v`, by matching its signature against the table."""
    return classify_full(v)[0]


def classify_full(v: Tensor) -> tuple[str, InvariantSignature]:
    """Label plus the computed signature (one signature evaluation).

    A signature that matches no entry is a gap only if `slow_route_fault`
    finds nothing wrong with it; otherwise the fault is the program's, and
    it raises InternalConsistencyError.
    """
    table = table_for(v.shape)
    sig = signature(v)
    entry = table.lookup(sig.key())
    if entry is None:
        fault = slow_route_fault(v, sig)
        if fault:
            raise InternalConsistencyError(fault)
        raise ClassificationGapError(v, sig)
    return entry.label, sig


def representative(
    label: str,
    shape: Shape,
    bases: Sequence[ExactMatrix] | None = None,
    field: Field = QQ,
) -> Tensor:
    """The representative state of a class, optionally in generic bases.

    A label that does not fit the shape is discarded.  For the bipartite
    family every well-formed C<l> is a class, [1,1]+...+[l,l], so only a
    malformed label is unknown there.
    """
    family = family_of(shape)
    if family == "bipartite":
        universe = table_for(shape).entries
        l = int(label[1:]) if re.fullmatch(r"C(0|[1-9][0-9]*)", label) else 0
        if l >= len(universe):
            # C<l> is [1,1]+...+[l,l] with key k1 = d1 - l; when only
            # k2 = d2 - l is negative, the message shows it too
            d1, d2 = shape.dims
            raise _discarded(label, shape, (d1 - l,) if l > d1 else (d1 - l, d2 - l))
    else:
        universe = _TRIPARTITE_ENTRIES[family]
    chosen = next((e for e in universe if e.label == label), None)
    if chosen is None:
        raise LabelValidityError(
            f"unknown label {label!r} for family {family}; labels run C0..{universe[-1].label}"
        )
    if not chosen.valid_at(shape):
        raise _discarded(label, shape, chosen.invariants_at(shape))
    v = from_terms(shape, chosen.terms, field=field)
    return v if bases is None else apply_local(v, bases)


def _discarded(label: str, shape: Shape, values: tuple[int, ...]) -> LabelValidityError:
    negative = [v for v in values if v < 0]
    return LabelValidityError(
        f"{label} is discarded at shape {shape.dims}: invariants {values} "
        f"include negative value(s) {negative}"
    )

