"""Built-in entanglement class tables and the signature classifier.

Three families are covered: any bipartite shape (d1, d2), and the
tripartite shapes (2, 2, d) and (2, 3, d) for d >= 2.  Tripartite entries
carry their four invariants as affine functions a*d + b together with a
representative term list; an entry is valid at a given d exactly when all
its invariants evaluate non-negative (equivalently, when d is at least
the largest third index used by the representative -- both derivations
are computed and cross-checked at table construction).  Bipartite classes
C_l are generated on demand with k1 = d1 - l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .fields import Field, QQ
from .invariants import InvariantSignature, signature
from .linalg import ExactMatrix, InternalConsistencyError
from .reporting import Report
from .tensors import Shape, Tensor, from_terms

Affine = tuple[int, int]  # (a, b) meaning a*d + b

# label, (k1, k2, k3, k123) as affine pairs, representative terms
_RAW_22D = (
    ("C0", ((0, 2), (0, 2), (1, 0), (4, 0)), ()),
    ("C1", ((0, 1), (0, 1), (1, -1), (3, -2)), ((1, 1, 1),)),
    ("C2", ((0, 0), (0, 0), (1, -1), (3, -3)), ((1, 1, 1), (2, 2, 1))),
    ("C3", ((0, 0), (0, 1), (1, -2), (2, -1)), ((1, 1, 1), (2, 1, 2))),
    ("C4", ((0, 1), (0, 0), (1, -2), (2, -1)), ((1, 1, 1), (1, 2, 2))),
    ("C5", ((0, 0), (0, 0), (1, -2), (2, -3)), ((1, 1, 1), (1, 2, 2), (2, 1, 2))),
    ("C6", ((0, 0), (0, 0), (1, -2), (2, -4)), ((1, 1, 1), (2, 2, 2))),
    ("C7", ((0, 0), (0, 0), (1, -3), (1, -2)), ((1, 1, 1), (1, 2, 2), (2, 2, 3))),
    ("C8", ((0, 0), (0, 0), (1, -3), (1, -3)), ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3))),
    ("C9", ((0, 0), (0, 0), (1, -4), (0, 0)), ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 4))),
)

_RAW_23D = (
    ("C0", ((0, 2), (0, 3), (1, 0), (6, 0)), ()),
    ("C1", ((0, 1), (0, 2), (1, -1), (5, -3)), ((1, 1, 1),)),
    ("C2", ((0, 0), (0, 1), (1, -1), (5, -5)), ((1, 1, 1), (2, 2, 1))),
    ("C3", ((0, 0), (0, 2), (1, -2), (4, -2)), ((1, 1, 1), (2, 1, 2))),
    ("C4", ((0, 1), (0, 1), (1, -2), (4, -3)), ((1, 1, 1), (1, 2, 2))),
    ("C5", ((0, 0), (0, 1), (1, -2), (4, -5)), ((1, 1, 1), (1, 2, 2), (2, 1, 2))),
    ("C6", ((0, 0), (0, 1), (1, -2), (4, -6)), ((1, 1, 1), (2, 2, 2))),
    ("C7", ((0, 0), (0, 0), (1, -2), (4, -7)), ((1, 1, 1), (1, 2, 2), (2, 3, 1))),
    ("C8", ((0, 0), (0, 0), (1, -2), (4, -8)), ((1, 1, 1), (1, 2, 2), (2, 2, 1), (2, 3, 2))),
    ("C9", ((0, 1), (0, 0), (1, -3), (3, -1)), ((1, 1, 1), (1, 2, 2), (1, 3, 3))),
    ("C10", ((0, 0), (0, 1), (1, -3), (3, -4)), ((1, 1, 1), (1, 2, 2), (2, 1, 3))),
    ("C11", ((0, 0), (0, 1), (1, -3), (3, -5)), ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3))),
    ("C12", ((0, 0), (0, 0), (1, -3), (3, -5)), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2))),
    ("C13", ((0, 0), (0, 0), (1, -3), (3, -6)), ((1, 1, 1), (1, 2, 2), (2, 3, 3))),
    ("C14", ((0, 0), (0, 0), (1, -3), (3, -7)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2), (2, 2, 3))),
    ("C15", ((0, 0), (0, 0), (1, -3), (3, -8)), ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 3, 1))),
    ("C16", ((0, 0), (0, 0), (1, -3), (3, -9)), ((1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 3, 3))),
    ("C17", ((0, 0), (0, 1), (1, -4), (2, -2)), ((1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 4))),
    ("C18", ((0, 0), (0, 0), (1, -4), (2, -3)), ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 3, 4))),
    ("C19", ((0, 0), (0, 0), (1, -4), (2, -5)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 2, 4), (2, 3, 1))),
    ("C20", ((0, 0), (0, 0), (1, -4), (2, -6)), ((1, 1, 1), (1, 2, 2), (2, 2, 3), (2, 3, 4))),
    ("C21", ((0, 0), (0, 0), (1, -4), (2, -7)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 2, 3), (2, 3, 4))),
    ("C22", ((0, 0), (0, 0), (1, -4), (2, -8)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 2), (2, 2, 3), (2, 3, 4))),
    ("C23", ((0, 0), (0, 0), (1, -5), (1, -3)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 4), (2, 2, 5))),
    ("C24", ((0, 0), (0, 0), (1, -5), (1, -5)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 3), (2, 2, 4), (2, 3, 5))),
    ("C25", ((0, 0), (0, 0), (1, -6), (0, 0)),
     ((1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 1, 4), (2, 2, 5), (2, 3, 6))),
)

_TRIPARTITE_RAW = {"22d": _RAW_22D, "23d": _RAW_23D}

# valid-entry counts by d (last value holds from there on)
_EXPECTED_COUNTS = {
    "22d": {2: 7, 3: 9, 4: 10},
    "23d": {2: 9, 3: 17, 4: 23, 5: 25, 6: 26},
}


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
        return {
            "field": self.tensor.field.descriptor,
            "dims": list(self.tensor.shape.dims),
            "entries": [self.tensor.field.format(c) for c in self.tensor.coeffs],
            "signature": self.signature.as_dict(),
        }


@dataclass(frozen=True)
class ClassEntry:
    """One class: its label, invariant formulas, and representative terms."""

    label: str
    family: str
    terms: tuple[tuple[int, ...], ...]
    formulas: Optional[tuple[Affine, Affine, Affine, Affine]] = None  # tripartite
    level: Optional[int] = None  # bipartite l, k1 = d1 - l
    min_d: Optional[int] = None  # tripartite validity floor

    def invariants_at(self, shape: Shape) -> tuple[int, ...]:
        """The signature key this entry predicts at a concrete shape."""
        if self.family == "bipartite":
            return (shape.dims[0] - self.level,)
        d = shape.dims[2]
        return tuple(a * d + b for a, b in self.formulas)

    def valid_at(self, shape: Shape) -> bool:
        if self.family == "bipartite":
            return self.level <= min(shape.dims)
        return shape.dims[2] >= self.min_d

    def bracket(self) -> str:
        """Representative in bracket notation, '0' for the zero state."""
        if not self.terms:
            return "0"
        return "+".join("[" + ",".join(str(j) for j in t) + "]" for t in self.terms)


@dataclass(frozen=True)
class ClassTable:
    family: str
    shape: Shape
    entries: tuple[ClassEntry, ...]

    def lookup(self, key: tuple[int, ...]) -> Optional[ClassEntry]:
        for entry in self.entries:
            if entry.invariants_at(self.shape) == key:
                return entry
        return None


def _tripartite_entries(family: str) -> tuple[ClassEntry, ...]:
    entries = []
    for label, formulas, terms in _TRIPARTITE_RAW[family]:
        max_third = max((t[2] for t in terms), default=0)
        formula_floor = 2
        while any(a * formula_floor + b < 0 for a, b in formulas):
            formula_floor += 1
        min_d = max(2, max_third)
        if min_d != formula_floor:
            raise InternalConsistencyError(
                f"{family} {label}: representative needs d>={max(2, max_third)} but "
                f"formulas turn non-negative at d>={formula_floor}"
            )
        entries.append(
            ClassEntry(label=label, family=family, terms=terms, formulas=formulas, min_d=min_d)
        )
    return tuple(entries)


_TRIPARTITE_ENTRIES = {fam: _tripartite_entries(fam) for fam in _TRIPARTITE_RAW}


def expected_count(family: str, d: int) -> int:
    """Number of valid classes of a tripartite family at a given d."""
    counts = _EXPECTED_COUNTS[family]
    best = None
    for floor in sorted(counts):
        if d >= floor:
            best = counts[floor]
    if best is None:
        raise ValueError(f"family {family} starts at d=2, got d={d}")
    return best


def family_of(shape: Shape) -> str:
    if shape.n == 2:
        return "bipartite"
    dims = shape.dims
    if dims[0] == 2 and dims[1] == 2 and dims[2] >= 2:
        return "22d"
    if dims[0] == 2 and dims[1] == 3 and dims[2] >= 2:
        return "23d"
    raise UnsupportedShapeError(dims)


def table_for(shape: Shape) -> ClassTable:
    """The class table valid at `shape`, with its self-checks applied.

    Valid entries must have pairwise distinct signature keys, and for the
    tripartite families the valid-entry count must match the expected
    progression (7, 9, 10 for (2,2,d); 9, 17, 23, 25, 26 for (2,3,d)).
    """
    family = family_of(shape)
    if family == "bipartite":
        d1, d2 = shape.dims
        entries = tuple(
            ClassEntry(
                label=f"C{l}",
                family="bipartite",
                terms=tuple((j, j) for j in range(1, l + 1)),
                level=l,
            )
            for l in range(min(d1, d2) + 1)
        )
    else:
        entries = tuple(e for e in _TRIPARTITE_ENTRIES[family] if e.valid_at(shape))
        want = expected_count(family, shape.dims[2])
        if len(entries) != want:
            raise InternalConsistencyError(
                f"{family} at d={shape.dims[2]}: {len(entries)} valid entries, expected {want}"
            )
    keys = [e.invariants_at(shape) for e in entries]
    if len(set(keys)) != len(keys):
        raise InternalConsistencyError(f"duplicate signature keys in {family} at {shape.dims}")
    return ClassTable(family=family, shape=shape, entries=entries)


def classify(v: Tensor) -> str:
    """Class label of `v`, by matching its signature against the table."""
    return classify_full(v)[0]


def classify_full(v: Tensor) -> tuple[str, InvariantSignature]:
    """Label plus the computed signature (one signature evaluation)."""
    table = table_for(v.shape)
    sig = signature(v)
    entry = table.lookup(sig.key())
    if entry is None:
        raise ClassificationGapError(v, sig)
    return entry.label, sig


def representative(
    label: str,
    shape: Shape,
    bases: Optional[Sequence[ExactMatrix]] = None,
    field: Field = QQ,
) -> Tensor:
    """The representative state of a class, optionally in generic bases."""
    family = family_of(shape)
    if family == "bipartite":
        universe = table_for(shape).entries
    else:
        universe = _TRIPARTITE_ENTRIES[family]
    chosen = next((e for e in universe if e.label == label), None)
    if chosen is None:
        raise LabelValidityError(
            f"unknown label {label!r} for family {family}; labels run C0..{universe[-1].label}"
        )
    if not chosen.valid_at(shape):
        values = chosen.invariants_at(shape)
        negative = [v for v in values if v < 0]
        raise LabelValidityError(
            f"{label} is discarded at shape {shape.dims}: invariants {values} "
            f"include negative value(s) {negative}"
        )
    return from_terms(shape, chosen.terms, bases=bases, field=field)


def verify_tables(family: str, d_values: Sequence[int]) -> Report:
    """Re-derive every table entry and compare against its stored formulas.

    For the tripartite families each valid representative's computed
    (k1, k2, k3, k123) must equal the stored affine formulas at every d in
    `d_values`, and the valid-entry count must match the expected
    progression.  For the bipartite family `d_values` ranges over both
    factors and each representative [1,1]+...+[l,l] must give k1 = d1 - l.
    Every entry must also classify back to its own label.
    """
    report = Report(title=f"class-table verification: {family}")
    # (shape, check-name prefix, representative flags) per shape checked
    if family == "bipartite":
        cases = [
            (Shape((d1, d2)), f"({d1},{d2})", f"--d1 {d1} --d2 {d2}")
            for d1 in d_values
            for d2 in d_values
        ]
    elif family in _TRIPARTITE_RAW:
        d_base = {"22d": 2, "23d": 3}[family]
        cases = [(Shape((2, d_base, d)), f"{family} d={d}", f"--d {d}") for d in d_values]
    else:
        raise ValueError(f"unknown family {family!r}; expected bipartite, 22d, or 23d")
    for shape, where, flags in cases:
        table = table_for(shape)
        if family != "bipartite":
            want_count = expected_count(family, shape.dims[2])
            report.add(
                f"{where} class count",
                len(table.entries) == want_count,
                detail=f"{len(table.entries)} valid entries, expected {want_count}",
            )
        for entry in table.entries:
            v = from_terms(shape, entry.terms)
            want = entry.invariants_at(shape)
            label, sig = classify_full(v)
            got = sig.key()
            if family == "bipartite":
                detail = f"k1={got[0]} expected {want[0]}"
            else:
                detail = f"signature key {got}, expected {want}"
            report.add(
                f"{where} {entry.label}",
                got == want and label == entry.label,
                detail=f"{detail}, classified {label}",
                repro=f"entinv representative --family {family} {flags} "
                f"--label {entry.label} | entinv classify -",
            )
    return report
