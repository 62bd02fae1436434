"""Runnable verification suites behind `entinv verify`.

Each suite returns a :class:`~entinv.reporting.Report` with one pass/fail
line per check.  Randomness is always seeded and per-case seeds derive
from the root seed, so reports are reproducible and safe to parallelize
over inputs.
"""

from __future__ import annotations

from .fields import Field, QQ, fraction_type
from .invariants import slow_route_fault, signature
from .reporting import Report
from .tables import (
    TRIPARTITE_DIMS,
    ClassificationGapError,
    classify_full,
    expected_count,
    representative,
    table_for,
    tripartite_shape,
)
from .linalg import InternalConsistencyError
from .tensors import Shape, Tensor, apply_local, random_invertible, random_tensor

SURVEY_SHAPES = (
    (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5),
    (2, 3, 2), (2, 3, 3), (2, 3, 4), (2, 3, 5), (2, 3, 6),
)

DUALITY_SHAPES = ((2, 2), (3, 4), (2, 2, 2), (2, 2, 3), (2, 3, 4))

# exact (singles, pairs, triple) expected for each (2,2,2) class
THREE_QUBIT_REFERENCE = {
    "C0": ((2, 2, 2), (4, 4, 4), 8),
    "C1": ((1, 1, 1), (3, 3, 3), 4),
    "C2": ((0, 0, 1), (3, 2, 2), 3),
    "C3": ((0, 1, 0), (2, 3, 2), 3),
    "C4": ((1, 0, 0), (2, 2, 3), 3),
    "C5": ((0, 0, 0), (2, 2, 2), 1),
    "C6": ((0, 0, 0), (2, 2, 2), 0),
}


class SuiteFlagError(ValueError):
    """A `verify` flag is out of range, or the suite does not read it."""


def _checked_shapes(d_max: int) -> list[Shape]:
    """(2,2,d) then (2,3,d) for 2 <= d <= d_max, then every (d1,d2) with d1, d2 <= 5."""
    shapes = [tripartite_shape(f, d) for f in TRIPARTITE_DIMS for d in range(2, d_max + 1)]
    return shapes + [Shape((d1, d2)) for d1 in range(1, 6) for d2 in range(1, 6)]


def suite_tables(d_max: int = 8) -> Report:
    """Reproduce every class table entry, plus the three-qubit reference dims.

    Each valid representative must give its entry's key and classify back to
    its label; each tripartite table must hold the expected class count.
    """
    report = Report(title=f"tables (d up to {d_max})")
    for shape in _checked_shapes(d_max):
        table = table_for(shape)
        family = table.family
        if family == "bipartite":
            where, flags = "({},{})".format(*shape.dims), "--d1 {} --d2 {}".format(*shape.dims)
        else:
            d = shape.dims[2]
            where, flags = f"{family} d={d}", f"--d {d}"
            have, expect = len(table.entries), expected_count(family, d)
            report.add(f"{where} class count", have == expect,
                       detail=f"{have} valid entries, expected {expect}")
        for entry in table.entries:
            want = entry.invariants_at(shape)
            label, sig = classify_full(representative(entry.label, shape))
            got = sig.key()
            detail = (f"k1={got[0]} expected {want[0]}" if family == "bipartite"
                      else f"signature key {got}, expected {want}")
            report.add(
                f"{where} {entry.label}",
                got == want and label == entry.label,
                detail=f"{detail}, classified {label}",
                repro=f"entinv representative --family {family} {flags} "
                f"--label {entry.label} | entinv classify -",
            )
    for label, (singles, pairs, triple) in THREE_QUBIT_REFERENCE.items():
        sig = signature(representative(label, Shape((2, 2, 2))))
        report.add(
            f"(2,2,2) {label} full kernel dims",
            (sig.singles, sig.pairs, sig.triple) == (singles, pairs, triple),
            detail=f"got {sig}, expected ({singles};{pairs};{triple})",
        )
    return report


def suite_duality(samples: int = 200, seed: int = 0, field: Field = QQ) -> Report:
    """Complementary flattenings of random states, each ranked on its own, agree."""
    report = Report(title=f"duality ({samples} samples per shape, seed {seed})")
    for dims in DUALITY_SHAPES:
        shape = Shape(dims)
        first_fail = ""
        for i in range(samples):
            v = random_tensor(shape, 5, seed=_child(seed, "duality", dims, i), field=field)
            fault = slow_route_fault(v)
            if fault and not first_fail:
                first_fail = f"sample {i}: {fault}"
        report.add(
            f"rank duality on {dims}",
            not first_fail,
            detail=first_fail,
            repro=f"entinv verify --suite duality --seed {seed} --field {field.descriptor}",
        )
    return report


def suite_local_invariance(draws: int = 100, d_max: int = 5, seed: int = 0) -> Report:
    """Invertible local maps and nonzero scalings must not move signatures (d_max <= 5)."""
    d_max = min(d_max, 5)
    Fraction = fraction_type()
    report = Report(title=f"local invariance ({draws} draws per class, d up to {d_max})")
    scale_fail = ""
    for shape in _checked_shapes(d_max):
        for entry in table_for(shape).entries:
            v = representative(entry.label, shape)
            base_sig = signature(v)
            first_fail = ""
            for i in range(draws):
                maps = [
                    random_invertible(
                        d, 2, seed=_child(seed, "inv", shape.dims, entry.label, i, axis)
                    )
                    for axis, d in enumerate(shape.dims)
                ]
                moved = signature(apply_local(v, maps))
                if moved != base_sig and not first_fail:
                    first_fail = f"draw {i}: {moved} != {base_sig}"
            report.add(
                f"local maps fix {shape.dims} {entry.label}",
                not first_fail,
                detail=first_fail,
                repro=f"entinv verify --suite local-invariance --seed {seed}",
            )
            for c in (Fraction(-3, 7), Fraction(5, 2), Fraction(2)):
                if signature(v.scale(c)) != base_sig and not scale_fail:
                    scale_fail = f"{shape.dims} {entry.label} scaled by {c}"
    for dims in SURVEY_SHAPES:
        shape = Shape(dims)
        for i in range(20):
            v = random_tensor(shape, 3, seed=_child(seed, "scale", dims, i))
            base_sig = signature(v)
            if signature(v.scale(Fraction(-7, 3))) != base_sig and not scale_fail:
                scale_fail = f"random tensor {i} on {dims}"
    report.add("nonzero scaling fixes every signature", not scale_fail, detail=scale_fail)
    return report


def _census(states) -> tuple[dict[str, int], list[tuple[int, ClassificationGapError]]]:
    """Classify each state: the class histogram by label number, and each gap as (index, error)."""
    hist: dict[str, int] = {}
    gaps = []
    for i, v in enumerate(states):
        try:
            label, _ = classify_full(v)
            hist[label] = hist.get(label, 0) + 1
        except ClassificationGapError as exc:
            gaps.append((i, exc))
    return {k: hist[k] for k in sorted(hist, key=lambda s: int(s[1:]))}, gaps


def suite_exhaustive_222(field: Field = QQ) -> Report:
    """Classify all 256 binary (2,2,2) states; report the class histogram."""
    report = Report(title="exhaustive binary (2,2,2) census")
    shape = Shape((2, 2, 2))
    states = [[(mask >> (7 - i)) & 1 for i in range(8)] for mask in range(256)]
    hist, gaps = _census(Tensor(field, shape, bits) for bits in states)
    first = (states[gaps[0][0]], str(gaps[0][1].signature)) if gaps else ""
    report.add(
        "zero classification gaps over 256 binary states",
        not gaps,
        detail=f"{len(gaps)} gaps, first: {first}",
        gap=bool(gaps),
    )
    report.data["histogram"] = hist
    report.data["total"] = sum(hist.values())
    return report


def suite_survey(samples: int = 1000, seed: int = 0, field: Field = QQ) -> Report:
    """Random states with integer entries in [-3, 3] must classify without gaps."""
    report = Report(title=f"survey ({samples} samples per shape, bound 3, seed {seed})")
    histogram: dict[str, dict[str, int]] = {}
    for dims in SURVEY_SHAPES:
        shape = Shape(dims)
        histogram[str(dims)], gaps = _census(
            random_tensor(shape, 3, seed=_child(seed, "survey", dims, i), field=field)
            for i in range(samples)
        )
        detail = ""
        if gaps:
            i, exc = gaps[0]
            detail = (f"{len(gaps)} gaps; first at sample {i}: signature {exc.signature}, "
                      f"state {exc.payload()}")
        report.add(
            f"zero gaps on {dims}",
            not gaps,
            detail=detail,
            repro=f"entinv verify --suite survey --samples {samples} --seed {seed} "
            f"--field {field.descriptor}",
            gap=bool(gaps),
        )
    report.data["histograms"] = histogram
    return report


# each suite's parameters are the `verify` flags it reads
SUITES = {
    "tables": suite_tables,
    "duality": suite_duality,
    "local-invariance": suite_local_invariance,
    "exhaustive-222": suite_exhaustive_222,
    "survey": suite_survey,
}


def run_suite(
    name: str,
    d_max: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
    field: Field = QQ,
) -> Report:
    """Run one suite; a flag left at None keeps the suite's own default.

    Raises SuiteFlagError for a flag out of range, a flag the suite does
    not read, or a field other than the rationals for a suite without one.
    A fault or a gap that stops the suite is its one failed check.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if samples is not None and samples < 1:
        raise SuiteFlagError(f"--samples must be >= 1, got {samples}")
    if d_max is not None and d_max < 2:
        raise SuiteFlagError(f"--d-max must be >= 2, got {d_max}")
    code = SUITES[name].__code__
    reads = code.co_varnames[: code.co_argcount]
    given = {"samples": samples, "seed": seed, "d_max": d_max}
    kwargs = {param: value for param, value in given.items() if value is not None}
    for param in kwargs:
        if param not in reads:
            raise SuiteFlagError(f"suite {name} does not take --{param.replace('_', '-')}")
    if "field" in reads:
        kwargs["field"] = field
    elif field != QQ:
        raise SuiteFlagError(
            f"suite {name} runs over the rationals only, got --field {field.descriptor}"
        )
    try:
        report = SUITES[name](**kwargs)
    except (InternalConsistencyError, ClassificationGapError) as exc:
        report = Report(title=name)
        gap = isinstance(exc, ClassificationGapError)
        report.add(f"suite {name} ran to the end", False, detail=str(exc), gap=gap)
        return report
    if field != QQ:
        report.notes.append(f"field {field.descriptor}: results are field-dependent")
    return report


def _child(seed: int, *tags) -> int:
    """Stable per-case seed derived from the root seed and a tag path."""
    text = "|".join(str(t) for t in (seed,) + tags)
    h = 0
    for ch in text:
        h = (h * 1000003 + ord(ch)) % (2**61 - 1)
    return h
