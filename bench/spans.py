"""Spans recorded from outside the program, and the per-layer split.

The traced run replaces module attributes that the real code path calls
through with wrappers that record a span per call: name, start, end and
parent.  The program itself is unchanged; `restore()` puts every original
back.  Self time of a span is its duration minus that of its children.
"""

from __future__ import annotations

import functools
import statistics
from fractions import Fraction
from time import perf_counter

import entinv.cli
import entinv.invariants
import entinv.linalg
import entinv.suites
import entinv.tables

# (owner, attribute, span name): every attribute the classify and
# local-invariance paths call through, as seen from the caller's module.
TARGETS = (
    (entinv.cli, "parse_document", "documents.parse_document"),
    (entinv.tables, "table_for", "tables.table_for"),
    (entinv.tables, "signature", "invariants.signature"),
    (entinv.tables.ClassTable, "lookup", "tables.lookup"),
    (entinv.invariants, "kernel_dim", "invariants.kernel_dim"),
    (entinv.invariants, "flatten", "tensors.flatten"),
    (entinv.invariants, "triple_kernel_dim", "invariants.triple_kernel_dim"),
    (entinv.invariants, "triple_constraint_matrix", "invariants.triple_constraint_matrix"),
    (entinv.linalg.ExactMatrix, "rank", "linalg.rank"),
    (entinv.suites, "signature", "invariants.signature"),
    (entinv.suites, "table_for", "tables.table_for"),
    (entinv.suites, "apply_local", "tensors.apply_local"),
    (entinv.suites, "random_invertible", "suites.random_invertible"),
    (entinv.suites, "representative", "suites.representative"),
)

# a rank call is a flattening rank or the k123 rank by the span that made it
_RANK_KIND = {"invariants.kernel_dim": "flat_rank", "invariants.triple_kernel_dim": "k123_rank"}

# names whose self time is signature glue rather than a layer of its own
_SIGNATURE_GLUE = ("invariants.signature", "invariants.kernel_dim", "invariants.triple_kernel_dim")

PER_LAYER_UNITS = {
    "documents.parse_s": "s",
    "cli.self_s": "s",
    "tensors.flatten_s": "s",
    "tensors.flatten_calls": "count",
    "tensors.apply_local_s": "s",
    "suites.random_invertible_s": "s",
    "linalg.flat_rank_s": "s",
    "linalg.flat_rank_calls": "count",
    "invariants.k123_build_s": "s",
    "invariants.k123_cells": "count",
    "invariants.k123_entry_bits_max": "bits",
    "linalg.k123_rank_s": "s",
    "linalg.k123_rank_calls": "count",
    "invariants.signature_self_s": "s",
    "invariants.signature_calls": "count",
    "tables.table_for_s": "s",
    "tables.lookup_s": "s",
    "tables.classes_hit": "count",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_s": "s",
}


def _entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if hasattr(x, "re"):
        return max(_entry_bits(x.re), _entry_bits(x.im))
    return int(getattr(x, "value", x)).bit_length()


class Tracer:
    """Collects spans in memory while installed; `cut()` hands them over."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.classes: set = set()
        self.cells = 0
        self.bits_max = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span named `name` and return its result."""
        spans, stack = self.spans, self._stack
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrap(self, fn, name: str, attr: str):
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = span(name, fn, *args, **kwargs)
            # bookkeeping gets a span of its own so no layer is charged for it
            if attr == "triple_constraint_matrix":
                span("trace.bookkeeping", self._note_k123, out)
            elif attr == "lookup" and out is not None:
                self.classes.add((args[0].shape.dims, out.label))
            elif attr == "representative":
                self.classes.add((args[1].dims, args[0]))
            return out

        return traced

    def _note_k123(self, m):
        self.cells += m.rows * m.cols
        self.bits_max = max(self.bits_max, max(map(_entry_bits, m.entries), default=0))

    def install(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attr))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def cut(self) -> dict:
        """Spans and counters recorded since the last cut; then reset."""
        out = {"spans": self.spans, "classes": self.classes,
               "cells": self.cells, "bits_max": self.bits_max}
        self.spans, self.classes, self.cells, self.bits_max = [], set(), 0, 0
        return out


def self_times(spans: list[list]) -> list[float]:
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_split(cut: dict, wall: float, factor: float) -> dict:
    """Per-layer metrics of one traced pass that took `wall` seconds.

    Times are multiplied by `factor`, the pass's host-speed scale.
    """
    spans = cut["spans"]
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    m = {k: 0 for k in PER_LAYER_UNITS if not k.startswith("trace.")}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        if parent < 0:
            covered += d
        if name == "documents.parse_document":
            m["documents.parse_s"] += d
        elif name == "cli.main":
            m["cli.self_s"] += selfs[i]
        elif name == "tensors.flatten":
            m["tensors.flatten_s"] += d
            m["tensors.flatten_calls"] += 1
        elif name == "tensors.apply_local":
            m["tensors.apply_local_s"] += d
        elif name == "suites.random_invertible":
            m["suites.random_invertible_s"] += d
        elif name == "invariants.triple_constraint_matrix":
            m["invariants.k123_build_s"] += d
        elif name == "tables.table_for":
            m["tables.table_for_s"] += d
        elif name == "tables.lookup":
            m["tables.lookup_s"] += d
        elif name == "linalg.rank" and parent >= 0 and names[parent] in _RANK_KIND:
            kind = _RANK_KIND[names[parent]]
            m[f"linalg.{kind}_s"] += d
            m[f"linalg.{kind}_calls"] += 1
        if name in _SIGNATURE_GLUE:
            m["invariants.signature_self_s"] += selfs[i]
            if name == "invariants.signature":
                m["invariants.signature_calls"] += 1
    m["invariants.k123_cells"] = cut["cells"]
    m["invariants.k123_entry_bits_max"] = cut["bits_max"]
    m["tables.classes_hit"] = len(cut["classes"])
    m["trace.uncovered_s"] = wall - covered
    for key, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            m[key] *= factor
    return m


def per_root(spans: list[list], root_name: str) -> list[dict]:
    """Duration, k123 rank and flattening rank seconds under each `root_name` span."""
    roots: list[dict] = []
    root_of = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            root_of.append(len(roots) if name == root_name else -1)
            if name == root_name:
                roots.append({"total": end - start, "k123_rank": 0.0, "flat_rank": 0.0})
            continue
        root_of.append(root_of[parent])
        kind = _RANK_KIND.get(spans[parent][0]) if name == "linalg.rank" else None
        if kind and root_of[i] >= 0:
            roots[root_of[i]][kind] += end - start
    return roots


def median_split(splits: list[dict]) -> dict:
    """Median of each time over passes; counts are taken from the first pass."""
    out = {}
    for key, unit in PER_LAYER_UNITS.items():
        if key not in splits[0]:
            continue
        values = [s[key] for s in splits]
        out[key] = statistics.median(values) if unit == "s" else values[0]
    return out
