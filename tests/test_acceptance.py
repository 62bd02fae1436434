"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single [An] PASS/FAIL line (visible with `pytest -s`
or on failure).  The (2,2,2) census is checked against the independent
row-reduction oracle in oracle_222.py, both live and against its frozen
histogram.
"""

import oracle_222
from elements import from_rows, zero

from entinv.fields import QQ
from entinv.invariants import general_form_decomposition, kernel_dim, signature
from entinv.suites import (
    THREE_QUBIT_REFERENCE,
    suite_duality,
    suite_exhaustive_222,
    suite_local_invariance,
    suite_survey,
    suite_tables,
)
from entinv.tables import representative, table_for
from entinv.tensors import Shape, from_terms

# frozen from a standalone run of oracle_222.py
ORACLE_HISTOGRAM_222 = {
    "C0": 1, "C1": 27, "C2": 18, "C3": 18, "C4": 18, "C5": 40, "C6": 134,
}

COUNTS_22D = (7, 9, 10, 10, 10, 10, 10)
COUNTS_23D = (9, 17, 23, 25, 26, 26, 26)


def _report(tag: str, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{tag}] {description}: {status}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_a1_table_reproduction_22d():
    checks = [c for c in suite_tables(d_max=8).checks if c.name.startswith("22d ")]
    counts_ok = len(checks) == len(COUNTS_22D) + sum(COUNTS_22D) and all(
        len(table_for(Shape((2, 2, d))).entries) == want
        for d, want in zip(range(2, 9), COUNTS_22D)
    )
    failures = [c.name for c in checks if not c.passed]
    _report(
        "A1",
        "(2,2,d) table reproduced exactly for d=2..8 with counts 7,9,10,10,10,10,10",
        not failures and counts_ok,
        f"failures: {failures}",
    )


def test_a2_table_reproduction_23d():
    checks = [c for c in suite_tables(d_max=8).checks if c.name.startswith("23d ")]
    counts_ok = len(checks) == len(COUNTS_23D) + sum(COUNTS_23D) and all(
        len(table_for(Shape((2, 3, d))).entries) == want
        for d, want in zip(range(2, 9), COUNTS_23D)
    )
    failures = [c.name for c in checks if not c.passed]
    _report(
        "A2",
        "(2,3,d) table reproduced exactly for d=2..8 with counts 9,17,23,25,26,26,26",
        not failures and counts_ok,
        f"failures: {failures}",
    )


def test_a3_bipartite_law():
    bad = []
    for d1 in range(1, 6):
        for d2 in range(1, 6):
            shape = Shape((d1, d2))
            for l in range(min(d1, d2) + 1):
                v = from_terms(shape, [(j, j) for j in range(1, l + 1)])
                k1 = kernel_dim(v, (1,))
                if k1 != d1 - l:
                    bad.append(((d1, d2), l, k1))
    _report(
        "A3",
        "bipartite representatives give k1 = d1 - l for all d1,d2 <= 5",
        not bad,
        f"first: {bad[:3]}",
    )


def test_a4_three_qubit_reference_signatures():
    shape = Shape((2, 2, 2))
    bad = []
    for label, (singles, pairs, triple) in THREE_QUBIT_REFERENCE.items():
        sig = signature(representative(label, shape))
        if (sig.singles, sig.pairs, sig.triple) != (singles, pairs, triple):
            bad.append((label, str(sig)))
    _report(
        "A4",
        "all seven (2,2,2) classes match the case-analysis kernel dimensions exactly",
        not bad,
        f"{bad}",
    )


def test_a5_completeness_probe():
    census = suite_exhaustive_222()
    live_oracle = oracle_222.census()
    histogram = census.data["histogram"]
    exhaustive_ok = (
        census.passed
        and histogram == ORACLE_HISTOGRAM_222
        and histogram == live_oracle
        and census.data["total"] == 256
    )
    survey = suite_survey(samples=1000, seed=20260808)
    _report(
        "A5",
        "256-state census matches the independent oracle and 9000 random states "
        "classify with zero gaps",
        exhaustive_ok and survey.passed,
        f"census={histogram}, oracle={live_oracle}, "
        f"survey failures: {[c.name for c in survey.checks if not c.passed]}",
    )


def test_a6_invariance_properties():
    local = suite_local_invariance(draws=100, d_max=5, seed=20260808)
    duality = suite_duality(samples=200, seed=20260808)
    _report(
        "A6",
        "signatures unchanged under 100 local-map draws per class and under scaling; "
        "rank duality holds on 200 random states per shape",
        local.passed and duality.passed,
        f"local failures: {[c.name for c in local.checks if not c.passed][:3]}, "
        f"duality failures: {[c.name for c in duality.checks if not c.passed][:3]}",
    )


def test_a7_decomposition_contract():
    from entinv.tensors import flatten

    shapes = [Shape((2, b, d)) for b in (2, 3) for d in range(2, 9)]
    shapes += [Shape((d1, d2)) for d1 in range(1, 6) for d2 in range(1, 6)]
    bad = []
    for shape in shapes:
        for entry in table_for(shape).entries:
            v = representative(entry.label, shape)
            for factor in range(1, shape.n + 1):
                pairs = general_form_decomposition(v, (factor,))
                dim_w = shape.dims[factor - 1]
                expected = dim_w - kernel_dim(v, (factor,))
                target = flatten(v, (factor,))
                recon = [zero(QQ)] * (target.rows * target.cols)
                for w, wp in pairs:
                    for r in range(target.rows):
                        if w[r]:
                            for c in range(target.cols):
                                recon[r * target.cols + c] += w[r] * wp[c]
                ok = len(pairs) == expected and recon == target.entries
                if ok and pairs:
                    left = from_rows(QQ, [w for w, _ in pairs])
                    right = from_rows(QQ, [wp for _, wp in pairs])
                    ok = left.rank() == len(pairs) and right.rank() == len(pairs)
                if not ok:
                    bad.append((shape.dims, entry.label, factor))
    _report(
        "A7",
        "rank decomposition reconstructs every representative exactly with "
        "independent spans",
        not bad,
        f"first: {bad[:3]}",
    )
