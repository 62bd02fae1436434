"""The benchmark tracer still finds every layer it times.

`bench/spans.py` times layers by wrapping named module attributes from
outside the program.  A refactor that renames one of them, or stops
calling through it, would silently zero that layer's metrics.  These
tests load the tracer as a plain file, classify one document through
`cli.main`, and count the spans of each layer: a (2,3,4) state, a
(2,3,12) state on each route of `triple_kernel_dim`, and a (2,3,4)
Gaussian-rational state, whose ranks run over the Gaussian integers.  A
tripartite signature reads its slices into the integer image once and
ranks everything there: it calls no `flatten` and no `ExactMatrix.rank`,
builds no `triple_constraint_matrix`, and calls `triple_kernel_dim` once.
One more runs the local-invariance suite, the only path through the
`suites.*` targets.
"""

import importlib.util
import io
import json
from collections import Counter
from pathlib import Path

from entinv.cli import main
from entinv.documents import emit_document
from entinv.fields import QQI, GaussianRational
from entinv.suites import suite_local_invariance
from entinv.tensors import (
    Shape,
    apply_local,
    flatten,
    from_terms,
    random_invertible,
    random_tensor,
)
from elements import from_rows

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _classify_traced(v, monkeypatch, capsys) -> dict:
    """Classify `v` through `cli.main` under the tracer; return its cut."""
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_document(v)))
    tracer = _tracer()
    tracer.install()
    try:
        code = main(["classify", "-", "--format", "json"])
    finally:
        tracer.restore()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["class"] is not None
    assert tracer.missing == []
    return tracer.cut()


def _rank_parents(spans) -> Counter:
    return Counter(spans[parent][0] for name, _, _, parent in spans if name == "linalg.rank")


def test_classify_234_records_every_layer(monkeypatch, capsys):
    v = random_tensor(Shape((2, 3, 4)), 3, seed=0)
    spans = _classify_traced(v, monkeypatch, capsys)["spans"]
    names = Counter(name for name, _, _, _ in spans)
    assert names["tensors.flatten"] == 0
    assert names["invariants.triple_kernel_dim"] == 1
    assert names["invariants.triple_constraint_matrix"] == 0
    assert _rank_parents(spans) == {}


def test_generic_2312_state_builds_no_k123_system(monkeypatch, capsys):
    # its (1,2) flattening has full rank 6, so K12 = 0 and k123 = 0 directly
    cut = _classify_traced(random_tensor(Shape((2, 3, 12)), 3, seed=0), monkeypatch, capsys)
    names = Counter(name for name, _, _, _ in cut["spans"])
    assert names["tensors.flatten"] == 0
    assert names["invariants.triple_kernel_dim"] == 1
    assert names["invariants.triple_constraint_matrix"] == 0
    assert _rank_parents(cut["spans"]) == {}
    assert cut["cells"] == 0


def test_class_2312_state_ranks_its_concise_slices(monkeypatch, capsys):
    # C5 = [1,1,1]+[1,2,2]+[2,1,2] has r = 2 independent third-factor slices
    shape = Shape((2, 3, 12))
    bases = [random_invertible(d, 2, seed=axis) for axis, d in enumerate(shape.dims)]
    v = apply_local(from_terms(shape, [(1, 1, 1), (1, 2, 2), (2, 1, 2)]), bases)
    r = flatten(v, (1, 2)).rank()
    assert r == 2
    cut = _classify_traced(v, monkeypatch, capsys)
    names = Counter(name for name, _, _, _ in cut["spans"])
    assert names["tensors.flatten"] == 0
    assert names["invariants.triple_kernel_dim"] == 1
    assert names["invariants.triple_constraint_matrix"] == 0
    assert cut["cells"] == 0
    assert _rank_parents(cut["spans"]) == {}


def test_gaussian_234_class_state_ranks_on_both_layers(monkeypatch, capsys):
    # C5 in unipotent bases with entries i above the diagonal
    i = GaussianRational(0, 1)
    shape = Shape((2, 3, 4))
    bases = [
        from_rows(QQI, [[i if c > r else int(r == c) for c in range(d)] for r in range(d)])
        for d in shape.dims
    ]
    v = apply_local(from_terms(shape, [(1, 1, 1), (1, 2, 2), (2, 1, 2)], field=QQI), bases)
    assert any(c.im for c in v.coeffs)
    spans = _classify_traced(v, monkeypatch, capsys)["spans"]
    names = Counter(name for name, _, _, _ in spans)
    assert names["tensors.flatten"] == 0
    assert names["invariants.triple_kernel_dim"] == 1
    assert names["invariants.triple_constraint_matrix"] == 0
    assert _rank_parents(spans) == {}


def test_local_invariance_suite_records_every_layer():
    # d <= 2: 96 classes (7 at (2,2,2), 9 at (2,3,2), 80 bipartite), one
    # draw each; 5 signatures per class plus 2 for each of 180 scaled states
    tracer = _tracer()
    tracer.install()
    try:
        report = suite_local_invariance(draws=1, d_max=2, seed=0)
    finally:
        tracer.restore()
    assert report.passed
    assert tracer.missing == []
    names = Counter(name for name, _, _, _ in tracer.cut()["spans"])
    assert names["suites.representative"] == 96
    assert names["tensors.apply_local"] == 96
    assert names["suites.random_invertible"] == 208
    assert names["invariants.signature"] == 840
