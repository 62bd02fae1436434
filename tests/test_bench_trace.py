"""The benchmark tracer still finds every layer it times.

`bench/spans.py` times layers by wrapping named module attributes from
outside the program.  A refactor that renames one of them, or stops
calling through it, would silently zero that layer's metrics.  This test
loads the tracer as a plain file, classifies one (2,3,4) document through
`cli.main`, and counts the spans of each layer.
"""

import importlib.util
import io
import json
from collections import Counter
from pathlib import Path

from entinv.cli import main
from entinv.documents import emit_document
from entinv.tensors import Shape, random_tensor

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_classify_234_records_every_layer(monkeypatch, capsys):
    doc = emit_document(random_tensor(Shape((2, 3, 4)), 3, seed=0))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    tracer = _tracer()
    tracer.install()
    try:
        code = main(["classify", "-", "--format", "json"])
    finally:
        tracer.restore()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["class"] is not None
    assert tracer.missing == []

    spans = tracer.cut()["spans"]
    names = Counter(name for name, _, _, _ in spans)
    assert names["tensors.flatten"] == 6
    assert names["invariants.triple_constraint_matrix"] == 1
    rank_parents = Counter(spans[parent][0] for name, _, _, parent in spans if name == "linalg.rank")
    assert rank_parents == {"invariants.kernel_dim": 6, "invariants.triple_kernel_dim": 1}
