"""The benchmark's inputs depend on the seed alone.

Run with `python3 -m pytest bench` from the root of a checkout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import run  # noqa: E402

POOLED = ("qq-k123", "qi-rref", "cli-stream")

DIGEST = (
    "import hashlib, sys\n"
    f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
    "import run\n"
    "for w in sys.argv[2:]:\n"
    "    docs = [d for d, _, _ in run.make_pool(w, int(sys.argv[1]))]\n"
    "    print(w, hashlib.sha256('\\n'.join(docs).encode()).hexdigest())\n"
)


def _digests(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-c", DIGEST, str(seed), *POOLED], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_one_seed_gives_byte_identical_documents():
    first = _digests(7, "1")
    assert first == _digests(7, "2")
    assert len(first.splitlines()) == len(POOLED)
    docs = [d for d, _, _ in run.make_pool("qq-k123", 7)]
    want = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert f"qq-k123 {want}" in first.splitlines()


def test_other_seed_gives_other_documents():
    for workload in POOLED:
        assert run.make_pool(workload, 1) != run.make_pool(workload, 2)


def test_pool_states_are_labelled_with_their_class():
    import entinv

    for workload in POOLED:
        for doc, label, dims in run.make_pool(workload, 3)[::25]:
            tensor = entinv.parse_document(doc)
            assert tensor.shape.dims == dims
            assert entinv.classify(tensor) == label
