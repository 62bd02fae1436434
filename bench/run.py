"""entinv benchmark: seeded workloads, end-to-end metrics, traced layer split.

    python3 bench/run.py --workload qq-k123 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Load is one closed loop in this process: each state is classified only
after the previous one finished.  A workload is a fixed list of inputs
made from the seed (a "pass"); passes repeat until the time is up.  All
times are scaled to a reference host speed (see hostspeed.py), and each
input's latency is its median over the passes.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the time is split between untraced and traced passes and it
carries the per-layer metrics.  The line before it holds run metadata.
Spans of traced runs are written to bench/out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import PROBE_REF_S, Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

CLASSIFY_ARGV = ["classify", "-", "--format", "json"]
SETUP_RUNS = 11
SETUP_PROBES = 5
VERIFY_DRAWS = 3
VERIFY_D_MAX = 5

SMALL_TRIPARTITE = ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (2, 3, 4),
                    (2, 3, 5), (2, 3, 6))
SMALL_BIPARTITE = tuple((d1, d2) for d1 in range(2, 6) for d2 in range(2, 6))

# The percentile reported as each workload's tail latency: the highest
# with at least 10 of a pass's inputs beyond it, fixed so that runs of
# different commits compare.  Why each workload exists is in BENCHMARK.json.
TAIL_PERCENTILE = {"qq-k123": 80, "qi-rref": 85, "cli-stream": 99, "verify-invariance": 99}


# -- inputs ------------------------------------------------------------


def make_pool(workload: str, seed: int) -> list[tuple[str, str, tuple]]:
    """(document, expected class, dims) for each state of one pass."""
    from generate import class_labels, class_state

    rng = random.Random(f"{workload}|{seed}")
    pool = []
    if workload == "qq-k123":
        dims = (2, 3, 12)
        for label in class_labels(dims):
            for rational in (False, True):
                pool.append((class_state("rational", dims, label, rng, rational), label, dims))
        # a seeded pair of C17-C22, the classes whose k123 is 2d + b: their
        # k123 systems have rank 98-104 at d = 24, so a pass costs about the
        # same for every seed
        dims = (2, 3, 24)
        for label in rng.sample([f"C{i}" for i in range(17, 23)], 2):
            pool.append((class_state("rational", dims, label, rng, True), label, dims))
    elif workload == "qi-rref":
        # every class up to (2,3,4); at (2,3,5) and (2,3,6), where a state
        # costs 0.1-0.6 s, one seeded class from each half of the nonzero ones
        for dims in SMALL_TRIPARTITE:
            labels = class_labels(dims)
            if dims[2] > 4:
                half = len(labels) // 2
                labels = [rng.choice(labels[1:half]), rng.choice(labels[half:])]
            for label in labels:
                pool.append((class_state("gaussian-rational", dims, label, rng), label, dims))
    elif workload == "cli-stream":
        for copy in range(4):
            for field in ("rational", "gf(101)"):
                for dims in SMALL_TRIPARTITE + SMALL_BIPARTITE:
                    for label in class_labels(dims):
                        doc = class_state(field, dims, label, rng, rational=copy % 2 == 1)
                        pool.append((doc, label, dims))
    return pool


def verify_shapes() -> list[tuple]:
    tripartite = [(2, b, d) for b in (2, 3) for d in range(2, VERIFY_D_MAX + 1)]
    return tripartite + [(d1, d2) for d1 in range(1, 6) for d2 in range(1, 6)]


# -- measurement -------------------------------------------------------


class Pass:
    """One pass: wall time without probes, per-state latencies, checked outputs.

    `factor` scales this pass's times to the reference host speed.
    """

    def __init__(self):
        self.wall = 0.0
        self.raw_wall = 0.0
        self.factor = 1.0
        self.latencies: list[float] = []
        self.marks: list[int] = []
        self.scaled: list[float] = []
        self.outputs: list = []
        self.failures: list[str] = []
        self.attempted = 0
        self.cut = None

    def finish(self, start: float, speed: Speedometer):
        self.factor = speed.factor()
        self.raw_wall = perf_counter() - start
        self.wall = self.raw_wall - speed.spent
        self.scaled = [x * speed.local(k) for x, k in zip(self.latencies, self.marks)]


def classify_pass(pool, tracer=None) -> Pass:
    import entinv.cli

    main = entinv.cli.main
    p = Pass()
    real = sys.stdin, sys.stdout, sys.stderr
    start = perf_counter()
    speed = Speedometer(tracer)
    try:
        for doc, want, dims in pool:
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(doc), io.StringIO(), io.StringIO()
            p.marks.append(speed.mark())
            t0 = perf_counter()
            try:
                code = tracer.span("cli.main", main, CLASSIFY_ARGV) if tracer else main(CLASSIFY_ARGV)
            except Exception as exc:  # a crash is a counted failure, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
            p.latencies.append(perf_counter() - t0)
            out = sys.stdout.getvalue()
            sys.stdin, sys.stdout, sys.stderr = real
            label = _json_class(out)
            p.outputs.append(label)
            if code != 0 or label != want:
                p.failures.append(f"{dims} {want}: exit {code}, class {label}")
            speed.tick()
    finally:
        sys.stdin, sys.stdout, sys.stderr = real
    p.finish(start, speed)
    p.attempted = len(pool)
    return p


def _json_class(out: str):
    try:
        return json.loads(out)["class"]
    except (ValueError, KeyError, TypeError):
        return None


def verify_pass(seed: int, tracer=None) -> Pass:
    import entinv.suites

    suites = entinv.suites
    p = Pass()
    start = perf_counter()
    speed = Speedometer(tracer)
    original = suites.signature

    # client-side latency of each signature evaluation; probes run between them
    def timed(*args, **kwargs):
        p.marks.append(speed.mark())
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            p.latencies.append(perf_counter() - t0)
            speed.tick()

    suites.signature = timed
    kwargs = {"draws": VERIFY_DRAWS, "d_max": VERIFY_D_MAX, "seed": seed}
    try:
        if tracer:
            report = tracer.span("suites.suite_local_invariance",
                                 suites.suite_local_invariance, **kwargs)
        else:
            report = suites.suite_local_invariance(**kwargs)
    except Exception as exc:  # counted as one failed check
        report = None
        p.failures.append(f"suite raised {type(exc).__name__}: {exc}")
        p.attempted = 1
    finally:
        suites.signature = original
    p.finish(start, speed)
    if report is not None:
        p.outputs = [(c.name, c.passed) for c in report.checks]
        p.failures = [f"{c.name}: {c.detail}" for c in report.checks if not c.passed]
        p.attempted = len(report.checks)
    return p


def run_passes(one_pass, budget: float) -> list[Pass]:
    """Whole passes while the next one is expected to fit in `budget`."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(one_pass())
        if perf_counter() - start + passes[-1].raw_wall > budget:
            return passes


def measure_setup(shapes) -> tuple[list[float], list[float]]:
    """Seconds to import entinv and build each shape's table, in fresh interpreters.

    Returns the raw samples and the samples scaled by probe runs made
    just before each one.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import entinv, entinv.cli\n"
        f"for dims in {list(shapes)!r}:\n"
        "    entinv.table_for(entinv.Shape(dims))\n"
        "print(time.perf_counter() - t)\n"
    )
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        speed = Speedometer()
        for _ in range(SETUP_PROBES):
            speed.tick(force=True)
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * PROBE_REF_S / statistics.fmean(speed.probes))
    return raw, scaled


def percentile(values: list[float], q: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metadata(workload: str, seed: int) -> dict:
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in sorted(SRC.rglob("*.py")))
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
    }


# -- main --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(TAIL_PERCENTILE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "entinv" / "__init__.py").is_file():
        print(f"error: no entinv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entinv

    if Path(entinv.__file__).resolve().parent != SRC / "entinv":
        print(f"error: imported entinv from {entinv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    meta = metadata(args.workload, args.seed)
    verify = args.workload == "verify-invariance"
    t0 = perf_counter()
    pool = [] if verify else make_pool(args.workload, args.seed)
    meta["generate_s"] = perf_counter() - t0
    meta["pass_states"] = len(pool) if not verify else None

    def one_pass(tracer=None):
        if verify:
            return verify_pass(args.seed, tracer)
        return classify_pass(pool, tracer)

    if args.trace:
        metrics, passes, ok = traced_run(args, meta, one_pass, pool)
    else:
        shapes = verify_shapes() if verify else sorted({dims for _, _, dims in pool})
        raw_setup, setup = measure_setup(shapes)
        meta["setup_raw_s"] = raw_setup
        passes = run_passes(one_pass, args.seconds)
        metrics = end_to_end(passes, setup, TAIL_PERCENTILE[args.workload], meta)
        ok = True

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    meta["passes"] = len(passes)
    meta["error_rate"] = len(failures) / attempted
    meta["first_failures"] = failures[:5]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": ok and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end(passes: list[Pass], setup: list[float], tail_q: int, meta: dict) -> dict:
    """End-to-end metrics; times are scaled to the reference host speed.

    Each input's latency is scaled by the probes around it and is its
    median over the passes; the latency
    percentiles are taken over inputs, and the pass time is the sum of
    those medians plus the median time spent between them.
    """
    latencies = [statistics.median(col) for col in zip(*(p.scaled for p in passes))]
    between = statistics.median((p.wall - sum(p.latencies)) * p.factor for p in passes)
    wall = sum(latencies) + between
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    meta["raw"] = {
        "wall_s": statistics.median(p.wall for p in passes),
        "state_ms_p50": 1000 * statistics.median(x for p in passes for x in p.latencies),
        "speed_factors": [p.factor for p in passes],
    }
    meta["latency_inputs"] = len(latencies)
    meta["tail_percentile"] = tail_q
    meta["tail_inputs_beyond"] = len(latencies) * (100 - tail_q) / 100
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "states_per_s": (len(latencies) / wall, "1/s"),
        "state_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "state_ms_tail": (1000 * percentile(latencies, tail_q), "ms"),
        "success_rate": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(args, meta, one_pass, pool):
    """Untraced passes, then traced passes, in equal shares of the time."""
    from spans import PER_LAYER_UNITS, Tracer, layer_split, median_split, per_root

    plain = run_passes(one_pass, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        def traced_pass():
            tracer.cut()
            p = one_pass(tracer)
            p.cut = tracer.cut()
            return p

        traced = run_passes(traced_pass, args.seconds / 2)
    finally:
        tracer.restore()
    meta["untraced_passes"] = len(plain)
    meta["trace_targets_missing"] = tracer.missing
    same = all(p.outputs == plain[0].outputs for p in plain + traced)
    meta["traced_outputs_match"] = same

    split = median_split([layer_split(p.cut, p.raw_wall, p.factor) for p in traced])
    split["trace.overhead_ratio"] = (statistics.median(p.wall * p.factor for p in traced)
                                     / statistics.median(p.wall * p.factor for p in plain))
    meta["speed_factor"] = traced[0].factor
    if pool:
        roots = per_root(traced[0].cut["spans"], "cli.main")
        meta["per_state_ms"] = breakdown(pool, roots, traced[0].factor)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps({"columns": ["name", "start", "end", "parent"],
                                "passes": [p.cut["spans"] for p in traced]}))
    meta["spans_file"] = str(path.relative_to(ROOT))
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in split.items()}
    return metrics, plain + traced, same


def breakdown(pool, roots, factor: float) -> dict:
    """Mean per-state ms by (field, dims): total, k123 rank, flattening ranks (scaled)."""
    groups: dict[str, list] = {}
    for (doc, _, dims), r in zip(pool, roots):
        key = f"{json.loads(doc)['field']} {dims}"
        groups.setdefault(key, []).append(r)
    return {
        key: {"n": len(rs), **{k: round(1000 * factor * statistics.fmean(r[k] for r in rs), 3)
                               for k in ("total", "k123_rank", "flat_rank")}}
        for key, rs in groups.items()
    }


if __name__ == "__main__":
    sys.exit(main())
