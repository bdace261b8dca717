"""Closed-loop benchmark of gtt through its public API.

    python3 perfbench/run.py --workload transform --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) in a single process with one client:
each gtt call is issued after the previous one returns.  The program under
test is imported from ``src/`` of the checkout this file sits in; without it
the benchmark exits with code 2.

With ``--trace 0`` the last stdout line carries the end-to-end metrics named
in BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from traced rounds that alternate with untraced ones so that the tracing
overhead is measured in the same process.  The line before it is a
``{"detail": ...}`` object with the environment, the seed and input hash,
the tail percentile and sample count, and the failure ratio.

Set-up is timed cold: each sample runs in a fresh interpreter that imports
gtt, generates the inputs, builds the operators and runs one warm-up round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # fresh interpreters that time the whole set-up
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
ALLOC_FNS = ("compress_fully_quantum", "sample_matrix", "series_coefficients", "optimize_theta")
OUT_DIR = ".perfbench_out"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_gtt():
    """Import gtt from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "gtt" / "__init__.py").is_file():
        fail(f"no gtt sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import gtt

    if src.resolve() not in Path(gtt.__file__).resolve().parents:
        fail(f"imported gtt from {gtt.__file__}, not from {src}")
    return gtt


# Runs in a fresh interpreter: times import, input generation, operator
# construction and the warm-up round, and prints the time and input hash.
SETUP_CHILD = (
    "import json, sys, time; sys.path.insert(0, sys.argv[1]); import run; "
    "t = time.perf_counter(); gtt = run.import_gtt(); "
    "p = run.setup(gtt, sys.argv[2], int(sys.argv[3])); "
    "print(json.dumps([time.perf_counter() - t, p.input_hash()]))"
)


def cold_setups(workload: str, seed: int) -> list[tuple[float, str]]:
    """(seconds, input hash) of SETUP_REPEATS set-ups, each in a new process.

    Each child starts after the previous one has exited, so one-time costs
    (imports, BLAS thread start-up, first-call caches) are in every sample.
    """
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up child exited with {proc.returncode}")
        seconds, digest = json.loads(proc.stdout.splitlines()[-1])
        out.append((seconds, digest))
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


class Loop:
    """Runs rounds of operations, timing each call and checking its output."""

    def __init__(self, tracer=None, check=True):
        self.tracer = tracer
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.request = 0

    def _fail(self, op, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.key}: {why}")

    def run_op(self, op, ctx):
        """Run one operation; returns its latency in seconds, or None."""
        self.attempted += 1
        if any(k not in ctx for k in op.needs):
            self._fail(op, "an operation it depends on failed")
            return None
        if self.tracer is not None:
            self.tracer.request = self.request
        self.request += 1
        t0 = time.perf_counter()
        try:
            out = op.run(ctx)
        except Exception:
            self._fail(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        elapsed = time.perf_counter() - t0
        try:
            ok = not self.check or op.check(ctx, out)
        except Exception:
            ok = False
        if ok:
            ctx[op.key] = out
        else:
            self._fail(op, "output failed its correctness check")
        return elapsed

    def run_round(self, ops):
        """Latencies of one round.

        An output is kept only until the last operation that reads it has
        run, so the round holds no more memory than the program needs.
        """
        ctx: dict = {}
        waiting = Counter(k for op in ops for k in op.needs)
        lat = []
        for op in ops:
            t = self.run_op(op, ctx)
            if t is not None:
                lat.append(t)
            for k in op.needs:
                waiting[k] -= 1
            for k in op.needs + (op.key,):
                if waiting[k] <= 0:
                    ctx.pop(k, None)
        return lat


def setup(gtt, workload, seed):
    """Generate inputs, build operators, run one unchecked warm-up round."""
    import numpy as np

    from workloads import WORKLOADS

    prepared = WORKLOADS[workload](gtt, np.random.default_rng(seed))
    Loop(check=False).run_round(prepared.round)  # the timed loop reports failures
    return prepared


def tail(latencies):
    """Latency with exactly TAIL_BEYOND samples above it, and its percentile."""
    c = len(latencies)
    if c <= TAIL_BEYOND:
        return max(latencies), 100.0
    return sorted(latencies)[c - TAIL_BEYOND - 1], 100.0 * (c - TAIL_BEYOND) / c


def alloc_peaks(prepared, loop):
    """tracemalloc peak of the largest call of each allocation-heavy function.

    A function the workload never calls reads 0; ``not_called`` in the
    detail line names it, so that 0 is not taken for a measurement.
    """
    import tracemalloc

    from tracing import ENTRY_POINTS

    span_names = {attr: name for _, attr, name in ENTRY_POINTS}
    by_key = {op.key: op for op in prepared.round}
    out = {}
    for fn in ALLOC_FNS:
        ops = [op for op in prepared.round if op.fn == fn]
        if not ops:
            out[f"{span_names[fn]}.peak_alloc_mb"] = 0.0
            continue
        op = max(ops, key=lambda o: o.size)
        ctx = {k: by_key[k].run({}) for k in op.needs}  # inputs, not traced
        tracemalloc.start()
        try:
            loop.run_op(op, ctx)
            out[f"{span_names[fn]}.peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    gtt = import_gtt()
    setups = cold_setups(args.workload, args.seed)
    prepared = setup(gtt, args.workload, args.seed)
    hashes = {h for _, h in setups} | {prepared.input_hash()}
    if len(hashes) != 1:
        fail(f"inputs differ between set-ups of one seed: {sorted(hashes)}")
    setup_runs = [t for t, _ in setups]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(gtt)
    loop = Loop(tracer)

    # untraced rounds feed the end-to-end metrics; with --trace 1 every
    # other round is traced and feeds the per-layer metrics
    min_ops = TAIL_BEYOND + 1
    rounds = {False: [], True: []}
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(tracer) and i % 2 == 1
        if traced:
            with tracer.active():
                lat = loop.run_round(prepared.round)
        else:
            lat = loop.run_round(prepared.round)
        rounds[traced].append(lat)
        i += 1
        done = time.perf_counter() - start >= args.seconds
        enough = sum(map(len, rounds[False])) >= min_ops and (not tracer or rounds[True])
        if done and enough and not (tracer and i % 2 == 1):
            break

    plain = [t for lat in rounds[False] for t in lat]
    if not plain:
        fail("no operation completed")
    tail_ms, tail_pct = tail(plain)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_hash": prepared.input_hash(),
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_round": len(prepared.round),
        "untraced_rounds": len(rounds[False]),
        "traced_rounds": len(rounds[True]),
        "latency_samples": len(plain),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": min(TAIL_BEYOND, len(plain) - 1),
        "setup_runs_s": setup_runs,
        "env": environment(),
    }

    if not tracer:
        metrics = {
            "setup_s": statistics.median(setup_runs),
            "ops_per_s": statistics.median(len(lat) / sum(lat) for lat in rounds[False] if lat),
            "op_p50_ms": statistics.median(plain) * 1e3,
            "op_tail_ms": tail_ms * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        # every round does the same work, so the ratio of median round
        # times is the tracing overhead
        traced_busy = statistics.median(sum(lat) for lat in rounds[True])
        plain_busy = statistics.median(sum(lat) for lat in rounds[False])
        overhead = 100.0 * (traced_busy / plain_busy - 1.0)
        metrics = tracer.per_layer(len(rounds[True]))
        metrics.update(alloc_peaks(prepared, loop))
        metrics["trace.overhead_pct"] = overhead
        detail["trace_overhead_pct"] = overhead
        out_dir = ROOT / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        detail["spans"] = len(tracer.spans)
        detail["unreported"] = sorted(tracer.unreported())
        detail["not_called"] = tracer.not_called()
        wanted = spec["per_layer"]

    skip = tracer.unreported() if tracer else set()
    result_metrics = {}
    for m in wanted:
        name = m["name"]
        if any(name == p or name.startswith(p + ".") for p in skip):
            continue
        if name not in metrics:
            fail(f"metric {name} is listed in BENCHMARK.json but not measured")
        result_metrics[name] = {"value": metrics[name], "unit": m["unit"]}

    detail["attempted"] = loop.attempted
    detail["failed"] = loop.failed
    detail["fail_ratio"] = loop.failed / loop.attempted
    detail["errors"] = loop.errors
    for name, m in result_metrics.items():
        print(f"{args.workload:>10} {name:<48} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:>10} {'fail_ratio':<48} {detail['fail_ratio']:>14.6g} 1", file=sys.stderr)
    for err in loop.errors:
        print(f"FAILED {err}", file=sys.stderr)

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
