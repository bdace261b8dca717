"""Run every workload once and print the end-to-end metrics side by side.

Workloads and run length come from BENCHMARK.json.

    python3 perfbench/report.py --seed 1 [--trace]

Each workload runs in its own process (peak RSS is per process).  The table
lists every end-to-end metric by name and unit, plus ``fail_ratio`` (failed
over attempted operations), the percentile reported as ``op_tail_ms`` and
the input hash.  With ``--trace`` a traced run of each workload follows and
its tracing overhead against the untraced rounds is printed as well.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: run(w, args.seed, seconds, 0) for w in workloads}
    traced = {w: run(w, args.seed, seconds, 1) for w in workloads} if args.trace else {}

    rows = [(m["name"], m["unit"], [runs[w][1]["metrics"][m["name"]]["value"] for w in workloads])
            for m in spec["end_to_end"]]
    rows.append(("fail_ratio", "1", [runs[w][0]["fail_ratio"] for w in workloads]))
    rows.append(("op_tail_percentile", "%", [runs[w][0]["op_tail_percentile"] for w in workloads]))
    rows.append(("latency_samples", "count", [runs[w][0]["latency_samples"] for w in workloads]))
    if traced:
        rows.append(("trace_overhead_pct", "%", [traced[w][0]["trace_overhead_pct"] for w in workloads]))

    print(f"{'metric':<20} {'unit':<6}" + "".join(f"{w:>14}" for w in workloads))
    for name, unit, values in rows:
        print(f"{name:<20} {unit:<6}" + "".join(f"{v:>14.6g}" for v in values))
    print(f"seed {args.seed}; input hashes "
          + ", ".join(f"{w}={runs[w][0]['input_hash']}" for w in workloads))
    return 0 if all(runs[w][1]["correct"] for w in workloads) else 1


if __name__ == "__main__":
    sys.exit(main())
