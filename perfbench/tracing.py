"""Spans and counters recorded around gtt's layer boundaries.

For the traced run only, module-level names are replaced by wrappers that
record a span (name, start, end, parent, request id) per call.  Two kinds of
wrap point exist:

* entry points on the ``gtt`` package, through which the benchmark itself
  calls each layer;
* the module-level names through which one gtt layer calls the one below
  (each module looks these up as globals at call time, so replacing the
  attribute redirects the internal call).

Hot leaf functions get a call counter instead of a span.  Wrappers are
installed on entering ``Tracer.active()`` and removed on leaving it, so the
untraced rounds of the same process run the unmodified program.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for the benchmark's own calls into gtt
ENTRY_POINTS = [
    ("gtt", "gtt_apply", "core.gtt_apply"),
    ("gtt", "gtt_inverse_apply", "core.gtt_inverse_apply"),
    ("gtt", "compress_hybrid", "protocols.compress_hybrid"),
    ("gtt", "reconstruct_from_classical", "protocols.reconstruct_from_classical"),
    ("gtt", "compress_fully_quantum", "protocols.compress_fully_quantum"),
    ("gtt", "filter_natural", "protocols.filter_natural"),
    ("gtt", "optimize_theta", "encode.optimize_theta"),
    ("gtt", "encode_fidelity", "encode.encode_fidelity"),
    ("gtt", "series_coefficients", "basis.series_coefficients"),
    ("gtt", "series_reconstruct", "basis.series_reconstruct"),
    ("gtt", "sample_matrix", "basis.sample_matrix"),
]

# (module, attribute, span name) through which one layer calls the next
INTERNAL_POINTS = [
    ("gtt.protocols", "gtt_apply", "core.gtt_apply"),
    ("gtt.protocols", "gtt_inverse_apply", "core.gtt_inverse_apply"),
    ("gtt.protocols", "top_k_indices", "protocols.top_k_indices"),
    ("gtt.encode", "u3", "core.u3"),
    ("gtt.encode", "GTTOperator", "core.GTTOperator"),
    ("gtt.encode", "dft_matrix", "core.dft_matrix"),
    ("gtt.encode", "compress_hybrid", "protocols.compress_hybrid"),
    ("gtt.encode", "encode_fidelity", "encode.encode_fidelity"),
    ("gtt.core", "make_base_matrix", "core.make_base_matrix"),
    ("gtt.basis", "dense_gtt_matrix", "core.dense_gtt_matrix"),
]

# hot leaves: counted, not spanned
COUNTED_POINTS = [
    ("gtt.basis", "eval_basis", "basis.eval_basis"),
]

TRANSFORMS = ("core.gtt_apply", "core.gtt_inverse_apply")
FIDELITY = "encode.encode_fidelity"
OPTIMIZER = "encode.optimize_theta"

# derived metrics and the spans they are computed from
DERIVED_FROM = {
    "core.arith_ops": TRANSFORMS,
    "core.bytes_computed": TRANSFORMS,
    "core.ops_per_byte": TRANSFORMS,
    "core.gbytes_per_s_computed": TRANSFORMS,
    "core.cpu_per_wall": TRANSFORMS,
    "encode.distinct_eval_ratio": (FIDELITY,),
}

SPAN_FIELDS = ["parent", "name", "start_ns", "end_ns", "cpu_s", "request"]


class Tracer:
    """Collects spans in memory; ``write`` dumps them once the run ends."""

    def __init__(self, gtt):
        self.spans: list = []
        self._stack: list[int] = []
        self.request = -1  # id of the benchmark operation being run
        self.counts: Counter = Counter()
        self.op_counter = gtt.OpCounter()
        self.bytes_computed = 0
        self.angles: dict[int, set] = defaultdict(set)
        self.fidelity_calls = 0
        self.optimizer_evals = 0
        self._patches, self.missing = self._build()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        transform = name in TRANSFORMS
        fidelity = name == FIDELITY
        optimizer = name == OPTIMIZER
        cpu = time.process_time
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if transform:
                # exact op counts, only ever requested in the traced run
                kwargs["counter"] = self.op_counter
                op = args[0]
                self.bytes_computed += 2 * 16 * op.N * op.n
            elif fidelity:
                self.fidelity_calls += 1
                self.angles[self.request].add(tuple(float(v) for v in args[0]))
            c0 = cpu() if transform else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu() if transform else 0.0
                stack.pop()
                spans[sid] = (parent, name, t0, t1, c1 - c0, self.request)
            if optimizer:
                self.optimizer_evals += result.optimizer_evals
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build(self):
        patches, missing = [], []
        points = [(p, self._span) for p in ENTRY_POINTS + INTERNAL_POINTS]
        points += [(p, self._counted) for p in COUNTED_POINTS]
        for (modname, attr, name), make in points:
            module = sys.modules.get(modname)
            original = getattr(module, attr, None)
            if original is None:
                missing.append((f"{modname}.{attr}", name))
                continue
            patches.append((module, attr, original, make(name, original)))
        for where, name in missing:
            print(
                f"WARNING: wrap point {where} is missing; {name}.* and the "
                f"metrics derived from it are not reported",
                file=sys.stderr,
            )
        return patches, missing

    @contextlib.contextmanager
    def active(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def unreported(self) -> set[str]:
        """Metric-name prefixes that cannot be measured in this checkout."""
        gone = {name for _, name in self.missing}
        out = set(gone)
        out.update(m for m, deps in DERIVED_FROM.items() if gone.intersection(deps))
        return out

    def not_called(self) -> list[str]:
        """Wrapped functions with no call in the traced rounds.

        Their ``calls``, ``busy_ms`` and ``self_ms`` are true zeros; their
        ``p50_us``, ``peak_alloc_mb`` and the ratios derived from them read 0
        only because the result must list every per-layer metric.
        """
        spanned = {s[1] for s in self.spans}
        names = {n for _, _, n in ENTRY_POINTS + INTERNAL_POINTS} - spanned
        names.update(n for _, _, n in COUNTED_POINTS if not self.counts[n])
        return sorted(names - {name for _, name in self.missing})

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Per-round statistics of every span name and counter."""
        child = [0] * len(self.spans)
        for parent, _, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        durs: dict[str, list] = defaultdict(list)
        selfs: dict[str, int] = defaultdict(int)
        cpu_s = wall_ns = 0
        for sid, (_, name, t0, t1, c, _) in enumerate(self.spans):
            durs[name].append(t1 - t0)
            selfs[name] += t1 - t0 - child[sid]
            if name in TRANSFORMS:
                cpu_s += c
                wall_ns += t1 - t0

        out = {}
        names = {n for _, _, n in ENTRY_POINTS + INTERNAL_POINTS}
        for name in sorted(names):
            d = durs.get(name, [])
            out[f"{name}.calls"] = len(d) / rounds
            out[f"{name}.busy_ms"] = sum(d) / 1e6 / rounds
            out[f"{name}.self_ms"] = selfs.get(name, 0) / 1e6 / rounds
            out[f"{name}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
        for _, _, name in COUNTED_POINTS:
            out[f"{name}.calls"] = self.counts[name] / rounds

        ops = self.op_counter.total
        out["core.arith_ops"] = ops / rounds
        out["core.bytes_computed"] = self.bytes_computed / rounds
        out["core.ops_per_byte"] = ops / self.bytes_computed if self.bytes_computed else 0.0
        out["core.gbytes_per_s_computed"] = self.bytes_computed / wall_ns if wall_ns else 0.0
        out["core.cpu_per_wall"] = cpu_s / (wall_ns / 1e9) if wall_ns else 0.0
        out["encode.evals"] = self.optimizer_evals / rounds
        distinct = sum(len(s) for s in self.angles.values())
        out["encode.distinct_eval_ratio"] = (
            distinct / self.fidelity_calls if self.fidelity_calls else 0.0
        )
        return out

    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[p, index[n], t0, t1, c, r] for p, n, t0, t1, c, r in self.spans]
        doc = {
            "fields": SPAN_FIELDS,
            "names": names,
            "note": "name is an index into names; parent -1 marks a root span",
            "spans": rows,
            "counters": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
