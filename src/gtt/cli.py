"""Command-line front-end: transform, compress, filter, encode, bench.

Vectors travel as CSV or JSON, selected by file extension: a CSV line is
one "re,im" entry (a lone value is real), a JSON file an array of
[re, im] pairs.  A matrix file is CSV rows of interleaved re,im values,
or JSON rows of [re, im] pairs.  One reader turns both formats into the
same float array of [re, im] pairs and checks it once; a file that is not
a rectangular array of finite numbers raises BadShape.  Output goes
through one writer, with 17 significant digits so files round-trip
exactly; ``transform`` raises BadShape for a result that leaves the float
range.  ``bench`` runs sizes up to b**n = BENCH_MAX_N and raises TooLarge
above it.  Exit codes: 0 success, 2 bad arguments, bad files or domain
errors, 3 length mismatch, 4 non-unitary matrix file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from array import array

import numpy as np

from .core import (
    GTTOperator,
    OpCounter,
    dft_matrix,
    gtt_apply,
    gtt_inverse_apply,
    hadamard,
    u3,
)
from .encode import compare_transforms, optimize_theta
from .errors import (
    BadSampleCount,
    BadShape,
    GTTError,
    LengthMismatch,
    NotUnitary,
    TooLarge,
)
from .protocols import _normalized, compress_fully_quantum, compress_hybrid, filter_natural
from .signals import SIGNAL_NAMES, builtin_signal

# largest transform length ``bench`` runs: one complex vector of 2**24
# entries is 256 MiB, and the timed calls hold a few of them at once
BENCH_MAX_N = 2**24

_ANGLE_TOKENS = {
    "pi": math.pi,
    "pi/2": math.pi / 2.0,
    "pi/4": math.pi / 4.0,
    "pi/8": math.pi / 8.0,
}


def parse_angle(token: str) -> float:
    token = token.strip().lower()
    if token in _ANGLE_TOKENS:
        return _ANGLE_TOKENS[token]
    if token.startswith("-") and token[1:] in _ANGLE_TOKENS:
        return -_ANGLE_TOKENS[token[1:]]
    try:
        return float(token)
    except ValueError:
        raise BadShape(f"cannot parse angle {token!r}") from None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _complex_pairs(arr: np.ndarray, ndim: int, path: str) -> np.ndarray:
    """Finite complex array of rank ``ndim`` from an array of [re, im] pairs."""
    if arr.dtype.kind not in "iuf" or arr.shape[ndim:] != (2,):
        depth = "rows of " * (ndim - 1)
        raise BadShape(f"{path}: expected a list of {depth}[re, im] number pairs")
    if not np.all(np.isfinite(arr)):
        raise BadShape(f"{path}: entries must be finite")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def _csv_floats(fh, ndim: int) -> np.ndarray:
    """The floats of a CSV file in one buffer, shaped as a JSON file nests
    them: (lines, 2) for a vector, whose lines are one re,im entry (a lone
    value is real), (rows, width/2, 2) for a matrix, whose rows all hold
    the same even number of interleaved re,im values."""
    buf, rows, width = array("d"), 0, 2 if ndim == 1 else 0
    for number, line in enumerate(fh, 1):
        if not line.strip():
            continue
        buf.extend(map(float, line.split(",")))
        rows += 1
        if ndim == 1 and len(buf) == 2 * rows - 1:
            buf.append(0.0)
        width = width or len(buf)
        if len(buf) != rows * width or width % 2:
            rule = "re,im or one value" if ndim == 1 else "as many values as row 1, an even number"
            raise ValueError(f"line {number} must hold {rule}")
    if not rows:
        raise ValueError("no entries")
    return np.frombuffer(buf).reshape((rows, 2) if ndim == 1 else (rows, width // 2, 2))


def _read(path: str, ndim: int) -> np.ndarray:
    """Complex array of rank ``ndim`` from a .json or CSV file; BadShape for
    any content that is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            if path.endswith(".json"):
                text = fh.read()
                # strings are rejected, so these words appear in a numeric
                # file only as booleans, which numpy would cast to 1 and 0
                if "true" in text or "false" in text:
                    raise BadShape(f"{path}: entries must be numbers, not true or false")
                arr = np.array(json.loads(text))
            else:
                arr = _csv_floats(fh, ndim)
        return _complex_pairs(arr, ndim, path)
    except (ValueError, RecursionError) as exc:
        # a token that is not a number, JSON that does not parse, bytes that
        # are not UTF-8, ragged rows, nesting deeper than the recursion limit
        raise BadShape(f"{path}: {exc}") from None


def read_vector(path: str) -> np.ndarray:
    """Vector file: CSV lines "re,im" (or "re"), or JSON [[re, im], ...]."""
    return _read(path, 1)


def read_matrix(path: str) -> np.ndarray:
    """Matrix file: CSV rows of interleaved re,im values, or JSON rows of
    [re, im] pairs."""
    return _read(path, 2)


def _pairs(v) -> list:
    """[re, im] pairs of Python floats, the inverse of ``_complex_pairs``."""
    return np.ascontiguousarray(v, dtype=np.complex128).view(np.float64).reshape(-1, 2).tolist()


def _emit(lines, path: str | None) -> None:
    """Write the strings of ``lines`` to the file at ``path``, or to stdout
    when it is None; a generator is written as it is consumed."""
    if path is None:
        sys.stdout.writelines(lines)
        return
    with open(path, "w") as fh:
        fh.writelines(lines)


def write_vector(v: np.ndarray, path: str | None) -> None:
    v = np.asarray(v, dtype=np.complex128)
    if path is not None and path.endswith(".json"):
        _emit([json.dumps(_pairs(v)), "\n"], path)
    else:
        _emit((f"{_fmt(z.real)},{_fmt(z.imag)}\n" for z in v), path)


def _write_json(report: dict, path: str | None) -> None:
    _emit([json.dumps(report, indent=2, allow_nan=False), "\n"], path)


def parse_base(spec: str) -> np.ndarray:
    spec = spec.strip()
    low = spec.lower()
    if low == "hadamard":
        return hadamard()
    if low.startswith("dft:"):
        return dft_matrix(int(low[4:]))
    if low.startswith("u3:"):
        angles = [parse_angle(t) for t in spec[3:].split(",")]
        if len(angles) != 3:
            raise BadShape(f"u3 base needs 3 angles, got {len(angles)}")
        return u3(*angles)
    return read_matrix(spec)  # validated by GTTOperator


def _load_signal(spec: str) -> np.ndarray:
    if spec.lower() in SIGNAL_NAMES:
        return builtin_signal(spec)
    return read_vector(spec)


def cmd_transform(args) -> int:
    W = parse_base(args.base)
    op = GTTOperator(W, args.n)
    x = read_vector(args.input)
    # the input is not normalized, so a finite file can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        y = gtt_inverse_apply(op, x) if args.inverse else gtt_apply(op, x)
    if not np.all(np.isfinite(y)):
        raise BadShape(f"{args.input}: the transform leaves the float range")
    write_vector(y, args.out)
    return 0


def cmd_compress(args) -> int:
    W = parse_base(args.base)
    op = GTTOperator(W, args.n)
    state = _normalized(_load_signal(args.input))
    result = compress_hybrid(state, op, args.k)
    report = {
        "indices": list(result.selection.indices),
        "k": result.selection.k,
        "mass": result.selection.mass,
        "compressed": _pairs(result.compressed),
        "fidelity": result.fidelity,
        "discarded_norm": result.discarded_norm,
        "reconstructed": _pairs(result.reconstructed),
    }
    if args.mode == "quantum":
        outcome = compress_fully_quantum(state, op, result.selection)
        report["success_probability"] = outcome.success_probability
        report["transmitted"] = _pairs(outcome.transmitted)
    _write_json(report, args.out)
    return 0


def cmd_filter(args) -> int:
    theta = parse_angle(args.theta)
    op = GTTOperator(u3(theta, 0.0, math.pi), args.n)
    state = _normalized(read_vector(args.input))
    out = filter_natural(state, op, args.cutoff)
    prefix = args.out_prefix
    write_vector(out.low_branch, f"{prefix}.low.csv")
    write_vector(out.high_branch, f"{prefix}.high.csv")
    write_vector(out.low_spectrum, f"{prefix}.low_spectrum.csv")
    write_vector(out.high_spectrum, f"{prefix}.high_spectrum.csv")
    stems = (
        f"{i}\t{_fmt(abs(lo))}\t{_fmt(abs(hi))}\n"
        for i, (lo, hi) in enumerate(zip(out.low_branch, out.high_branch))
    )
    _emit(itertools.chain(["index\tlow\thigh\n"], stems), f"{prefix}.stems.tsv")
    return 0


def cmd_encode(args) -> int:
    signal = _normalized(_load_signal(args.signal))
    restarts = None
    if args.restarts:
        restarts = [parse_angle(t) for t in args.restarts.split(",")]
    if args.theta is not None:
        theta = parse_angle(args.theta)
        report = compare_transforms(signal, args.k, params=(theta, 0.0, math.pi))
    else:
        report = optimize_theta(signal, args.k, restarts=restarts, vary_all=args.vary_all)
    _write_json(
        {
            "k": report.k,
            "theta": report.optimal_params.theta,
            "phi": report.optimal_params.phi,
            "lambda": report.optimal_params.lam,
            "gtt_fidelity": report.gtt_fidelity,
            "hadamard_fidelity": report.hadamard_fidelity,
            "dft_fidelity": report.dft_fidelity,
            "optimizer_evals": report.optimizer_evals,
        },
        args.out,
    )
    return 0


def cmd_bench(args) -> int:
    rows = []
    rng = np.random.default_rng(0)
    for spec in args.bases.split(","):
        W = parse_base(spec)
        b = W.shape[0]
        for n_str in args.sizes.split(","):
            n = int(n_str)
            op = GTTOperator(W, n)
            if op.N > BENCH_MAX_N:
                raise TooLarge(f"bench size b**n = {op.N} exceeds {BENCH_MAX_N}")
            x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
            # counted calls run one level per pass; time uncounted calls,
            # the blocked kernel that callers get, as the median of five
            counter = OpCounter()
            gtt_apply(op, x, counter)
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                gtt_apply(op, x)
                times.append(time.perf_counter() - t0)
            bound = 4 * op.N * b * n
            rows.append(
                {
                    "base": spec,
                    "b": b,
                    "n": n,
                    "N": op.N,
                    "mults": counter.mults,
                    "adds": counter.adds,
                    "total": counter.total,
                    "bound": bound,
                    "within_bound": counter.total <= bound,
                    "seconds": float(np.median(times)),
                }
            )
    _write_json({"results": rows}, args.out)
    if not all(r["within_bound"] for r in rows):
        sys.stderr.write("error: arithmetic work bound exceeded\n")
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gtt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="apply the forward or inverse transform")
    t.add_argument("input", help="vector file (.csv or .json)")
    t.add_argument("--base", required=True, help="hadamard | dft:b | u3:t,p,l | matrix file")
    t.add_argument("--n", type=int, required=True, help="tensor power")
    t.add_argument("--inverse", action="store_true")
    t.add_argument("--out", default=None, help="output vector file (default stdout)")
    t.set_defaults(func=cmd_transform)

    c = sub.add_parser("compress", help="top-k spectral compression")
    c.add_argument("input", help="vector file or built-in signal name")
    c.add_argument("--base", required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--mode", choices=("hybrid", "quantum"), default="hybrid")
    c.add_argument("--out", default=None, help="JSON report path (default stdout)")
    c.set_defaults(func=cmd_compress)

    f = sub.add_parser("filter", help="natural-order low/high-pass split")
    f.add_argument("input", help="vector file")
    f.add_argument("--theta", required=True, help="base angle (phi=0, lambda=pi)")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--cutoff", type=int, required=True)
    f.add_argument("--out-prefix", required=True)
    f.set_defaults(func=cmd_filter)

    e = sub.add_parser("encode", help="optimize theta for top-k fidelity")
    e.add_argument("--signal", required=True, help="vector file or s1|s2|s3|table2")
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--restarts", default=None, help="comma-separated theta seeds in [0, 2*pi]")
    e.add_argument("--theta", default=None, help="skip optimization, evaluate this angle")
    e.add_argument(
        "--vary-all",
        action="store_true",
        help="also tune lambda (phi never changes a fidelity)",
    )
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_encode)

    bench = sub.add_parser("bench", help="instrumented op counts and timings")
    bench.add_argument("--bases", default="hadamard", help="comma-separated base specs")
    bench.add_argument("--sizes", default="4,8,12", help="comma-separated tensor powers")
    bench.add_argument("--out", default=None)
    bench.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LengthMismatch, BadSampleCount) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except NotUnitary as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (GTTError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
