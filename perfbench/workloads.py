"""The benchmark workloads.

Each workload builds, from a seed, a fixed *round*: a list of operations,
each one public gtt call plus a correctness check of its output.  The
benchmark repeats the round in a closed loop.  Checks run outside the timed
interval; an operation fails if it raises or its check fails.

Sizes are fixed per workload; the seed only changes the input data, so runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-10


@dataclass
class Op:
    """One public gtt call; ``run`` may read earlier results from ``ctx``."""

    key: str
    fn: str  # name of the public gtt function called
    size: int  # working-set size, used to pick the allocation-pass call
    run: Callable[[dict], object]
    check: Callable[[dict, object], bool]
    needs: tuple = ()  # keys of earlier ops whose results ``run`` reads


@dataclass
class Prepared:
    round: list
    arrays: list  # every generated input, for the input hash

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for a in self.arrays:
            a = np.ascontiguousarray(a)
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
        return h.hexdigest()[:16]


def _unit(rng, N):
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return x / np.linalg.norm(x)


def _close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= TOL))


def _digits(p, b, n):
    """Base-b digits of p, most significant first."""
    out = []
    for _ in range(n):
        p, d = divmod(p, b)
        out.append(d)
    return out[::-1]


# ---------------------------------------------------------------- transform

# (base, b, n, forward/inverse pairs per round).  The counts put the median
# operation inside the dft:3 n=8 class and most of the time in the large
# calls; hadamard n=15 is where a BLAS thread stall shows.
TRANSFORM_MIX = [
    ("hadamard", 2, 10, 8),
    ("hadamard", 2, 15, 4),
    ("hadamard", 2, 20, 1),
    ("dft:3", 3, 8, 12),
    ("dft:3", 3, 12, 2),
    ("dft:4", 4, 10, 1),
]
DENSE_CHECK_MAX = 4096  # dense oracle comparison up to this N
ROW_CHECKS = 2  # seeded rows per large-N forward check


def transform(g, rng) -> Prepared:
    ops, arrays = [], []
    for base, b, n, pairs in TRANSFORM_MIX:
        W = g.hadamard() if base == "hadamard" else g.dft_matrix(b)
        op = g.GTTOperator(W, n)
        N = op.N
        dense = g.dense_gtt_matrix(op) if N <= DENSE_CHECK_MAX else None
        for i in range(pairs):
            x = _unit(rng, N)
            rows = [int(p) for p in rng.integers(0, N, ROW_CHECKS)]
            cols = [int(q) for q in rng.integers(0, N, ROW_CHECKS)]
            arrays += [x, np.array(rows + cols)]
            tag = f"{base}:n{n}#{i}"

            def check_fwd(ctx, y, x=x, op=op, dense=dense, rows=rows, cols=cols, W=W):
                if dense is not None:
                    return _close(y, dense @ x)
                for p, q in zip(rows, cols):
                    # row p of the tensor power is the Kronecker product of
                    # the base rows selected by the digits of p
                    row = np.ones(1, dtype=np.complex128)
                    for d in _digits(p, op.b, op.n):
                        row = np.kron(row, W[d])
                    if abs(row[q] - g.gtt_element(op, p, q)) > TOL:
                        return False
                    if abs(y[p] - row @ x) > TOL:
                        return False
                return True

            fwd = Op(
                f"fwd:{tag}", "gtt_apply", N,
                lambda ctx, op=op, x=x: g.gtt_apply(op, x), check_fwd,
            )
            inv = Op(
                f"inv:{tag}", "gtt_inverse_apply", N,
                lambda ctx, op=op, k=fwd.key: g.gtt_inverse_apply(op, ctx[k]),
                lambda ctx, z, x=x: _close(z, x),
                needs=(fwd.key,),
            )
            ops += [fwd, inv]
    return Prepared(ops, arrays)


# ----------------------------------------------------------------- compress

COMPRESS_BASES = [("u3", 2, 12), ("u3", 2, 14), ("dft:3", 3, 8)]
COMPRESS_K_DIVISORS = (256, 16)  # k = N // divisor
DECAY = 1.0  # power-law exponent of the synthetic spectra


def _compressible_state(g, op, rng):
    """Inverse transform of a seeded spectrum with power-law decay.

    Magnitudes are jittered so no two coefficients tie, and scattered over
    random positions with random phases.
    """
    N = op.N
    mags = np.arange(1, N + 1) ** -DECAY * (1.0 + 0.1 * rng.random(N))
    spectrum = np.empty(N, dtype=np.complex128)
    spectrum[rng.permutation(N)] = mags * np.exp(2j * np.pi * rng.random(N))
    spectrum /= np.linalg.norm(spectrum)
    state = g.gtt_inverse_apply(op, spectrum)
    return state / np.linalg.norm(state), spectrum


def compress(g, rng) -> Prepared:
    ops, arrays = _function_ops(g, rng)
    for base, b, n in COMPRESS_BASES:
        W = g.u3(math.pi / 4, math.pi / 3, math.pi / 6) if base == "u3" else g.dft_matrix(b)
        op = g.GTTOperator(W, n)
        N = op.N
        for div in COMPRESS_K_DIVISORS:
            k = N // div
            state, spectrum = _compressible_state(g, op, rng)
            arrays.append(spectrum)
            tag = f"{base}:n{n}:k{k}"
            hyb_key = f"hybrid:{tag}"

            def check_hyb(ctx, r):
                return abs(r.fidelity - r.selection.mass) <= TOL

            def check_rec(ctx, z, h=hyb_key):
                return _close(z, ctx[h].reconstructed)

            def check_q(ctx, q, h=hyb_key):
                ref = ctx[h]
                return (
                    _close(q.reconstructed, ref.reconstructed)
                    and abs(q.success_probability - ref.selection.mass) <= TOL
                )

            def check_filter(ctx, f):
                energy = np.vdot(f.low_branch, f.low_branch) + np.vdot(
                    f.high_branch, f.high_branch
                )
                return abs(energy.real - 1.0) <= TOL

            ops += [
                Op(hyb_key, "compress_hybrid", N,
                   lambda ctx, s=state, op=op, k=k: g.compress_hybrid(s, op, k), check_hyb),
                Op(f"classical:{tag}", "reconstruct_from_classical", N,
                   lambda ctx, op=op, h=hyb_key: g.reconstruct_from_classical(
                       ctx[h].selection, ctx[h].compressed, op),
                   check_rec, needs=(hyb_key,)),
                Op(f"quantum:{tag}", "compress_fully_quantum", N * k,
                   lambda ctx, s=state, op=op, h=hyb_key: g.compress_fully_quantum(
                       s, op, ctx[h].selection),
                   check_q, needs=(hyb_key,)),
                Op(f"filter:{tag}", "filter_natural", N,
                   lambda ctx, s=state, op=op: g.filter_natural(s, op, op.N // 8),
                   check_filter),
            ]
    return Prepared(ops, arrays)


# ---------------------------------------------- encode and basis, small sizes

# The encode and basis layers ride in the compress round at small sizes, so
# the traced run measures them without their pure-Python calls setting the
# workload's figures: on a shared machine, Python code runs in speed phases
# up to 1.7x apart that last minutes.  Three of these calls take under a
# millisecond and three tens of milliseconds, so the median operation of
# the round stays a compression call at N <= 6561.
FUNCTION_K = 4
SERIES_N = 6  # u3(pi/4, 0, pi) power for the series calls, N = 64
SAMPLES_PER_SUBINTERVAL = 4  # M = 4N
ONE_RESTART = (math.pi / 4,)  # one optimizer restart instead of 17


def _smooth_function(rng):
    """Seeded low-frequency trigonometric polynomial, bounded away from 0."""
    amp = rng.standard_normal(4) / np.arange(1, 5) ** 2
    phase = rng.uniform(0, 2 * np.pi, 4)
    offset = float(np.sum(np.abs(amp))) + 0.5 + rng.random()
    m = np.arange(1, 5)

    def f(x):
        return offset + float(np.sum(amp * np.sin(2 * np.pi * m * x + phase)))

    return f, np.concatenate([amp, phase, [offset]])


def _report_ok(rep, N, k) -> bool:
    lo = k / N - 1e-12
    fids = (rep.gtt_fidelity, rep.hadamard_fidelity, rep.dft_fidelity)
    return all(lo <= v <= 1.0 + 1e-12 for v in fids) and (
        rep.gtt_fidelity >= rep.hadamard_fidelity - 1e-12
    )


def _function_ops(g, rng):
    """Encode and series calls on table2 and a seeded smooth function."""
    op = g.GTTOperator(g.u3(math.pi / 4, 0.0, math.pi), SERIES_N)
    N, k = op.N, FUNCTION_K
    f, params = _smooth_function(rng)
    smooth = g.discretize_midpoints(f, N)
    table2 = g.builtin_signal("table2")
    theta = float(rng.uniform(0, math.pi))
    M = SAMPLES_PER_SUBINTERVAL * N
    xs = (2 * np.arange(M) + 1) / (2 * M)
    samples = np.array([f(x) for x in xs])
    means = samples.reshape(N, SAMPLES_PER_SUBINTERVAL).mean(axis=1)
    p = int(rng.integers(N))
    arrays = [params, smooth, table2, np.array([theta, p]), samples]
    dense = g.dense_gtt_matrix(op)

    def check_coef(ctx, e):
        # Parseval: the expansion is the projection onto functions constant
        # on the N subintervals
        energy = float(np.sum(np.abs(e.coefficients) ** 2))
        return abs(energy - float(np.sum(np.abs(means) ** 2)) / N) <= TOL * max(1.0, energy)

    coef = "coefficients:u3:n6"
    ops = [
        Op("fidelity:table2", "encode_fidelity", 16,
           lambda ctx: g.encode_fidelity((theta, 0.0, math.pi), table2, k),
           lambda ctx, v: k / 16 - 1e-12 <= v <= 1.0 + 1e-12),
        Op("optimize:table2", "optimize_theta", 16,
           lambda ctx: g.optimize_theta(table2, k, restarts=ONE_RESTART),
           lambda ctx, rep: _report_ok(rep, 16, k)),
        Op("optimize:smooth", "optimize_theta", N,
           lambda ctx: g.optimize_theta(smooth, k, restarts=ONE_RESTART),
           lambda ctx, rep: _report_ok(rep, N, k)),
        Op(coef, "series_coefficients", N,
           lambda ctx: g.series_coefficients(op, samples), check_coef),
        # at a base midpoint the expansion equals the subinterval mean
        Op(f"reconstruct:u3:n6@{p}", "series_reconstruct", N,
           lambda ctx: g.series_reconstruct(ctx[coef], (2 * p + 1) / (2 * N)),
           lambda ctx, v: abs(v - means[p]) <= TOL * max(1.0, abs(means[p])),
           needs=(coef,)),
        Op("sample_matrix:u3:n6", "sample_matrix", N * N,
           lambda ctx: g.sample_matrix(op), lambda ctx, G: _close(G, dense)),
    ]
    return ops, arrays


WORKLOADS = {
    "transform": transform,
    "compress": compress,
}
