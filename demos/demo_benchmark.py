"""Measured arithmetic work of the fast transform against its bound."""

import time

import numpy as np

from gtt import GTTOperator, OpCounter, dft_matrix, gtt_apply, hadamard

# A counted call applies one digit level per pass: N*b multiplies and
# N*(b-1) adds each, so the total is n*N*(2b-1), always under the
# 4*N*b*log_b(N) budget.  The ms column is the median of five uncounted
# calls, which run the blocked kernel (several levels per pass).
for base, label, n_max in ((hadamard(), "b=2", 20), (dft_matrix(3), "b=3", 12)):
    b = base.shape[0]
    print(f"\n{label}")
    print(f"{'n':>3} {'N':>9} {'ops':>12} {'bound':>12} {'ratio':>6} {'ms':>8}")
    prev = None
    rng = np.random.default_rng(0)
    for n in range(4, n_max + 1, 2):
        op = GTTOperator(base, n)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        counter = OpCounter()
        gtt_apply(op, x, counter)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            gtt_apply(op, x)
            times.append(time.perf_counter() - t0)
        ms = float(np.median(times)) * 1e3
        bound = 4 * op.N * b * n
        growth = "" if prev is None else f"{counter.total / prev:.2f}"
        print(f"{n:>3} {op.N:>9} {counter.total:>12} {bound:>12} "
              f"{counter.total / bound:>6.2f} {ms:>8.3f}  {growth}")
        prev = counter.total
