"""Measured arithmetic work of the fast transform against its bound.

Each row of ``gtt bench`` is one size: a counted call applies one digit
level per pass, N*b multiplies and N*(b-1) adds each, so its total is
n*N*(2b-1), always under the 4*N*b*log_b(N) budget.  ``seconds`` is the
median of five uncounted calls, which run the blocked kernel.
"""

import sys

from gtt.cli import main

for base, n_max in (("hadamard", 20), ("dft:3", 12)):
    sizes = ",".join(str(n) for n in range(4, n_max + 1, 2))
    if main(["bench", "--bases", base, "--sizes", sizes]) != 0:
        sys.exit(1)
