"""Tour of the core transform: base matrices, the fast tensor-power apply,
the dense oracle, and the closed-form element formula."""

import numpy as np

from gtt import (
    GTTOperator,
    OpCounter,
    dense_gtt_matrix,
    dft_matrix,
    gtt_apply,
    gtt_element,
    gtt_inverse_apply,
    hadamard,
    u3,
)

np.set_printoptions(precision=3, suppress=True)

# Any small unitary works as a base matrix. Three stock choices:
print("Hadamard:\n", hadamard())
print("u3(pi/4, pi/3, pi/6):\n", u3(np.pi / 4, np.pi / 3, np.pi / 6))
print("3-point DFT:\n", dft_matrix(3))

# An operator is a base matrix plus a tensor power. Applying it to a vector
# of length b**n runs the blocked fast algorithm: each pass applies several
# digit positions at once as one product with a Kronecker power of the base.
op = GTTOperator(u3(np.pi / 4, np.pi / 3, np.pi / 6), 3)
x = np.zeros(8)
x[0] = 1.0
print("\ncolumn 0 of W^(x3):", gtt_apply(op, x))

# The dense Kronecker matrix agrees with the fast path, and the inverse
# undoes the forward transform exactly.
rng = np.random.default_rng(0)
v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
dense = dense_gtt_matrix(op)
print("\nfast vs dense max diff:", np.max(np.abs(gtt_apply(op, v) - dense @ v)))
print("round-trip max diff:", np.max(np.abs(gtt_inverse_apply(op, gtt_apply(op, v)) - v)))

# Single entries come from a digit-product formula, no matrix needed.
print("\nG[5, 3] closed form:", gtt_element(op, 5, 3))
print("G[5, 3] from dense: ", dense[5, 3])

# The counter shows the N*b*log_b(N) work scaling: it adds the radix-b
# algorithm's closed-form arithmetic, N*b multiplies and N*(b-1) adds per
# digit level, while the call runs the same blocked plan as any other.
counter = OpCounter()
big = GTTOperator(hadamard(), 16)
gtt_apply(big, rng.standard_normal(big.N), counter)
print(f"\nN = {big.N}: {counter.total} ops, bound {4 * big.N * 2 * 16}")
