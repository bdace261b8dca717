"""Top-k spectral compression: the hybrid pipeline and the fully simulated
quantum protocol side by side."""

import numpy as np

from gtt import (
    GTTOperator,
    builtin_signal,
    compress_fully_quantum,
    compress_hybrid,
    gtt_apply,
    hadamard,
    reconstruct_from_classical,
    u3,
)

np.set_printoptions(precision=4, suppress=True)

# The built-in state "s1" is nearly 2-sparse in the u3(pi/4, pi/3, pi/6)
# tensor-power basis but spread out in the Hadamard basis.
state = builtin_signal("s1")
op = GTTOperator(u3(np.pi / 4, np.pi / 3, np.pi / 6), 3)
print("spectrum:", np.round(np.abs(gtt_apply(op, state)), 4))

result = compress_hybrid(state, op, 2)
print("\nkept indices:", result.selection.indices)
print("compressed register:", result.compressed)
print("fidelity:", result.fidelity)
print("discarded spectral mass:", result.discarded_norm)

# The same two coefficients under a fixed Hadamard basis lose far more.
had = compress_hybrid(state, GTTOperator(hadamard(), 3), 2)
print("\nHadamard fidelity at k=2:", had.fidelity)

# The statevector simulation of the flag/transfer circuit, kept on the
# support of the joint register (O(N + k) memory, not a dense N x 2 x k
# array), agrees with the hybrid path exactly, and its post-selection
# probability is the retained mass.
outcome = compress_fully_quantum(state, op, result.selection)
print("\nsuccess probability:", outcome.success_probability)
print("transmitted == compressed:",
      np.max(np.abs(outcome.transmitted - result.compressed)) < 1e-12)

# The receiver only needs the k amplitudes plus the index set.
rec = reconstruct_from_classical(result.selection, result.compressed, op)
print("reconstruction error vs original:", np.max(np.abs(rec - state)))
