"""Continuous basis functions on [0, 1) and the series expansion built
from them."""

import numpy as np

from gtt import (
    GTTOperator,
    eval_basis,
    eval_normalized_basis,
    hadamard,
    sample_matrix,
    series_coefficients,
    series_reconstruct,
    u3,
)

np.set_printoptions(precision=3, suppress=True)

# With the Hadamard base the basis functions are the Walsh functions in
# natural order: piecewise +-(1/sqrt 2)^n on N uniform subintervals.
op = GTTOperator(hadamard(), 3)
xs = (2 * np.arange(8) + 1) / 16
walsh = eval_basis(op, np.arange(8)[:, None], xs).real
print("Walsh table (rows = j, columns = subintervals):")
print(np.sign(walsh).astype(int))

# Sampling the functions at subinterval midpoints recovers the transform
# matrix itself; that is what links the continuous and discrete pictures.
tuned = GTTOperator(u3(np.pi / 8, 0.0, np.pi), 2)
G = sample_matrix(tuned)
print("\nsampled matrix unitarity error:",
      np.max(np.abs(G.conj().T @ G - np.eye(4))))

# The normalized functions phi_j are orthonormal, so any piecewise-constant
# function on the N subintervals expands exactly.
g = np.array([1.0, 2.0, -1.0, 0.5])
exp = series_coefficients(tuned, g)
print("\ncoefficients:", exp.coefficients)
mids = (2 * np.arange(4) + 1) / 8
for x, gt, rt in zip(mids, g, series_reconstruct(exp, mids).real):
    print(f"  g({x:.3f}) = {gt:+.3f}  reconstructed {rt:+.3f}")

# Smooth functions get a quadrature approximation that sharpens as the
# sample count grows (here 4N midpoints instead of N).
fine = np.sin(2 * np.pi * (2 * np.arange(16) + 1) / 32)
exp_fine = series_coefficients(tuned, fine)
mid = series_reconstruct(exp_fine, 0.40625).real
print("\nsin at x=0.40625:", np.sin(2 * np.pi * 0.40625), " series:", mid)
print("phi_1(0.3):", eval_normalized_basis(tuned, 1, 0.3))
