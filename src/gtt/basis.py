"""Piecewise-constant basis functions on [0, 1) generated by the base matrix.

The order-N basis function with index j is a product of base-matrix entries
selected by the base-b digits of j and of the evaluation point; it is
constant on each of the N uniform subintervals.  Scaling by b**(n/2) makes
the family orthonormal in L2[0,1), and sampling the unscaled functions at
subinterval midpoints recovers the tensor-power transform matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GTTOperator, dense_gtt_matrix, gtt_apply, gtt_inverse_apply
from .errors import BadSampleCount, DomainError, IndexOutOfRange

# Guard for floor(b*x) when repeated scaling leaves b*x a hair below an
# integer (dyadic/triadic rationals accumulate representation error).
_FLOOR_GUARD = 1e-12


def _digits(b: int, n: int, x) -> np.ndarray:
    """The first n base-b digits of x in [0, 1), most significant first.

    ``x`` is a scalar or an array; the result has shape (n,) + x.shape.
    Each digit is clipped to [0, b - 1], so a point a hair below a
    subinterval boundary lands on one of the two adjacent subintervals.
    """
    x = np.asarray(x, dtype=np.float64)
    digits = np.empty((n,) + x.shape, dtype=np.intp)
    for level in range(n):
        bx = b * x
        d = np.floor(bx)
        d += (d + 1 - bx) < _FLOOR_GUARD
        d = np.minimum(np.maximum(d, 0), b - 1)
        digits[level] = d
        x = bx - d
    return digits


def eval_basis(op: GTTOperator, j: int, x: float) -> complex:
    """Evaluate the unnormalized basis function f_j at x in [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x must lie in [0, 1), got {x}")
    if not 0 <= j < op.N:
        raise IndexOutOfRange(f"basis index must lie in [0, {op.N}), got {j}")
    rows = _digits(op.b, op.n, x)
    cols = np.unravel_index(j, (op.b,) * op.n)
    return complex(np.prod(op.base[rows, cols]))


def eval_normalized_basis(op: GTTOperator, j: int, x: float) -> complex:
    """Orthonormal variant: b**(n/2) * f_j(x)."""
    return op.b ** (op.n / 2.0) * eval_basis(op, j, x)


def sample_matrix(op: GTTOperator) -> np.ndarray:
    """N x N matrix of basis values at subinterval midpoints.

    G[p, q] = f_q((2p+1) / (2N)); unitary, and equal to the dense tensor
    power of the base matrix.
    """
    N = op.N
    dense_gtt_matrix(op)  # reuse the size-cap check
    rows = _digits(op.b, op.n, (2 * np.arange(N) + 1) / (2 * N))
    cols = np.unravel_index(np.arange(N), (op.b,) * op.n)
    G = np.ones((N, N), dtype=np.complex128)
    for r, c in zip(rows, cols):
        G *= op.base[r[:, None], c[None, :]]
    return G


@dataclass(frozen=True)
class SeriesExpansion:
    """Expansion of a function in the orthonormal basis of an operator."""

    op: GTTOperator
    coefficients: np.ndarray


def series_coefficients(op: GTTOperator, samples) -> SeriesExpansion:
    """Expansion coefficients of a function sampled at M uniform midpoints.

    ``samples`` holds g at x_t = (2t+1)/(2M) with M a multiple of N.  The
    midpoint rule gives C_m = (1/M) sum_t conj(phi_m(x_t)) g(x_t), exact
    whenever g is constant on the N base subintervals.
    """
    g = np.asarray(samples, dtype=np.complex128)
    N = op.N
    if g.ndim != 1 or g.shape[0] < N or g.shape[0] % N != 0:
        raise BadSampleCount(
            f"need a multiple of N={N} midpoint samples, got shape {g.shape}"
        )
    M = g.shape[0]
    # phi_m is constant on each base subinterval, where it equals
    # b**(n/2) times column m of the transform matrix; so the coefficients
    # are the inverse transform of the per-subinterval sums
    block_sums = g.reshape(N, M // N).sum(axis=1)
    scale = op.b ** (op.n / 2.0) / M
    return SeriesExpansion(op, scale * gtt_inverse_apply(op, block_sums))


def series_reconstruct(exp: SeriesExpansion, x: float) -> complex:
    """Evaluate sum_m C_m phi_m(x) at a point of [0, 1)."""
    op = exp.op
    C = np.asarray(exp.coefficients, dtype=np.complex128)
    if C.shape != (op.N,):
        raise BadSampleCount(f"expected {op.N} coefficients, got shape {C.shape}")
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x must lie in [0, 1), got {x}")
    # phi_m is b**(n/2) times column m of the transform matrix on the
    # subinterval p holding x, so the sum is entry p of the transform of C
    p = np.ravel_multi_index(tuple(_digits(op.b, op.n, x)), (op.b,) * op.n)
    return complex(op.b ** (op.n / 2.0) * gtt_apply(op, C)[p])
