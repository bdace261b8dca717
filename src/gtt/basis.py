"""Piecewise-constant basis functions on [0, 1) generated by the base matrix.

The order-N basis function with index j is a product of base-matrix entries
selected by the base-b digits of j and of the evaluation point; it is
constant on each of the N uniform subintervals, so f_j(x) is the transform
matrix element G[p, j] with p = floor(N x) the subinterval holding x.
Scaling by b**(n/2) makes the family orthonormal in L2[0,1), and sampling
the unscaled functions at subinterval midpoints gives the transform matrix,
the dense oracle that ``sample_matrix`` returns.

Points and indices may be scalars or arrays: ``eval_basis`` broadcasts j
against x, and ``series_reconstruct`` evaluates any number of points as a
gather from the expansion's values on the N subintervals, one forward
transform computed on first use.  Scalar inputs give a Python complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    GTTOperator,
    _numeric_array,
    dense_gtt_matrix,
    gtt_apply,
    gtt_element,
    gtt_inverse_apply,
)
from .errors import BadSampleCount, BadShape, DomainError

# Guard for floor(N*x) when the product N*x lands a hair below an integer
# (dyadic/triadic rationals carry representation error).
_FLOOR_GUARD = 1e-12

# m * 2**e with m in [0.5, 1) is finite for every e up to this
_MAX_EXPONENT = np.finfo(np.float64).maxexp


def _subinterval(N: int, x) -> np.ndarray:
    """Index p = floor(N*x) of the subinterval holding each point of [0, 1).

    Raises DomainError for a point outside [0, 1), NaN included.  The
    index is clipped to [0, N - 1], so a point a hair below a subinterval
    boundary lands on one of the two adjacent subintervals.
    """
    x = _numeric_array(x, "x", np.float64, order="K")
    bad = ~((0 <= x) & (x < 1))
    if bad.any():
        raise DomainError(f"x must lie in [0, 1), got {x[bad][0]}")
    Nx = N * x
    p = np.floor(Nx)
    p += (p + 1 - Nx) < _FLOOR_GUARD
    return np.minimum(p.astype(np.intp), N - 1)


def eval_basis(op: GTTOperator, j, x):
    """Evaluate the unnormalized basis function f_j at x in [0, 1).

    ``j`` and ``x`` broadcast against each other; a scalar pair gives a
    complex, arrays give an array.  Both are numbers: bool, strings, None,
    objects, ragged nesting and a complex x (never narrowed) raise BadShape.
    """
    return gtt_element(op, _subinterval(op.N, x), j)


def eval_normalized_basis(op: GTTOperator, j, x):
    """Orthonormal variant: b**(n/2) * f_j(x)."""
    return op.b ** (op.n / 2.0) * eval_basis(op, j, x)


def sample_matrix(op: GTTOperator) -> np.ndarray:
    """N x N matrix of basis values at subinterval midpoints.

    G[p, q] = f_q((2p+1) / (2N)), the dense oracle ``dense_gtt_matrix``: both
    multiply the digit factors most-significant first, so bit for bit."""
    return dense_gtt_matrix(op)


@dataclass(frozen=True)
class SeriesExpansion:
    """Expansion of a function in the orthonormal basis of an operator.

    The coefficients are held as a read-only copy, so the values on the
    subintervals, computed once on first use, cannot go stale.
    """

    op: GTTOperator
    coefficients: np.ndarray

    def __post_init__(self):
        C = _numeric_array(self.coefficients, "coefficients", np.complex128, copy=True)
        if C.shape != (self.op.N,):
            raise BadSampleCount(f"expected {self.op.N} coefficients, got shape {C.shape}")
        if not np.all(np.isfinite(C)):
            raise BadShape("coefficients must be finite")
        C.setflags(write=False)
        object.__setattr__(self, "coefficients", C)

    @cached_property
    def _values(self) -> np.ndarray:
        # phi_m is b**(n/2) times column m of the transform matrix on each
        # subinterval, so the sum over m on subinterval p is entry p of the
        # transform of the coefficients
        op = self.op
        values = op.b ** (op.n / 2.0) * gtt_apply(op, self.coefficients)
        values.setflags(write=False)
        return values


def series_coefficients(op: GTTOperator, samples) -> SeriesExpansion:
    """Expansion coefficients of a function sampled at M uniform midpoints.

    ``samples`` holds g at x_t = (2t+1)/(2M) with M a multiple of N.  The
    midpoint rule gives C_m = (1/M) sum_t conj(phi_m(x_t)) g(x_t), exact
    whenever g is constant on the N base subintervals.  The sums run on the
    samples scaled by a power of two near their largest part, which is
    exact, so samples near the float limits do not overflow on the way;
    BadShape if a coefficient itself leaves the float range.
    """
    g = _numeric_array(samples, "samples", np.complex128)
    N = op.N
    if g.ndim != 1 or g.shape[0] < N or g.shape[0] % N != 0:
        raise BadSampleCount(
            f"need a multiple of N={N} midpoint samples, got shape {g.shape}"
        )
    peak = np.abs(g.view(np.float64)).max()  # NaN or inf if a sample is
    if not np.isfinite(peak):
        raise BadShape("samples must be finite")
    M = g.shape[0]
    # the largest part scaled into [0.5, 1): M sums of them stay finite
    exponent = math.frexp(peak)[1]
    g = np.ldexp(g.view(np.float64), -exponent).view(np.complex128)
    # phi_m is constant on each base subinterval, where it equals
    # b**(n/2) times column m of the transform matrix; so the coefficients
    # are the inverse transform of the per-subinterval sums
    block_sums = g.reshape(N, M // N).sum(axis=1)
    scale = op.b ** (op.n / 2.0) / M
    C = scale * gtt_inverse_apply(op, block_sums)
    if math.frexp(np.abs(C.view(np.float64)).max())[1] + exponent > _MAX_EXPONENT:
        raise BadShape("series coefficients exceed the float range")
    return SeriesExpansion(op, np.ldexp(C.view(np.float64), exponent).view(np.complex128))


def series_reconstruct(exp: SeriesExpansion, x):
    """Evaluate sum_m C_m phi_m(x) at a point, or an array of points, of [0, 1)."""
    v = exp._values[_subinterval(exp.op.N, x)]
    return complex(v) if v.ndim == 0 else v
