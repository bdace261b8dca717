"""Fidelity-driven function encoding with a tunable tensor-power basis.

A real function on [0, 1] is sampled at subinterval midpoints, normalized
into an amplitude vector, and compressed by top-k truncation in the
u3(theta, 0, pi) tensor-power basis.  The angle theta is tuned by a
derivative-free search to maximize reconstruction fidelity; Hadamard and
full-size DFT bases are evaluated alongside for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# dft_matrix stays imported: the benchmark's traced run wraps encode.dft_matrix
from .core import GTTOperator, dft_matrix, u3  # noqa: F401
from .errors import BadShape, ZeroVector
from .protocols import compress_hybrid, top_k_indices

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# fidelity differences below this are treated as ties (broken toward the
# smaller angle) so the optimizer output is deterministic
_TIE_TOL = 1e-12

# half-width of the bracket scanned around each restart seed
_HALF_WIDTH = math.pi / 4.0


class U3Params(NamedTuple):
    theta: float
    phi: float
    lam: float


@dataclass(frozen=True)
class EncodingReport:
    k: int
    optimal_params: U3Params
    gtt_fidelity: float
    hadamard_fidelity: float
    dft_fidelity: float
    optimizer_evals: int


def discretize_midpoints(f: Callable[[float], float], N: int) -> np.ndarray:
    """Sample f at x_t = (2t+1)/(2N) and normalize to unit norm."""
    if N < 1:
        raise BadShape(f"N must be positive, got {N}")
    xs = (2 * np.arange(N) + 1) / (2 * N)
    v = np.array([f(x) for x in xs], dtype=np.complex128)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ZeroVector("all midpoint samples are zero")
    return v / nrm


def _qubit_count(signal) -> int:
    N = np.asarray(signal).shape[0]
    n = int(round(math.log2(N)))
    if 2**n != N:
        raise BadShape(f"signal length {N} is not a power of 2")
    return n


def encode_fidelity(params, signal, k: int) -> float:
    """Compression fidelity of the signal in the u3(params) power basis."""
    theta, phi, lam = params
    n = _qubit_count(signal)
    op = GTTOperator(u3(theta, phi, lam), n)
    return compress_hybrid(signal, op, k).fidelity


def _dft_fidelity(signal, k: int) -> float:
    # the ortho ifft is the unitary N-point DFT of dft_matrix's sign; for a
    # renormalized top-k truncation the fidelity is the retained mass
    return top_k_indices(np.fft.ifft(signal, norm="ortho"), k).mass


class _Objective:
    """Negated fidelity as a function of theta, with an evaluation count."""

    def __init__(self, signal, k, phi=0.0, lam=math.pi):
        self.signal = signal
        self.k = k
        self.phi = phi
        self.lam = lam
        self.evals = 0

    def __call__(self, theta: float) -> float:
        self.evals += 1
        return 1.0 - encode_fidelity((theta, self.phi, self.lam), self.signal, self.k)


def _golden_section(obj, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section minimum of obj on [lo, hi]; returns (theta, value)."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = obj(d)
    theta = (a + b) / 2.0
    return theta, obj(theta)


def _scan_and_refine(obj, lo: float, hi: float, points: int) -> tuple[float, float]:
    """Grid scan of [lo, hi], then golden refinement around the best point.

    The objective has kinks wherever the top-k index set changes, so a
    coarse scan locates the best basin before the unimodal refinement; the
    grid point is kept when it beats the refined one.
    """
    grid = np.linspace(lo, hi, points)
    values = [obj(t) for t in grid]
    i = int(np.argmin(values))
    a = grid[max(0, i - 1)]
    b = grid[min(points - 1, i + 1)]
    theta, value = _golden_section(obj, a, b)
    if values[i] < value:
        return float(grid[i]), values[i]
    return theta, value


def default_restarts() -> list[float]:
    """16 uniform seeds in [0, pi/4] plus pi/2."""
    return list(np.linspace(0.0, math.pi / 4.0, 16)) + [math.pi / 2.0]


def _coordinate_descent(signal, k, theta0: float, cycles: int = 3):
    """Optional full (theta, phi, lam) search by cyclic golden sections."""
    params = [theta0, 0.0, math.pi]
    evals = [1]
    best = 1.0 - encode_fidelity(params, signal, k)
    for _ in range(cycles):
        for i in range(3):
            def slice_obj(v, i=i):
                evals[0] += 1
                trial = list(params)
                trial[i] = v
                return 1.0 - encode_fidelity(trial, signal, k)

            v_star, f_star = _scan_and_refine(slice_obj, 0.0, 2.0 * math.pi, 65)
            if f_star < best - _TIE_TOL:
                params[i] = v_star
                best = f_star
    return U3Params(*params), 1.0 - best, evals[0]


def optimize_theta(
    signal,
    k: int,
    restarts: Sequence[float] | None = None,
    vary_all: bool = False,
) -> EncodingReport:
    """Maximize compression fidelity over theta with phi = 0, lam = pi.

    Runs a bracketed derivative-free search from every restart seed and
    keeps the best angle, ties broken toward the smaller theta.  With
    ``vary_all`` a cyclic search over all three angles follows.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    seeds = default_restarts() if restarts is None else [float(t) for t in restarts]
    obj = _Objective(signal, k)
    best_theta, best_value = None, np.inf
    for seed in sorted(seeds):
        lo = max(0.0, seed - _HALF_WIDTH)
        hi = min(2.0 * math.pi, seed + _HALF_WIDTH)
        theta, value = _scan_and_refine(obj, lo, hi, 33)
        if value < best_value - _TIE_TOL or (
            abs(value - best_value) <= _TIE_TOL and theta < best_theta
        ):
            best_theta, best_value = theta, value
    params = U3Params(best_theta, 0.0, math.pi)
    gtt_fid = 1.0 - best_value
    evals = obj.evals
    if vary_all:
        params, fid3, extra = _coordinate_descent(signal, k, best_theta)
        evals += extra
        if fid3 > gtt_fid + _TIE_TOL:
            gtt_fid = fid3
        else:
            params = U3Params(best_theta, 0.0, math.pi)
    return EncodingReport(
        k=k,
        optimal_params=params,
        gtt_fidelity=gtt_fid,
        hadamard_fidelity=encode_fidelity((math.pi / 2.0, 0.0, math.pi), signal, k),
        dft_fidelity=_dft_fidelity(signal, k),
        optimizer_evals=evals,
    )


def compare_transforms(signal, k: int, params=None) -> EncodingReport:
    """Fidelities of tuned (or fixed) u3 power, Hadamard power, and DFT bases.

    ``params`` pins the u3 angles instead of optimizing; the DFT column is
    the full N-point DFT, computed with ``np.fft``.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    if params is None:
        return optimize_theta(signal, k)
    params = U3Params(*params)
    return EncodingReport(
        k=k,
        optimal_params=params,
        gtt_fidelity=encode_fidelity(params, signal, k),
        hadamard_fidelity=encode_fidelity((math.pi / 2.0, 0.0, math.pi), signal, k),
        dft_fidelity=_dft_fidelity(signal, k),
        optimizer_evals=1,
    )
