"""Fidelity-driven function encoding with a tunable tensor-power basis.

A real function on [0, 1] is sampled at subinterval midpoints, normalized
into an amplitude vector, and compressed by top-k truncation in the
u3(theta, 0, pi) tensor-power basis.  The fidelity of a renormalized top-k
truncation equals the retained top-k mass of one forward transform, so that
mass is the objective: an evaluation builds no operator and runs no inverse
transform.  The angle theta is tuned by a derivative-free search; each grid
scan is one batched kernel call over all its angles, and golden-section
steps refine the best grid point.  Hadamard and full-size DFT bases are
evaluated alongside for comparison.  Signals, k and angles are validated
once, where they enter ``encode_fidelity``, ``optimize_theta`` or
``compare_transforms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# GTTOperator and dft_matrix stay imported: the benchmark's traced run wraps
# encode.GTTOperator and encode.dft_matrix
from .core import (  # noqa: F401
    MAX_BLOCK,
    TILE,
    GTTOperator,
    _apply_bases,
    _integer,
    dft_matrix,
    u3,
)
from .errors import BadK, BadShape, ZeroVector

# compress_hybrid stays imported: the benchmark's traced run wraps
# encode.compress_hybrid
from .protocols import _check_state, compress_hybrid  # noqa: F401

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# fidelity differences below this are treated as ties (broken toward the
# smaller angle) so the optimizer output is deterministic
_TIE_TOL = 1e-12

# half-width of the bracket scanned around each restart seed
_HALF_WIDTH = math.pi / 4.0

# u3 angles of the Hadamard base, the comparison column
_HADAMARD = (math.pi / 2.0, 0.0, math.pi)


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
    """Sample f at x_t = (2t+1)/(2N) and normalize to unit norm; BadShape
    unless N is a positive integer."""
    N = _integer(N, 1, math.inf, BadShape, "N")
    xs = (2 * np.arange(N) + 1) / (2 * N)
    v = np.array([f(x) for x in xs], dtype=np.complex128)
    if not np.all(np.isfinite(v)):
        raise BadShape("f must be finite at every midpoint")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ZeroVector("all midpoint samples are zero")
    return v / nrm


def _check_signal(signal, k) -> tuple[np.ndarray, int]:
    """The signal as a contiguous complex vector, and k as an int.

    BadShape unless the signal is a vector of length 2**n >= 2,
    NotNormalized unless it is finite with unit norm, BadK unless k is an
    integer in [1, N].
    """
    signal = np.ascontiguousarray(signal, dtype=np.complex128)
    N = signal.shape[0] if signal.ndim == 1 else 0
    if N < 2 or N & (N - 1):
        raise BadShape(f"signal must be a vector of length 2**n >= 2, got shape {signal.shape}")
    signal = _check_state(signal, N, "signal")
    return signal, _integer(k, 1, N, BadK, "k")


def _top_k_mass(spectra: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k largest |c|^2 along the last axis."""
    power = spectra.real**2 + spectra.imag**2
    N = power.shape[-1]
    return np.partition(power, N - k, axis=-1)[..., N - k :].sum(axis=-1)


def _retained_mass(signal: np.ndarray, k: int, angles: np.ndarray) -> np.ndarray:
    """Retained top-k mass of a checked signal in the u3 power basis of
    each row (theta, phi, lam) of the (G, 3) array ``angles``.

    The mass is the fidelity of the renormalized top-k truncation.  Angles
    run as batched transforms of at most one TILE of elements: G angles
    hold G * N spectrum elements and G * B**2 pass-matrix elements, with
    B <= MAX_BLOCK.  A single angle, or a signal longer than TILE, runs the
    plain kernel, tiled above TILE.
    """
    N = signal.shape[0]
    n = N.bit_length() - 1
    step = max(1, TILE // max(N, MAX_BLOCK**2))
    mass = np.empty(len(angles))
    for lo in range(0, len(angles), step):
        chunk = angles[lo : lo + step]
        # a single angle runs as scalars: one 2 x 2 base and the plain kernel
        W = u3(*chunk[0]) if len(chunk) == 1 else u3(*chunk.T)
        mass[lo : lo + step] = _top_k_mass(_apply_bases(W, n, signal), k)
    return mass


def encode_fidelity(params, signal, k: int) -> float:
    """Compression fidelity of the signal in the u3(params) power basis."""
    signal, k = _check_signal(signal, k)
    return float(_retained_mass(signal, k, np.array([params], dtype=np.float64))[0])


def _dft_fidelity(signal, k: int) -> float:
    # the ortho ifft is the unitary N-point DFT of dft_matrix's sign; for a
    # renormalized top-k truncation the fidelity is the retained mass
    return float(_top_k_mass(np.fft.ifft(signal, norm="ortho"), k))


class _Objective:
    """Negated retained mass along one angle of (theta, phi, lam), the
    others held at ``params``; counts every angle it evaluates."""

    def __init__(self, signal, k, params=(0.0, 0.0, math.pi), axis=0):
        self.signal = signal
        self.k = k
        self.params = tuple(params)
        self.axis = axis
        self.evals = 0

    def scan(self, values) -> np.ndarray:
        """The objective at each of ``values``, as one evaluator call."""
        angles = np.empty((len(values), 3))
        angles[:] = self.params
        angles[:, self.axis] = values
        self.evals += len(values)
        return 1.0 - _retained_mass(self.signal, self.k, angles)

    def __call__(self, value: float) -> float:
        return float(self.scan((value,))[0])


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


def _scan_and_refine(obj: _Objective, lo: float, hi: float, points: int) -> tuple[float, float]:
    """Grid scan of [lo, hi], then golden refinement around the best point.

    The objective has kinks wherever the top-k index set changes, so a
    coarse scan locates the best basin before the unimodal refinement.
    Values within _TIE_TOL tie: the scan takes the first grid point within
    it of the minimum, and keeps that point unless the refined one beats it
    by more, so rounding noise on a flat objective (every angle at k = N)
    does not pick the angle.
    """
    grid = np.linspace(lo, hi, points)
    values = obj.scan(grid)
    i = int(np.argmax(values <= values.min() + _TIE_TOL))
    a = grid[max(0, i - 1)]
    b = grid[min(points - 1, i + 1)]
    theta, value = _golden_section(obj, a, b)
    if value < values[i] - _TIE_TOL:
        return theta, value
    return float(grid[i]), float(values[i])


def default_restarts() -> list[float]:
    """16 uniform seeds in [0, pi/4] plus pi/2."""
    return list(np.linspace(0.0, math.pi / 4.0, 16)) + [math.pi / 2.0]


def _check_restarts(restarts) -> list[float]:
    seeds = np.asarray(restarts, dtype=np.float64)
    if seeds.ndim != 1 or seeds.size == 0 or not np.isfinite(seeds).all():
        raise BadShape(f"restarts must be a non-empty list of finite angles, got {restarts!r}")
    return seeds.tolist()


def _coordinate_descent(signal, k, theta0: float, cycles: int = 3):
    """Optional full (theta, phi, lam) search by cyclic golden sections."""
    params = [theta0, 0.0, math.pi]
    evals = 1
    best = 1.0 - _retained_mass(signal, k, np.array([params]))[0]
    for _ in range(cycles):
        for i in range(3):
            slice_obj = _Objective(signal, k, params, axis=i)
            v_star, f_star = _scan_and_refine(slice_obj, 0.0, 2.0 * math.pi, 65)
            evals += slice_obj.evals
            if f_star < best - _TIE_TOL:
                params[i] = v_star
                best = f_star
    return U3Params(*params), float(1.0 - best), evals


def optimize_theta(
    signal,
    k: int,
    restarts: Sequence[float] | None = None,
    vary_all: bool = False,
) -> EncodingReport:
    """Maximize compression fidelity over theta with phi = 0, lam = pi.

    Runs a bracketed derivative-free search from every restart seed and
    keeps the best angle, ties broken toward the smaller theta.  With
    ``vary_all`` a cyclic search over all three angles follows.  Restart
    seeds must be finite (BadShape).
    """
    signal, k = _check_signal(signal, k)
    seeds = default_restarts() if restarts is None else _check_restarts(restarts)
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
        hadamard_fidelity=float(_retained_mass(signal, k, np.array([_HADAMARD]))[0]),
        dft_fidelity=_dft_fidelity(signal, k),
        optimizer_evals=evals,
    )


def compare_transforms(signal, k: int, params=None) -> EncodingReport:
    """Fidelities of tuned (or fixed) u3 power, Hadamard power, and DFT bases.

    ``params`` pins the u3 angles instead of optimizing; the DFT column is
    the full N-point DFT, computed with ``np.fft``.
    """
    if params is None:
        return optimize_theta(signal, k)
    signal, k = _check_signal(signal, k)
    params = U3Params(*params)
    gtt_fid, hadamard_fid = _retained_mass(signal, k, np.array([params, _HADAMARD]))
    return EncodingReport(
        k=k,
        optimal_params=params,
        gtt_fidelity=float(gtt_fid),
        hadamard_fidelity=float(hadamard_fid),
        dft_fidelity=_dft_fidelity(signal, k),
        optimizer_evals=1,
    )
