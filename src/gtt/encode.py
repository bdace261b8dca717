"""Fidelity-driven function encoding with a tunable tensor-power basis.

A real function on [0, 1] is sampled at subinterval midpoints, normalized
into an amplitude vector, and compressed by top-k truncation in the
u3(theta, 0, pi) tensor-power basis.  The fidelity of a renormalized top-k
truncation equals the retained top-k mass of one forward transform, so that
mass is the objective: an evaluation builds no operator and runs no inverse
transform.  Every search is one line search over one angle: a grid scan as
one batched kernel call, then Brent's bounded minimizer (parabolic steps
with a golden-section fallback) around the best grid point.  Hadamard and
full-size DFT bases are evaluated alongside for comparison.  Signals, k,
angles and restart seeds are validated once, where they enter
``encode_fidelity``, ``optimize_theta`` or ``compare_transforms``.  Caller
arrays go through core's one guarded conversion, so ragged or non-numeric
ones raise BadShape.

phi never changes a fidelity: u3(theta, phi, lam) = diag(1, e^{i phi})
u3(theta, 0, lam), and a diagonal phase on the left of every factor changes
no magnitude of the spectrum, so no retained mass.
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
    _complex_array,
    _integer,
    dft_matrix,
    u3,
)
from .errors import BadK, BadShape

# compress_hybrid stays imported: the benchmark's traced run wraps
# encode.compress_hybrid
from .protocols import _check_state, _normalized, compress_hybrid  # noqa: F401

# golden-section fraction of Brent's fallback steps, and the refinement
# tolerance: absolute, plus sqrt(eps) relative to the angle
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_REFINE_TOL = 1e-8
_SQRT_EPS = math.sqrt(2.2e-16)

# coordinate cycles of the vary_all search
_CYCLES = 3

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
    """Sample f at x_t = (2t+1)/(2N) and normalize to unit norm, safely near
    the float limits; BadShape unless N is a positive integer and every
    sample finite, ZeroVector if every sample is zero."""
    N = _integer(N, 1, math.inf, BadShape, "N")
    xs = (2 * np.arange(N) + 1) / (2 * N)
    v = _complex_array([f(x) for x in xs], "samples of f")
    if v.shape != (N,) or not np.all(np.isfinite(v)):
        raise BadShape("f must be one finite number at every midpoint")
    return _normalized(v)


def _check_signal(signal, k) -> tuple[np.ndarray, int]:
    """The signal as a contiguous complex vector, and k as an int.

    BadShape unless the signal is a vector of length 2**n >= 2,
    NotNormalized unless it is finite with unit norm, BadK unless k is an
    integer in [1, N].
    """
    signal = _complex_array(signal, "signal")
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
    return float(_retained_mass(signal, k, np.array([_check_params(params)]))[0])


def _dft_fidelity(signal, k: int) -> float:
    # the ortho ifft is the unitary N-point DFT of dft_matrix's sign; for a
    # renormalized top-k truncation the fidelity is the retained mass
    return float(_top_k_mass(np.fft.ifft(signal, norm="ortho"), k))


def _line_search(signal, k, params, axis: int, lo: float, hi: float, points: int):
    """Minimize 1 - retained mass over angle ``axis`` of (theta, phi, lam)
    on [lo, hi], the other two held at ``params``; returns (angle, value,
    evaluations).

    A grid of ``points`` angles runs as one evaluator call: the objective
    has kinks wherever the top-k index set changes, so the coarse scan
    locates the basin.  Then Brent's bounded minimizer (Brent 1973, ch. 5;
    the method of scipy's ``fminbound``) refines the bracket of the best
    grid point's two neighbours, one angle per step: a parabola through
    the three best points where it is trusted, a golden-section step
    where it is not.  The minima are smooth points (the top-k mass is an
    upper envelope of smooth functions, whose kinks are never peaks), so
    the parabolic steps converge there.  It stops once the best point is
    within 2 * (sqrt(eps) * |angle| + _REFINE_TOL / 3) of both bracket
    ends.  Every evaluation is counted.  Values within _TIE_TOL tie: the scan
    takes the first grid point within it of the minimum, and keeps that
    point unless the refined one beats it by more, so rounding noise on a
    flat objective (every angle at k = N) does not pick the angle.
    """

    def objective(values) -> np.ndarray:
        angles = np.empty((len(values), 3))
        angles[:] = params
        angles[:, axis] = values
        return 1.0 - _retained_mass(signal, k, angles)

    grid = np.linspace(lo, hi, points)
    values = objective(grid)
    i = int(np.argmax(values <= values.min() + _TIE_TOL))
    a, b = grid[max(0, i - 1)], grid[min(points - 1, i + 1)]
    # Brent's bounded minimizer: x is the best point, w the second best, v
    # the previous w; e is the step before last, d the last step
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = objective((x,))[0]
    evals = points + 1
    d = e = 0.0
    while True:
        m = (a + b) / 2.0
        tol = _SQRT_EPS * abs(x) + _REFINE_TOL / 3.0
        if abs(x - m) <= 2.0 * tol - (b - a) / 2.0:
            break
        golden = True
        if abs(e) > tol:
            # parabola through x, w and v: accept its vertex if it lies in
            # the bracket and moves less than half the step before last
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e, last = d, e
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = math.copysign(tol, m - x)
        if golden:
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        step = max(abs(d), tol)
        u = x - step if d < 0.0 else x + step
        fu = objective((u,))[0]
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if fx < values[i] - _TIE_TOL:
        return float(x), float(fx), evals
    return float(grid[i]), float(values[i]), evals


def default_restarts() -> list[float]:
    """16 uniform seeds in [0, pi/4] plus pi/2."""
    return list(np.linspace(0.0, math.pi / 4.0, 16)) + [math.pi / 2.0]


def _finite_angles(values, expected: str, size: int = 0) -> list[float]:
    """``values`` as a list of floats; BadShape saying what was
    ``expected`` unless it is a non-empty flat list of finite real numbers,
    ``size`` of them when given."""
    try:
        angles = np.asarray(values)
    except ValueError:  # ragged nesting
        angles = np.asarray(None)
    bad_shape = angles.ndim != 1 or angles.size == 0 or size and angles.size != size
    if angles.dtype.kind not in "iuf" or bad_shape or not np.isfinite(angles).all():
        raise BadShape(f"{expected}, got {values!r}")
    return angles.astype(np.float64).tolist()


def _check_params(params) -> U3Params:
    return U3Params(*_finite_angles(params, "params must be three finite angles", 3))


def _check_restarts(restarts) -> list[float]:
    expected = "restarts must be a non-empty list of finite angles in [0, 2*pi]"
    seeds = _finite_angles(restarts, expected)
    if min(seeds) < 0.0 or max(seeds) > 2.0 * math.pi:
        raise BadShape(f"{expected}, got {restarts!r}")
    return seeds


def optimize_theta(
    signal,
    k: int,
    restarts: Sequence[float] | None = None,
    vary_all: bool = False,
) -> EncodingReport:
    """Maximize compression fidelity over theta with phi = 0, lam = pi.

    Runs a line search on [seed - pi/4, seed + pi/4], clipped to
    [0, 2*pi], from every restart seed and keeps the best angle, ties
    broken toward the smaller theta.  With ``vary_all``, _CYCLES cycles of
    line searches over theta and lam on [0, 2*pi] follow; phi stays 0.
    Restart seeds must be finite angles in [0, 2*pi] (BadShape).
    """
    signal, k = _check_signal(signal, k)
    seeds = default_restarts() if restarts is None else _check_restarts(restarts)
    best_theta, best_value, evals = None, np.inf, 0
    for seed in sorted(seeds):
        bracket = max(0.0, seed - _HALF_WIDTH), min(2.0 * math.pi, seed + _HALF_WIDTH)
        theta, value, n = _line_search(signal, k, (0.0, 0.0, math.pi), 0, *bracket, 33)
        evals += n
        tied = abs(value - best_value) <= _TIE_TOL and theta < best_theta
        if value < best_value - _TIE_TOL or tied:
            best_theta, best_value = theta, value
    params = U3Params(best_theta, 0.0, math.pi)
    gtt_fid = 1.0 - best_value
    if vary_all:
        angles = list(params)
        best = 1.0 - _retained_mass(signal, k, np.array([angles]))[0]
        evals += 1
        for _ in range(_CYCLES):
            for axis in (0, 2):  # theta and lam: phi never changes a fidelity
                angle, value, n = _line_search(signal, k, angles, axis, 0.0, 2.0 * math.pi, 65)
                evals += n
                if value < best - _TIE_TOL:
                    angles[axis], best = angle, value
        fid = float(1.0 - best)
        if fid > gtt_fid + _TIE_TOL:
            params, gtt_fid = U3Params(*angles), fid
    hadamard_fid = float(_retained_mass(signal, k, np.array([_HADAMARD]))[0])
    return EncodingReport(k, params, gtt_fid, hadamard_fid, _dft_fidelity(signal, k), evals)


def compare_transforms(signal, k: int, params=None) -> EncodingReport:
    """Fidelities of tuned (or fixed) u3 power, Hadamard power, and DFT bases.

    ``params`` pins the u3 angles instead of optimizing; the DFT column is
    the full N-point DFT, computed with ``np.fft``.
    """
    if params is None:
        return optimize_theta(signal, k)
    signal, k = _check_signal(signal, k)
    params = _check_params(params)
    gtt_fid, hadamard_fid = _retained_mass(signal, k, np.array([params, _HADAMARD])).tolist()
    return EncodingReport(k, params, gtt_fid, hadamard_fid, _dft_fidelity(signal, k), 1)
