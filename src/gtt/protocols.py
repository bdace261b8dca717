"""Statevector-level compression and filtering protocols.

Compression transforms a unit-norm state, keeps the k largest spectral
coefficients (under a unitary their mass is at least about k/N, never
zero), renormalizes, and inverse-transforms; the fully quantum variant
simulates the flag/transfer circuit on its flagged branch only, since both
gates act on the flagged states alone and post-selection drops the rest, so
after the transform it holds O(k) amplitudes.  Filtering splits the call's own
spectrum at a natural-order cutoff into two unnormalized branches and
inverse-transforms only the high one: the branches sum to the state, so the
low branch is the difference.
A ``SparseSelection`` checks its indices when built; consumers check only the
bound.  ``_normalized`` is the one unit-norm scaling of every built vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .core import (
    GTTOperator,
    _complex_array,
    _frozen,
    _integer,
    gtt_apply,
    gtt_inverse_apply,
)
from .errors import (
    BadCutoff,
    BadK,
    BadSelection,
    BadShape,
    EmptySelection,
    LengthMismatch,
    NotNormalized,
    ZeroVector,
)

NORM_TOL = 1e-9

# magnitudes this close (relative) to the k-th largest count as tied with it
TIE_RTOL = 1e-12


def _check_state(v, N: int | None, name: str = "state") -> np.ndarray:
    """``v`` as a complex vector, checked to have length N (any length if
    N is None) and unit norm."""
    v = _complex_array(v, name)
    if v.ndim != 1 or N is not None and v.size != N:
        length = "" if N is None else f"length-{N} "
        raise LengthMismatch(f"{name} must be a {length}vector, got shape {v.shape}")
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"{name} must have unit norm, got {nrm!r}")
    return v


def _normalized(values) -> np.ndarray:
    """``values`` scaled to unit norm; ZeroVector if every entry is zero."""
    v = _complex_array(values, "vector")
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    if not 0.0 < nrm < np.inf:
        # squares that leave the float range (entries near 1e154 or 1e-162):
        # scale the largest real or imaginary part to 1 first
        peak = max(np.max(np.abs(v.real), initial=0.0), np.max(np.abs(v.imag), initial=0.0))
        if peak == 0.0:
            raise ZeroVector("input vector is zero")
        # part by part: a complex division by a subnormal peak overflows
        v = v.real / peak + 1j * (v.imag / peak)
        nrm = np.linalg.norm(v)
    return v / nrm


def _check_spectrum(spectrum) -> np.ndarray:
    spectrum = _complex_array(spectrum, "spectrum")
    if spectrum.ndim != 1:
        raise BadShape(f"spectrum must be a vector, got shape {spectrum.shape}")
    return spectrum


def fidelity(a, b) -> float:
    """Squared magnitude of the inner product of two unit-norm vectors."""
    a = _check_state(a, None, "first vector")
    b = _check_state(b, a.size, "second vector")
    return float(abs(np.vdot(a, b)) ** 2)


@dataclass(frozen=True)
class SparseSelection:
    """Retained spectral index set with its mass; BadSelection unless the
    indices are a non-empty, strictly increasing vector of integer dtype
    (no float, even an integral one), none negative."""

    indices: tuple
    mass: float
    _idx: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices)
        vector = idx.ndim == 1 and idx.size > 0 and idx.dtype.kind in "iu"
        if not (vector and idx[0] >= 0 and np.all(idx[1:] > idx[:-1])):
            raise BadSelection("indices must be non-empty, strictly increasing integers >= 0")
        object.__setattr__(self, "indices", tuple(idx.tolist()))
        # the protocols index with a read-only intp copy
        object.__setattr__(self, "_idx", _frozen(idx.astype(np.intp)))

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def normalizer(self) -> float:
        return float(np.sqrt(self.mass))


def _bounded(selection, N: int) -> np.ndarray:
    """The selection's intp indices; BadSelection unless it is a
    SparseSelection whose every index, an exact int, is below N (an unsigned
    index past intp wraps in ``_idx``)."""
    if not isinstance(selection, SparseSelection):
        raise BadSelection(f"selection must be a SparseSelection, got {type(selection).__name__}")
    if selection.indices[-1] >= N:
        raise BadSelection(f"indices must lie in [0, {N})")
    return selection._idx


def make_selection(indices: Iterable[int], spectrum) -> SparseSelection:
    """Build a selection over explicit indices, computing the retained mass.

    ``indices`` is any iterable of distinct integers in any order (a list, a
    set, a generator); floats raise BadSelection rather than truncate.
    """
    spectrum = _check_spectrum(spectrum)
    try:
        raw = indices if isinstance(indices, np.ndarray) else np.array(list(indices))
    except (TypeError, ValueError):  # not iterable, or ragged
        raise BadSelection("indices must be a non-empty list of integers") from None
    # np.sort, not np.unique: the first np.unique call of a process adds
    # over 1 MB of resident memory
    selection = SparseSelection(np.sort(raw) if raw.ndim == 1 else raw, 0.0)
    idx = _bounded(selection, spectrum.shape[0])
    mass = float(np.sum(np.abs(spectrum[idx]) ** 2))
    if not np.isfinite(mass):
        raise BadShape("spectrum must be finite at the selected indices")
    # the indices are checked once; only the mass is filled in
    object.__setattr__(selection, "mass", mass)
    return selection


def top_k_indices(spectrum, k: int) -> SparseSelection:
    """Select the k largest-magnitude coefficients, ties toward smaller index.

    Magnitudes within a relative TIE_RTOL of the k-th largest are tied, so
    rounding in the last bits does not decide between them.  One ordered
    scan finds the strictly larger entries and the tied band, ascending;
    the slots left after the larger ones go to the band's smallest indices.
    """
    spectrum = _check_spectrum(spectrum)
    N = spectrum.shape[0]
    k = _integer(k, 1, N, BadK, "k")
    mag = np.abs(spectrum)
    if not np.isfinite(mag.max()):
        raise BadShape("spectrum must be finite")
    kth = np.partition(mag, N - k)[N - k]
    tol = TIE_RTOL * kth
    band = np.flatnonzero(mag >= kth - tol)
    near = mag[band]
    gap = near - kth  # exact near kth; kth + tol can round up onto a larger entry
    larger = gap > tol
    tied = np.abs(gap) <= tol
    keep = larger | (tied & (np.cumsum(tied) <= k - np.count_nonzero(larger)))
    return SparseSelection(band[keep], float(np.sum(near[keep] ** 2)))


def _decode(op: GTTOperator, idx: np.ndarray, amplitudes) -> np.ndarray:
    """Scatter ``amplitudes`` to spectral slots ``idx`` and inverse-transform."""
    spectrum = np.zeros(op.N, dtype=np.complex128)
    spectrum[idx] = amplitudes
    return gtt_inverse_apply(op, spectrum)


@dataclass(frozen=True)
class CompressionResult:
    selection: SparseSelection
    compressed: np.ndarray  # unit-norm retained amplitudes, selection order
    reconstructed: np.ndarray
    fidelity: float
    discarded_norm: float  # spectral mass lost to truncation, 1 - mass


def compress_hybrid(state, op: GTTOperator, k: int) -> CompressionResult:
    """Transform, keep the top-k coefficients, renormalize, reconstruct."""
    state = _check_state(state, op.N)
    spectrum = gtt_apply(op, state)
    selection = top_k_indices(spectrum, k)
    idx = selection._idx
    compressed = spectrum[idx] / selection.normalizer
    reconstructed = _decode(op, idx, compressed)
    return CompressionResult(
        selection=selection,
        compressed=compressed,
        reconstructed=reconstructed,
        fidelity=float(abs(np.vdot(state, reconstructed)) ** 2),
        discarded_norm=max(0.0, 1.0 - selection.mass),
    )


def reconstruct_from_classical(
    selection: SparseSelection, compressed, op: GTTOperator
) -> np.ndarray:
    """Scatter received amplitudes back to their spectral slots and invert."""
    idx = _bounded(selection, op.N)
    compressed = _complex_array(compressed, "amplitudes")
    if compressed.shape != idx.shape:
        raise LengthMismatch(
            f"expected {idx.size} amplitudes, got shape {compressed.shape}"
        )
    if not np.all(np.isfinite(compressed)):
        raise BadShape("amplitudes must be finite")
    return _decode(op, idx, compressed)


@dataclass(frozen=True)
class QuantumSimOutcome:
    success_probability: float  # retained mass; ancilla-1 branch weight
    transmitted: np.ndarray  # post-selected compressed register, length k
    reconstructed: np.ndarray


def compress_fully_quantum(
    state, op: GTTOperator, selection: SparseSelection
) -> QuantumSimOutcome:
    """Simulate the flag-and-transfer compression circuit exactly.

    Joint registers: the original N-dimensional register y, a 2-level
    ancilla flag a, and a k-dimensional compressed register c.  The
    selection oracle flips the ancilla on retained indices, a controlled
    map moves flagged amplitudes to the compressed register (uncomputing
    the original), and post-selecting a = 1 is performed deterministically
    with the branch weight reported as the success probability.

    Only the flagged branch is held, the k amplitudes the gates act on:
    O(k) memory after the transform rather than the O(N k) of a dense joint
    statevector.
    """
    state = _check_state(state, op.N)
    idx = _bounded(selection, op.N)
    amp = gtt_apply(op, state)

    # the oracle flips the flag only on selected |y>, and the transfer maps
    # |y_j, 1, 0> to |0, 1, j>, so neither gate touches an unflagged state and
    # post-selecting a = 1 discards all of them: the branch is amp[idx], slot j
    # holding amp[idx[j]] because the selection is strictly increasing
    transmitted = amp[idx]
    success = float(np.sum(np.abs(transmitted) ** 2))
    if success <= 0.0:
        raise EmptySelection("ancilla-1 branch has zero weight; process failed")
    transmitted /= np.sqrt(success)

    # decode: expand |j> back to |y_j> and invert the transform
    return QuantumSimOutcome(success, transmitted, _decode(op, idx, transmitted))


@dataclass(frozen=True)
class FilterOutput:
    cutoff: int
    low_branch: np.ndarray
    high_branch: np.ndarray
    low_spectrum: np.ndarray
    high_spectrum: np.ndarray


SpectrumHook = Callable[[np.ndarray], np.ndarray]


def filter_natural(
    state,
    op: GTTOperator,
    cutoff: int,
    spectrum_hook: SpectrumHook | None = None,
) -> FilterOutput:
    """Split a state at a natural-order spectral cutoff.

    Indices below the cutoff go to the low branch, the rest to the high
    branch; neither branch is renormalized, so their energies sum to one.
    ``spectrum_hook``, if given, maps the full spectrum before splitting
    (the optional mid-circuit processing slot); its result must be a
    length-N vector (LengthMismatch) of finite numbers (BadShape).

    One inverse transform gives the high branch.  The two branch spectra
    sum to the whole spectrum, so the low branch is the inverse of the
    whole less the high branch: the state itself without a hook, and one
    more inverse transform of the hook's spectrum with one.
    """
    state = _check_state(state, op.N)
    cutoff = _integer(cutoff, 1, op.N, BadCutoff, "cutoff")
    spectrum = gtt_apply(op, state)
    whole = state
    if spectrum_hook is not None:
        # copied, as the caller may keep the hook's result
        spectrum = _complex_array(spectrum_hook(spectrum), "spectrum_hook's result", copy=True)
        if spectrum.shape != (op.N,):
            raise LengthMismatch(
                f"spectrum_hook must return a length-{op.N} vector, got shape {spectrum.shape}"
            )
        if not np.all(np.isfinite(spectrum)):
            raise BadShape("spectrum_hook must return finite values")
        whole = gtt_inverse_apply(op, spectrum)
    low_spectrum = spectrum.copy()
    low_spectrum[cutoff:] = 0.0
    high_spectrum = spectrum  # this call's own array: zero its head in place
    high_spectrum[:cutoff] = 0.0
    high_branch = gtt_inverse_apply(op, high_spectrum)
    return FilterOutput(
        cutoff=cutoff,
        low_branch=whole - high_branch,
        high_branch=high_branch,
        low_spectrum=low_spectrum,
        high_spectrum=high_spectrum,
    )
