"""Statevector-level compression and filtering protocols.

Compression transforms a unit-norm state, keeps the k largest spectral
coefficients, renormalizes, and inverse-transforms; the fully quantum
variant reproduces the same result by simulating the flag/transfer circuit
on the support of the joint register statevector (O(N + k) memory), with
measurement replaced by branch projection and probability bookkeeping.
Filtering splits the spectrum at a natural-order cutoff into two
unnormalized branches whose energies sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import GTTOperator, _integer, gtt_apply, gtt_inverse_apply
from .errors import (
    BadCutoff,
    BadK,
    BadSelection,
    BadShape,
    EmptySelection,
    LengthMismatch,
    NotNormalized,
)

NORM_TOL = 1e-9

# magnitudes this close (relative) to the k-th largest count as tied with it
TIE_RTOL = 1e-12


def _check_state(v, N: int, name: str = "state") -> np.ndarray:
    """``v`` as a complex vector, checked to have length N and unit norm."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (N,):
        raise LengthMismatch(f"{name} must be a length-{N} vector, got shape {v.shape}")
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"{name} must have unit norm, got {nrm!r}")
    return v


def _check_selection(indices, N: int) -> np.ndarray:
    """``indices`` as intp, checked to be a non-empty, strictly increasing
    vector of integer dtype (so no float, even an integral one) in [0, N)."""
    idx = np.asarray(indices)
    if (
        idx.ndim != 1
        or idx.size == 0
        or idx.dtype.kind not in "iu"
        or np.any(idx[1:] <= idx[:-1])
    ):
        raise BadSelection("indices must be non-empty, strictly increasing integers")
    if idx[0] < 0 or idx[-1] >= N:
        raise BadSelection(f"indices must lie in [0, {N})")
    return idx.astype(np.intp, copy=False)


def _check_spectrum(spectrum) -> np.ndarray:
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.ndim != 1:
        raise BadShape(f"spectrum must be a vector, got shape {spectrum.shape}")
    return spectrum


def fidelity(a, b) -> float:
    """Squared magnitude of the inner product of two unit-norm vectors."""
    a = _check_state(a, np.size(a), "first vector")
    b = _check_state(b, a.size, "second vector")
    return float(abs(np.vdot(a, b)) ** 2)


@dataclass(frozen=True)
class SparseSelection:
    """Retained spectral index set, sorted ascending, with its mass."""

    indices: tuple
    mass: float

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def normalizer(self) -> float:
        return float(np.sqrt(self.mass))


def _selection(idx: np.ndarray, spectrum: np.ndarray) -> SparseSelection:
    """The selection of checked indices, with their spectral mass."""
    mass = float(np.sum(np.abs(spectrum[idx]) ** 2))
    return SparseSelection(tuple(idx.tolist()), mass)


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
    idx = _check_selection(np.sort(raw) if raw.ndim == 1 else raw, spectrum.shape[0])
    selection = _selection(idx, spectrum)
    if not np.isfinite(selection.mass):
        raise BadShape("spectrum must be finite at the selected indices")
    return selection


def top_k_indices(spectrum, k: int) -> SparseSelection:
    """Select the k largest-magnitude coefficients, ties toward smaller index.

    Magnitudes within a relative TIE_RTOL of the k-th largest are tied, so
    rounding in the last bits does not decide between them; the slots left
    after the strictly larger ones go to the tied band's smallest indices.
    """
    spectrum = _check_spectrum(spectrum)
    N = spectrum.shape[0]
    k = _integer(k, 1, N, BadK, "k")
    mag = np.abs(spectrum)
    if not np.isfinite(mag.max()):
        raise BadShape("spectrum must be finite")
    kth = np.partition(mag, N - k)[N - k]
    tol = TIE_RTOL * kth
    larger = np.flatnonzero(mag > kth + tol)
    tied = np.flatnonzero(np.abs(mag - kth) <= tol)
    idx = np.sort(np.concatenate([larger, tied[: k - larger.size]]))
    return _selection(idx, spectrum)


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
    if selection.mass <= 0.0:
        raise EmptySelection("retained spectral mass is zero")
    idx = np.array(selection.indices, dtype=np.intp)
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
    idx = _check_selection(selection.indices, op.N)
    compressed = np.asarray(compressed, dtype=np.complex128)
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

    The joint state |y, a, c> is held by its support: one coordinate triple
    (Y, A, C) and one amplitude per nonzero entry, at most N entries.  Both
    gates permute basis states, so each is one vectorized update of the
    coordinates, and the simulation takes O(N + k) memory rather than the
    O(N k) of a dense joint statevector.
    """
    state = _check_state(state, op.N)
    idx = _check_selection(selection.indices, op.N)
    k = idx.size

    # support of |spectrum>|0>|0>; the rank map sends the j-th smallest
    # retained index to compressed slot j
    amp = gtt_apply(op, state)
    Y = np.arange(op.N)
    A = np.zeros(op.N, dtype=np.uint8)
    C = np.zeros(op.N, dtype=np.intp)

    # oracle: flip the ancilla where the original register is in the set
    rank = np.minimum(np.searchsorted(idx, Y), k - 1)
    hit = idx[rank] == Y
    A ^= hit

    # controlled transfer: |y_j, 1, 0> -> |0, 1, j>
    moved = (A == 1) & (C == 0)
    C[moved] = rank[moved]
    Y[moved] = 0

    # post-select the ancilla-1 branch
    kept = A == 1
    success = float(np.sum(np.abs(amp[kept]) ** 2))
    if success <= 0.0:
        raise EmptySelection("ancilla-1 branch has zero weight; process failed")
    out = kept & (Y == 0)
    transmitted = np.zeros(k, dtype=np.complex128)
    np.add.at(transmitted, C[out], amp[out])
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
    (the optional mid-circuit processing slot).
    """
    state = _check_state(state, op.N)
    cutoff = _integer(cutoff, 1, op.N, BadCutoff, "cutoff")
    spectrum = gtt_apply(op, state)
    if spectrum_hook is not None:
        spectrum = np.asarray(spectrum_hook(spectrum), dtype=np.complex128)
        if not np.all(np.isfinite(spectrum)):
            raise BadShape("spectrum_hook must return finite values")
    low_spectrum = spectrum.copy()
    low_spectrum[cutoff:] = 0.0
    high_spectrum = spectrum - low_spectrum
    return FilterOutput(
        cutoff=cutoff,
        low_branch=gtt_inverse_apply(op, low_spectrum),
        high_branch=gtt_inverse_apply(op, high_spectrum),
        low_spectrum=low_spectrum,
        high_spectrum=high_spectrum,
    )
