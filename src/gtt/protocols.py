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

from .core import GTTOperator, gtt_apply, gtt_inverse_apply
from .errors import (
    BadCutoff,
    BadK,
    BadSelection,
    EmptySelection,
    LengthMismatch,
    NotNormalized,
)

NORM_TOL = 1e-9

# magnitudes this close (relative) to the k-th largest count as tied with it
TIE_RTOL = 1e-12


def _check_unit(v, name: str = "state") -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or abs(nrm - 1.0) > NORM_TOL:
        raise NotNormalized(f"{name} must have unit norm, got {nrm!r}")
    return v


def fidelity(a, b) -> float:
    """Squared magnitude of the inner product of two unit-norm vectors."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise LengthMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    a = _check_unit(a, "first vector")
    b = _check_unit(b, "second vector")
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


def make_selection(indices: Iterable[int], spectrum) -> SparseSelection:
    """Build a selection over explicit indices, computing the retained mass."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    N = spectrum.shape[0]
    try:
        if isinstance(indices, np.ndarray):
            raw = indices.astype(np.intp)
        else:
            # any iterable of integers: a list, a set, a generator
            raw = np.fromiter((int(i) for i in indices), dtype=np.intp)
    except OverflowError:
        raise BadSelection(f"indices must lie in [0, {N})") from None
    except TypeError:
        raise BadSelection("indices must be a non-empty list of distinct integers") from None
    # np.sort, not np.unique: the first np.unique call of a process adds
    # over 1 MB of resident memory
    idx = np.sort(raw, axis=None)
    if raw.ndim != 1 or idx.size == 0 or np.any(idx[1:] == idx[:-1]):
        raise BadSelection("indices must be a non-empty list of distinct integers")
    if idx[0] < 0 or idx[-1] >= N:
        raise BadSelection(f"indices must lie in [0, {N})")
    mass = float(np.sum(np.abs(spectrum[idx]) ** 2))
    return SparseSelection(tuple(idx.tolist()), mass)


def top_k_indices(spectrum, k: int) -> SparseSelection:
    """Select the k largest-magnitude coefficients, ties toward smaller index.

    Magnitudes within a relative TIE_RTOL of the k-th largest are tied, so
    rounding in the last bits does not decide between them; the slots left
    after the strictly larger ones go to the tied band's smallest indices.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    N = spectrum.shape[0]
    if not 1 <= k <= N:
        raise BadK(f"k must lie in [1, {N}], got {k}")
    mag = np.abs(spectrum)
    kth = np.partition(mag, N - k)[N - k]
    tol = TIE_RTOL * kth
    larger = np.flatnonzero(mag > kth + tol)
    tied = np.flatnonzero(np.abs(mag - kth) <= tol)
    return make_selection(np.concatenate([larger, tied[: k - larger.size]]), spectrum)


@dataclass(frozen=True)
class CompressionResult:
    selection: SparseSelection
    compressed: np.ndarray  # unit-norm retained amplitudes, selection order
    reconstructed: np.ndarray
    fidelity: float
    discarded_norm: float  # spectral mass lost to truncation, 1 - mass


def compress_hybrid(state, op: GTTOperator, k: int) -> CompressionResult:
    """Transform, keep the top-k coefficients, renormalize, reconstruct."""
    state = _check_unit(state)
    if state.shape[0] != op.N:
        raise LengthMismatch(f"state length {state.shape[0]} != N = {op.N}")
    spectrum = gtt_apply(op, state)
    selection = top_k_indices(spectrum, k)
    return _finish_compression(state, spectrum, selection, op)


def _finish_compression(state, spectrum, selection, op) -> CompressionResult:
    if selection.mass <= 0.0:
        raise EmptySelection("retained spectral mass is zero")
    idx = np.array(selection.indices, dtype=np.intp)
    compressed = spectrum[idx] / selection.normalizer
    truncated = np.zeros_like(spectrum)
    truncated[idx] = compressed
    reconstructed = gtt_inverse_apply(op, truncated)
    fid = float(abs(np.vdot(state, reconstructed)) ** 2)
    return CompressionResult(
        selection=selection,
        compressed=compressed,
        reconstructed=reconstructed,
        fidelity=fid,
        discarded_norm=max(0.0, 1.0 - selection.mass),
    )


def reconstruct_from_classical(
    selection: SparseSelection, compressed, op: GTTOperator
) -> np.ndarray:
    """Scatter received amplitudes back to their spectral slots and invert."""
    compressed = np.asarray(compressed, dtype=np.complex128)
    if compressed.shape[0] != selection.k:
        raise LengthMismatch(
            f"expected {selection.k} amplitudes, got {compressed.shape[0]}"
        )
    full = np.zeros(op.N, dtype=np.complex128)
    full[np.array(selection.indices, dtype=np.intp)] = compressed
    return gtt_inverse_apply(op, full)


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
    state = _check_unit(state)
    if state.shape[0] != op.N:
        raise LengthMismatch(f"state length {state.shape[0]} != N = {op.N}")
    idx = np.asarray(selection.indices)
    if (
        idx.ndim != 1
        or idx.size == 0
        or idx.dtype.kind not in "iu"
        or np.any(np.diff(idx) <= 0)
        or idx[0] < 0
        or idx[-1] >= op.N
    ):
        raise BadSelection("selection indices invalid for this operator")
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
    decoded = np.zeros(op.N, dtype=np.complex128)
    decoded[idx] = transmitted
    reconstructed = gtt_inverse_apply(op, decoded)
    return QuantumSimOutcome(success, transmitted, reconstructed)


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
    state = _check_unit(state)
    if state.shape[0] != op.N:
        raise LengthMismatch(f"state length {state.shape[0]} != N = {op.N}")
    if not 1 <= cutoff <= op.N:
        raise BadCutoff(f"cutoff must lie in [1, {op.N}], got {cutoff}")
    spectrum = gtt_apply(op, state)
    if spectrum_hook is not None:
        spectrum = np.asarray(spectrum_hook(spectrum), dtype=np.complex128)
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
