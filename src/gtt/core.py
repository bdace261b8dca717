"""Tensor-power transforms of a small unitary base matrix.

The transform acts on vectors of length N = b**n as the n-fold Kronecker
power of a b x b unitary W, with the first tensor factor acting on the
most-significant base-b digit of the index.  The fast path works in blocked
passes: each pass applies m digit levels at once as one matrix product with
the Kronecker power W^{(x)m} (b**m <= 16), costing O(N * b**m * n / m)
arithmetic instead of the O(N**2) dense product.  The passes are
self-sorting: each is a single gemm that also moves its levels to the back
of the index, so the last pass leaves the result in natural order.  Vectors
longer than TILE elements run their low-digit passes tile by tile in cache.
Calls that count their arithmetic run one level per pass (N * b multiplies
per level) through the same kernel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, IndexOutOfRange, LengthMismatch, NotUnitary, TooLarge

UNITARITY_TOL = 1e-10

DEFAULT_DENSE_CAP = 4096

# largest Kronecker-power dimension b**m applied in one blocked pass
MAX_BLOCK = 16

# elements (1 MiB of complex128) that the leading passes of a long vector
# span; they run tile by tile so each tile stays in cache, and only the
# high-digit passes allocate vector-sized results
TILE = 2**16


def _dense_cap() -> int:
    return int(os.environ.get("GTT_DENSE_CAP", DEFAULT_DENSE_CAP))


def make_base_matrix(b: int, entries) -> np.ndarray:
    """Validate and return a b x b unitary base matrix as a read-only copy.

    Raises BadShape for wrong dimensions or non-finite entries, NotUnitary
    when max|W^H W - I| exceeds 1e-10.
    """
    if b < 2:
        raise BadShape(f"base dimension must be >= 2, got {b}")
    W = np.array(entries, dtype=np.complex128)
    if W.shape != (b, b):
        raise BadShape(f"expected a {b}x{b} matrix, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise BadShape("matrix entries must be finite")
    err = np.max(np.abs(W.conj().T @ W - np.eye(b)))
    if err > UNITARITY_TOL:
        raise NotUnitary(f"max|W^H W - I| = {err:.3e} exceeds {UNITARITY_TOL:g}")
    W.setflags(write=False)
    return W


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard matrix."""
    s = 1.0 / math.sqrt(2.0)
    return make_base_matrix(2, [[s, s], [s, -s]])


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    """General 2x2 unitary from the (theta, phi, lambda) rotation angles.

    [[cos(t/2), -e^{i lam} sin(t/2)],
     [e^{i phi} sin(t/2), e^{i (phi+lam)} cos(t/2)]]
    """
    for name, v in (("theta", theta), ("phi", phi), ("lambda", lam)):
        if not math.isfinite(v):
            raise BadShape(f"{name} must be finite")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    W = np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )
    return make_base_matrix(2, W)


def dft_matrix(b: int) -> np.ndarray:
    """Unitary b x b DFT matrix, F[j,k] = exp(+2 pi i j k / b) / sqrt(b)."""
    if b < 2:
        raise BadShape(f"base dimension must be >= 2, got {b}")
    j = np.arange(b)
    F = np.exp(2j * np.pi * np.outer(j, j) / b) / math.sqrt(b)
    return make_base_matrix(b, F)


def _kron_power(W: np.ndarray, m: int) -> np.ndarray:
    """W tensored m times, built by broadcast outer products."""
    P = W
    for _ in range(m - 1):
        B = P.shape[0] * W.shape[0]
        P = (P[:, None, :, None] * W[None, :, None, :]).reshape(B, B)
    return P


def _block_depth(b: int) -> int:
    """Largest m >= 1 with b**m <= MAX_BLOCK."""
    m = 1
    while b ** (m + 1) <= MAX_BLOCK:
        m += 1
    return m


@dataclass(frozen=True)
class GTTOperator:
    """A base matrix together with its tensor power n; N = b**n.

    The base is validated like ``make_base_matrix`` (square, finite,
    unitary).  The blocked transform applies Kronecker powers of the base,
    least-significant levels first: n // m powers W^{(x)m}, then one
    W^{(x)r} for the r = n % m leftover levels.  The kernel multiplies by
    them from the right, so ``_passes`` holds their transposes,
    (W^T)^{(x)m}, and ``_inverse_passes`` those of the inverse's powers,
    conj(W^{(x)m}).
    """

    base: np.ndarray
    n: int
    N: int = field(init=False)
    _passes: tuple = field(init=False, repr=False, compare=False)
    _inverse_passes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = np.asarray(self.base)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise BadShape(f"base must be a square matrix, got shape {base.shape}")
        base = make_base_matrix(base.shape[0], base)
        object.__setattr__(self, "base", base)
        b = base.shape[0]
        if self.n < 1:
            raise BadShape(f"tensor power must be >= 1, got {self.n}")
        N = b**self.n
        if N > np.iinfo(np.intp).max:
            raise TooLarge(f"b**n = {b}**{self.n} exceeds the index range")
        object.__setattr__(self, "N", int(N))
        m = min(_block_depth(b), self.n)
        q, r = divmod(self.n, m)
        passes = (_kron_power(base.T, m),) * q
        if r:
            passes += (_kron_power(base.T, r),)
        object.__setattr__(self, "_passes", passes)
        object.__setattr__(self, "_inverse_passes", tuple(R.conj().T for R in passes))

    @property
    def b(self) -> int:
        return self.base.shape[0]

    def conj(self) -> "GTTOperator":
        """Operator built from the conjugate transpose of the base matrix."""
        return GTTOperator(self.base.conj().T, self.n)


class OpCounter:
    """Tallies multiplications and additions performed by the fast transform."""

    def __init__(self):
        self.mults = 0
        self.adds = 0

    @property
    def total(self) -> int:
        return self.mults + self.adds


def _check_vector(op: GTTOperator, x) -> np.ndarray:
    # contiguous, so a strided input cannot drop matmul off BLAS
    x = np.ascontiguousarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] != op.N:
        raise LengthMismatch(f"expected a length-{op.N} vector, got shape {x.shape}")
    return x


def _fast_apply(passes, x: np.ndarray, counter: OpCounter | None) -> np.ndarray:
    """Blocked application of the tensor product of the passes' matrices.

    Each pass applies a B x B matrix P (a Kronecker power of the base) to
    log_b B digit levels; ``passes`` holds the transposes R = P^T,
    least-significant levels first.  A pass is the single self-sorting
    product x.reshape(B, -1).T @ R (BLAS reads the transposed operand
    through its trans flag): it applies P to the most-significant levels
    and moves them to the back of the index.  So the passes run in reverse,
    and after the last one every level is back in its place.

    Vectors of at most TILE elements run every pass over the whole vector,
    each pass allocating its result (reused buffers measured slower).
    Longer ones are cut into tiles of T <= TILE elements: the leading
    passes, whose levels span T, act only within a contiguous tile.  The
    passes left (one or two in a blocked plan) act on the high digits and
    run first, over the whole vector, each as a ``matmul`` over
    (-1, B, done) with ``done`` >= T the dimension of the levels below, a
    few large stacked products.  Then the tiles run one by one in cache,
    each writing its last pass in place into the result of those passes.

    The result is contiguous, in natural order, and shares no memory with
    ``x``.  A pass costs N * B multiplies and N * (B - 1) adds.
    """
    N = x.shape[0]
    if counter is not None:
        for R in passes:
            B = R.shape[0]
            counter.mults += N * B
            counter.adds += N * (B - 1)
    if N <= TILE:
        for R in reversed(passes):
            x = x.reshape(R.shape[0], -1).T @ R
        return x.reshape(N)
    T, lead = passes[0].shape[0], 1
    while T * passes[lead].shape[0] <= TILE:
        T *= passes[lead].shape[0]
        lead += 1
    head, tail = passes[:lead], passes[lead:]
    done = T
    for R in tail:
        B = R.shape[0]
        x = np.matmul(R.T, x.reshape(-1, B, done)).reshape(N)
        done *= B
    # a single pass spanning a tile (b > 256) overlaps ``out`` with its
    # operand, which numpy buffers
    B = head[0].shape[0]
    for row in x.reshape(-1, T):
        y = row
        for R in reversed(head[1:]):
            y = y.reshape(R.shape[0], -1).T @ R
        np.matmul(y.reshape(B, -1).T, head[0], out=row.reshape(-1, B))
    return x


def _plan(op: GTTOperator, counter: OpCounter | None, inverse: bool) -> tuple:
    if counter is None:
        return op._inverse_passes if inverse else op._passes
    # counted calls run one level per pass, the radix-b arithmetic
    return (op.base.conj() if inverse else op.base.T,) * op.n


def gtt_apply(op: GTTOperator, x, counter: OpCounter | None = None) -> np.ndarray:
    """Compute y = (W tensor n) x via the fast blocked algorithm."""
    x = _check_vector(op, x)
    return _fast_apply(_plan(op, counter, False), x, counter)


def gtt_inverse_apply(op: GTTOperator, y, counter: OpCounter | None = None) -> np.ndarray:
    """Compute (W^H tensor n) y, inverting gtt_apply."""
    y = _check_vector(op, y)
    return _fast_apply(_plan(op, counter, True), y, counter)


def dense_gtt_matrix(op: GTTOperator) -> np.ndarray:
    """Explicit N x N matrix via iterated Kronecker products.

    Intended as an oracle and for small worked examples; guarded by a size
    cap (GTT_DENSE_CAP env var, default 4096) against O(N^2) blowups.
    """
    cap = _dense_cap()
    if op.N > cap:
        raise TooLarge(f"N = {op.N} exceeds the dense cap {cap}")
    return _kron_power(op.base, op.n)


def _indices(N: int, i) -> np.ndarray:
    """``i`` as intp, checked to hold only integers in [0, N)."""
    i = np.asarray(i)
    if i.dtype.kind not in "iu":
        raise IndexOutOfRange(f"indices must be integers, got dtype {i.dtype}")
    bad = (i < 0) | (i >= N)
    if bad.any():
        raise IndexOutOfRange(f"indices must lie in [0, {N}), got {i[bad][0]}")
    return i.astype(np.intp, copy=False)


def _index_digits(op: GTTOperator, i) -> tuple:
    """The n base-b digits of validated indices, most significant first."""
    return np.unravel_index(_indices(op.N, i), (op.b,) * op.n)


def digit_counts(op: GTTOperator, p: int, q: int) -> np.ndarray:
    """b x b table counting how often digit pair (i, j) occurs in (p, q).

    Digits are read position by position from the base-b expansions; the
    counts over all pairs sum to n.
    """
    b = op.b
    pairs = np.multiply(_index_digits(op, p), b) + _index_digits(op, q)
    return np.bincount(pairs.ravel(), minlength=b * b).reshape(b, b)


def gtt_element(op: GTTOperator, p, q):
    """Closed-form matrix element: product of W[p_k, q_k] over digit positions.

    ``p`` and ``q`` are integer indices or arrays of them, broadcast against
    each other; a scalar pair gives a complex, arrays give an array.
    """
    rows, cols = _index_digits(op, p), _index_digits(op, q)
    try:
        v = op.base[rows[0], cols[0]]
    except IndexError:  # the digits are in range, so only the shapes clash
        raise BadShape(
            f"index shapes {rows[0].shape} and {cols[0].shape} do not broadcast"
        ) from None
    # in place, so at most two broadcast-sized arrays are alive
    for r, c in zip(rows[1:], cols[1:]):
        v *= op.base[r, c]
    return complex(v) if v.ndim == 0 else v
