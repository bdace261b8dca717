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

The kernel also takes a leading batch axis: a stack of G bases gives G
pass stacks, and each pass is then one batched ``matmul`` over the G
vectors, so G transforms of one signal (an angle scan) cost one call.
"""

from __future__ import annotations

import cmath
import math
import numbers
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


def _integer(value, lo: int, hi: float, error: type, name: str) -> int:
    """``value`` as an int, raising ``error`` unless it is an integer in [lo, hi]."""
    if not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise error(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def _frozen(W: np.ndarray) -> np.ndarray:
    W.setflags(write=False)
    return W


def _complex_array(values, name: str, copy: bool = False) -> np.ndarray:
    """``values`` as a C-contiguous complex array, the one conversion of
    caller input; BadShape if they are ragged or not numbers.  A complex
    array that is already contiguous is returned as it is, without a copy,
    unless ``copy`` is set."""
    try:
        if copy:
            return np.array(values, dtype=np.complex128, order="C")
        return np.asarray(values, dtype=np.complex128, order="C")
    except (TypeError, ValueError):
        raise BadShape(f"{name} must form a rectangular array of numbers") from None


def make_base_matrix(b: int, entries) -> np.ndarray:
    """Validate and return a b x b unitary base matrix as a read-only copy.

    Raises BadShape for wrong dimensions, ragged rows or non-finite
    entries, NotUnitary when max|W^H W - I| exceeds 1e-10.
    """
    b = _integer(b, 2, math.inf, BadShape, "base dimension")
    W = _complex_array(entries, "matrix entries", copy=True)
    if W.shape != (b, b):
        raise BadShape(f"expected a {b}x{b} matrix, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise BadShape("matrix entries must be finite")
    err = np.max(np.abs(W.conj().T @ W - np.eye(b)))
    if err > UNITARITY_TOL:
        raise NotUnitary(f"max|W^H W - I| = {err:.3e} exceeds {UNITARITY_TOL:g}")
    return _frozen(W)


# unitary by construction: GTTOperator validates every base it is given


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard matrix."""
    s = 1.0 / math.sqrt(2.0)
    return _frozen(np.array([[s, s], [s, -s]], dtype=np.complex128))


def u3(theta, phi, lam) -> np.ndarray:
    """General 2x2 unitary from the (theta, phi, lambda) rotation angles.

    [[cos(t/2), -e^{i lam} sin(t/2)],
     [e^{i phi} sin(t/2), e^{i (phi+lam)} cos(t/2)]]

    The angles may be arrays, broadcast against each other; the result is
    then a read-only stack of shape (..., 2, 2), one matrix per angle
    triple.  Non-finite angles raise BadShape.
    """
    angles = (theta, phi, lam)
    if all(isinstance(v, (int, float)) for v in angles):
        # scalars: the math functions cost a fraction of numpy's 0-d ufuncs
        shape, finite, cos, sin, exp = (), math.isfinite, math.cos, math.sin, cmath.exp
    else:
        angles = [np.asarray(v, dtype=np.float64) for v in angles]
        shape = np.broadcast(*angles).shape
        finite, cos, sin, exp = _all_finite, np.cos, np.sin, np.exp
    for name, v in zip(("theta", "phi", "lambda"), angles):
        if not finite(v):
            raise BadShape(f"{name} must be finite")
    t, p, l = angles
    c, s = cos(t / 2.0), sin(t / 2.0)
    W = np.empty(shape + (2, 2), np.complex128)
    W[..., 0, 0] = c
    W[..., 0, 1] = -exp(1j * l) * s
    W[..., 1, 0] = exp(1j * p) * s
    W[..., 1, 1] = exp(1j * (p + l)) * c
    return _frozen(W)


def _all_finite(v: np.ndarray) -> bool:
    return bool(np.isfinite(v).all())


def dft_matrix(b: int) -> np.ndarray:
    """Unitary b x b DFT matrix, F[j,k] = exp(+2 pi i j k / b) / sqrt(b);
    TooLarge above the dense cap, before anything is allocated."""
    b = _integer(b, 2, math.inf, BadShape, "base dimension")
    _check_dense_cap(b)
    j = np.arange(b)
    return _frozen(np.exp(2j * np.pi * np.outer(j, j) / b) / math.sqrt(b))


def _kron_power(W: np.ndarray, m: int) -> np.ndarray:
    """W tensored m times, built by broadcast outer products; a stack
    (..., b, b) gives the stack of its powers."""
    P = W
    for _ in range(m - 1):
        B = P.shape[-1] * W.shape[-1]
        P = (P[..., :, None, :, None] * W[..., None, :, None, :]).reshape(W.shape[:-2] + (B, B))
    return P


def _block_depth(b: int) -> int:
    """Largest m >= 1 with b**m <= MAX_BLOCK."""
    m = 1
    while b ** (m + 1) <= MAX_BLOCK:
        m += 1
    return m


def _blocked_passes(WT: np.ndarray, n: int) -> tuple:
    """The blocked plan for n levels of the base whose transpose is WT.

    Kronecker powers of WT, least-significant levels first: n // m powers
    (W^T)^{(x)m}, then one (W^T)^{(x)r} for the r = n % m leftover levels.
    A stack (G, b, b) gives pass stacks (G, B, B).
    """
    m = min(_block_depth(WT.shape[-1]), n)
    q, r = divmod(n, m)
    passes = (_kron_power(WT, m),) * q
    if r:
        passes += (_kron_power(WT, r),)
    return passes


@dataclass(frozen=True)
class GTTOperator:
    """A base matrix together with its tensor power n; N = b**n.

    The base is validated by ``make_base_matrix`` (square, finite,
    unitary).  The blocked transform applies Kronecker powers of the base,
    least-significant levels first (``_blocked_passes``).  The kernel
    multiplies by them from the right, so ``_passes`` holds their
    transposes, (W^T)^{(x)m}, and ``_inverse_passes`` those of the
    inverse's powers, conj(W^{(x)m}).
    """

    base: np.ndarray
    n: int
    N: int = field(init=False)
    _passes: tuple = field(init=False, repr=False, compare=False)
    _inverse_passes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # converted without a copy, so a complex array is not copied twice:
        # make_base_matrix makes the one copy, and rejects any shape but
        # b x b, b the longest side
        base = _complex_array(self.base, "matrix entries")
        b = max(base.shape, default=0)
        base = make_base_matrix(b, base)
        object.__setattr__(self, "base", base)
        n = _integer(self.n, 1, math.inf, BadShape, "tensor power")
        # b >= 2, so b**bits already exceeds intp: cap the exponent first,
        # or a huge n builds a huge integer just to be rejected
        N = b ** min(n, np.iinfo(np.intp).bits)
        if N > np.iinfo(np.intp).max:
            raise TooLarge(f"b**n = {b}**{n} exceeds the index range")
        object.__setattr__(self, "N", int(N))
        passes = _blocked_passes(base.T, n)
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
    x = _complex_array(x, "vector")
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
    each pass allocating its result (reused buffers measured slower).  In
    this branch ``x`` may be a batch (G, N) of vectors, and the passes
    stacks (G, B, B) that act on vector g with matrix g; each pass is then
    one batched ``matmul``.  G operators on one vector take that vector
    broadcast to (G, N).
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
    N = x.shape[-1]
    if counter is not None:
        for R in passes:
            B = R.shape[0]
            counter.mults += N * B
            counter.adds += N * (B - 1)
    if N <= TILE:
        batch = x.shape[:-1]
        for R in reversed(passes):
            x = x.reshape(batch + (R.shape[-1], -1)).swapaxes(-1, -2) @ R
        return x.reshape(batch + (N,))
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


def _apply_bases(W: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """(W^{(x)n}) x for a base W (b, b), or for each base of a stack (G, b, b).

    ``x`` is a length-b**n complex vector, already checked.  A stack gives
    the G transforms as the rows of a (G, N) array, in one kernel call; it
    needs N <= TILE, the kernel's untiled branch.  No operator is built and
    the bases are not checked: callers pass bases unitary by construction.
    """
    if W.ndim == 3:
        x = np.broadcast_to(x, (W.shape[0], x.shape[-1]))
    return _fast_apply(_blocked_passes(W.swapaxes(-1, -2), n), x, None)


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


def _check_dense_cap(N: int) -> None:
    """TooLarge unless an N x N dense matrix is within the dense cap."""
    cap = int(os.environ.get("GTT_DENSE_CAP", DEFAULT_DENSE_CAP))
    if N > cap:
        raise TooLarge(f"N = {N} exceeds the dense cap {cap}")


def dense_gtt_matrix(op: GTTOperator) -> np.ndarray:
    """Explicit N x N matrix via iterated Kronecker products.

    Intended as an oracle and for small worked examples; guarded by a size
    cap (GTT_DENSE_CAP env var, default 4096) against O(N^2) blowups.
    The result is a new, writable array, also at n = 1.
    """
    _check_dense_cap(op.N)
    return op.base.copy() if op.n == 1 else _kron_power(op.base, op.n)


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
