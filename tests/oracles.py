"""Independent reference implementations used to cross-check the library.

Everything here is written directly from first principles (explicit
Kronecker products, textbook butterfly loops, index formulas) without
calling into the package under test.
"""

import numpy as np


def kron_power(W, n):
    """Explicit n-fold Kronecker power of W."""
    G = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        G = np.kron(G, W)
    return G


def apply_by_axes(W, n, x):
    """(W tensored n times) x, as one tensordot per axis of the (b,)*n tensor;
    axis 0 is the most-significant digit."""
    b = W.shape[0]
    t = np.asarray(x, dtype=np.complex128).reshape((b,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(W, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


def fwht_natural(x):
    """Textbook in-place fast Walsh-Hadamard transform, natural order,
    normalized by 1/sqrt(2) per stage."""
    y = np.asarray(x, dtype=np.complex128).copy()
    N = y.shape[0]
    h = 1
    while h < N:
        for start in range(0, N, 2 * h):
            for i in range(start, start + h):
                a, b = y[i], y[i + h]
                y[i] = (a + b) / np.sqrt(2.0)
                y[i + h] = (a - b) / np.sqrt(2.0)
        h *= 2
    return y


def element_by_digits(W, n, p, q):
    """G[p, q] as the product of W entries selected by base-b digits."""
    b = W.shape[0]
    value = 1.0 + 0.0j
    for _ in range(n):
        value *= W[p % b, q % b]
        p //= b
        q //= b
    return value


def basis_value(W, n, j, x):
    """Recursive basis function f_j(x) straight from its definition."""
    if n == 0:
        return 1.0 + 0.0j
    b = W.shape[0]
    row = min(int(np.floor(b * x)), b - 1)
    col = j // b ** (n - 1)
    return W[row, col] * basis_value(W, n - 1, j % b ** (n - 1), b * x - row)


def compress_reference(state, G, k):
    """Dense-matrix top-k compression: returns (indices, fidelity, mass)."""
    spectrum = G @ state
    order = sorted(range(len(spectrum)), key=lambda i: (-abs(spectrum[i]), i))
    idx = sorted(order[:k])
    mass = float(sum(abs(spectrum[i]) ** 2 for i in idx))
    trunc = np.zeros_like(spectrum)
    trunc[idx] = spectrum[idx] / np.sqrt(mass)
    rec = G.conj().T @ trunc
    return idx, float(abs(np.vdot(state, rec)) ** 2), mass


def random_unitary(rng, b):
    """Haar-ish unitary from the QR decomposition of a Gaussian matrix."""
    A = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def flag_and_transfer(spectrum, idx):
    """The flag-and-transfer circuit on a dense joint statevector |y, a, c>
    of size N * 2 * k, entry (y, a, c) at y * 2k + a * k + c.

    The oracle flips a where y is in ``idx``; the transfer swaps
    |idx[j], 1, 0> and |0, 1, j>.  Both are explicit permutation matrices.
    Returns the weight of the a = 1 branch and that branch, normalized, as
    an (N, k) array of (y, c) amplitudes.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    N, k = spectrum.size, len(idx)
    D = N * 2 * k

    def at(y, a, c):
        return y * 2 * k + a * k + c

    psi = np.zeros(D, dtype=np.complex128)
    for y in range(N):
        psi[at(y, 0, 0)] = spectrum[y]
    oracle = np.arange(D)
    for y in idx:
        for a in range(2):
            for c in range(k):
                oracle[at(y, a, c)] = at(y, 1 - a, c)
    transfer = np.arange(D)
    for j, y in enumerate(idx):
        transfer[at(y, 1, 0)], transfer[at(0, 1, j)] = at(0, 1, j), at(y, 1, 0)
    for perm in (oracle, transfer):
        assert sorted(perm) == list(range(D))  # a permutation of basis states
        P = np.zeros((D, D))
        P[perm, np.arange(D)] = 1.0  # |perm[i]> <i|
        psi = P @ psi
    branch = psi.reshape(N, 2, k)[:, 1, :]
    weight = float(np.sum(np.abs(branch) ** 2))
    return weight, branch / np.sqrt(weight)
