import math
import tracemalloc

import numpy as np
import pytest

from gtt import (
    GTTOperator,
    ZeroVector,
    builtin_signal,
    compare_transforms,
    compress_hybrid,
    dft_matrix,
    discretize_midpoints,
    encode_fidelity,
    gtt_inverse_apply,
    optimize_theta,
    u3,
)


class TestDiscretize:
    def test_constant(self):
        v = discretize_midpoints(lambda x: 1.0, 4)
        assert np.max(np.abs(v - 0.5)) < 1e-12

    def test_linear(self):
        v = discretize_midpoints(lambda x: x, 2)
        expect = np.array([1.0, 3.0]) / math.sqrt(10.0)
        assert np.max(np.abs(v - expect)) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            discretize_midpoints(lambda x: 0.0, 4)

    def test_table2_signal_matches(self):
        from gtt import perturbed_polynomial

        v = discretize_midpoints(perturbed_polynomial, 16)
        assert np.max(np.abs(v - builtin_signal("table2"))) < 1e-12


class TestEncodeFidelity:
    def test_full_k_is_one(self):
        sig = builtin_signal("table2")
        assert abs(encode_fidelity((math.pi / 2, 0.0, math.pi), sig, 16) - 1.0) < 1e-12

    def test_hadamard_column_k12(self):
        sig = builtin_signal("table2")
        f = encode_fidelity((math.pi / 2, 0.0, math.pi), sig, 12)
        assert 0.0 <= f <= 1.0 + 1e-12

    def test_continuity_in_theta(self):
        sig = builtin_signal("table2")
        h = 1e-5
        f0 = encode_fidelity((0.31, 0.0, math.pi), sig, 8)
        f1 = encode_fidelity((0.31 + h, 0.0, math.pi), sig, 8)
        assert abs(f1 - f0) < 1e-2 * h / 1e-5


def sparse_instance(theta0, n, k, seed):
    """State exactly k-sparse in the u3(theta0, 0, pi) power basis."""
    rng = np.random.default_rng(seed)
    N = 2**n
    spectrum = np.zeros(N, dtype=np.complex128)
    idx = rng.choice(N, size=k, replace=False)
    spectrum[idx] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    spectrum /= np.linalg.norm(spectrum)
    op = GTTOperator(u3(theta0, 0.0, math.pi), n)
    return gtt_inverse_apply(op, spectrum)


class TestOptimizeTheta:
    def test_exact_recovery(self):
        state = sparse_instance(0.3, 4, 3, seed=42)
        report = optimize_theta(state, 3)
        assert report.gtt_fidelity >= 1.0 - 1e-9

    def test_exact_recovery_hadamard_point(self):
        state = sparse_instance(math.pi / 2, 3, 2, seed=7)
        report = optimize_theta(state, 2)
        assert report.gtt_fidelity >= 1.0 - 1e-9

    def test_dominates_hadamard(self):
        sig = builtin_signal("table2")
        for k in (4, 8, 12):
            report = optimize_theta(sig, k)
            assert report.gtt_fidelity >= report.hadamard_fidelity - 1e-9

    def test_custom_restarts(self):
        state = sparse_instance(2.0, 3, 2, seed=9)
        report = optimize_theta(state, 2, restarts=[2.1])
        assert report.gtt_fidelity >= 1.0 - 1e-9

    def test_deterministic(self):
        sig = builtin_signal("table2")
        a = optimize_theta(sig, 8)
        b = optimize_theta(sig, 8)
        assert a.optimal_params == b.optimal_params
        assert a.gtt_fidelity == b.gtt_fidelity

    def test_fixed_phi_lambda(self):
        report = optimize_theta(builtin_signal("table2"), 8)
        assert report.optimal_params.phi == 0.0
        assert report.optimal_params.lam == math.pi

    def test_vary_all_not_worse(self):
        sig = builtin_signal("table2")
        base = optimize_theta(sig, 8)
        full = optimize_theta(sig, 8, vary_all=True)
        assert full.gtt_fidelity >= base.gtt_fidelity - 1e-12


class TestCompareTransforms:
    def test_s1_row(self):
        report = compare_transforms(
            builtin_signal("s1"), 2, params=(math.pi / 4, math.pi / 3, math.pi / 6)
        )
        assert abs(report.gtt_fidelity - 1.0000) < 5e-3
        assert abs(report.hadamard_fidelity - 0.5685) < 5e-3
        assert abs(report.dft_fidelity - 0.5001) < 5e-3

    def test_full_k_all_one(self):
        report = compare_transforms(
            builtin_signal("s1"), 8, params=(math.pi / 4, math.pi / 3, math.pi / 6)
        )
        assert abs(report.gtt_fidelity - 1.0) < 1e-12
        assert abs(report.hadamard_fidelity - 1.0) < 1e-12
        assert abs(report.dft_fidelity - 1.0) < 1e-12

    def test_optimized_path(self):
        report = compare_transforms(builtin_signal("s1"), 2)
        assert report.gtt_fidelity >= report.hadamard_fidelity - 1e-9

    @pytest.mark.parametrize(
        "N, k", [(8, 1), (8, 3), (16, 8), (64, 5), (64, 63), (256, 16), (256, 200)]
    )
    def test_dft_column_matches_dense_oracle(self, N, k):
        # the dense N-point DFT as a one-level operator is the oracle
        rng = np.random.default_rng(N + k)
        s = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        s /= np.linalg.norm(s)
        report = compare_transforms(s, k, params=(0.4, 0.0, math.pi))
        oracle = compress_hybrid(s, GTTOperator(dft_matrix(N), 1), k).fidelity
        assert abs(report.dft_fidelity - oracle) < 1e-12

    def test_dft_column_memory_is_linear(self):
        # a dense 1024-point DFT column would allocate 16 MiB per matrix
        rng = np.random.default_rng(53)
        x = rng.standard_normal(1024)
        x /= np.linalg.norm(x)
        tracemalloc.start()
        try:
            compare_transforms(x, 16, params=(math.pi / 4, 0.0, math.pi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
