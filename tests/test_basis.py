import math

import numpy as np
import pytest

from gtt import (
    BadSampleCount,
    DomainError,
    GTTOperator,
    IndexOutOfRange,
    dense_gtt_matrix,
    eval_basis,
    gtt_apply,
    eval_normalized_basis,
    hadamard,
    make_base_matrix,
    sample_matrix,
    series_coefficients,
    series_reconstruct,
    u3,
)

from oracles import basis_value, kron_power, random_unitary

S = 1.0 / math.sqrt(2.0)

W_FOURIER2 = make_base_matrix(2, [[S, S * 1j], [S, -S * 1j]])


class TestEvalBasis:
    def test_first_function_constant(self):
        op = GTTOperator(hadamard(), 3)
        for x in (0.0, 0.31, 0.77, 0.999):
            assert abs(eval_basis(op, 0, x) - S**3) < 1e-12

    def test_single_level_is_base_entry(self):
        W = u3(0.8, 0.1, 0.4)
        op = GTTOperator(W, 1)
        assert abs(eval_basis(op, 1, 0.2) - W[0, 1]) < 1e-12
        assert abs(eval_basis(op, 1, 0.8) - W[1, 1]) < 1e-12

    def test_fourier_type_example(self):
        op = GTTOperator(W_FOURIER2, 1)
        assert abs(eval_basis(op, 1, 0.25) - 1j * S) < 1e-12
        assert abs(eval_basis(op, 1, 0.75) + 1j * S) < 1e-12

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(17)
        W = make_base_matrix(3, random_unitary(rng, 3))
        op = GTTOperator(W, 3)
        for j in (0, 5, 13, 26):
            for x in (0.0, 0.12, 1 / 3, 0.5, 0.93):
                assert abs(eval_basis(op, j, x) - basis_value(W, 3, j, x)) < 1e-12

    def test_piecewise_constant(self):
        op = GTTOperator(u3(1.1, 0.3, 0.9), 3)
        N = op.N
        for t in range(N):
            lo = eval_basis(op, 5, t / N + 1 / (3 * N))
            hi = eval_basis(op, 5, t / N + 2 / (3 * N))
            assert abs(lo - hi) < 1e-12

    def test_domain_checks(self):
        op = GTTOperator(hadamard(), 2)
        with pytest.raises(DomainError):
            eval_basis(op, 0, 1.0)
        with pytest.raises(IndexOutOfRange):
            eval_basis(op, 4, 0.5)

    @pytest.mark.parametrize("b, n", [(2, 12), (3, 7), (5, 5)])
    @pytest.mark.parametrize("eps", [1e-14, 1e-13])
    def test_point_below_boundary_on_adjacent_subinterval(self, b, n, eps):
        # a hair below t/N the rounding guard may round either way, but a
        # digit must never fall outside [0, b)
        rng = np.random.default_rng(37)
        W = make_base_matrix(b, random_unitary(rng, b))
        op = GTTOperator(W, n)
        N = op.N
        j = N - 1
        column = kron_power(W, n)[:, j]
        for t in range(1, N):
            v = eval_basis(op, j, t / N - eps)
            assert min(abs(v - column[t - 1]), abs(v - column[t])) < 1e-12, t

    def test_walsh_values(self):
        op = GTTOperator(hadamard(), 3)
        for j in range(8):
            for t in range(8):
                v = eval_basis(op, j, (2 * t + 1) / 16)
                assert abs(abs(v) - S**3) < 1e-12
                assert abs(v.imag) < 1e-12


class TestNormalizedBasis:
    def test_fourier_type_normalized(self):
        op = GTTOperator(W_FOURIER2, 1)
        assert abs(eval_normalized_basis(op, 0, 0.2) - 1.0) < 1e-12
        assert abs(eval_normalized_basis(op, 1, 0.2) - 1j) < 1e-12
        assert abs(eval_normalized_basis(op, 1, 0.7) + 1j) < 1e-12

    def test_hadamard_j0_is_one(self):
        op = GTTOperator(hadamard(), 4)
        assert abs(eval_normalized_basis(op, 0, 0.6) - 1.0) < 1e-12

    def test_gram_identity_b3(self):
        # functions are constant on N subintervals, so exact integration is
        # the mean of midpoint values
        rng = np.random.default_rng(23)
        W = make_base_matrix(3, random_unitary(rng, 3))
        op = GTTOperator(W, 3)
        N = op.N
        Phi = np.array(
            [
                [eval_normalized_basis(op, j, (2 * t + 1) / (2 * N)) for j in range(N)]
                for t in range(N)
            ]
        )
        gram = Phi.conj().T @ Phi / N
        assert np.max(np.abs(gram - np.eye(N))) < 1e-12


class TestSampleMatrix:
    def test_hadamard_n1(self):
        G = sample_matrix(GTTOperator(hadamard(), 1))
        assert np.max(np.abs(G - hadamard())) < 1e-12

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(29)
        W = make_base_matrix(3, random_unitary(rng, 3))
        op = GTTOperator(W, 2)
        assert np.max(np.abs(sample_matrix(op) - kron_power(W, 2))) < 1e-12

    def test_unitary_b2_n4(self):
        G = sample_matrix(GTTOperator(u3(0.77, 0.2, 1.9), 4))
        assert np.max(np.abs(G.conj().T @ G - np.eye(16))) < 1e-10


class TestSeries:
    def test_fourier_type_step_function(self):
        op = GTTOperator(W_FOURIER2, 1)
        exp = series_coefficients(op, [1.0, 0.0])
        assert abs(exp.coefficients[0] - 0.5) < 1e-12
        assert abs(exp.coefficients[1] + 0.5j) < 1e-12
        assert abs(series_reconstruct(exp, 0.3) - 1.0) < 1e-12
        assert abs(series_reconstruct(exp, 0.7)) < 1e-12

    def test_constant_function(self):
        op = GTTOperator(hadamard(), 3)
        exp = series_coefficients(op, np.ones(8))
        assert abs(exp.coefficients[0] - 1.0) < 1e-12
        assert np.max(np.abs(exp.coefficients[1:])) < 1e-12

    def test_round_trip_piecewise_constant(self):
        rng = np.random.default_rng(31)
        W = make_base_matrix(2, random_unitary(rng, 2))
        op = GTTOperator(W, 3)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        exp = series_coefficients(op, g)
        for t in range(8):
            x = (2 * t + 1) / 16
            assert abs(series_reconstruct(exp, x) - g[t]) < 1e-12

    def test_oversampled_consistency(self):
        op = GTTOperator(hadamard(), 2)
        g4 = np.array([1.0, 2.0, -1.0, 0.5])
        exp4 = series_coefficients(op, g4)
        g8 = np.repeat(g4, 2)
        exp8 = series_coefficients(op, g8)
        assert np.max(np.abs(exp4.coefficients - exp8.coefficients)) < 1e-12

    def test_bad_sample_count(self):
        op = GTTOperator(hadamard(), 2)
        with pytest.raises(BadSampleCount):
            series_coefficients(op, np.ones(6))

    def test_zero_coefficients(self):
        op = GTTOperator(hadamard(), 2)
        exp = series_coefficients(op, np.zeros(4))
        assert abs(series_reconstruct(exp, 0.5)) < 1e-12


class TestSeriesFastTransform:
    @pytest.mark.parametrize(
        "b, n, per", [(2, 3, 1), (2, 13, 1), (2, 13, 2), (3, 8, 1), (5, 3, 4)]
    )
    def test_round_trip_and_parseval(self, b, n, per):
        # N = 2^13 and 3^8 are above the dense cap: the expansion needs
        # no N x N matrix
        rng = np.random.default_rng(41)
        W = make_base_matrix(b, random_unitary(rng, b))
        op = GTTOperator(W, n)
        N = op.N
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        exp = series_coefficients(op, np.repeat(g, per))
        C = exp.coefficients
        assert C.shape == (N,)
        # Parseval: sum |C_m|^2 is the mean square of g over [0, 1)
        assert abs(np.sum(np.abs(C) ** 2) - np.mean(np.abs(g) ** 2)) < 1e-10
        back = b ** (n / 2.0) * gtt_apply(op, C)
        assert np.max(np.abs(back - g)) < 1e-10
        for t in rng.choice(N, size=min(N, 40), replace=False):
            x = (2 * t + 1) / (2 * N)
            assert abs(series_reconstruct(exp, x) - g[t]) < 1e-10

    @pytest.mark.parametrize("b, n", [(2, 4), (3, 3), (5, 2)])
    def test_reconstruct_matches_basis_sum(self, b, n):
        rng = np.random.default_rng(43)
        W = make_base_matrix(b, random_unitary(rng, b))
        op = GTTOperator(W, n)
        N = op.N
        exp = series_coefficients(
            op, rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
        )
        C = exp.coefficients
        xs = list(np.arange(N) / N) + list(rng.random(10))
        for x in xs:
            oracle = sum(C[m] * eval_normalized_basis(op, m, x) for m in range(N))
            assert abs(series_reconstruct(exp, x) - oracle) < 1e-12, x

    @pytest.mark.parametrize("eps", [1e-14, 1e-13])
    def test_reconstruct_below_boundary(self, eps):
        rng = np.random.default_rng(47)
        op = GTTOperator(make_base_matrix(2, random_unitary(rng, 2)), 10)
        N = op.N
        g = rng.standard_normal(N)
        exp = series_coefficients(op, g)
        for t in range(1, N):
            v = series_reconstruct(exp, t / N - eps)
            assert min(abs(v - g[t - 1]), abs(v - g[t])) < 1e-10, t


def test_sampling_equals_dense_everywhere():
    for theta in (math.pi / 2, math.pi / 4, math.pi / 8):
        op = GTTOperator(u3(theta, 0.0, math.pi), 3)
        assert np.max(np.abs(sample_matrix(op) - dense_gtt_matrix(op))) < 1e-12
