import math
import time

import numpy as np
import pytest

import gtt.core
from gtt import (
    BadShape,
    GTTOperator,
    IndexOutOfRange,
    LengthMismatch,
    NotUnitary,
    OpCounter,
    TooLarge,
    dense_gtt_matrix,
    dft_matrix,
    digit_counts,
    gtt_apply,
    gtt_element,
    gtt_inverse_apply,
    hadamard,
    make_base_matrix,
    u3,
)

from oracles import (
    apply_by_axes,
    element_by_digits,
    fwht_natural,
    kron_power,
    random_unitary,
)

S = 1.0 / math.sqrt(2.0)


class TestMakeBaseMatrix:
    def test_hadamard_accepted(self):
        W = make_base_matrix(2, [[S, S], [S, -S]])
        assert np.allclose(W, hadamard())

    def test_identity_accepted(self):
        W = make_base_matrix(2, [[1, 0], [0, 1]])
        assert np.allclose(W, np.eye(2))

    def test_rank_one_rejected(self):
        with pytest.raises(NotUnitary):
            make_base_matrix(2, [[1, 1], [1, 1]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(BadShape):
            make_base_matrix(3, [[1, 0], [0, 1]])

    def test_nan_rejected(self):
        with pytest.raises(BadShape):
            make_base_matrix(2, [[float("nan"), 0], [0, 1]])

    def test_b_below_two_rejected(self):
        with pytest.raises(BadShape):
            make_base_matrix(1, [[1.0]])

    def test_result_is_readonly(self):
        W = hadamard()
        with pytest.raises(ValueError):
            W[0, 0] = 5.0


class TestU3:
    def test_pi4_pi3_pi6_values(self):
        W = u3(math.pi / 4, math.pi / 3, math.pi / 6)
        expect = np.array(
            [[0.924, -0.331 - 0.191j], [0.191 + 0.331j, 0.924j]]
        )
        assert np.max(np.abs(W - expect)) < 1e-3

    def test_hadamard_case(self):
        assert np.allclose(u3(math.pi / 2, 0.0, math.pi), hadamard())

    def test_identity_case(self):
        assert np.allclose(u3(0.0, 0.0, 0.0), np.eye(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(BadShape):
            u3(float("inf"), 0.0, 0.0)


class TestDFT:
    def test_b2_is_hadamard(self):
        assert np.allclose(dft_matrix(2), hadamard())

    def test_b4_entry(self):
        assert abs(dft_matrix(4)[1, 1] - 0.5j) < 1e-12

    def test_b3_orthonormal_columns(self):
        F = dft_matrix(3)
        assert np.max(np.abs(F.conj().T @ F - np.eye(3))) < 1e-12

    def test_above_dense_cap_rejected_before_allocating(self, monkeypatch):
        # a b x b matrix of b = 10**11 would be 160 ZB
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="dense cap"):
            dft_matrix(10**11)
        assert time.perf_counter() - t0 < 1.0
        monkeypatch.setenv("GTT_DENSE_CAP", "3")
        assert dft_matrix(3).shape == (3, 3)
        with pytest.raises(TooLarge):
            dft_matrix(4)


class TestOperator:
    def test_derived_size(self):
        op = GTTOperator(dft_matrix(3), 4)
        assert (op.b, op.n, op.N) == (3, 4, 81)

    def test_bad_power_rejected(self):
        with pytest.raises(BadShape):
            GTTOperator(hadamard(), 0)

    @pytest.mark.parametrize("b, n", [(2, 63), (3, 40), (2, 10**12)])
    def test_power_beyond_index_range_is_too_large(self, b, n):
        # rejected before b**n is built: 2**(10**12) alone is 125 GB
        base = hadamard() if b == 2 else dft_matrix(b)
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="exceeds the index range"):
            GTTOperator(base, n)
        assert time.perf_counter() - t0 < 1.0

    def test_conj_inverts(self):
        op = GTTOperator(u3(0.9, 0.3, 1.1), 3)
        x = np.arange(8) / math.sqrt(140.0)
        y = gtt_apply(op.conj(), gtt_apply(op, x))
        assert np.max(np.abs(y - x)) < 1e-12

    def test_non_unitary_base_rejected(self):
        with pytest.raises(NotUnitary):
            GTTOperator(np.ones((2, 2)), 3)

    def test_non_square_base_rejected(self):
        with pytest.raises(BadShape):
            GTTOperator(np.ones((2, 3)) / math.sqrt(3.0), 2)

    def test_caller_base_left_writable(self):
        W = random_unitary(np.random.default_rng(4), 2)
        GTTOperator(W, 2)
        W[0, 0] = W[0, 0]


class TestApply:
    def test_unit_vector_hadamard(self):
        op = GTTOperator(hadamard(), 3)
        e0 = np.zeros(8)
        e0[0] = 1.0
        y = gtt_apply(op, e0)
        assert np.max(np.abs(y - 1 / math.sqrt(8.0))) < 1e-12

    def test_matches_dense_oracle_b3(self):
        rng = np.random.default_rng(7)
        W = random_unitary(rng, 3)
        op = GTTOperator(make_base_matrix(3, W), 3)
        x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
        assert np.max(np.abs(gtt_apply(op, x) - kron_power(W, 3) @ x)) < 1e-12

    def test_matches_textbook_fwht(self):
        rng = np.random.default_rng(11)
        op = GTTOperator(hadamard(), 6)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.max(np.abs(gtt_apply(op, x) - fwht_natural(x))) < 1e-13

    def test_length_mismatch(self):
        op = GTTOperator(hadamard(), 3)
        with pytest.raises(LengthMismatch):
            gtt_apply(op, np.zeros(7))

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        op = GTTOperator(u3(1.2, 0.4, 2.2), 5)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert abs(np.linalg.norm(gtt_apply(op, x)) - np.linalg.norm(x)) < 1e-12


# largest m with b**m <= 16: the levels one blocked pass applies
BLOCK_DEPTH = {2: 4, 3: 2, 4: 2, 5: 1, 8: 1}


class TestBlockedKernel:
    @pytest.mark.parametrize(
        "b,n", [(b, n) for b, m in BLOCK_DEPTH.items() for n in range(1, 2 * m + 2)]
    )
    def test_matches_kron_oracle(self, b, n):
        # n < m, n = m, and every remainder length n % m
        rng = np.random.default_rng(100 * b + n)
        W = random_unitary(rng, b)
        op = GTTOperator(W, n)
        G = kron_power(W, n)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        for fast, dense in ((gtt_apply, G), (gtt_inverse_apply, G.conj().T)):
            y = fast(op, x)
            assert np.max(np.abs(y - dense @ x)) < 1e-12
            assert np.max(np.abs(fast(op, x, OpCounter()) - y)) < 1e-12

    @pytest.mark.parametrize("b,n", [(2, 7), (3, 5)])
    def test_real_integer_and_strided_inputs(self, b, n):
        rng = np.random.default_rng(b + n)
        W = random_unitary(rng, b)
        op = GTTOperator(W, n)
        G = kron_power(W, n)
        wide = rng.standard_normal(2 * op.N) + 1j * rng.standard_normal(2 * op.N)
        inputs = (rng.standard_normal(op.N), rng.integers(-5, 6, op.N), wide[::2])
        for x in inputs:
            for fast, dense in ((gtt_apply, G), (gtt_inverse_apply, G.conj().T)):
                assert np.max(np.abs(fast(op, x) - dense @ x)) < 1e-12


class TestTiledKernel:
    # N > 2**16 runs in cache tiles after one or two high-digit passes; these
    # cover a remainder pass among those passes, one and two of them, and a
    # tile of one pass (b > 256), whose last write overlaps its operand
    @pytest.mark.parametrize(
        "b,n", [(2, 17), (2, 19), (2, 21), (3, 11), (4, 9), (5, 8), (8, 6), (257, 2)]
    )
    def test_matches_axis_oracle(self, b, n):
        rng = np.random.default_rng(1000 + 10 * b + n)
        W = random_unitary(rng, b)
        op = GTTOperator(W, n)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        for fast, base in ((gtt_apply, W), (gtt_inverse_apply, W.conj().T)):
            y = fast(op, x)
            assert np.max(np.abs(y - apply_by_axes(base, n, x))) < 1e-12
            assert np.max(np.abs(fast(op, x, OpCounter()) - y)) < 1e-12

    @pytest.mark.parametrize("n", [12, 17])
    def test_input_untouched_and_unshared(self, n):
        rng = np.random.default_rng(n)
        op = GTTOperator(random_unitary(rng, 2), n)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        keep = x.copy()
        for fast in (gtt_apply, gtt_inverse_apply):
            y = fast(op, x)
            assert np.array_equal(x, keep)
            assert not np.shares_memory(x, y)


class TestBatchedKernel:
    # a stack of G bases runs as one kernel call: batched passes (G, B, B)
    # against the vector broadcast to (G, N); every remainder pass length
    @pytest.mark.parametrize("b,n", [(2, 4), (2, 6), (2, 7), (3, 3), (3, 5), (4, 3), (4, 4)])
    def test_stack_equals_loop_of_single_calls(self, b, n):
        rng = np.random.default_rng(300 + 10 * b + n)
        bases = np.array([random_unitary(rng, b) for _ in range(3)])
        x = rng.standard_normal(b**n) + 1j * rng.standard_normal(b**n)
        got = gtt.core._apply_bases(bases, n, x)
        assert got.shape == (3, b**n)
        for W, y in zip(bases, got):
            assert np.max(np.abs(y - gtt_apply(GTTOperator(W, n), x))) < 1e-12

    @pytest.mark.parametrize("b,n", [(2, 6), (3, 5)])
    def test_several_vectors_one_plan(self, b, n):
        rng = np.random.default_rng(b * n)
        op = GTTOperator(random_unitary(rng, b), n)
        X = rng.standard_normal((4, op.N)) + 1j * rng.standard_normal((4, op.N))
        got = gtt.core._fast_apply(op._passes, X)
        for x, y in zip(X, got):
            assert np.max(np.abs(y - gtt_apply(op, x))) < 1e-12

    def test_single_base_above_tile_matches_axis_oracle(self):
        rng = np.random.default_rng(17)
        W = random_unitary(rng, 2)
        x = rng.standard_normal(2**17) + 1j * rng.standard_normal(2**17)
        got = gtt.core._apply_bases(W, 17, x)
        assert np.max(np.abs(got - apply_by_axes(W, 17, x))) < 1e-12

    def test_stacked_u3_and_powers_match_single_ones(self):
        theta = np.array([[0.1, 2.0, -7.5]])
        stack = u3(theta, np.array([[0.3], [1.1]]), math.pi)
        assert stack.shape == (2, 3, 2, 2)
        assert not stack.flags.writeable
        for i, j in np.ndindex(2, 3):
            one = u3(float(theta[0, j]), (0.3, 1.1)[i], math.pi)
            assert np.max(np.abs(stack[i, j] - one)) < 1e-15
        flat = stack.reshape(-1, 2, 2)
        for m in (1, 2, 3, 4, 5):
            powers = gtt.core._kron_power(flat, m)
            for W, P in zip(flat, powers):
                assert np.max(np.abs(P - kron_power(W, m))) < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stacked_u3_rejects_non_finite(self, bad):
        with pytest.raises(BadShape):
            u3(np.array([0.1, bad]), 0.0, math.pi)


class TestInverseApply:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for b, n in ((2, 6), (3, 4)):
            W = make_base_matrix(b, random_unitary(rng, b))
            op = GTTOperator(W, n)
            x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
            assert np.max(np.abs(gtt_inverse_apply(op, gtt_apply(op, x)) - x)) < 1e-12

    def test_self_inverse_base(self):
        # real theta-type base with phi=0, lambda=pi is its own inverse
        op = GTTOperator(u3(0.7, 0.0, math.pi), 4)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(16)
        assert np.max(np.abs(gtt_apply(op, x) - gtt_inverse_apply(op, x))) < 1e-12


class TestDense:
    def test_n1_is_base(self):
        W = u3(0.3, 0.1, 0.2)
        assert np.allclose(dense_gtt_matrix(GTTOperator(W, 1)), W)

    def test_n1_is_a_fresh_writable_array(self):
        op = GTTOperator(hadamard(), 1)
        G = dense_gtt_matrix(op)
        assert G is not op.base and G.flags.writeable
        assert np.array_equal(G, hadamard())

    def test_hadamard_n2(self):
        G = dense_gtt_matrix(GTTOperator(hadamard(), 2))
        assert np.max(np.abs(np.abs(G) - 0.5)) < 1e-12

    def test_cap_enforced(self):
        with pytest.raises(TooLarge):
            dense_gtt_matrix(GTTOperator(hadamard(), 13))

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("GTT_DENSE_CAP", "8192")
        G = dense_gtt_matrix(GTTOperator(hadamard(), 13))
        assert G.shape == (8192, 8192)


class TestElement:
    def test_hadamard_sign_formula(self):
        op = GTTOperator(hadamard(), 4)
        for p, q in ((0, 0), (3, 5), (15, 15), (9, 6)):
            sign = (-1) ** bin(p & q).count("1")
            assert abs(gtt_element(op, p, q) - sign / 4.0) < 1e-12

    def test_corner_is_power(self):
        op = GTTOperator(u3(0.8, 0.2, 0.5), 3)
        assert abs(gtt_element(op, 0, 0) - op.base[0, 0] ** 3) < 1e-12

    def test_matches_dense(self):
        rng = np.random.default_rng(21)
        W = make_base_matrix(3, random_unitary(rng, 3))
        op = GTTOperator(W, 2)
        G = kron_power(W, 2)
        for p in range(9):
            for q in range(9):
                assert abs(gtt_element(op, p, q) - G[p, q]) < 1e-12
                assert abs(gtt_element(op, p, q) - element_by_digits(W, 2, p, q)) < 1e-12

    def test_digit_counts_sum(self):
        op = GTTOperator(dft_matrix(3), 4)
        assert digit_counts(op, 77, 5).sum() == 4

    def test_out_of_range(self):
        op = GTTOperator(hadamard(), 2)
        with pytest.raises(IndexOutOfRange):
            gtt_element(op, 4, 0)


class TestOpCount:
    def test_exact_closed_form(self):
        for b, n in ((2, 8), (3, 5)):
            rng = np.random.default_rng(n)
            W = make_base_matrix(b, random_unitary(rng, b))
            op = GTTOperator(W, n)
            c = OpCounter()
            gtt_apply(op, rng.standard_normal(op.N), c)
            assert c.mults == n * op.N * b
            assert c.adds == n * op.N * (b - 1)
            assert c.total <= 4 * op.N * b * n

    # N = 2**12 runs untiled, 2**17 and 3**11 in cache tiles
    @pytest.mark.parametrize("b,n", [(2, 12), (2, 17), (3, 11)])
    def test_counted_call_is_the_call_users_get(self, b, n):
        op = GTTOperator(u3(0.7, 0.3, 1.9) if b == 2 else dft_matrix(3), n)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
        for apply in (gtt_apply, gtt_inverse_apply):
            c = OpCounter()
            assert np.array_equal(apply(op, x, c), apply(op, x))
            assert c.mults == n * op.N * b
            assert c.adds == n * op.N * (b - 1)
