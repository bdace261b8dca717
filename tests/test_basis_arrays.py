"""The basis layer on arrays: points and indices of any shape, one call."""

import tracemalloc

import numpy as np
import pytest

import gtt.basis
from gtt import (
    BadSampleCount,
    BadShape,
    DomainError,
    GTTOperator,
    IndexOutOfRange,
    SeriesExpansion,
    dense_gtt_matrix,
    digit_counts,
    eval_basis,
    eval_normalized_basis,
    gtt_apply,
    gtt_element,
    hadamard,
    make_base_matrix,
    sample_matrix,
    series_coefficients,
    series_reconstruct,
)

from oracles import kron_power, random_unitary


def _operator(b, n, seed=53):
    rng = np.random.default_rng(seed)
    return GTTOperator(make_base_matrix(b, random_unitary(rng, b)), n)


def _points(N):
    """Every midpoint, and every inner boundary t/N less 1e-14 and 1e-13."""
    t = np.arange(1, N)
    mids = (2 * np.arange(N) + 1) / (2 * N)
    return np.concatenate([mids, t / N - 1e-14, t / N - 1e-13])


class TestEvalBasisArrays:
    @pytest.mark.parametrize("b, n", [(2, 10), (3, 6), (5, 4)])
    def test_elementwise_equals_scalar_loop(self, b, n):
        op = _operator(b, n)
        xs = _points(op.N)
        js = np.random.default_rng(59).integers(op.N, size=xs.shape)
        got = eval_basis(op, js, xs)
        want = np.array([eval_basis(op, int(j), float(x)) for j, x in zip(js, xs)])
        assert got.shape == xs.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("b, n", [(2, 4), (3, 3), (5, 2)])
    def test_broadcast_j_against_x(self, b, n):
        op = _operator(b, n)
        N = op.N
        xs = _points(N)
        got = eval_basis(op, np.arange(N)[:, None], xs)
        assert got.shape == (N, xs.size)
        want = np.array([[eval_basis(op, j, float(x)) for x in xs] for j in range(N)])
        assert np.max(np.abs(got - want)) <= 1e-15
        normalized = eval_normalized_basis(op, np.arange(N)[:, None], xs)
        assert np.max(np.abs(normalized - b ** (n / 2.0) * want)) <= 1e-15

    @pytest.mark.parametrize("b, n", [(2, 12), (3, 7), (5, 5)])
    def test_below_boundary_on_adjacent_subinterval(self, b, n):
        op = _operator(b, n)
        N = op.N
        column = kron_power(op.base, n)[:, N - 1]
        t = np.arange(1, N)
        for eps in (1e-14, 1e-13):
            v = eval_basis(op, N - 1, t / N - eps)
            gap = np.minimum(np.abs(v - column[t - 1]), np.abs(v - column[t]))
            assert np.max(gap) < 1e-12

    @pytest.mark.parametrize("b, n", [(3, 5), (5, 4), (6, 3), (7, 2)])
    def test_boundary_opens_its_subinterval(self, b, n):
        # for some t, N * (t / N) rounds a hair below t; the floor guard
        # keeps the point t / N on subinterval t
        op = _operator(b, n)
        N = op.N
        column = kron_power(op.base, n)[:, N - 1]
        v = eval_basis(op, N - 1, np.arange(N) / N)
        assert np.max(np.abs(v - column)) < 1e-12

    @pytest.mark.parametrize("b, n", [(2, 3), (3, 2), (5, 2)])
    def test_largest_point_below_one_on_last_subinterval(self, b, n):
        # N * x rounds up to N here; the guard may not push it past N - 1
        op = _operator(b, n)
        N = op.N
        x = np.nextafter(1.0, 0.0)
        last_row = kron_power(op.base, n)[N - 1]
        assert np.max(np.abs(eval_basis(op, np.arange(N), x) - last_row)) < 1e-12
        exp = series_coefficients(op, np.arange(N, dtype=float))
        assert abs(series_reconstruct(exp, x) - (N - 1)) < 1e-10

    def test_scalar_gives_complex(self):
        op = _operator(3, 3)
        assert type(eval_basis(op, 5, 0.4)) is complex
        assert type(eval_basis(op, np.int64(5), np.float64(0.4))) is complex
        assert type(eval_normalized_basis(op, 5, 0.4)) is complex
        assert type(gtt_element(op, 5, 7)) is complex

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0, -1e-300])
    def test_one_bad_point_raises(self, bad):
        op = GTTOperator(hadamard(), 3)
        xs = np.array([0.1, 0.5, bad, 0.9])
        with pytest.raises(DomainError):
            eval_basis(op, 1, xs)
        with pytest.raises(DomainError):
            eval_basis(op, np.arange(4), xs)
        with pytest.raises(DomainError):
            series_reconstruct(series_coefficients(op, np.ones(8)), xs)

    def test_nan_scalar_raises(self):
        op = GTTOperator(hadamard(), 3)
        with pytest.raises(DomainError):
            eval_basis(op, 1, float("nan"))

    @pytest.mark.parametrize("j", [1.5, 2.0, np.array([0, 1.5]), np.array([0, 8]), -1])
    def test_bad_index_raises(self, j):
        op = GTTOperator(hadamard(), 3)
        with pytest.raises(IndexOutOfRange):
            eval_basis(op, j, 0.3)


class TestElementArrays:
    @pytest.mark.parametrize("b, n", [(2, 5), (3, 3), (5, 2)])
    def test_grid_equals_dense(self, b, n):
        op = _operator(b, n)
        idx = np.arange(op.N)
        G = gtt_element(op, idx[:, None], idx)
        assert np.max(np.abs(G - dense_gtt_matrix(op))) < 1e-12
        assert abs(G[3, 1] - gtt_element(op, 3, 1)) <= 1e-15

    @pytest.mark.parametrize(
        "p, q", [(1.5, 2), (1, 2.0), (np.array([1.0, 2.0]), 0), (0, [0, -1]), (8, 0)]
    )
    def test_bad_index_raises(self, p, q):
        op = GTTOperator(hadamard(), 3)
        with pytest.raises(IndexOutOfRange):
            gtt_element(op, p, q)

    def test_shapes_that_do_not_broadcast(self):
        op = GTTOperator(hadamard(), 3)
        with pytest.raises(BadShape):
            gtt_element(op, np.arange(3), np.arange(4))
        with pytest.raises(BadShape):
            eval_basis(op, np.arange(3), np.array([0.1, 0.2, 0.3, 0.4]))

    def test_digit_counts_match_divmod(self):
        op = _operator(3, 5)
        for p, q in ((0, 0), (77, 5), (242, 100), (13, 242)):
            want = np.zeros((3, 3), dtype=np.int64)
            a, c = p, q
            for _ in range(5):
                want[a % 3, c % 3] += 1
                a //= 3
                c //= 3
            assert np.array_equal(digit_counts(op, p, q), want)

    def test_digit_counts_broadcast(self):
        # three indices against n = 3 digits, where a misaligned sum would
        # not raise
        op = _operator(3, 3)
        q = np.array([1, 2, 3])
        want = sum(digit_counts(op, 7, int(j)) for j in q)
        assert np.array_equal(digit_counts(op, 7, q), want)
        assert np.array_equal(digit_counts(op, q, 7), want.T)
        grid = digit_counts(op, q[:, None], q)
        assert np.array_equal(grid, sum(digit_counts(op, int(i), q) for i in q))
        assert grid.sum() == 9 * op.n
        with pytest.raises(BadShape):
            digit_counts(op, np.arange(2), np.arange(3))

    def test_digit_counts_bad_index(self):
        op = GTTOperator(hadamard(), 3)
        with pytest.raises(IndexOutOfRange):
            digit_counts(op, 1.5, 0)


class TestSeriesArrays:
    @pytest.mark.parametrize("b, n", [(2, 6), (3, 8), (5, 3)])
    def test_midpoints_equal_forward_transform(self, b, n):
        op = _operator(b, n)
        N = op.N
        rng = np.random.default_rng(61)
        exp = series_coefficients(op, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        mids = (2 * np.arange(N) + 1) / (2 * N)
        want = b ** (n / 2.0) * gtt_apply(op, exp.coefficients)
        assert np.max(np.abs(series_reconstruct(exp, mids) - want)) <= 1e-15

    def test_array_equals_scalar_loop(self):
        op = _operator(3, 4)
        rng = np.random.default_rng(67)
        exp = series_coefficients(op, rng.standard_normal(2 * op.N))
        xs = _points(op.N).reshape(-1, 1)
        got = series_reconstruct(exp, xs)
        assert got.shape == xs.shape
        want = np.array([series_reconstruct(exp, float(x)) for x in xs.ravel()])
        assert np.max(np.abs(got.ravel() - want)) <= 1e-15
        assert type(series_reconstruct(exp, 0.25)) is complex


def test_series_reconstruct_transforms_once(monkeypatch):
    op = _operator(2, 6)
    rng = np.random.default_rng(79)
    exp = series_coefficients(op, rng.standard_normal(2 * op.N))
    xs = _points(op.N)
    first = series_reconstruct(exp, xs)
    calls = []
    transform = gtt.basis.gtt_apply

    def counted(*args, **kwargs):
        calls.append(1)
        return transform(*args, **kwargs)

    monkeypatch.setattr(gtt.basis, "gtt_apply", counted)
    again = series_reconstruct(exp, xs)
    point = series_reconstruct(exp, float(xs[3]))
    assert not calls
    assert np.array_equal(again, first) and point == first[3]
    assert not exp.coefficients.flags.writeable
    again[:] = 0  # the caller's result is its own, not the cache
    assert np.array_equal(series_reconstruct(exp, xs), first)


def test_series_expansion_copies_and_checks_coefficients():
    op = _operator(2, 3)
    C = np.arange(8, dtype=np.complex128)
    exp = SeriesExpansion(op, C)
    C[0] = 99.0
    assert exp.coefficients[0] == 0.0
    with pytest.raises(BadSampleCount):
        SeriesExpansion(op, np.ones(7))


def test_sample_matrix_peak_memory():
    # two N x N complex arrays: the result and one level's gather
    op = GTTOperator(hadamard(), 10)
    N = op.N
    tracemalloc.start()
    try:
        G = sample_matrix(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.shape == (N, N)
    assert peak <= 2.1 * 16 * N * N
