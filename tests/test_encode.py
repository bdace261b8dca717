import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtt.core
import gtt.encode
from gtt import (
    BadShape,
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
from gtt.core import TILE

from oracles import apply_by_axes


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

    @pytest.mark.parametrize("N", [2.5, 16.0, 0, -4])
    def test_non_integer_or_non_positive_N_rejected(self, N):
        with pytest.raises(BadShape):
            discretize_midpoints(lambda x: 1.0, N)

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

    def test_vary_all_runs_no_phi_line_search(self, monkeypatch):
        # phi never changes a fidelity, so only theta (0) and lam (2) are searched
        axes = []
        search = gtt.encode._line_search

        def recording(signal, k, params, axis, *bracket):
            axes.append(axis)
            return search(signal, k, params, axis, *bracket)

        monkeypatch.setattr(gtt.encode, "_line_search", recording)
        optimize_theta(builtin_signal("table2"), 4, vary_all=True)
        assert set(axes) == {0, 2}

    @pytest.mark.parametrize(
        "signal",
        [builtin_signal("table2"), discretize_midpoints(lambda x: math.sin(3 * x) + x * x, 64)],
        ids=["table2", "smooth64"],
    )
    def test_k_equal_N_gives_theta_zero(self, signal):
        # every angle retains all the mass, so the tie rule picks the smallest
        report = optimize_theta(signal, signal.size)
        assert report.optimal_params.theta == 0.0
        assert abs(report.gtt_fidelity - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "k, fidelity, evals",
        [(4, 0.8256089912798763, 763), (8, 0.9549350769474223, 1092), (12, 0.996854040881798, 787)],
        ids=["default-4", "default-8", "default-12"],
    )
    def test_table2_golden(self, k, fidelity, evals):
        report = optimize_theta(builtin_signal("table2"), k)
        assert abs(report.gtt_fidelity - fidelity) < 1e-12
        assert report.optimizer_evals == evals

    @pytest.mark.parametrize(
        "k, options, theta, fidelity, evals",
        [
            (4, {"vary_all": True}, 2.575314512390844, 0.8390609720447285, 1193),
            (8, {"vary_all": True}, 2.7128282360141287, 0.9570487283963889, 1525),
            (12, {"vary_all": True}, 2.9136541603777704, 0.9985158401191383, 1223),
            (4, {"restarts": [math.pi / 4]}, 0.8761631457364181, 0.8076635819972633, 41),
            (8, {"restarts": [math.pi / 4]}, 0.0, 0.9549350769474223, 66),
        ],
        ids=["vary_all-4", "vary_all-8", "vary_all-12", "one-restart-4", "one-restart-8"],
    )
    def test_table2_golden_options(self, k, options, theta, fidelity, evals):
        report = optimize_theta(builtin_signal("table2"), k, **options)
        assert abs(report.optimal_params.theta - theta) < 1e-9
        assert abs(report.gtt_fidelity - fidelity) < 1e-12
        assert report.optimizer_evals == evals

    @pytest.mark.parametrize(
        "options",
        [{"restarts": [math.pi / 4]}, {"vary_all": True}, {}],
        ids=["one-restart", "vary_all", "default"],
    )
    def test_optimal_params_are_python_floats(self, options):
        report = optimize_theta(builtin_signal("table2"), 4, **options)
        assert [type(v) for v in report.optimal_params] == [float] * 3


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


def random_state(rng, N):
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return x / np.linalg.norm(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(0.0, 2 * math.pi), st.data())
def test_optimizer_report_is_consistent(n, seed, restart, data):
    N = 2**n
    k = data.draw(st.integers(1, N))
    state = random_state(np.random.default_rng(seed), N)
    report = optimize_theta(state, k, restarts=[restart])
    assert 0.0 <= report.optimal_params.theta <= 2 * math.pi
    assert k / N - 1e-12 <= report.gtt_fidelity <= 1.0 + 1e-12
    refit = encode_fidelity(report.optimal_params, state, k)
    assert abs(refit - report.gtt_fidelity) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(st.floats(-7.0, 7.0), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_phi_never_changes_a_fidelity(n, angles, seed, data):
    # u3(t, p, l) = diag(1, e^{ip}) u3(t, 0, l): every factor's phase on the
    # left changes no magnitude of the spectrum, so no retained mass
    theta, phi, lam = angles
    k = data.draw(st.integers(1, 2**n))
    state = random_state(np.random.default_rng(seed), 2**n)
    with_phi = encode_fidelity((theta, phi, lam), state, k)
    assert abs(with_phi - encode_fidelity((theta, 0.0, lam), state, k)) < 1e-12


class TestRetainedMass:
    """The optimizer's evaluator: the top-k mass of one forward transform
    per angle triple, in batches of at most one TILE of spectra."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.floats(-7.0, 7.0), min_size=3, max_size=3),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_equals_compress_hybrid_fidelity(self, n, angles, seed, data):
        k = data.draw(st.integers(1, 2**n))
        state = random_state(np.random.default_rng(seed), 2**n)
        mass = gtt.encode._retained_mass(state, k, np.array([angles, angles[::-1]]))
        for a, m in zip((angles, angles[::-1]), mass):
            want = compress_hybrid(state, GTTOperator(u3(*a), n), k).fidelity
            assert abs(m - want) < 1e-12

    def test_above_tile_matches_axis_oracle(self):
        n, k = 17, 64
        state = random_state(np.random.default_rng(71), 2**n)
        angles = np.array([[0.4, 0.2, 1.0], [2.5, 0.0, math.pi]])
        for a, m in zip(angles, gtt.encode._retained_mass(state, k, angles)):
            power = np.abs(apply_by_axes(u3(*a), n, state)) ** 2
            assert abs(m - np.sort(power)[-k:].sum()) < 1e-12

    def test_batches_hold_at_most_one_tile(self, monkeypatch):
        n, G = 12, 40
        state = random_state(np.random.default_rng(73), 2**n)
        angles = np.column_stack([np.linspace(0, 3, G), np.zeros(G), np.full(G, math.pi)])
        sizes = []
        kernel = gtt.core._fast_apply

        def recorded(passes, x):
            y = kernel(passes, x)
            sizes.append(y.size)
            return y

        monkeypatch.setattr(gtt.core, "_fast_apply", recorded)
        mass = gtt.encode._retained_mass(state, 9, angles)
        assert max(sizes) <= TILE and sum(sizes) == G * 2**n
        for a, m in zip(angles, mass):
            assert abs(m - encode_fidelity(a, state, 9)) < 1e-12


def test_optimizer_builds_no_operator_and_batches_grids(monkeypatch):
    counts = {"operator": 0, "compress": 0, "kernel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gtt.encode, "GTTOperator", counted("operator", GTTOperator))
    monkeypatch.setattr(gtt.encode, "compress_hybrid", counted("compress", compress_hybrid))
    monkeypatch.setattr(gtt.core, "_fast_apply", counted("kernel", gtt.core._fast_apply))
    report = optimize_theta(builtin_signal("table2"), 4)
    assert counts["operator"] == 0 and counts["compress"] == 0
    # each of the 17 grid scans evaluates 33 angles in one kernel call; the
    # Brent steps and the Hadamard column take one call each
    assert 0 < counts["kernel"] <= report.optimizer_evals - 17 * 32 + 1
