"""Bad caller input ends in its documented GTTError, never in a TypeError,
an IndexError or a NaN result; values that gtt builds itself pass the checks
that caller input gets."""

import itertools
import math
import warnings

import numpy as np
import pytest

import gtt.core
from gtt import (
    builtin_signal,
    BadCutoff,
    BadK,
    BadSelection,
    BadShape,
    GTTOperator,
    IndexOutOfRange,
    LengthMismatch,
    NotNormalized,
    NotUnitary,
    SeriesExpansion,
    SparseSelection,
    compare_transforms,
    compress_fully_quantum,
    compress_hybrid,
    dft_matrix,
    discretize_midpoints,
    encode_fidelity,
    fidelity,
    filter_natural,
    gtt_apply,
    gtt_inverse_apply,
    hadamard,
    make_base_matrix,
    make_selection,
    optimize_theta,
    reconstruct_from_classical,
    series_coefficients,
    top_k_indices,
    u3,
)
from gtt.cli import main


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_series_coefficients_rejects_non_finite(bad):
    op = GTTOperator(hadamard(), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadShape):
            series_coefficients(op, [bad] + [1.0] * 7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_series_expansion_rejects_non_finite(bad):
    with pytest.raises(BadShape):
        SeriesExpansion(GTTOperator(hadamard(), 3), [bad] + [0.0] * 7)


def test_series_coefficients_near_float_limit():
    # the transform of the raw samples overflows, though C_0 = 1e308 exactly
    op = GTTOperator(hadamard(), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C = series_coefficients(op, np.full(8, 1e308)).coefficients
    assert np.all(np.isfinite(C))
    assert abs(C[0] - 1e308) < 1e-15 * 1e308 and np.max(np.abs(C[1:])) < 1e-15 * 1e308


def test_series_coefficient_past_float_limit_is_bad_shape():
    # every sample is finite, but C_0 = 1.77e308 * sqrt(2) is not
    W = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
    samples = 1.77e308 * np.array([1 + 1j, 1 - 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadShape):
            series_coefficients(GTTOperator(W, 1), samples)


@pytest.mark.parametrize("scale", [1e200, 1e-170], ids=["huge", "tiny"])
def test_discretize_midpoints_near_float_limits(scale):
    # squares of these samples leave the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = discretize_midpoints(lambda x: scale * (1.0 + x), 8)
        report = optimize_theta(v, 2, restarts=[0.5])
    expect = discretize_midpoints(lambda x: 1.0 + x, 8)
    assert np.max(np.abs(v - expect)) < 1e-15
    assert 0.0 < report.gtt_fidelity <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "f",
    [
        lambda x: math.nan,
        lambda x: math.nan if x < 0.2 else 0.0,
        lambda x: math.inf if x > 0.8 else 1.0,
    ],
    ids=["all-nan", "one-nan", "one-inf"],
)
def test_discretize_midpoints_rejects_non_finite(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadShape):
            discretize_midpoints(f, 8)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: encode_fidelity((0.5, 0.0, math.pi), s, 1),
        lambda s: optimize_theta(s, 1),
        lambda s: compare_transforms(s, 1),
        lambda s: compare_transforms(s, 1, params=(0.5, 0.0, math.pi)),
    ],
    ids=["encode_fidelity", "optimize_theta", "compare_transforms", "fixed_params"],
)
def test_empty_signal_is_bad_shape(call):
    with pytest.raises(BadShape):
        call(np.array([], dtype=np.complex128))


OP8 = GTTOperator(hadamard(), 3)
STATE8 = np.ones(8) / math.sqrt(8.0)
SPECTRUM8 = np.arange(1, 9) / np.linalg.norm(np.arange(1, 9))


def _reconstruct(indices, amplitudes):
    return reconstruct_from_classical(SparseSelection(indices, 1.0), amplitudes, OP8)


RAGGED = [[1.0], [1.0, 2.0]]
WORDS = ["a"] * 8
SELECTION = SparseSelection((0, 1), 1.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: make_selection([1.5], SPECTRUM8), BadSelection),
        (lambda: make_selection(np.array([1.5, 2.7]), SPECTRUM8), BadSelection),
        (lambda: make_selection([0.0, 1.0], SPECTRUM8), BadSelection),
        (lambda: make_selection([0], [np.nan] + [0.0] * 7), BadShape),
        (lambda: top_k_indices(np.ones((2, 4)), 2), BadShape),
        (lambda: top_k_indices([np.nan, 1.0, 2.0, 3.0], 2), BadShape),
        (
            lambda: compress_fully_quantum(STATE8, OP8, SparseSelection((0.0, 1.0), 1.0)),
            BadSelection,
        ),
        (lambda: _reconstruct((-1,), [1.0]), BadSelection),
        (lambda: _reconstruct((2, 2), [1.0, 1.0]), BadSelection),
        (lambda: _reconstruct((9,), [1.0]), BadSelection),
        (lambda: _reconstruct((1.5,), [1.0]), BadSelection),
        (lambda: _reconstruct(np.array([0, 2**63], dtype=np.uint64), [1.0, 0.0]), BadSelection),
        (
            lambda: compress_fully_quantum(
                STATE8, OP8, SparseSelection(np.array([0, 2**63], dtype=np.uint64), 1.0)
            ),
            BadSelection,
        ),
        (lambda: _reconstruct((1,), [[1.0]]), LengthMismatch),
        (lambda: _reconstruct((1,), 1.0), LengthMismatch),
        (lambda: _reconstruct((1,), [np.nan]), BadShape),
        (lambda: compress_hybrid(STATE8, OP8, 2.5), BadK),
        (lambda: filter_natural(STATE8, OP8, 2.5), BadCutoff),
        (lambda: GTTOperator(hadamard(), 3.5), BadShape),
        (lambda: filter_natural(STATE8, OP8, 2, lambda s: s * np.nan), BadShape),
        (lambda: GTTOperator(np.ones((2, 2)), 3), NotUnitary),
        (lambda: GTTOperator(np.ones((2, 3)), 3), BadShape),
        (lambda: GTTOperator(u3(math.inf, 0.0, 0.0), 3), BadShape),
        (lambda: dft_matrix(2.5), BadShape),
        (lambda: GTTOperator([[1, 0], [0]], 1), BadShape),
        (lambda: make_base_matrix(2, [[1, 0], [0]]), BadShape),
        (lambda: encode_fidelity((0.3, 0.0), builtin_signal("table2"), 4), BadShape),
        (lambda: encode_fidelity((0.3, 0.0, 1.0, 2.0), builtin_signal("table2"), 4), BadShape),
        (lambda: encode_fidelity(("a", 0, 1), builtin_signal("table2"), 4), BadShape),
        (lambda: encode_fidelity(((0.3,), 0, 1), builtin_signal("table2"), 4), BadShape),
        (lambda: encode_fidelity(0.3, builtin_signal("table2"), 4), BadShape),
        (lambda: compare_transforms(builtin_signal("table2"), 4, params=(0.3, 0.0)), BadShape),
        (lambda: compare_transforms(builtin_signal("table2"), 4, params=(1j, 0, 0)), BadShape),
        (lambda: optimize_theta(builtin_signal("table2"), 4, restarts=["a"]), BadShape),
        (lambda: optimize_theta(builtin_signal("table2"), 4, restarts=[[0.1, 0.2]]), BadShape),
        (lambda: optimize_theta(builtin_signal("table2"), 4, restarts=[100.0]), BadShape),
        (lambda: optimize_theta(builtin_signal("table2"), 4, restarts=[-10.0]), BadShape),
        (lambda: optimize_theta(builtin_signal("table2"), 4, restarts=[1e300]), BadShape),
        (lambda: builtin_signal("nope"), IndexOutOfRange),
        (lambda: gtt_apply(OP8, RAGGED), BadShape),
        (lambda: gtt_apply(OP8, WORDS), BadShape),
        (lambda: gtt_inverse_apply(OP8, WORDS), BadShape),
        (lambda: compress_hybrid(RAGGED, OP8, 2), BadShape),
        (lambda: compress_fully_quantum(WORDS, OP8, SELECTION), BadShape),
        (lambda: filter_natural(RAGGED, OP8, 2), BadShape),
        (lambda: reconstruct_from_classical(SELECTION, ["a", "b"], OP8), BadShape),
        (lambda: top_k_indices(RAGGED, 1), BadShape),
        (lambda: make_selection([0], WORDS), BadShape),
        (lambda: fidelity(RAGGED, [1.0, 0.0]), BadShape),
        (lambda: fidelity(STATE8, WORDS), BadShape),
        (lambda: encode_fidelity((0.5, 0.0, math.pi), RAGGED, 1), BadShape),
        (lambda: optimize_theta(WORDS, 4), BadShape),
        (lambda: series_coefficients(OP8, RAGGED), BadShape),
        (lambda: SeriesExpansion(OP8, WORDS), BadShape),
        (lambda: discretize_midpoints(lambda x: "a", 8), BadShape),
        (lambda: discretize_midpoints(lambda x: [x, 1.0], 8), BadShape),
        (lambda: filter_natural(STATE8, OP8, 2, lambda s: 1.0), LengthMismatch),
        (lambda: filter_natural(STATE8, OP8, 2, lambda s: "a"), BadShape),
        (lambda: compress_fully_quantum(STATE8, OP8, [0, 1]), BadSelection),
        (lambda: reconstruct_from_classical([0, 1], [1.0, 0.0], OP8), BadSelection),
    ],
    ids=[
        "make_selection-float",
        "make_selection-float-array",
        "make_selection-integral-floats",
        "make_selection-nan-mass",
        "top_k-matrix",
        "top_k-nan",
        "fully_quantum-float-indices",
        "reconstruct-negative",
        "reconstruct-repeated",
        "reconstruct-out-of-range",
        "reconstruct-float-index",
        "reconstruct-past-intp",
        "fully_quantum-past-intp",
        "reconstruct-matrix-amplitudes",
        "reconstruct-scalar-amplitude",
        "reconstruct-nan-amplitude",
        "compress_hybrid-float-k",
        "filter_natural-float-cutoff",
        "operator-float-power",
        "filter_natural-nan-hook",
        "operator-not-unitary",
        "operator-not-square",
        "operator-inf-angle",
        "dft_matrix-float-size",
        "operator-ragged-base",
        "make_base_matrix-ragged",
        "encode_fidelity-two-angles",
        "encode_fidelity-four-angles",
        "encode_fidelity-string-angle",
        "encode_fidelity-ragged-angles",
        "encode_fidelity-scalar-params",
        "fixed_params-two-angles",
        "fixed_params-complex-angle",
        "restarts-string",
        "restarts-nested",
        "restarts-above-2pi",
        "restarts-negative",
        "restarts-huge",
        "builtin_signal-unknown-name",
        "gtt_apply-ragged",
        "gtt_apply-words",
        "gtt_inverse_apply-words",
        "compress_hybrid-ragged",
        "fully_quantum-words",
        "filter_natural-ragged",
        "reconstruct-words",
        "top_k-ragged",
        "make_selection-words",
        "fidelity-ragged",
        "fidelity-words",
        "encode_fidelity-ragged",
        "optimize_theta-words",
        "series_coefficients-ragged",
        "series_expansion-words",
        "discretize_midpoints-words",
        "discretize_midpoints-pairs",
        "filter_natural-scalar-hook",
        "filter_natural-words-hook",
        "fully_quantum-list-selection",
        "reconstruct-list-selection",
    ],
)
def test_probe_raises(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


ANGLES = (-1e6, -7.5, 0.0, 0.3, math.pi, 1e6)


@pytest.mark.parametrize(
    "build",
    [
        lambda: [u3(*a) for a in itertools.product(ANGLES, repeat=3)],
        lambda: [hadamard()],
        lambda: [dft_matrix(b) for b in [*range(2, 65), 257]],
    ],
    ids=["u3", "hadamard", "dft_matrix"],
)
def test_constructors_are_read_only_unitary(build):
    for W in build():
        assert not W.flags.writeable
        make_base_matrix(W.shape[0], W)


@pytest.mark.parametrize(
    "build",
    [hadamard, lambda: u3(0.3, 0.2, 0.1), lambda: dft_matrix(3)],
    ids=["hadamard", "u3", "dft_matrix"],
)
def test_operator_from_constructor_checks_base_once(build, monkeypatch):
    calls = []
    check = gtt.core.make_base_matrix

    def counted(b, entries):
        calls.append(b)
        return check(b, entries)

    monkeypatch.setattr(gtt.core, "make_base_matrix", counted)
    GTTOperator(build(), 2)
    assert len(calls) == 1


ENCODE_ENTRIES = [
    lambda s, k: encode_fidelity((0.5, 0.0, math.pi), s, k),
    lambda s, k: optimize_theta(s, k, restarts=[0.5]),
    lambda s, k: compare_transforms(s, k),
    lambda s, k: compare_transforms(s, k, params=(0.5, 0.0, math.pi)),
]
ENCODE_IDS = ["encode_fidelity", "optimize_theta", "compare_transforms", "fixed_params"]
UNIT8 = np.ones(8) / math.sqrt(8.0)


@pytest.mark.parametrize("call", ENCODE_ENTRIES, ids=ENCODE_IDS)
@pytest.mark.parametrize(
    "signal, k, error",
    [
        (UNIT8.reshape(2, 4), 1, BadShape),
        (np.ones(6) / math.sqrt(6.0), 1, BadShape),
        (np.ones(1), 1, BadShape),
        (2 * UNIT8, 1, NotNormalized),
        (np.r_[np.nan, UNIT8[1:]], 1, NotNormalized),
        (np.r_[np.inf, UNIT8[1:]], 1, NotNormalized),
        (UNIT8, 0, BadK),
        (UNIT8, 9, BadK),
        (UNIT8, 2.5, BadK),
    ],
    ids=["matrix", "length-6", "length-1", "norm-2", "nan", "inf", "k-0", "k-9", "k-float"],
)
def test_encode_entries_check_signal_and_k(call, signal, k, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call(signal, k)


@pytest.mark.parametrize(
    "call",
    [
        lambda a: encode_fidelity(a, UNIT8, 2),
        lambda a: compare_transforms(UNIT8, 2, params=a),
        lambda a: optimize_theta(UNIT8, 2, restarts=[a[0]]),
    ],
    ids=["encode_fidelity", "fixed_params", "restart"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_encode_entries_reject_non_finite_angles(call, bad):
    with pytest.raises(BadShape):
        call((bad, 0.0, math.pi))


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_cli_rejects_non_finite_restart(token, tmp_path, capsys):
    out = str(tmp_path / "enc.json")
    rc = main(["encode", "--signal", "table2", "--k", "4", "--restarts", f"0.5,{token}",
               "--out", out])
    assert rc == 2
    assert "finite" in capsys.readouterr().err


def test_optimize_theta_rejects_empty_restarts():
    with pytest.raises(BadShape):
        optimize_theta(builtin_signal("table2"), 4, restarts=[])


@pytest.mark.parametrize("token", ["100", "-10", "1e300"])
def test_cli_rejects_restart_outside_domain(token, tmp_path, capsys):
    out = str(tmp_path / "enc.json")
    rc = main(["encode", "--signal", "table2", "--k", "4", "--restarts", token, "--out", out])
    assert rc == 2
    assert "[0, 2*pi]" in capsys.readouterr().err


def test_optimize_theta_accepts_domain_ends():
    report = optimize_theta(builtin_signal("table2"), 4, restarts=[0.0, 2 * math.pi])
    assert 0.0 <= report.optimal_params.theta <= 2 * math.pi
