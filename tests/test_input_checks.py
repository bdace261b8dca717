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
    LengthMismatch,
    NotNormalized,
    NotUnitary,
    SparseSelection,
    compare_transforms,
    compress_fully_quantum,
    compress_hybrid,
    dft_matrix,
    discretize_midpoints,
    encode_fidelity,
    filter_natural,
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
