"""Bad samples, function values and signals end in BadShape, not NaN."""

import math
import warnings

import numpy as np
import pytest

from gtt import (
    BadShape,
    GTTOperator,
    compare_transforms,
    discretize_midpoints,
    encode_fidelity,
    hadamard,
    optimize_theta,
    series_coefficients,
)


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
