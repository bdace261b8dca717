"""Built-in named test signals.

Three 8-component complex states ("s1", "s2", "s3") that are nearly sparse
under the u3(pi/4, pi/3, pi/6) tensor-power basis, and "table2", the
midpoint discretization of a perturbed degree-7 polynomial on [0, 1] at
N = 16 points.  All are returned normalized to unit norm.
"""

from __future__ import annotations

import math

import numpy as np

from .encode import discretize_midpoints
from .errors import IndexOutOfRange
from .protocols import _normalized

_S1 = [
    0.693 - 0.048j, -0.373 + 0.083j, -0.373 + 0.083j, -0.258 - 0.107j,
    -0.239 + 0.161j, 0.117 - 0.107j, 0.117 - 0.107j, 0.115 - 0.015j,
]

_S2 = [
    0.706 - 0.076j, -0.371 + 0.096j, -0.371 + 0.003j, -0.241 - 0.078j,
    -0.238 + 0.173j, 0.113 - 0.111j, 0.133 - 0.078j, 0.102 - 0.022j,
]

_S3 = [
    0.718 - 0.101j, -0.370 + 0.108j, -0.370 + 0.015j, -0.242 - 0.082j,
    -0.237 + 0.101j, 0.128 - 0.085j, 0.147 - 0.052j, 0.091 - 0.028j,
]


_STATES = {"s1": _S1, "s2": _S2, "s3": _S3}

# the names builtin_signal accepts
SIGNAL_NAMES = (*_STATES, "table2")


def perturbed_polynomial(x: float) -> float:
    """Degree-7 polynomial with small sinusoidal and exponential terms."""
    poly = (
        -978.7 * x**7 + 3677.0 * x**6 - 5575.0 * x**5 + 4366.0 * x**4
        - 1875.0 * x**3 + 431.6 * x**2 - 47.57 * x + 1.886
    )
    return poly + 0.1 * math.sin(0.1 * x) - 0.01 * math.exp(-x)


def builtin_signal(name: str) -> np.ndarray:
    """Return a named unit-norm signal: "s1", "s2", "s3", or "table2"."""
    key = name.strip().lower()
    if key in _STATES:
        return _normalized(_STATES[key])
    if key == "table2":
        return discretize_midpoints(perturbed_polynomial, 16)
    raise IndexOutOfRange(f"unknown built-in signal {name!r}")
