"""Property-based invariants over random bases, states, and sizes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gtt import (
    BadSelection,
    GTTOperator,
    compress_hybrid,
    digit_counts,
    filter_natural,
    gtt_apply,
    gtt_element,
    gtt_inverse_apply,
    make_base_matrix,
    make_selection,
    top_k_indices,
    u3,
)

from oracles import kron_power, random_unitary


def operator_strategy():
    return st.tuples(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]),
        st.integers(0, 2**32 - 1),
    )


def build_op(shape, seed):
    b, n = shape
    rng = np.random.default_rng(seed)
    W = make_base_matrix(b, random_unitary(rng, b))
    return GTTOperator(W, n), rng


@given(operator_strategy())
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence(params):
    op, rng = build_op(*params)
    x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
    dense = kron_power(op.base, op.n)
    assert np.max(np.abs(gtt_apply(op, x) - dense @ x)) < 1e-12


@given(operator_strategy())
@settings(max_examples=40, deadline=None)
def test_round_trip_and_norm(params):
    op, rng = build_op(*params)
    x = rng.standard_normal(op.N) + 1j * rng.standard_normal(op.N)
    y = gtt_apply(op, x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12 * max(1, op.N)
    assert np.max(np.abs(gtt_inverse_apply(op, y) - x)) < 1e-11


@given(operator_strategy())
@settings(max_examples=25, deadline=None)
def test_element_formula(params):
    op, rng = build_op(*params)
    dense = kron_power(op.base, op.n)
    p = int(rng.integers(op.N))
    q = int(rng.integers(op.N))
    assert abs(gtt_element(op, p, q) - dense[p, q]) < 1e-12
    assert digit_counts(op, p, q).sum() == op.n


@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
@settings(max_examples=30, deadline=None)
def test_fidelity_monotone_in_k(seed, k):
    rng = np.random.default_rng(seed)
    op = GTTOperator(u3(rng.uniform(0, math.pi), 0.0, math.pi), 4)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x /= np.linalg.norm(x)
    fids = [compress_hybrid(x, op, kk).fidelity for kk in range(1, 17)]
    assert all(fids[i] <= fids[i + 1] + 1e-12 for i in range(15))
    assert abs(compress_hybrid(x, op, k).fidelity - fids[k - 1]) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
@settings(max_examples=30, deadline=None)
def test_filter_linearity(seed, cutoff):
    rng = np.random.default_rng(seed)
    op = GTTOperator(u3(rng.uniform(0, math.pi), 0.0, math.pi), 4)
    x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x /= np.linalg.norm(x)
    out = filter_natural(x, op, cutoff)
    assert np.max(np.abs(out.low_branch + out.high_branch - x)) < 1e-12
    energy = np.linalg.norm(out.low_branch) ** 2 + np.linalg.norm(out.high_branch) ** 2
    assert abs(energy - 1.0) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_truncation_fidelity_equals_mass(seed):
    rng = np.random.default_rng(seed)
    op = GTTOperator(u3(rng.uniform(0, math.pi), rng.uniform(0, math.pi), 1.0), 3)
    x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    x /= np.linalg.norm(x)
    k = int(rng.integers(1, 9))
    r = compress_hybrid(x, op, k)
    assert abs(r.fidelity - r.selection.mass) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_top_k_ties_independent_of_rounding(seed, N):
    # exact ties in magnitude, blurred in the last bits by the random phases
    # and then by 1e-15 relative noise, must still break toward smaller index
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 4, N)
    spectrum = levels * np.exp(2j * np.pi * rng.random(N))
    noisy = spectrum * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, N))
    k = int(rng.integers(1, N + 1))
    expected = tuple(sorted(sorted(range(N), key=lambda i: (-levels[i], i))[:k]))
    assert top_k_indices(spectrum, k).indices == expected
    assert top_k_indices(noisy, k).indices == expected


@given(st.lists(st.one_of(st.integers(-2, 17), st.integers(), st.floats()), max_size=12))
@settings(max_examples=200, deadline=None)
def test_make_selection_never_truncates(indices):
    spectrum = np.ones(16) / 4.0
    try:
        sel = make_selection(indices, spectrum)
    except BadSelection:
        return
    assert all(type(i) is int for i in indices)
    assert sel.indices == tuple(sorted(set(indices)))
    assert len(sel.indices) == len(indices)
