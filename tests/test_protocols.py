import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtt import (
    BadCutoff,
    BadK,
    BadSelection,
    EmptySelection,
    GTTOperator,
    LengthMismatch,
    NotNormalized,
    SparseSelection,
    builtin_signal,
    compress_fully_quantum,
    compress_hybrid,
    dft_matrix,
    fidelity,
    filter_natural,
    gtt_apply,
    hadamard,
    make_base_matrix,
    make_selection,
    reconstruct_from_classical,
    top_k_indices,
    u3,
)
from gtt.protocols import TIE_RTOL

from oracles import compress_reference, flag_and_transfer, kron_power, random_unitary

OP414 = GTTOperator(u3(math.pi / 4, math.pi / 3, math.pi / 6), 3)


def random_state(rng, N):
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return v / np.linalg.norm(v)


class TestFidelity:
    def test_identical(self):
        v = random_state(np.random.default_rng(1), 8)
        assert abs(fidelity(v, v) - 1.0) < 1e-12

    def test_orthogonal(self):
        e0, e1 = np.eye(4)[0], np.eye(4)[1]
        assert fidelity(e0, e1) < 1e-12

    def test_half_overlap(self):
        e0 = np.eye(2)[0]
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(fidelity(e0, plus) - 0.5) < 1e-12

    def test_global_phase_invariant(self):
        v = random_state(np.random.default_rng(2), 8)
        assert abs(fidelity(v, np.exp(0.7j) * v) - 1.0) < 1e-12

    def test_requires_unit_norm(self):
        with pytest.raises(NotNormalized):
            fidelity(np.ones(2), np.ones(2) / math.sqrt(2.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            fidelity(np.eye(2)[0], np.eye(4)[0])


class TestTopK:
    def test_s1_selection(self):
        spectrum = gtt_apply(OP414, builtin_signal("s1"))
        sel = top_k_indices(spectrum, 2)
        assert sel.indices == (0, 3)
        assert abs(sel.mass - 1.0) < 5e-3

    def test_tie_break_smaller_index(self):
        sel = top_k_indices(np.ones(6) / math.sqrt(6.0), 3)
        assert sel.indices == (0, 1, 2)

    def test_entry_at_rounded_tie_bound_is_kept(self):
        # 1 + TIE_RTOL rounds up, so an entry equal to it lies just past the
        # tied band: it is larger than the k-th, and both slots fill
        top = 1.0 + TIE_RTOL
        assert Fraction(top) > 1 + Fraction(TIE_RTOL)
        sel = top_k_indices([top, 1.0], 2)
        assert sel.indices == (0, 1)
        assert sel.mass == top**2 + 1.0

    def test_sorted_ascending(self):
        sel = top_k_indices(np.array([0.1, 0.9, 0.2, 0.8]), 2)
        assert sel.indices == (1, 3)

    def test_bad_k(self):
        with pytest.raises(BadK):
            top_k_indices(np.ones(4), 0)
        with pytest.raises(BadK):
            top_k_indices(np.ones(4), 5)

    def test_mass_and_normalizer(self):
        sel = top_k_indices(np.array([0.6, 0.8, 0.0]), 1)
        assert abs(sel.mass - 0.64) < 1e-12
        assert abs(sel.normalizer - 0.8) < 1e-12


class TestMakeSelection:
    SPECTRUM = np.arange(1, 9) / np.linalg.norm(np.arange(1, 9))

    @pytest.mark.parametrize(
        "indices",
        [
            [1, 3, 1],
            [-1, 2],
            [2, 8],
            [],
            np.array([], dtype=np.intp),
            [[0, 1], [2, 3]],
            3,
            [2**70],
            [-(2**70)],
            np.array([2**70]),
        ],
    )
    def test_bad_indices_rejected(self, indices):
        with pytest.raises(BadSelection):
            make_selection(indices, self.SPECTRUM)

    def test_unsorted_input_sorted(self):
        sel = make_selection([5, 0, 3], self.SPECTRUM)
        assert sel.indices == (0, 3, 5)
        assert all(type(i) is int for i in sel.indices)
        assert abs(sel.mass - np.sum(self.SPECTRUM[[0, 3, 5]] ** 2)) < 1e-15

    def test_list_and_array_agree(self):
        indices = [6, 2, 7]
        assert make_selection(indices, self.SPECTRUM) == make_selection(
            np.array(indices), self.SPECTRUM
        )

    def test_set_and_generator_accepted(self):
        expected = make_selection([2, 6, 7], self.SPECTRUM)
        assert make_selection({6, 2, 7}, self.SPECTRUM) == expected
        assert make_selection((i for i in (7, 2, 6)), self.SPECTRUM) == expected

    def test_indices_checked_once(self, monkeypatch):
        runs = []
        check = SparseSelection.__post_init__

        def counted(self):
            runs.append(1)
            check(self)

        monkeypatch.setattr(SparseSelection, "__post_init__", counted)
        sel = make_selection([5, 0, 3], self.SPECTRUM)
        assert len(runs) == 1
        assert sel == SparseSelection((0, 3, 5), float(np.sum(self.SPECTRUM[[0, 3, 5]] ** 2)))


class TestSparseSelection:
    @pytest.mark.parametrize(
        "indices",
        [(), (3, 1), (2, 2), (0.0, 1.0), (-1, 2), ((0, 1), (2, 3)), (True,), ("1",)],
    )
    def test_bad_indices_rejected_when_built(self, indices):
        with pytest.raises(BadSelection):
            SparseSelection(indices, 1.0)

    def test_indices_kept_as_ints(self):
        raw = np.array([1, 4, 6], dtype=np.int32)
        sel = SparseSelection(raw, 0.5)
        raw[0] = 0  # the caller's array is not shared
        assert sel.indices == (1, 4, 6) and all(type(i) is int for i in sel.indices)
        assert sel == SparseSelection((1, 4, 6), 0.5)
        assert hash(sel) == hash(SparseSelection([1, 4, 6], 0.5))
        assert repr(sel) == "SparseSelection(indices=(1, 4, 6), mass=0.5)"
        assert sel._idx.dtype == np.intp and not sel._idx.flags.writeable


class TestCompressHybrid:
    def test_s1_near_perfect(self):
        r = compress_hybrid(builtin_signal("s1"), OP414, 2)
        assert abs(r.fidelity - 1.0) < 5e-3
        assert r.selection.indices == (0, 3)

    def test_full_k_lossless(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 8)
        r = compress_hybrid(state, OP414, 8)
        assert abs(r.fidelity - 1.0) < 1e-12
        assert r.discarded_norm < 1e-12

    def test_s1_hadamard_comparison(self):
        r = compress_hybrid(builtin_signal("s1"), GTTOperator(hadamard(), 3), 2)
        assert abs(r.fidelity - 0.5685) < 5e-3
        assert abs(r.discarded_norm - 0.4315) < 5e-3

    def test_compressed_unit_norm(self):
        rng = np.random.default_rng(6)
        r = compress_hybrid(random_state(rng, 16), GTTOperator(hadamard(), 4), 5)
        assert abs(np.linalg.norm(r.compressed) - 1.0) < 1e-12

    def test_fidelity_is_recomputable(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 8)
        r = compress_hybrid(state, OP414, 3)
        assert abs(r.fidelity - abs(np.vdot(state, r.reconstructed)) ** 2) < 1e-12

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(10)
        W = make_base_matrix(2, random_unitary(rng, 2))
        op = GTTOperator(W, 4)
        G = kron_power(W, 4)
        state = random_state(rng, 16)
        idx, fid, mass = compress_reference(state, G, 5)
        r = compress_hybrid(state, op, 5)
        assert list(r.selection.indices) == idx
        assert abs(r.fidelity - fid) < 1e-12
        assert abs(r.discarded_norm - (1.0 - mass)) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            compress_hybrid(np.ones(8), OP414, 2)


class TestFullyQuantum:
    def test_matches_hybrid(self):
        rng = np.random.default_rng(12)
        state = random_state(rng, 8)
        hybrid = compress_hybrid(state, OP414, 3)
        outcome = compress_fully_quantum(state, OP414, hybrid.selection)
        assert np.max(np.abs(outcome.transmitted - hybrid.compressed)) < 1e-12
        assert np.max(np.abs(outcome.reconstructed - hybrid.reconstructed)) < 1e-12
        assert abs(outcome.success_probability - hybrid.selection.mass) < 1e-12

    def test_rank_bijection_order(self):
        # indices {2, 5} map to compressed slots 0 and 1 in ascending order
        rng = np.random.default_rng(14)
        state = random_state(rng, 8)
        spectrum = gtt_apply(OP414, state)
        sel = make_selection([2, 5], spectrum)
        outcome = compress_fully_quantum(state, OP414, sel)
        expect = spectrum[[2, 5]] / sel.normalizer
        assert np.max(np.abs(outcome.transmitted - expect)) < 1e-12

    def test_full_selection_identity(self):
        rng = np.random.default_rng(16)
        state = random_state(rng, 8)
        sel = make_selection(range(8), gtt_apply(OP414, state))
        outcome = compress_fully_quantum(state, OP414, sel)
        assert abs(outcome.success_probability - 1.0) < 1e-12
        assert np.max(np.abs(outcome.reconstructed - state)) < 1e-12

    def test_zero_weight_selection_is_empty(self):
        # (1, 1, 1, 1)/2 under hadamard n = 2 has spectrum e_0
        state = np.full(4, 0.5)
        op = GTTOperator(hadamard(), 2)
        sel = make_selection([1], gtt_apply(op, state))
        assert sel.mass == 0.0
        with pytest.raises(EmptySelection):
            compress_fully_quantum(state, op, sel)

    def test_bad_selection(self):
        state = builtin_signal("s1")
        sel = make_selection([0, 3], gtt_apply(OP414, state))
        bad = GTTOperator(hadamard(), 1)
        with pytest.raises((BadSelection, LengthMismatch)):
            compress_fully_quantum(state, bad, sel)


class TestFullyQuantumSupport:
    U3 = u3(math.pi / 4, math.pi / 3, math.pi / 6)

    @pytest.mark.parametrize(
        "W, n, k", [(U3, 14, 1024), (dft_matrix(3), 8, 410)], ids=["u3-2^14", "dft3-3^8"]
    )
    def test_matches_hybrid_at_benchmark_scale(self, W, n, k):
        op = GTTOperator(W, n)
        state = random_state(np.random.default_rng(20), op.N)
        hybrid = compress_hybrid(state, op, k)
        outcome = compress_fully_quantum(state, op, hybrid.selection)
        assert np.max(np.abs(outcome.transmitted - hybrid.compressed)) < 1e-12
        assert np.max(np.abs(outcome.reconstructed - hybrid.reconstructed)) < 1e-12
        assert abs(outcome.success_probability - hybrid.selection.mass) < 1e-12

    def test_selection_with_index_zero(self):
        # the flagged |0, 1, 0> entry is already in slot 0 of the transfer target
        rng = np.random.default_rng(22)
        state = random_state(rng, 8)
        spectrum = gtt_apply(OP414, state)
        sel = make_selection([0, 4, 6], spectrum)
        outcome = compress_fully_quantum(state, OP414, sel)
        expect = spectrum[[0, 4, 6]] / sel.normalizer
        assert np.max(np.abs(outcome.transmitted - expect)) < 1e-12
        assert abs(outcome.success_probability - sel.mass) < 1e-12

    @pytest.mark.parametrize("indices", [(), (3, 1), (2, 2), (0.0, 1.0), (-1, 2)])
    def test_malformed_selection(self, indices):
        with pytest.raises(BadSelection):
            compress_fully_quantum(builtin_signal("s1"), OP414, SparseSelection(indices, 1.0))

    def test_memory_linear_in_n(self):
        op = GTTOperator(self.U3, 14)
        state = random_state(np.random.default_rng(24), op.N)
        sel = top_k_indices(gtt_apply(op, state), op.N // 16)
        tracemalloc.start()
        try:
            compress_fully_quantum(state, op, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense (N, 2, k) register alone would take 512 MB here
        assert peak < 16 * op.N * 16

    def test_memory_holds_only_flagged_branch(self):
        # the spectrum, the decode spectrum and its inverse take 48 N bytes;
        # an N-length coordinate register on top of them would cross 72 N
        op = GTTOperator(self.U3, 14)
        state = random_state(np.random.default_rng(26), op.N)
        sel = top_k_indices(gtt_apply(op, state), op.N // 16)
        tracemalloc.start()
        try:
            compress_fully_quantum(state, op, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * op.N


class TestFlagAndTransferCircuit:
    """compress_fully_quantum against the dense joint statevector, N <= 16."""

    @staticmethod
    def check(W, n, state, indices):
        op = GTTOperator(W, n)
        G = kron_power(W, n)
        weight, branch = flag_and_transfer(G @ state, indices)
        sel = make_selection(indices, gtt_apply(op, state))
        outcome = compress_fully_quantum(state, op, sel)
        assert abs(outcome.success_probability - weight) < 1e-12
        assert np.max(np.abs(outcome.transmitted - branch[0])) < 1e-12
        # every flagged amplitude left the original register
        assert np.max(np.abs(branch[1:])) < 1e-12
        decoded = np.zeros(op.N, dtype=np.complex128)
        decoded[indices] = branch[0]
        assert np.max(np.abs(outcome.reconstructed - G.conj().T @ decoded)) < 1e-12

    @pytest.mark.parametrize(
        "n, indices",
        [(1, [0]), (1, [1]), (3, [0]), (3, [6]), (3, [0, 4, 6]), (2, [0, 1, 2, 3]),
         (4, list(range(16))), (4, [1, 7, 15]), (4, [0, 15])],
        ids=["k1-zero-n1", "k1-n1", "k1-zero", "k1", "with-zero", "k=N=4", "k=N=16",
             "no-zero", "ends"],
    )
    def test_edge_selections(self, n, indices):
        rng = np.random.default_rng(30 + n + len(indices))
        W = u3(*rng.uniform(0.0, 2 * math.pi, 3))
        self.check(W, n, random_state(rng, 2**n), indices)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_selections(self, seed, n):
        rng = np.random.default_rng(seed)
        W = u3(*rng.uniform(0.0, 2 * math.pi, 3))
        N = 2**n
        indices = sorted(rng.choice(N, int(rng.integers(1, N + 1)), replace=False).tolist())
        self.check(W, n, random_state(rng, N), indices)


class TestReconstructFromClassical:
    def test_worked_decode(self):
        compressed = np.array([0.914, 0.406])
        compressed = compressed / np.linalg.norm(compressed)
        sel = make_selection([0, 3], gtt_apply(OP414, builtin_signal("s1")))
        rec = reconstruct_from_classical(sel, compressed, OP414)
        assert np.max(np.abs(rec - builtin_signal("s1"))) < 5e-3

    def test_consistent_with_hybrid(self):
        rng = np.random.default_rng(18)
        state = random_state(rng, 16)
        op = GTTOperator(u3(0.6, 0.0, math.pi), 4)
        r = compress_hybrid(state, op, 6)
        rec = reconstruct_from_classical(r.selection, r.compressed, op)
        assert np.max(np.abs(rec - r.reconstructed)) < 1e-12

    def test_length_check(self):
        sel = make_selection([0, 3], np.ones(8) / math.sqrt(8.0))
        with pytest.raises(LengthMismatch):
            reconstruct_from_classical(sel, np.ones(3), OP414)


class TestFilter:
    def setup_method(self):
        self.op = GTTOperator(u3(math.pi / 4, 0.0, math.pi), 4)
        raw = np.array(
            [0.9, 0.7, 0.5, 0.3, 0.1, -0.1, -0.3, -0.5,
             -0.4, -0.2, 0.0, 0.2, 0.3, 0.1, -0.1, 0.0]
        )
        self.state = raw / np.linalg.norm(raw)

    def test_worked_example_branches(self):
        out = filter_natural(self.state, self.op, 4)
        low = [0.3931, 0.2818, 0.1704, 0.0835, 0.1628, 0.1167, 0.0706, 0.0346,
               0.1628, 0.1167, 0.0706, 0.0346, 0.0675, 0.0483, 0.0292, 0.0143]
        high = [0.1940, 0.1749, 0.1557, 0.1122, -0.0976, -0.1819, -0.2663,
                -0.3608, -0.4238, -0.2472, -0.0706, 0.0959, 0.1282, 0.0169,
                -0.0945, -0.0143]
        assert np.max(np.abs(out.low_branch - low)) < 1e-3
        assert np.max(np.abs(out.high_branch - high)) < 1e-3

    def test_band_support(self):
        out = filter_natural(self.state, self.op, 4)
        relow = gtt_apply(self.op, out.low_branch)
        rehigh = gtt_apply(self.op, out.high_branch)
        assert np.max(np.abs(relow[4:])) < 1e-12
        assert np.max(np.abs(rehigh[:4])) < 1e-12

    def test_energy_split_and_linearity(self):
        out = filter_natural(self.state, self.op, 4)
        total = np.linalg.norm(out.low_branch) ** 2 + np.linalg.norm(out.high_branch) ** 2
        assert abs(total - 1.0) < 1e-12
        assert np.max(np.abs(out.low_branch + out.high_branch - self.state)) < 1e-12

    def test_pass_through(self):
        out = filter_natural(self.state, self.op, 16)
        assert np.max(np.abs(out.low_branch - self.state)) < 1e-12
        assert np.max(np.abs(out.high_branch)) < 1e-12

    def test_bad_cutoff(self):
        with pytest.raises(BadCutoff):
            filter_natural(self.state, self.op, 0)
        with pytest.raises(BadCutoff):
            filter_natural(self.state, self.op, 17)

    def test_spectrum_hook(self):
        out = filter_natural(
            self.state, self.op, 4, spectrum_hook=lambda s: np.zeros_like(s)
        )
        assert np.max(np.abs(out.low_branch)) < 1e-12
        assert np.max(np.abs(out.high_branch)) < 1e-12

    def test_hook_array_kept_by_caller(self):
        held = gtt_apply(self.op, self.state) * np.exp(0.3j)
        before = held.copy()
        out = filter_natural(self.state, self.op, 4, spectrum_hook=lambda s: held)
        assert np.array_equal(held, before)
        assert np.array_equal(out.low_spectrum + out.high_spectrum, held)
        assert np.array_equal(out.low_spectrum[:4], held[:4])
        assert np.array_equal(out.high_spectrum[4:], held[4:])
