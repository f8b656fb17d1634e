import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellpure import bell, ensemble, measures, qstate, twirl
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.twirl import (
    TWIRL_PIECE,
    TWIRL_PERMS,
    convergence_table,
    discrete_twirl,
    exact_twirl,
    sampled_twirl,
    trace_distance,
    twirl_labels,
)


class TestExactTwirl:
    def test_singlet(self):
        d = exact_twirl(bell.label_projector(BellLabel.PSI_MINUS))
        assert d.allclose([0, 0, 0, 1])

    def test_maximally_mixed(self):
        assert exact_twirl(np.eye(4) / 4).allclose([0.25] * 4)

    def test_depolarized_singlet_with_known_fidelity(self):
        # mix the singlet with white noise so the singlet overlap is 0.73
        p = (0.73 - 0.25) / 0.75
        rho = p * bell.label_projector(BellLabel.PSI_MINUS).mat + (1 - p) * np.eye(4) / 4
        rho = qstate.DensityMatrix(rho)
        assert abs(qstate.fidelity_singlet(rho) - 0.73) <= 1e-12
        assert exact_twirl(rho).allclose(measures.werner(0.73).p, tol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho = qstate.DensityMatrix(m / m.trace().real)
            once = exact_twirl(rho)
            twice = exact_twirl(bell.to_density(once))
            assert once.allclose(twice, tol=1e-12)

    def test_rejects_singlet_fidelity_beyond_round_off(self):
        with pytest.raises(ValueError, match=r"singlet fidelity 2\.\d* outside \[0, 1\]"):
            exact_twirl(2 * np.eye(4))

    def test_preserves_fidelity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g @ g.conj().T
            rho = qstate.DensityMatrix(m / m.trace().real)
            f_in = qstate.fidelity_singlet(rho)
            f_out = qstate.fidelity_singlet(bell.to_density(exact_twirl(rho)))
            assert abs(f_in - f_out) <= 1e-10


def _per_rotation_twirl(mat, n, seed, stream_id=0):
    """Reference: build every rotation u = r (x) r from the same draws as
    sampled_twirl, piece j's normals on a Philox built at counter words
    (0, j, 1, 0) of the stream's key, and sum u rho u-dagger one rotation at
    a time."""
    acc = np.zeros((4, 4), dtype=complex)
    for j, (lo, hi) in enumerate(ensemble.chunks(n, TWIRL_PIECE)):
        m = hi - lo
        words = np.array([0, j, 1, 0, seed, stream_id], dtype=np.uint64)
        q = np.random.Generator(np.random.Philox(counter=words[:4], key=words[4:])).normal(size=(m, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        u2 = np.empty((m, 2, 2), dtype=complex)
        u2[:, 0, 0] = q[:, 0] - 1j * q[:, 3]
        u2[:, 0, 1] = -q[:, 2] - 1j * q[:, 1]
        u2[:, 1, 0] = q[:, 2] - 1j * q[:, 1]
        u2[:, 1, 1] = q[:, 0] + 1j * q[:, 3]
        u4 = np.einsum("nab,ncd->nacbd", u2, u2).reshape(m, 4, 4)
        acc += np.einsum("nij,jk,nlk->il", u4, mat, u4.conj())
    return acc / n


def _random_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return qstate.DensityMatrix(m / m.trace().real)


class TestSampledTwirl:
    # the last two sit on either side of a piece boundary
    @pytest.mark.parametrize("n", [1, 7, TWIRL_PIECE, TWIRL_PIECE + 1])
    def test_matches_per_rotation_reference(self, n):
        rho = _random_state(np.random.default_rng(n))
        avg, report = sampled_twirl(rho, n, seed=17, stream_id=3)
        ref = _per_rotation_twirl(rho.mat, n, seed=17, stream_id=3)
        assert np.abs(avg.mat - ref).max() <= 1e-12
        assert report.n_samples == n

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
        n=st.integers(1, 500),
        seed=st.integers(0, 2**63),
    )
    def test_output_is_a_state_at_the_input_fidelity(self, entries, n, seed):
        g = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
        m = g @ g.conj().T
        tr = m.trace().real
        assume(tr > 1e-3)
        rho = qstate.DensityMatrix(m / tr)
        avg, report = sampled_twirl(rho, n, seed)
        assert np.abs(avg.mat - avg.mat.conj().T).max() <= 1e-12
        assert abs(avg.mat.trace().real - 1.0) <= 1e-12
        f_in = qstate.fidelity_singlet(rho)
        assert abs(report.fidelity_out - f_in) <= 1e-12
        assert abs(qstate.fidelity_singlet(avg) - f_in) <= 1e-12

    def test_werner_input_returned_unchanged(self):
        rho = bell.to_density(measures.werner(0.7))
        avg, report = sampled_twirl(rho, 100_000, seed=3)
        assert avg.allclose(rho, tol=1e-14)
        assert report.trace_distance_to_werner <= 1e-14

    def test_werner_input_invariant_sample_by_sample(self):
        rho = bell.to_density(measures.werner(0.6))
        avg, report = sampled_twirl(rho, 200, seed=21)
        assert report.trace_distance_to_werner <= 1e-12
        assert abs(report.fidelity_in - report.fidelity_out) <= 1e-12

    def test_deterministic_for_fixed_seed(self):
        rho = bell.label_projector(BellLabel.PHI_PLUS)
        a, ra = sampled_twirl(rho, 500, seed=5)
        b, rb = sampled_twirl(rho, 500, seed=5)
        assert np.array_equal(a.mat, b.mat)
        assert ra == rb

    def test_phi_plus_converges_toward_zero_fidelity_werner(self):
        rho = bell.label_projector(BellLabel.PHI_PLUS)
        _, report = sampled_twirl(rho, 10_000, seed=6)
        # fidelity_singlet(Phi+) = 0, so the target is the F=0 Werner state
        assert report.fidelity_in == 0.0
        assert report.trace_distance_to_werner < 0.05

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sampled_twirl(np.eye(4) / 4, 0, seed=0)

    @pytest.mark.parametrize("n", [10.5, 0.5, -1, math.nan, math.inf])
    def test_rejects_sample_counts_that_are_not_whole_numbers(self, n):
        with pytest.raises(ValueError, match=rf"n must be a whole number >= 1, got {n!r}$"):
            sampled_twirl(np.eye(4) / 4, n, seed=0)

    def test_whole_float_sample_count_runs_as_its_integer(self):
        rho = bell.to_density(BellDiagonal([0.1, 0.2, 0.3, 0.4]))
        a, ra = sampled_twirl(rho, 10.0, seed=4)
        b, rb = sampled_twirl(rho, 10, seed=4)
        assert np.array_equal(a.mat, b.mat) and ra == rb and type(ra.n_samples) is int

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 4097, TWIRL_PIECE])
    def test_ten_column_gram_expands_to_the_full_gram_bit_for_bit(self, m):
        # the kernel's layout: the 10 products in the rows of one contiguous
        # (10, m) piece buffer
        q = np.random.default_rng(m).normal(size=(m, 4))
        p10 = np.zeros((10, m))
        for r, (i, j) in enumerate(twirl._PAIRS):
            p10[r] = q[:, i] * q[:, j]
        g10 = p10 @ p10.T
        p = np.einsum("ni,nj->nij", q, q).reshape(m, 16)
        assert np.array_equal(g10[np.ix_(twirl._GRAM16, twirl._GRAM16)], p.T @ p), (
            "the 10x10 Gram, expanded, differs from the 16x16 p.T @ p: sampled_twirl's "
            "output bytes assume the BLAS sums each Gram entry in the same order in both"
        )


#: A state with complex coherences, far from Werner form.
_G = np.random.default_rng(8).normal(size=(4, 4)) + 1j * np.random.default_rng(9).normal(size=(4, 4))
_RHO = _G @ _G.conj().T / np.trace(_G @ _G.conj().T).real


class TestSampledTwirlPieces:
    """sampled_twirl runs pieces of TWIRL_PIECE rotations on
    ensemble.run_sharded's threads, each piece at its own position."""

    @staticmethod
    def _run(n):
        avg, report = sampled_twirl(_RHO, n, seed=14, stream_id=n % 5)
        return avg.mat.tobytes(), report

    def test_one_piece_starts_no_thread(self, started):
        for n in (1, TWIRL_PIECE):
            self._run(n)
        assert started == []

    def test_three_pieces_start_one_thread(self, started):
        before = threading.active_count()
        self._run(2 * TWIRL_PIECE + 1)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 14, 15, 22, 1001])
    def test_pieces_add_their_grams_in_piece_order(self, monkeypatch, n):
        # each piece's Gram from its own normals, summed in piece order: the
        # kernel's bytes, whichever of eight threads, swapping often, ran
        # which piece
        monkeypatch.setattr(twirl, "TWIRL_PIECE", 7)
        monkeypatch.setattr(ensemble, "DRAW_THREADS", 8)
        interval = sys.getswitchinterval()
        g10 = np.zeros((10, 10))
        for j, (lo, hi) in enumerate(ensemble.chunks(n, 7)):
            words = np.array([0, j, 1, 0, 14, n % 5], dtype=np.uint64)
            q = np.random.Generator(np.random.Philox(counter=words[:4], key=words[4:])).standard_normal((hi - lo, 4)).T
            q = q / np.sqrt(((q[0] ** 2 + q[1] ** 2) + q[2] ** 2) + q[3] ** 2)
            p10 = np.stack([q[i] * q[k] for i, k in twirl._PAIRS])
            g10 += p10 @ p10.T
        gram = g10[np.ix_(twirl._GRAM16, twirl._GRAM16)]
        avg = np.einsum("ab,aij,jk,blk->il", gram, twirl._K, _RHO, twirl._K.conj(), optimize=True) / n
        sys.setswitchinterval(1e-6)
        try:
            assert self._run(n)[0] == qstate.DensityMatrix(avg).mat.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_piece_error_is_raised_after_every_thread_ends(self, monkeypatch, started, within):
        make_placer = ensemble._placer

        def failing_placer(seed):
            place = make_placer(seed)

            def failing(stream_id, piece=0, stage=0):
                if piece == 3:
                    raise ValueError("draw failed")
                return place(stream_id, piece, stage)

            return failing

        monkeypatch.setattr(ensemble, "_placer", failing_placer)
        monkeypatch.setattr(twirl, "TWIRL_PIECE", 7)
        before = threading.active_count()
        exc = within(30, lambda: sampled_twirl(_RHO, 70, seed=2))
        assert isinstance(exc, ValueError) and str(exc) == "draw failed"
        assert threading.active_count() == before
        # the helper's thread and the twirl's second thread
        assert len(started) == 2 and not started[1].is_alive()


class TestConvergenceTable:
    def test_mean_distance_per_size(self):
        rho = bell.label_projector(BellLabel.PHI_PLUS)
        rows = convergence_table(rho, [10, 100.0], reps=2, seed=4)
        assert [n for n, _ in rows] == [10, 100]
        # reps substreams per size, numbered on across sizes
        d = [
            sampled_twirl(rho, n, 4, stream_id=sid)[1].trace_distance_to_werner
            for sid, n in enumerate([10, 10, 100, 100])
        ]
        assert rows[0][1] == (d[0] + d[1]) / 2
        assert rows[1][1] == (d[2] + d[3]) / 2

    @pytest.mark.parametrize("reps", [0, -1, 1.5, math.inf, math.nan])
    def test_rejects_reps_that_are_not_a_positive_whole_number(self, reps):
        with pytest.raises(ValueError, match=f"got {reps!r}$"):
            convergence_table(np.eye(4) / 4, [10], reps=reps)

    @pytest.mark.parametrize("size", [10.7, 0, 0.5, math.inf, math.nan])
    def test_rejects_sizes_that_are_not_positive_whole_numbers(self, size):
        with pytest.raises(ValueError, match=f"got {size!r}$"):
            convergence_table(np.eye(4) / 4, [100, size], reps=1)


class TestDiscreteTwirl:
    def test_equalizes_triplets_analytically(self):
        out = discrete_twirl(BellDiagonal([0.7, 0.3, 0.0, 0.0]))
        assert out.allclose([1 / 3, 1 / 3, 1 / 3, 0.0])

    def test_werner_fixed_point(self):
        w = measures.werner(0.81)
        assert discrete_twirl(w).allclose(w)

    def test_singlet_point_mass_fixed(self):
        d = BellDiagonal([0, 0, 0, 1])
        assert discrete_twirl(d).allclose(d)

    def test_preserves_singlet_weight_and_triplet_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.random(4)
            v /= v.sum()
            d = BellDiagonal(v)
            out = discrete_twirl(d)
            assert abs(out.fidelity - d.fidelity) <= 1e-15
            assert abs(out.p[:3].sum() - d.p[:3].sum()) <= 1e-12

    def test_sampled_form_averages_to_analytic(self):
        # twirl_labels is the sampled form: twirled label frequencies follow
        # the analytic average
        d = BellDiagonal([0.5, 0.3, 0.1, 0.1])
        n = 100_000
        labels = twirl_labels(ensemble._sample_labels(d, n, 31, 0, 1), ensemble.stream(31))
        freq = np.bincount(labels, minlength=4) / n
        expected = discrete_twirl(d).p
        sigma = np.sqrt(expected * (1.0 - expected) / n)
        assert (np.abs(freq - expected) <= 4 * sigma).all()


class TestTwirlPerms:
    def test_every_permutation_fixes_the_singlet(self):
        assert (TWIRL_PERMS[:, 3] == 3).all()

    def test_closed_under_composition(self):
        perms = {tuple(p) for p in TWIRL_PERMS}
        for a in TWIRL_PERMS:
            for b in TWIRL_PERMS:
                assert tuple(a[b]) in perms

    def test_contains_the_three_basic_swaps_and_identity(self):
        perms = {tuple(p) for p in TWIRL_PERMS}
        assert (0, 1, 2, 3) in perms
        assert (2, 1, 0, 3) in perms  # x
        assert (0, 2, 1, 3) in perms  # y
        assert (1, 0, 2, 3) in perms  # z

    def test_twirl_labels_preserves_singlet_and_class_counts(self):
        labels = ensemble._sample_labels(measures.werner(0.7), 10_000, 99, 0, 1)
        out = twirl_labels(labels, ensemble.stream(99))
        assert ((labels == 3) == (out == 3)).all()


class TestTraceDistance:
    def test_zero_for_identical(self):
        rho = bell.to_density(measures.werner(0.7))
        assert trace_distance(rho, rho.mat) <= 1e-15

    def test_known_diagonal_value(self):
        a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        b = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        assert abs(trace_distance(a, b) - 0.5) <= 1e-12

    def test_symmetry(self):
        a = bell.to_density(measures.werner(0.9)).mat
        b = np.eye(4) / 4
        assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-14
