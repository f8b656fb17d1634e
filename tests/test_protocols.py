import itertools
import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellpure import bell, ensemble, measures, protocols, qstate, twirl
from bellpure.bell import BellDiagonal, BellLabel, PauliAxis
from bellpure.measures import NotDistillableError, recurrence_formula, recurrence_trajectory
from bellpure.protocols import (
    breeding_mc,
    breeding_trials,
    density_matrix_oracle_step,
    parity_bound_check,
    recurrence_mc,
    recurrence_step_exact,
    variable_block_mc,
)


def random_bell_diagonal(rng) -> BellDiagonal:
    v = rng.random(4) + 1e-3
    return BellDiagonal(v / v.sum())


# The oracle step's operators in dense form, as the step was written before its
# gathers: the y rotation of one pair and of both pairs, and the projector onto
# parallel z spins of the target pair. Each is its own adjoint.
U_Y = np.kron(qstate.SIGMA_Y, qstate.ID2)
U_Y2 = np.kron(U_Y, U_Y)
TARGET_PARALLEL = np.kron(np.eye(4), np.diag([1.0, 0.0, 0.0, 1.0])).astype(complex)


def dense_select(rho):
    """The y rotation of both pairs, the bilateral controlled-NOT and the
    parallel-target projector, each applied as U @ rho @ U."""
    rho = U_Y2 @ rho @ U_Y2
    rho = bell.BXOR_UNITARY @ rho @ bell.BXOR_UNITARY
    return TARGET_PARALLEL @ rho @ TARGET_PARALLEL


def dense_oracle_step(m1, m2):
    """Reference for density_matrix_oracle_step: its dense form, on checked
    density matrices."""
    a, b = bell.to_density(m1).mat, bell.to_density(m2).mat
    sel = dense_select((a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16))  # np.kron(a, b)
    p_success = float(np.trace(sel).real)
    if p_success < sys.float_info.min:
        return protocols.RecurrenceOutcome(None, 0.0, None)
    src = np.einsum("ikjk->ij", (sel / p_success).reshape(4, 4, 4, 4))
    raw = BellDiagonal(bell.bell_diagonal_part(U_Y @ src @ U_Y))
    return protocols.RecurrenceOutcome(twirl.discrete_twirl(raw), p_success, raw)


def _step_bytes(out):
    """p_success, post_state.p and post_state_raw.p of a step, as bytes."""
    return [out.p_success.hex()] + [
        None if d is None else d.p.tobytes() for d in (out.post_state, out.post_state_raw)
    ]


@st.composite
def accepted_bell_diagonals(draw):
    """BellDiagonals that the constructor accepts, with zero and subnormal
    weights, and with one normalized weight moved by about SUM_TOL either way."""
    w = draw(st.lists(
        st.one_of(st.just(0.0), st.just(5e-324), st.floats(5e-324, 1e-300), st.floats(0.0, 1.0)),
        min_size=4,
        max_size=4,
    ))
    assume(sum(w) > 0.0)
    p = [x / sum(w) for x in w]
    p[draw(st.integers(0, 3))] += draw(st.one_of(
        st.sampled_from([0.0, 1e-11, 0.999e-11, 1.001e-11]).flatmap(lambda x: st.sampled_from([x, -x])),
        st.floats(-2e-11, 2e-11),
    ))
    try:
        return BellDiagonal(p)
    except ValueError:
        assume(False)


class TestRecurrenceFormula:
    def test_perfect_input_fixed(self):
        assert recurrence_formula(1.0) == (1.0, 1.0)

    def test_half_is_fixed_with_known_success_probability(self):
        out, p = recurrence_formula(0.5)
        assert out == 0.5
        assert abs(p - 5.0 / 9.0) <= 1e-15

    def test_quarter_fixed_point(self):
        out, _ = recurrence_formula(0.25)
        assert out == 0.25

    def test_value_at_07(self):
        out, p = recurrence_formula(0.7)
        assert abs(out - 0.7352941176470588) <= 1e-15
        assert abs(p - 0.68) <= 1e-15

    def test_value_at_09(self):
        out, p = recurrence_formula(0.9)
        assert abs(out - 0.9263959390862944) <= 1e-15
        assert abs(p - 0.8755555555555555) <= 1e-15

    def test_strict_improvement_on_open_interval(self):
        for f in np.linspace(0.505, 0.995, 99):
            f = float(f)
            out, p = recurrence_formula(f)
            assert out > f
            assert p > 0.25

    def test_domain(self):
        with pytest.raises(ValueError):
            recurrence_formula(1.2)


class TestRecurrenceStepExact:
    def test_perfect_werner_input(self):
        out = recurrence_step_exact(measures.werner(1.0), measures.werner(1.0))
        assert out.post_state.fidelity == 1.0
        assert out.p_success == 1.0

    def test_half_fixed_point(self):
        out = recurrence_step_exact(measures.werner(0.5), measures.werner(0.5))
        assert abs(out.post_state.fidelity - 0.5) <= 1e-15
        assert abs(out.p_success - 5.0 / 9.0) <= 1e-15

    def test_agrees_with_closed_form_on_grid(self):
        for f in np.linspace(0.51, 0.99, 25):
            f = float(f)
            out = recurrence_step_exact(measures.werner(f), measures.werner(f))
            ff, p = recurrence_formula(f)
            assert abs(out.post_state.fidelity - ff) <= 1e-12
            assert abs(out.p_success - p) <= 1e-12

    def test_post_state_is_werner_form(self):
        out = recurrence_step_exact(measures.werner(0.8), measures.werner(0.8))
        p = out.post_state.p
        assert abs(p[0] - p[1]) <= 1e-15 and abs(p[1] - p[2]) <= 1e-15

    def test_raw_state_kept_before_retwirl(self):
        out = recurrence_step_exact(measures.werner(0.7), measures.werner(0.7))
        assert out.post_state_raw.fidelity == pytest.approx(out.post_state.fidelity, abs=1e-12)
        # before the twirl the triplet weights are generally unequal
        raw = out.post_state_raw.p
        assert abs(raw[2] - raw[0]) > 1e-3

    def test_impossible_outcome_reported_not_raised(self):
        out = recurrence_step_exact(BellDiagonal([1, 0, 0, 0]), BellDiagonal([0, 0, 1, 0]))
        assert out.p_success == 0.0
        assert out.post_state is None
        assert out.post_state_raw is None


class TestDensityMatrixOracle:
    def test_matches_label_level_on_symmetric_werner(self):
        a = recurrence_step_exact(measures.werner(0.6), measures.werner(0.6))
        b = density_matrix_oracle_step(measures.werner(0.6), measures.werner(0.6))
        assert abs(a.p_success - b.p_success) <= 1e-10
        assert np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10

    def test_matches_on_asymmetric_werner_inputs(self):
        a = recurrence_step_exact(measures.werner(0.7), measures.werner(0.9))
        b = density_matrix_oracle_step(measures.werner(0.7), measures.werner(0.9))
        assert abs(a.p_success - b.p_success) <= 1e-10
        assert np.abs(a.post_state_raw.p - b.post_state_raw.p).max() <= 1e-10

    def test_perfect_input_gives_exact_singlet(self):
        out = density_matrix_oracle_step(measures.werner(1.0), measures.werner(1.0))
        assert abs(out.p_success - 1.0) <= 1e-12
        assert out.post_state.allclose([0, 0, 0, 1], tol=1e-12)

    def test_matches_on_random_bell_diagonal_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m1, m2 = random_bell_diagonal(rng), random_bell_diagonal(rng)
            a = recurrence_step_exact(m1, m2)
            b = density_matrix_oracle_step(m1, m2)
            assert abs(a.p_success - b.p_success) <= 1e-10
            assert np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10
            assert np.abs(a.post_state_raw.p - b.post_state_raw.p).max() <= 1e-10

    @settings(max_examples=150, deadline=None)
    @given(
        w1=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=4, max_size=4),
        w2=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=4, max_size=4),
    )
    def test_property_matches_on_any_bell_diagonal_pair(self, w1, w2):
        assume(sum(w1) > 0.0 and sum(w2) > 0.0)
        m1 = BellDiagonal(np.array(w1) / sum(w1))
        m2 = BellDiagonal(np.array(w2) / sum(w2))
        a = recurrence_step_exact(m1, m2)
        b = density_matrix_oracle_step(m1, m2)
        assert abs(a.p_success - b.p_success) <= 1e-10
        assert (a.post_state is None) == (b.post_state is None)
        if a.post_state is not None:
            assert np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10
            assert np.abs(a.post_state_raw.p - b.post_state_raw.p).max() <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        pos=st.integers(0, 3),
        offset=st.one_of(
            st.sampled_from([1e-9, 0.999e-9, 1e-11, 0.999e-11, 1.001e-11]).flatmap(
                lambda x: st.sampled_from([x, -x])
            ),
            st.floats(-2e-9, 2e-9),
        ),
        partner=st.floats(0.0, 1.0),
    )
    @example(w=[1.0, 1.0, 1.0, 0.0], pos=1, offset=1e-9, partner=0.7)
    @example(w=[0.0, 1.0, 0.0, 5e-324], pos=0, offset=0.0, partner=1.0)  # a subnormal p_success
    @example(w=[0.0, 1.0, 5e-324, 5e-324], pos=0, offset=0.0, partner=1.0)  # sel / p_success overflowed
    def test_property_every_accepted_sum_passes_the_oracle(self, w, pos, offset, partner):
        """Vectors whose sum misses 1 by about the tolerance: every one that
        BellDiagonal accepts makes a density matrix, and the oracle step
        replays the exact step on it."""
        assume(sum(w) > 0.0)
        p = [x / sum(w) for x in w]
        p[pos] += offset
        try:
            m1 = BellDiagonal(p)
        except ValueError:
            return
        bell.to_density(m1)
        for pair in ((m1, m1), (m1, measures.werner(partner))):
            a = recurrence_step_exact(*pair)
            b = density_matrix_oracle_step(*pair)
            assert abs(a.p_success - b.p_success) <= 1e-10
            assert (a.post_state is None) == (b.post_state is None)
            if a.post_state is not None:
                assert np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10
                assert np.abs(a.post_state_raw.p - b.post_state_raw.p).max() <= 1e-10

    @pytest.mark.parametrize("w", [[0.0, 1.0, 0.0, 5e-324], [0.0, 1.0, 5e-324, 5e-324]])
    def test_subnormal_success_keeps_nothing_in_both_steps(self, w):
        # p_success below the smallest normal float: the exact step once kept a
        # pair at 5e-324, and the oracle's division by it overflowed
        m1 = BellDiagonal(w)
        for m2 in (BellDiagonal([0, 0, 0, 1]), measures.werner(0.7), m1):
            a = recurrence_step_exact(m1, m2)
            b = density_matrix_oracle_step(m1, m2)
            assert (a.post_state is None) == (b.post_state is None)
            assert abs(a.p_success - b.p_success) <= 1e-10
        for step in (recurrence_step_exact, density_matrix_oracle_step):
            assert step(m1, BellDiagonal([0, 0, 0, 1])) == (None, 0.0, None)

    @settings(max_examples=300, deadline=None)
    @given(m1=accepted_bell_diagonals(), partner=st.floats(0.0, 1.0))
    @example(m1=BellDiagonal([1 / 3, 1 / 3 + 0.999e-11, 1 / 3, 0.0]), partner=0.7)  # a sum near SUM_TOL
    @example(m1=BellDiagonal([0.0, 1.0, 0.0, 5e-324]), partner=1.0)  # a subnormal p_success
    @example(m1=BellDiagonal([0.0, 1.0, 5e-324, 5e-324]), partner=1.0)  # sel / p_success overflowed
    def test_property_gathers_give_the_dense_bytes(self, m1, partner):
        """The gathered step and its dense form agree in every bit of
        p_success, post_state.p and post_state_raw.p."""
        werner = measures.werner(partner)
        for pair in ((m1, m1), (m1, werner), (werner, m1)):
            assert _step_bytes(density_matrix_oracle_step(*pair)) == _step_bytes(dense_oracle_step(*pair))

    def test_gathers_reproduce_their_dense_conjugation(self):
        # the values of every entry, exactly: only a zero's sign may differ
        rng = np.random.default_rng(32)
        for _ in range(20):
            rho = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            src = rho[:4, :4]
            assert np.array_equal(protocols._SEL_COEF * rho.take(protocols._SEL_IDX), dense_select(rho))
            assert np.array_equal(protocols._Y_COEF * src.take(protocols._Y_IDX), U_Y @ src @ U_Y)

    def test_gather_derivation_rejects_a_non_monomial_operator(self):
        r = math.sqrt(0.5) * (qstate.ID2 - 1j * qstate.SIGMA_X)  # a pi/2 rotation about x
        for u in (np.kron(r, r), 2 * np.eye(4), np.array([[1, 0], [1, 0]]), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="not monomial"):
                protocols._conjugation(u)
        protocols._conjugation(bell.BXOR_UNITARY)  # a permutation passes

    @settings(max_examples=300, deadline=None)
    @given(d=accepted_bell_diagonals())
    @example(d=BellDiagonal([1 / 3, 1 / 3 + 0.999e-11, 1 / 3, 0.0]))
    @example(d=BellDiagonal([0.0, 1.0, 5e-324, 5e-324]))
    def test_property_input_is_to_density_bit_for_bit(self, d):
        """The oracle skips DensityMatrix's checks on its inputs, which their
        BellDiagonals passed; what it builds is to_density's matrix, whose
        checks still run here."""
        assert protocols._oracle_input(d).tobytes() == bell.to_density(d).mat.tobytes()


class TestWorkCounts:
    """Each state is checked once, where it is built: the exact step and its
    oracle build only the states they need, so a re-validation creeping back
    fails here. A breeding run keeps its tests as integers and builds no
    per-test record until one is read. It draws each trial's words with one
    call, and it runs the tests of a whole chunk of trials in one call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for owner, attr, name in (
            (BellDiagonal, "__init__", "BellDiagonal"),
            (qstate.DensityMatrix, "__init__", "DensityMatrix"),
            (np.linalg, "eigvalsh", "eigvalsh"),
            (protocols.ParityTest, "__new__", "ParityTest"),  # a NamedTuple
        ):
            def counted(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        return calls

    PAIR = (measures.werner(0.7), BellDiagonal([0.1, 0.2, 0.3, 0.4]))

    def test_exact_step_builds_two_bell_diagonals(self, calls):
        recurrence_step_exact(*self.PAIR)
        assert calls == {"BellDiagonal": 2}

    def test_oracle_step_builds_two_bell_diagonals_and_no_density_matrix(self, calls):
        density_matrix_oracle_step(*self.PAIR)
        assert calls == {"BellDiagonal": 2}

    def test_breeding_builds_no_parity_test_records(self, calls):
        _, results = breeding_trials(self.PAIR[0], 12, 5, seed=3)
        assert calls == {}
        # reading the records builds them
        assert sum(len(r.parity_tests) for r in results) == calls["ParityTest"] > 0

    def test_breeding_builds_one_generator_per_call(self, monkeypatch):
        # a new Philox draws OS entropy before its key replaces it, so a
        # generator per trial made 600 of these calls
        calls = []
        urandom = random._urandom

        def counted(size):
            calls.append(size)
            return urandom(size)

        monkeypatch.setattr(random, "_urandom", counted)
        breeding_trials(measures.werner(0.95), 12, 600)
        assert len(calls) <= 1

    def test_breeding_draws_each_trial_with_one_raw_call(self, monkeypatch):
        # random and integers each cost numpy's argument handling per call;
        # one random_raw per trial draws the same words (ensemble.decode_raw)
        calls = Counter()

        class Counting:
            """Forwards to obj, counting the calls of its methods by name."""

            def __init__(self, obj):
                object.__setattr__(self, "_obj", obj)

            def __getattr__(self, name):
                attr = getattr(self._obj, name)
                if name == "bit_generator":
                    return Counting(attr)
                if not callable(attr):
                    return attr

                def counted(*args, **kwargs):
                    calls[name] += 1
                    return attr(*args, **kwargs)

                return counted

        make_placer = ensemble._placer

        def counting_placer(seed):  # substreams re-keys the generator it returns
            place = make_placer(seed)
            return lambda *args: Counting(place(*args))

        monkeypatch.setattr(ensemble, "_placer", counting_placer)
        breeding_trials(measures.werner(0.95), 12, 600)
        assert calls == {"random_raw": 600}

    def test_breeding_builds_one_prior_table_per_round(self):
        # one table per (n, probs): building one per chunk and round would
        # cost a breeding run about 0.35 ms each at n = 20 with two groups
        protocols._prior_ranks.cache_clear()
        breeding_trials(measures.werner(0.95), 12, 600)
        info = protocols._prior_ranks.cache_info()
        assert info.misses <= 2 and info.hits > 0  # several chunks share them

    def test_breeding_runs_its_tests_once_per_chunk_of_trials(self, monkeypatch):
        sizes = []  # trials per _bxor_parity call
        bxor_parity = protocols._bxor_parity

        def counted(labels, bits):
            sizes.append(len(labels))
            return bxor_parity(labels, bits)

        monkeypatch.setattr(protocols, "_bxor_parity", counted)
        _, results = breeding_trials(measures.werner(0.95), 12, 600, seed=3)
        per_chunk = protocols.BREEDING_CHUNK // (results[0].targets_consumed * 12)
        assert per_chunk > 1
        chunk_sizes = [min(per_chunk, 600 - lo) for lo in range(0, 600, per_chunk)]
        # each chunk's two rounds, not each trial's
        assert sizes == [size for size in chunk_sizes for _ in range(2)]


class TestRecurrenceTrajectory:
    def test_monotone_rise_to_target(self):
        trace = recurrence_trajectory(0.75, f_target=0.95)
        fids = [0.75] + [s.fidelity for s in trace.steps]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert trace.final_fidelity >= 0.95

    def test_not_distillable_at_half(self):
        with pytest.raises(NotDistillableError):
            recurrence_trajectory(0.5, f_target=0.9)

    def test_already_above_target(self):
        trace = recurrence_trajectory(0.99, f_target=0.95)
        assert trace.steps == ()
        assert trace.cumulative_yield == 1.0
        assert trace.final_fidelity == 0.99

    def test_yield_bookkeeping_is_product_of_half_p(self):
        trace = recurrence_trajectory(0.7, max_steps=6)
        acc = 1.0
        for step in trace.steps:
            acc *= 0.5 * step.p_success
            assert step.cumulative_yield == pytest.approx(acc, rel=0, abs=0)

    def test_fixed_step_count(self):
        trace = recurrence_trajectory(0.6, max_steps=4)
        assert len(trace.steps) == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            recurrence_trajectory(1.0, f_target=0.9)
        with pytest.raises(ValueError):
            recurrence_trajectory(0.7, f_target=1.0)
        # a step count is a whole number >= 0; infinity would never return
        for steps in (-1, float("nan"), 2.5, float("inf")):
            with pytest.raises(ValueError, match="max_steps must be a whole number"):
                recurrence_trajectory(0.7, max_steps=steps)


class TestRecurrenceMC:
    def test_deterministic_for_fixed_seed(self):
        a = recurrence_mc(0.7, 10_000, 2, seed=42)
        b = recurrence_mc(0.7, 10_000, 2, seed=42)
        assert a == b

    def test_perfect_input_all_kept(self):
        mc = recurrence_mc(1.0, 10_000, 1, seed=1)
        step = mc.steps[0]
        assert step.n_kept == step.n_input // 2
        assert step.fidelity == 1.0

    def test_one_step_agrees_with_formula_within_three_sigma(self):
        mc = recurrence_mc(0.7, 200_000, 1, seed=303)
        step = mc.steps[0]
        assert abs(step.fidelity - step.fidelity_formula) <= 3 * step.fidelity_err
        assert abs(step.survival - 0.5 * step.p_success_formula) <= 3 * step.survival_err

    def test_multiple_steps_track_formula(self):
        mc = recurrence_mc(0.75, 400_000, 3, seed=404)
        for step in mc.steps:
            assert abs(step.fidelity - step.fidelity_formula) <= 3 * step.fidelity_err

    def test_truncation_flag(self):
        mc = recurrence_mc(0.7, 2, 5, seed=11)
        assert mc.truncated
        assert len(mc.steps) < 5

    def test_rejects_tiny_ensemble(self):
        with pytest.raises(ValueError):
            recurrence_mc(0.7, 1, 1, seed=0)
        with pytest.raises(ValueError, match="steps must be a whole number >= 1, got 0"):
            recurrence_mc(0.7, 100, 0, seed=0)
        # measures.werner checks f0 before any draw
        for f0 in (float("nan"), -0.1, 1.5):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                recurrence_mc(f0, 100, 1, seed=0)

    def test_whole_floats_give_the_bytes_of_ints(self):
        # the kernel computes on the ints that the whole-number rule returns
        as_floats = recurrence_mc(0.8, 1000.0, 2.0, 3.0)
        assert repr(as_floats) == repr(recurrence_mc(0.8, 1000, 2, 3))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_purify_round_returns_python_int_moments_of_its_kept_blocks(self, k):
        # the MCStep and VariableBlockStats digests hash repr, where a numpy
        # integer reads differently from an int of the same value
        labels = ensemble._sample_labels(measures.werner(0.8), 999 * (k + 1), 8, 0, 1)
        out = protocols._purify_round(labels, 999, k, 8, 0, 2)
        assert [type(v) for v in out] == [int, int, int]
        n_kept, s1, s2 = out
        # the kept blocks sit in order at the front of labels
        s_b = (labels[: n_kept * k].reshape(-1, k) == BellLabel.PSI_MINUS).sum(axis=1)
        assert (s1, s2) == (int(s_b.sum()), int((s_b**2).sum()))


def _at(seed, stream_id, piece, stage):
    """A new generator at piece `piece` of stage `stage` of stream (seed,
    stream_id), built by Philox itself at counter words (0, piece, stage, 0)."""
    words = np.array([0, piece, stage, 0, seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=words[:4], key=words[4:]))


def _round_reference(labels, n_blocks, k, seed, stream_id, stage, piece):
    """_purify_round through the scalar label algebra: each piece of `piece`
    blocks keeps the sources of its passing blocks, rotated back, and twirls
    them at its own position. Returns the round's counts and kept labels."""
    def y(label):
        return bell.unilateral_pauli(BellLabel(int(label)), PauliAxis.Y)

    kept = []
    for j, (lo, hi) in enumerate(ensemble.chunks(n_blocks, piece)):
        srcs = []
        for b in range(lo, hi):
            block = [y(label) for label in labels[(k + 1) * b : (k + 1) * (b + 1)]]
            keep, out = _chain_block_reference(block[:k], block[k])
            if keep:
                srcs += [y(s) for s in out]
        kept += twirl.twirl_labels(np.array(srcs, dtype=np.uint8), _at(seed, stream_id, j, stage)).tolist()
    s_b = (np.array(kept, dtype=np.uint8).reshape(-1, k) == BellLabel.PSI_MINUS).sum(axis=1)
    return (len(kept) // k, int(s_b.sum()), int((s_b**2).sum())), bytes(kept)


class TestPurifyPieces:
    """_purify_round tests, compacts and twirls pieces of CHUNK // 8 blocks on
    ensemble.run_sharded's threads, each piece at its own position, then moves
    the pieces' kept sources to the front in piece order. It starts no thread
    for one piece, and every thread has ended when a piece's error is raised."""

    @staticmethod
    def _labels(n_blocks, k, seed):
        # drawn serially whatever CHUNK is, so that only the round may start a thread
        return ensemble.stream(seed).choice(4, n_blocks * (k + 1), p=[0.7, 0.1, 0.1, 0.1]).astype(np.uint8)

    def _round(self, n_blocks, k, seed=3):
        """The round's counts and kept labels."""
        labels = self._labels(n_blocks, k, seed)
        out = protocols._purify_round(labels, n_blocks, k, seed, 1, 2)
        return out, labels[: out[0] * k].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        chunk=st.integers(1, 48),
        k=st.integers(1, 4),
        n_blocks=st.integers(0, 60),
        seed=st.integers(0, 2**32),
        threads=st.sampled_from([1, 2, 8]),
        switch=st.booleans(),
    )
    def test_pieces_match_the_scalar_reference(self, chunk, k, n_blocks, seed, threads, switch):
        expected = _round_reference(self._labels(n_blocks, k, seed), n_blocks, k, seed, 1, 2, max(1, chunk // 8))
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "CHUNK", chunk)
            mp.setattr(ensemble, "DRAW_THREADS", threads)
            if switch:  # let the threads swap often, inside the pieces
                sys.setswitchinterval(1e-6)
            try:
                assert self._round(n_blocks, k, seed) == expected
            finally:
                sys.setswitchinterval(interval)

    def test_one_piece_starts_no_thread(self, monkeypatch, started):
        monkeypatch.setattr(ensemble, "CHUNK", 80)  # pieces of 10 blocks
        for n_blocks in (0, 1, 10):
            self._round(n_blocks, 2)
        assert started == []
        self._round(11, 2)
        assert len(started) == 1 and not started[0].is_alive()

    def test_chunk_below_eight_gives_pieces_of_one_block(self, monkeypatch, started):
        monkeypatch.setattr(ensemble, "CHUNK", 7)
        assert self._round(20, 3) == _round_reference(self._labels(20, 3, 3), 20, 3, 3, 1, 2, 1)
        assert len(started) == 1

    @pytest.mark.parametrize("step", ["test", "twirl"])
    def test_piece_error_is_raised_after_every_thread_ends(self, monkeypatch, started, within, step):
        # the third piece to reach its test (bell.amp_bit runs once a piece),
        # or its twirl, fails
        calls, lock = [], threading.Lock()
        fails = (bell, "amp_bit") if step == "test" else (protocols, "_twirl_labels")
        original = getattr(*fails)

        def failing(*args):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise ValueError(f"{step} failed")
            return original(*args)

        monkeypatch.setattr(*fails, failing)
        monkeypatch.setattr(ensemble, "CHUNK", 8)  # pieces of one block
        before = threading.active_count()
        exc = within(30, lambda: self._round(30, 1))
        assert isinstance(exc, ValueError) and str(exc) == f"{step} failed"
        assert threading.active_count() == before
        # the helper's thread and the round's second thread
        assert len(started) == 2 and not started[1].is_alive()


def _chain_block_reference(sources, target):
    """Reference implementation of one block using the scalar label algebra."""
    tgt = target
    out_sources = []
    for s in sources:
        s2, tgt = bell.bxor(s, tgt)
        out_sources.append(s2)
    keep = bell.amp_bit(tgt) == 0  # the target's z spins come out parallel
    return keep, out_sources


def _even_parity(r, m):
    """Probability that m i.i.d. bits, each 1 with probability r, XOR to 0."""
    return (1.0 + (1.0 - 2.0 * r) ** m) / 2.0


def blocked_round_exact(q, k):
    """Closed form of variable_block_mc's round, in O(16) float operations:
    (fidelity of a kept pair, fraction of blocks discarded) for i.i.d. pairs
    with label distribution q after the y rotation, k sources per block.

    A block of k sources and one target passes when its k + 1 amp bits
    (probability r each) have even parity. A kept source of label a ends with
    label a ^ (t & 1), t the target's label, and the y rotation back and the
    twirl leave it a singlet exactly when that label is Phi+ (0). The block
    then passes when a's and t's amp bits and those of the other k - 1
    sources have even parity."""
    r = q[BellLabel.PSI_PLUS] + q[BellLabel.PSI_MINUS]
    p_pass = _even_parity(r, k + 1)
    rest = _even_parity(r, k - 1)
    hit = 0.0
    for a, t in itertools.product(range(4), repeat=2):
        if a ^ (t & 1) == BellLabel.PHI_PLUS:
            hit += q[a] * q[t] * (rest if (a >> 1) == (t >> 1) else 1.0 - rest)
    return hit / p_pass, 1.0 - p_pass


def blocked_fidelity_sigma(q, k, n_blocks):
    """Standard error of variable_block_mc's fidelity, a ratio over n_blocks
    i.i.d. blocks, from the exact moments of a block's singlet count S (0 for
    a discarded block) and kept-pair count M (k or 0): sqrt(E[(S - F M)^2] /
    n_blocks) / E[M], where E[(S - F M)^2] = E[S^2] - F^2 E[M^2] as F is
    E[S] / E[M]. Two kept sources are both singlets when both have label
    t & 1, so the other k - 2 amp bits must match t's."""
    fid, discard = blocked_round_exact(q, k)
    p_pass = 1.0 - discard
    r = q[BellLabel.PSI_PLUS] + q[BellLabel.PSI_MINUS]
    pair = 0.0
    if k > 1:
        rest = _even_parity(r, k - 2)
        pair = sum(q[t] * q[t & 1] ** 2 * (rest if t >> 1 == 0 else 1.0 - rest) for t in range(4))
    s_sq = k * fid * p_pass + k * (k - 1) * pair
    resid_sq = s_sq - (k * fid) ** 2 * p_pass
    return math.sqrt(max(resid_sq, 0.0) / n_blocks) / (k * p_pass)


def _blocked_round_enumerated(q, k):
    """(fidelity, discard, blocked_fidelity_sigma for one block) by summing
    over all 4^(k+1) labelings of a block, run through the scalar label
    algebra and the y rotation back."""
    kept = hits = hits_sq = 0.0
    for combo in itertools.product(list(BellLabel), repeat=k + 1):
        weight = math.prod(q[l] for l in combo)
        keep, out = _chain_block_reference(list(combo[:k]), combo[k])
        if keep:
            singlets = sum(bell.unilateral_pauli(s, PauliAxis.Y) == BellLabel.PSI_MINUS for s in out)
            kept += weight
            hits += weight * singlets
            hits_sq += weight * singlets**2
    fid = hits / (k * kept)
    resid_sq = hits_sq - 2.0 * fid * k * hits + (fid * k) ** 2 * kept
    return fid, 1.0 - kept, math.sqrt(max(resid_sq, 0.0)) / (k * kept)


def _blocked_round_whole_run(f0, n_pairs, seed):
    """variable_block_mc's round on whole-run arrays, as it ran before it was
    chunked, for a run of one piece: (n_kept_pairs, fidelity, fidelity_err),
    the error summing float64 squared residuals over every block."""
    k = max(1, round((1.0 - f0) ** -0.5)) if f0 < 1.0 else n_pairs - 1
    n_blocks = n_pairs // (k + 1)
    assert n_blocks <= ensemble.CHUNK // 8
    labels = ensemble._sample_labels(measures.werner(f0), n_blocks * (k + 1), seed, 0, 1)
    labels = bell.unilateral_pauli(labels.reshape(n_blocks, k + 1), PauliAxis.Y)
    srcs = labels[:, :k]
    _, tgt = bell.bxor(np.bitwise_xor.reduce(srcs, axis=1), labels[:, k])
    keep = bell.amp_bit(tgt) == 0
    kept, _ = bell.bxor(srcs[keep], tgt[keep, None])
    kept = twirl.twirl_labels(bell.unilateral_pauli(kept, PauliAxis.Y).reshape(-1), _at(seed, 0, 0, 2))
    hits = kept.reshape(-1, k) == BellLabel.PSI_MINUS
    fid = float(hits.mean())
    s_b = np.zeros(n_blocks)
    s_b[keep] = hits.sum(axis=1)
    m_b = np.where(keep, k, 0)
    return kept.size, fid, float(np.sqrt(((s_b - fid * m_b) ** 2).sum()) / m_b.sum())


def y_rotated_werner(f):
    """Label distribution of a Werner pair after variable_block_mc's y rotation."""
    return measures.werner(f).p[bell.unilateral_pauli(bell.LABELS, PauliAxis.Y)]


class TestVariableBlockMC:
    def test_block_rule_matches_label_algebra_exhaustively(self):
        # every label combination for block sizes 1..3
        for k in (1, 2, 3):
            for combo in itertools.product(list(BellLabel), repeat=k + 1):
                sources, target = list(combo[:k]), combo[k]
                keep_ref, out_ref = _chain_block_reference(sources, target)
                src = np.array(sources, dtype=np.uint8)
                par = int(np.bitwise_xor.reduce(src & 2) ^ (target & 2))
                keep_vec = par == 0
                out_vec = src ^ (np.uint8(target) & 1)
                assert keep_vec == keep_ref
                assert np.array_equal(out_vec, np.array(out_ref, dtype=np.uint8))

    def test_perfect_input_discards_only_targets(self):
        stats = variable_block_mc(1.0, 1000, seed=2)
        assert stats.discard_fraction == 0.0
        assert stats.fidelity == 1.0
        assert stats.total_loss_fraction == pytest.approx(stats.target_fraction)

    def test_block_size_rule(self):
        stats = variable_block_mc(0.99, 5000, seed=3)
        assert stats.k == 10
        stats = variable_block_mc(0.96, 5000, seed=3)
        assert stats.k == 5

    def test_lowest_order_laws_at_high_fidelity(self):
        stats = variable_block_mc(0.99, 300_000, seed=31)
        eps = 0.01
        assert abs(stats.fidelity - (1 - 2 * eps / 3)) <= 3 * stats.fidelity_err + 0.1 * eps
        assert (
            abs(stats.discard_fraction - 2 * math.sqrt(eps) / 3)
            <= 3 * stats.discard_err + 0.1 * eps
        )

    def test_rejects_underfilled_block(self):
        with pytest.raises(ValueError):
            variable_block_mc(0.99, 5, seed=0)
        with pytest.raises(ValueError, match="1/2 < f0 <= 1"):
            variable_block_mc(0.5, 1000, seed=0)

    def test_no_kept_block_has_no_fidelity(self):
        stats = variable_block_mc(0.51, 2, seed=1)  # one block of k = 1, which fails
        assert (stats.n_blocks, stats.n_kept_pairs) == (1, 0)
        assert math.isnan(stats.fidelity) and math.isnan(stats.fidelity_err)
        assert stats.discard_fraction == 1.0

    def test_exact_form_matches_label_enumeration(self):
        rng = np.random.default_rng(17)
        dists = [y_rotated_werner(f) for f in (0.55, 0.75, 0.9, 1.0)]
        dists += [rng.dirichlet(np.ones(4)) for _ in range(4)] + [np.array([0.5, 0.0, 0.5, 0.0])]
        for q in dists:
            for k in (1, 2, 3):
                exact = (*blocked_round_exact(q, k), blocked_fidelity_sigma(q, k, 1))
                assert exact == pytest.approx(_blocked_round_enumerated(q, k), abs=1e-12)

    def test_exact_form_at_k_1_is_the_two_pair_step(self):
        for f in (0.55, 0.7, 0.9):
            fid, discard = blocked_round_exact(y_rotated_werner(f), 1)
            f_out, p = recurrence_formula(f)
            assert fid == pytest.approx(f_out, abs=1e-14)
            assert 1.0 - discard == pytest.approx(p, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.5, 1.0 - 1e-6, exclude_min=True) | st.just(1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_exact_form_holds_monte_carlo_to_5_sigma(self, f, seed):
        stats = variable_block_mc(f, 40_000, seed=seed)
        q = y_rotated_werner(f)
        fid, discard = blocked_round_exact(q, stats.k)
        # a reported error is a sample estimate, which is small when a run
        # happens to see few failing blocks (0 when it sees none), so each is
        # floored by the error the exact moments predict
        fid_sigma = max(stats.fidelity_err, blocked_fidelity_sigma(q, stats.k, stats.n_blocks))
        discard_sigma = max(stats.discard_err, math.sqrt(discard * (1.0 - discard) / stats.n_blocks))
        assert abs(stats.fidelity - fid) <= 5 * fid_sigma
        assert abs(stats.discard_fraction - discard) <= 5 * discard_sigma

    @pytest.mark.parametrize(
        "f, k, f_out",
        [(0.60, 2, 0.550), (0.75, 2, 0.750), (0.80, 2, 0.812), (0.99, 10, 0.9927)],
    )
    def test_block_rule_helps_only_above_three_quarters(self, f, k, f_out):
        stats = variable_block_mc(f, 3 * (k + 1), seed=0)
        assert stats.k == k
        fid, _ = blocked_round_exact(y_rotated_werner(f), k)
        assert round(fid, 4 if f == 0.99 else 3) == f_out
        assert (fid > f) == (f > 0.75)

    def test_deterministic(self):
        assert variable_block_mc(0.9, 5000, seed=7) == variable_block_mc(0.9, 5000, seed=7)

    @pytest.mark.parametrize("f", [0.55, 0.75, 0.9, 0.94, 0.99, 1.0])
    @pytest.mark.parametrize("n_pairs", [300, 20_001])
    def test_round_matches_whole_run_arrays(self, f, n_pairs):
        # the integer moments give the residual sum exactly, where the float64
        # sum over blocks rounds at each step
        n_kept, fid, fid_err = _blocked_round_whole_run(f, n_pairs, seed=41)
        stats = variable_block_mc(f, n_pairs, seed=41)
        assert (stats.n_kept_pairs, stats.fidelity) == (n_kept, fid)
        assert stats.fidelity_err == pytest.approx(fid_err, rel=1e-12, abs=1e-15)


def _sampled_labels(rng, d, n):
    """n labels of d from the sampler, on a seed that rng draws."""
    return ensemble._sample_labels(d, n, int(rng.integers(2**63)), 0, 1)


def _scalar_chain_parity(labels, mask):
    tgt = BellLabel.PHI_PLUS
    for i in range(len(labels)):
        if (mask >> i) & 1:
            s2, tgt = bell.bxor(BellLabel(int(labels[i])), tgt)
            assert s2 == labels[i]  # a Phi+ target never alters a source
    return int(bell.amp_bit(tgt))  # 1: the target's z spins come out anti-parallel


class TestBxorParityHelper:
    def test_matches_scalar_chain_exhaustively_for_small_subsets(self):
        # all subsets of a 6-pair ensemble, several label assignments
        rng = np.random.default_rng(5)
        for _ in range(10):
            labels = _sampled_labels(rng, measures.werner(0.7), 6)
            for mask in range(64):
                bits = protocols._mask_bits(mask, 6)
                assert protocols._bxor_parity(labels, bits) == _scalar_chain_parity(labels, mask)

    def test_matches_scalar_chain_on_sampled_larger_subsets(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(7, 21))
            labels = _sampled_labels(rng, measures.werner(0.8), n)
            mask = int(rng.integers(0, 1 << n))
            bits = protocols._mask_bits(mask, n)
            assert protocols._bxor_parity(labels, bits) == _scalar_chain_parity(labels, mask)


    def test_one_row_of_parities_per_trial(self):
        rng = np.random.default_rng(8)
        labels = _sampled_labels(rng, measures.werner(0.7), 5 * 9).reshape(5, 9)
        masks = rng.integers(0, 1 << 9, size=(5, 40))
        bits = protocols._mask_bits(masks, 9)
        assert bits.shape == (5, 40, 9)
        assert protocols._bxor_parity(labels, bits).tolist() == [
            [_scalar_chain_parity(row, int(m)) for m in trial] for row, trial in zip(labels, masks)
        ]

    def test_one_parity_per_row_of_a_subset_matrix(self):
        rng = np.random.default_rng(7)
        labels = _sampled_labels(rng, measures.werner(0.7), 9)
        bits = rng.integers(0, 2, size=(40, 9))
        masks = bits @ (1 << np.arange(9))
        expected = [_scalar_chain_parity(labels, int(m)) for m in masks]
        assert protocols._bxor_parity(labels, bits).tolist() == expected


def _exhaustive_decode(n, masks, parity_bits, prior_groups):
    """Reference decoder: scan all 2^n strings, keep those that fit every
    parity, and give each its exact prior, prod p^k (1 - p)^(size - k) over
    the groups, in Fraction arithmetic on the exact values of the float
    priors. Picks the likeliest string of non-zero prior, smallest value first
    among exact ties. Returns (decoded, n_consistent, tie)."""
    cands = np.arange(1 << n, dtype=np.uint64)
    for mask, bit in zip(masks, parity_bits):
        par = np.bitwise_count(cands & np.uint64(mask)).astype(np.uint8) & 1
        cands = cands[par == bit]
    if cands.size == 0:
        raise RuntimeError("no parity-consistent candidate")
    n_consistent = int(cands.size)
    # strings with the same one-count in every group share one prior
    counts = {c: tuple((c & mask).bit_count() for mask, _ in prior_groups) for c in cands.tolist()}
    priors = {
        k: math.prod(
            Fraction(p) ** ones * (1 - Fraction(p)) ** (mask.bit_count() - ones)
            for (mask, p), ones in zip(prior_groups, k)
        )
        for k in set(counts.values())
    }
    top = max(priors.values())
    if top == 0:
        raise RuntimeError("no candidate with non-zero prior")
    best = [c for c, k in counts.items() if priors[k] == top]
    return min(best), n_consistent, len(best) > 1


class ZeroPriorError(RuntimeError):
    """Every string that fits the parity tests has zero prior probability.
    n_consistent counts the strings that fit."""

    def __init__(self, n_consistent: int):
        super().__init__("no candidate with non-zero prior")
        self.n_consistent = n_consistent


def _ml_decode(n, masks, parity_bits, prior_groups):
    """The one-row call of protocols._ml_decode_rows, in the argument and
    result forms of _exhaustive_decode: prior_groups is a list of
    (position_mask, p_one) pairs, the result is (decoded, n_consistent, tie),
    and a row whose every consistent string has zero prior raises
    ZeroPriorError."""
    decoded, dims, tie, zero_prior = protocols._ml_decode_rows(
        n, [masks], [parity_bits], [[mask for mask, _ in prior_groups]], [p for _, p in prior_groups]
    )
    if zero_prior[0]:
        raise ZeroPriorError(1 << int(dims[0]))
    return int(decoded[0]), 1 << int(dims[0]), bool(tie[0])


def _outcome(decoder, *args):
    try:
        return decoder(*args)
    except RuntimeError as exc:
        return "raised", str(exc)


def _group_probs(draw):
    """Draws a base p and returns a strategy for the probabilities of prior
    groups: 0, 1/2, 1, any p, or the base, its complement or the float next to
    that. Groups at one p, or at complements exact or one float off, make
    priors tie exactly or nearly, where rounded scores would mislead."""
    base = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return (
        st.sampled_from([0.0, 0.5, 1.0])
        | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([base, 1.0 - base, math.nextafter(1.0 - base, 0.5)])
    )


@st.composite
def decode_instances(draw):
    n = draw(st.integers(1, 14))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n))
    if draw(st.booleans()):  # parities of a hidden string: always consistent
        x = draw(st.integers(0, (1 << n) - 1))
        parity_bits = [(m & x).bit_count() & 1 for m in masks]
    else:  # arbitrary parities, often contradictory
        parity_bits = draw(st.lists(st.integers(0, 1), min_size=len(masks), max_size=len(masks)))
    n_groups = draw(st.integers(1, 3))
    owner = draw(st.lists(st.integers(0, n_groups - 1), min_size=n, max_size=n))
    priors = _group_probs(draw)
    groups = [
        (sum(1 << i for i in range(n) if owner[i] == g), draw(priors)) for g in range(n_groups)
    ]
    return n, masks, parity_bits, groups


@st.composite
def prior_rank_instances(draw):
    """(n, probs, sizes): n <= 8 bits, 1-3 group probabilities and each
    group's size in one row, the sizes summing to at most n."""
    n = draw(st.integers(1, 8))
    probs = draw(st.lists(_group_probs(draw), min_size=1, max_size=3))
    owner = draw(st.lists(st.integers(-1, len(probs) - 1), min_size=n, max_size=n))
    return n, probs, [owner.count(g) for g in range(len(probs))]


@st.composite
def decode_batches(draw):
    """1-12 decode instances that share n and the group probabilities, each
    with its own tests (none, or up to 2n of any rank), parities of its own
    hidden string and its own split of the positions into the groups.
    Returns (n, probs, [(masks, parities, group_masks)])."""
    n = draw(st.integers(1, 14))
    probs = draw(st.lists(_group_probs(draw), min_size=1, max_size=3))
    instances = []
    for _ in range(draw(st.integers(1, 12))):
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2 * n))
        x = draw(st.integers(0, (1 << n) - 1))
        owner = draw(st.lists(st.integers(0, len(probs) - 1), min_size=n, max_size=n))
        instances.append((
            masks,
            [(m & x).bit_count() & 1 for m in masks],
            [sum(1 << i for i in range(n) if owner[i] == g) for g in range(len(probs))],
        ))
    return n, probs, instances


def _batch_rows(n, masks, parities, group_masks, probs, out):
    """Each row of one _ml_decode_rows call as (instance, outcome), in the
    argument and result forms of _exhaustive_decode."""
    group_masks = np.asarray(group_masks, dtype=np.int64)
    for t, (decoded, dim, tie, zero_prior) in enumerate(zip(*(a.tolist() for a in out))):
        groups = list(zip(group_masks[t].tolist(), probs))
        instance = (n, np.asarray(masks)[t].tolist(), np.asarray(parities)[t].tolist(), groups)
        if zero_prior:
            yield instance, ("raised", "no candidate with non-zero prior")
        else:
            yield instance, (decoded, 1 << dim, tie)


class TestMLDecode:
    @settings(max_examples=300, deadline=None)
    @given(decode_instances())
    def test_matches_exhaustive_scan(self, instance):
        assert _outcome(_ml_decode, *instance) == _outcome(_exhaustive_decode, *instance)

    @settings(max_examples=300, deadline=None)
    @given(prior_rank_instances())
    def test_prior_ranks_order_counts_as_exact_priors_do(self, instance):
        n, probs, sizes = instance
        ranks, flips = protocols._prior_ranks(n, tuple(probs))
        rows = []  # (exact prior, rank) of each vector of one-counts the row can hold
        for ones in itertools.product(*(range(s + 1) for s in sizes)):
            # the table counts a group's zeros where it flips
            k = tuple(s - j if flip else j for flip, s, j in zip(flips, sizes, ones))
            prior = math.prod(
                Fraction(p) ** j * (1 - Fraction(p)) ** (s - j)
                for p, s, j in zip(probs, sizes, ones)
            )
            rows.append((prior, int(ranks[k])))
        for (prior_a, rank_a), (prior_b, rank_b) in itertools.product(rows, repeat=2):
            assert (prior_a < prior_b) == (rank_a < rank_b)
        assert [rank == -1 for _, rank in rows] == [prior == 0 for prior, _ in rows]

    def test_inconsistent_parities_raise(self):
        with pytest.raises(RuntimeError, match="no parity-consistent candidate"):
            _ml_decode(4, [0b0011, 0b0110, 0b0101], [1, 1, 1], [(0b1111, 0.1)])

    def test_zero_prior_error_counts_consistent_strings(self):
        # bit 0 must be 1, but the prior forbids every 1
        with pytest.raises(ZeroPriorError, match="no candidate with non-zero prior") as exc:
            _ml_decode(3, [0b001], [1], [(0b111, 0.0)])
        assert exc.value.n_consistent == 4
        assert isinstance(exc.value, RuntimeError)

    def test_equal_priors_tie_exactly_despite_rounding(self):
        # the tests leave two strings of weight 5, with one-counts (0, 5) and
        # (2, 3) in two groups at p = 0.25: equal priors, but the float sums
        # 0*l + 5*l and 2*l + 3*l of l = log2(1/3) round apart
        x0, x1 = 0b1111100000, 0b0011100011
        masks = [1 << b for b in range(2, 8)] + [0b11, 0b1 << 1 | 0b1 << 8, 0b11 << 8]
        parities = [(m & x0).bit_count() & 1 for m in masks]
        groups = [(0b0000011111, 0.25), (0b1111100000, 0.25)]
        assert _ml_decode(10, masks, parities, groups) == (x1, 2, True)
        assert _exhaustive_decode(10, masks, parities, groups) == (x1, 2, True)

    def test_breed_probs_run_decodes_like_the_exact_reference(self, monkeypatch):
        # breed --probs 0.6 0.2 0.05 0.15 --pairs 12 --trials 2000 --seed 7:
        # both round-2 groups have p = 0.25, so strings of one total weight
        # tie exactly; float log-odds sums resolved two of these silently
        rows = []  # (instance, outcome) of every row the decoder solves
        decode_rows = protocols._ml_decode_rows

        def recording(n, masks, parities, group_masks, probs):
            out = decode_rows(n, masks, parities, group_masks, probs)
            rows.extend(_batch_rows(n, masks, parities, group_masks, probs, out))
            return out

        monkeypatch.setattr(protocols, "_ml_decode_rows", recording)
        _, results = breeding_trials(BellDiagonal([0.6, 0.2, 0.05, 0.15]), 12, 2000, seed=7)
        assert len(rows) == 4000
        assert [r for r in rows if r[1] != _outcome(_exhaustive_decode, *r[0])] == []
        assert results[316].tie_round2 and results[748].tie_round2

    @settings(max_examples=150, deadline=None)
    @given(decode_batches())
    def test_no_row_depends_on_its_batch(self, batch):
        n, probs, instances = batch
        r = max(len(masks) for masks, _, _ in instances)
        # a zero mask with parity 0 tests nothing, so it pads the shorter rows
        masks, parities = (
            np.array([row[i] + [0] * (r - len(row[i])) for row in instances], dtype=np.int64)
            .reshape(len(instances), r)
            for i in (0, 1)
        )
        group_masks = [row[2] for row in instances]
        out = protocols._ml_decode_rows(n, masks, parities, group_masks, probs)
        solved = list(_batch_rows(n, masks, parities, group_masks, probs, out))
        assert [outcome for _, outcome in solved] == [
            _outcome(_exhaustive_decode, n, m, par, list(zip(gm, probs)))
            for m, par, gm in instances
        ]
        # nor on the slice of rows it is scored in
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "DECODE_CHUNK", 4)
            sliced = protocols._ml_decode_rows(n, masks, parities, group_masks, probs)
        assert all(np.array_equal(a, b) for a, b in zip(out, sliced))

    def test_one_contradictory_row_fails_the_batch(self):
        # the third test of row 1 is the sum of its first two, at the wrong parity
        masks = np.array([[0b0011, 0b0110, 0b0101], [0b0011, 0b0110, 0b0101], [0b0001, 0, 0]])
        parities = np.array([[0, 1, 1], [1, 1, 1], [1, 0, 0]])
        groups = [[0b1111]] * 3
        with pytest.raises(RuntimeError, match="no parity-consistent candidate"):
            protocols._ml_decode_rows(4, masks, parities, groups, [0.1])
        decoded, dims, _, _ = protocols._ml_decode_rows(4, masks[::2], parities[::2], groups[:2], [0.1])
        assert decoded.tolist() == [0b0100, 0b0001] and dims.tolist() == [2, 3]


def _reference_parity_tests(rounds):
    """The parity test records as breeding_mc once built them while it ran:
    one ParityTest per row of each round's (count, n) subset matrix, with the
    row's parity and the running target index."""
    tests = []
    for bits, parities in rounds:
        for row, par in zip(bits.tolist(), parities):
            subset = tuple(i for i, b in enumerate(row) if b)
            tests.append(protocols.ParityTest(subset, par, len(tests)))
    return tuple(tests)


BREEDING_STATES = (
    measures.werner(0.95),
    measures.werner(0.8),
    BellDiagonal([0.6, 0.0, 0.2, 0.2]),
    BellDiagonal([1.0, 0.0, 0.0, 0.0]),
)


def _popcount(a):
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.intp)


def _exact_prior_ranks(n, q_out, q_in):
    """(2^n, 2^n) ranks: entry [g, c] ranks the exact prior of the n-bit string
    c when each bit outside mask g is 1 with probability q_out and each bit
    inside it with q_in, in Fraction arithmetic on the floats' exact values;
    -1 marks a zero prior. Strings of one prior share a rank."""
    a, b = Fraction(q_out), Fraction(q_in)
    priors = {
        (k_out, k_in, m): a**k_out * (1 - a) ** (n - m - k_out) * b**k_in * (1 - b) ** (m - k_in)
        for m in range(n + 1)
        for k_out in range(n - m + 1)
        for k_in in range(m + 1)
    }
    rank = {p: i for i, p in enumerate(sorted(set(priors.values()) - {0}))}
    table = np.full((n + 1,) * 3, -1)
    for key, p in priors.items():
        table[key] = rank.get(p, -1)
    s = np.arange(1 << n)
    g, c = s[:, None], s[None, :]
    return table[_popcount(c & ~g & (1 << n) - 1), _popcount(c & g), _popcount(g)]


def _brute_force_decode(n, masks, ranks):
    """Maximum-likelihood decode of every n-bit string c from its parities on
    masks, under each prior row g of ranks, by comparing c with every string:
    (decoded, tie, zero_prior), each indexed [g, c]. As in _ml_decode_rows, the
    smallest string of top prior wins, and a row whose every fitting string has
    zero prior decodes to 0."""
    s = np.arange(1 << n)
    par = _popcount(s[:, None] & np.asarray(masks, dtype=np.int64)) & 1
    fits = (par[:, None] == par[None, :]).all(axis=2)  # [c, c']: same parities
    cand = np.where(fits, ranks[:, None, :], -2)
    top = cand.max(axis=2)
    best = (cand == top[..., None]) & (top >= 0)[..., None]
    return best.argmax(axis=2), best.sum(axis=2) > 1, top < 0


def _sign_prob(p, psi):
    """P(the sign bit reads 1 | class), for a pair of class Psi (psi) or Phi
    whose class round 1 decoded correctly, from the label rules; 1/2 for a
    class of zero weight, as breeding takes it."""
    fixed = bell.unilateral_pauli(bell.LABELS, PauliAxis.Y) if psi else bell.LABELS
    flips = bell.amp_bit(bell.bilateral_rot(fixed, PauliAxis.Y)).tolist()
    cls = [l for l in range(4) if bell.amp_bit(l) == psi]
    weight = sum(float(p[l]) for l in cls)
    return sum(float(p[l]) for l in cls if flips[l]) / weight if weight > 0.0 else 0.5


def _count_distribution(pmfs):
    """The distribution of a sum of independent counts, each given by its pmf."""
    out = np.ones(1)
    for pmf in pmfs:
        out = np.convolve(out, pmf)
    return out


#: The normal deviate that an observed count may not pass in either tail. The
#: tails are read from the count's exact distribution, since a normal one
#: misjudges a handful of rare failures.
RATE_Z = 5.0


class TestBreeding:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(BREEDING_STATES),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
        st.integers(0, 50),
        st.floats(0.0, 4.0),
    )
    def test_parity_tests_match_the_per_test_construction(self, w, n, seed, sid, r_margin):
        rounds = []
        bxor_parity = protocols._bxor_parity

        def recording(labels, bits):
            # one trial: (1, n) labels and its (1, tests, n) subset bits
            assert labels.shape == (1, n) and bits.shape[::2] == (1, n)
            parities = bxor_parity(labels, bits)
            rounds.append((bits[0], parities[0].tolist()))
            return parities

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(protocols, "_bxor_parity", recording)
            r = breeding_mc(w, n, r_margin=r_margin, seed=seed, stream_id=sid)
        assert len(rounds) == 2
        assert r.parity_tests == _reference_parity_tests(rounds)

    def test_point_mass_phi_plus_trivially_clean(self):
        w = BellDiagonal([1, 0, 0, 0])
        r = breeding_mc(w, 12, r_margin=2.0, seed=4)
        # class and sign entropies vanish, so only the margin floor is spent
        assert r.targets_consumed == 2 * math.ceil(2.0 * math.sqrt(12))
        assert r.decode_correct_round1 and r.decode_correct_round2
        assert not r.tie_round1 and not r.tie_round2
        assert r.residual_error_pairs == 0
        # every Psi-free subset measures even parity
        assert all(t.parity_observed == 0 for t in r.parity_tests)

    def test_parity_test_records(self):
        w = measures.werner(0.9)
        r = breeding_mc(w, 12, r_margin=1.0, seed=31)
        assert len(r.parity_tests) == r.targets_consumed
        assert [t.target_consumed for t in r.parity_tests] == list(range(r.targets_consumed))
        for t in r.parity_tests:
            assert t.parity_observed in (0, 1)
            assert all(0 <= i < 12 for i in t.subset)

    def test_deterministic_per_stream(self):
        w = measures.werner(0.95)
        a = breeding_mc(w, 10, seed=9, stream_id=3)
        b = breeding_mc(w, 10, seed=9, stream_id=3)
        assert a == b

    def test_streams_actually_vary(self):
        # at zero margin both clean and failed decodes should show up
        w = measures.werner(0.95)
        outcomes = {
            breeding_mc(w, 10, r_margin=0.0, seed=9, stream_id=t).decode_failed
            for t in range(60)
        }
        assert outcomes == {True, False}

    def test_residual_zero_iff_both_decodes_correct(self):
        w = measures.werner(0.9)
        for t in range(150):
            r = breeding_mc(w, 10, r_margin=0.0, seed=77, stream_id=t)
            both = r.decode_correct_round1 and r.decode_correct_round2
            assert (r.residual_error_pairs == 0) == both

    def test_net_yield_identity_on_success(self):
        w = measures.werner(0.95)
        for t in range(40):
            r = breeding_mc(w, 14, r_margin=1.0, seed=13, stream_id=t)
            if r.decode_correct_round1 and r.decode_correct_round2:
                assert r.net_yield == pytest.approx((r.n - r.targets_consumed) / r.n)

    def test_budget_reporting(self):
        w = measures.werner(0.95)
        r = breeding_mc(w, 16, delta=0.05, r_margin=2.0, seed=21)
        assert r.provisioned_targets == math.ceil(16 * (measures.entropy_bell(w) + 0.05))
        assert r.budget_exceeded == (r.targets_consumed > r.provisioned_targets)

    def test_round_one_failure_rate_within_union_bound(self):
        # round 1 fails (a wrong decode or a tie) only when some y != x with
        # prior(y) >= prior(x) fits all r1 tests, each y with chance 2^-r1: so
        # its rate is at most E_x[#{y != x : prior(y) >= prior(x)}] * 2^-r1,
        # computed here exactly from the decoder's float prior
        w, n, trials, r_margin = measures.werner(0.8), 8, 20_000, 1.0
        p_psi = float(w.p[2] + w.p[3])
        r1 = math.ceil(n * measures.h2(p_psi) + r_margin * math.sqrt(n))
        q = Fraction(p_psi)
        prior = [q**k * (1 - q) ** (n - k) for k in range(n + 1)]  # of a string with k ones
        rivals = [sum(math.comb(n, j) for j in range(n + 1) if prior[j] >= prior[k]) - 1 for k in range(n + 1)]
        bound = float(sum(math.comb(n, k) * prior[k] * rivals[k] for k in range(n + 1)) / 2**r1)
        _, results = breeding_trials(w, n, trials, r_margin=r_margin, seed=1)
        rate = sum(not r.decode_correct_round1 or r.tie_round1 for r in results) / trials
        assert 0.0 < rate <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)
        assert bound < 0.1  # the margin leaves a bound that says something

    def test_margin_improves_failure_rate(self):
        w = measures.werner(0.95)
        lo, _ = breeding_trials(w, 16, 120, r_margin=1.0, seed=55)
        hi, _ = breeding_trials(w, 16, 120, r_margin=4.0, seed=55)
        assert hi.decode_failure_rate <= lo.decode_failure_rate

    def test_trial_t_runs_on_substream_t(self):
        w = measures.werner(0.95)
        _, results = breeding_trials(w, 10, 24, seed=6)
        assert results == [breeding_mc(w, 10, seed=6, stream_id=t) for t in range(24)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(BREEDING_STATES),
        st.integers(1, 20),
        st.floats(0.0, 4.0),
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
    )
    @example(BellDiagonal([1.0, 0.0, 0.0, 0.0]), 20, 0.0, 0, 9)  # no tests at all
    def test_trials_do_not_depend_on_the_chunk_size(self, w, n, r_margin, seed, trials):
        # like ensemble.CHUNK: any chunk of trials gives the same results and
        # summary, each trial equal to its own breeding_mc run
        summary, results = breeding_trials(w, n, trials, r_margin=r_margin, seed=seed)
        assert results == [
            breeding_mc(w, n, r_margin=r_margin, seed=seed, stream_id=t) for t in range(trials)
        ]
        per_trial = max(results[0].targets_consumed, 1) * n
        for per_chunk in (1, 2, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(protocols, "BREEDING_CHUNK", per_chunk * per_trial)
                chunked = breeding_trials(w, n, trials, r_margin=r_margin, seed=seed)
            assert chunked == (summary, results)

    def test_round2_with_no_prior_candidate_fails_without_raising(self):
        # round 1 misdecodes a pair, and the round-2 prior then gives the
        # true sign string zero probability
        w = BellDiagonal([0.05, 0.0, 0.0, 0.95])
        r = breeding_mc(w, 5, seed=6, stream_id=0)
        assert not r.decode_correct_round1
        assert not r.decode_correct_round2 and not r.tie_round2
        assert r.decode_failed
        assert r.residual_error_pairs > 0
        assert r.net_yield == (r.n - r.residual_error_pairs - r.targets_consumed) / r.n

    def test_zero_prior_round_is_flagged_and_corrects_nothing(self, monkeypatch):
        # at zero margin, 49 of these 300 trials misdecode round 1 so that
        # round 2 has no string of non-zero prior
        corrections = []  # each chunk's round-1 masks, then its round-2 masks
        mask_bits = protocols._mask_bits

        def recording(masks, n):
            corrections.append(list(masks))
            return mask_bits(masks, n)

        monkeypatch.setattr(protocols, "_mask_bits", recording)
        _, results = breeding_trials(BellDiagonal([0.6, 0.0, 0.2, 0.2]), 8, 300, r_margin=0.0, seed=5)
        x_hats, y_hats = (sum(corrections[i::2], []) for i in (0, 1))
        assert len(x_hats) == len(y_hats) == len(results)
        # round 1's true string always fits its tests and has non-zero prior
        assert not any(r.zero_prior_round1 for r in results)
        assert sum(r.zero_prior_round2 for r in results) == 49
        for r, y_hat in zip(results, y_hats):
            if r.zero_prior_round2:
                assert not r.decode_correct_round2 and not r.tie_round2
                assert y_hat == 0 and r.decode_failed

    def test_subsets_follow_the_subset_mask_stream(self):
        # each round draws its subsets in one call; they must be the draws
        # that successive subset_mask calls make after the label draw
        for w, n, sid in ((measures.werner(0.9), 13, 2), (BellDiagonal([0.9, 0.03, 0.04, 0.03]), 20, 5)):
            r = breeding_mc(w, n, seed=3, stream_id=sid)
            rng = ensemble.stream(3, sid)
            rng.random(n)  # the labels' uniforms
            masks = [ensemble.subset_mask(rng, n) for _ in range(r.targets_consumed)]
            assert [t.subset for t in r.parity_tests] == [
                tuple(i for i in range(n) if (m >> i) & 1) for m in masks
            ]

    def test_coset_dimensions_match_exhaustive_count(self):
        w = measures.werner(0.9)
        p = w.p
        n = 12
        r1 = math.ceil(n * measures.h2(float(p[2] + p[3])) + 2.0 * math.sqrt(n))
        for t in range(10):
            r = breeding_mc(w, n, seed=8, stream_id=t)
            rounds = (r.parity_tests[:r1], r.parity_tests[r1:])
            for tests, dim in zip(rounds, (r.coset_dim_round1, r.coset_dim_round2)):
                masks = [sum(1 << i for i in test.subset) for test in tests]
                parities = [test.parity_observed for test in tests]
                _, n_consistent, _ = _exhaustive_decode(n, masks, parities, [])
                assert n_consistent == 2**dim

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(BREEDING_STATES),
        st.integers(1, 5),
        st.floats(0.0, 3.0),
        st.integers(0, 2**32 - 1),
        st.integers(10, 60),
    )
    @example(BellDiagonal([0.6, 0.0, 0.2, 0.2]), 5, 0.0, 5, 60)  # zero-prior round 2s
    @example(measures.werner(0.8), 5, 0.5, 1, 60)  # many failures and ties
    def test_rates_match_the_exact_rates_of_the_drawn_tests(self, w, n, r_margin, seed, trials):
        # Given a trial's tests, the chance that it succeeds and its residual
        # count's distribution follow exactly from the 4^n label strings, each
        # decoded by brute force in both rounds, a tie counting as a failure.
        # The tie and zero-prior flags follow from the parities alone.
        p = w.p
        labels = np.indices((4,) * n, dtype=np.uint8).reshape(n, -1).T  # every string
        prior = p[labels].prod(axis=1)
        weights = 1 << np.arange(n)
        x = bell.amp_bit(labels) @ weights
        fixed = bell.unilateral_pauli(labels, PauliAxis.Y)
        p_psi = sum(float(p[l]) for l in range(4) if bell.amp_bit(l))
        ranks1 = _exact_prior_ranks(n, p_psi, p_psi)[:1]
        ranks2 = _exact_prior_ranks(n, _sign_prob(p, False), _sign_prob(p, True))
        r1 = math.ceil(n * measures.h2(p_psi) + r_margin * math.sqrt(n))
        summary, results = breeding_trials(w, n, trials, r_margin=r_margin, seed=seed)
        successes, residuals = [], []
        for r in results:
            masks = np.array(r.subset_masks, dtype=np.int64)
            dec1, tie1, zero1 = (a[0] for a in _brute_force_decode(n, masks[:r1], ranks1))
            dec2, tie2, zero2 = _brute_force_decode(n, masks[r1:], ranks2)
            x_hat = dec1[x]
            after1 = np.where(protocols._mask_bits(x_hat, n), fixed, labels)
            after1 = bell.bilateral_rot(after1, PauliAxis.Y)
            y = bell.amp_bit(after1) @ weights
            y_hat = dec2[x_hat, y]
            after2 = bell.unilateral_pauli(after1, PauliAxis.X)
            after2 = np.where(protocols._mask_bits(y_hat, n), after2, after1)
            ok = (x_hat == x) & ~tie1[x] & ~zero1[x]
            ok &= (y_hat == y) & ~tie2[x_hat, y] & ~zero2[x_hat, y]
            residual = np.count_nonzero(after2 != BellLabel.PHI_PLUS, axis=1)
            successes.append([1 - prior @ ok, prior @ ok])
            residuals.append(np.bincount(residual, weights=prior, minlength=n + 1))
            # the observed parities pick out a string that fits them in each round
            par = _popcount(masks[:, None] & np.arange(1 << n)) & 1
            fits = par == np.array(r.parities)[:, None]
            c1, c2 = fits[:r1].all(axis=0).argmax(), fits[r1:].all(axis=0).argmax()
            assert (r.tie_round1, r.zero_prior_round1) == (tie1[c1], zero1[c1])
            assert (r.tie_round2, r.zero_prior_round2) == (tie2[dec1[c1], c2], zero2[dec1[c1], c2])
        # the counts behind the rates that breed emits
        tail = 0.5 * math.erfc(RATE_Z / math.sqrt(2))
        for pmfs, count in (
            (successes, trials * (1 - summary.decode_failure_rate)),
            (residuals, trials * n * summary.residual_error_rate),
        ):
            observed = round(count)
            assert count == pytest.approx(observed)
            dist = _count_distribution(pmfs)
            assert dist[: observed + 1].sum() >= tail and dist[observed:].sum() >= tail

    @pytest.mark.parametrize(
        "kwargs", [{"stream_id": -1}, {"stream_id": 2**64}, {"seed": -1}, {"seed": 2**64}]
    )
    def test_seed_and_stream_id_must_fit_64_bits(self, kwargs):
        # the range is checked once per call, not where each trial is re-keyed
        (name,) = kwargs
        with pytest.raises(ValueError, match=rf"{name} must be a whole number in \[0, {2**64 - 1}\]"):
            breeding_mc(measures.werner(0.95), 5, **kwargs)
        if name == "seed":
            with pytest.raises(ValueError, match=rf"seed must be a whole number in \[0, {2**64 - 1}\]"):
                breeding_trials(measures.werner(0.95), 5, 3, **kwargs)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            breeding_mc(measures.werner(0.95), 21)

    def test_whole_floats_give_the_bytes_of_ints(self):
        # 1 << n fails on a float, so the kernel must run on the checked int
        w = measures.werner(0.95)
        assert repr(breeding_mc(w, 12.0)) == repr(breeding_mc(w, 12))
        assert repr(breeding_trials(w, 5.0, 3.0)) == repr(breeding_trials(w, 5, 3))

    @pytest.mark.parametrize("name", ["delta", "r_margin"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 1e12])
    def test_margins_must_be_finite_and_bounded(self, name, value):
        with pytest.raises(ValueError, match="delta and r_margin must lie in"):
            breeding_mc(measures.werner(0.95), 5, **{name: value})

    def test_margin_limit_accepted(self):
        r = breeding_mc(
            measures.werner(0.95),
            5,
            delta=measures.MAX_BREEDING_MARGIN,
            r_margin=measures.MAX_BREEDING_MARGIN,
        )
        assert r.targets_consumed >= 2 * measures.MAX_BREEDING_MARGIN * math.sqrt(5)


class TestParityBound:
    def test_single_subset_agrees_half_the_time(self):
        est = parity_bound_check(16, 1, 50_000, seed=8)
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    def test_ten_subsets_within_bound(self):
        est = parity_bound_check(16, 10, 200_000, seed=15)
        assert est.mean <= 2**-10 + 3 * est.std_error

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_one_bit_strings_meet_the_bound_exactly(self, r):
        # at n = 1 the two strings differ in their one bit, which a random
        # subset holds half the time, so they agree on r parities at 2^-r
        est = parity_bound_check(1, r, 40_000, seed=r)
        assert abs(est.mean - 2**-r) <= 3 * est.std_error

    def test_deterministic(self):
        assert parity_bound_check(12, 4, 1000, seed=2) == parity_bound_check(12, 4, 1000, seed=2)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match=r"n must be a whole number in \[1, 62\], got 0"):
            parity_bound_check(0, 4, 1000, seed=2)
        with pytest.raises(ValueError, match=r"n must be a whole number in \[1, 62\], got 63"):
            parity_bound_check(63, 4, 1000, seed=2)
