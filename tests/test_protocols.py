import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellpure import bell, ensemble, measures, protocols
from bellpure.bell import BellDiagonal, BellLabel, MeasureParity
from bellpure.protocols import (
    NotDistillableError,
    breeding_mc,
    breeding_trials,
    density_matrix_oracle_step,
    parity_bound_check,
    recurrence_formula,
    recurrence_mc,
    recurrence_step_exact,
    recurrence_trajectory,
    variable_block_mc,
)


def random_bell_diagonal(rng) -> BellDiagonal:
    v = rng.random(4) + 1e-3
    return BellDiagonal(v / v.sum())


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


def _chain_block_reference(sources, target):
    """Reference implementation of one block using the scalar label algebra."""
    tgt = target
    out_sources = []
    for s in sources:
        s2, tgt = bell.bxor(s, tgt)
        out_sources.append(s2)
    keep = bell.measure_z(tgt) is MeasureParity.PARALLEL
    return keep, out_sources


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

    def test_deterministic(self):
        assert variable_block_mc(0.9, 5000, seed=7) == variable_block_mc(0.9, 5000, seed=7)


def _scalar_chain_parity(labels, mask):
    tgt = BellLabel.PHI_PLUS
    for i in range(len(labels)):
        if (mask >> i) & 1:
            s2, tgt = bell.bxor(BellLabel(int(labels[i])), tgt)
            assert s2 == labels[i]  # a Phi+ target never alters a source
    return 1 if bell.measure_z(tgt) is MeasureParity.ANTIPARALLEL else 0


class TestBxorParityHelper:
    def test_matches_scalar_chain_exhaustively_for_small_subsets(self):
        # all subsets of a 6-pair ensemble, several label assignments
        rng = np.random.default_rng(5)
        for _ in range(10):
            labels = ensemble._sample_labels(rng, measures.werner(0.7), 6)
            for mask in range(64):
                bits = protocols._mask_bits(mask, 6)
                assert protocols._bxor_parity(labels, bits) == _scalar_chain_parity(labels, mask)

    def test_matches_scalar_chain_on_sampled_larger_subsets(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(7, 21))
            labels = ensemble._sample_labels(rng, measures.werner(0.8), n)
            mask = int(rng.integers(0, 1 << n))
            bits = protocols._mask_bits(mask, n)
            assert protocols._bxor_parity(labels, bits) == _scalar_chain_parity(labels, mask)


    def test_one_parity_per_row_of_a_subset_matrix(self):
        rng = np.random.default_rng(7)
        labels = ensemble._sample_labels(rng, measures.werner(0.7), 9)
        bits = rng.integers(0, 2, size=(40, 9))
        masks = bits @ (1 << np.arange(9))
        expected = [_scalar_chain_parity(labels, int(m)) for m in masks]
        assert protocols._bxor_parity(labels, bits).tolist() == expected


def _exhaustive_decode(n, masks, parity_bits, prior_groups):
    """Reference decoder: scan all 2^n strings, keep those that fit every
    parity and carry non-zero prior, and pick the likeliest, smallest value
    first among exact ties. Returns (decoded, n_consistent, tie)."""
    cands = np.arange(1 << n, dtype=np.uint64)
    for mask, bit in zip(masks, parity_bits):
        par = np.bitwise_count(cands & np.uint64(mask)).astype(np.uint8) & 1
        cands = cands[par == bit]
    if cands.size == 0:
        raise RuntimeError("no parity-consistent candidate")
    n_consistent = int(cands.size)
    for mask, p in prior_groups:
        if mask == 0:
            continue
        m = np.uint64(mask)
        if p <= 0.0:
            cands = cands[np.bitwise_count(cands & m) == 0]
        elif p >= 1.0:
            cands = cands[np.bitwise_count(cands & m) == np.bitwise_count(m)]
    if cands.size == 0:
        raise RuntimeError("no candidate with non-zero prior")
    score = np.zeros(cands.size)
    for mask, p in prior_groups:
        if mask == 0 or p <= 0.0 or p >= 1.0 or p == 0.5:
            continue
        ones = np.bitwise_count(cands & np.uint64(mask)).astype(np.float64)
        score += ones * math.log2(p / (1.0 - p))
    best = cands[score == score.max()]
    return int(best.min()), n_consistent, bool(best.size > 1)


def _outcome(decoder, *args):
    try:
        return decoder(*args)
    except RuntimeError as exc:
        return "raised", str(exc)


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
    priors = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    groups = [
        (sum(1 << i for i in range(n) if owner[i] == g), draw(priors)) for g in range(n_groups)
    ]
    return n, masks, parity_bits, groups


class TestMLDecode:
    @settings(max_examples=300, deadline=None)
    @given(decode_instances())
    def test_matches_exhaustive_scan(self, instance):
        assert _outcome(protocols._ml_decode, *instance) == _outcome(_exhaustive_decode, *instance)

    def test_inconsistent_parities_raise(self):
        with pytest.raises(RuntimeError, match="no parity-consistent candidate"):
            protocols._ml_decode(4, [0b0011, 0b0110, 0b0101], [1, 1, 1], [(0b1111, 0.1)])

    def test_zero_prior_error_counts_consistent_strings(self):
        # bit 0 must be 1, but the prior forbids every 1
        with pytest.raises(protocols.ZeroPriorError, match="no candidate with non-zero prior") as exc:
            protocols._ml_decode(3, [0b001], [1], [(0b111, 0.0)])
        assert exc.value.n_consistent == 4
        assert isinstance(exc.value, RuntimeError)


class TestBreeding:
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

    def test_margin_improves_failure_rate(self):
        w = measures.werner(0.95)
        lo, _ = breeding_trials(w, 16, 120, r_margin=1.0, seed=55)
        hi, _ = breeding_trials(w, 16, 120, r_margin=4.0, seed=55)
        assert hi.decode_failure_rate <= lo.decode_failure_rate

    def test_trial_t_runs_on_substream_t(self):
        w = measures.werner(0.95)
        _, results = breeding_trials(w, 10, 24, seed=6)
        assert results == [breeding_mc(w, 10, seed=6, stream_id=t) for t in range(24)]

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

    def test_subsets_follow_the_subset_mask_stream(self):
        # each round draws its subsets in one call; they must be the draws
        # that successive subset_mask calls make after the label draw
        for w, n, sid in ((measures.werner(0.9), 13, 2), (BellDiagonal([0.9, 0.03, 0.04, 0.03]), 20, 5)):
            r = breeding_mc(w, n, seed=3, stream_id=sid)
            rng = ensemble.stream(3, sid)
            ensemble._sample_labels(rng, w, n)
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

    def test_size_limit(self):
        with pytest.raises(ValueError):
            breeding_mc(measures.werner(0.95), 21)

    @pytest.mark.parametrize("name", ["delta", "r_margin"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 1e12])
    def test_margins_must_be_finite_and_bounded(self, name, value):
        with pytest.raises(ValueError, match="delta and r_margin must lie in"):
            breeding_mc(measures.werner(0.95), 5, **{name: value})

    def test_margin_limit_accepted(self):
        r = breeding_mc(
            measures.werner(0.95),
            5,
            delta=protocols.MAX_BREEDING_MARGIN,
            r_margin=protocols.MAX_BREEDING_MARGIN,
        )
        assert r.targets_consumed >= 2 * protocols.MAX_BREEDING_MARGIN * math.sqrt(5)


class TestParityBound:
    def test_single_subset_agrees_half_the_time(self):
        est = parity_bound_check(16, 1, 50_000, seed=8)
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    def test_ten_subsets_within_bound(self):
        est = parity_bound_check(16, 10, 200_000, seed=15)
        assert est.mean <= 2**-10 + 3 * est.std_error

    def test_deterministic(self):
        assert parity_bound_check(12, 4, 1000, seed=2) == parity_bound_check(12, 4, 1000, seed=2)
