import math

import numpy as np
import pytest

from bellpure import ensemble, measures
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.ensemble import (
    random_axis_parallel_prob,
    random_subset,
    run_sharded,
    sample_ensemble,
    stream,
    subset_mask,
)

# chi-square critical value, 3 degrees of freedom, alpha = 0.001
CHI2_3DF_P999 = 16.266


class TestStream:
    def test_deterministic(self):
        a = stream(123).random(10)
        b = stream(123).random(10)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = stream(123, 0).random(10)
        b = stream(123, 1).random(10)
        assert not np.array_equal(a, b)

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            stream(2**64)


class TestSampleEnsemble:
    def test_point_mass_constant(self):
        ens = sample_ensemble(BellDiagonal([0, 0, 0, 1]), 1000, seed=1)
        assert (ens.labels == BellLabel.PSI_MINUS).all()

    def test_reproducible(self):
        a = sample_ensemble(measures.werner(0.7), 1000, seed=5)
        b = sample_ensemble(measures.werner(0.7), 1000, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_singlet_frequency_within_three_sigma(self):
        n = 1_000_000
        ens = sample_ensemble(measures.werner(0.7), n, seed=17)
        freq = float((ens.labels == BellLabel.PSI_MINUS).mean())
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(freq - 0.7) <= 3 * sigma

    def test_chi_square_goodness_of_fit(self):
        n = 1_000_000
        d = BellDiagonal([0.1, 0.25, 0.15, 0.5])
        ens = sample_ensemble(d, n, seed=23)
        counts = np.bincount(ens.labels, minlength=4)
        expected = d.p * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_3DF_P999

    def test_zero_probability_labels_never_drawn(self):
        ens = sample_ensemble(BellDiagonal([0.5, 0.0, 0.0, 0.5]), 100_000, seed=3)
        assert not np.isin(ens.labels, [1, 2]).any()


class TestRandomSubset:
    def test_empty_universe(self):
        assert random_subset(0, seed=0).size == 0

    def test_reproducible(self):
        assert np.array_equal(random_subset(50, seed=9), random_subset(50, seed=9))

    def test_inclusion_frequency(self):
        n, trials = 64, 2000
        total = sum(random_subset(n, seed=s).size for s in range(trials))
        freq = total / (n * trials)
        sigma = math.sqrt(0.25 / (n * trials))
        assert abs(freq - 0.5) <= 3 * sigma

    def test_subset_mask_bit_count_matches_distribution(self):
        rng = stream(4)
        counts = [bin(subset_mask(rng, 16)).count("1") for _ in range(2000)]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(16 * 0.25 / len(counts))
        assert abs(mean - 8.0) <= 3 * sigma


class TestRandomAxisParallelProb:
    def test_singlet_never_parallel(self):
        est = random_axis_parallel_prob(BellDiagonal([0, 0, 0, 1]), 20_000, seed=2)
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_uniform_mixture_half(self):
        est = random_axis_parallel_prob(BellDiagonal([0.25] * 4), 200_000, seed=8)
        assert abs(est.mean - 0.5) <= 3 * est.std_error

    @pytest.mark.parametrize("f,seed", [(0.25, 32), (0.5, 57), (0.85, 92), (1.0, 107)])
    def test_recovers_fidelity_through_relation(self, f, seed):
        est = random_axis_parallel_prob(measures.werner(f), 200_000, seed=seed)
        f_hat = measures.fidelity_from_parallel(est.mean)
        assert abs(f_hat - f) <= 3 * 1.5 * est.std_error + 1e-12

    def test_std_error_definition(self):
        est = random_axis_parallel_prob(measures.werner(0.8), 5000, seed=44)
        assert est.n == 5000
        assert est.std_error >= 0.0


class TestRunSharded:
    def test_results_independent_of_worker_count(self):
        def task(i):
            return float(stream(7, i).random(1)[0])

        serial = run_sharded(task, 16, max_workers=1)
        threaded = run_sharded(task, 16, max_workers=4)
        assert serial == threaded

    def test_respects_env_cap(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("DISTILL_THREADS", "3")
        assert ensemble.worker_cap() == 3
        monkeypatch.delenv("DISTILL_THREADS")
        assert ensemble.worker_cap() == 1

    def test_env_cap_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("DISTILL_THREADS", "100000")
        assert ensemble.worker_cap() == 2
        monkeypatch.setenv("DISTILL_THREADS", "0")
        assert ensemble.worker_cap() == 1
        monkeypatch.setattr(ensemble.os, "cpu_count", lambda: None)  # undeterminable
        monkeypatch.setenv("DISTILL_THREADS", "8")
        assert ensemble.worker_cap() == 1
