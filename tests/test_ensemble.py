import math

import numpy as np
import pytest

from bellpure import measures
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.ensemble import _sample_labels, random_axis_parallel_prob, stream, subset_mask

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
        labels = _sample_labels(stream(1), BellDiagonal([0, 0, 0, 1]), 1000)
        assert (labels == BellLabel.PSI_MINUS).all()

    def test_reproducible(self):
        a = _sample_labels(stream(5), measures.werner(0.7), 1000)
        b = _sample_labels(stream(5), measures.werner(0.7), 1000)
        assert np.array_equal(a, b)

    def test_singlet_frequency_within_three_sigma(self):
        n = 1_000_000
        labels = _sample_labels(stream(17), measures.werner(0.7), n)
        freq = float((labels == BellLabel.PSI_MINUS).mean())
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(freq - 0.7) <= 3 * sigma

    def test_chi_square_goodness_of_fit(self):
        n = 1_000_000
        d = BellDiagonal([0.1, 0.25, 0.15, 0.5])
        labels = _sample_labels(stream(23), d, n)
        counts = np.bincount(labels, minlength=4)
        expected = d.p * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_3DF_P999

    def test_zero_probability_labels_never_drawn(self):
        labels = _sample_labels(stream(3), BellDiagonal([0.5, 0.0, 0.0, 0.5]), 100_000)
        assert not np.isin(labels, [1, 2]).any()


class TestRandomSubset:
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
