import contextlib
import importlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellpure import bell, ensemble, measures, protocols, twirl
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.ensemble import (
    CHUNK,
    MAX_AXIS_TRIALS,
    _labels_from_uniforms,
    _sample_labels,
    random_axis_parallel_prob,
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

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_rekey_range_validation(self, seed, stream_id):
        # the call checks every id once, before any step, wherever it sits
        with pytest.raises(ValueError, match="must fit in an unsigned 64-bit integer"):
            ensemble.substreams(seed, [3, stream_id, 5])

    def test_rekeyed_generator_draws_like_a_new_stream(self):
        for seed, ids in ((7, [9, 0, 2**64 - 1, 9]), (2**64 - 1, [0, 1])):
            for stream_id, rng in zip(ids, ensemble.substreams(seed, ids), strict=True):
                fresh = stream(seed, stream_id)
                for draw in (
                    lambda g: g.random(5),  # a part-used Philox block
                    lambda g: g.integers(0, 2, size=(3, 5)),
                    lambda g: g.standard_normal(4),
                    lambda g: g.integers(0, 2, size=2),  # leaves a 32-bit half buffered
                ):
                    assert np.array_equal(draw(rng), draw(fresh))
                assert repr(rng.bit_generator.state) == repr(fresh.bit_generator.state)
                assert rng.bit_generator.state["has_uint32"] == 1  # for the next re-key to drop

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        ids=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
        n=st.sampled_from([1, 20]) | st.integers(1, 20),
        targets=st.sampled_from([0, 1]) | st.integers(0, 40),  # odd targets * n leaves a half
        buffered=st.booleans(),
    )
    @example(seed=0, ids=[0], n=1, targets=0, buffered=True)
    @example(seed=3, ids=[1, 2], n=20, targets=3, buffered=True)
    @example(seed=3, ids=[1], n=7, targets=3, buffered=False)
    def test_raw_words_decode_like_random_then_integers(self, seed, ids, n, targets, buffered):
        words = ensemble.raw_words(n, targets * n)
        raw = np.empty((len(ids), words), dtype=np.uint64)
        for i, rng in enumerate(ensemble.substreams(seed, ids)):
            raw[i] = rng.bit_generator.random_raw(words)
            if buffered:  # the next re-key must drop a held 32-bit half
                rng.integers(0, 2, size=1)
                assert rng.bit_generator.state["has_uint32"] == 1
        u, bits = ensemble.decode_raw(raw, n, targets * n)
        assert u.dtype == np.float64 and bits.dtype == np.uint8
        for i, rng in enumerate(ensemble.substreams(seed, ids)):
            assert np.array_equal(u[i], rng.random(n))
            assert np.array_equal(bits[i].reshape(targets, n), rng.integers(0, 2, size=(targets, n)))
            # and took raw_words words: 4 per Philox block, less those still buffered
            state = rng.bit_generator.state
            assert 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"] == words


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


#: A skewed label distribution with every label drawn.
_SKEWED = BellDiagonal([0.822, 0.028, 0.073, 0.077])


def _serial_labels(rng, n):
    """The labels of one serial random(n) on rng."""
    return _labels_from_uniforms(_SKEWED.p.cumsum(), rng.random(n), np.empty(n, dtype=np.uint8))


def _plain_state(rng):
    """The Philox state as plain ints: counter, key, buffer and both positions."""
    s = rng.bit_generator.state
    words = [[int(v) for v in a] for a in (s["state"]["counter"], s["state"]["key"], s["buffer"])]
    return words, s["buffer_pos"], s["has_uint32"], s["uinteger"]


class TestParallelDraw:
    """The sampler draws pieces of CHUNK // 2 uniforms on DRAW_THREADS threads,
    each piece on a Philox generator placed at its first word. It must draw
    what one serial random(n) draws and leave rng where that draw leaves it."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        skip=st.integers(0, 8),
        half=st.booleans(),
        chunk=st.integers(2, 16),
        n=st.integers(0, 70),
    )
    @example(seed=0, stream_id=0, skip=0, half=False, chunk=8, n=0)
    @example(seed=1, stream_id=2, skip=3, half=True, chunk=8, n=4)  # one piece, nothing split
    @example(seed=1, stream_id=2, skip=3, half=True, chunk=9, n=70)  # pieces of 4 words
    @example(seed=1, stream_id=2, skip=1, half=False, chunk=2, n=9)  # pieces of 1 word
    def test_draws_and_leaves_rng_as_one_serial_draw(self, seed, stream_id, skip, half, chunk, n):
        rng, ref = stream(seed, stream_id), stream(seed, stream_id)
        for g in (rng, ref):
            g.bit_generator.random_raw(skip)
            if half:  # a buffered 32-bit half, which random(n) must keep
                g.integers(0, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "CHUNK", chunk)
            labels = _sample_labels(rng, _SKEWED, n)
        assert np.array_equal(labels, _serial_labels(ref, n))
        assert _plain_state(rng) == _plain_state(ref)

    @pytest.mark.parametrize("counter", [2**64 - 3, 2**128 - 2, 2**192 - 5, 2**256 - 3])
    def test_pieces_carry_across_counter_words(self, monkeypatch, counter):
        # the 256-bit counter carries from one 64-bit word to the next, and
        # wraps at 2^256, inside the run
        rng, ref = (np.random.Generator(np.random.Philox(counter=counter, key=[7, 9])) for _ in range(2))
        monkeypatch.setattr(ensemble, "CHUNK", 10)
        assert np.array_equal(_sample_labels(rng, _SKEWED, 57), _serial_labels(ref, 57))
        assert _plain_state(rng) == _plain_state(ref)

    def test_more_threads_than_cores_draw_each_piece_once(self, monkeypatch):
        # the threads share one stack of pieces; a piece lost or drawn twice
        # leaves unwritten labels or draws its generator's next words
        monkeypatch.setattr(ensemble, "CHUNK", 6)
        monkeypatch.setattr(ensemble, "DRAW_THREADS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                rng, ref = stream(seed), stream(seed)
                assert np.array_equal(_sample_labels(rng, _SKEWED, 3000), _serial_labels(ref, 3000))
                assert _plain_state(rng) == _plain_state(ref)
        finally:
            sys.setswitchinterval(interval)

    def test_one_piece_starts_no_thread(self, monkeypatch, started):
        monkeypatch.setattr(ensemble, "CHUNK", 8)
        for n in (0, 1, 4):
            _sample_labels(stream(1), _SKEWED, n)
        # a generator on another bit generator is drawn serially, in pieces
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(_sample_labels(rng, _SKEWED, 40), _serial_labels(ref, 40))
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        assert started == []

    @pytest.mark.parametrize("n", [5, 12, 13, 400])
    def test_more_pieces_start_draw_threads_minus_one(self, monkeypatch, started, n):
        monkeypatch.setattr(ensemble, "CHUNK", 8)
        _sample_labels(stream(1), _SKEWED, n)
        assert len(started) == ensemble.DRAW_THREADS - 1
        assert not any(t.is_alive() for t in started)

    def test_run_sharded_keeps_shard_order(self):
        assert ensemble.run_sharded(lambda i: i * i, 4) == [0, 1, 4, 9]
        # the shards run at once, shard 0 on the calling thread and each other
        # on a thread of its own: run one after another, the first to wait at
        # the barrier would time out
        barrier = threading.Barrier(3)

        def task(i):
            barrier.wait(timeout=10)
            return i, threading.get_ident()

        results = ensemble.run_sharded(task, 3)
        assert [i for i, _ in results] == [0, 1, 2]
        idents = [ident for _, ident in results]
        assert idents[0] == threading.get_ident() and len(set(idents)) == 3

    @pytest.mark.parametrize("failing, raised", [({1}, 1), ({0}, 0), ({0, 1}, 0), ({1, 2}, 1)])
    def test_run_sharded_raises_a_shard_error_in_the_caller(self, failing, raised):
        ended = []

        def task(i):
            if i in failing:
                raise ValueError(f"shard {i} failed")
            ended.append(i)

        with pytest.raises(ValueError, match=f"shard {raised} failed"):
            ensemble.run_sharded(task, 3)
        # every shard has ended before the error is raised
        assert sorted(ended) == sorted(set(range(3)) - failing)


class TestPipelined:
    """ensemble.pipelined runs its front stage on one worker thread, at most two
    items ahead of the caller, and yields the results in order."""

    def test_yields_in_order_at_most_two_ahead(self, started):
        fronts = []

        def front(item):
            fronts.append(threading.get_ident())
            return item * item

        got = []
        for out in ensemble.pipelined(front, list(range(40))):
            # the worker has begun at most the two items after this one
            assert len(fronts) <= len(got) + 3
            got.append(out)
            time.sleep(0.001)  # time for the worker to run ahead, if it could
        assert got == [i * i for i in range(40)]
        assert len(started) == 1 and set(fronts) == {started[0].ident}
        assert not started[0].is_alive()

    def test_one_item_runs_on_the_calling_thread(self, started):
        assert list(ensemble.pipelined(lambda item: threading.get_ident(), [5])) == [threading.get_ident()]
        assert list(ensemble.pipelined(lambda item: item, [])) == []
        assert started == []

    def test_closing_stops_the_worker(self, started, within):
        fronts = []

        def take_one():
            with contextlib.closing(ensemble.pipelined(fronts.append, list(range(100)))) as outs:
                next(outs)

        assert within(30, take_one) is None
        # the helper's thread, and the worker, which made the first item and
        # at most the two after it
        assert len(started) == 2 and not started[1].is_alive()
        assert len(fronts) <= 3


#: A cdf whose last entry rounds below 1, so a uniform can reach it.
_SHORT_CDF = np.cumsum([0.822, 0.028, 0.073, 0.077])


@st.composite
def cdfs_and_uniforms(draw):
    """A label cdf (from weights with zeros, or a point mass) and uniforms at
    its entries, one float to either side of them, and anywhere in [0, 1)."""
    if draw(st.booleans()):
        p = np.zeros(4)
        p[draw(st.integers(0, 3))] = 1.0
    else:
        w = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=4, max_size=4)))
        assume(w.sum() > 0.0)
        p = w / w.sum()
    cdf = np.cumsum(p)
    at_entry = st.sampled_from(cdf.tolist()).flatmap(
        lambda c: st.sampled_from([c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)])
    )
    u = draw(st.lists(at_entry | st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40))
    return cdf, np.array(u)


class TestLabelsFromUniforms:
    """The sampler's count-compare form against the capped binary search it
    replaces."""

    @staticmethod
    def _capped_searchsorted(cdf, u):
        return np.minimum(np.searchsorted(cdf, u, side="right"), 3)

    @settings(max_examples=300, deadline=None)
    @given(cdfs_and_uniforms())
    @example((_SHORT_CDF, np.array([_SHORT_CDF[3], np.nextafter(_SHORT_CDF[3], 0.0), np.nextafter(1.0, 0.0)])))
    def test_matches_capped_searchsorted(self, case):
        cdf, u = case
        want = self._capped_searchsorted(cdf, u)
        assert np.array_equal(_labels_from_uniforms(cdf, u, np.empty(u.size, dtype=np.uint8)), want)
        # the same through a bool buffer for the compares, whatever it held
        hits = np.ones(u.size, dtype=bool)
        assert np.array_equal(_labels_from_uniforms(cdf, u, np.empty(u.size, dtype=np.uint8), hits), want)

    def test_uniform_at_a_short_last_entry_caps_at_three(self):
        assert _SHORT_CDF[3] < 1.0
        u = np.array([_SHORT_CDF[3], np.nextafter(1.0, 0.0)])
        # an uncapped search would return 4 here
        assert np.searchsorted(_SHORT_CDF, u, side="right").tolist() == [4, 4]
        assert _labels_from_uniforms(_SHORT_CDF, u, np.empty(2, dtype=np.uint8)).tolist() == [3, 3]

    def test_writes_into_the_given_slice(self):
        out = np.full(6, 9, dtype=np.uint8)
        _labels_from_uniforms(np.cumsum([0.25] * 4), np.array([0.0, 0.5, 0.99]), out[2:5])
        assert out.tolist() == [9, 9, 0, 2, 3, 9]


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

    @pytest.mark.parametrize(
        "d,n,seed,mean,std_error",
        [
            (BellDiagonal([0, 0, 0, 1]), 20_000, 2, 0.0, 0.0),
            (BellDiagonal([0.25] * 4), 200_000, 8, 0.500115, 0.001118036754273275),
            (measures.werner(0.25), 200_000, 32, 0.50051, 0.0011180362022424621),
            (measures.werner(0.5), 200_000, 57, 0.332465, 0.0010534066960121984),
            (measures.werner(0.85), 200_000, 92, 0.09979, 0.0006701955127499188),
            (measures.werner(1.0), 200_000, 107, 0.0, 0.0),
            (measures.werner(0.8), 5000, 44, 0.1266, 0.004703074715795665),
        ],
    )
    def test_estimates_pinned(self, d, n, seed, mean, std_error):
        est = random_axis_parallel_prob(d, n, seed=seed)
        assert (est.mean, est.std_error, est.n) == (mean, std_error, n)

    @pytest.mark.parametrize("n", [0, MAX_AXIS_TRIALS + 1, 1.5])
    def test_trial_count_outside_range_rejected(self, n):
        with pytest.raises(ValueError, match="n_trials"):
            random_axis_parallel_prob(measures.werner(0.8), n, seed=1)


class TestChunkInvariance:
    """The kernels draw and process CHUNK entries at a time. Their outputs must
    not depend on CHUNK, so that a numpy change which breaks this fails here
    instead of silently moving output bytes."""

    PIECES = (1, 333, 667)
    #: One pair count below, at and above each chunk boundary that a run of
    #: CHUNK labels, or of CHUNK two-pair tests, crosses.
    PAIR_COUNTS = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2, 3 * CHUNK + 5)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: rng.random(n),
            lambda rng, n: rng.integers(0, 6, size=n),
            lambda rng, n: rng.normal(size=(n, 4)),
        ],
        ids=["random", "integers", "normal"],
    )
    def test_stream_draws_do_not_depend_on_split(self, draw):
        whole_rng, split_rng = stream(9, 2), stream(9, 2)
        whole = draw(whole_rng, sum(self.PIECES))
        split = np.concatenate([draw(split_rng, k) for k in self.PIECES])
        assert np.array_equal(whole, split)
        # and both streams are left in the same state
        assert np.array_equal(whole_rng.integers(0, 6, size=9), split_rng.integers(0, 6, size=9))
        assert np.array_equal(whole_rng.random(9), split_rng.random(9))

    @staticmethod
    def _kernel_outputs(n):
        rng = stream(12, 1)
        labels = _sample_labels(rng, measures.werner(0.7), n)
        twirled = twirl.twirl_labels(labels, rng)
        return (
            labels.tobytes(),
            twirled.tobytes(),
            repr(protocols.recurrence_mc(0.8, n, 3, seed=31)),
            repr(protocols.variable_block_mc(0.75, n, seed=32)),
            repr(protocols.variable_block_mc(0.93, n, seed=33)),
        )

    @pytest.mark.parametrize("n", [6, 7, 8, 14, 15, 26, 1001])
    def test_small_chunk_matches_default(self, monkeypatch, n):
        expected = self._kernel_outputs(n)
        monkeypatch.setattr(ensemble, "CHUNK", 7)
        assert self._kernel_outputs(n) == expected

    @pytest.mark.parametrize("n", PAIR_COUNTS)
    def test_default_chunk_matches_one_piece(self, monkeypatch, n):
        expected = self._kernel_outputs(n)
        monkeypatch.setattr(ensemble, "CHUNK", 4 * CHUNK)
        assert self._kernel_outputs(n) == expected


def _traced_peak_mib(fn, *args):
    """Peak memory allocated during one call (tracemalloc sees numpy's
    buffers; what was live before the call is not traced). numpy.random is
    imported first, so that a call that is the process's first use of it
    does not trace that import, whatever ran before."""
    importlib.import_module("numpy.random")
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Working memory is the uint8 ensemble plus a few pieces (sampler,
    recurrence, blocked round) or one reused batch buffer (sampled twirl), not
    a multiple of the run size."""

    def test_recurrence_mc_at_1e7_pairs(self):
        # about 18.6 MiB: 9.5 MiB of labels and the sampler's two pieces of
        # uniforms, after which each round holds a few pieces of CHUNK // 8
        # tests. Rounds over whole chunks of 2^20 tests read 26.3 MiB, and
        # drawing all pairs at once takes ~230 MiB
        assert _traced_peak_mib(protocols.recurrence_mc, 0.8, 10**7, 4, 5) < 22

    def test_variable_block_mc_at_1e7_pairs(self):
        # about 18.6 MiB at k = 2, as for the recurrence: pieces of CHUNK // 8
        # blocks. Whole chunks of blocks read 35.1 MiB, whole-run arrays ~135
        assert _traced_peak_mib(protocols.variable_block_mc, 0.75, 10**7, 5) < 24

    def test_variable_block_mc_holds_pieces_of_long_blocks(self):
        # about 19.1 MiB at k = 4, where a piece's k + 1 label columns and its
        # int64 twirl indices grow with k: whole chunks of blocks read 52.9 MiB
        assert _traced_peak_mib(protocols.variable_block_mc, 0.94, 10**7, 5) < 24

    def test_sampled_twirl_at_1e6_rotations(self):
        # one (14, 200000) float64 batch buffer, about 21.4 MiB, into which each
        # batch is drawn; a (m, 4, 4) product buffer beside each batch's draw
        # took ~37 MiB, and a fresh array per batch ~55 MiB
        rho = bell.to_density(measures.werner(0.8))
        assert _traced_peak_mib(twirl.sampled_twirl, rho, 10**6, 5) < 32

    def test_breeding_trials_keep_tests_as_integers(self):
        # about 1.2 MiB, run alone or in the suite: 0.76 MiB of results (two
        # tuples of ints per trial) and one chunk of 2^16 test bits with its
        # decodes. A ParityTest record per test took ~3.0 MiB here, ~0.6 GiB
        # at breed's cap of 10^5 trials
        assert _traced_peak_mib(protocols.breeding_trials, measures.werner(0.95), 20, 500) < 2

    def test_breeding_scores_a_whole_space_one_row_at_a_time(self):
        # no tests at all, so each round of each trial scores all 2^20
        # strings: about 9.7 MiB, one row's candidates at a time. The 8 rows
        # at once took ~290 MiB, and a chunk of 1638 such trials would take GBs
        def run():
            protocols.breeding_trials(BellDiagonal([1, 0, 0, 0]), 20, 8, r_margin=0.0)

        assert _traced_peak_mib(run) < 27

    def test_sample_labels_holds_one_piece_per_thread(self):
        # about 12.0 MiB: 3 MiB of labels, one CHUNK // 2 piece of uniforms on
        # each of the two threads (8 MiB) and its bools for the compares (1 MiB);
        # a whole chunk per thread would read about 20 MiB
        assert _traced_peak_mib(_sample_labels, stream(1), measures.werner(0.78), 3 * CHUNK + 5) < 14

    def test_random_axis_parallel_prob_at_the_cap(self):
        # about 61 MiB; a (4, n) stack of per-label correlations took ~108 MiB
        peak = _traced_peak_mib(random_axis_parallel_prob, measures.werner(0.8), MAX_AXIS_TRIALS, 1)
        assert peak < 80
