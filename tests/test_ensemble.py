import ast
import importlib
import math
import pathlib
import re
import sys
import threading
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

    @pytest.mark.parametrize(
        "seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (0, 2.5), (0, math.nan)]
    )
    def test_rekey_range_validation(self, seed, stream_id):
        # the call checks every id once, before any step, wherever it sits:
        # one between the smallest and the largest is not truncated
        name = "stream_id" if seed == 0 else "seed"
        with pytest.raises(ValueError, match=rf"{name} must be a whole number in \[0, {2**64 - 1}\]"):
            ensemble.substreams(seed, [0, stream_id, 5])

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
        labels = _sample_labels(BellDiagonal([0, 0, 0, 1]), 1000, 1, 0, 1)
        assert (labels == BellLabel.PSI_MINUS).all()

    def test_reproducible(self):
        a = _sample_labels(measures.werner(0.7), 1000, 5, 0, 1)
        b = _sample_labels(measures.werner(0.7), 1000, 5, 0, 1)
        assert np.array_equal(a, b)

    def test_singlet_frequency_within_three_sigma(self):
        n = 1_000_000
        labels = _sample_labels(measures.werner(0.7), n, 17, 0, 1)
        freq = float((labels == BellLabel.PSI_MINUS).mean())
        sigma = math.sqrt(0.7 * 0.3 / n)
        assert abs(freq - 0.7) <= 3 * sigma

    def test_chi_square_goodness_of_fit(self):
        n = 1_000_000
        d = BellDiagonal([0.1, 0.25, 0.15, 0.5])
        labels = _sample_labels(d, n, 23, 0, 1)
        counts = np.bincount(labels, minlength=4)
        expected = d.p * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_3DF_P999

    def test_zero_probability_labels_never_drawn(self):
        labels = _sample_labels(BellDiagonal([0.5, 0.0, 0.0, 0.5]), 100_000, 3, 0, 1)
        assert not np.isin(labels, [1, 2]).any()


#: A skewed label distribution with every label drawn.
_SKEWED = BellDiagonal([0.822, 0.028, 0.073, 0.077])


def _at(seed, stream_id, piece, stage):
    """A new generator at piece `piece` of stage `stage` of stream (seed,
    stream_id), built by Philox itself at counter words (0, piece, stage, 0)."""
    words = np.array([0, piece, stage, 0, seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=words[:4], key=words[4:]))


def _piece_labels(seed, stream_id, stage, n, piece):
    """The labels of _SKEWED drawn in pieces of `piece` uniforms, each at its
    own position."""
    cdf = _SKEWED.p.cumsum()
    return np.concatenate(
        [np.empty(0, dtype=np.uint8)]
        + [
            _labels_from_uniforms(cdf, _at(seed, stream_id, j, stage).random(hi - lo), np.empty(hi - lo, np.uint8))
            for j, (lo, hi) in enumerate(ensemble.chunks(n, piece))
        ]
    )


class TestKeyedDraw:
    """The sampler draws piece j of CHUNK // 2 uniforms at its own Philox
    position, counter words (0, j, stage, 0) of the stream's key, on at most
    DRAW_THREADS threads."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        stage=st.integers(1, 2**64 - 1),
        chunk=st.integers(2, 16),
        n=st.integers(0, 70),
    )
    @example(seed=0, stream_id=0, stage=1, chunk=8, n=0)
    @example(seed=1, stream_id=2, stage=3, chunk=8, n=4)  # one piece, nothing split
    @example(seed=1, stream_id=2, stage=3, chunk=9, n=70)  # pieces of 4 words
    @example(seed=1, stream_id=2, stage=2**64 - 1, chunk=2, n=9)  # pieces of 1 word
    def test_each_piece_draws_at_its_own_position(self, seed, stream_id, stage, chunk, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "CHUNK", chunk)
            labels = _sample_labels(_SKEWED, n, seed, stream_id, stage)
        assert np.array_equal(labels, _piece_labels(seed, stream_id, stage, n, chunk // 2))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.integers(0, 2**64 - 1),
        piece=st.integers(0, 2**64 - 1),
        stage=st.integers(0, 2**64 - 1),
        before=st.integers(0, 9),
    )
    @example(seed=7, stream_id=9, piece=0, stage=0, before=3)
    def test_placer_loads_the_position_that_philox_is_built_at(self, seed, stream_id, piece, stage, before):
        place = ensemble._placer(seed)
        rng = place(3, 5, 7)
        rng.bit_generator.random_raw(before)
        rng.integers(0, 2, size=3)  # leaves a 32-bit half buffered, for the load to drop
        assert place(stream_id, piece, stage) is rng
        ref = _at(seed, stream_id, piece, stage)
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        for draw in (lambda g: g.random(5), lambda g: g.integers(0, 2, size=3), lambda g: g.standard_normal(4)):
            assert np.array_equal(draw(rng), draw(ref))

    def test_piece_zero_of_stage_zero_is_the_stream(self):
        assert np.array_equal(ensemble._placer(4)(6).random(9), stream(4, 6).random(9))

    def test_positions_are_loaded_in_one_place(self):
        # a state load, advance or jump anywhere but in _placer would place
        # draws outside the keyed positions
        src = pathlib.Path(ensemble.__file__).parent
        tree = ast.parse((src / "ensemble.py").read_text())
        (helper,) = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_placer")
        placing = re.compile(r"bit_generator\.state\s*=(?!=)|\.advance\(|\.jumped\(")
        hits = [
            (path.name, i)
            for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if placing.search(line)
        ]
        assert hits, "_placer no longer holds the load this scan looks for"
        assert all(name == "ensemble.py" and helper.lineno <= i <= helper.end_lineno for name, i in hits), hits

    def test_more_threads_than_cores_draw_each_piece_once(self, monkeypatch):
        # the threads share one stack of pieces; a piece lost or drawn twice
        # leaves unwritten or wrong labels
        monkeypatch.setattr(ensemble, "CHUNK", 6)
        monkeypatch.setattr(ensemble, "DRAW_THREADS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                assert np.array_equal(_sample_labels(_SKEWED, 3000, seed, 1, 1), _piece_labels(seed, 1, 1, 3000, 3))
        finally:
            sys.setswitchinterval(interval)

    def test_one_piece_starts_no_thread(self, monkeypatch, started):
        monkeypatch.setattr(ensemble, "CHUNK", 8)
        for n in (0, 1, 4):
            assert np.array_equal(_sample_labels(_SKEWED, n, 1, 0, 1), _piece_labels(1, 0, 1, n, 4))
        assert started == []

    @pytest.mark.parametrize("n", [5, 12, 13, 400])
    def test_more_pieces_start_draw_threads_minus_one(self, monkeypatch, started, n):
        monkeypatch.setattr(ensemble, "CHUNK", 8)
        _sample_labels(_SKEWED, n, 1, 0, 1)
        assert len(started) == ensemble.DRAW_THREADS - 1
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("n_pieces, threads", [(0, 1), (1, 1), (2, 2), (5, 2)])
    def test_each_thread_gets_a_generator_of_its_own(self, n_pieces, threads):
        at = ensemble.piece_placers(3, 4, n_pieces)
        assert len(at) == threads
        assert len({id(place(0, 1)) for place in at}) == threads

    def test_no_piece_runs_nothing_and_starts_no_thread(self, started):
        ran = []
        ensemble.run_sharded(lambda j, t: ran.append(j), 0)
        assert ran == [] and started == []

    def test_run_sharded_runs_the_threads_at_once(self, monkeypatch):
        # thread 0 is the calling thread and each other a thread of its own:
        # run one after another, the first to wait at the barrier would time
        # out, and each thread takes one piece as it waits on its first
        monkeypatch.setattr(ensemble, "DRAW_THREADS", 3)
        barrier, idents = threading.Barrier(3), [None] * 3

        def work(j, t):
            barrier.wait(timeout=10)
            idents[t] = threading.get_ident()

        ensemble.run_sharded(work, 3)
        assert idents[0] == threading.get_ident() and len(set(idents)) == 3

    @pytest.mark.parametrize("failing, raised", [({1}, 1), ({0}, 0), ({0, 1}, 0), ({1, 2}, 1)])
    def test_run_sharded_raises_the_first_thread_error_in_the_caller(self, monkeypatch, failing, raised):
        monkeypatch.setattr(ensemble, "DRAW_THREADS", 3)
        barrier, ended = threading.Barrier(3), []

        def work(j, t):
            barrier.wait(timeout=10)  # so that each thread takes one piece
            if t in failing:
                raise ValueError(f"thread {t} failed")
            ended.append(t)

        with pytest.raises(ValueError, match=f"thread {raised} failed"):
            ensemble.run_sharded(work, 3)
        # every thread has ended before the error is raised
        assert sorted(ended) == sorted(set(range(3)) - failing)

    def test_a_thread_whose_piece_raises_takes_no_more(self, monkeypatch, started):
        monkeypatch.setattr(ensemble, "DRAW_THREADS", 2)
        ran = []

        def work(j, t):
            if j == 0:
                raise ValueError("piece 0 failed")
            ran.append((j, t))

        with pytest.raises(ValueError, match="piece 0 failed"):
            ensemble.run_sharded(work, 40)
        # piece 0 is the first taken, so the thread that took it took no other,
        # and the other thread ran the rest
        assert sorted(j for j, _ in ran) == list(range(1, 40)) and len({t for _, t in ran}) == 1
        assert not started[0].is_alive()


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
            (BellDiagonal([0.25] * 4), 200_000, 8, 0.501585, 0.0011180311663113172),
            (measures.werner(0.25), 200_000, 32, 0.50034, 0.0011180365253552142),
            (measures.werner(0.5), 200_000, 57, 0.335755, 0.001055994069818755),
            (measures.werner(0.85), 200_000, 92, 0.099775, 0.0006701507236323498),
            (measures.werner(1.0), 200_000, 107, 0.0, 0.0),
            (measures.werner(0.8), 5000, 44, 0.1332, 0.00480584760830458),
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
    """twirl.twirl_labels draws its indices CHUNK at a time on one generator.
    Its output must not depend on CHUNK, so that a numpy change which breaks
    this fails here instead of silently moving output bytes."""

    PIECES = (1, 333, 667)

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: rng.random(n),
            lambda rng, n: rng.integers(0, 6, size=n),
            lambda rng, n: rng.normal(size=(n, 4)),
            lambda rng, n: rng.standard_normal(out=np.empty((n, 4))),
        ],
        ids=["random", "integers", "normal", "standard_normal_out"],
    )
    def test_stream_draws_do_not_depend_on_split(self, draw):
        whole_rng, split_rng = stream(9, 2), stream(9, 2)
        whole = draw(whole_rng, sum(self.PIECES))
        split = np.concatenate([draw(split_rng, k) for k in self.PIECES])
        assert np.array_equal(whole, split)
        # and both streams are left in the same state
        assert np.array_equal(whole_rng.integers(0, 6, size=9), split_rng.integers(0, 6, size=9))
        assert np.array_equal(whole_rng.random(9), split_rng.random(9))

    @pytest.mark.parametrize("n", [6, 7, 8, 14, 15, 1001])
    def test_twirl_labels_small_chunk_matches_default(self, monkeypatch, n):
        labels = _sample_labels(_SKEWED, n, 12, 1, 1)

        def twirled():
            rng = stream(12, 2)
            return twirl.twirl_labels(labels, rng).tobytes(), rng.random(1)[0]

        expected = twirled()
        monkeypatch.setattr(ensemble, "CHUNK", 7)
        assert twirled() == expected


def _kernel_outputs():
    """The sampler, the purification round at k = 1, 2 and 4 (on labels drawn
    serially, so that only the round runs pieces), the sampled twirl and the
    two Monte Carlo runs, each over several pieces."""
    parts = [_sample_labels(_SKEWED, 1001, 12, 1, 1).tobytes()]
    for k in (1, 2, 4):
        labels = stream(40 + k).choice(4, 150 * (k + 1), p=_SKEWED.p).astype(np.uint8)
        out = protocols._purify_round(labels, 150, k, 41, k, 2)
        parts += [out, labels[: out[0] * k].tobytes()]
    avg, report = twirl.sampled_twirl(bell.label_projector(BellLabel.PHI_PLUS), 400, 13, 2)
    return (
        *parts,
        avg.mat.tobytes(),
        report,
        repr(protocols.recurrence_mc(0.8, 1001, 3, seed=31)),
        repr(protocols.variable_block_mc(0.75, 1001, seed=32)),
        repr(protocols.variable_block_mc(0.93, 1001, seed=33)),
    )


def _default_size_outputs():
    """Three sampler pieces, three round pieces and three twirl pieces at the
    default piece sizes."""
    labels = stream(44).choice(4, 2 * (CHUNK // 4 + 5), p=_SKEWED.p).astype(np.uint8)
    out = protocols._purify_round(labels, CHUNK // 4 + 5, 1, 45, 0, 2)
    avg, report = twirl.sampled_twirl(bell.label_projector(BellLabel.PHI_PLUS), 2 * twirl.TWIRL_PIECE + 1, 46)
    return _sample_labels(_SKEWED, CHUNK + 3, 43, 0, 1).tobytes(), out, labels.tobytes(), avg.mat.tobytes(), report


class TestThreadCountInvariance:
    """Each piece draws at its own position, so the kernels' bytes do not
    depend on DRAW_THREADS or on which thread ran which piece. They are
    compared with a run on the calling thread alone."""

    THREADS = [(1, True), (2, False), (2, True), (8, False), (8, True)]

    @staticmethod
    def _run(outputs, threads, switch):
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ensemble, "DRAW_THREADS", threads)
            if switch:  # the threads swap often, inside the pieces
                sys.setswitchinterval(1e-6)
            try:
                return outputs()
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads, switch", THREADS)
    def test_small_pieces_give_the_bytes_of_one_thread(self, monkeypatch, threads, switch):
        # sampler pieces of 28 uniforms, round pieces of 7 blocks, twirl pieces
        # of 37 rotations
        monkeypatch.setattr(ensemble, "CHUNK", 56)
        monkeypatch.setattr(twirl, "TWIRL_PIECE", 37)
        assert self._run(_kernel_outputs, threads, switch) == self._run(_kernel_outputs, 1, False)

    @pytest.fixture(scope="class")
    def one_thread(self):
        return self._run(_default_size_outputs, 1, False)

    @pytest.mark.parametrize("threads, switch", THREADS)
    def test_default_pieces_give_the_bytes_of_one_thread(self, one_thread, threads, switch):
        assert self._run(_default_size_outputs, threads, switch) == one_thread


class TestPositions:
    """Every piece that a kernel places has a position of its own, at a stage
    above 0, and its draws step only the lowest counter word."""

    @pytest.fixture
    def placed(self, monkeypatch):
        """The (seed, stream id, stage, piece) of each piece placed, and a
        function that returns the largest count of Philox blocks that one
        piece's draws have taken."""
        positions, most, pending = [], [0], []
        make_placer = ensemble._placer

        def took(rng, piece, stage):  # the blocks that a piece's draws took
            counter = [int(v) for v in rng.bit_generator.state["state"]["counter"]]
            assert counter[1:] == [piece, stage, 0], "a piece's draws reached the next position"
            most[0] = max(most[0], counter[0])

        def recording_placer(seed):
            place, last = make_placer(seed), []
            pending.append(last)

            def recording(stream_id, piece=0, stage=0):
                if last:
                    took(*last.pop())
                positions.append((seed, stream_id, stage, piece))
                last.append((place(stream_id, piece, stage), piece, stage))
                return last[-1][0]

            return recording

        def most_blocks():
            for last in pending:
                if last:
                    took(*last.pop())
            return most[0]

        monkeypatch.setattr(ensemble, "_placer", recording_placer)
        return positions, most_blocks

    @staticmethod
    def _stages(positions):
        """{stage: sorted pieces} of one call's positions, which must be
        distinct, under one key and above stage 0."""
        assert len(set(positions)) == len(positions) and len({p[:2] for p in positions}) == 1
        stages = {}
        for _, _, stage, piece in positions:
            stages.setdefault(stage, []).append(piece)
        assert 0 not in stages
        return {stage: sorted(pieces) for stage, pieces in stages.items()}

    def test_every_piece_of_every_kernel_has_a_position_of_its_own(self, monkeypatch, placed):
        positions, most_blocks = placed
        monkeypatch.setattr(ensemble, "CHUNK", 64)  # sampler pieces of 32, round pieces of 8 blocks
        monkeypatch.setattr(twirl, "TWIRL_PIECE", 37)
        pieces = lambda n, step: list(range(-(-n // step)))
        kept = [st.n_kept for st in protocols.recurrence_mc(0.8, 1000, 4, 5).steps]
        assert self._stages(positions) == {
            1: pieces(1000, 32),
            **{1 + s: pieces(n // 2, 8) for s, n in enumerate([1000] + kept[:3], start=1)},
        }
        positions.clear()
        assert protocols.variable_block_mc(0.9, 1000, 6).k == 3
        assert self._stages(positions) == {1: pieces(1000, 32), 2: pieces(250, 8)}
        positions.clear()
        twirl.sampled_twirl(bell.label_projector(BellLabel.PHI_PLUS), 400, 7, 3)
        assert self._stages(positions) == {1: pieces(400, 37)}
        assert all(p[:2] == (7, 3) for p in positions)
        positions.clear()
        monkeypatch.setattr(ensemble, "CHUNK", CHUNK)
        random_axis_parallel_prob(measures.werner(0.8), MAX_AXIS_TRIALS, 8)
        assert self._stages(positions) == {1: pieces(MAX_AXIS_TRIALS, CHUNK // 2)}
        # a piece of CHUNK // 2 uniforms takes CHUNK // 8 blocks, far below 2^64
        assert most_blocks() == CHUNK // 8 < 2**64


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
    """Working memory is the uint8 ensemble plus one piece per thread (sampler,
    recurrence, blocked round) or one piece's buffers per thread (sampled
    twirl), not a multiple of the run size."""

    def test_recurrence_mc_at_1e7_pairs(self):
        # about 18.6 MiB: 9.5 MiB of labels and the sampler's two pieces of
        # uniforms, after which each round holds one piece of CHUNK // 8 tests
        # per thread. Rounds over whole chunks of 2^20 tests read 26.3 MiB, and
        # drawing all pairs at once takes ~230 MiB
        assert _traced_peak_mib(protocols.recurrence_mc, 0.8, 10**7, 4, 5) < 22

    def test_variable_block_mc_at_1e7_pairs(self):
        # about 18.6 MiB at k = 2, as for the recurrence: one piece of
        # CHUNK // 8 blocks per thread. Whole chunks of blocks read 35.1 MiB,
        # whole-run arrays ~135
        assert _traced_peak_mib(protocols.variable_block_mc, 0.75, 10**7, 5) < 24

    def test_variable_block_mc_holds_pieces_of_long_blocks(self):
        # about 22.5 MiB at k = 4, where a piece's k + 1 label columns and its
        # int64 twirl indices (4 MiB) grow with k, and each of the two threads
        # holds a piece's at once; with the twirl on the calling thread alone,
        # 19.1 MiB. Whole chunks of blocks read 52.9 MiB
        assert _traced_peak_mib(protocols.variable_block_mc, 0.94, 10**7, 5) < 24

    def test_sampled_twirl_at_1e6_rotations(self):
        # about 10.8 MiB: on each of the two threads, one (TWIRL_PIECE, 4)
        # float64 piece of normals (1.5 MiB) and one (10, TWIRL_PIECE) product
        # buffer (3.8 MiB), whose first two rows hold the piece's norm before
        # its products. A (10, 4 * TWIRL_PIECE) product buffer summed once per
        # four pieces, beside three pieces of normals, read 19.9 MiB; a
        # (m, 4, 4) product buffer beside each batch's draw ~37 MiB
        rho = bell.to_density(measures.werner(0.8))
        assert _traced_peak_mib(twirl.sampled_twirl, rho, 10**6, 5) < 13

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
        assert _traced_peak_mib(_sample_labels, measures.werner(0.78), 3 * CHUNK + 5, 1, 0, 1) < 14

    def test_sample_labels_of_one_piece_hold_that_piece_only(self):
        # about 15 KiB: 1000 labels, uniforms and bools; buffers of a whole
        # CHUNK // 2 piece would read 4.5 MiB
        assert _traced_peak_mib(_sample_labels, measures.werner(0.7), 1000, 1, 0, 1) < 1 / 16

    def test_random_axis_parallel_prob_at_the_cap(self):
        # about 61 MiB; a (4, n) stack of per-label correlations took ~108 MiB
        peak = _traced_peak_mib(random_axis_parallel_prob, measures.werner(0.8), MAX_AXIS_TRIALS, 1)
        assert peak < 80
