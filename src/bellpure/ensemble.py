"""Seeded, splittable randomness plus the label-sampling and measurement
statistics shared by every Monte Carlo operation.

Stream contract (stable across versions): ``stream(seed, stream_id)`` is a
numpy Generator over the Philox4x64-10 counter-based bit generator keyed by
the pair (seed, stream_id) with a zero counter. Distinct ids give provably
non-overlapping streams; independent trial t of a seeded run draws from
substream (seed, t). ``substreams(seed, stream_ids)`` yields stream(seed, t)
for each id in turn as one generator re-keyed to each, drawing the same values.

The contract covers raw words too: right after a re-key, ``random(n)`` then
``integers(0, 2, size=m)`` take raw_words(n, m) = n + ceil(m / 2) words of
``bit_generator.random_raw``, and decode_raw recovers both draws. Uniform i
is (word_i >> 11) * 2**-53 (numpy's next_double); bit j is bit 31 of 32-bit
half j of the words after those, low half first (numpy's never-rejecting
Lemire path for integers(0, 2) at int64); an odd m leaves a half unused.
decode_raw reads the halves by value, so the host's byte order does not matter.

Chunk invariance: the label sampler, twirl.twirl_labels and the purification
round behind protocols.recurrence_mc and variable_block_mc process at most
CHUNK labels or blocks at a time: the sampler a piece of CHUNK // 2 on each of
its two threads, the round pieces of CHUNK // 8 blocks through a two-stage
pipeline (pipelined), which tests and compacts a piece on a worker thread
while the calling thread twirls an earlier one in order. So their working
memory is the uint8 label ensemble (one byte per pair) plus a few pieces; only
variable_block_mc at F = 1, whose one block holds the whole run, is
unbounded. Their output does
not depend on CHUNK, because these draws return the same values whether made
whole or in pieces: ``random(n)``, ``normal`` and ``integers(0, k, size=n)``
at the default int64 dtype. A narrower dtype breaks this: ``integers(0, 6,
size=n, dtype=np.uint8)`` draws other values than the int64 call, and split
into pieces it draws other values again, so the kernels keep the int64 draw.
The test suite pins chunk invariance.

Positioned draws: Philox is counter-based, and ``random(n)`` takes exactly n
raw words, one per double (it neither reads nor sets the buffered 32-bit
half). So the part of a draw that starts w words in can be drawn on a
generator of its own placed w words ahead, and it draws the serial values.
The label sampler draws its pieces so on DRAW_THREADS threads (run_sharded)
and leaves the caller's generator where the serial draw would.
"""
from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .bell import BellDiagonal, BellLabel


#: Largest number of entries a Monte Carlo kernel draws or processes at once.
CHUNK = 1 << 20

#: Threads that draw the label sampler's uniforms, the calling thread included.
DRAW_THREADS = 2


def chunks(n: int, step: int | None = None):
    """(lo, hi) bounds that cover range(n) in pieces of at most step, by
    default CHUNK."""
    step = CHUNK if step is None else step
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _key(seed: int, stream_id: int) -> list[int]:
    """The Philox key of stream (seed, stream_id), both ints checked to fit 64 bits."""
    seed, stream_id = int(seed), int(stream_id)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if not 0 <= stream_id < 2**64:
        raise ValueError("stream_id must fit in an unsigned 64-bit integer")
    return [seed, stream_id]


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent random stream for (seed, stream_id); see module docstring."""
    key = np.array(_key(seed, stream_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substreams(seed: int, stream_ids) -> Iterator[np.random.Generator]:
    """stream(seed, t) for each id t in stream_ids, in order, as one generator
    re-keyed at each step: the new key, a zero counter, no buffered block and no
    buffered 32-bit half. It then draws what a new stream would, without the
    cost of building one (Philox(key=...) first seeds itself from OS entropy it
    then drops). The call checks the seed and the ids' range once; a step only
    sets the stream id in one prepared Philox state and loads that state."""
    rng = stream(seed)
    if stream_ids:
        _key(seed, min(stream_ids))
        _key(seed, max(stream_ids))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": _key(seed, 0)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    key, bit_generator = state["state"]["key"], rng.bit_generator

    def rekeyed():
        for t in stream_ids:
            key[1] = int(t)
            bit_generator.state = state
            yield rng

    return rekeyed()


def raw_words(n_uniforms: int, n_bits: int) -> int:
    """Raw words that random(n_uniforms), integers(0, 2, size=n_bits) take."""
    return n_uniforms + (n_bits + 1) // 2


def decode_raw(words: np.ndarray, n_uniforms: int, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, n_uniforms) float64 uniforms and (rows, n_bits) uint8 bits
    that each row of raw words, drawn right after a re-key, stands for."""
    uniforms = (words[:, :n_uniforms] >> np.uint64(11)) * 2.0**-53
    # byte 3 of each little-endian 32-bit half holds the half's bit 31 as bit 7
    data = words[:, n_uniforms:].astype("<u8", copy=False).view(np.uint8)
    return uniforms, data[:, 3::4][:, :n_bits] >> 7


def run_sharded(task, n_shards: int) -> list:
    """Run task(shard_index) for every shard, shard 0 on the calling thread and
    each other shard on a thread of its own, and return the results in shard
    order once all have ended. An exception raised by a shard is raised here;
    the first in shard order, if several shards raise."""
    results, errors = [None] * n_shards, [None] * n_shards

    def run(i):
        try:
            results[i] = task(i)
        except BaseException as exc:
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, n_shards)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def pipelined(front, items):
    """Yield front(item) for each item in order, computed on one worker thread
    at most two items ahead of the caller. An exception raised by front is
    raised here. Closing the generator (contextlib.closing), as when the
    caller raises, stops the worker; the worker has ended when the generator
    has. A single item is computed on the calling thread, with no thread."""
    if len(items) <= 1:
        yield from map(front, items)
        return
    done, stop = [], threading.Event()
    ready, room = threading.Semaphore(0), threading.Semaphore(2)

    def work():
        try:
            for item in items:
                room.acquire()
                if stop.is_set():
                    return
                done.append(front(item))
                ready.release()
        except BaseException as exc:
            done.append(exc)
            ready.release()

    worker = threading.Thread(target=work)
    worker.start()
    try:
        for _ in items:
            ready.acquire()
            out = done.pop(0)
            if isinstance(out, BaseException):
                raise out
            room.release()
            yield out
    finally:
        stop.set()
        room.release()  # for a worker waiting for room
        worker.join()


class EstimateWithError(NamedTuple):
    mean: float
    std_error: float
    n: int


def _labels_from_uniforms(cdf: np.ndarray, u: np.ndarray, out: np.ndarray, hits=None) -> np.ndarray:
    """Write into out, for each uniform u, the count of cdf[0], cdf[1] and
    cdf[2] that are <= u: its label under the non-decreasing 4-entry cdf. The
    last two compares go through the bool array hits, if one is given."""
    np.greater_equal(u, cdf[0], out=out)
    out += np.greater_equal(u, cdf[1], out=hits)
    out += np.greater_equal(u, cdf[2], out=hits)
    return out


def _ahead(state: dict, words: int, bit_generator: np.random.Philox) -> None:
    """Load into bit_generator the Philox state that the state dict reaches
    after drawing words (>= 1) more raw words: the 256-bit counter of the block
    that holds the last of them, that block buffered and the position past it.
    The buffered 32-bit half is kept, as random(n) neither reads nor sets it."""
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    # the last word's index in the stream, whose word 0 is block 1's first
    block, pos = divmod(4 * counter + state["buffer_pos"] - 5 + words, 4)
    bit_generator.state = {
        **state,
        "state": {
            "counter": [(block >> (64 * i)) & (2**64 - 1) for i in range(4)],
            "key": state["state"]["key"],
        },
        "buffer_pos": 4,
    }
    bit_generator.random_raw(pos + 1)


def _sample_labels(rng: np.random.Generator, d: BellDiagonal, n: int) -> np.ndarray:
    """n i.i.d. label draws by inverse CDF on the 4-vector (uint8 array),
    drawn in pieces of CHUNK // 2 uniforms on DRAW_THREADS threads.

    Piece k is drawn on a Philox generator placed at its first word, piece 0
    on rng itself, and rng is then left in the state a serial rng.random(n)
    leaves; so the labels and every later draw are those of the serial draw,
    whichever thread drew which piece. Each thread holds one piece's uniforms
    at a time. A run of one piece, or an rng on another bit generator, is
    drawn serially on rng and starts no thread.

    A uniform u maps to the count of the cdf's first three entries that are
    <= u, written in place by three compares. That is the integer
    minimum(searchsorted(cdf, u, side="right"), 3): side="right" counts the
    entries <= u, and as the cdf is non-decreasing, cdf[3] <= u (possible when
    cdf[3] rounds below 1) makes the other three compares true as well, which
    is the cap at 3. On 4 entries the compares cost less than the search."""
    cdf = d.p.cumsum()
    out = np.empty(n, dtype=np.uint8)
    piece = CHUNK // 2
    bounds = list(chunks(n, piece))
    if len(bounds) <= 1 or not isinstance(rng.bit_generator, np.random.Philox):
        for lo, hi in bounds:
            _labels_from_uniforms(cdf, rng.random(hi - lo), out[lo:hi])
        return out
    # the generators and buffers (the uniforms and the compares' bools) are
    # made on the calling thread, so that the threads only draw and compare: a
    # buffer freed on a thread of its own would stay resident in that thread's
    # malloc arena
    start, gens = rng.bit_generator.state, [rng]
    for lo, _ in bounds[1:]:
        gens.append(np.random.Generator(np.random.Philox()))
        _ahead(start, lo, gens[-1].bit_generator)
    threads = min(DRAW_THREADS, len(bounds))
    uniforms, hits = np.empty((threads, piece)), np.empty((threads, piece), dtype=bool)
    # each thread takes the next piece off a shared stack, so that a thread
    # that gets less of the cpu draws fewer pieces; list.pop is atomic, and
    # below the pieces lies one None per thread, at which it stops
    todo = [None] * threads + list(range(len(bounds)))[::-1]

    def draw(shard):
        for k in iter(todo.pop, None):
            lo, hi = bounds[k]
            u = gens[k].random(out=uniforms[shard, : hi - lo])
            _labels_from_uniforms(cdf, u, out[lo:hi], hits[shard, : hi - lo])

    run_sharded(draw, threads)
    _ahead(start, n, rng.bit_generator)
    return out


def pack_bits(bits) -> int:
    """Pack a 0/1 sequence into an integer, element i as bit i."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def subset_mask(rng: np.random.Generator, n: int) -> int:
    """Random subset of n positions packed into an integer bit mask
    (bit i set means position i is in the subset)."""
    return pack_bits(rng.integers(0, 2, size=n))


#: Most trials random_axis_parallel_prob accepts. Every trial's axis, label
#: and outcome are held at once: a traced peak of about 64 bytes per trial.
MAX_AXIS_TRIALS = 10**6

#: Per-label signs s of the same-axis correlation <(n.s)(n.s)> = sum_i s_i n_i^2
#: for the three triplets (Bell order); the singlet row is unused, because the
#: singlet is perfectly anti-correlated along every axis.
_AXIS_SIGNS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [0, 0, 0]], dtype=np.int8)


def random_axis_parallel_prob(d: BellDiagonal, n_trials: int, seed: int) -> EstimateWithError:
    """Estimate the probability of equal outcomes when both spins of a pair
    are measured along one shared random axis.

    Per trial: draw a random axis and a label, evaluate that label's parallel
    probability for the axis in closed form, then sample the outcome once.
    Sampling the outcome from the exact per-trial probability halves the
    variance of sampling both spins while staying unbiased. Raises ValueError
    unless n_trials is a whole number in [1, MAX_AXIS_TRIALS].
    """
    if not (1 <= n_trials <= MAX_AXIS_TRIALS and n_trials % 1 == 0):
        raise ValueError(
            f"n_trials must be a whole number in [1, {MAX_AXIS_TRIALS}], got {n_trials!r}"
        )
    n_trials = int(n_trials)
    rng = stream(seed)
    axes = rng.normal(size=(n_trials, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    labels = _sample_labels(rng, d, n_trials)
    # signing n_i^2 in place is exact, so the sum below rounds as
    # n_x^2 - n_y^2 + n_z^2 (and so on) would
    n2 = np.square(axes, out=axes)
    n2 *= _AXIS_SIGNS[labels]
    corr = n2[:, 0] + n2[:, 1]
    corr += n2[:, 2]
    corr[labels == BellLabel.PSI_MINUS] = -1.0
    p_par = 0.5 * (1.0 + corr)
    hits = (rng.random(n_trials) < p_par).astype(np.float64)
    se = float(hits.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0
    return EstimateWithError(float(hits.mean()), se, n_trials)
