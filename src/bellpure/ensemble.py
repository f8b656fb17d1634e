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

Keyed pieces: the threaded kernels split their work into pieces, and piece j
of stage s of stream (seed, stream_id) draws at its own Philox position, the
counter words (0, j, s, 0) under the stream's key (_placer). Stage 0 is counter
0, the stream itself, which holds a kernel's unpieced draws and breeding's
substreams; no piece is placed there. A piece's draws step only the lowest
counter word, and none takes near 2^64 blocks, so no two positions overlap.
The stages:
  - protocols.recurrence_mc: its labels at stage 1, round s at stage 1 + s;
  - protocols.variable_block_mc: its labels at stage 1, its round at stage 2;
  - random_axis_parallel_prob: its labels at stage 1, its axes and outcomes
    at stage 0;
  - twirl.sampled_twirl: its normals at stage 1.
The label sampler draws pieces of CHUNK // 2 uniforms, the purification round
behind recurrence_mc and variable_block_mc tests and twirls pieces of
CHUNK // 8 blocks, and the sampled twirl draws pieces of twirl.TWIRL_PIECE
rotations. So the bytes depend on CHUNK and TWIRL_PIECE, which fix where each
piece starts, and not on DRAW_THREADS or on which thread ran which piece. The
draws keep the int64 default: ``integers(0, 6, size=n, dtype=np.uint8)`` draws
other values than the int64 call.

Threads: run_sharded runs a kernel's pieces on at most DRAW_THREADS threads,
the calling thread among them; each thread takes the next piece off a shared
stack. Generators and buffers are made on the calling thread. A run of one
piece starts no thread, and every thread has ended when its call returns or
raises. So the working memory of the sampler and the round is the uint8
label ensemble (one byte per pair) plus one piece per thread; only
variable_block_mc at F = 1, whose one block holds the whole run, is unbounded.
"""
from __future__ import annotations

import functools
import math
import threading
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .bell import BellDiagonal, BellLabel
from .measures import whole_number


#: Largest number of entries a Monte Carlo kernel draws or processes at once.
CHUNK = 1 << 20

#: Threads that run a kernel's pieces, the calling thread included.
DRAW_THREADS = 2


def chunks(n: int, step: int):
    """(lo, hi) bounds that cover range(n) in pieces of at most step."""
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _key(seed: int, stream_id: int) -> list[int]:
    """The Philox key of stream (seed, stream_id), as two checked ints."""
    top = 2**64 - 1
    return [whole_number("seed", seed, 0, top), whole_number("stream_id", stream_id, 0, top)]


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent random stream for (seed, stream_id); see module docstring."""
    key = np.array(_key(seed, stream_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _placer(seed: int):
    """place(stream_id, piece=0, stage=0): load into one generator of its own,
    and return, the position of piece `piece` of stage `stage` of stream
    (seed, stream_id), that is, counter words (0, piece, stage, 0) with no
    buffered block and no buffered 32-bit half. Piece 0 of stage 0 is
    stream(seed, stream_id) itself. A load only sets three ints of one
    prepared Philox state, so no position pays the OS-entropy seeding that
    Philox(key=...) does first and then drops. The arguments must be checked
    ints, and a placer serves one thread at a time."""
    rng = np.random.Generator(np.random.Philox())
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    counter, key, bit_generator = state["state"]["counter"], state["state"]["key"], rng.bit_generator

    def place(stream_id: int, piece: int = 0, stage: int = 0) -> np.random.Generator:
        key[1], counter[1], counter[2] = stream_id, piece, stage
        bit_generator.state = state
        return rng

    return place


def substreams(seed: int, stream_ids) -> Iterator[np.random.Generator]:
    """stream(seed, t) for each id t in stream_ids, in order, as one generator
    re-keyed at each step (_placer), without the cost of building a stream.
    The call checks the seed and every id once."""
    place = _placer(_key(seed, 0)[0])
    ids = [whole_number("stream_id", t, 0, 2**64 - 1) for t in stream_ids]
    return (place(t) for t in ids)


def _threads(n_pieces: int) -> int:
    """Threads that run_sharded runs n_pieces pieces on: 1 to DRAW_THREADS."""
    return max(1, min(DRAW_THREADS, n_pieces))


def piece_placers(seed: int, stream_id: int, n_pieces: int) -> list:
    """For each thread that run_sharded runs n_pieces pieces on, a function
    at(piece, stage) that returns a generator of the thread's own placed at
    that piece of stream (seed, stream_id) (_placer). They are made on the
    calling thread, and the call checks the seed and the stream id."""
    seed, stream_id = _key(seed, stream_id)
    return [functools.partial(_placer(seed), stream_id) for _ in range(_threads(n_pieces))]


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


def run_sharded(work, n_pieces: int) -> None:
    """Run work(j, t) for each piece j in range(n_pieces), t being the index of
    the thread that runs it: the calling thread is thread 0, and each other
    thread of _threads(n_pieces) is started here, so one piece starts none.
    Each thread takes the next piece off a shared stack, so that a thread that
    gets less of the cpu runs fewer pieces; a thread whose piece raises takes
    no more. Returns once every thread has ended, raising the exception of
    the first thread, in thread order, whose piece raised."""
    threads = _threads(n_pieces)
    # list.pop is atomic, and below the pieces lies one None per thread, at
    # which it stops
    todo = [None] * threads + list(range(n_pieces))[::-1]
    errors = [None] * threads

    def run(t):
        try:
            for j in iter(todo.pop, None):
                work(j, t)
        except BaseException as exc:
            errors[t] = exc

    started = [threading.Thread(target=run, args=(t,)) for t in range(1, threads)]
    for thread in started:
        thread.start()
    run(0)
    for thread in started:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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


def _sample_labels(d: BellDiagonal, n: int, seed: int, stream_id: int, stage: int) -> np.ndarray:
    """n i.i.d. label draws by inverse CDF on the 4-vector (uint8 array), in
    pieces of CHUNK // 2 uniforms on run_sharded's threads: piece j is drawn at
    its own position, piece j of the stage of stream (seed, stream_id), so the
    labels do not depend on which thread drew it. Each thread holds one
    piece's uniforms at a time.

    A uniform u maps to the count of the cdf's first three entries that are
    <= u, written in place by three compares. That is the integer
    minimum(searchsorted(cdf, u, side="right"), 3): side="right" counts the
    entries <= u, and as the cdf is non-decreasing, cdf[3] <= u (possible when
    cdf[3] rounds below 1) makes the other three compares true as well, which
    is the cap at 3. On 4 entries the compares cost less than the search."""
    bounds = list(chunks(n, CHUNK // 2))
    at = piece_placers(seed, stream_id, len(bounds))
    cdf = d.p.cumsum()
    out = np.empty(n, dtype=np.uint8)
    # the buffers (the uniforms and the compares' bools) are made on the
    # calling thread, so that the threads only draw and compare: a buffer freed
    # on a thread of its own would stay resident in that thread's malloc arena
    piece = min(n, CHUNK // 2)
    uniforms, hits = np.empty((len(at), piece)), np.empty((len(at), piece), dtype=bool)

    def draw(j, t):
        lo, hi = bounds[j]
        u = at[t](j, stage).random(out=uniforms[t, : hi - lo])
        _labels_from_uniforms(cdf, u, out[lo:hi], hits[t, : hi - lo])

    run_sharded(draw, len(bounds))
    return out


def subset_mask(rng: np.random.Generator, n: int) -> int:
    """Random subset of n positions packed into an integer bit mask
    (bit i set means position i is in the subset)."""
    bits = np.packbits(rng.integers(0, 2, size=n), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


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
    n_trials = whole_number("n_trials", n_trials, 1, MAX_AXIS_TRIALS)
    rng = stream(seed)
    axes = rng.normal(size=(n_trials, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    labels = _sample_labels(d, n_trials, seed, 0, 1)
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
