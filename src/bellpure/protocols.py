"""Pair-sacrifice purification protocols.

Contents: the exact two-pair recurrence step (label-level enumeration plus a
full density-matrix replay used as an independent oracle), label-level Monte
Carlo ensembles, the variable-blocksize variant, and the breeding protocol
built on random-subset parity tests with a maximum-likelihood decoder that
solves the parities over GF(2) and searches only the strings that fit them.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import bell, ensemble, measures, qstate, twirl
from .bell import BellDiagonal, BellLabel, PauliAxis


class RecurrenceOutcome(NamedTuple):
    """One two-pair test: the kept source pair in Werner form after the
    re-twirl, the probability that the target measured parallel, and the kept
    pair's raw distribution before the re-twirl. post_state is None, and
    p_success 0.0, when p_success is below the smallest normal float."""

    post_state: BellDiagonal | None
    p_success: float
    post_state_raw: BellDiagonal | None


#: The one-particle y rotation's label image. It is an involution, so pushing
#: a distribution p through it gives p[_Y_IMAGE].
_Y_IMAGE = bell.unilateral_pauli(bell.LABELS, PauliAxis.Y)

#: Of every (source, target) label pair, source-major: the indices of those
#: whose target reads parallel z spins after the bilateral controlled-NOT, and
#: the source label each of them leaves.
_S2, _T2 = bell.bxor(*(a.ravel() for a in np.indices((4, 4), dtype=np.uint8)))
_PARALLEL = np.flatnonzero(bell.amp_bit(_T2) == 0)
_KEPT = _S2[_PARALLEL]
del _S2, _T2

#: The smallest normal float. A step keeps nothing below it, where the two
#: steps round p_success apart and dividing by it can overflow.
_MIN_P_SUCCESS = sys.float_info.min

#: bell.bxor and twirl.twirl_labels bound at import for _purify_round's
#: threads, which a span wrapper installed later (benchmarks/tracing.py) must
#: not reach.
_bxor = bell.bxor
_twirl_labels = twirl.twirl_labels


def recurrence_step_exact(m1: BellDiagonal, m2: BellDiagonal) -> RecurrenceOutcome:
    """Exact enumeration of one two-pair test.

    Both pairs are rotated to their mostly-Phi+ form by a one-particle y
    rotation, the bilateral controlled-NOT runs with m1 as source and m2 as
    the measured target, the source is kept only when the target's z spins
    come out parallel, the kept pair is rotated back and then re-twirled to
    Werner form. For m1 = m2 = werner(F) the post fidelity and p_success
    reproduce the closed form of measures.recurrence_formula exactly. The
    post_state is None when p_success is below the smallest normal float.

    The inputs are checked where they were built, so the step works on their
    probability arrays and builds only the two BellDiagonals it returns.
    """
    w = np.outer(m1.p[_Y_IMAGE], m2.p[_Y_IMAGE]).ravel()
    post = np.bincount(_KEPT, weights=w[_PARALLEL], minlength=4)
    p_success = float(post.sum())
    if p_success < _MIN_P_SUCCESS:
        return RecurrenceOutcome(None, 0.0, None)
    raw = BellDiagonal((post / p_success)[_Y_IMAGE])
    return RecurrenceOutcome(twirl.discrete_twirl(raw), p_success, raw)


def _conjugation(u) -> tuple[np.ndarray, np.ndarray]:
    """(flat index, coefficient) that give u rho u^dagger as coef * rho.take(idx),
    for a monomial u: one entry of modulus 1 in each row and column."""
    hits = [[(j, v) for j, v in enumerate(row) if v] for row in u.tolist()]
    if len({h[0][0] for h in hits if len(h) == 1 and abs(h[0][1]) == 1}) != len(hits):
        raise ValueError("operator is not monomial with unit-modulus phases")
    c, z = map(np.array, zip(*(h[0] for h in hits)))
    return len(c) * c[:, None] + c, z[:, None] * z.conj()


# The oracle's gathers: the y rotation of both pairs and the bilateral CNOT, then
# the projector kron(I, diag(1, 0, 0, 1)) onto parallel target z spins as 0/1
# weights; and the y rotation of one pair.
_U_Y = np.kron(qstate.SIGMA_Y, qstate.ID2)
_SEL_IDX, _SEL_COEF = _conjugation(bell.BXOR_UNITARY @ np.kron(_U_Y, _U_Y))
_SEL_COEF *= np.kron(np.ones((4, 4)), np.outer([1, 0, 0, 1], [1, 0, 0, 1]))
_Y_IDX, _Y_COEF = _conjugation(_U_Y)


def _oracle_input(d: BellDiagonal) -> np.ndarray:
    """to_density(d).mat unchecked (d was checked): bell_matrix(d.p) over its trace."""
    m = bell.bell_matrix(d.p)
    return m / float(m.trace().real)


def density_matrix_oracle_step(m1: BellDiagonal, m2: BellDiagonal) -> RecurrenceOutcome:
    """Replay of recurrence_step_exact on 16x16 density matrices (y rotations,
    the bilateral controlled-NOT, a z x z measurement of the target pair), an
    independent check of the label algebra. Every operator is monomial or
    diagonal, so each conjugation is a gather times unit phases and 0/1 weights,
    to which the dense U @ rho @ U adds only exact zeros: the outputs' bits match.
    post_state is None when p_success is below the smallest normal float."""
    a, b = _oracle_input(m1), _oracle_input(m2)
    sel = _SEL_COEF * (a[:, None, :, None] * b[None, :, None, :]).take(_SEL_IDX)  # of np.kron(a, b)
    p_success = float(np.trace(sel).real)
    if p_success < _MIN_P_SUCCESS:
        return RecurrenceOutcome(None, 0.0, None)
    src = np.einsum("ikjk->ij", (sel / p_success).reshape(4, 4, 4, 4))
    raw = BellDiagonal(bell.bell_diagonal_part(_Y_COEF * src.take(_Y_IDX)))
    return RecurrenceOutcome(twirl.discrete_twirl(raw), p_success, raw)


class MCStep(NamedTuple):
    step: int
    n_input: int
    n_kept: int
    fidelity: float
    fidelity_err: float
    survival: float
    survival_err: float
    fidelity_formula: float
    p_success_formula: float


class MCTrace(NamedTuple):
    f0: float
    n_pairs: int
    seed: int
    steps: tuple[MCStep, ...]
    truncated: bool


def _purify_round(
    labels: np.ndarray, n_blocks: int, k: int, seed: int, stream_id: int, stage: int
) -> tuple[int, int, int]:
    """One round of blocks, each of k sources chained into one measured target,
    over the first n_blocks * (k + 1) labels. Kept sources, rotated back and
    re-twirled, go in order to the front of labels. Returns the kept-block
    count and the sums S1 and S2 of s_b and s_b**2 over the kept blocks, where
    s_b counts a kept block's singlets.

    Pieces of CHUNK // 8 blocks run on ensemble.run_sharded's threads. Piece j
    is tested, compacted and twirled by whichever thread takes it, with the
    generator that run_sharded placed at piece j of the stage of stream (seed,
    stream_id). Its kept sources are written from the piece's own start:
    k * kept <= k * (hi - lo) < (k + 1) * (hi - lo), so no write leaves the
    piece. The piece returns its (kept labels, S1, S2), and the calling thread
    then moves each piece's kept run to the front, in piece order."""
    pieces = list(ensemble.chunks(n_blocks, max(1, ensemble.CHUNK // 8)))

    def test_and_twirl(j, lo, hi, rng, t):
        start = (k + 1) * lo
        blocks = labels[start : (k + 1) * hi].reshape(-1, k + 1)
        blocks = bell.unilateral_pauli(blocks, PauliAxis.Y)  # to mostly-Phi+ form
        # the chain acts on the target like one controlled-NOT from the XOR of
        # the sources, and on each source like its own controlled-NOT
        cols = np.ascontiguousarray(blocks.T)  # reducing along short rows is slow
        tgt = _bxor(np.bitwise_xor.reduce(cols[:k], axis=0), cols[k])[1]
        keep = bell.amp_bit(tgt) == 0  # target z spins come out parallel
        srcs = _bxor(cols[:k], tgt)[0].compress(keep, axis=1)
        # back to block order, each block's sources together
        kept = _twirl_labels(bell.unilateral_pauli(srcs.T.reshape(-1), PauliAxis.Y), rng)
        labels[start : start + kept.size] = kept
        hits = kept == BellLabel.PSI_MINUS
        s1 = s2 = int(np.count_nonzero(hits))  # at k = 1 each s_b is 0 or 1, so S2 == S1
        if k > 1:
            # singlets per kept block, in the narrowest type that holds k, to save memory
            s_b = np.ascontiguousarray(hits.reshape(-1, k).T).sum(axis=0, dtype=np.min_scalar_type(k))
            s2 = int(np.einsum("i,i", s_b, s_b, dtype=np.uint64))
        return kept.size, s1, s2

    sums = ensemble.run_sharded(test_and_twirl, pieces, seed, stream_id, stage)
    n_kept = 0
    for (lo, _), (size, _, _) in zip(pieces, sums):
        labels[n_kept : n_kept + size] = labels[(k + 1) * lo : (k + 1) * lo + size]
        n_kept += size
    return n_kept // k, sum(s[1] for s in sums), sum(s[2] for s in sums)


def recurrence_mc(f0: float, n_pairs: int, steps: int, seed: int) -> MCTrace:
    """Label-level Monte Carlo of the recurrence: each step is one
    _purify_round with k = 1, each pair in ensemble order a source and the
    next its measured target; an odd leftover pair is dropped. Empirical
    fidelity and survival carry binomial standard errors; the matching
    closed-form values ride along for comparison. The trace is flagged
    truncated when the ensemble runs out of pairs early."""
    n_pairs = measures.whole_number("n_pairs", n_pairs, 2)
    steps = measures.whole_number("steps", steps, 1)
    labels = ensemble._sample_labels(measures.werner(f0), n_pairs, seed, 0, 1)
    n_live = n_pairs
    f_formula = f0
    out: list[MCStep] = []
    truncated = False
    for step in range(1, steps + 1):
        if n_live < 2:
            truncated = True
            break
        n_tests = n_live // 2
        n_kept, n_singlets, _ = _purify_round(labels, n_tests, 1, seed, 0, 1 + step)
        n_in = 2 * n_tests
        f_formula, p_formula = measures.recurrence_formula(f_formula)
        if n_kept:
            fid = n_singlets / n_kept
            fid_err = math.sqrt(max(fid * (1.0 - fid), 0.0) / n_kept)
        else:
            fid, fid_err = float("nan"), float("nan")
        keep_rate = n_kept / n_tests
        surv = n_kept / n_in
        surv_err = 0.5 * math.sqrt(max(keep_rate * (1.0 - keep_rate), 0.0) / n_tests)
        out.append(
            MCStep(step, n_in, n_kept, fid, fid_err, surv, surv_err, f_formula, p_formula)
        )
        n_live = n_kept
    return MCTrace(f0, n_pairs, int(seed), tuple(out), truncated)  # the sampler checked the seed


class VariableBlockStats(NamedTuple):
    """One blocked purification round. discard_fraction counts pairs lost to
    failed parity tests (the block-failure rate); measured targets are
    tallied separately in target_fraction, and total_loss_fraction combines
    both as 1 - kept/used.

    fidelity_err is the block-clustered ratio estimator's standard error over
    the run's own kept blocks: sqrt(sum (s_b - fidelity*k)**2) / (k*n) over the
    n kept blocks, s_b counting a block's singlets. It reads low when few
    blocks fail, is exactly 0 when every kept block holds the same count, and
    the tests floor it with the exact-moment blocked_fidelity_sigma."""

    f0: float
    n_pairs: int
    k: int
    n_blocks: int
    n_kept_pairs: int
    fidelity: float
    fidelity_err: float
    discard_fraction: float
    discard_err: float
    target_fraction: float
    total_loss_fraction: float


def variable_block_mc(f0: float, n_pairs: int, seed: int) -> VariableBlockStats:
    """Blocked recurrence round: one _purify_round with k = max(1,
    round(1/sqrt(1-F))) source pairs per measured target, so each block's
    sources are kept or discarded wholesale. Cross-pair correlations inside a
    kept block survive in the ensemble; only the per-pair marginal fidelity is
    reported. At f0 = 1 a single all-pass block holds the whole run. n_pairs
    must be a whole number >= 2, and at least k + 1."""
    if not 0.5 < f0 <= 1.0:
        raise ValueError(f"need 1/2 < f0 <= 1, got {f0!r}")
    n_pairs = measures.whole_number("n_pairs", n_pairs, 2)
    k = max(1, round((1.0 - f0) ** -0.5)) if f0 < 1.0 else n_pairs - 1
    n_pairs = measures.whole_number("n_pairs", n_pairs, k + 1)
    n_blocks = n_pairs // (k + 1)
    n_used = n_blocks * (k + 1)
    labels = ensemble._sample_labels(measures.werner(f0), n_used, seed, 0, 1)
    n_keep_blocks, s1, s2 = _purify_round(labels, n_blocks, k, seed, 0, 2)
    n_kept = n_keep_blocks * k
    if n_kept:
        fid = s1 / n_kept
        # n * sum_b (s_b - fid*k)**2 = n*S2 - S1**2, an exact integer
        fid_err = math.sqrt((n_keep_blocks * s2 - s1 * s1) / n_keep_blocks) / n_kept
    else:
        fid, fid_err = float("nan"), float("nan")
    dfrac = 1.0 - n_keep_blocks / n_blocks
    derr = math.sqrt(max(dfrac * (1.0 - dfrac), 0.0) / n_blocks)
    return VariableBlockStats(
        f0=f0,
        n_pairs=n_used,
        k=k,
        n_blocks=n_blocks,
        n_kept_pairs=n_kept,
        fidelity=fid,
        fidelity_err=fid_err,
        discard_fraction=dfrac,
        discard_err=derr,
        target_fraction=n_blocks / n_used,
        total_loss_fraction=1.0 - n_kept / n_used,
    )


class ParityTest(NamedTuple):
    """One subset parity measurement: the tested pair indices, the parity read
    off the consumed target (1 = odd Psi count in the subset), and the index
    of the prepurified target spent on it."""

    subset: tuple[int, ...]
    parity_observed: int
    target_consumed: int


class BreedingResult(NamedTuple):
    """Outcome of one breeding run. decode_correct_* report whether the
    applied corrections matched the truth; ties are flagged separately and
    always count as failures (never silently resolved). zero_prior_* flags a
    round whose every parity-consistent string has zero prior: it corrects
    nothing, counts as incorrect and is no tie (only round 2, after a round-1
    misdecode, can meet one). residual_error_pairs is zero exactly when both
    decodes were correct. coset_dim_* is the decoder's search size in each
    round: 2^coset_dim parity-consistent strings, with coset_dim = n minus the
    rank of that round's tests. subset_masks and parities hold the tests of
    both rounds in order; bit i of a mask selects pair i."""

    n: int
    targets_consumed: int
    decode_correct_round1: bool
    decode_correct_round2: bool
    tie_round1: bool
    tie_round2: bool
    residual_error_pairs: int
    net_yield: float
    provisioned_targets: int
    budget_exceeded: bool
    coset_dim_round1: int
    coset_dim_round2: int
    zero_prior_round1: bool
    zero_prior_round2: bool
    subset_masks: tuple[int, ...]
    parities: tuple[int, ...]

    @property
    def parity_tests(self) -> tuple[ParityTest, ...]:
        """One ParityTest per test, built when read."""
        return tuple(
            ParityTest(tuple(i for i in range(self.n) if mask >> i & 1), par, t)
            for t, (mask, par) in enumerate(zip(self.subset_masks, self.parities))
        )

    @property
    def decode_failed(self) -> bool:
        return (
            not self.decode_correct_round1
            or not self.decode_correct_round2
            or self.tie_round1
            or self.tie_round2
        )


def _mask_bits(mask, n: int) -> np.ndarray:
    """Bits 0..n-1 of an integer mask, as a boolean array; an array of masks
    gives one row of bits per mask."""
    return ((np.asarray(mask)[..., None] >> np.arange(n)) & 1).astype(bool)


def _bxor_parity(labels: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Chain the selected pairs as sources into one fresh Phi+ target and
    z-measure it (consuming the target). Each integer mask selects a subset
    (bit i selects pair i): (..., n) labels and (..., r) masks give the
    (..., r) parities, so (T, n) labels and (T, r) masks give each trial's
    parities of its own subsets.

    By the bxor rule the chain acts on the target like one controlled-NOT
    from the XOR of the sources. A Phi+ target's sign bit is 0, so no source
    is altered, and its amp bit 0 is toggled by the sources' XORed amp bit:
    the subset's Psi-count parity, which the measurement reports."""
    amp = bell.amp_bit(labels) @ (1 << np.arange(labels.shape[-1]))
    return np.bitwise_count(masks & amp[..., None]) & 1


#: Most candidate strings the decoder holds at once, over all the rows it
#: scores together; a row whose coset holds more is scored alone.
DECODE_CHUNK = 1 << 16


@functools.lru_cache(maxsize=32)
def _prior_ranks(n: int, probs: tuple[float, ...]) -> tuple[np.ndarray, tuple[bool, ...]]:
    """(ranks, flips): the exact rank of every prior an n-bit string can have
    in one row, and which groups count zeros.

    With a_g / b_g the float probs[g]'s exact ratio, let k_g count the string's
    ones in group g, or its zeros where flips[g] (probs[g] > 1/2), which swaps
    a_g with b_g - a_g. The prior is then a positive constant of the row times
    the integer prod_g a_g^k_g (b_g - a_g)^(n - k_g), zero exactly where the
    prior is. Entry k of the (n + 1,) * G table ranks is that integer's dense
    rank over all k, or -1 where it is 0, so ranks compare as the priors do."""
    k = np.arange(n + 1, dtype=object)  # Python integers, so no product is ever rounded
    priors, flips = np.ones((), dtype=object), []
    for p in probs:
        a, b = p.as_integer_ratio()
        flips.append(b - a < a)  # p > 1/2: count zeros, whose ratio is (b - a) / b
        a = min(a, b - a)
        priors = np.multiply.outer(priors, a**k * (b - a) ** (n - k))
    distinct, rank = np.unique(priors, return_inverse=True)
    rank = (rank - (distinct[0] == 0)).astype(np.int32).reshape(priors.shape)
    rank.setflags(write=False)  # the cache hands this one array to every caller
    return rank, tuple(flips)


def _reduce_parities(n: int, masks: np.ndarray, parities: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination over GF(2) of each row's parity tests, all
    rows at once, in place beside one scratch array of the same size. Returns
    the (T, n) reduced pivot rows, each test packed as mask << 1 | parity:
    column b holds the test whose leading bit is b, with no other leading bit
    set, or 0 when no test leads at b. Raises RuntimeError when a row's
    parities contradict each other."""
    work = np.zeros((len(masks), n + masks.shape[1]), dtype=np.int64)
    pivots, tests = work[:, :n], work[:, n:]
    if not tests.size:
        return pivots
    tests[:] = masks << 1 | parities
    scratch, lead = np.empty_like(work), np.empty(len(work), dtype=np.int64)
    for b in range(n - 1, -1, -1):
        # a test not yet taken holds no mask bit above b, so the largest
        # leads at b if any test does; XORing it into every test and pivot
        # holding bit b clears that bit there, itself included
        tests.max(axis=1, out=lead)
        lead *= lead >> b + 1
        np.right_shift(work, b + 1, out=scratch)
        scratch &= 1
        scratch *= lead[:, None]
        work ^= scratch
        pivots[:, b] = lead
    if tests.any():  # a test reduced to parity 1 on the empty subset
        raise RuntimeError("no parity-consistent candidate")
    return pivots


def _ml_decode_rows(n, masks, parities, group_masks, probs):
    """Maximum-likelihood decode of many n-bit strings, one per row, each
    from its own subset parities and prior.

    Only the 2^(n - rank) strings that fit a row's parities are scored: the
    coset that Gauss-Jordan elimination over GF(2) gives (RuntimeError when
    a row's parities contradict each other). Row t's prior groups
    (group_masks[t, g], probs[g]) partition the positions; in a group each
    bit is independently 1 with probability probs[g]. Of the strings with
    non-zero prior, the likeliest wins, smallest value first among exact ties.
    Priors are compared exactly, by the rank of each string's per-group counts
    in one table per (n, probs) (_prior_ranks), so a tie is never lost to
    rounding. masks and parities are (T, r); a zero mask with parity 0 tests
    nothing, so rows with fewer tests are padded with it. All rows are reduced
    at once (_reduce_parities), then the rows of each coset dimension d are
    scored as a (rows, 2^d) array of candidates, a slice of rows at a time, so
    at most max(2^d, DECODE_CHUNK) candidates are held.
    Returns the arrays (decoded, coset_dim, tie, zero_prior); a row whose
    every parity-consistent string has zero prior decodes to 0, no tie."""
    pivots = _reduce_parities(n, np.asarray(masks), np.asarray(parities))
    group_masks = np.asarray(group_masks).astype(np.uint32)
    ranks, flips = _prior_ranks(n, tuple(probs))
    leads = pivots != 0
    dims = n - np.count_nonzero(leads, axis=1)
    weights = 1 << np.arange(n)
    # with every free bit 0, each leading bit is its pivot's parity
    x0 = ((pivots & 1) @ weights).astype(np.uint32)
    # column f: bit f, and every leading bit whose pivot holds bit f; for a
    # free f, the basis vector whose only free bit is f
    spans, held = np.empty(pivots.shape, dtype=np.uint32), np.empty_like(pivots)
    for f in range(n):
        np.right_shift(pivots, f + 1, out=held)
        held &= 1
        spans[:, f] = held @ weights | 1 << f
    decoded = np.zeros(len(dims), dtype=np.int64)
    count = np.zeros(len(dims), dtype=np.int64)  # strings of the top prior
    order = dims.argsort(kind="stable")
    ends = np.bincount(dims, minlength=n + 1).cumsum().tolist()
    for d, (lo, hi) in enumerate(zip([0] + ends, ends)):
        step = max(1, DECODE_CHUNK >> d)
        for part in (order[i : min(i + step, hi)] for i in range(lo, hi, step)):
            basis = spans[part][~leads[part]].reshape(len(part), d)  # ascending free bits
            cands = np.empty((len(part), 1 << d), dtype=np.uint32)
            cands[:, 0] = x0[part]
            for j in range(d):  # double the coset spanned so far
                np.bitwise_xor(cands[:, : 1 << j], basis[:, j, None], out=cands[:, 1 << j : 2 << j])
            decoded[part], count[part] = _best_in_cosets(cands, group_masks[part], ranks, flips)
    return decoded, dims, count > 1, count == 0


def _best_in_cosets(cands, group_masks, ranks, flips):
    """(smallest, count) of each row's strings of largest non-zero prior, over
    its row of candidates, the row's prior groups being group_masks[:, g] and
    (ranks, flips) their _prior_ranks. A row whose every string has zero
    prior gives (0, 0)."""
    counts = [
        np.bitwise_count((~cands if flip else cands) & group_masks[:, g, None])
        for g, flip in enumerate(flips)
    ]
    # the counts as one mixed-radix index into ranks, in the narrowest type
    # that holds one (uint16 for breeding's at most 21^2 entries)
    key = counts[0].astype(np.min_scalar_type(ranks.size))
    for k in counts[1:]:
        key *= ranks.shape[0]
        key += k
    rank = ranks.ravel()[key]
    # with the top clipped at rank 0, a row of zero priors (all rank -1) has no best string
    best = rank == np.maximum(rank.max(axis=1), 0)[:, None]
    count = np.count_nonzero(best, axis=1)
    smallest = np.where(best, cands, np.uint32(2**32 - 1)).min(axis=1)
    return np.where(count > 0, smallest, 0), count


#: Most test bits one chunk of breeding trials draws at once, in one random_raw
#: call: 4 bytes a test bit of raw words, about 260 KiB, freed once each trial
#: is kept as its labels (a byte a pair) and subset masks (8 bytes a test). A
#: batch keeps as many trials as a chunk's raw words take bytes, and at least
#: one chunk, and runs each round's decodes in one _ml_decode_rows call, whose
#: cost hardly grows with its rows; its memory is one chunk's draws, then one
#: batch's decodes (at most DECODE_CHUNK candidates at once). Up to 2^17 the
#: decodes set a 500-trial n = 20 run's peak, within its 2 MiB bound; at 2^18
#: the draws pass it. A trial with more test bits runs alone.
BREEDING_CHUNK = 1 << 16


class _Trials(Sequence):
    """The BreedingResults of a run's trials, kept as columns with one row per
    trial: the subset masks and parities; the flags decode_correct_round1,
    decode_correct_round2, tie_round1, tie_round2, zero_prior_round1 and
    zero_prior_round2; and the counts residual_error_pairs, coset_dim_round1
    and coset_dim_round2. Trial i's record is built only when it is read."""

    def __init__(self, n: int, targets: int, provisioned: int, trials: int):
        self.n, self.targets, self.provisioned = n, targets, provisioned
        self.masks = np.empty((trials, targets), dtype=np.int64)
        self.parities = np.empty((trials, targets), dtype=np.uint8)
        self.flags = np.empty((trials, 6), dtype=bool)
        self.counts = np.empty((trials, 3), dtype=np.int64)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i) -> BreedingResult:
        i = operator.index(i)  # a slice would put lists in the fields
        n, targets = self.n, self.targets
        ok1, ok2, t1, t2, z1, z2 = self.flags[i].tolist()
        res, d1, d2 = self.counts[i].tolist()
        return BreedingResult(
            n, targets, ok1, ok2, t1, t2, res, (n - res - targets) / n, self.provisioned,
            targets > self.provisioned, d1, d2, z1, z2,
            tuple(self.masks[i].tolist()), tuple(self.parities[i].tolist()),
        )


def _breed(w: BellDiagonal, n: int, delta: float, r_margin: float, seed: int, first: int, count: int) -> _Trials:
    """breeding_mc on trials first to first + count - 1, one batch at a time.

    The run is one read of stream (seed, 0) from its first trial's block
    (ensemble.trial_stream), a chunk of trials one random_raw call, and
    ensemble.decode_raw turns a chunk's words into its uniforms and test
    bits, kept as (T, n) labels and the trials' rows of subset masks.
    Every other step runs once per batch, each round's decodes in one
    _ml_decode_rows call, and writes the batch's rows of each column; what
    is the same for every trial runs once per call."""
    n = measures.check_breeding_args(n, delta, r_margin)
    p = w.p
    p_psi = float(p[2] + p[3])
    p_phi = float(p[0] + p[1])
    sign_given_phi = float(p[1] / p_phi) if p_phi > 0.0 else 0.5
    # after the y fix, a former Psi+ carries the flipped sign bit
    sign_given_psi = float(p[2] / p_psi) if p_psi > 0.0 else 0.5
    h_class = measures.h2(p_psi)
    h_sign = p_phi * measures.h2(sign_given_phi) + p_psi * measures.h2(sign_given_psi)
    r1 = int(math.ceil(n * h_class + r_margin * math.sqrt(n)))
    r2 = int(math.ceil(n * h_sign + r_margin * math.sqrt(n)))
    targets = r1 + r2
    provisioned = int(math.ceil(n * (measures.entropy_bell(w) + delta)))
    full = (1 << n) - 1
    weights = 1 << np.arange(n)
    cdf = p.cumsum()
    # trials per chunk; a trial with no tests still holds its n uniforms
    per_chunk = max(1, BREEDING_CHUNK // (max(targets, 1) * n))
    per_batch = max(per_chunk, 4 * BREEDING_CHUNK // (n + 8 * targets))
    width = ensemble.raw_words(n, targets * n)
    rng = ensemble.trial_stream(seed, first, width)

    trials = _Trials(n, targets, provisioned, count)
    for lo, hi in ensemble.chunks(count, per_batch):
        size = hi - lo
        labels = np.empty((size, n), dtype=np.uint8)
        masks, pars = trials.masks[lo:hi], trials.parities[lo:hi]
        for a, b in ensemble.chunks(size, per_chunk):
            # a trial's draws: its labels' uniforms, then round 1's subsets,
            # then round 2's (a decode draws nothing, so they can come first)
            raw = rng.bit_generator.random_raw((b - a) * width).reshape(b - a, width)
            u, bits = ensemble.decode_raw(raw, n, targets * n)
            del raw  # 8 bytes a word: gone before the masks' int64 product takes its memory
            ensemble._labels_from_uniforms(cdf, u, labels[a:b])
            np.matmul(bits.reshape(b - a, targets, n), weights, out=masks[a:b])
        del u, bits  # the last chunk's: gone before the decodes take their memory

        x_true = bell.amp_bit(labels) @ weights
        pars[:, :r1] = _bxor_parity(labels, masks[:, :r1])
        x_hat, dim1, tie1, zero1 = _ml_decode_rows(
            n, masks[:, :r1], pars[:, :r1], np.full((size, 1), full), [p_psi]
        )
        # one-particle y on every decoded Psi
        labels = np.where(_mask_bits(x_hat, n), bell.unilateral_pauli(labels, PauliAxis.Y), labels)
        labels = bell.bilateral_rot(labels, PauliAxis.Y)  # leftover sign errors become Psi+

        y_true = bell.amp_bit(labels) @ weights
        pars[:, r1:] = _bxor_parity(labels, masks[:, r1:])
        y_hat, dim2, tie2, zero2 = _ml_decode_rows(
            n, masks[:, r1:], pars[:, r1:], np.stack([full & ~x_hat, x_hat], axis=1),
            [sign_given_phi, sign_given_psi],
        )
        # one-particle x on every decoded Psi+
        labels = np.where(_mask_bits(y_hat, n), bell.unilateral_pauli(labels, PauliAxis.X), labels)

        residual = np.count_nonzero(labels != BellLabel.PHI_PLUS, axis=1)

        # a round with no string of non-zero prior decodes to 0 and fails
        correct1 = (x_hat == x_true) & ~zero1
        correct2 = (y_hat == y_true) & ~zero2
        trials.flags[lo:hi] = np.stack([correct1, correct2, tie1, tie2, zero1, zero2], axis=1)
        trials.counts[lo:hi] = np.stack([residual, dim1, dim2], axis=1)
    return trials


def breeding_mc(
    w: BellDiagonal,
    n: int,
    delta: float = 0.05,
    r_margin: float = 2.0,
    seed: int = 0,
    trial: int = 0,
) -> BreedingResult:
    """Trial `trial` of a seeded breeding run on n impure pairs sampled from w.

    Round 1 runs ceil(n*H + r_margin*sqrt(n)) random-subset parity tests,
    where H is the per-pair Phi/Psi class entropy, decodes the class string by
    maximum likelihood under the sampling prior over the 2^(n - rank) strings
    that fit the tests, and fixes the decoded Psi pairs with one-particle y
    rotations. Round 2 repeats the scheme for the sign string (sized by the
    conditional sign entropy) after a two-particle y rotation converts
    leftover Phi- pairs into Psi+, fixing hits with one-particle x rotations.
    A round-1 misdecode can leave round 2 with no string of non-zero prior
    (zero_prior_round2). Every test consumes one prepurified Phi+ target;
    n*(S+delta) targets are provisioned, and overruns set budget_exceeded.
    Raises ValueError unless the trial's blocks fit (ensemble.trial_stream).
    """
    return _breed(w, n, delta, r_margin, seed, trial, 1)[0]


class BreedingSummary(NamedTuple):
    trials: int
    n: int
    delta: float
    r_margin: float
    mean_targets_per_pair: float
    decode_failure_rate: float
    residual_error_rate: float
    mean_net_yield: float
    predicted_net_yield: float
    budget_exceeded_rate: float


def breeding_trials(
    w: BellDiagonal,
    n: int,
    trials: int,
    delta: float = 0.05,
    r_margin: float = 2.0,
    seed: int = 0,
) -> tuple[BreedingSummary, Sequence[BreedingResult]]:
    """Run trials 0 to trials - 1 of a seeded breeding run: trial t equals
    breeding_mc(..., seed=seed, trial=t).

    The results are a read-only sequence over the trials' columns (9 bytes a
    parity test and 30 more a trial): results[t] builds trial t's
    BreedingResult when it is read, and the summary comes from the columns,
    so a caller that reads only the summary builds no record. Every trial
    consumes the same targets. Its rates and mean divide integer totals, so
    each rounds once."""
    trials = measures.whole_number("trials", trials, 1)
    results = _breed(w, n, delta, r_margin, seed, 0, trials)
    n, targets, flags, residual = results.n, results.targets, results.flags, int(results.counts[:, 0].sum())
    failures = int(np.count_nonzero(~(flags[:, 0] & flags[:, 1]) | flags[:, 2] | flags[:, 3]))
    summary = BreedingSummary(
        trials=trials,
        n=n,
        delta=delta,
        r_margin=r_margin,
        mean_targets_per_pair=targets / n,
        decode_failure_rate=failures / trials,
        residual_error_rate=residual / (n * trials),
        mean_net_yield=(n * trials - residual - targets * trials) / (n * trials),
        predicted_net_yield=1.0 - measures.entropy_bell(w),
        budget_exceeded_rate=float(targets > results.provisioned),
    )
    return summary, results


def parity_bound_check(n: int, r: int, trials: int, seed: int) -> ensemble.EstimateWithError:
    """Empirical probability that two distinct random n-bit strings agree on
    the parities of r independent random subsets (expected 2^-r). Agreement
    depends only on their XOR, uniform over the non-zero n-bit values, so the
    check draws the XOR directly."""
    n = measures.whole_number("n", n, 1, 62)
    r = measures.whole_number("r", r, 1)
    trials = measures.whole_number("trials", trials, 1)
    rng = ensemble.stream(seed)
    diff = rng.integers(1, 1 << n, size=trials, dtype=np.uint64)
    agree = np.ones(trials, dtype=bool)
    for _ in range(r):
        masks = rng.integers(0, 1 << n, size=trials, dtype=np.uint64)
        agree &= (np.bitwise_count(diff & masks) & 1) == 0
    rate = float(agree.mean())
    se = math.sqrt(rate * (1.0 - rate) / trials)
    return ensemble.EstimateWithError(rate, se, trials)
