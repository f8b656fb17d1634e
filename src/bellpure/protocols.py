"""Pair-sacrifice purification protocols.

Contents: the exact two-pair recurrence step (label-level enumeration plus a
full density-matrix replay used as an independent oracle), iterated
trajectories with surviving-pair yield bookkeeping, label-level Monte Carlo
ensembles, the variable-blocksize variant, and the breeding protocol built on
random-subset parity tests with a maximum-likelihood decoder that solves the
parities over GF(2) and searches only the strings that fit them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bell, ensemble, measures, qstate, twirl
from .bell import BellDiagonal, BellLabel, PauliAxis

#: Largest breeding run. The decoder enumerates the 2^(n - rank) strings that
#: fit the parity tests, up to 2^n when the tests have rank 0, so the cap bounds
#: its memory.
MAX_BREEDING_PAIRS = 20

#: Largest accepted delta and r_margin. r_margin sets the tests per round,
#: ceil(n*H + r_margin*sqrt(n)), so the cap bounds each round's subset draw.
MAX_BREEDING_MARGIN = 100.0


class NotDistillableError(ValueError):
    """The recurrence map cannot improve fidelities at or below 1/2."""


class ZeroPriorError(RuntimeError):
    """Every string that fits the parity tests has zero prior probability.
    n_consistent counts the strings that fit."""

    def __init__(self, n_consistent: int):
        super().__init__("no candidate with non-zero prior")
        self.n_consistent = n_consistent


@dataclass(frozen=True)
class RecurrenceOutcome:
    """One two-pair test: the kept source pair in Werner form after the
    re-twirl, the probability that the target measured parallel, and the kept
    pair's raw distribution before the re-twirl. post_state is None when
    p_success is exactly zero (nothing can be kept)."""

    post_state: BellDiagonal | None
    p_success: float
    post_state_raw: BellDiagonal | None


@dataclass(frozen=True)
class TraceStep:
    fidelity: float
    p_success: float
    cumulative_yield: float


@dataclass(frozen=True)
class ProtocolTrace:
    """Per-step record of an iterated recurrence run. cumulative_yield is the
    surviving-pair count per input pair, prod(p_i / 2)."""

    initial_fidelity: float
    steps: tuple[TraceStep, ...]

    @property
    def final_fidelity(self) -> float:
        return self.steps[-1].fidelity if self.steps else self.initial_fidelity

    @property
    def cumulative_yield(self) -> float:
        return self.steps[-1].cumulative_yield if self.steps else 1.0


def recurrence_formula(f: float) -> tuple[float, float]:
    """Closed-form action of one two-pair test on Werner input: returns the
    output fidelity and the success probability.

    Written with both numerator and denominator scaled by 9 so the fixed
    points at 1/4, 1/2 and 1 come out exact in floating point.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    g = 1.0 - f
    num9 = 9.0 * f * f + g * g
    den9 = 9.0 * f * f + 6.0 * f * g + 5.0 * g * g
    return num9 / den9, den9 / 9.0


_Y_IMAGE = bell.unilateral_pauli(bell.LABELS, PauliAxis.Y)

#: Every (source, target) label pair, source-major.
_SRC, _TGT = (a.ravel() for a in np.indices((4, 4), dtype=np.uint8))


def _apply_y(d: BellDiagonal) -> BellDiagonal:
    return bell.map_distribution(d, _Y_IMAGE)


def recurrence_step_exact(m1: BellDiagonal, m2: BellDiagonal) -> RecurrenceOutcome:
    """Exact enumeration of one two-pair test.

    Both pairs are rotated to their mostly-Phi+ form by a one-particle y
    rotation, the bilateral controlled-NOT runs with m1 as source and m2 as
    the measured target, the source is kept only when the target's z spins
    come out parallel, the kept pair is rotated back and then re-twirled to
    Werner form. For m1 = m2 = werner(F) the post fidelity and p_success
    reproduce the closed form of recurrence_formula exactly.
    """
    w = np.outer(_apply_y(m1).p, _apply_y(m2).p).ravel()
    s2, t2 = bell.bxor(_SRC, _TGT)
    parallel = bell.amp_bit(t2) == 0
    post = np.bincount(s2[parallel], weights=w[parallel], minlength=4)
    p_success = float(post.sum())
    if p_success <= 0.0:
        return RecurrenceOutcome(None, 0.0, None)
    raw = _apply_y(BellDiagonal(post / p_success))
    return RecurrenceOutcome(twirl.discrete_twirl(raw), p_success, raw)


def density_matrix_oracle_step(m1: BellDiagonal, m2: BellDiagonal) -> RecurrenceOutcome:
    """Replay of recurrence_step_exact entirely at the 16x16 density-matrix
    level: explicit one-particle y rotations, the joint bilateral
    controlled-NOT, and a projective z x z measurement of the target pair.
    Serves as an independent verification path for the label algebra."""
    rho = np.kron(bell.to_density(m1).mat, bell.to_density(m2).mat)
    u_y = np.kron(qstate.SIGMA_Y, qstate.ID2)
    u_y2 = np.kron(u_y, u_y)
    rho = u_y2 @ rho @ u_y2.conj().T
    u_bx = bell.bxor_unitary()
    rho = u_bx @ rho @ u_bx.conj().T
    proj = np.kron(np.eye(4), np.diag([1.0, 0.0, 0.0, 1.0])).astype(complex)
    sel = proj @ rho @ proj
    p_success = float(np.trace(sel).real)
    if p_success <= 0.0:
        return RecurrenceOutcome(None, 0.0, None)
    src = np.einsum("ikjk->ij", (sel / p_success).reshape(4, 4, 4, 4))
    src = u_y.conj().T @ src @ u_y
    raw = BellDiagonal(bell.bell_diagonal_part(src))
    return RecurrenceOutcome(twirl.discrete_twirl(raw), p_success, raw)


def recurrence_trajectory(
    f0: float, f_target: float | None = None, max_steps: int = 1000
) -> ProtocolTrace:
    """Iterate the closed-form map from f0 until the fidelity reaches
    f_target (or max_steps runs out), tracking prod(p_i / 2)."""
    if not 0.0 <= f0 < 1.0:
        raise ValueError(f"starting fidelity {f0!r} outside [0, 1)")
    if f0 <= 0.5:
        raise NotDistillableError("not distillable below F=1/2")
    if f_target is not None and not 0.0 < f_target < 1.0:
        raise ValueError("target fidelity must lie in (0, 1)")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    steps: list[TraceStep] = []
    f = f0
    acc = 1.0
    while len(steps) < max_steps:
        if f_target is not None and f >= f_target:
            break
        f, p = recurrence_formula(f)
        acc *= 0.5 * p
        steps.append(TraceStep(f, p, acc))
    return ProtocolTrace(f0, tuple(steps))


@dataclass(frozen=True)
class MCStep:
    step: int
    n_input: int
    n_kept: int
    fidelity: float
    fidelity_err: float
    survival: float
    survival_err: float
    fidelity_formula: float
    p_success_formula: float


@dataclass(frozen=True)
class MCTrace:
    f0: float
    n_pairs: int
    seed: int
    steps: tuple[MCStep, ...]
    truncated: bool


def recurrence_mc(f0: float, n_pairs: int, steps: int, seed: int) -> MCTrace:
    """Label-level Monte Carlo of the recurrence.

    Samples a Werner ensemble and consumes pairs two at a time in ensemble
    order (first as source, second as measured target); kept sources are
    rotated back and individually re-twirled. An odd leftover pair in any
    round is dropped. Empirical fidelity and survival carry binomial standard
    errors; the matching closed-form values ride along for comparison. The
    trace is flagged truncated when the ensemble runs out of pairs early.
    """
    if n_pairs < 2:
        raise ValueError("need at least two pairs")
    if not 0.0 <= f0 <= 1.0:
        raise ValueError(f"fidelity {f0!r} outside [0, 1]")
    if steps < 1:
        raise ValueError("need at least one step")
    rng = ensemble.stream(seed)
    labels = ensemble._sample_labels(rng, measures.werner(f0), n_pairs)
    f_formula = f0
    out: list[MCStep] = []
    truncated = False
    for k in range(1, steps + 1):
        if labels.size < 2:
            truncated = True
            break
        n_tests = labels.size // 2
        # one-particle y: to mostly-Phi+ form
        pairs = bell.unilateral_pauli(labels[: 2 * n_tests].reshape(n_tests, 2), PauliAxis.Y)
        src, tgt = bell.bxor(pairs[:, 0], pairs[:, 1])
        keep = bell.amp_bit(tgt) == 0  # target z spins come out parallel
        kept = bell.unilateral_pauli(src[keep], PauliAxis.Y)  # back to mostly-Psi- form
        kept = twirl.twirl_labels(kept, rng)
        n_in = 2 * n_tests
        n_kept = int(kept.size)
        f_formula, p_formula = recurrence_formula(f_formula)
        if n_kept:
            fid = float((kept == BellLabel.PSI_MINUS).mean())
            fid_err = math.sqrt(max(fid * (1.0 - fid), 0.0) / n_kept)
        else:
            fid, fid_err = float("nan"), float("nan")
        keep_rate = n_kept / n_tests
        surv = n_kept / n_in
        surv_err = 0.5 * math.sqrt(max(keep_rate * (1.0 - keep_rate), 0.0) / n_tests)
        out.append(
            MCStep(k, n_in, n_kept, fid, fid_err, surv, surv_err, f_formula, p_formula)
        )
        labels = kept
    return MCTrace(f0, n_pairs, seed, tuple(out), truncated)


@dataclass(frozen=True)
class VariableBlockStats:
    """One blocked purification round. discard_fraction counts pairs lost to
    failed parity tests (the block-failure rate); measured targets are
    tallied separately in target_fraction, and total_loss_fraction combines
    both as 1 - kept/used."""

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
    """Blocked recurrence round: rotate everything to mostly-Phi+ form, chain
    k = max(1, round(1/sqrt(1-F))) source pairs into one measured target per
    block, keep or discard each block's sources wholesale on the target's
    parity, rotate back, and re-twirl the kept pairs.

    Cross-pair correlations inside a kept block survive in the ensemble; only
    the per-pair marginal fidelity is reported (with a block-clustered
    standard error). At f0 = 1 a single all-pass block is used.
    """
    if not 0.5 < f0 <= 1.0:
        raise ValueError(f"need 1/2 < f0 <= 1, got {f0!r}")
    if f0 < 1.0:
        k = max(1, round((1.0 - f0) ** -0.5))
    else:
        k = max(1, n_pairs - 1)
    if n_pairs < k + 1:
        raise ValueError(f"need at least k+1 = {k + 1} pairs, got {n_pairs}")
    rng = ensemble.stream(seed)
    n_blocks = n_pairs // (k + 1)
    n_used = n_blocks * (k + 1)
    labels = ensemble._sample_labels(rng, measures.werner(f0), n_used)
    labels = bell.unilateral_pauli(labels.reshape(n_blocks, k + 1), PauliAxis.Y)
    srcs = labels[:, :k]
    # the chain acts on the target like one controlled-NOT from the XOR of
    # the sources, and on each source like its own controlled-NOT
    _, tgt = bell.bxor(np.bitwise_xor.reduce(srcs, axis=1), labels[:, k])
    keep = bell.amp_bit(tgt) == 0
    n_keep_blocks = int(keep.sum())
    kept_blocks, _ = bell.bxor(srcs[keep], tgt[keep, None])
    kept = bell.unilateral_pauli(kept_blocks, PauliAxis.Y).reshape(-1)
    kept = twirl.twirl_labels(kept, rng)
    n_kept = int(kept.size)
    if n_kept:
        hits = kept.reshape(n_keep_blocks, k) == BellLabel.PSI_MINUS
        fid = float(hits.mean())
        # ratio-estimator standard error over i.i.d. blocks
        s_b = np.zeros(n_blocks)
        s_b[keep] = hits.sum(axis=1)
        m_b = np.where(keep, k, 0)
        resid = s_b - fid * m_b
        fid_err = float(np.sqrt((resid**2).sum()) / m_b.sum())
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


@dataclass(frozen=True)
class ParityTest:
    """One subset parity measurement: the tested pair indices, the parity read
    off the consumed target (1 = odd Psi count in the subset), and the index
    of the prepurified target spent on it."""

    subset: tuple[int, ...]
    parity_observed: int
    target_consumed: int


@dataclass(frozen=True)
class BreedingResult:
    """Outcome of one breeding run. decode_correct_* report whether the
    applied corrections matched the truth; ties are flagged separately and
    always count as failures (never silently resolved). A round whose every
    parity-consistent string has zero prior decodes nothing and counts as
    incorrect. residual_error_pairs is zero exactly when both decodes were
    correct. coset_dim_* is the decoder's search size in each round: the
    parity-consistent strings number 2^coset_dim, with coset_dim = n minus the
    rank of that round's tests."""

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
    parity_tests: tuple[ParityTest, ...] = ()

    @property
    def decode_failed(self) -> bool:
        return (
            not self.decode_correct_round1
            or not self.decode_correct_round2
            or self.tie_round1
            or self.tie_round2
        )


def _mask_bits(mask: int, n: int) -> np.ndarray:
    """Bits 0..n-1 of an integer mask, as a boolean array."""
    return ((mask >> np.arange(n)) & 1).astype(bool)


def _bxor_parity(labels: np.ndarray, bits: np.ndarray):
    """Chain the selected pairs as sources into one fresh Phi+ target and
    z-measure it (consuming the target). bits selects the subset; a 2-D bits
    array holds one subset per row and gives one parity per row.

    By the bxor rule the chain acts on the target like one controlled-NOT
    from the XOR of the sources. A Phi+ target's sign bit is 0, so no source
    is altered, and its amp bit 0 is toggled by the sources' XORed amp bit:
    the subset's Psi-count parity, which the measurement reports."""
    return (bits.astype(np.int64) @ bell.amp_bit(labels)) & 1


def _parity_coset(n: int, masks, parity_bits) -> tuple[int, list[int]]:
    """Solve subset parities over GF(2).

    The n-bit strings x with popcount(x & mask) % 2 == bit for every test are
    exactly x0 ^ (any XOR of basis vectors): an affine coset of dimension
    len(basis) = n - rank. Returns (x0, basis); raises RuntimeError when the
    parities contradict each other."""
    rows: dict[int, tuple[int, int]] = {}  # leading bit -> (row mask, parity)
    for mask, bit in zip(masks, parity_bits):
        while mask:
            lead = mask.bit_length() - 1
            if lead not in rows:
                rows[lead] = (mask, bit)
                break
            row, row_bit = rows[lead]
            mask ^= row
            bit ^= row_bit
        if not mask and bit:
            raise RuntimeError("no parity-consistent candidate")
    leads = sorted(rows)

    def back_substitute(x: int, use_parity: bool) -> int:
        # a row's other bits all lie below its leading bit, so ascending
        # leads see every bit they depend on already fixed
        for lead in leads:
            row, bit = rows[lead]
            if ((x & row).bit_count() + (bit if use_parity else 0)) & 1:
                x |= 1 << lead
        return x

    x0 = back_substitute(0, True)
    basis = [back_substitute(1 << free, False) for free in range(n) if free not in rows]
    return x0, basis


def _ml_decode(n, masks, parity_bits, prior_groups) -> tuple[int, int, bool]:
    """Maximum-likelihood decode of an n-bit string from subset parities.

    Only the 2^(n - rank) parity-consistent strings of _parity_coset are
    scored, built by doubling over the coset basis. prior_groups is a list of
    (position_mask, p_one) pairs partitioning the positions; within a group
    each bit is independently 1 with probability p_one. Candidates carrying
    zero prior are discarded (ZeroPriorError when none is left); the survivor
    with the largest prior wins, smallest value first among exact ties.
    Returns (decoded, n_consistent, tie)."""
    x0, basis = _parity_coset(n, masks, parity_bits)
    cands = np.array([x0], dtype=np.uint64)
    for v in basis:
        cands = np.concatenate([cands, cands ^ np.uint64(v)])
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
        raise ZeroPriorError(n_consistent)
    score = np.zeros(cands.size)
    for mask, p in prior_groups:
        if mask == 0 or p <= 0.0 or p >= 1.0 or p == 0.5:
            continue
        ones = np.bitwise_count(cands & np.uint64(mask)).astype(np.float64)
        score += ones * math.log2(p / (1.0 - p))
    best = cands[score == score.max()]
    return int(best.min()), n_consistent, bool(best.size > 1)


def breeding_mc(
    w: BellDiagonal,
    n: int,
    delta: float = 0.05,
    r_margin: float = 2.0,
    seed: int = 0,
    stream_id: int = 0,
) -> BreedingResult:
    """One breeding run on n impure pairs sampled from w.

    Round 1 runs ceil(n*H + r_margin*sqrt(n)) random-subset parity tests,
    where H is the per-pair Phi/Psi class entropy, decodes the class string by
    maximum likelihood under the sampling prior over the 2^(n - rank) strings
    that fit the tests, and fixes the decoded Psi pairs with one-particle y
    rotations. Round 2 repeats the scheme for the sign string (sized by the
    conditional sign entropy) after a two-particle y rotation converts
    leftover Phi- pairs into Psi+, fixing hits with one-particle x rotations.
    A round-1 misdecode can leave round 2 with no string of non-zero prior;
    round 2 then fails and corrects nothing. Every test consumes one
    prepurified Phi+ target; n*(S+delta) targets are provisioned and overruns
    are reported via budget_exceeded, not raised.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_BREEDING_PAIRS:
        raise ValueError(
            f"breeding handles at most {MAX_BREEDING_PAIRS} pairs,"
            " which bounds the decoder's search"
        )
    if not (0.0 <= delta <= MAX_BREEDING_MARGIN and 0.0 <= r_margin <= MAX_BREEDING_MARGIN):
        raise ValueError(f"delta and r_margin must lie in [0, {MAX_BREEDING_MARGIN:g}]")
    p = w.p
    rng = ensemble.stream(seed, stream_id)
    labels = ensemble._sample_labels(rng, w, n)

    p_psi = float(p[2] + p[3])
    p_phi = float(p[0] + p[1])
    sign_given_phi = float(p[1] / p_phi) if p_phi > 0.0 else 0.5
    # after the y fix, a former Psi+ carries the flipped sign bit
    sign_given_psi = float(p[2] / p_psi) if p_psi > 0.0 else 0.5
    h_class = measures.h2(p_psi)
    h_sign = 0.0
    if p_phi > 0.0:
        h_sign += p_phi * measures.h2(sign_given_phi)
    if p_psi > 0.0:
        h_sign += p_psi * measures.h2(sign_given_psi)

    full = (1 << n) - 1
    weights = 1 << np.arange(n)
    tests: list[ParityTest] = []

    def run_tests(current_labels, count):
        # one row per test: the same draws as count successive subset_mask calls
        bits = rng.integers(0, 2, size=(count, n))
        parities = _bxor_parity(current_labels, bits).tolist()
        for row, par in zip(bits.tolist(), parities):
            subset = tuple(i for i, b in enumerate(row) if b)
            tests.append(ParityTest(subset, par, len(tests)))
        return (bits @ weights).tolist(), parities

    def decode(masks, parities, groups, truth):
        """(decoded, correct, tie, coset_dim) of one round."""
        try:
            decoded, n_consistent, tie = _ml_decode(n, masks, parities, groups)
        except ZeroPriorError as exc:
            return 0, False, False, exc.n_consistent.bit_length() - 1
        return decoded, decoded == truth, tie, n_consistent.bit_length() - 1

    r1 = int(math.ceil(n * h_class + r_margin * math.sqrt(n)))
    x_true = ensemble.pack_bits(bell.amp_bit(labels))
    masks1, pars1 = run_tests(labels, r1)
    x_hat, correct1, tie1, dim1 = decode(masks1, pars1, [(full, p_psi)], x_true)

    # one-particle y on every decoded Psi
    labels = np.where(_mask_bits(x_hat, n), bell.unilateral_pauli(labels, PauliAxis.Y), labels)
    labels = bell.bilateral_rot(labels, PauliAxis.Y)  # leftover sign errors become Psi+

    r2 = int(math.ceil(n * h_sign + r_margin * math.sqrt(n)))
    y_true = ensemble.pack_bits(bell.amp_bit(labels))
    masks2, pars2 = run_tests(labels, r2)
    groups = [(full & ~x_hat, sign_given_phi), (x_hat, sign_given_psi)]
    y_hat, correct2, tie2, dim2 = decode(masks2, pars2, groups, y_true)

    # one-particle x on every decoded Psi+
    labels = np.where(_mask_bits(y_hat, n), bell.unilateral_pauli(labels, PauliAxis.X), labels)
    residual = int((labels != BellLabel.PHI_PLUS).sum())

    targets = r1 + r2
    provisioned = int(math.ceil(n * (measures.entropy_bell(w) + delta)))
    return BreedingResult(
        n=n,
        targets_consumed=targets,
        decode_correct_round1=correct1,
        decode_correct_round2=correct2,
        tie_round1=tie1,
        tie_round2=tie2,
        residual_error_pairs=residual,
        net_yield=(n - residual - targets) / n,
        provisioned_targets=provisioned,
        budget_exceeded=targets > provisioned,
        coset_dim_round1=dim1,
        coset_dim_round2=dim2,
        parity_tests=tuple(tests),
    )


@dataclass(frozen=True)
class BreedingSummary:
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
) -> tuple[BreedingSummary, list[BreedingResult]]:
    """Run independent seeded breeding trials: trial t runs on substream
    (seed, t), so it equals breeding_mc(..., seed=seed, stream_id=t)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    results = ensemble.run_sharded(
        lambda t: breeding_mc(w, n, delta, r_margin, seed=seed, stream_id=t), trials
    )
    summary = BreedingSummary(
        trials=trials,
        n=n,
        delta=delta,
        r_margin=r_margin,
        mean_targets_per_pair=float(np.mean([r.targets_consumed for r in results])) / n,
        decode_failure_rate=float(np.mean([r.decode_failed for r in results])),
        residual_error_rate=float(np.mean([r.residual_error_pairs / r.n for r in results])),
        mean_net_yield=float(np.mean([r.net_yield for r in results])),
        predicted_net_yield=1.0 - measures.entropy_bell(w),
        budget_exceeded_rate=float(np.mean([r.budget_exceeded for r in results])),
    )
    return summary, results


def parity_bound_check(n: int, r: int, trials: int, seed: int) -> ensemble.EstimateWithError:
    """Empirical probability that two distinct random n-bit strings agree on
    the parities of r independent random subsets (expected at most 2^-r)."""
    if n < 1 or r < 1 or trials < 1:
        raise ValueError("n, r and trials must all be positive")
    if n > 62:
        raise ValueError("strings longer than 62 bits are not supported")
    rng = ensemble.stream(seed)
    hi = 1 << n
    xs = rng.integers(0, hi, size=trials, dtype=np.uint64)
    ys = rng.integers(0, hi, size=trials, dtype=np.uint64)
    while True:
        same = xs == ys
        if not same.any():
            break
        ys[same] = rng.integers(0, hi, size=int(same.sum()), dtype=np.uint64)
    diff = xs ^ ys
    agree = np.ones(trials, dtype=bool)
    for _ in range(r):
        masks = rng.integers(0, hi, size=trials, dtype=np.uint64)
        agree &= (np.bitwise_count(diff & masks) & 1) == 0
    rate = float(agree.mean())
    se = math.sqrt(rate * (1.0 - rate) / trials)
    return ensemble.EstimateWithError(rate, se, trials)
