"""Closed-form scalar quantities: the whole-number rule for sizes and seeds,
binary entropy, the Werner family, the two-pair recurrence map on Werner input
and its iterated trajectory, the breeding yield, its threshold and the caps on
a breeding run's arguments, the formation bound for Werner states, the CHSH
boundary, the random-axis fidelity relation, and the composite
recurrence-then-breed yield curve.

Everything here is plain float arithmetic. Only werner() loads the array
layer (bell, and numpy with it); werner_weights() gives the same state as
plain floats, so the closed-form commands start without it.
The trace records are immutable typing.NamedTuples, so importing this module
loads nothing beyond math and typing (no dataclasses, no inspect).
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .bell import BellDiagonal


def whole_number(name: str, v, lo: int, hi: float = math.inf) -> int:
    """int(v) if v is a whole number in [lo, hi], else a ValueError naming
    it: the one rule for every size, count and seed argument."""
    if not (lo <= v <= hi and v % 1 == 0):  # also false for NaN and infinity
        span = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be a whole number {span}, got {v!r}")
    return int(v)


def h2(x: float) -> float:
    """Binary Shannon entropy in bits, with 0 log 0 read as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"h2 argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def werner_weights(f: float) -> tuple[float, float, float, float]:
    """Bell-order weights (g, g, g, f), g = (1 - f)/3, of the Werner state:
    weight f on the singlet and the remainder spread evenly over the three
    triplets. A -0.0 reads as 0.0."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    g = (1.0 - f) / 3.0
    return (g, g, g, f + 0.0)


def werner(f: float) -> BellDiagonal:
    """The Werner state of werner_weights(f) as a BellDiagonal."""
    weights = werner_weights(f)  # checked before numpy loads
    from .bell import BellDiagonal

    return BellDiagonal(weights)


def entropy_bell(d: BellDiagonal) -> float:
    """Shannon entropy (bits) of the label distribution; equals the von
    Neumann entropy of the corresponding density matrix."""
    s = 0.0
    for v in d.p:
        if v > 0.0:
            s -= float(v) * math.log2(float(v))
    return max(0.0, s)


def d0(f: float) -> float:
    """Net pure pairs per input pair when breeding Werner input:
    1 + f log2(f) + (1-f) log2((1-f)/3). Negative below the threshold."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    s = 0.0
    if f > 0.0:
        s += f * math.log2(f)
    if f < 1.0:
        s += (1.0 - f) * math.log2((1.0 - f) / 3.0)
    return 1.0 + s


def d0_threshold() -> float:
    """Fidelity where the breeding yield crosses zero; bisection on
    (0.51, 0.999) down to a 1e-10 bracket."""
    lo, hi = 0.51, 0.999
    if not d0(lo) < 0.0 < d0(hi):
        raise RuntimeError("bisection bracket does not straddle the root")
    for _ in range(200):
        if hi - lo <= 1e-10:
            break
        mid = 0.5 * (lo + hi)
        if d0(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Largest breeding run. The decoder enumerates the 2^(n - rank) strings that
#: fit the parity tests, up to 2^n when the tests have rank 0, so the cap bounds
#: its memory.
MAX_BREEDING_PAIRS = 20

#: Largest accepted delta and r_margin. r_margin sets the tests per round,
#: ceil(n*H + r_margin*sqrt(n)), so the cap bounds each round's subset draw.
MAX_BREEDING_MARGIN = 100.0


def check_breeding_args(n: int, delta: float, r_margin: float) -> int:
    """Check a breeding run's arguments against the caps; returns n as an int."""
    n = whole_number("n", n, 1, MAX_BREEDING_PAIRS)
    if not (0.0 <= delta <= MAX_BREEDING_MARGIN and 0.0 <= r_margin <= MAX_BREEDING_MARGIN):
        raise ValueError(f"delta and r_margin must lie in [0, {MAX_BREEDING_MARGIN:g}]")
    return n


def e_formation_werner(f: float) -> float:
    """Entanglement cost (ebits per pair) of assembling a Werner state; an
    upper bound on what any purification scheme can distill from it."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    if f <= 0.5:
        return 0.0
    return h2(0.5 + math.sqrt(f * (1.0 - f)))


def chsh_threshold() -> float:
    """Fidelity above which a Werner state violates the CHSH inequality."""
    return (2.0 + 3.0 * math.sqrt(2.0)) / 8.0


def is_chsh_violating(f: float) -> bool:
    return f > chsh_threshold()


def fidelity_from_parallel(p_par: float) -> float:
    """Invert the shared-random-axis statistic: F = 1 - 3 p_par / 2."""
    if not -1e-12 <= p_par <= 2.0 / 3.0 + 1e-12:
        raise ValueError(f"parallel probability {p_par!r} outside [0, 2/3]")
    return 1.0 - 1.5 * p_par


def parallel_from_fidelity(f: float) -> float:
    """Probability of parallel outcomes along one shared random axis."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    return 2.0 * (1.0 - f) / 3.0


class NotDistillableError(ValueError):
    """The recurrence map cannot improve fidelities at or below 1/2."""


class TraceStep(NamedTuple):
    fidelity: float
    p_success: float
    cumulative_yield: float


class ProtocolTrace(NamedTuple):
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
    max_steps = whole_number("max_steps", max_steps, 0)
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


#: Most recurrence steps that dr_curve tries before breeding.
DR_MAX_STEPS = 64


def dr_curve(f: float) -> float:
    """Best recurrence-then-breed yield: run k two-pair tests (each keeps one
    pair out of two with that step's success probability), then breed the
    survivors. Maximizes prod(p_i / 2) * d0(F_k) over k = 0..DR_MAX_STEPS, and
    over discarding every pair, which yields 0.

    The scan stops once prod(p_i / 2) is at most the best so far, with the
    full scan's float: d0 <= 1 in floating point (1.0 plus non-positive
    terms) and the product only shrinks, so no later step can win."""
    if not 0.5 < f < 1.0:
        raise ValueError(f"dr_curve needs 1/2 < f < 1, got {f!r}")
    best = max(0.0, d0(f))
    cur = f
    acc = 1.0
    for _ in range(DR_MAX_STEPS):
        cur, p = recurrence_formula(cur)
        acc *= 0.5 * p
        if acc <= best:
            break
        cand = acc * d0(cur)
        if cand > best:
            best = cand
    return best
