"""Closed-form scalar quantities: binary entropy, the Werner family, the
breeding yield and its threshold, the formation bound for Werner states, the
CHSH boundary, the random-axis fidelity relation, and the composite
recurrence-then-breed yield curve."""
from __future__ import annotations

import math

from .bell import BellDiagonal


def h2(x: float) -> float:
    """Binary Shannon entropy in bits, with 0 log 0 read as 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"h2 argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def werner(f: float) -> BellDiagonal:
    """Bell-diagonal state with weight f on the singlet and the remainder
    spread evenly over the three triplets."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    g = (1.0 - f) / 3.0
    return BellDiagonal((g, g, g, f))


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
    # imported here: protocols layers on top of this module
    from .protocols import recurrence_formula

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
