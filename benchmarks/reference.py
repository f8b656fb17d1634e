"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports bellpure. Each function restates a result of the paper
or a property of the output contract in its own terms: exact rational
arithmetic for the recurrence, two-bit label rules instead of the program's
lookup tables, numpy's LAPACK eigensolver instead of the program's Jacobi
sweeps, and brute force instead of the breeding decoder.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

_RT2 = math.sqrt(0.5)
#: Bell vectors in the order (Phi+, Phi-, Psi+, Psi-), basis (uu, ud, du, dd).
BELL = np.array(
    [
        [_RT2, 0.0, 0.0, _RT2],
        [_RT2, 0.0, 0.0, -_RT2],
        [0.0, _RT2, _RT2, 0.0],
        [0.0, _RT2, -_RT2, 0.0],
    ],
    dtype=complex,
)


class CheckError(AssertionError):
    """An output of the program disagrees with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(float(got) - float(want)) <= tol:
        raise CheckError(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


# --- recurrence -----------------------------------------------------------


def werner_map(f: Fraction) -> tuple[Fraction, Fraction]:
    """The paper's two-pair map on Werner input: output fidelity and the
    probability that the target's spins come out parallel."""
    g = (1 - f) / 3
    p = f * f + 2 * f * g + 5 * g * g
    return (f * f + g * g) / p, p


def werner_trajectory(f0: float, steps: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(fidelity, p_success, prod(p/2)) after each of `steps` steps."""
    f, acc, out = Fraction(f0), Fraction(1), []
    for _ in range(steps):
        f, p = werner_map(f)
        acc *= p / 2
        out.append((f, p, acc))
        # keep denominators small; 1e-30 is far below the float tolerances
        f = f.limit_denominator(10**30)
        acc = acc.limit_denominator(10**30)
    return out


def step_bits(p1, p2) -> tuple[list[Fraction], Fraction]:
    """Exact two-pair step on arbitrary Bell-diagonal input, written with the
    two-bit labels (amp bit 2, sign bit 1): a one-particle y rotation is
    label ^ 3, the bilateral controlled-NOT maps (s, t) to
    (s ^ (t & 1), t ^ (s & 2)), and the source is kept when the target's amp
    bit is 0. Returns the kept pair after the rotation back and the triplet
    twirl, and the keep probability."""
    a = [Fraction(float(x)) for x in p1]
    b = [Fraction(float(x)) for x in p2]
    post = [Fraction(0)] * 4
    for s in range(4):
        for t in range(4):
            s_rot, t_rot = s ^ 3, t ^ 3
            if (t_rot ^ (s_rot & 2)) & 2:
                continue
            post[(s_rot ^ (t_rot & 1)) ^ 3] += a[s] * b[t]
    keep = sum(post)
    singlet = post[3] / keep
    trip = (1 - singlet) / 3
    return [trip, trip, trip, singlet], keep


def block_keep(f: float, k: int) -> float:
    """Probability that a block of k sources and one target passes:
    (1 + (1 - 2q)^(k+1)) / 2 with q = 2(1 - F)/3."""
    q = 2.0 * (1.0 - f) / 3.0
    return (1.0 + (1.0 - 2.0 * q) ** (k + 1)) / 2.0


def block_size(f: float) -> int:
    return max(1, round((1.0 - f) ** -0.5))


# --- entropies and curves -------------------------------------------------


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shannon(p) -> float:
    return -sum(float(v) * math.log2(float(v)) for v in p if v > 0.0)


def werner_vector(f: float) -> list[float]:
    g = (1.0 - f) / 3.0
    return [g, g, g, f]


def curve_point(f: float) -> tuple[float, float]:
    """D0 = 1 - H(Werner vector) and E = h2(1/2 + sqrt(F(1-F)))."""
    return 1.0 - shannon(werner_vector(f)), h2(0.5 + math.sqrt(f * (1.0 - f)))


# --- breeding -------------------------------------------------------------


def breeding_targets(p, n: int, r_margin: float) -> tuple[int, int]:
    """Parity tests of the two rounds: ceil(n h2(p_Psi) + r sqrt n) and
    ceil(n h_sign + r sqrt n), h_sign the sign entropy given the class."""
    p = [float(v) for v in p]
    p_phi, p_psi = p[0] + p[1], p[2] + p[3]
    h_sign = 0.0
    if p_phi > 0.0:
        h_sign += p_phi * h2(p[1] / p_phi)
    if p_psi > 0.0:
        h_sign += p_psi * h2(p[2] / p_psi)
    margin = r_margin * math.sqrt(n)
    return math.ceil(n * h2(p_psi) + margin), math.ceil(n * h_sign + margin)


def min_weight_tie(n: int, tests, p_one: float) -> bool:
    """Brute force over all 2^n class strings: True when more than one
    string agrees with every (subset, parity) test at the least weight of
    departures from the likelier bit value. Each bit is 1 with probability
    p_one, so that is exactly a maximum-likelihood tie."""
    x = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(x.size, dtype=bool)
    for subset, parity in tests:
        par = np.zeros(x.size, dtype=np.int64)
        for i in subset:
            par ^= (x >> i) & 1
        ok &= par == parity
    ones = np.array([bin(int(v)).count("1") for v in x[ok]])
    expect(ones.size > 0, "no class string agrees with the parity tests")
    if p_one == 0.5:
        return ones.size > 1
    departures = ones if p_one < 0.5 else n - ones
    return int((departures == departures.min()).sum()) > 1


# --- states ---------------------------------------------------------------


def singlet_fidelity(rho: np.ndarray) -> float:
    v = BELL[3]
    return float(np.real(v.conj() @ rho @ v))


def werner_matrix(f: float) -> np.ndarray:
    return sum(w * np.outer(v, v.conj()) for w, v in zip(werner_vector(f), BELL))


def spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues, descending, from LAPACK."""
    return np.linalg.eigvalsh(m)[::-1]


def entropy(rho: np.ndarray) -> float:
    return -sum(float(v) * math.log2(float(v)) for v in spectrum(rho) if v > 1e-15)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def random_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random 4x4 density matrix of the given rank (normalized G G^dagger)."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# --- CLI emissions --------------------------------------------------------


def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    expect(lines[0].startswith("# bellpure "), "CSV lacks the version header")
    expect(lines[1].startswith("# config: "), "CSV lacks the config header")
    config = json.loads(lines[1][len("# config: "):])
    return config, lines[2].split(","), [ln.split(",") for ln in lines[3:]]


def csv_cell(v) -> str:
    """A JSON value as the CSV emission must spell it."""
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def same_table(csv_text: str, json_text: str) -> None:
    """CSV and JSON emissions of one run carry the same values, digit for
    digit, and the same configuration apart from the format."""
    config, columns, rows = parse_csv(csv_text)
    doc = json.loads(json_text)
    expect(doc["columns"] == columns, "CSV and JSON columns differ")
    strip = lambda c: {k: v for k, v in c.items() if k != "format"}  # noqa: E731
    expect(strip(doc["config"]) == strip(config), "CSV and JSON configs differ")
    expect(len(doc["rows"]) == len(rows), "CSV and JSON row counts differ")
    for jrow, crow in zip(doc["rows"], rows):
        expect([csv_cell(v) for v in jrow] == crow, f"CSV row {crow} differs from JSON {jrow}")
