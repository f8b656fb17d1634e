"""Exact two-qubit state core: 4x4 density matrices, partial trace, Hermitian
spectra (numpy's eigvalsh), entropies, and the Bell basis.

Conventions, fixed package-wide:

* computational basis order (uu, ud, du, dd), party A's spin first, "u" = 0;
* Bell basis order (Phi+, Phi-, Psi+, Psi-);
* logarithms are base 2: entropies are in bits, entanglement in ebits.

Everything here is a pure function of its inputs. ``DensityMatrix`` and
``PureState`` freeze their storage on construction, so values can be shared
between threads without copying.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import measures

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-10
NORM_TOL = 1e-12
#: Largest real or imaginary part a DensityMatrix entry may have. A density
#: matrix's entries have modulus at most 1, and the bound keeps the sums and
#: differences of its checks far from float overflow.
MAX_ENTRY = 2.0

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)

_RT2 = math.sqrt(0.5)

#: Rows are Phi+, Phi-, Psi+, Psi- in the computational order above.
BELL_BASIS = np.array(
    [
        [_RT2, 0.0, 0.0, _RT2],
        [_RT2, 0.0, 0.0, -_RT2],
        [0.0, _RT2, _RT2, 0.0],
        [0.0, _RT2, -_RT2, 0.0],
    ],
    dtype=complex,
)
BELL_BASIS.setflags(write=False)

#: Two-qubit conditional flip: the target (second) spin flips exactly when the
#: source (first) spin is up. Basis order (uu, ud, du, dd).
U_XOR = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
U_XOR.setflags(write=False)


def as_matrix(x) -> np.ndarray:
    """Coerce a DensityMatrix, PureState projector source, or array to ndarray."""
    if isinstance(x, DensityMatrix):
        return x.mat
    return np.asarray(x, dtype=complex)


def eig_hermitian(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending (numpy's
    eigvalsh). Raises ValueError for a non-square, non-finite or
    non-Hermitian array; a DensityMatrix, valid by construction, skips the checks."""
    if isinstance(m, DensityMatrix):
        return np.linalg.eigvalsh(m.mat)[::-1]
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    # a difference of finite entries overflows to inf only when it is far from 0
    with np.errstate(over="ignore"):
        if np.abs(a - a.conj().T).max() > HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(a)[::-1]


def von_neumann_entropy(rho) -> float:
    """-Tr(rho log2 rho), with 0 log 0 read as 0."""
    s = 0.0
    for v in eig_hermitian(rho):
        if v > 1e-15:
            s -= v * math.log2(v)
    return max(0.0, s)


def fidelity_singlet(rho) -> float:
    """Overlap of the state with the singlet Psi-."""
    v = BELL_BASIS[3]
    return float(np.real(v.conj() @ as_matrix(rho) @ v))


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (2x2 or 4x4).

    The trace is renormalized when within 1e-9 of 1 (float drift); anything
    further off is rejected as a caller bug, as are matrices that fail the
    Hermiticity (1e-12) or positivity (-1e-10) tolerances, or that hold a
    non-finite entry or one with a part beyond MAX_ENTRY.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
        largest = np.abs(m.view(float)).max()
        if not largest <= MAX_ENTRY:  # also true for NaN
            if not np.isfinite(m).all():
                raise ValueError("matrix has non-finite entries")
            raise ValueError(f"matrix entry part {largest:.3g} beyond {MAX_ENTRY:g} in magnitude")
        adj = m.conj().T
        herm_dev = np.abs(m - adj).max()
        if herm_dev > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3g})")
        m = (m + adj) / 2.0
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} too far from 1")
        m = m / tr
        # m is square, finite and Hermitian by now: eigvalsh needs no re-check
        low = float(np.linalg.eigvalsh(m).min())
        if low < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {low:.3g}")
        m.setflags(write=False)
        self.mat = m

    def allclose(self, other, tol: float = 1e-12) -> bool:
        return bool(np.abs(self.mat - as_matrix(other)).max() <= tol)

    def __repr__(self) -> str:
        return f"DensityMatrix({self.mat.tolist()!r})"


class PureState:
    """Normalized two-qubit state vector in the computational order."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        a = np.array(amps, dtype=complex).reshape(-1)
        if a.shape != (4,):
            raise ValueError("expected 4 amplitudes")
        if abs(float(np.vdot(a, a).real) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")
        a.setflags(write=False)
        self.amps = a

    def projector(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())


def partial_trace(rho, party: str) -> DensityMatrix:
    """Reduced single-spin state of the requested party ("A" or "B")."""
    m = as_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError("partial_trace expects a two-qubit (4x4) state")
    r = m.reshape(2, 2, 2, 2)
    if party == "A":
        red = np.einsum("ikjk->ij", r)
    elif party == "B":
        red = np.einsum("kikj->ij", r)
    else:
        raise ValueError('party must be "A" or "B"')
    return DensityMatrix(red)


def entanglement_pure(psi) -> float:
    """Entanglement (ebits) of a pure state: entropy of either reduced spin."""
    if not isinstance(psi, PureState):
        psi = PureState(psi)
    return von_neumann_entropy(partial_trace(psi.projector(), "A"))


def werner_pure_states(f: float) -> list[PureState]:
    """The eight pure states whose uniform mixture is the Werner state of
    fidelity f: weight f on the singlet, the remainder split over the three
    triplets with all independent sign/phase choices."""
    g, _, _, f = measures.werner_weights(f)
    a, b = math.sqrt(f), math.sqrt(g)
    out = []
    for s1, s2, s3 in itertools.product((1.0, -1.0), repeat=3):
        amps = a * BELL_BASIS[3] + b * (
            s1 * BELL_BASIS[2] + s2 * BELL_BASIS[1] + s3 * 1j * BELL_BASIS[0]
        )
        out.append(PureState(amps))
    return out
