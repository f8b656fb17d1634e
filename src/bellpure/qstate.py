"""Exact two-qubit state core: 4x4 density matrices, local unitary action,
partial trace, Hermitian spectra (numpy's eigvalsh), entropies, and the Bell
basis.

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

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-10
UNITARY_TOL = 1e-12
NORM_TOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

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


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for axis "x", "y" or "z"."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}") from None


def rotation_half_pi(axis: str) -> np.ndarray:
    """pi/2 spin rotation about the given axis, exp(-i pi/4 sigma_axis)."""
    return _RT2 * (ID2 - 1j * pauli(axis))


def as_matrix(x) -> np.ndarray:
    """Coerce a DensityMatrix, PureState projector source, or array to ndarray."""
    if isinstance(x, DensityMatrix):
        return x.mat
    return np.asarray(x, dtype=complex)


def _check_unitary(u, what: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{what} must be square, got shape {u.shape}")
    dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    if dev > UNITARY_TOL:
        raise ValueError(f"{what} is not unitary (deviation {dev:.3g})")
    return u


def bilateral(u_a, u_b) -> np.ndarray:
    """Joint 4x4 action of party A applying u_a and party B applying u_b."""
    return np.kron(_check_unitary(u_a, "u_a"), _check_unitary(u_b, "u_b"))


def eig_hermitian(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending (numpy's
    eigvalsh). Raises ValueError for a non-square, non-finite or
    non-Hermitian matrix."""
    a = as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
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
    non-finite entry.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        herm_dev = np.abs(m - m.conj().T).max()
        if herm_dev > HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian (deviation {herm_dev:.3g})")
        m = (m + m.conj().T) / 2.0
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} too far from 1")
        m = m / tr
        low = float(eig_hermitian(m).min())
        if low < -PSD_TOL:
            raise ValueError(f"matrix has negative eigenvalue {low:.3g}")
        m.setflags(write=False)
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

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

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.projector())


def conjugate(rho, u) -> DensityMatrix:
    """u rho u-dagger for a unitary u; spectrum and trace are preserved."""
    u = _check_unitary(u, "u")
    return DensityMatrix(u @ as_matrix(rho) @ u.conj().T)


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


def expand_two_qubit_gate(gate, qubits: tuple[int, int], n_qubits: int) -> np.ndarray:
    """Embed a two-qubit gate on the given qubit positions of an n-qubit
    register. Qubit 0 is the most significant bit of the basis index."""
    g = np.asarray(gate, dtype=complex)
    if g.shape != (4, 4):
        raise ValueError("gate must be 4x4")
    i, j = qubits
    if i == j or not (0 <= i < n_qubits and 0 <= j < n_qubits):
        raise ValueError(f"bad qubit positions {qubits!r} for {n_qubits} qubits")
    dim = 1 << n_qubits
    shift_i = n_qubits - 1 - i
    shift_j = n_qubits - 1 - j
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        gcol = (((col >> shift_i) & 1) << 1) | ((col >> shift_j) & 1)
        base = col & ~((1 << shift_i) | (1 << shift_j))
        for grow in range(4):
            amp = g[grow, gcol]
            if amp != 0.0:
                row = base | ((grow >> 1) << shift_i) | ((grow & 1) << shift_j)
                out[row, col] += amp
    return out


def werner_pure_states(f: float) -> list[PureState]:
    """The eight pure states whose uniform mixture is the Werner state of
    fidelity f: weight f on the singlet, the remainder split over the three
    triplets with all independent sign/phase choices."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f!r} outside [0, 1]")
    a = math.sqrt(f)
    b = math.sqrt((1.0 - f) / 3.0)
    out = []
    for s1, s2, s3 in itertools.product((1.0, -1.0), repeat=3):
        amps = a * BELL_BASIS[3] + b * (
            s1 * BELL_BASIS[2] + s2 * BELL_BASIS[1] + s3 * 1j * BELL_BASIS[0]
        )
        out.append(PureState(amps))
    return out
