"""Label-level algebra of the four Bell states.

Each label carries two bits: the amp bit (1 for the Psi states, whose z spins
are anti-parallel) and the sign bit (1 for the "-" superposition). A label's
integer value is amp*2 + sign, which fixes the package-wide Bell order
(Phi+ = 0, Phi- = 1, Psi+ = 2, Psi- = 3).

Every label rule is written once here, as a two-bit integer operation that
acts on a BellLabel or elementwise on a uint8 label array: one-particle pi
rotations are XORs (X ^2, Y ^3, Z ^1), the two-particle pi/2 rotations are
one permutation array per axis, and the bilateral controlled-NOT is
(s, t) -> (s ^ (t & 1), t ^ (s & 2)).

All maps here drop global phases. `bellpure selftest` certifies each rule
against the matrix algebra: it conjugates the Bell projectors (products of
two for the bilateral controlled-NOT, BXOR_UNITARY below) by each rule's
unitary and names the image, which the dropped phases cannot change.
"""
from __future__ import annotations

from enum import Enum, IntEnum

import numpy as np

from . import qstate


class BellLabel(IntEnum):
    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


class PauliAxis(Enum):
    X = "x"
    Y = "y"
    Z = "z"


#: Every label, in Bell order, as a read-only uint8 array.
LABELS = np.arange(4, dtype=np.uint8)
LABELS.setflags(write=False)

# The label rules. Each acts on a BellLabel (or int), returning BellLabels,
# or elementwise on a uint8 label array.

#: One-particle pi rotations as XOR masks: X flips the amp bit, Z the sign
#: bit, Y both. Each is a fixed-point-free involution.
PAULI_XOR = {PauliAxis.X: 2, PauliAxis.Y: 3, PauliAxis.Z: 1}

#: Two-particle pi/2 rotations as label images (entry l is the image of l):
#: each fixes the singlet and one triplet and swaps the remaining two.
BILATERAL_PERM = {
    PauliAxis.X: np.array([2, 1, 0, 3], dtype=np.uint8),
    PauliAxis.Y: np.array([0, 2, 1, 3], dtype=np.uint8),
    PauliAxis.Z: np.array([1, 0, 2, 3], dtype=np.uint8),
}
for _perm in BILATERAL_PERM.values():
    _perm.setflags(write=False)


def _as_labels(v):
    """Pass a label array through; coerce a scalar to BellLabel, which
    rejects values outside 0..3."""
    return v if isinstance(v, np.ndarray) else BellLabel(v)


def unilateral_pauli(label, axis: PauliAxis):
    """Label image under a pi rotation of one particle about the given axis."""
    return _as_labels(label ^ PAULI_XOR[axis])


def bilateral_rot(label, axis: PauliAxis):
    """Label image under pi/2 rotations of both particles about the axis."""
    return _as_labels(BILATERAL_PERM[axis][_as_labels(label)])


def bxor(source, target) -> tuple:
    """Joint label image of the bilateral controlled-NOT on (source, target),
    phases dropped: the target's sign bit kicks back into the source's, and
    the source's amp bit toggles the target's.

    The rule never changes a source's amp bit or the target's sign bit, so
    chaining several sources into one target acts on the target like a
    single controlled-NOT from the XOR of the sources."""
    return _as_labels(source ^ (target & 1)), _as_labels(target ^ (source & 2))


def amp_bit(label):
    """1 for the Psi states, whose z spins come out anti-parallel; 0 for the
    Phi states, whose z spins come out parallel. Measuring both spins of a
    pair along z (which consumes it) reads this bit and nothing more."""
    return label >> 1


class BellDiagonal:
    """Probability vector over the Bell labels, ordered (Phi+, Phi-, Psi+, Psi-)."""

    __slots__ = ("p",)

    #: Far below qstate.TRACE_TOL: to_density's trace, a few ulps from the
    #: sum, always passes, and the renormalising oracle step moves p_success
    #: by at most 2 * SUM_TOL.
    SUM_TOL = 1e-11

    def __init__(self, p):
        v = np.array(p, dtype=float).reshape(-1)
        if v.shape != (4,):
            raise ValueError("expected 4 probabilities")
        lo, hi = v.min(), v.max()
        if not (-1e-12 <= lo and hi <= 1.0 + 1e-12):  # also true for NaN
            if not np.isfinite(v).all():
                raise ValueError(f"probabilities must be finite: {v.tolist()}")
            raise ValueError(f"probabilities out of range: {v.tolist()}")
        s = float(v.sum())
        if abs(s - 1.0) > self.SUM_TOL:
            raise ValueError(f"probabilities sum to {s!r}, not 1")
        if lo <= 0.0 or hi > 1.0:  # zeros included, as clip keeps a -0.0
            v = np.clip(v, 0.0, 1.0)
            v += 0.0
        v.setflags(write=False)
        self.p = v

    @property
    def fidelity(self) -> float:
        """Weight on the singlet Psi-."""
        return float(self.p[BellLabel.PSI_MINUS])

    def allclose(self, other, tol: float = 1e-12) -> bool:
        q = other.p if isinstance(other, BellDiagonal) else np.asarray(other, float)
        return bool(np.abs(self.p - q).max() <= tol)

    def __repr__(self) -> str:
        return f"BellDiagonal({self.p.tolist()!r})"


def map_distribution(d: BellDiagonal, image) -> BellDiagonal:
    """Push a distribution through a label bijection given as its image
    array (entry l is the image of label l); the sum is preserved exactly
    because the entries are only permuted."""
    image = np.asarray(image)
    if image.shape != (4,) or not np.array_equal(np.sort(image), LABELS):
        raise ValueError("label map is not a bijection")
    out = np.empty(4)
    out[image] = d.p
    return BellDiagonal(out)


#: Read-only 4x4 projectors onto the Bell states, in Bell order.
_PROJECTORS = np.array([np.outer(v, v.conj()) for v in qstate.BELL_BASIS])
_PROJECTORS.setflags(write=False)


def label_projector(label: BellLabel) -> qstate.DensityMatrix:
    """Projector onto one Bell state."""
    return qstate.DensityMatrix(_PROJECTORS[BellLabel(label)])


def bell_matrix(p) -> np.ndarray:
    """The Bell projectors weighted by p and added in Bell order, plus 0.0 (no -0.0)."""
    return (p[:, None, None] * _PROJECTORS).sum(axis=0) + 0.0


def to_density(d: BellDiagonal) -> qstate.DensityMatrix:
    """Density matrix of a Bell-diagonal distribution: bell_matrix(d.p), checked once."""
    return qstate.DensityMatrix(bell_matrix(d.p))


def bell_diagonal_part(mat) -> np.ndarray:
    """Diagonal of a two-qubit state in the Bell basis (length-4 real vector)."""
    b = qstate.BELL_BASIS
    return (b.conj()[:, None, :] @ qstate.as_matrix(mat) @ b[:, :, None]).reshape(4).real


#: 16x16 read-only unitary of the bilateral controlled-NOT on two pairs, qubit
#: order (A_source, B_source, A_target, B_target): kron(U_XOR, U_XOR), whose
#: order is (A_source, A_target, B_source, B_target), with the middle two swapped.
BXOR_UNITARY = np.kron(qstate.U_XOR, qstate.U_XOR).reshape((2,) * 8)
BXOR_UNITARY = BXOR_UNITARY.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
BXOR_UNITARY.setflags(write=False)


def bxor_unitary() -> np.ndarray:
    """The read-only BXOR_UNITARY."""
    return BXOR_UNITARY
