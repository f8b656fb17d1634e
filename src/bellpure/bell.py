"""Label-level algebra of the four Bell states.

Each label carries two bits: the amp bit (1 for the Psi states, whose z spins
are anti-parallel) and the sign bit (1 for the "-" superposition). A label's
integer value is amp*2 + sign, which fixes the package-wide Bell order
(Phi+ = 0, Phi- = 1, Psi+ = 2, Psi- = 3).

Every label rule is written once here, as a two-bit integer operation that
acts on a BellLabel or elementwise on a uint8 label array: one-particle pi
rotations are XORs (X ^2, Y ^3, Z ^1), the two-particle pi/2 rotations are
one permutation array per axis, and the bilateral controlled-NOT is
(s, t) -> (s ^ (t & 1), t ^ (s & 2)). The lookup tables are derived from
these rules.

All maps here drop global phases. The matrix-level unitaries that certify
every rule are built below from `qstate`; the test suite and the CLI
self-test conjugate Bell projectors by them and check each table row
(projectors are insensitive to the dropped phases, so the comparison is
exact).
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


class MeasureParity(Enum):
    PARALLEL = "parallel"
    ANTIPARALLEL = "antiparallel"


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
    """1 for the Psi states, whose z spins come out anti-parallel."""
    return label >> 1


def measure_z(label: BellLabel) -> MeasureParity:
    """Measure both spins of the pair along z; the measured pair is consumed.

    Distinguishes the Phi class (parallel outcomes) from the Psi class
    (anti-parallel) and nothing more.
    """
    return MeasureParity.ANTIPARALLEL if amp_bit(BellLabel(label)) else MeasureParity.PARALLEL


# The rules as lookup tables, certified against the unitaries below by the
# test suite and the CLI self-test.
UNILATERAL_PAULI_TABLE = {a: tuple(unilateral_pauli(l, a) for l in BellLabel) for a in PauliAxis}
BILATERAL_ROT_TABLE = {a: tuple(bilateral_rot(l, a) for l in BellLabel) for a in PauliAxis}
BXOR_TABLE = {(s, t): bxor(s, t) for s in BellLabel for t in BellLabel}


class BellDiagonal:
    """Probability vector over the Bell labels, ordered (Phi+, Phi-, Psi+, Psi-)."""

    __slots__ = ("p",)

    SUM_TOL = 1e-9

    def __init__(self, p):
        v = np.array(p, dtype=float).reshape(-1)
        if v.shape != (4,):
            raise ValueError("expected 4 probabilities")
        if not np.isfinite(v).all():
            raise ValueError(f"probabilities must be finite: {v.tolist()}")
        if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
            raise ValueError(f"probabilities out of range: {v.tolist()}")
        s = float(v.sum())
        if abs(s - 1.0) > self.SUM_TOL:
            raise ValueError(f"probabilities sum to {s!r}, not 1")
        v = np.clip(v, 0.0, 1.0)
        v.setflags(write=False)
        self.p = v

    @property
    def fidelity(self) -> float:
        """Weight on the singlet Psi-."""
        return float(self.p[BellLabel.PSI_MINUS])

    def __getitem__(self, label) -> float:
        return float(self.p[BellLabel(label)])

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


def label_projector(label: BellLabel) -> qstate.DensityMatrix:
    """Projector onto one Bell state."""
    v = qstate.BELL_BASIS[BellLabel(label)]
    return qstate.DensityMatrix(np.outer(v, v.conj()))


def to_density(d: BellDiagonal) -> qstate.DensityMatrix:
    """Density matrix of a Bell-diagonal distribution."""
    m = np.zeros((4, 4), dtype=complex)
    for l in BellLabel:
        v = qstate.BELL_BASIS[l]
        m += d.p[l] * np.outer(v, v.conj())
    return qstate.DensityMatrix(m)


def bell_diagonal_part(mat) -> np.ndarray:
    """Diagonal of a two-qubit state in the Bell basis (length-4 real vector)."""
    m = qstate.as_matrix(mat)
    return np.array([float(np.real(v.conj() @ m @ v)) for v in qstate.BELL_BASIS])


# matrix-level counterparts used for certification and the density-matrix
# protocol oracle

def unilateral_pauli_unitary(axis: PauliAxis) -> np.ndarray:
    """4x4 unitary of the one-particle pi rotation (applied on party A's spin)."""
    return np.kron(qstate.pauli(axis.value), qstate.ID2)


def bilateral_rot_unitary(axis: PauliAxis) -> np.ndarray:
    """4x4 unitary of the two-particle pi/2 rotation."""
    r = qstate.rotation_half_pi(axis.value)
    return np.kron(r, r)


def bxor_unitary() -> np.ndarray:
    """16x16 joint unitary of the bilateral controlled-NOT on two shared
    pairs, qubit order (A_source, B_source, A_target, B_target)."""
    u_a = qstate.expand_two_qubit_gate(qstate.U_XOR, (0, 2), 4)
    u_b = qstate.expand_two_qubit_gate(qstate.U_XOR, (1, 3), 4)
    return u_a @ u_b


def bxor_table_from_unitaries() -> dict:
    """Regenerate the BXOR lookup from the matrix algebra by conjugating every
    product of Bell projectors and identifying the image."""
    u = bxor_unitary()
    projs = {l: label_projector(l).mat for l in BellLabel}
    out = {}
    for s in BellLabel:
        for t in BellLabel:
            mapped = u @ np.kron(projs[s], projs[t]) @ u.conj().T
            hit = None
            for s2 in BellLabel:
                for t2 in BellLabel:
                    if np.abs(mapped - np.kron(projs[s2], projs[t2])).max() <= 1e-10:
                        hit = (s2, t2)
            if hit is None:
                raise RuntimeError(f"BXOR image of {(s, t)} is not a Bell product")
            out[(s, t)] = hit
    return out
