"""Label-level algebra of the four Bell states.

Each label carries two bits: the amp bit (1 for the Psi states, whose z spins
are anti-parallel) and the sign bit (1 for the "-" superposition). A label's
integer value is amp*2 + sign, which fixes the package-wide Bell order
(Phi+ = 0, Phi- = 1, Psi+ = 2, Psi- = 3).

All maps here drop global phases. The matrix-level unitaries that certify
every table live in `qstate`; the test suite conjugates Bell projectors by
them and checks each table row (projectors are insensitive to the dropped
phases, so the comparison is exact).
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


_PHI_P, _PHI_M, _PSI_P, _PSI_M = BellLabel

# One-particle pi rotations: X swaps the amp bit, Z swaps the sign bit, Y both.
# Each row is (image of Phi+, Phi-, Psi+, Psi-); all are fixed-point-free
# involutions.
UNILATERAL_PAULI_TABLE = {
    PauliAxis.X: (_PSI_P, _PSI_M, _PHI_P, _PHI_M),
    PauliAxis.Y: (_PSI_M, _PSI_P, _PHI_M, _PHI_P),
    PauliAxis.Z: (_PHI_M, _PHI_P, _PSI_M, _PSI_P),
}

# Two-particle pi/2 rotations: each fixes the singlet and one triplet and
# swaps the remaining two triplets.
BILATERAL_ROT_TABLE = {
    PauliAxis.X: (_PSI_P, _PHI_M, _PHI_P, _PSI_M),
    PauliAxis.Y: (_PHI_P, _PSI_P, _PHI_M, _PSI_M),
    PauliAxis.Z: (_PHI_M, _PHI_P, _PSI_P, _PSI_M),
}

# Bilateral controlled-NOT acting on two shared pairs,
# (source, target) -> (source', target'), phases dropped. Grouped by target
# state. The test suite regenerates this table from the 16x16 unitary
# (bxor_table_from_unitaries) to rule out transcription slips.
BXOR_TABLE = {
    # target Phi+: Psi sources toggle it to Psi+, nothing else changes
    (_PHI_P, _PHI_P): (_PHI_P, _PHI_P),
    (_PHI_M, _PHI_P): (_PHI_M, _PHI_P),
    (_PSI_P, _PHI_P): (_PSI_P, _PSI_P),
    (_PSI_M, _PHI_P): (_PSI_M, _PSI_P),
    # target Psi+: Psi sources toggle it back to Phi+
    (_PHI_P, _PSI_P): (_PHI_P, _PSI_P),
    (_PHI_M, _PSI_P): (_PHI_M, _PSI_P),
    (_PSI_P, _PSI_P): (_PSI_P, _PHI_P),
    (_PSI_M, _PSI_P): (_PSI_M, _PHI_P),
    # target Phi-: the minus sign kicks back into the source's sign bit
    (_PHI_P, _PHI_M): (_PHI_M, _PHI_M),
    (_PHI_M, _PHI_M): (_PHI_P, _PHI_M),
    (_PSI_P, _PHI_M): (_PSI_M, _PSI_M),
    (_PSI_M, _PHI_M): (_PSI_P, _PSI_M),
    # target Psi-: sign kick-back plus the Psi-source toggle
    (_PHI_P, _PSI_M): (_PHI_M, _PSI_M),
    (_PHI_M, _PSI_M): (_PHI_P, _PSI_M),
    (_PSI_P, _PSI_M): (_PSI_M, _PHI_M),
    (_PSI_M, _PSI_M): (_PSI_P, _PHI_M),
}


def unilateral_pauli(label: BellLabel, axis: PauliAxis) -> BellLabel:
    """Label image under a pi rotation of one particle about the given axis."""
    return UNILATERAL_PAULI_TABLE[axis][BellLabel(label)]


def bilateral_rot(label: BellLabel, axis: PauliAxis) -> BellLabel:
    """Label image under pi/2 rotations of both particles about the axis."""
    return BILATERAL_ROT_TABLE[axis][BellLabel(label)]


def bxor(source: BellLabel, target: BellLabel) -> tuple[BellLabel, BellLabel]:
    """Joint label image of the bilateral controlled-NOT on (source, target)."""
    return BXOR_TABLE[(BellLabel(source), BellLabel(target))]


def measure_z(label: BellLabel) -> MeasureParity:
    """Measure both spins of the pair along z; the measured pair is consumed.

    Distinguishes the Phi class (parallel outcomes) from the Psi class
    (anti-parallel) and nothing more.
    """
    return MeasureParity.ANTIPARALLEL if BellLabel(label) >= 2 else MeasureParity.PARALLEL


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


def map_distribution(d: BellDiagonal, label_map) -> BellDiagonal:
    """Push a distribution through a label bijection; the sum is preserved
    exactly because the entries are only permuted."""
    images = [BellLabel(label_map(l)) for l in BellLabel]
    if len(set(images)) != 4:
        raise ValueError("label map is not a bijection")
    out = np.empty(4)
    for src, dst in zip(BellLabel, images):
        out[dst] = d.p[src]
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
