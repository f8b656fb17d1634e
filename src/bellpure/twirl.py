"""Symmetrizing two-qubit states toward Werner form at constant singlet
fidelity: exact projection, averaging over sampled random bilateral
rotations, and the discrete twirl that equalizes the triplet weights of a
Bell-diagonal state."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bell, ensemble, measures, qstate
from .bell import BellDiagonal, PauliAxis

_X, _Y, _Z = (bell.BILATERAL_PERM[a] for a in (PauliAxis.X, PauliAxis.Y, PauliAxis.Z))

#: Label permutations generated by the two-particle pi/2 rotations: identity,
#: the x, y and z triplet swaps, and the 3-cycles x after z and z after x
#: (row order fixes which permutation a seeded draw picks). Every element
#: fixes the singlet. The sampled twirl draws uniformly from this closure so
#: that its per-pair expectation equals the analytic average, which equalizes
#: the triplet weights exactly; the bare 4-element set {identity + three
#: swaps} would leave a bias of order the triplet spread.
TWIRL_PERMS = np.stack([bell.LABELS, _X, _Y, _Z, _X[_Z], _Z[_X]])
TWIRL_PERMS.setflags(write=False)


@dataclass(frozen=True)
class TwirlReport:
    n_samples: int
    trace_distance_to_werner: float
    fidelity_in: float
    fidelity_out: float


def trace_distance(a, b) -> float:
    """Half the sum of the absolute eigenvalues of the difference."""
    diff = qstate.as_matrix(a) - qstate.as_matrix(b)
    return float(0.5 * np.abs(qstate.eig_hermitian(diff)).sum())


def exact_twirl(rho) -> BellDiagonal:
    """Project a state to Werner form at its own singlet fidelity. Idempotent."""
    f = qstate.fidelity_singlet(rho)
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ValueError(f"singlet fidelity {f!r} outside [0, 1]")
    return measures.werner(min(1.0, max(0.0, f)))


_A = np.stack([qstate.ID2, -1j * qstate.SIGMA_X, -1j * qstate.SIGMA_Y, -1j * qstate.SIGMA_Z])
_K = np.einsum("iab,jcd->ijacbd", _A, _A).reshape(16, 4, 4)  # K[4i+j] = kron(A_i, A_j)
_K.setflags(write=False)


def sampled_twirl(
    rho, n: int, seed: int, stream_id: int = 0
) -> tuple[qstate.DensityMatrix, TwirlReport]:
    """Average u rho u-dagger over n random bilateral rotations u = r (x) r,
    with r Haar-uniform in SU(2): r = sum_i q_i A_i for a normalized Gaussian
    quaternion q and A = (I, -i sx, -i sy, -i sz). The report carries the
    trace distance between the average and the exact Werner target.

    Fourth-moment identity: with K_(4i+j) = kron(A_i, A_j) and P_n,(4i+j) =
    q_i q_j for draw n, u_n = sum_a P_na K_a, so sum_n u_n rho u_n-dagger =
    sum_ab G_ab K_a rho K_b-dagger with the real 16x16 Gram matrix G = P^T P.
    The average depends on the seeded draws only through G.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    mat = qstate.as_matrix(rho)
    fid_in = qstate.fidelity_singlet(mat)
    rng = ensemble.stream(seed, stream_id)
    gram = np.zeros((16, 16))
    left = n
    while left > 0:
        m = min(200_000, left)
        q = rng.normal(size=(m, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        p = (q[:, :, None] * q[:, None, :]).reshape(m, 16)
        gram += p.T @ p
        left -= m
    avg = np.einsum("ab,aij,jk,blk->il", gram, _K, mat, _K.conj(), optimize=True) / n
    target = bell.to_density(exact_twirl(mat))
    report = TwirlReport(
        n_samples=n,
        trace_distance_to_werner=trace_distance(avg, target.mat),
        fidelity_in=fid_in,
        fidelity_out=qstate.fidelity_singlet(avg),
    )
    return qstate.DensityMatrix(avg), report


def discrete_twirl(d: BellDiagonal) -> BellDiagonal:
    """Twirl a Bell-diagonal state over the discrete bilateral-rotation set:
    the analytic group average, which equalizes the three triplet weights
    and leaves the singlet weight untouched. twirl_labels is its sampled
    form on label arrays."""
    t = float(d.p[0] + d.p[1] + d.p[2]) / 3.0
    return BellDiagonal((t, t, t, float(d.p[3])))


def twirl_labels(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply an independent uniformly drawn discrete twirl to every label."""
    if labels.size == 0:
        return labels
    g = rng.integers(0, TWIRL_PERMS.shape[0], size=labels.shape[0])
    return TWIRL_PERMS[g, labels]


def convergence_table(
    rho, sample_sizes, reps: int = 1, seed: int = 0
) -> list[tuple[int, float]]:
    """Mean trace distance between the sampled and exact twirl at each sample
    size, averaged over reps independent substreams of the seed."""
    rows = []
    sid = 0
    for n in sample_sizes:
        total = 0.0
        for _ in range(reps):
            _, rep = sampled_twirl(rho, int(n), seed, stream_id=sid)
            total += rep.trace_distance_to_werner
            sid += 1
        rows.append((int(n), total / reps))
    return rows
