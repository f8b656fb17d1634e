"""Symmetrizing two-qubit states toward Werner form at constant singlet
fidelity: exact projection, averaging over sampled random bilateral
rotations, and the discrete twirl that equalizes the triplet weights of a
Bell-diagonal state."""
from __future__ import annotations

from typing import NamedTuple

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


class TwirlReport(NamedTuple):
    n_samples: int
    trace_distance_to_werner: float
    fidelity_in: float
    fidelity_out: float


def trace_distance(a, b) -> float:
    """Half the sum of the absolute eigenvalues of the difference of two
    matrices of one shape."""
    a, b = qstate.as_matrix(a), qstate.as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"trace_distance of matrices of different shapes {a.shape} and {b.shape}")
    diff = a - b
    return float(0.5 * np.abs(qstate.eig_hermitian(diff)).sum())


def exact_twirl(rho) -> BellDiagonal:
    """Project a state to Werner form at its own singlet fidelity, clamped to
    [0, 1]: round-off can carry it a few ulps past either end. Idempotent."""
    f = qstate.fidelity_singlet(rho)
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ValueError(f"singlet fidelity {f!r} outside [0, 1]")
    return measures.werner(min(1.0, max(0.0, f)))


#: Rotations in a piece of sampled_twirl. Each piece draws at its own position
#: and sums its own Gram matrix, so the piece size fixes the output bits.
TWIRL_PIECE = 50_000

_A = np.stack([qstate.ID2, -1j * qstate.SIGMA_X, -1j * qstate.SIGMA_Y, -1j * qstate.SIGMA_Z])
_K = np.einsum("iab,jcd->ijacbd", _A, _A).reshape(16, 4, 4)  # K[4i+j] = kron(A_i, A_j)
_K.setflags(write=False)
_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]  # the 10 distinct q_i q_j
#: _GRAM16[4i+j] is the row of q_i q_j among the 10 distinct products
_GRAM16 = np.array([_PAIRS.index((min(a, b), max(a, b))) for a in range(4) for b in range(4)])


def sampled_twirl(
    rho, n: int, seed: int, stream_id: int = 0
) -> tuple[qstate.DensityMatrix, TwirlReport]:
    """Average u rho u-dagger over n >= 1 random bilateral rotations u = r (x) r,
    with r Haar-uniform in SU(2): r = sum_i q_i A_i for a normalized Gaussian
    quaternion q and A = (I, -i sx, -i sy, -i sz). The report carries the
    trace distance between the average and the exact Werner target, and the
    singlet fidelities in and out as exact_twirl reads them.

    Fourth-moment identity: with K_(4i+j) = kron(A_i, A_j) and P_n,(4i+j) =
    q_i q_j for draw n, u_n = sum_a P_na K_a, so sum_n u_n rho u_n-dagger =
    sum_ab G_ab K_a rho K_b-dagger with the real 16x16 Gram matrix G = P^T P.
    The average depends on the seeded draws only through G, whose entries are
    those of the 10x10 Gram of P's 10 distinct columns (i <= j).

    The rotations run in pieces of TWIRL_PIECE on ensemble.run_sharded's
    threads. Piece j draws its normals with the generator that run_sharded
    placed at piece j of stage 1 of stream (seed, stream_id), normalizes them,
    writes their products into the (10, piece) buffer of its thread and
    returns that buffer's 10x10 Gram; the calling thread adds the pieces'
    Grams in piece order. A piece's Gram bytes equal those of the 16x16 P^T P
    while the BLAS sums each entry in the same order.
    """
    n = measures.whole_number("n", n, 1)
    mat = qstate.as_matrix(rho)
    target = exact_twirl(mat)
    pieces = list(ensemble.chunks(n, TWIRL_PIECE))
    # the buffers are made on the calling thread (see ensemble._sample_labels)
    m, threads = min(n, TWIRL_PIECE), ensemble._threads(len(pieces))
    normals, products = np.empty((threads, m, 4)), np.empty((threads, 10 * m))

    def rotate(j, lo, hi, rng, t):
        q = rng.standard_normal(out=normals[t, : hi - lo]).T  # normal()'s values, seen as 4 rows
        p10 = products[t, : 10 * (hi - lo)].reshape(10, hi - lo)
        # ((q0^2 + q1^2) + q2^2) + q3^2: linalg.norm's add.reduce order, in
        # the rows that the products then overwrite
        norm, sq = p10[:2]
        np.square(q[0], out=norm)
        for i in (1, 2, 3):
            norm += np.square(q[i], out=sq)
        q /= np.sqrt(norm, out=norm)
        for i, r in zip(range(4), (0, 4, 7, 9)):  # q_i q_j for j >= i, in _PAIRS order
            np.multiply(q[i:], q[i], out=p10[r : r + 4 - i])
        return p10 @ p10.T

    g10 = np.zeros((10, 10))
    for g in ensemble.run_sharded(rotate, pieces, seed, stream_id, 1):
        g10 += g
    gram = g10[np.ix_(_GRAM16, _GRAM16)]
    avg = np.einsum("ab,aij,jk,blk->il", gram, _K, mat, _K.conj(), optimize=True) / n
    report = TwirlReport(
        n_samples=n,
        trace_distance_to_werner=trace_distance(avg, bell.to_density(target)),
        fidelity_in=target.fidelity,
        fidelity_out=exact_twirl(avg).fidelity,
    )
    return qstate.DensityMatrix(avg), report


def discrete_twirl(d: BellDiagonal) -> BellDiagonal:
    """Twirl a Bell-diagonal state over the discrete bilateral-rotation set:
    the analytic group average, which equalizes the three triplet weights
    and leaves the singlet weight untouched. twirl_labels is its sampled
    form on label arrays."""
    a, b, c, f = d.p.tolist()
    t = (a + b + c) / 3.0
    return BellDiagonal((t, t, t, f))


def twirl_labels(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply an independent uniformly drawn discrete twirl to every label,
    drawing its int64 permutation indices CHUNK // 16 (at least one) at a
    time, 512 KiB at the default CHUNK; integers splits invariantly, so the
    slices draw what one call would."""
    out = np.empty_like(labels)
    flat = TWIRL_PERMS.ravel()
    for lo, hi in ensemble.chunks(labels.shape[0], max(1, ensemble.CHUNK // 16)):
        # flat index 4 * j + label of TWIRL_PERMS[j, label], built in place
        # on the default-int64 draw
        idx = rng.integers(0, len(TWIRL_PERMS), size=hi - lo)
        idx *= 4
        idx += labels[lo:hi]
        flat.take(idx, out=out[lo:hi])
    return out


def convergence_table(
    rho, sample_sizes, reps: int = 1, seed: int = 0
) -> list[tuple[int, float]]:
    """Mean trace distance between the sampled and exact twirl at each sample
    size, averaged over reps independent substreams of the seed."""
    reps = measures.whole_number("reps", reps, 1)
    sizes = [measures.whole_number("sample size", v, 1) for v in sample_sizes]
    rows = []
    sid = 0
    for n in sizes:
        total = 0.0
        for _ in range(reps):
            _, rep = sampled_twirl(rho, n, seed, stream_id=sid)
            total += rep.trace_distance_to_werner
            sid += 1
        rows.append((n, total / reps))
    return rows
