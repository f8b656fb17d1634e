"""Self-test: the package's internal cross-checks, run by `bellpure selftest`.

Each suite checks one rule against an independent derivation: the label
algebra against the matrix algebra, the closed-form recurrence map against
label enumeration and the 16x16 density-matrix replay, and the yield and
mixture identities. Only the selftest command imports this module.
"""
from __future__ import annotations

import numpy as np

from . import bell, measures, protocols, qstate
from .bell import BellLabel, PauliAxis


def _require(ok, message: str) -> None:
    """One self-test assertion. Unlike assert, it still runs under python -O."""
    if not ok:
        raise AssertionError(message)


def _check_bxor_bijection() -> int:
    images = {bell.bxor(s, t) for s in BellLabel for t in BellLabel}
    _require(len(images) == 16, "BXOR rule is not a bijection")
    return 16


def _images(u, projectors) -> list[int]:
    """For each projector P, the index of the one projector equal to
    u P u-dagger to within 1e-10. Projectors are blind to the global phases
    that the label rules drop, so the comparison is exact."""
    out = []
    for i, p in enumerate(projectors):
        mapped = u @ p @ u.conj().T
        hits = [j for j, q in enumerate(projectors) if np.abs(mapped - q).max() <= 1e-10]
        _require(len(hits) == 1, f"image of projector {i} is {len(hits)} projectors, not one")
        out.append(hits[0])
    return out


#: The Bell projectors in Bell order, and the Pauli matrix of each axis.
_PROJECTORS = [bell.label_projector(l).mat for l in BellLabel]
_SIGMA = {PauliAxis.X: qstate.SIGMA_X, PauliAxis.Y: qstate.SIGMA_Y, PauliAxis.Z: qstate.SIGMA_Z}


def _check_bxor_matrix_oracle() -> int:
    products = [np.kron(a, b) for a in _PROJECTORS for b in _PROJECTORS]  # index 4*s + t
    images = _images(bell.BXOR_UNITARY, products)
    for s in BellLabel:
        for t in BellLabel:
            want = divmod(images[4 * s + t], 4)
            _require(bell.bxor(s, t) == want, f"BXOR rule mismatch at {(s, t)}")
    return 16


def _check_pauli_maps() -> int:
    count = 0
    for axis, sigma in _SIGMA.items():
        images = _images(np.kron(sigma, qstate.ID2), _PROJECTORS)  # pi rotation of A's spin
        for l in BellLabel:
            mapped = bell.unilateral_pauli(l, axis)
            _require(mapped != l, "one-particle pi rotations move every label")
            _require(bell.unilateral_pauli(mapped, axis) == l, "not an involution")
            _require(mapped == images[l], f"unilateral {axis} on {l}: matrix image {images[l]}")
            count += 1
    return count


def _check_bilateral_maps() -> int:
    count = 0
    for axis, sigma in _SIGMA.items():
        r = np.sqrt(0.5) * (qstate.ID2 - 1j * sigma)  # exp(-i pi/4 sigma), on each spin
        images = _images(np.kron(r, r), _PROJECTORS)
        for l in BellLabel:
            mapped = bell.bilateral_rot(l, axis)
            _require(bell.bilateral_rot(mapped, axis) == l, "not an involution")
            _require(mapped == images[l], f"bilateral {axis} on {l}: matrix image {images[l]}")
            count += 1
    _require(
        all(bell.bilateral_rot(BellLabel.PSI_MINUS, a) == BellLabel.PSI_MINUS for a in PauliAxis),
        "the singlet must be fixed by every bilateral rotation",
    )
    return count


def _check_psi_parity_rule() -> int:
    for s in BellLabel:
        for t in BellLabel:
            s2, t2 = bell.bxor(s, t)
            _require((s2 >= 2) == (s >= 2), "source class must never change")
            toggled = (t2 >= 2) != (t >= 2)
            _require(toggled == (s >= 2), "target class toggles exactly on Psi sources")
    return 32


def _check_recurrence_fixed_points() -> int:
    for f in (0.25, 0.5, 1.0):
        out, _ = measures.recurrence_formula(f)
        _require(out == f, f"fixed point at {f} broken: {out}")
    return 3


def _check_recurrence_enumeration() -> int:
    count = 0
    for f in np.linspace(0.55, 0.95, 9):
        ff, p = measures.recurrence_formula(float(f))
        out = protocols.recurrence_step_exact(measures.werner(float(f)), measures.werner(float(f)))
        _require(abs(out.post_state.fidelity - ff) <= 1e-12, f"post fidelity at {f}")
        _require(abs(out.p_success - p) <= 1e-12, f"success probability at {f}")
        count += 2
    return count


def _check_recurrence_matrix_oracle() -> int:
    count = 0
    for f1, f2 in ((0.6, 0.6), (0.7, 0.9), (1.0, 1.0)):
        a = protocols.recurrence_step_exact(measures.werner(f1), measures.werner(f2))
        b = protocols.density_matrix_oracle_step(measures.werner(f1), measures.werner(f2))
        _require(abs(a.p_success - b.p_success) <= 1e-10, f"success probability at {f1}, {f2}")
        _require(np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10, f"post state at {f1}, {f2}")
        count += 2
    return count


def _check_yield_entropy_identity() -> int:
    count = 0
    for f in np.linspace(0.01, 0.99, 25):
        f = float(f)
        dev = abs(measures.d0(f) - (1.0 - measures.entropy_bell(measures.werner(f))))
        _require(dev <= 1e-12, f"D0 vs 1 - S at {f}: deviation {dev}")
        count += 1
    return count


def _check_werner_mixture_identity() -> int:
    f = 0.8
    mix = np.zeros((4, 4), dtype=complex)
    for psi in qstate.werner_pure_states(f):
        mix += psi.projector() / 8.0
    dev = np.abs(mix - bell.to_density(measures.werner(f)).mat).max()
    _require(dev <= 1e-12, f"eight-state mixture deviates by {dev}")
    return 1


#: Each suite's name and check; a check returns the number of assertions it made.
CHECKS = [
    ("bxor-table-bijection", _check_bxor_bijection),
    ("bxor-matrix-oracle", _check_bxor_matrix_oracle),
    ("unilateral-pauli-maps", _check_pauli_maps),
    ("bilateral-rotation-maps", _check_bilateral_maps),
    ("psi-parity-rule", _check_psi_parity_rule),
    ("recurrence-fixed-points", _check_recurrence_fixed_points),
    ("recurrence-enumeration-vs-closed-form", _check_recurrence_enumeration),
    ("recurrence-matrix-oracle", _check_recurrence_matrix_oracle),
    ("yield-entropy-identity", _check_yield_entropy_identity),
    ("werner-mixture-identity", _check_werner_mixture_identity),
]


def run() -> int:
    """Run every suite, one line each on stdout; 1 if any failed, else 0."""
    failures = 0
    for name, check in CHECKS:
        try:
            count = check()
        except Exception as exc:  # a failed check must not stop the others
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"ok   {name} ({count} checks)")
    if failures:
        print(f"self-test failed: {failures} of {len(CHECKS)} suites")
        return 1
    print(f"self-test passed: {len(CHECKS)} suites")
    return 0
