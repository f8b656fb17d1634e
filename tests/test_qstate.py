import math
from collections import Counter

import numpy as np
import pytest

from bellpure import bell, measures
from bellpure.bell import BellLabel
from bellpure.qstate import (
    BELL_BASIS,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    DensityMatrix,
    PureState,
    as_matrix,
    eig_hermitian,
    entanglement_pure,
    fidelity_singlet,
    partial_trace,
    von_neumann_entropy,
    werner_pure_states,
)


def random_density(rng) -> DensityMatrix:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real)


def random_su2(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return np.array(
        [[q[0] - 1j * q[3], -q[2] - 1j * q[1]], [q[2] - 1j * q[1], q[0] + 1j * q[3]]]
    )


def rotated(rho, u) -> DensityMatrix:
    """u rho u-dagger, checked as a state."""
    return DensityMatrix(u @ as_matrix(rho) @ u.conj().T)


class TestBilateral:
    def test_sigma_x_on_a_maps_singlet_to_phi_minus(self):
        rho = rotated(bell.label_projector(BellLabel.PSI_MINUS), np.kron(SIGMA_X, ID2))
        assert rho.allclose(bell.label_projector(BellLabel.PHI_MINUS).mat, tol=1e-12)

    def test_bilateral_x_rotation_maps_phi_plus_to_psi_plus(self):
        r = math.sqrt(0.5) * (ID2 - 1j * SIGMA_X)  # exp(-i pi/4 sigma_x)
        rho = rotated(bell.label_projector(BellLabel.PHI_PLUS), np.kron(r, r))
        assert rho.allclose(bell.label_projector(BellLabel.PSI_PLUS).mat, tol=1e-12)


class TestConjugate:
    def test_singlet_invariant_under_random_bilateral_rotations(self):
        rng = np.random.default_rng(2)
        singlet = bell.label_projector(BellLabel.PSI_MINUS)
        for _ in range(50):
            r = random_su2(rng)
            assert rotated(singlet, np.kron(r, r)).allclose(singlet.mat, tol=1e-12)

    def test_unilateral_y_moves_werner_weight_onto_phi_plus(self):
        # direct 4x4 arithmetic oracle: permute the Bell-diagonal weights
        f = 0.85
        rho = bell.to_density(measures.werner(f))
        got = rotated(rho, np.kron(SIGMA_Y, ID2))
        g = (1 - f) / 3
        expected = bell.to_density(bell.BellDiagonal((f, g, g, g)))
        assert got.allclose(expected.mat, tol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = random_density(rng)
            r1, r2 = random_su2(rng), random_su2(rng)
            u = np.kron(r1, r2)
            spun = u @ rho.mat @ u.conj().T
            assert np.abs(eig_hermitian(rho) - eig_hermitian(spun)).max() <= 1e-10


class TestPartialTrace:
    def test_product_state(self):
        up = np.array([1, 0], dtype=complex)
        down = np.array([0, 1], dtype=complex)
        rho = np.kron(np.outer(up, up), np.outer(down, down))
        assert partial_trace(rho, "A").allclose(np.outer(up, up))
        assert partial_trace(rho, "B").allclose(np.outer(down, down))

    def test_singlet_is_maximally_mixed_on_both_sides(self):
        rho = bell.label_projector(BellLabel.PSI_MINUS)
        for party in ("A", "B"):
            assert partial_trace(rho, party).allclose(np.eye(2) / 2)

    def test_biased_superposition(self):
        psi = PureState([0, math.sqrt(0.9), -math.sqrt(0.1), 0])
        red = partial_trace(psi.projector(), "A")
        assert red.allclose(np.diag([0.9, 0.1]), tol=1e-12)

    def test_bad_party(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, "C")
        with pytest.raises(ValueError, match=r"expects a two-qubit \(4x4\) state"):
            partial_trace(np.eye(2) / 2, "A")


class TestEigHermitian:
    def test_diagonal(self):
        vals = eig_hermitian(np.diag([0.1, 0.4, 0.3, 0.2]).astype(complex))
        assert np.allclose(vals, [0.4, 0.3, 0.2, 0.1], atol=1e-14)

    def test_werner_spectrum(self):
        vals = eig_hermitian(bell.to_density(measures.werner(0.8)).mat)
        assert np.abs(vals - np.array([0.8, 1 / 15, 1 / 15, 1 / 15])).max() <= 1e-12

    def test_maximally_mixed(self):
        assert np.allclose(eig_hermitian(np.eye(4) / 4), 0.25, atol=1e-14)

    def test_sum_matches_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            rho = random_density(rng)
            assert abs(eig_hermitian(rho).sum() - 1.0) <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            eig_hermitian(m)
        with pytest.raises(ValueError, match="expected a square matrix"):
            eig_hermitian(np.zeros((3, 4)))

    @pytest.mark.parametrize("upper, lower", [(1e308, -1e308), (1e308j, 1e308j)])
    def test_rejects_non_hermitian_pair_whose_difference_overflows(self, upper, lower):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1], m[1, 0] = upper, lower
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, entry):
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(m)

    def test_matches_numpy_on_random_hermitian(self):
        # References that do not go through eigvalsh: a spectrum planted by a
        # random unitary, the trace and the Frobenius norm.
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(g)
            planted = np.sort(rng.normal(size=4))[::-1]
            h = u @ np.diag(planted) @ u.conj().T
            h = (h + h.conj().T) / 2
            mine = eig_hermitian(h)
            assert np.all(np.diff(mine) <= 0.0)
            assert np.abs(mine - planted).max() <= 1e-10
            assert abs(mine.sum() - np.trace(h).real) <= 1e-10
            assert abs((mine**2).sum() - np.sum(np.abs(h) ** 2)) <= 1e-10


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(bell.label_projector(BellLabel.PHI_PLUS)) <= 1e-12

    def test_maximally_mixed_two_bits(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) <= 1e-12

    def test_threshold_werner_is_one_bit(self):
        s = von_neumann_entropy(bell.to_density(measures.werner(0.8107)))
        assert abs(s - 1.0) <= 1e-3


    def test_density_matrix_spectrum_is_one_eigvalsh_call(self, monkeypatch):
        # a DensityMatrix is square, finite and Hermitian by construction; a
        # raw array of the same entries still takes every check
        d = random_density(np.random.default_rng(3))
        calls = Counter()
        for owner, attr in ((np, "isfinite"), (np, "abs"), (np.linalg, "eigvalsh")):
            def counted(*args, _fn=getattr(owner, attr), _name=attr, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        s = von_neumann_entropy(d)
        assert calls == {"eigvalsh": 1}
        calls.clear()
        assert von_neumann_entropy(d.mat) == s
        assert calls == {"eigvalsh": 1, "isfinite": 1, "abs": 1}


class TestFidelitySinglet:
    def test_singlet(self):
        assert abs(fidelity_singlet(bell.label_projector(BellLabel.PSI_MINUS)) - 1) <= 1e-14

    def test_uniform_mixture(self):
        assert abs(fidelity_singlet(np.eye(4) / 4) - 0.25) <= 1e-14

    @pytest.mark.parametrize("f", [0.0, 0.3, 0.5, 0.77, 1.0])
    def test_werner_recovers_f(self, f):
        assert abs(fidelity_singlet(bell.to_density(measures.werner(f))) - f) <= 1e-12

    def test_invariant_under_random_bilateral_rotations(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng)
        f = fidelity_singlet(rho)
        for _ in range(50):
            r = random_su2(rng)
            u = np.kron(r, r)
            assert abs(fidelity_singlet(u @ rho.mat @ u.conj().T) - f) <= 1e-10


class TestEntanglementPure:
    def test_singlet_one_ebit(self):
        assert abs(entanglement_pure(PureState(BELL_BASIS[3])) - 1.0) <= 1e-12

    def test_product_state_zero(self):
        assert entanglement_pure(PureState([1, 0, 0, 0])) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entanglement_pure([1, 1, 0, 0])
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            PureState([1, 0, 0])

    def test_werner_component_states_at_09(self):
        # each state carries H2(1/2 + sqrt(0.9*0.1)) = H2(0.8) ebits
        expected = 0.7219280948873623
        for psi in werner_pure_states(0.9):
            assert abs(entanglement_pure(psi) - expected) <= 1e-10

    def test_party_symmetry_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = PureState(v / np.linalg.norm(v))
            sa = von_neumann_entropy(partial_trace(psi.projector(), "A"))
            sb = von_neumann_entropy(partial_trace(psi.projector(), "B"))
            assert abs(sa - sb) <= 1e-10


class TestWernerPureStates:
    @pytest.mark.parametrize("f", [0.55, 0.72, 0.9, 1.0])
    def test_uniform_mixture_is_werner(self, f):
        mix = sum(s.projector() for s in werner_pure_states(f)) / 8.0
        assert np.abs(mix - bell.to_density(measures.werner(f)).mat).max() <= 1e-12

    def test_count_and_normalization(self):
        states = werner_pure_states(0.6)
        assert len(states) == 8


class TestValidation:
    def test_density_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m = m.copy()
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_density_renormalizes_small_drift(self):
        m = np.eye(4, dtype=complex) * (0.25 + 1e-10)
        rho = DensityMatrix(m)
        assert abs(rho.mat.trace().real - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "entries",
        [{(1, 1): math.nan}, {(2, 2): complex(0.25, math.nan)}, {(0, 1): math.inf, (1, 0): math.inf}],
        ids=["nan_diagonal", "nan_imaginary_part", "inf_off_diagonal_pair"],
    )
    def test_density_rejects_non_finite_entry(self, entries, monkeypatch):
        # the finiteness check, not the eigensolver, must stop the matrix
        def no_eig(_):
            raise AssertionError("eigvalsh reached with a non-finite entry")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eig)
        m = np.eye(4, dtype=complex) / 4
        for ij, v in entries.items():
            m[ij] = v
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m)

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))

    @pytest.mark.parametrize("value", [1e308, -1.7976931348623157e308, 2.5, 1e308j])
    def test_density_rejects_huge_entry_without_overflow(self, value):
        # Hermitian, so only the bound stops the checks' sums overflowing, which
        # the suite's warnings-as-errors setting would turn into a crash
        upper = np.triu(np.ones((4, 4)), 1)
        m = value * (upper - upper.T) if isinstance(value, complex) else np.full((4, 4), value)
        with pytest.raises(ValueError, match="beyond 2 in magnitude"):
            DensityMatrix(m)

    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState([1, 1, 1, 1])


class TestBellBasis:
    def test_rows_are_orthonormal(self):
        gram = BELL_BASIS @ BELL_BASIS.conj().T
        assert np.abs(gram - np.eye(4)).max() <= 1e-12

    def test_fixed_ordering(self):
        rt2 = 1 / math.sqrt(2)
        assert np.allclose(BELL_BASIS[0], [rt2, 0, 0, rt2])
        assert np.allclose(BELL_BASIS[3], [0, rt2, -rt2, 0])
