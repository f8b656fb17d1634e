import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpure import bell, measures
from bellpure.bell import (
    BellDiagonal,
    BellLabel,
    MeasureParity,
    PauliAxis,
    bilateral_rot,
    bxor,
    map_distribution,
    measure_z,
    to_density,
    unilateral_pauli,
)

L = BellLabel


class TestUnilateralPauli:
    def test_y_maps_singlet_to_phi_plus(self):
        assert unilateral_pauli(L.PSI_MINUS, PauliAxis.Y) == L.PHI_PLUS

    def test_x_maps_phi_plus_to_psi_plus(self):
        assert unilateral_pauli(L.PHI_PLUS, PauliAxis.X) == L.PSI_PLUS

    def test_z_swaps_signs(self):
        assert unilateral_pauli(L.PSI_PLUS, PauliAxis.Z) == L.PSI_MINUS
        assert unilateral_pauli(L.PHI_MINUS, PauliAxis.Z) == L.PHI_PLUS

    def test_involution_and_no_fixed_points(self):
        for axis in PauliAxis:
            for l in L:
                mapped = unilateral_pauli(l, axis)
                assert mapped != l
                assert unilateral_pauli(mapped, axis) == l


class TestBilateralRot:
    def test_singlet_fixed_by_all_axes(self):
        for axis in PauliAxis:
            assert bilateral_rot(L.PSI_MINUS, axis) == L.PSI_MINUS

    def test_y_swaps_phi_minus_and_psi_plus(self):
        assert bilateral_rot(L.PHI_MINUS, PauliAxis.Y) == L.PSI_PLUS

    def test_z_swaps_phi_states(self):
        assert bilateral_rot(L.PHI_PLUS, PauliAxis.Z) == L.PHI_MINUS

    def test_involutions(self):
        for axis in PauliAxis:
            for l in L:
                assert bilateral_rot(bilateral_rot(l, axis), axis) == l


class TestBxor:
    def test_psi_source_tags_phi_plus_target(self):
        assert bxor(L.PSI_MINUS, L.PHI_PLUS) == (L.PSI_MINUS, L.PSI_PLUS)

    def test_phi_minus_target_kicks_source_sign(self):
        assert bxor(L.PHI_PLUS, L.PHI_MINUS) == (L.PHI_MINUS, L.PHI_MINUS)

    def test_double_phi_plus_invariant(self):
        assert bxor(L.PHI_PLUS, L.PHI_PLUS) == (L.PHI_PLUS, L.PHI_PLUS)

    def test_bijection_over_all_16_pairs(self):
        images = {bxor(s, t) for s in L for t in L}
        assert len(images) == 16

    def test_source_class_never_changes(self):
        for s in L:
            for t in L:
                s2, t2 = bxor(s, t)
                assert (s2 >= 2) == (s >= 2)

    def test_target_class_toggles_exactly_on_psi_source(self):
        for s in L:
            for t in L:
                _, t2 = bxor(s, t)
                assert ((t2 >= 2) != (t >= 2)) == (s >= 2)

    def test_table_matches_matrix_algebra(self):
        assert bell.bxor_table_from_unitaries() == bell.BXOR_TABLE

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=64))
    def test_vectorized_rule_matches_scalar_rule(self, pairs):
        s, t = np.array(pairs, dtype=np.uint8).T
        s2, t2 = bxor(s, t)
        assert s2.dtype == t2.dtype == np.uint8
        assert list(zip(s2.tolist(), t2.tolist())) == [bxor(a, b) for a, b in pairs]


class TestOnePairRulesOnArrays:
    @settings(max_examples=50, deadline=None)
    @given(labels=st.lists(st.integers(0, 3), min_size=1, max_size=64))
    def test_array_images_match_scalar_images(self, labels):
        arr = np.array(labels, dtype=np.uint8)
        for axis in PauliAxis:
            for rule in (unilateral_pauli, bilateral_rot):
                got = rule(arr, axis)
                assert got.dtype == np.uint8
                assert got.tolist() == [rule(l, axis) for l in labels]

    def test_scalar_outside_label_range_rejected(self):
        for bad in (4, -1):
            with pytest.raises(ValueError):
                unilateral_pauli(bad, PauliAxis.X)
            with pytest.raises(ValueError):
                bilateral_rot(bad, PauliAxis.Y)
            with pytest.raises(ValueError):
                bxor(bad, L.PHI_PLUS)


class TestLabelMatrixEquivalence:
    def test_unilateral_maps_match_projector_conjugation(self):
        for axis in PauliAxis:
            u = bell.unilateral_pauli_unitary(axis)
            for l in L:
                got = u @ bell.label_projector(l).mat @ u.conj().T
                want = bell.label_projector(unilateral_pauli(l, axis)).mat
                assert np.abs(got - want).max() <= 1e-10

    def test_bilateral_maps_match_projector_conjugation(self):
        for axis in PauliAxis:
            u = bell.bilateral_rot_unitary(axis)
            for l in L:
                got = u @ bell.label_projector(l).mat @ u.conj().T
                want = bell.label_projector(bilateral_rot(l, axis)).mat
                assert np.abs(got - want).max() <= 1e-10


class TestMeasureZ:
    def test_phi_states_parallel(self):
        assert measure_z(L.PHI_PLUS) is MeasureParity.PARALLEL
        assert measure_z(L.PHI_MINUS) is MeasureParity.PARALLEL

    def test_psi_states_antiparallel_regardless_of_sign(self):
        assert measure_z(L.PSI_MINUS) is MeasureParity.ANTIPARALLEL
        assert measure_z(L.PSI_PLUS) is MeasureParity.ANTIPARALLEL


class TestBellDiagonal:
    def test_validates_shape_and_range(self):
        with pytest.raises(ValueError):
            BellDiagonal([0.5, 0.5])
        with pytest.raises(ValueError):
            BellDiagonal([1.2, -0.2, 0.0, 0.0])
        with pytest.raises(ValueError):
            BellDiagonal([0.3, 0.3, 0.3, 0.3])

    @pytest.mark.parametrize("p", [[np.nan] * 4, [np.nan, 0.0, 0.0, 1.0]])
    def test_rejects_nan(self, p):
        with pytest.raises(ValueError, match="finite"):
            BellDiagonal(p)

    def test_fidelity_reads_singlet_weight(self):
        assert measures.werner(0.8).fidelity == 0.8

    def test_immutable(self):
        d = measures.werner(0.7)
        with pytest.raises(ValueError):
            d.p[0] = 1.0


class TestMapDistribution:
    def test_identity(self):
        d = BellDiagonal([0.1, 0.2, 0.3, 0.4])
        assert map_distribution(d, bell.LABELS).allclose(d)

    def test_unilateral_y_on_werner_moves_weight_to_phi_plus(self):
        f = 0.7
        got = map_distribution(measures.werner(f), unilateral_pauli(bell.LABELS, PauliAxis.Y))
        g = (1 - f) / 3
        assert got.allclose([f, g, g, g])

    def test_bilateral_y_swaps_phi_minus_and_psi_plus_entries(self):
        d = BellDiagonal([0.1, 0.2, 0.3, 0.4])
        got = map_distribution(d, bilateral_rot(bell.LABELS, PauliAxis.Y))
        assert got.allclose([0.1, 0.3, 0.2, 0.4])

    def test_rejects_non_bijection(self):
        for image in ([0, 0, 0, 0], [0, 1, 2], [[0, 1], [2, 3]]):
            with pytest.raises(ValueError):
                map_distribution(measures.werner(0.7), image)


class TestToDensity:
    def test_point_mass_singlet(self):
        d = BellDiagonal([0, 0, 0, 1])
        assert to_density(d).allclose(bell.label_projector(L.PSI_MINUS).mat)

    def test_uniform_is_maximally_mixed(self):
        d = BellDiagonal([0.25] * 4)
        assert to_density(d).allclose(np.eye(4) / 4)

    def test_werner_round_trip_fidelity(self):
        from bellpure.qstate import fidelity_singlet

        assert abs(fidelity_singlet(to_density(measures.werner(0.7))) - 0.7) <= 1e-12

    def test_bell_diagonal_part_round_trip(self):
        d = BellDiagonal([0.1, 0.2, 0.3, 0.4])
        assert np.abs(bell.bell_diagonal_part(to_density(d).mat) - d.p).max() <= 1e-12
