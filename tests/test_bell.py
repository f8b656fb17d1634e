import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellpure import bell, measures, qstate, selftest
from bellpure.bell import (
    BellDiagonal,
    BellLabel,
    PauliAxis,
    bilateral_rot,
    bxor,
    map_distribution,
    to_density,
    unilateral_pauli,
)

L = BellLabel

#: Every involutive permutation of the four labels as an image array: the
#: identity, six swaps and three double swaps (the y rotation's among them).
INVOLUTIONS = [
    np.array(img, dtype=np.uint8)
    for img in itertools.permutations(range(4))
    if all(img[img[l]] == l for l in range(4))
]


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

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=64))
    def test_vectorized_rule_matches_scalar_rule(self, pairs):
        s, t = np.array(pairs, dtype=np.uint8).T
        s2, t2 = bxor(s, t)
        assert s2.dtype == t2.dtype == np.uint8
        assert list(zip(s2.tolist(), t2.tolist())) == [bxor(a, b) for a, b in pairs]


class TestBxorUnitary:
    def test_matches_basis_permutation(self):
        # independent oracle built from basis-index bits alone: qubit order
        # (A_source, B_source, A_target, B_target), most significant first,
        # and each target spin flips when its source spin is up (bit 0)
        oracle = np.zeros((16, 16), dtype=complex)
        for col in range(16):
            a_s, b_s, a_t, b_t = ((col >> k) & 1 for k in (3, 2, 1, 0))
            row = (a_s << 3) | (b_s << 2) | ((a_t ^ (1 - a_s)) << 1) | (b_t ^ (1 - b_s))
            oracle[row, col] = 1.0
        assert np.array_equal(bell.bxor_unitary(), oracle)

    def test_read_only(self):
        with pytest.raises(ValueError):
            bell.bxor_unitary()[0, 0] = 0.0


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


#: The number of assertions each self-test suite makes, as `bellpure selftest`
#: prints it.
SELFTEST_COUNTS = {
    "bxor-table-bijection": 16,
    "bxor-matrix-oracle": 16,
    "unilateral-pauli-maps": 12,
    "bilateral-rotation-maps": 12,
    "psi-parity-rule": 32,
    "recurrence-fixed-points": 3,
    "recurrence-enumeration-vs-closed-form": 18,
    "recurrence-matrix-oracle": 6,
    "yield-entropy-identity": 25,
    "werner-mixture-identity": 1,
}


class TestLabelMatrixEquivalence:
    """Every label rule against the matrix algebra, through the self-test's
    suites: each conjugates the Bell projectors by the rule's unitary."""

    def test_every_suite_is_counted(self):
        assert [name for name, _ in selftest.CHECKS] == list(SELFTEST_COUNTS)

    @pytest.mark.parametrize("name,check", selftest.CHECKS, ids=[n for n, _ in selftest.CHECKS])
    def test_suite_makes_its_stated_count(self, name, check):
        assert check() == SELFTEST_COUNTS[name]


class TestMeasureZ:
    """amp_bit is the outcome of measuring both spins along z: 0 parallel,
    1 anti-parallel. Checked against each Bell vector's support."""

    PARALLEL = [0, 3]  # uu and dd in the computational order

    def _support(self, label):
        return np.flatnonzero(qstate.BELL_BASIS[label]).tolist()

    def test_phi_states_parallel(self):
        for l in (L.PHI_PLUS, L.PHI_MINUS):
            assert bell.amp_bit(l) == 0
            assert self._support(l) == self.PARALLEL

    def test_psi_states_antiparallel_regardless_of_sign(self):
        for l in (L.PSI_PLUS, L.PSI_MINUS):
            assert bell.amp_bit(l) == 1
            assert self._support(l) == [1, 2]


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

    def test_negative_zero_reads_as_zero(self):
        a, b = BellDiagonal([-0.0, 0.5, 0.5, 0.0]), BellDiagonal([0.0, 0.5, 0.5, 0.0])
        assert a.p.tobytes() == b.p.tobytes()
        assert repr(a) == repr(b) == "BellDiagonal([0.0, 0.5, 0.5, 0.0])"
        assert measures.werner(-0.0).p.tobytes() == measures.werner(0.0).p.tobytes()

    def test_sum_tolerance_is_within_the_trace_tolerance(self):
        with pytest.raises(ValueError, match="sum to"):
            BellDiagonal([1 / 3, 1 / 3 + 1e-9, 1 / 3, 0.0])
        # the largest accepted excess still makes a density matrix
        to_density(BellDiagonal([1 / 3, 1 / 3 + 0.999 * BellDiagonal.SUM_TOL, 1 / 3, 0.0]))

    def test_immutable(self):
        d = measures.werner(0.7)
        with pytest.raises(ValueError):
            d.p[0] = 1.0


class _ReferenceBellDiagonal:
    """BellDiagonal.__init__ as it stood before its checks were cut to one min
    and one max, kept verbatim as the reference but for two later rules: the
    sum tolerance is 1e-11, below the trace tolerance of to_density, and a
    -0.0 entry reads as 0.0."""

    SUM_TOL = 1e-11

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
        v = np.clip(v, 0.0, 1.0) + 0.0
        v.setflags(write=False)
        self.p = v


def _reference_to_density(d: BellDiagonal) -> qstate.DensityMatrix:
    """to_density as it stood before its loop became one broadcast sum."""
    m = np.zeros((4, 4), dtype=complex)
    for p_l, proj in zip(d.p, bell._PROJECTORS):
        m += p_l * proj
    return qstate.DensityMatrix(m)


#: Entries at the edges of every BellDiagonal check: non-finite, signed zeros,
#: subnormals and the range tolerance's bounds and their neighbours.
_EDGE_ENTRIES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    -1e-12, math.nextafter(-1e-12, -1.0), 1.0, 1.0 + 1e-12, math.nextafter(1.0 + 1e-12, 2.0),
]
_ENTRY = st.one_of(
    st.sampled_from(_EDGE_ENTRIES),
    st.floats(-2e-12, 1.0 + 2e-12),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: Offsets of the sum from 1: exact, at the sum and trace tolerances and just
#: inside and past each.
_SUM_OFFSETS = [
    0.0, 1e-9, -1e-9, 0.999e-9, -0.999e-9, 1.001e-9, -1.001e-9,
    1e-11, -1e-11, 0.999e-11, -0.999e-11, 1.001e-11, -1.001e-11,
]


@st.composite
def probability_inputs(draw):
    """Raw BellDiagonal input: four edge or random entries, most often with
    the last one set to bring the sum to 1, or near 1 +- 1e-9 or 1 +- 1e-11;
    sometimes a vector of the wrong length."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(_ENTRY, max_size=6))
    head = draw(st.lists(_ENTRY, min_size=3, max_size=3))
    if draw(st.booleans()):
        return [*head, draw(_ENTRY)]
    # plain float arithmetic: an inf or NaN in head makes the last entry NaN
    return [*head, 1.0 - (head[0] + head[1] + head[2]) + draw(st.sampled_from(_SUM_OFFSETS))]


#: Valid entries before normalising: signed zeros, subnormals and the range
#: tolerance's lower bound among them.
_VALID_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, -1e-12, 1e-300]),
    st.floats(0.0, 1.0),
)


def _bytes_or_message(make, arg, field):
    """The bytes of make(arg)'s field, or the message of its ValueError."""
    try:
        return getattr(make(arg), field).tobytes()
    except ValueError as exc:
        return str(exc)


class TestAgainstReference:
    """BellDiagonal and to_density against their verbatim earlier forms: the
    same accepted inputs, the same ValueError messages, and the same bytes,
    signed zeros included."""

    @staticmethod
    def _check(p):
        want = _bytes_or_message(_ReferenceBellDiagonal, p, "p")
        assert _bytes_or_message(BellDiagonal, p, "p") == want
        if not isinstance(want, str):
            d = BellDiagonal(p)
            want = _bytes_or_message(_reference_to_density, d, "mat")
            assert _bytes_or_message(to_density, d, "mat") == want

    @settings(max_examples=1500, deadline=None)
    @given(probability_inputs())
    def test_edge_and_random_inputs(self, p):
        self._check(p)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_VALID_ENTRY, min_size=4, max_size=4), st.sampled_from(_SUM_OFFSETS))
    def test_normalised_inputs(self, w, offset):
        total = sum(w)
        assume(total > 0.0)
        p = [x / total for x in w]
        p[0] += offset
        self._check(p)

    def test_edge_vectors(self):
        # each edge entry in each position, the rest filling the sum to 1 or
        # to 1 plus an offset
        for edge, pos, offset in itertools.product(_EDGE_ENTRIES, range(4), _SUM_OFFSETS):
            p = [(1.0 - edge) / 3.0 if math.isfinite(edge) else 0.25] * 4
            p[pos] = edge
            p[(pos + 1) % 4] += offset
            self._check(p)


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

    def test_involutions_cover_the_y_image(self):
        assert len(INVOLUTIONS) == 10
        assert any(np.array_equal(img, unilateral_pauli(bell.LABELS, PauliAxis.Y)) for img in INVOLUTIONS)

    @settings(max_examples=100, deadline=None)
    @given(w=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=4, max_size=4))
    def test_property_involution_push_is_indexing(self, w):
        # pushing through an involution is indexing by it, bit for bit, which
        # recurrence_step_exact relies on for its y rotations
        assume(sum(w) > 0.0)
        d = BellDiagonal(np.array(w) / sum(w))
        for img in INVOLUTIONS:
            assert map_distribution(d, img).p.tobytes() == d.p[img].tobytes()

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
