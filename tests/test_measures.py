import ast
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellpure import bell, ensemble, measures, protocols, qstate, twirl
from bellpure.measures import (
    DR_MAX_STEPS,
    chsh_threshold,
    d0,
    d0_threshold,
    dr_curve,
    e_formation_werner,
    entropy_bell,
    fidelity_from_parallel,
    h2,
    is_chsh_violating,
    parallel_from_fidelity,
    werner,
)
from bellpure.measures import recurrence_formula


class TestH2:
    def test_endpoints(self):
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0

    def test_maximum_at_half(self):
        assert h2(0.5) == 1.0

    def test_value(self):
        assert abs(h2(0.9142) - 0.42229316677717965) <= 1e-15

    def test_symmetry(self):
        for x in np.linspace(0.01, 0.49, 20):
            assert abs(h2(float(x)) - h2(1.0 - float(x))) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            h2(1.5)


class TestWerner:
    def test_pure_singlet(self):
        assert werner(1.0).allclose([0, 0, 0, 1])

    def test_quarter_is_uniform(self):
        assert werner(0.25).allclose([0.25] * 4)

    def test_threshold_entropy_is_one_bit(self):
        assert abs(entropy_bell(werner(0.8107)) - 1.0) <= 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            werner(1.1)
        for fn in (d0, e_formation_werner):
            for f in (-0.1, 1.1, math.nan):
                with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                    fn(f)


class TestEntropyBell:
    def test_uniform_two_bits(self):
        assert entropy_bell(bell.BellDiagonal([0.25] * 4)) == 2.0

    def test_point_mass_zero(self):
        assert entropy_bell(bell.BellDiagonal([0, 1, 0, 0])) == 0.0

    def test_werner_09(self):
        assert abs(entropy_bell(werner(0.9)) - 0.6274918436613968) <= 1e-14

    @pytest.mark.parametrize("f", [0.0, 0.3, 0.62, 0.9, 1.0])
    def test_matches_von_neumann_entropy(self, f):
        d = werner(f)
        s_matrix = qstate.von_neumann_entropy(bell.to_density(d))
        assert abs(entropy_bell(d) - s_matrix) <= 1e-10


class TestD0:
    def test_perfect_input(self):
        assert d0(1.0) == 1.0

    def test_near_threshold(self):
        assert abs(d0(0.8107)) <= 1e-3

    def test_value_at_095(self):
        assert abs(d0(0.95) - 0.6343549178479858) <= 1e-14

    def test_identity_with_entropy_on_grid(self):
        for f in np.linspace(0.001, 0.999, 1000):
            f = float(f)
            assert abs(d0(f) - (1.0 - entropy_bell(werner(f)))) <= 1e-12


class TestD0Threshold:
    def test_bracket(self):
        root = d0_threshold()
        assert 0.8106 < root < 0.8108

    def test_root_property(self):
        root = d0_threshold()
        assert abs(d0(root)) <= 1e-9
        assert d0(root + 0.01) > 0.0
        assert d0(root - 0.01) < 0.0


class TestEFormation:
    def test_perfect(self):
        assert e_formation_werner(1.0) == 1.0

    def test_half_is_zero(self):
        assert e_formation_werner(0.5) == 0.0

    def test_continuous_at_half(self):
        assert e_formation_werner(0.5 + 1e-9) <= 1e-3

    def test_value_at_chsh_threshold(self):
        assert abs(e_formation_werner(chsh_threshold()) - 0.4228970678345043) <= 1e-14

    def test_monotone_on_upper_interval(self):
        grid = [e_formation_werner(float(f)) for f in np.linspace(0.501, 0.999, 200)]
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("f", [0.6, 0.75, 0.9])
    def test_matches_component_state_entanglement(self, f):
        expected = e_formation_werner(f)
        for psi in qstate.werner_pure_states(f):
            assert abs(qstate.entanglement_pure(psi) - expected) <= 1e-10


class TestChsh:
    def test_exact_constant(self):
        assert chsh_threshold() == (2.0 + 3.0 * math.sqrt(2.0)) / 8.0

    def test_classification(self):
        assert is_chsh_violating(0.79)
        assert not is_chsh_violating(0.60)


class TestParallelRelation:
    def test_perfect_singlet_never_parallel(self):
        assert fidelity_from_parallel(0.0) == 1.0

    def test_uniform_mixture(self):
        assert abs(fidelity_from_parallel(0.5) - 0.25) <= 1e-15

    def test_maximum_parallel(self):
        assert abs(fidelity_from_parallel(2.0 / 3.0)) <= 1e-15

    def test_round_trip(self):
        for f in np.linspace(0.0, 1.0, 101):
            f = float(f)
            assert abs(fidelity_from_parallel(parallel_from_fidelity(f)) - f) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            fidelity_from_parallel(0.9)
        for f in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match=r"fidelity .* outside \[0, 1\]"):
                parallel_from_fidelity(f)


def _dr_brute_force(f: float, k_max: int = 64) -> float:
    """Independent oracle: iterate the literal one-step map and take the best
    prod(p/2) * d0 value over the step count."""
    best = d0(f)
    acc, cur = 1.0, f
    for _ in range(k_max):
        num = cur * cur + (1 - cur) ** 2 / 9
        den = cur * cur + (2 / 3) * cur * (1 - cur) + (5 / 9) * (1 - cur) ** 2
        cur = num / den
        acc *= den / 2
        best = max(best, acc * d0(cur))
    return best


def _dr_full_scan(f: float) -> float:
    """dr_curve's float operations over every one of the DR_MAX_STEPS steps,
    with no early exit."""
    best = max(0.0, d0(f))
    cur, acc = f, 1.0
    for _ in range(DR_MAX_STEPS):
        cur, p = recurrence_formula(cur)
        acc *= 0.5 * p
        cand = acc * d0(cur)
        if cand > best:
            best = cand
    return best


class TestDrCurve:
    def test_at_least_direct_breeding(self):
        assert dr_curve(0.95) >= d0(0.95)

    def test_positive_below_breeding_threshold(self):
        assert dr_curve(0.6) > 0.0

    def test_matches_brute_force_oracle(self):
        for f in (0.55, 0.6, 0.75, 0.85, 0.95):
            assert abs(dr_curve(f) - _dr_brute_force(f)) <= 1e-12

    def test_sandwiched_by_bounds_on_grid(self):
        for f in np.linspace(0.505, 0.995, 200):
            f = float(f)
            dr = dr_curve(f)
            assert e_formation_werner(f) >= dr >= max(0.0, d0(f))

    def test_never_negative_just_above_half(self):
        # every product of recurrence steps still has d0 < 0 here; discarding
        # all pairs (yield 0) is the best choice
        assert dr_curve(0.5 + 1e-7) == 0.0

    @given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_sandwiched_by_bounds_everywhere(self, f):
        dr = dr_curve(f)
        assert e_formation_werner(f) >= dr >= max(0.0, d0(f))

    @settings(max_examples=500)
    @given(st.floats(min_value=0.5, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(0.5 + 1e-15)
    @example(0.5 + 1e-7)
    @example(1.0 - 1e-15)
    def test_early_exit_returns_the_full_scan_float(self, f):
        assert dr_curve(f) == _dr_full_scan(f)

    def test_early_exit_cuts_steps_on_the_curves_grid(self, monkeypatch):
        calls = 0

        def counted(f):
            nonlocal calls
            calls += 1
            return recurrence_formula(f)

        monkeypatch.setattr(measures, "recurrence_formula", counted)
        grid = np.linspace(0.505, 0.995, 200)
        for f in grid:
            dr_curve(float(f))
        assert 0 < calls / len(grid) < 16

    def test_domain(self):
        with pytest.raises(ValueError):
            dr_curve(0.5)
        with pytest.raises(ValueError):
            dr_curve(1.0)


class TestTraceRecords:
    def test_fields_cannot_be_assigned(self):
        trace = measures.recurrence_trajectory(0.7, max_steps=2)
        with pytest.raises(AttributeError):
            trace.steps[0].fidelity = 0.9
        with pytest.raises(AttributeError):
            trace.initial_fidelity = 0.9
        with pytest.raises(AttributeError):
            trace.steps = ()

    def test_summary_properties(self):
        trace = measures.recurrence_trajectory(0.7, max_steps=3)
        f, acc = 0.7, 1.0
        for _ in range(3):
            f, p = recurrence_formula(f)
            acc *= 0.5 * p
        assert trace.final_fidelity == f == trace.steps[-1].fidelity
        assert trace.cumulative_yield == acc == trace.steps[-1].cumulative_yield

    def test_summary_properties_of_an_empty_trace(self):
        trace = measures.recurrence_trajectory(0.99, f_target=0.95)
        assert trace.steps == ()
        assert trace.final_fidelity == 0.99
        assert trace.cumulative_yield == 1.0
        assert measures.ProtocolTrace(0.6, ()).final_fidelity == 0.6

    def test_one_record_class_each(self):
        from bellpure import protocols

        trace = measures.recurrence_trajectory(0.7, max_steps=1)
        assert type(trace) is measures.ProtocolTrace
        assert type(trace.steps[0]) is measures.TraceStep
        # protocols defines no record of its own; if it names one, it is this one
        for name in ("TraceStep", "ProtocolTrace"):
            assert getattr(protocols, name, getattr(measures, name)) is getattr(measures, name)


#: Bad input for each public constructor, with the words its message carries.
_BAD_BELL = [
    ([math.nan, 0.0, 0.0, 1.0], "finite"),
    ([math.inf, 0.0, 0.0, 0.0], "finite"),
    ([-0.1, 0.1, 0.5, 0.5], "out of range"),
    ([0.3, 0.3, 0.3, 0.3], "sum to"),
    ([0.5, 0.5], "expected 4"),
    ([[0.25] * 4] * 2, "expected 4"),
]


def _diag(*d):
    return np.diag(np.array(d, dtype=complex))


_BAD_DENSITY = [
    (_diag(0.25, 0.25, 0.25, math.nan), "non-finite"),
    (_diag(0.25, 0.25, complex(0.25, math.inf), 0.25), "non-finite"),
    (_diag(0.5, 0.5, 0.25, -0.25), "negative eigenvalue"),
    (_diag(0.5, 0.5, 0.5, 0.5), "trace"),
    (np.eye(3) / 3, "expected a 2x2 or 4x4"),
    (np.full(4, 0.25), "expected a 2x2 or 4x4"),
]


class TestConstructorGuard:
    """Each public constructor rejects bad input with ValueError, so that a
    cheaper check cannot loosen one unnoticed."""

    @pytest.mark.parametrize("p, words", _BAD_BELL, ids=["nan", "inf", "negative", "unnormalised", "short", "two_rows"])
    def test_bell_diagonal(self, p, words):
        with pytest.raises(ValueError, match=words):
            bell.BellDiagonal(p)

    @pytest.mark.parametrize("m, words", _BAD_DENSITY, ids=["nan", "inf", "negative", "unnormalised", "3x3", "vector"])
    def test_density_matrix(self, m, words):
        with pytest.raises(ValueError, match=words):
            qstate.DensityMatrix(m)

    # a fidelity is a scalar, so it has no shape to get wrong; above 1 it
    # would put negative weight on the triplets
    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf, -0.1, 1.5])
    def test_werner(self, f):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            measures.werner(f)


#: Every call that reads a size, count or seed argument, as (argument name,
#: call with the value v in its place). Each must reject a bad v with the
#: whole-number rule's ValueError, naming the argument.
_WHOLE_NUMBER_CALLS = {
    "sampled_twirl n": ("n", lambda v: twirl.sampled_twirl(np.eye(4) / 4, v, seed=0)),
    "sampled_twirl seed": ("seed", lambda v: twirl.sampled_twirl(np.eye(4) / 4, 10, seed=v)),
    "sampled_twirl stream_id": ("stream_id", lambda v: twirl.sampled_twirl(np.eye(4) / 4, 10, 0, stream_id=v)),
    "convergence_table reps": ("reps", lambda v: twirl.convergence_table(np.eye(4) / 4, [10], reps=v)),
    "convergence_table size": (
        "sample size", lambda v: twirl.convergence_table(np.eye(4) / 4, [10, v], reps=1)
    ),
    "recurrence_trajectory max_steps": ("max_steps", lambda v: measures.recurrence_trajectory(0.7, max_steps=v)),
    "check_breeding_args n": ("n", lambda v: measures.check_breeding_args(v, 0.0, 0.0)),
    "breeding_mc n": ("n", lambda v: protocols.breeding_mc(werner(0.95), v)),
    "stream seed": ("seed", lambda v: ensemble.stream(v)),
    "stream stream_id": ("stream_id", lambda v: ensemble.stream(0, v)),
    "random_axis_parallel_prob n_trials": (
        "n_trials", lambda v: ensemble.random_axis_parallel_prob(werner(0.8), v, seed=1)
    ),
    "recurrence_mc n_pairs": ("n_pairs", lambda v: protocols.recurrence_mc(0.7, v, 2, 0)),
    "recurrence_mc steps": ("steps", lambda v: protocols.recurrence_mc(0.7, 100, v, 0)),
    "recurrence_mc seed": ("seed", lambda v: protocols.recurrence_mc(0.7, 100, 2, v)),
    "variable_block_mc n_pairs": ("n_pairs", lambda v: protocols.variable_block_mc(0.9, v, 0)),
    "variable_block_mc n_pairs at F = 1": ("n_pairs", lambda v: protocols.variable_block_mc(1.0, v, 0)),
    "variable_block_mc seed": ("seed", lambda v: protocols.variable_block_mc(0.9, 100, v)),
    "breeding_trials trials": ("trials", lambda v: protocols.breeding_trials(werner(0.95), 5, v)),
    "parity_bound_check n": ("n", lambda v: protocols.parity_bound_check(v, 4, 100, seed=2)),
    "parity_bound_check r": ("r", lambda v: protocols.parity_bound_check(8, v, 100, seed=2)),
    "parity_bound_check trials": ("trials", lambda v: protocols.parity_bound_check(8, 4, v, seed=2)),
}


class TestWholeNumber:
    @settings(max_examples=300, deadline=None)
    @given(
        v=st.one_of(st.integers(-10, 10**20), st.floats(-20.0, 1e20), st.sampled_from([math.nan, math.inf, -math.inf])),
        lo=st.integers(-5, 5),
        span=st.one_of(st.none(), st.integers(0, 10)),
    )
    @example(v=2.5, lo=1, span=None)
    @example(v=3.0, lo=1, span=2)
    @example(v=2**64, lo=0, span=2**64 - 1)
    @example(v=float(2**64), lo=0, span=2**64 - 1)
    def test_returns_the_int_exactly_when_finite_whole_and_in_range(self, v, lo, span):
        hi = math.inf if span is None else lo + span
        ok = math.isfinite(v) and v == int(v) and lo <= v <= hi
        if ok:
            got = measures.whole_number("x", v, lo, hi)
            assert type(got) is int and got == int(v)
        else:
            with pytest.raises(ValueError, match=rf"^x must be a whole number .*, got {re.escape(repr(v))}$"):
                measures.whole_number("x", v, lo, hi)

    def test_message_names_the_bounds(self):
        with pytest.raises(ValueError, match=r"^steps must be a whole number >= 1, got 2\.5$"):
            measures.whole_number("steps", 2.5, 1)
        with pytest.raises(ValueError, match=r"^n must be a whole number in \[1, 20\], got 21$"):
            measures.whole_number("n", 21, 1, 20)

    @pytest.mark.parametrize("v", [2.5, math.nan, math.inf, -1])
    @pytest.mark.parametrize("call", _WHOLE_NUMBER_CALLS)
    def test_every_call_site_rejects_a_bad_value_naming_its_argument(self, call, v):
        name, run = _WHOLE_NUMBER_CALLS[call]
        # ValueError only: a TypeError from deeper in the kernel fails the test
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number .*, got {re.escape(repr(v))}$"):
            run(v)

    def test_the_rule_is_written_once(self):
        # a whole-number test anywhere but in whole_number is a second copy of the rule
        src = pathlib.Path(measures.__file__).parent
        tree = ast.parse((src / "measures.py").read_text())
        (rule,) = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "whole_number")
        hits = [
            (path.name, i)
            for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if "% 1 == 0" in line
        ]
        assert hits, "whole_number no longer holds the test this scan looks for"
        assert all(name == "measures.py" and rule.lineno <= i <= rule.end_lineno for name, i in hits), hits
