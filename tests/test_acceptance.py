"""End-to-end acceptance suite. Each test pins one criterion at its stated
tolerance and prints a PASS line on success (run with -v or -s to see them).
Monte Carlo criteria use frozen seeds so the suite is deterministic."""
import math
import time
from pathlib import Path

import numpy as np

from bellpure import bell, ensemble, measures, protocols, qstate, twirl
from bellpure.bell import BellDiagonal, BellLabel
from bellpure.cli import main
from test_protocols import blocked_round_exact, y_rotated_werner

DATA_DIR = Path(__file__).parent / "data"


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_01_recurrence_closed_form_match():
    t0 = time.monotonic()
    for f in np.linspace(0.505, 0.995, 50):
        f = float(f)
        out = protocols.recurrence_step_exact(measures.werner(f), measures.werner(f))
        ff, p = measures.recurrence_formula(f)
        assert abs(out.post_state.fidelity - ff) <= 1e-12
        assert abs(out.p_success - p) <= 1e-12
        assert out.p_success > 0.25
    assert time.monotonic() - t0 < 1.0
    _passed("01 recurrence step matches the closed form on a 50-point grid")


def test_02_label_vs_density_matrix_oracle():
    rng = np.random.default_rng(20240131)
    for _ in range(100):
        v1 = rng.random(4) + 1e-3
        v2 = rng.random(4) + 1e-3
        m1 = BellDiagonal(v1 / v1.sum())
        m2 = BellDiagonal(v2 / v2.sum())
        a = protocols.recurrence_step_exact(m1, m2)
        b = protocols.density_matrix_oracle_step(m1, m2)
        assert abs(a.p_success - b.p_success) <= 1e-10
        assert np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10
        assert np.abs(a.post_state_raw.p - b.post_state_raw.p).max() <= 1e-10
    _passed("02 label-level and density-matrix steps agree on 100 random pairs")


def test_03_fixed_points_and_distillability():
    out_half, _ = measures.recurrence_formula(0.5)
    out_one, _ = measures.recurrence_formula(1.0)
    assert out_half == 0.5
    assert out_one == 1.0
    for f in np.linspace(0.505, 0.995, 99):
        f = float(f)
        out, _ = measures.recurrence_formula(f)
        assert out > f
    # any fidelity above 1/2 reaches any target below 1 through a strictly
    # increasing trajectory
    for f0, target in ((0.51, 0.9), (0.6, 0.95), (0.75, 0.999)):
        trace = measures.recurrence_trajectory(f0, f_target=target, max_steps=10_000)
        fids = [f0] + [s.fidelity for s in trace.steps]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        assert trace.final_fidelity >= target
    _passed("03 exact fixed points at 1/2 and 1; strict improvement above 1/2")


def test_04_breeding_threshold():
    root = measures.d0_threshold()
    assert 0.8106 < root < 0.8108
    for f in np.linspace(0.001, 0.999, 1000):
        f = float(f)
        assert abs(measures.d0(f) - (1.0 - measures.entropy_bell(measures.werner(f)))) <= 1e-12
    _passed("04 breeding yield threshold in (0.8106, 0.8108); entropy identity on grid")


def test_05_formation_bound_dominance():
    for f in np.linspace(0.505, 0.995, 200):
        f = float(f)
        e = measures.e_formation_werner(f)
        dr = measures.dr_curve(f)
        d0p = max(0.0, measures.d0(f))
        assert e >= dr >= d0p
    for f in (0.6, 0.75, 0.9):
        expected = measures.e_formation_werner(f)
        for psi in qstate.werner_pure_states(f):
            assert abs(qstate.entanglement_pure(psi) - expected) <= 1e-10
    _passed("05 E >= DR >= D0+ on the grid; formation bound matches state entanglement")


def test_06_eight_state_mixture():
    t0 = time.monotonic()
    for f in (0.6, 0.8, 0.95):
        mix = np.zeros((4, 4), dtype=complex)
        for psi in qstate.werner_pure_states(f):
            mix += psi.projector() / 8.0
        target = bell.to_density(measures.werner(f)).mat
        assert np.abs(mix - target).max() <= 1e-12
    assert time.monotonic() - t0 < 1.0
    _passed("06 uniform eight-state mixture equals the Werner matrix entrywise")


def test_07_recurrence_monte_carlo():
    t0 = time.monotonic()
    mc = protocols.recurrence_mc(0.7, 1_000_000, 1, seed=12345)
    elapsed = time.monotonic() - t0
    step = mc.steps[0]
    assert abs(step.fidelity - 0.7352941176470588) <= 3 * step.fidelity_err
    assert abs(step.survival - 0.34) <= 3 * step.survival_err
    assert elapsed < 30.0
    _passed("07 one-step Monte Carlo at n=1e6 within 3 sigma of the closed form")


def test_08_variable_blocksize_lowest_order():
    t0 = time.monotonic()
    stats = protocols.variable_block_mc(0.99, 1_000_000, seed=777)
    elapsed = time.monotonic() - t0
    eps = 0.01
    f_target = 1.0 - (2.0 / 3.0) * eps
    d_target = (2.0 / 3.0) * math.sqrt(eps)
    assert stats.k == 10
    assert abs(stats.fidelity - f_target) <= 3 * stats.fidelity_err + 0.1 * eps
    assert abs(stats.discard_fraction - d_target) <= 3 * stats.discard_err + 0.1 * eps
    # the exact round, with no lowest-order slack
    fid, discard = blocked_round_exact(y_rotated_werner(0.99), stats.k)
    assert abs(stats.fidelity - fid) <= 3 * stats.fidelity_err
    assert abs(stats.discard_fraction - discard) <= 3 * stats.discard_err
    assert elapsed < 60.0
    _passed("08 variable-blocksize fidelity and discard laws at F=0.99, n=1e6")


def test_09_breeding_desk_scale():
    t0 = time.monotonic()
    w = measures.werner(0.95)
    entropy = measures.entropy_bell(w)  # 0.36564508...
    failure_rates = {}
    all_results = []
    for margin in (0.0, 1.0, 2.0, 4.0):
        summary, results = protocols.breeding_trials(w, 16, 500, r_margin=margin, seed=2024)
        failure_rates[margin] = summary.decode_failure_rate
        all_results.extend(results)
        if margin == 0.0:
            # consumption approaches the entropy rate as the margin vanishes
            assert abs(summary.mean_targets_per_pair - entropy) <= 0.15
    # (a) doubling the margin from 1 to 4 monotonically reduces failures
    assert failure_rates[1.0] >= failure_rates[2.0] >= failure_rates[4.0]
    assert failure_rates[1.0] > failure_rates[4.0]
    # (c) no residual errors whenever both decodes succeeded
    for r in all_results:
        if r.decode_correct_round1 and r.decode_correct_round2:
            assert r.residual_error_pairs == 0
    assert time.monotonic() - t0 < 300.0
    _passed("09 breeding at n=16: margin monotonicity, consumption, clean successes")


def test_10_twirl_properties():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = qstate.DensityMatrix(m / m.trace().real)
        f_in = qstate.fidelity_singlet(rho)
        f_out = qstate.fidelity_singlet(bell.to_density(twirl.exact_twirl(rho)))
        assert abs(f_in - f_out) <= 1e-10
    table = twirl.convergence_table(
        bell.label_projector(BellLabel.PHI_PLUS), [100, 1000, 10_000, 100_000], reps=8, seed=31
    )
    x = np.log10([row[0] for row in table])
    y = np.log10([row[1] for row in table])
    slope = float(np.polyfit(x, y, 1)[0])
    assert -0.6 <= slope <= -0.4
    for f, seed in ((0.25, 32), (0.5, 57), (0.85, 92), (1.0, 107)):
        est = ensemble.random_axis_parallel_prob(measures.werner(f), 200_000, seed=seed)
        f_hat = measures.fidelity_from_parallel(est.mean)
        assert abs(f_hat - f) <= 3 * 1.5 * est.std_error + 1e-12
    _passed("10 twirl: fidelity preserved, 1/sqrt(n) convergence, axis relation")


def test_11_chsh_classification():
    assert measures.chsh_threshold() == (2.0 + 3.0 * math.sqrt(2.0)) / 8.0
    assert measures.is_chsh_violating(0.79)
    assert not measures.is_chsh_violating(0.60)
    # the non-violating state still distills
    trace = measures.recurrence_trajectory(0.60, f_target=0.95)
    assert trace.final_fidelity >= 0.95
    assert measures.dr_curve(0.60) > 0.0
    _passed("11 CHSH threshold exact; F=0.6 is non-violating yet distillable")


def test_12_golden_curve_table(capsys):
    args = ["curves", "--format", "csv"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    golden = (DATA_DIR / "curves_golden.csv").read_text()
    assert out1 == golden
    _passed("12 200-point curve table is byte-stable and matches the golden file")
