"""Command-line surface: recurrence traces, breeding summaries, yield curves,
twirl reports, and a self-test of the package's internal cross-checks.

Output contract: every emission starts with a header embedding the tool
version and the full run configuration. Floats are rendered with repr (exact
round trip for doubles) in CSV; JSON carries the same values natively, so the
two formats agree digit for digit. Exit codes: 0 success, 1 internal or
self-test failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, bell, measures, protocols, qstate, twirl
from .bell import BellDiagonal, BellLabel, PauliAxis

#: Largest accepted value of each size argument, so that no argument can make
#: one run's time or memory unbounded. Larger values exit 2.
SIZE_LIMITS = {"steps": 1000, "mc": 10**7, "samples": 10**8, "trials": 10**5, "points": 10**5}


def _plain(v):
    """Reduce numpy scalars and enums to plain ints/floats for emission."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, float):
        return float(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def _fmt(v) -> str:
    v = _plain(v)
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _render(columns, rows, config, fmt) -> str:
    if fmt == "csv":
        lines = [
            f"# bellpure {__version__}",
            f"# config: {json.dumps(config, sort_keys=True)}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    doc = {
        "tool": "bellpure",
        "version": __version__,
        "config": config,
        "columns": list(columns),
        "rows": [[_plain(row[c]) for c in columns] for row in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(ns) -> dict:
    """The run configuration embedded in every header: each parsed argument
    except the output path."""
    return {k: v for k, v in vars(ns).items() if k not in ("func", "out")}


def _check_sizes(ns) -> None:
    for name, limit in SIZE_LIMITS.items():
        value = getattr(ns, name, None)
        if value is not None and value > limit:
            raise ValueError(f"--{name} {value} exceeds the limit of {limit}")


def _add_output_args(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")


def cmd_recurrence(ns) -> int:
    if ns.f0 <= 0.5:
        print("error: not distillable below F=1/2", file=sys.stderr)
        return 2
    if ns.f0 >= 1.0:
        print("error: f0 must be below 1", file=sys.stderr)
        return 2
    if ns.target is not None:
        trace = protocols.recurrence_trajectory(ns.f0, f_target=ns.target)
    else:
        trace = protocols.recurrence_trajectory(ns.f0, max_steps=ns.steps)
    columns = ["step", "fidelity", "p_success", "cumulative_yield"]
    rows = [{"step": 0, "fidelity": ns.f0, "p_success": 1.0, "cumulative_yield": 1.0}]
    for i, st in enumerate(trace.steps, start=1):
        rows.append(
            {
                "step": i,
                "fidelity": st.fidelity,
                "p_success": st.p_success,
                "cumulative_yield": st.cumulative_yield,
            }
        )
    if ns.mc and trace.steps:
        columns += ["mc_fidelity", "mc_fidelity_err", "mc_survival", "mc_survival_err"]
        mc = protocols.recurrence_mc(ns.f0, ns.mc, len(trace.steps), ns.seed)
        for row in rows:
            row.setdefault("mc_fidelity", None)
            row.setdefault("mc_fidelity_err", None)
            row.setdefault("mc_survival", None)
            row.setdefault("mc_survival_err", None)
        for st in mc.steps:
            rows[st.step].update(
                mc_fidelity=st.fidelity,
                mc_fidelity_err=st.fidelity_err,
                mc_survival=st.survival,
                mc_survival_err=st.survival_err,
            )
        if mc.truncated:
            print(
                f"note: Monte Carlo ran out of pairs after step {mc.steps[-1].step};"
                " later mc_* cells are blank",
                file=sys.stderr,
            )
    _write(_render(columns, rows, _config(ns), ns.format), ns.out)
    return 0


def cmd_breed(ns) -> int:
    if ns.werner is not None:
        w = measures.werner(ns.werner)
    else:
        w = BellDiagonal(ns.probs)
    summary, _ = protocols.breeding_trials(
        w,
        ns.pairs,
        ns.trials,
        delta=ns.delta,
        r_margin=ns.r_margin,
        seed=ns.seed,
    )
    columns = [
        "trials",
        "pairs",
        "mean_targets_per_pair",
        "decode_failure_rate",
        "residual_error_rate",
        "mean_net_yield",
        "predicted_net_yield",
        "budget_exceeded_rate",
    ]
    rows = [
        {
            "trials": summary.trials,
            "pairs": summary.n,
            "mean_targets_per_pair": summary.mean_targets_per_pair,
            "decode_failure_rate": summary.decode_failure_rate,
            "residual_error_rate": summary.residual_error_rate,
            "mean_net_yield": summary.mean_net_yield,
            "predicted_net_yield": summary.predicted_net_yield,
            "budget_exceeded_rate": summary.budget_exceeded_rate,
        }
    ]
    _write(_render(columns, rows, _config(ns), ns.format), ns.out)
    return 0


def cmd_curves(ns) -> int:
    if not (0.5 < ns.f_min < ns.f_max < 1.0):
        print("error: need 0.5 < f-min < f-max < 1", file=sys.stderr)
        return 2
    if ns.points < 2:
        print("error: need at least 2 points", file=sys.stderr)
        return 2
    columns = ["F", "F_minus_half", "D0", "DR", "E"]
    rows = []
    for f in np.linspace(ns.f_min, ns.f_max, ns.points):
        f = float(f)
        rows.append(
            {
                "F": f,
                "F_minus_half": f - 0.5,
                "D0": max(0.0, measures.d0(f)),
                "DR": measures.dr_curve(f),
                "E": measures.e_formation_werner(f),
            }
        )
    _write(_render(columns, rows, _config(ns), ns.format), ns.out)
    return 0


def _load_matrix_file(path: str) -> qstate.DensityMatrix:
    """Matrix input format: JSON array of 4 rows, each 4 [re, im] pairs."""
    with open(path) as fh:
        data = json.load(fh)
    arr = np.asarray(data, dtype=float)
    if arr.shape != (4, 4, 2):
        raise ValueError("matrix file must hold 4 rows of 4 [re, im] pairs")
    return qstate.DensityMatrix(arr[..., 0] + 1j * arr[..., 1])


def cmd_twirl(ns) -> int:
    if ns.input is not None:
        rho = _load_matrix_file(ns.input)
    else:
        rho = bell.to_density(measures.werner(ns.werner))
    columns = [
        "n_samples",
        "fidelity_in",
        "fidelity_out",
        "trace_distance_to_werner",
        "werner_phi_plus",
        "werner_phi_minus",
        "werner_psi_plus",
        "werner_psi_minus",
    ]
    target = twirl.exact_twirl(rho)
    target_mat = bell.to_density(target)
    base = {
        "werner_phi_plus": target[BellLabel.PHI_PLUS],
        "werner_phi_minus": target[BellLabel.PHI_MINUS],
        "werner_psi_plus": target[BellLabel.PSI_PLUS],
        "werner_psi_minus": target[BellLabel.PSI_MINUS],
    }
    fid_in = qstate.fidelity_singlet(rho)
    rows = [
        {
            "n_samples": 0,
            "fidelity_in": fid_in,
            "fidelity_out": target.fidelity,
            "trace_distance_to_werner": twirl.trace_distance(rho, target_mat),
            **base,
        }
    ]
    if ns.samples:
        checkpoints = [m for m in (100, 1000, 10_000, 100_000) if m < ns.samples]
        checkpoints.append(ns.samples)
        for sid, m in enumerate(checkpoints):
            _, rep = twirl.sampled_twirl(rho, m, ns.seed, stream_id=sid)
            rows.append(
                {
                    "n_samples": m,
                    "fidelity_in": rep.fidelity_in,
                    "fidelity_out": rep.fidelity_out,
                    "trace_distance_to_werner": rep.trace_distance_to_werner,
                    **base,
                }
            )
    _write(_render(columns, rows, _config(ns), ns.format), ns.out)
    return 0


# self-test checks: each returns the number of assertions it made


def _check_bxor_bijection() -> int:
    images = {bell.bxor(s, t) for s in BellLabel for t in BellLabel}
    assert len(images) == 16, "BXOR rule is not a bijection"
    return 16


def _check_bxor_matrix_oracle() -> int:
    regenerated = bell.bxor_table_from_unitaries()
    for key, val in regenerated.items():
        assert bell.bxor(*key) == val, f"BXOR rule mismatch at {key}"
        assert bell.BXOR_TABLE[key] == val, f"BXOR table mismatch at {key}"
    return 16


def _check_pauli_maps() -> int:
    count = 0
    for axis in PauliAxis:
        u = bell.unilateral_pauli_unitary(axis)
        for l in BellLabel:
            mapped = bell.unilateral_pauli(l, axis)
            assert mapped != l, "one-particle pi rotations move every label"
            assert bell.unilateral_pauli(mapped, axis) == l, "not an involution"
            got = u @ bell.label_projector(l).mat @ u.conj().T
            dev = np.abs(got - bell.label_projector(mapped).mat).max()
            assert dev <= 1e-10, f"unilateral {axis} on {l}: deviation {dev}"
            count += 1
    return count


def _check_bilateral_maps() -> int:
    count = 0
    for axis in PauliAxis:
        u = bell.bilateral_rot_unitary(axis)
        for l in BellLabel:
            mapped = bell.bilateral_rot(l, axis)
            assert bell.bilateral_rot(mapped, axis) == l, "not an involution"
            got = u @ bell.label_projector(l).mat @ u.conj().T
            dev = np.abs(got - bell.label_projector(mapped).mat).max()
            assert dev <= 1e-10, f"bilateral {axis} on {l}: deviation {dev}"
            count += 1
    assert all(
        bell.bilateral_rot(BellLabel.PSI_MINUS, a) == BellLabel.PSI_MINUS for a in PauliAxis
    ), "the singlet must be fixed by every bilateral rotation"
    return count


def _check_psi_parity_rule() -> int:
    for s in BellLabel:
        for t in BellLabel:
            s2, t2 = bell.bxor(s, t)
            assert (s2 >= 2) == (s >= 2), "source class must never change"
            toggled = (t2 >= 2) != (t >= 2)
            assert toggled == (s >= 2), "target class toggles exactly on Psi sources"
    return 32


def _check_recurrence_fixed_points() -> int:
    for f in (0.25, 0.5, 1.0):
        out, _ = protocols.recurrence_formula(f)
        assert out == f, f"fixed point at {f} broken: {out}"
    return 3


def _check_recurrence_enumeration() -> int:
    count = 0
    for f in np.linspace(0.55, 0.95, 9):
        ff, p = protocols.recurrence_formula(float(f))
        out = protocols.recurrence_step_exact(measures.werner(float(f)), measures.werner(float(f)))
        assert abs(out.post_state.fidelity - ff) <= 1e-12
        assert abs(out.p_success - p) <= 1e-12
        count += 2
    return count


def _check_recurrence_matrix_oracle() -> int:
    count = 0
    for f1, f2 in ((0.6, 0.6), (0.7, 0.9), (1.0, 1.0)):
        a = protocols.recurrence_step_exact(measures.werner(f1), measures.werner(f2))
        b = protocols.density_matrix_oracle_step(measures.werner(f1), measures.werner(f2))
        assert abs(a.p_success - b.p_success) <= 1e-10
        assert np.abs(a.post_state.p - b.post_state.p).max() <= 1e-10
        count += 2
    return count


def _check_yield_entropy_identity() -> int:
    count = 0
    for f in np.linspace(0.01, 0.99, 25):
        f = float(f)
        assert abs(measures.d0(f) - (1.0 - measures.entropy_bell(measures.werner(f)))) <= 1e-12
        count += 1
    return count


def _check_werner_mixture_identity() -> int:
    f = 0.8
    mix = np.zeros((4, 4), dtype=complex)
    for psi in qstate.werner_pure_states(f):
        mix += psi.projector() / 8.0
    dev = np.abs(mix - bell.to_density(measures.werner(f)).mat).max()
    assert dev <= 1e-12, f"eight-state mixture deviates by {dev}"
    return 1


SELFTEST_CHECKS = [
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


def cmd_selftest(ns) -> int:
    failures = 0
    for name, check in SELFTEST_CHECKS:
        try:
            count = check()
        except Exception as exc:  # a failed check must not stop the others
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"ok   {name} ({count} checks)")
    if failures:
        print(f"self-test failed: {failures} of {len(SELFTEST_CHECKS)} suites")
        return 1
    print(f"self-test passed: {len(SELFTEST_CHECKS)} suites")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bellpure",
        description="Purification of noisy two-qubit pairs: exact calculators and seeded Monte Carlo.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("recurrence", help="iterate the two-pair purification step")
    r.add_argument("f0", type=float, help="starting fidelity, must exceed 1/2")
    g = r.add_mutually_exclusive_group(required=True)
    g.add_argument("--target", type=float, help="iterate until this fidelity is reached")
    g.add_argument("--steps", type=int, help="iterate exactly this many steps")
    r.add_argument("--mc", type=int, metavar="PAIRS", help="add Monte Carlo columns using this many pairs")
    r.add_argument("--seed", type=int, default=0)
    _add_output_args(r)
    r.set_defaults(func=cmd_recurrence)

    b = sub.add_parser("breed", help="run seeded breeding trials")
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--werner", type=float, help="Werner input fidelity")
    src.add_argument("--probs", type=float, nargs=4, metavar=("PHI+", "PHI-", "PSI+", "PSI-"))
    b.add_argument("--pairs", type=int, required=True)
    b.add_argument("--trials", type=int, default=100)
    b.add_argument("--delta", type=float, default=0.05)
    b.add_argument("--r-margin", dest="r_margin", type=float, default=2.0)
    b.add_argument("--seed", type=int, default=0)
    _add_output_args(b)
    b.set_defaults(func=cmd_breed)

    c = sub.add_parser("curves", help="tabulate the yield curves over a fidelity grid")
    c.add_argument("--f-min", dest="f_min", type=float, default=0.505)
    c.add_argument("--f-max", dest="f_max", type=float, default=0.995)
    c.add_argument("--points", type=int, default=200)
    _add_output_args(c)
    c.set_defaults(func=cmd_curves)

    t = sub.add_parser("twirl", help="symmetrize a state to Werner form")
    src = t.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="JSON matrix file: 4 rows of 4 [re, im] pairs")
    src.add_argument("--werner", type=float, help="build the input as a Werner state")
    t.add_argument("--samples", type=int, help="also run the sampled twirl with this many rotations")
    t.add_argument("--seed", type=int, default=0)
    _add_output_args(t)
    t.set_defaults(func=cmd_twirl)

    s = sub.add_parser("selftest", help="run the internal cross-check suites")
    s.set_defaults(func=cmd_selftest)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        _check_sizes(ns)
        return ns.func(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
