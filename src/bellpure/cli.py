"""Command-line surface: recurrence traces, breeding summaries, yield curves,
twirl reports, and a self-test of the package's internal cross-checks.

Output contract: every table command builds its rows as dicts and hands them
to _emit, the one emission path. The first row's keys are the columns. Every
emission starts with a header embedding the tool version and the full run
configuration. Floats are rendered with repr (exact round trip for doubles) in
CSV; JSON carries the same values natively, so the two formats agree digit for
digit. A float cell with no value (NaN, as from a Monte Carlo step that kept no
pair) is blank in CSV and null in JSON, like a step the Monte Carlo never
reached, so the JSON is strict RFC 8259.

Exit codes: 0 success, 1 internal or self-test failure, 2 invalid input. An
invalid input raises ValueError (or OSError for an unusable path) into main,
the one exit-2 path, which prints it as a single `error:` line. An --out that
cannot be written is rejected there before the command runs (_check_out).

Start-up cost: at import this module loads only the standard library and
measures, which is plain float arithmetic. A command that needs arrays imports
numpy and the modules built on it (bell, protocols, qstate, twirl) itself, and
only after its input is checked. `curves` builds its grid in plain floats
(_grid, equal to np.linspace), `twirl --werner` builds its report from
measures.werner_weights (a Werner state is its own twirl), and `twirl --input`
rejects a malformed or non-finite matrix file before numpy loads. So
`--version`, usage errors, `recurrence` without `--mc`, `curves`, `twirl
--werner` without `--samples`, the argument errors of `recurrence`, a
`--werner` fidelity outside [0, 1], `breed`'s size and margin errors, a size
option or `--seed` out of range and a rejected `twirl --input` file never load
numpy. The self-test suites live in selftest, which only the `selftest`
command imports.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from . import __version__, measures

if TYPE_CHECKING:
    from . import qstate

#: (min, limit) of each size argument: the limits keep any one run's time and
#: memory bounded. A value outside its range exits 2.
SIZE_LIMITS = {
    "steps": (0, 1000), "mc": (2, 10**7), "samples": (1, 10**8), "trials": (1, 10**5), "points": (2, 10**5)
}


def _plain(v):
    """A NaN float becomes None, a cell with no value. Every command builds its
    cells as plain ints, floats and None, so nothing else needs converting."""
    return None if isinstance(v, float) and math.isnan(v) else v


def _fmt(v) -> str:
    v = _plain(v)
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _emit(ns, rows) -> int:
    """Render rows under the config header as ns.format and write them to
    ns.out, or stdout without one. The columns are the first row's keys."""
    columns = list(rows[0])
    config = {k: v for k, v in vars(ns).items() if k not in ("func", "out")}
    if ns.format == "csv":
        lines = [
            f"# bellpure {__version__}",
            f"# config: {json.dumps(config, sort_keys=True, allow_nan=False)}",
            ",".join(columns),
        ]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "tool": "bellpure",
            "version": __version__,
            "config": config,
            "columns": columns,
            "rows": [[_plain(row[c]) for c in columns] for row in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _check_numbers(ns) -> None:
    """Reject a size outside its range, named as the option that was typed,
    and a --seed outside the stream key's range before any work, so a run
    that draws nothing rejects them too."""
    for name, (lo, limit) in SIZE_LIMITS.items():
        if (value := getattr(ns, name, None)) is not None:
            measures.whole_number(f"--{name}", value, lo, limit)
    if hasattr(ns, "seed"):
        measures.whole_number("seed", ns.seed, 0, 2**64 - 1)


def _check_out(ns) -> None:
    """Reject an --out whose directory is missing or not writable, or that
    names a directory, before any work. Nothing is opened, so an existing file
    is not truncated and a rejected run leaves no file."""
    out = getattr(ns, "out", None)
    if not out:
        return
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out {out}: directory {folder} does not exist")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"--out {out}: directory {folder} is not writable")
    if os.path.isdir(out):
        raise ValueError(f"--out {out}: is a directory")


def _add_output_args(p) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")


def cmd_recurrence(ns) -> int:
    if ns.target is not None:
        trace = measures.recurrence_trajectory(ns.f0, f_target=ns.target)
        reached = trace.steps[-1].fidelity if trace.steps else ns.f0
        if reached < ns.target:
            print(
                f"note: fidelity {reached!r} after {len(trace.steps)} steps is still below"
                f" the target {ns.target!r}",
                file=sys.stderr,
            )
    else:
        trace = measures.recurrence_trajectory(ns.f0, max_steps=ns.steps)
    run_mc = ns.mc is not None and bool(trace.steps)
    # every mc_* cell starts blank, and a step the Monte Carlo never reaches keeps it so
    mc_columns = ("mc_fidelity", "mc_fidelity_err", "mc_survival", "mc_survival_err")
    blank = dict.fromkeys(mc_columns) if run_mc else {}
    steps = [measures.TraceStep(ns.f0, 1.0, 1.0), *trace.steps]
    rows = [{"step": i, **st._asdict(), **blank} for i, st in enumerate(steps)]
    if run_mc:
        from . import protocols

        mc = protocols.recurrence_mc(ns.f0, ns.mc, len(trace.steps), ns.seed)
        for st in mc.steps:
            cells = (st.fidelity, st.fidelity_err, st.survival, st.survival_err)
            rows[st.step].update(zip(mc_columns, cells))
        if mc.truncated:
            print(
                f"note: Monte Carlo ran out of pairs after step {mc.steps[-1].step};"
                " later mc_* cells are blank",
                file=sys.stderr,
            )
    return _emit(ns, rows)


def cmd_breed(ns) -> int:
    measures.check_breeding_args(ns.pairs, ns.delta, ns.r_margin)
    probs = ns.probs if ns.werner is None else measures.werner_weights(ns.werner)
    from . import protocols
    from .bell import BellDiagonal

    summary, _ = protocols.breeding_trials(
        BellDiagonal(probs),
        ns.pairs,
        ns.trials,
        delta=ns.delta,
        r_margin=ns.r_margin,
        seed=ns.seed,
    )
    cells = summary._asdict()
    del cells["delta"], cells["r_margin"]  # the config header echoes these
    return _emit(ns, [{"trials": cells.pop("trials"), "pairs": cells.pop("n"), **cells}])


def _grid(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 evenly spaced points from start to stop, bit for bit those of
    np.linspace(start, stop, n): start + i * step, then the last set to stop."""
    step = (stop - start) / (n - 1)
    points = [start + i * step for i in range(n)]
    points[-1] = stop
    return points


def cmd_curves(ns) -> int:
    if not (0.5 < ns.f_min < ns.f_max < 1.0):
        raise ValueError("need 0.5 < f-min < f-max < 1")
    rows = []
    for f in _grid(ns.f_min, ns.f_max, ns.points):
        rows.append(
            {
                "F": f,
                "F_minus_half": f - 0.5,
                "D0": max(0.0, measures.d0(f)),
                "DR": measures.dr_curve(f),
                "E": measures.e_formation_werner(f),
            }
        )
    return _emit(ns, rows)


#: Largest accepted --input file. A 4x4 matrix of [re, im] pairs takes a few
#: KB, so the limit bounds the read without refusing a real matrix.
MAX_MATRIX_FILE_BYTES = 64 * 1024


def _is_matrix_json(data) -> bool:
    """True when data is 4 lists of 4 [re, im] pairs of finite-range numbers."""

    def is_list(v, n):
        return isinstance(v, list) and len(v) == n

    def is_number(v):
        if isinstance(v, float):
            return True
        return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max

    return is_list(data, 4) and all(
        is_list(row, 4) and all(is_list(c, 2) and all(map(is_number, c)) for c in row)
        for row in data
    )


def _load_matrix_file(path: str) -> qstate.DensityMatrix:
    """Matrix input format: JSON array of 4 rows, each 4 [re, im] pairs."""
    with open(path, "rb") as fh:
        text = fh.read(MAX_MATRIX_FILE_BYTES + 1)
    if len(text) > MAX_MATRIX_FILE_BYTES:
        raise ValueError(f"matrix file is larger than {MAX_MATRIX_FILE_BYTES} bytes")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("matrix file nests too deeply") from None
    except ValueError:  # bad UTF-8 and over-long integers included
        raise ValueError("matrix file is not valid JSON") from None
    if not _is_matrix_json(data):
        raise ValueError("matrix file must hold 4 rows of 4 [re, im] pairs of numbers")
    # DensityMatrix's first check on a 4x4 matrix, made before numpy loads
    if not all(math.isfinite(x) for row in data for cell in row for x in cell):
        raise ValueError("matrix has non-finite entries")
    import numpy as np

    from . import qstate

    # each [re, im] pair read as one complex number, with no arithmetic that
    # could turn an infinite part into NaN
    return qstate.DensityMatrix(np.array(data, dtype=float).view(complex)[..., 0])


#: The twirl report's columns; the Werner weights come last, in Bell order.
_TWIRL_COLUMNS = (
    "n_samples", "fidelity_in", "fidelity_out", "trace_distance_to_werner",
    "werner_phi_plus", "werner_phi_minus", "werner_psi_plus", "werner_psi_minus",
)


def cmd_twirl(ns) -> int:
    if ns.input is None:
        # a Werner state is its own twirl, so its report is exact in plain floats
        weights = measures.werner_weights(ns.werner)
        distance = 0.0
    else:
        rho = _load_matrix_file(ns.input)
        from . import bell, twirl

        target = twirl.exact_twirl(rho)
        weights = target.p.tolist()  # weights[3] is the singlet fidelity, clamped to [0, 1]
        distance = twirl.trace_distance(rho, bell.to_density(target))
    cells = [(0, weights[3], distance)]  # n_samples, fidelity_out, trace distance
    if ns.samples is not None:
        from . import bell, twirl

        if ns.input is None:
            rho = bell.to_density(measures.werner(weights[3]))
        checkpoints = [m for m in (100, 1000, 10_000, 100_000) if m < ns.samples]
        checkpoints.append(ns.samples)
        for sid, m in enumerate(checkpoints):
            _, rep = twirl.sampled_twirl(rho, m, ns.seed, stream_id=sid)
            cells.append((m, rep.fidelity_out, rep.trace_distance_to_werner))
    rows = [dict(zip(_TWIRL_COLUMNS, (m, weights[3], out, dist, *weights))) for m, out, dist in cells]
    return _emit(ns, rows)


def cmd_selftest(ns) -> int:
    from . import selftest

    return selftest.run()


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
        _check_numbers(ns)
        _check_out(ns)
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
