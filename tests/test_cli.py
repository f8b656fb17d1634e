import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellpure
from bellpure import bell, cli, measures, protocols, qstate, twirl
from bellpure.bell import BellLabel
from bellpure.cli import MAX_MATRIX_FILE_BYTES, SIZE_LIMITS, _grid, main
from bellpure.protocols import BreedingSummary

DATA_DIR = Path(__file__).parent / "data"


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def emit(args):
    """stdout of one cli.main run, which must succeed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert main(args) == 0
    return buf.getvalue()


@st.composite
def cli_runs(draw):
    """argv of one small recurrence (with or without --mc), breed or curves
    run, without --format."""
    open_unit = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
    seed = str(draw(st.integers(0, 2**32)))
    command = draw(st.sampled_from(["recurrence", "breed", "curves"]))
    if command == "recurrence":
        args = ["recurrence", repr(draw(open_unit)), "--steps", str(draw(st.integers(1, 6))), "--seed", seed]
        mc = draw(st.none() | st.integers(2, 3000))
        return args if mc is None else args + ["--mc", str(mc)]
    if command == "breed":
        pairs, trials = draw(st.integers(1, 8)), draw(st.integers(1, 4))
        return ["breed", "--werner", repr(draw(st.floats(0.0, 1.0))), "--pairs", str(pairs),
                "--trials", str(trials), "--seed", seed]
    f_min, f_max = sorted(draw(st.lists(open_unit, min_size=2, max_size=2, unique=True)))
    return ["curves", "--f-min", repr(f_min), "--f-max", repr(f_max), "--points", str(draw(st.integers(2, 30)))]


@st.composite
def grid_specs(draw):
    """(start, stop, n) as curves accepts them: 1/2 < start < stop < 1, some
    of them 1 ulp apart, and 2 <= n <= the --points limit, mostly small."""
    open_unit = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)
    x = draw(open_unit)
    if draw(st.booleans()):
        up = math.nextafter(x, 1.0)
        start, stop = (x, up) if up < 1.0 else (math.nextafter(x, 0.5), x)
    else:
        start, stop = sorted((x, draw(open_unit.filter(lambda y: y != x))))
    n = draw(st.integers(2, 64) | st.integers(2, SIZE_LIMITS["points"]))
    return start, stop, n


def parse_csv(text):
    lines = text.strip().splitlines()
    header_lines = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    columns = body[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in body[1:]]
    config = json.loads(header_lines[1].split("# config: ", 1)[1])
    return config, columns, rows


class TestRecurrenceCommand:
    def test_single_step_value(self, capsys):
        code, out, _ = run(capsys, ["recurrence", "0.7", "--steps", "1"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert abs(float(rows[1]["fidelity"]) - 0.7352941176470588) <= 1e-12
        assert abs(float(rows[1]["p_success"]) - 0.68) <= 1e-12

    def test_below_half_exits_2_with_message(self, capsys):
        code, _, err = run(capsys, ["recurrence", "0.5", "--steps", "1"])
        assert code == 2
        assert "not distillable below F=1/2" in err

    @pytest.mark.parametrize("f0", ["1.0", "-0.1"])
    def test_f0_outside_unit_interval_exits_2_with_one_error_line(self, capsys, f0):
        code, out, err = run(capsys, ["recurrence", f0, "--steps", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: starting fidelity {float(f0)!r} outside [0, 1)\n"

    def test_target_already_met_gives_trivial_trace(self, capsys):
        code, out, _ = run(capsys, ["recurrence", "0.99", "--target", "0.95"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["cumulative_yield"]) == 1.0

    @pytest.mark.parametrize("mc", ["0", "5"])
    def test_no_step_runs_no_monte_carlo(self, capsys, monkeypatch, mc):
        from bellpure import protocols

        def fail(*args, **kwargs):
            raise AssertionError("recurrence_mc ran")

        monkeypatch.setattr(protocols, "recurrence_mc", fail)
        code, out, _ = run(capsys, ["recurrence", "0.7", "--steps", "0", "--mc", mc])
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert columns == ["step", "fidelity", "p_success", "cumulative_yield"] and len(rows) == 1

    def test_mc_columns_and_seed_reproducibility(self, capsys):
        args = ["recurrence", "0.7", "--steps", "1", "--mc", "20000", "--seed", "5"]
        code, out1, _ = run(capsys, args)
        assert code == 0
        code, out2, _ = run(capsys, args)
        assert out1 == out2
        _, columns, rows = parse_csv(out1)
        assert "mc_fidelity" in columns
        fid = float(rows[1]["mc_fidelity"])
        err = float(rows[1]["mc_fidelity_err"])
        assert abs(fid - 0.7352941176470588) <= 4 * err

    def test_mc_truncation_noted_on_stderr_only(self, capsys):
        code, out, err = run(capsys, ["recurrence", "0.7", "--steps", "5", "--mc", "2"])
        assert code == 0
        assert err.splitlines() == [
            "note: Monte Carlo ran out of pairs after step 1; later mc_* cells are blank"
        ]
        _, _, rows = parse_csv(out)
        assert rows[1]["mc_survival"] != ""
        assert [r["mc_fidelity"] for r in rows[2:]] == [""] * 4

    def test_step_that_kept_no_pair_has_empty_cells_and_strict_json(self, capsys):
        # two pairs, one test, and the target measured anti-parallel: step 1
        # keeps no pair, so its fidelity and error have no value
        base = ["recurrence", "0.6", "--steps", "2", "--mc", "2", "--seed", "2"]
        code, json_text, _ = run(capsys, base + ["--format", "json"])
        assert code == 0

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        doc = json.loads(json_text, parse_constant=reject)
        assert doc["rows"][1][4:] == [None, None, 0.0, 0.0]
        code, csv_text, _ = run(capsys, base)
        assert code == 0
        _, _, rows = parse_csv(csv_text)
        assert [rows[1][c] for c in ("mc_fidelity", "mc_fidelity_err", "mc_survival")] == ["", "", "0.0"]
        assert "nan" not in csv_text


class TestHeaderContract:
    def test_rerunning_embedded_config_reproduces_bytes(self, capsys):
        code, out1, _ = run(capsys, ["curves", "--points", "20"])
        assert code == 0
        config, _, _ = parse_csv(out1)
        argv = [
            "curves",
            "--f-min",
            repr(config["f_min"]),
            "--f-max",
            repr(config["f_max"]),
            "--points",
            str(config["points"]),
            "--format",
            config["format"],
        ]
        code, out2, _ = run(capsys, argv)
        assert code == 0
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_emitted_cell_is_an_int_a_float_or_none(self, tmp_path, monkeypatch, fmt):
        # _plain converts nothing but a NaN, so no numpy scalar may reach _emit
        state = bell.to_density(bell.BellDiagonal([0.1, 0.2, 0.3, 0.4])).mat
        (tmp_path / "rho.json").write_text(json.dumps([[[z.real, z.imag] for z in row] for row in state]))
        argvs = [
            ["recurrence", "0.7", "--steps", "3", "--mc", "2000"],
            ["recurrence", "0.7", "--steps", "5", "--mc", "4"],  # a NaN cell, then blank ones
            ["recurrence", "0.7", "--target", "0.99"],
            ["breed", "--werner", "0.95", "--pairs", "6", "--trials", "5"],
            ["breed", "--probs", "0.05", "0.05", "0.1", "0.8", "--pairs", "6", "--trials", "5"],
            ["curves", "--points", "5"],
            ["twirl", "--werner", "0.9", "--samples", "200"],
            ["twirl", "--input", str(tmp_path / "rho.json"), "--samples", "200"],
        ]
        emitted, emit_rows = [], cli._emit

        def recording(ns, rows):
            emitted.append(rows)
            return emit_rows(ns, rows)

        monkeypatch.setattr(cli, "_emit", recording)
        for argv in argvs:
            emit(argv + ["--format", fmt])
        assert len(emitted) == len(argvs)
        cells = [cell for rows in emitted for row in rows for cell in row.values()]
        assert {type(cell) for cell in cells} <= {int, float, type(None)}
        assert any(cell is None for cell in cells) and any(math.isnan(c) for c in cells if type(c) is float)

    def test_csv_and_json_carry_identical_numbers(self, capsys):
        base = ["recurrence", "0.8", "--steps", "3", "--mc", "5000", "--seed", "11"]
        code, csv_text, _ = run(capsys, base + ["--format", "csv"])
        assert code == 0
        code, json_text, _ = run(capsys, base + ["--format", "json"])
        assert code == 0
        doc = json.loads(json_text)
        _, columns, rows = parse_csv(csv_text)
        assert doc["columns"] == columns
        for csv_row, json_row in zip(rows, doc["rows"]):
            for col, jval in zip(columns, json_row):
                cval = csv_row[col]
                if cval == "":
                    assert jval is None
                elif isinstance(jval, float):
                    assert float(cval) == jval
                else:
                    assert cval == str(jval)

    @settings(max_examples=60, deadline=None)
    @given(cli_runs())
    def test_csv_and_json_agree_digit_for_digit(self, args):
        config, columns, rows = parse_csv(emit(args + ["--format", "csv"]))
        doc = json.loads(emit(args + ["--format", "json"]))
        assert config == dict(doc["config"], format="csv")
        assert doc["columns"] == columns
        assert len(doc["rows"]) == len(rows)
        for csv_row, json_row in zip(rows, doc["rows"]):
            cells = ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in json_row]
            assert [csv_row[c] for c in columns] == cells

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "args",
        [
            ["recurrence", "0.7", "--steps", "2"],
            ["recurrence", "0.7", "--steps", "2", "--mc", "1000", "--seed", "3"],
            ["breed", "--werner", "0.95", "--pairs", "6", "--trials", "3", "--seed", "1"],
            ["curves", "--points", "5"],
            ["twirl", "--werner", "0.8", "--samples", "200", "--seed", "2"],
        ],
        ids=["recurrence", "recurrence_mc", "breed", "curves", "twirl"],
    )
    def test_out_writes_file(self, tmp_path, capsys, args, fmt):
        args = args + ["--format", fmt]
        code, stdout, _ = run(capsys, args)
        assert code == 0
        path = tmp_path / "out"
        code, out, _ = run(capsys, args + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_bytes() == stdout.encode()

    @pytest.fixture
    def no_breeding(self, monkeypatch):
        from bellpure import protocols

        def fail(*args, **kwargs):
            raise AssertionError("breeding_trials ran")

        monkeypatch.setattr(protocols, "breeding_trials", fail)

    @pytest.mark.parametrize("unusable", ["missing_directory", "a_directory"])
    def test_unusable_out_is_rejected_before_any_work(self, tmp_path, capsys, no_breeding, unusable):
        path, error = {
            "missing_directory": (tmp_path / "missing" / "x", f"directory {tmp_path / 'missing'} does not exist"),
            "a_directory": (tmp_path, "is a directory"),
        }[unusable]
        args = ["breed", "--werner", "0.95", "--pairs", "20", "--trials", "60000", "--out", str(path)]
        code, stdout, err = run(capsys, args)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: --out {path}: {error}"]
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_directory_leaves_its_file_alone(self, tmp_path, capsys, monkeypatch, no_breeding):
        path = tmp_path / "kept.csv"
        path.write_text("kept\n")
        monkeypatch.setattr(os, "access", lambda p, mode: False)
        code, _, err = run(capsys, ["breed", "--werner", "0.95", "--pairs", "20", "--out", str(path)])
        assert code == 2
        assert err.splitlines() == [f"error: --out {path}: directory {tmp_path} is not writable"]
        assert path.read_text() == "kept\n"


class TestGoldenOutputs:
    """Seeded Monte Carlo and breeding emissions, pinned byte for byte."""

    @pytest.mark.parametrize(
        "args, golden",
        [
            (["breed", "--werner", "0.95", "--pairs", "12", "--trials", "20", "--seed", "7"], "breed_golden.csv"),
            (["recurrence", "0.8", "--steps", "3", "--mc", "20000", "--seed", "11"], "recurrence_mc_golden.csv"),
            (["breed", "--werner", "0.95", "--pairs", "20", "--trials", "10", "--seed", "3"], "breed_n20_golden.csv"),
            (["twirl", "--werner", "0.9", "--samples", "250001", "--seed", "1"], "twirl_samples_golden.csv"),
        ],
    )
    def test_matches_golden_file(self, capsys, args, golden):
        code, out, err = run(capsys, args)
        assert code == 0
        assert err == ""
        assert out == (DATA_DIR / golden).read_text()


class TestSizeLimits:
    @pytest.mark.parametrize(
        "name, args",
        [
            ("steps", ["recurrence", "0.7"]),
            ("mc", ["recurrence", "0.7", "--steps", "2"]),
            ("samples", ["twirl", "--werner", "0.7"]),
            ("trials", ["breed", "--werner", "0.95", "--pairs", "8"]),
            ("points", ["curves"]),
        ],
    )
    def test_beyond_limit_exits_2_with_one_error_line(self, capsys, name, args):
        value = SIZE_LIMITS[name] + 1
        code, out, err = run(capsys, args + [f"--{name}", str(value)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --{name} {value} exceeds the limit of {SIZE_LIMITS[name]}"]

    @pytest.mark.parametrize(
        "args, error",
        [
            (["recurrence", "0.7", "--steps", "2", "--mc", "0"], "error: n_pairs must be a whole number >= 2, got 0"),
            (["recurrence", "0.7", "--steps", "2", "--mc", "1"], "error: n_pairs must be a whole number >= 2, got 1"),
            (["twirl", "--werner", "0.7", "--samples", "0"], "error: n must be a whole number >= 1, got 0"),
            (["twirl", "--werner", "0.7", "--samples", "-3"], "error: n must be a whole number >= 1, got -3"),
            (["curves", "--points", "1"], "error: need at least 2 points"),
        ],
    )
    def test_below_minimum_exits_2_with_one_error_line(self, capsys, args, error):
        # a Monte Carlo asked for with too few draws is an error, 0 among them,
        # and so is a curve grid of fewer than 2 points
        code, out, err = run(capsys, args)
        assert (code, out) == (2, "")
        assert err.splitlines() == [error]

    def test_steps_at_limit_accepted(self, capsys):
        code, out, _ = run(capsys, ["recurrence", "0.7", "--steps", str(SIZE_LIMITS["steps"])])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == SIZE_LIMITS["steps"] + 1


class TestCurvesCommand:
    def test_threshold_crossing_near_expected_fidelity(self, capsys):
        code, out, _ = run(capsys, ["curves", "--f-min", "0.75", "--f-max", "0.9", "--points", "151"])
        assert code == 0
        _, _, rows = parse_csv(out)
        crossing = next(r for r in rows if float(r["D0"]) > 0.0)
        assert abs(float(crossing["F"]) - 0.8107) < 2e-3

    def test_d0_column_clamped_and_ordered(self, capsys):
        code, out, _ = run(capsys, ["curves", "--points", "40"])
        assert code == 0
        _, _, rows = parse_csv(out)
        e_values = [float(r["E"]) for r in rows]
        assert all(b > a for a, b in zip(e_values, e_values[1:]))
        for r in rows:
            d0v, drv, ev = float(r["D0"]), float(r["DR"]), float(r["E"])
            assert 0.0 <= d0v <= drv <= ev

    def test_invalid_range_rejected(self, capsys):
        code, _, err = run(capsys, ["curves", "--f-min", "0.4"])
        assert code == 2
        assert "f-min" in err

    @settings(max_examples=200, deadline=None)
    @given(grid_specs())
    @example((0.505, 0.995, 200))  # the default grid
    @example((0.5000000000000001, 0.9999999999999999, 10**5))
    @example((0.75, math.nextafter(0.75, 1.0), 2))
    def test_grid_equals_numpy_linspace_bit_for_bit(self, spec):
        start, stop, n = spec
        assert _grid(start, stop, n) == np.linspace(start, stop, n).tolist()


#: The twirl report's float columns.
TWIRL_FLOAT_COLUMNS = [
    "fidelity_in", "fidelity_out", "trace_distance_to_werner",
    "werner_phi_plus", "werner_phi_minus", "werner_psi_plus", "werner_psi_minus",
]


def check_werner_row_against_matrix_path(f):
    """Row 0 of `twirl --werner f`, which is built in plain floats, against
    the exact twirl of the state's density matrix."""
    _, _, rows = parse_csv(emit(["twirl", "--werner", repr(f)]))
    rho = bell.to_density(measures.werner(f))
    target = twirl.exact_twirl(rho)
    want = {
        "fidelity_in": qstate.fidelity_singlet(rho),
        "fidelity_out": target.fidelity,
        "trace_distance_to_werner": twirl.trace_distance(rho, bell.to_density(target)),
        **dict(zip(TWIRL_FLOAT_COLUMNS[3:], target.p.tolist())),
    }
    for c in TWIRL_FLOAT_COLUMNS:
        assert abs(float(rows[0][c]) - want[c]) <= 1e-12, (f, c)


def write_singlet_file(directory):
    """The singlet projector as a `twirl --input` file, [re, im] per entry."""
    v = bell.label_projector(BellLabel.PSI_MINUS).mat
    data = [[[float(v[i, j].real), float(v[i, j].imag)] for j in range(4)] for i in range(4)]
    path = directory / "singlet.json"
    path.write_text(json.dumps(data))
    return path


class TestTwirlCommand:
    @pytest.mark.parametrize("f", [0.0, -0.0, 0.93, 1.0, 0.25, 0.9, 1 / 3])
    def test_werner_rows_are_exact(self, f):
        # a Werner state is its own twirl: row 0 and every row's fidelity_in
        # and Werner weights are exact, with no -0.0 and nothing above 1
        _, _, rows = parse_csv(emit(["twirl", "--werner", repr(f), "--samples", "100"]))
        g = (1.0 - f) / 3.0
        for i, row in enumerate(rows):
            exact = TWIRL_FLOAT_COLUMNS if i == 0 else ["fidelity_in", *TWIRL_FLOAT_COLUMNS[3:]]
            vals = {c: float(row[c]) for c in exact}
            assert all(0.0 <= v <= 1.0 and math.copysign(1.0, v) == 1.0 for v in vals.values())
            assert vals["fidelity_in"] == f
            assert [vals[c] for c in TWIRL_FLOAT_COLUMNS[3:]] == [g, g, g, f]
        assert float(rows[0]["fidelity_out"]) == f
        assert rows[0]["trace_distance_to_werner"] == "0.0"

    def test_werner_row_matches_the_matrix_path_on_a_grid(self):
        for f in np.linspace(0.0, 1.0, 101).tolist():
            check_werner_row_against_matrix_path(f)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_werner_row_matches_the_matrix_path(self, f):
        check_werner_row_against_matrix_path(f)

    def test_werner_input_reports_invariance(self, capsys):
        code, out, _ = run(capsys, ["twirl", "--werner", "0.25"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["trace_distance_to_werner"]) <= 1e-12
        assert abs(float(rows[0]["werner_psi_minus"]) - 0.25) <= 1e-12

    def test_matrix_file_input(self, tmp_path, capsys):
        path = write_singlet_file(tmp_path)
        code, out, _ = run(capsys, ["twirl", "--input", str(path)])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert abs(float(rows[0]["fidelity_in"]) - 1.0) <= 1e-12
        assert abs(float(rows[0]["werner_psi_minus"]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", ["0", "1", "singlet_file"])
    def test_reported_fidelities_stay_in_the_unit_interval(self, tmp_path, case):
        # the matrix round trip puts a singlet fidelity a few ulps outside
        # [0, 1]; each reported one is clamped
        if case == "singlet_file":
            source = ["--input", str(write_singlet_file(tmp_path))]
        else:
            source = ["--werner", case]
        _, _, rows = parse_csv(emit(["twirl", *source, "--samples", "1000"]))
        assert [r["n_samples"] for r in rows] == ["0", "100", "1000"]
        for row in rows:
            for c in ("fidelity_in", "fidelity_out"):
                v = float(row[c])
                assert 0.0 <= v <= 1.0 and math.copysign(1.0, v) == 1.0, (row["n_samples"], c, row[c])
        if case == "singlet_file":
            assert {(r["fidelity_in"], r["fidelity_out"]) for r in rows} == {("1.0", "1.0")}

    def test_sampled_convergence_rows(self, capsys):
        code, out, _ = run(capsys, ["twirl", "--werner", "0.7", "--samples", "2000", "--seed", "1"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert [int(r["n_samples"]) for r in rows] == [0, 100, 1000, 2000]

    def test_nan_matrix_file_exits_2_with_one_error_line(self, tmp_path, capsys):
        data = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        data[2][2][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # json writes the bare NaN literal
        code, out, err = run(capsys, ["twirl", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: matrix has non-finite entries"]

    def test_bad_matrix_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[[1,2],[3,4]]")
        code, _, err = run(capsys, ["twirl", "--input", str(path)])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("dict", '{"a": 1}'),
            ("ragged", json.dumps([[[0.25, 0.0]] * 4] * 3 + [[[0.25, 0.0]] * 3])),
            ("deep", "[" * 10_000),
            ("non_numeric", json.dumps([[["0.25", 0.0]] * 4] * 4)),
            ("bool_cell", json.dumps([[[True, 0.0]] * 4] * 4)),
            ("int_beyond_float", json.dumps([[[10**400, 0]] * 4] * 4)),
            ("oversize", " " * MAX_MATRIX_FILE_BYTES + "[]"),
        ],
    )
    def test_malformed_matrix_file_exits_2_with_one_error_line(self, tmp_path, capsys, name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, ["twirl", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "name,data",
        [
            ("int_past_digit_limit", b"[" + b"9" * 5000 + b"]"),
            ("truncated", b"[[[0.25, 0.0],"),
            ("bad_utf8", b"\xff\xfe["),
        ],
    )
    def test_invalid_json_exits_2_with_one_plain_error_line(self, tmp_path, capsys, name, data):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, out, err = run(capsys, ["twirl", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: matrix file is not valid JSON"]
        assert "sys." not in err
        assert "Traceback" not in err

    def test_matrix_file_at_size_limit_accepted(self, tmp_path, capsys):
        data = json.dumps([[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)])
        path = tmp_path / "padded.json"
        path.write_text(data.ljust(MAX_MATRIX_FILE_BYTES))
        code, out, _ = run(capsys, ["twirl", "--input", str(path)])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert abs(float(rows[0]["fidelity_in"]) - 0.25) <= 1e-12


class TestBreedCommand:
    def test_summary_fields(self, capsys):
        code, out, _ = run(
            capsys,
            ["breed", "--werner", "0.95", "--pairs", "12", "--trials", "10", "--seed", "2"],
        )
        assert code == 0
        _, columns, rows = parse_csv(out)
        assert "decode_failure_rate" in columns
        predicted = float(rows[0]["predicted_net_yield"])
        assert abs(predicted - (1.0 - measures.entropy_bell(measures.werner(0.95)))) <= 1e-12

    def test_json_row_is_the_summary_less_what_the_config_echoes(self, capsys):
        args = ["breed", "--werner", "0.9", "--pairs", "6", "--trials", "3", "--seed", "4"]
        code, out, _ = run(capsys, args + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        summary, _ = protocols.breeding_trials(measures.werner(0.9), 6, 3, seed=4)
        unechoed = [f for f in BreedingSummary._fields if f not in doc["config"] and f != "n"]
        assert doc["columns"] == ["trials", "pairs", *unechoed]
        assert doc["rows"] == [[summary.trials, summary.n, *(getattr(summary, f) for f in unechoed)]]

    def test_every_summary_field_reaches_the_csv(self, capsys):
        # each BreedingSummary field is a column (n as pairs) or a config
        # entry of the same value, so the command and the summary cannot drift
        code, out, _ = run(capsys, ["breed", "--werner", "0.9", "--pairs", "6", "--trials", "3"])
        assert code == 0
        config, columns, rows = parse_csv(out)
        summary, _ = protocols.breeding_trials(measures.werner(0.9), 6, 3)
        for field, value in summary._asdict().items():
            column = "pairs" if field == "n" else field
            shown = rows[0][column] if column in columns else config[field]
            assert float(shown) == value, field

    def test_point_mass_input_has_no_failures(self, capsys):
        code, out, _ = run(
            capsys,
            ["breed", "--probs", "1", "0", "0", "0", "--pairs", "10", "--trials", "5", "--seed", "1"],
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["decode_failure_rate"]) == 0.0
        assert float(rows[0]["residual_error_rate"]) == 0.0

    @pytest.mark.parametrize(
        "flag, value", [("--r-margin", "inf"), ("--r-margin", "nan"), ("--r-margin", "1e12"), ("--delta", "inf")]
    )
    def test_bad_margin_exits_2_with_one_error_line(self, capsys, flag, value):
        code, out, err = run(capsys, ["breed", "--werner", "0.95", "--pairs", "5", "--trials", "1", flag, value])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: delta and r_margin must lie in [0, 100]"]

    def test_sign_string_without_prior_counts_as_failure(self, capsys):
        # some trial misdecodes round 1, after which round 2 has no string of
        # non-zero prior; that trial fails and the run goes on
        code, out, err = run(
            capsys,
            ["breed", "--probs", "0.05", "0", "0", "0.95", "--pairs", "5", "--trials", "200", "--seed", "0"],
        )
        assert code == 0
        assert err == ""
        _, _, rows = parse_csv(out)
        assert float(rows[0]["decode_failure_rate"]) > 0.0


#: Each axis with x and z exchanged.
_SWAP_X_Z = {bell.PauliAxis.X: bell.PauliAxis.Z, bell.PauliAxis.Y: bell.PauliAxis.Y, bell.PauliAxis.Z: bell.PauliAxis.X}


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "self-test passed" in out

    def test_corrupted_bxor_rule_fails(self, capsys, monkeypatch):
        # drop the sign kick-back into the source: still a bijection
        monkeypatch.setattr(bell, "bxor", lambda s, t: (s, t ^ (s & 2)))
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert "FAIL bxor-matrix-oracle" in out
        assert "ok   bxor-table-bijection" in out

    @pytest.mark.parametrize(
        "rule,wrong,suite",
        [
            # each rule with its x and z images exchanged: still involutions,
            # fixed-point-free for one particle and fixing the singlet for two
            ("unilateral_pauli", lambda l, axis: BellLabel(l ^ bell.PAULI_XOR[_SWAP_X_Z[axis]]),
             "unilateral-pauli-maps"),
            ("bilateral_rot", lambda l, axis: BellLabel(bell.BILATERAL_PERM[_SWAP_X_Z[axis]][l]),
             "bilateral-rotation-maps"),
        ],
        ids=["unilateral_pauli", "bilateral_rot"],
    )
    def test_corrupted_one_pair_rule_fails_its_own_suite(self, capsys, monkeypatch, rule, wrong, suite):
        monkeypatch.setattr(bell, rule, wrong)
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert [l.split(":")[0] for l in out.splitlines() if l.startswith("FAIL")] == [f"FAIL {suite}"]

    def test_checks_survive_optimized_interpreter(self):
        # python -O strips assert statements; the self-test must still fail
        script = (
            "from bellpure import bell, cli\n"
            "bell.bxor = lambda s, t: (s, t ^ (s & 2))\n"
            "raise SystemExit(cli.main(['selftest']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bellpure.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 1
        assert "FAIL bxor-matrix-oracle" in proc.stdout


#: Matrix files, each a valid diagonal state but for one non-finite cell, and
#: the line every one of them must be rejected with.
_DIAG_TEXT = json.dumps([[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)])
NON_FINITE_FILES = {
    "nan_re.json": _DIAG_TEXT.replace("[0.25,", "[NaN,", 1),
    "inf_im.json": _DIAG_TEXT.replace("0.0]", "Infinity]", 1),
    "1e400.json": _DIAG_TEXT.replace("[0.0,", "[1e400,", 1),  # json reads 1e400 as inf
}
NON_FINITE_ERROR = "error: matrix has non-finite entries"

_MARGIN_ERROR = "error: delta and r_margin must lie in [0, 100]"
#: breed runs whose only fault is their size or a margin, each with its one
#: error line.
BREED_ARGUMENT_ERRORS = {
    ("breed", "--werner", "0.95", "--pairs", "21", "--trials", "1"):
        "error: n must be a whole number in [1, 20], got 21",
    ("breed", "--werner", "0.95", "--pairs", "4", "--delta", "-1"): _MARGIN_ERROR,
    ("breed", "--probs", "1", "0", "0", "0", "--pairs", "4", "--r-margin", "101"): _MARGIN_ERROR,
}

#: Commands that must run without importing numpy or dataclasses: the
#: closed-form map, the yield curves, the Werner twirl report (--out among
#: them), the argument errors caught before any array work (the f0 range
#: among them, which measures.recurrence_trajectory checks, and breed's size and
#: margins, which measures.check_breeding_args checks), a non-finite matrix
#: file, a usage error and --version. The startup test runs them in a directory
#: that holds NON_FINITE_FILES.
NUMPY_FREE_RUNS = [
    (["recurrence", "0.7", "--target", "0.99"], 0),
    (["recurrence", "0.7", "--steps", "3"], 0),
    (["curves"], 0),
    (["curves", "--points", "2", "--format", "json"], 0),
    *((["twirl", "--input", name], 2) for name in NON_FINITE_FILES),
    (["curves", "--points", "1"], 2),
    (["recurrence", "1.0", "--steps", "1"], 2),
    (["recurrence", "-0.1", "--steps", "1"], 2),
    (["recurrence", "0.7"], 2),
    (["twirl", "--werner", "1.5"], 2),
    (["twirl", "--werner", "0"], 0),
    (["twirl", "--werner", "0.93"], 0),
    (["twirl", "--werner", "1"], 0),
    (["twirl", "--werner", "-0.0"], 0),
    (["twirl", "--werner", "0.93", "--format", "json"], 0),
    (["twirl", "--werner", "0.5", "--out", "twirl.csv"], 0),
    (["curves", "--out", "missing/OUT"], 2),
    (["breed", "--werner", "1.5", "--pairs", "4"], 2),
    *((list(argv), 2) for argv in BREED_ARGUMENT_ERRORS),
    (["--version"], 0),
]

_STARTUP_SCRIPT = """
import contextlib, io, json, sys
import bellpure.measures
report = {"measures": "numpy" in sys.modules, "runs": []}
from bellpure import cli
report["dataclasses"] = "dataclasses" in sys.modules
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    report["runs"].append([code, "numpy" in sys.modules, "dataclasses" in sys.modules, errors])
print(json.dumps(report))
"""


_FOOTPRINT_SCRIPT = """
import importlib, sys
import numpy, numpy.random
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
from bellpure import bell, measures, protocols, twirl
protocols.recurrence_mc(0.8, 3 * 2**19, 2, 0)  # three draw pieces and six round pieces
twirl.sampled_twirl(bell.to_density(measures.werner(0.8)), 2 * twirl.TWIRL_PIECE + 1, 0)  # three pieces
print(*sorted(set(sys.modules) - before))
"""


class TestStartup:
    def test_closed_form_and_error_paths_never_import_numpy(self, tmp_path):
        for name, text in NON_FINITE_FILES.items():
            (tmp_path / name).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(Path(bellpure.__file__).parents[1]))
        argvs = json.dumps([argv for argv, _ in NUMPY_FREE_RUNS])
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, argvs],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["measures"] is False, "import bellpure.measures loaded numpy"
        assert report["dataclasses"] is False, "import bellpure.cli loaded dataclasses"
        assert [run[:3] for run in report["runs"]] == [[code, False, False] for _, code in NUMPY_FREE_RUNS]
        assert (tmp_path / "twirl.csv").read_text().endswith("\n0,0.5,0.5,0.0,"
                                                           + ",".join([repr(1 / 6)] * 3) + ",0.5\n")
        for (argv, code), (_, _, _, errors) in zip(NUMPY_FREE_RUNS, report["runs"]):
            assert len(errors) == (code == 2), (argv, errors)
            if argv[:2] == ["twirl", "--input"]:
                assert errors == [NON_FINITE_ERROR], argv
            if "--werner" in argv and "1.5" in argv:
                assert errors == ["error: fidelity 1.5 outside [0, 1]"], argv
            if tuple(argv) in BREED_ARGUMENT_ERRORS:
                assert errors == [BREED_ARGUMENT_ERRORS[tuple(argv)]], argv

    def test_kernels_load_no_module_beyond_the_known_ones(self):
        # after numpy, importing every bellpure module and running the threaded
        # kernels loads only these: a hand-off through concurrent.futures, say,
        # would also load logging in every process that runs a kernel
        names = sorted(f"bellpure.{p.stem}" for p in Path(bellpure.__file__).parent.glob("*.py"))
        env = dict(os.environ, PYTHONPATH=str(Path(bellpure.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT, *names],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert set(names) <= loaded
        known = {"argparse", "gettext", "__future__", "_json"}
        assert {m for m in loaded if m.split(".")[0] not in ("bellpure", "json") and m not in known} == set()

    def test_breed_never_imports_numpy_ma(self):
        # in numpy 2.4 a 1-D np.unique imports numpy.ma, about 15 ms of a fresh process
        env = dict(os.environ, PYTHONPATH=str(Path(bellpure.__file__).parents[1]))
        argv = ["breed", "--werner", "0.95", "--pairs", "8", "--trials", "40"]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "bellpure", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "numpy" in imported and "bellpure.protocols" in imported
        assert not {name for name in imported if name.split(".")[:2] == ["numpy", "ma"]}

    def test_lazy_exports_resolve(self):
        assert bellpure.BellLabel is BellLabel
        assert bellpure.werner is measures.werner
        assert set(bellpure.__all__) <= set(dir(bellpure))
        with pytest.raises(AttributeError):
            bellpure.MeasureParity


class TestParsing:
    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, ["--version"])
        assert code == 0

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 2

    def test_missing_required_group(self, capsys):
        code, _, _ = run(capsys, ["recurrence", "0.7"])
        assert code == 2


# --- the CLI boundary as a property -----------------------------------------

#: Strings every float flag draws from, beside hypothesis's own floats.
ODD_FLOATS = ["nan", "inf", "-inf", "-0.0", "-0.5", "0", "0.25", "0.5", "1", "1.5", "1e308", "abc", ""]
#: Values rejected before any run starts, by every command that reads a fidelity.
REJECTED_FIDELITIES = ["nan", "-0.5", "1.5", "inf", "-inf"]
#: (--f-min, --f-max) pairs that curves rejects before building its grid.
REJECTED_RANGES = [("nan", "0.9"), ("0.4", "0.9"), ("0.9", "0.6"), ("0.6", "1.0"), ("0.6", "inf")]

_DIAG = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]


def _with_cell(value, i=0, j=0, part=0):
    m = json.loads(json.dumps(_DIAG))
    m[i][j][part] = value
    return m


MATRIX_FILES = [
    json.dumps(_DIAG).encode(),
    json.dumps(_with_cell(0.5, 0, 1)).encode(),  # not Hermitian
    json.dumps(_with_cell(-0.25)).encode(),  # trace off
    json.dumps([[[1.5 if i == j == 0 else -0.5 if i == j == 1 else 0.0, 0.0] for j in range(4)] for i in range(4)]).encode(),
    json.dumps(_with_cell(float("nan"))).encode(),
    json.dumps(_with_cell(float("inf"), 1, 2, 1)).encode(),
    json.dumps(_with_cell(1e308)).encode(),
    json.dumps([[[1e308, 0.0]] * 4] * 4).encode(),  # Hermitian, with overflowing sums
    b'{"a": 1}',
    b'"text"',
    b"42",
    b"null",
    b"",
    b"[]",
    json.dumps([[[0.25, 0.0]] * 4] * 3 + [[[0.25, 0.0]] * 3]).encode(),  # ragged
    b"[" * 100_000,
    json.dumps([[["0.25", 0.0]] * 4] * 4).encode(),
    json.dumps([[[True, 0.0]] * 4] * 4).encode(),
    json.dumps([[[10**400, 0]] * 4] * 4).encode(),
    b" " * MAX_MATRIX_FILE_BYTES + b"[]",
    b"\xff\xfe[",
    b"[[[0.25, 0.0],",
]

_cell = st.floats(allow_nan=True, allow_infinity=True)
_drawn_matrix = st.lists(
    st.lists(st.tuples(_cell, _cell), min_size=4, max_size=4), min_size=4, max_size=4
).map(lambda m: json.dumps(m).encode())


@st.composite
def boundary_runs(draw):
    """(argv, input bytes or None) for any subcommand, with odd values in every
    flag. The placeholders INPUT and OUT stand for paths in a fresh directory.
    A size at its limit comes only with an input that its command rejects before
    the run starts, so that no drawn run is large."""
    floats = (
        st.sampled_from(ODD_FLOATS + ["0.5000001", "0.7", "0.95", "0.999999"])
        | st.floats(0.5, 1.0).map(repr)
        | st.floats().map(repr)
    )

    def size(name, *small):
        value = draw(st.sampled_from([-1, 0, *small, SIZE_LIMITS[name], SIZE_LIMITS[name] + 1]))
        return str(value), value == SIZE_LIMITS[name] and name != "steps"

    def fidelity(rejected):
        return draw(st.sampled_from(REJECTED_FIDELITIES) if rejected else floats)

    def seed():
        return ["--seed", str(draw(st.integers(2**64 - 2, 2**64 + 2) | st.sampled_from([-1, 0, 7, 2**63])))]

    command = draw(st.sampled_from(["recurrence", "breed", "curves", "twirl", "selftest", "none"]))
    data = None
    if command == "recurrence":
        mc, heavy = size("mc", 2, 3, 50, 3000)
        args = ["recurrence", fidelity(heavy)]
        if draw(st.booleans()):
            args += ["--target", draw(floats)]
        else:
            args += ["--steps", size("steps", 1, 3)[0]]
        if heavy or draw(st.booleans()):
            args += ["--mc", mc]
        args += seed()
    elif command == "breed":
        trials, heavy = size("trials", 1, 3)
        if heavy or draw(st.booleans()):
            args = ["breed", "--werner", fidelity(heavy)]
        else:
            valid = st.sampled_from([["0.7", "0.1", "0.1", "0.1"], ["1", "0", "0", "0"], ["0.25"] * 4])
            args = ["breed", "--probs", *draw(valid | st.lists(floats, min_size=4, max_size=4))]
        args += ["--pairs", str(draw(st.sampled_from([-1, 0, 1, 3, 8, 21])))]
        args += ["--trials", trials] + seed()
        margins = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.05", "2", "100", "100.5", "abc"])
        if draw(st.booleans()):
            args += ["--delta", draw(margins), "--r-margin", draw(margins)]
    elif command == "curves":
        points, heavy = size("points", 2, 3, 30)
        f_min, f_max = draw(st.sampled_from(REJECTED_RANGES)) if heavy else (draw(floats), draw(floats))
        args = ["curves", "--f-min", f_min, "--f-max", f_max, "--points", points]
    elif command == "twirl":
        samples, heavy = size("samples", 1, 2, 1000)
        if not heavy and draw(st.booleans()):
            args = ["twirl", "--input", "INPUT"]
            data = draw(st.sampled_from(MATRIX_FILES) | _drawn_matrix)
        else:
            args = ["twirl", "--werner", fidelity(heavy)]
        if heavy or draw(st.booleans()):
            args += ["--samples", samples]
        args += seed()
    elif command == "selftest":
        args = ["selftest"]
    else:
        args = draw(st.sampled_from([[], ["frobnicate"], ["--bogus"], ["-h"]]))
    if command not in ("selftest", "none"):
        args += draw(st.sampled_from([[], ["--format", "json"], ["--format", "xml"], ["--out", "OUT"],
                                      ["--out", "missing/OUT"]]))
    return args, data


class TestBoundaryProperty:
    @settings(max_examples=300, deadline=None)
    @given(boundary_runs())
    def test_exit_code_and_stderr_contract(self, run_spec):
        args, data = run_spec
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"INPUT": os.path.join(tmp, "in.json"), "OUT": os.path.join(tmp, "out.txt"),
                     "missing/OUT": os.path.join(tmp, "missing", "out.txt")}
            if data is not None:
                Path(paths["INPUT"]).write_bytes(data)
            argv = [paths.get(a, a) for a in args]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in ((0, 1) if args == ["selftest"] else (0, 2))
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
