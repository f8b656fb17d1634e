import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellpure
from bellpure import bell, measures
from bellpure.bell import BellLabel
from bellpure.cli import SIZE_LIMITS, main

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

    def test_target_already_met_gives_trivial_trace(self, capsys):
        code, out, _ = run(capsys, ["recurrence", "0.99", "--target", "0.95"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["cumulative_yield"]) == 1.0

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

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code, out, _ = run(capsys, ["recurrence", "0.7", "--steps", "1", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert "# bellpure" in path.read_text()


class TestGoldenOutputs:
    """Seeded Monte Carlo and breeding emissions, pinned byte for byte."""

    @pytest.mark.parametrize(
        "args, golden",
        [
            (["breed", "--werner", "0.95", "--pairs", "12", "--trials", "20", "--seed", "7"], "breed_golden.csv"),
            (["recurrence", "0.8", "--steps", "3", "--mc", "20000", "--seed", "11"], "recurrence_mc_golden.csv"),
            (["breed", "--werner", "0.95", "--pairs", "20", "--trials", "10", "--seed", "3"], "breed_n20_golden.csv"),
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


class TestTwirlCommand:
    def test_werner_input_reports_invariance(self, capsys):
        code, out, _ = run(capsys, ["twirl", "--werner", "0.25"])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["trace_distance_to_werner"]) <= 1e-12
        assert abs(float(rows[0]["werner_psi_minus"]) - 0.25) <= 1e-12

    def test_matrix_file_input(self, tmp_path, capsys):
        v = bell.label_projector(BellLabel.PSI_MINUS).mat
        data = [[[float(v[i, j].real), float(v[i, j].imag)] for j in range(4)] for i in range(4)]
        path = tmp_path / "singlet.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["twirl", "--input", str(path)])
        assert code == 0
        _, _, rows = parse_csv(out)
        assert abs(float(rows[0]["fidelity_in"]) - 1.0) <= 1e-12
        assert abs(float(rows[0]["werner_psi_minus"]) - 1.0) <= 1e-12

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


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "self-test passed" in out

    def test_corrupted_bxor_table_fails(self, capsys, monkeypatch):
        broken = dict(bell.BXOR_TABLE)
        broken[(BellLabel.PHI_PLUS, BellLabel.PHI_PLUS)] = (BellLabel.PSI_MINUS, BellLabel.PHI_PLUS)
        monkeypatch.setattr(bell, "BXOR_TABLE", broken)
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert "FAIL" in out

    def test_corrupted_bxor_rule_fails(self, capsys, monkeypatch):
        # drop the sign kick-back into the source: still a bijection
        monkeypatch.setattr(bell, "bxor", lambda s, t: (s, t ^ (s & 2)))
        code, out, _ = run(capsys, ["selftest"])
        assert code == 1
        assert "FAIL bxor-matrix-oracle" in out
        assert "ok   bxor-table-bijection" in out

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
