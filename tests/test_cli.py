import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tourrank
from tourrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def two_equal_csv(tmp_path):
    path = tmp_path / "two_equal.csv"
    path.write_text("id,left,right\nr1,2.0,2.0\nr2,1.0,1.0\n", encoding="utf-8")
    return path


@pytest.fixture()
def bad_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,a,b\nr1,1.0,oops\n", encoding="utf-8")
    return path


class TestRankCommand:
    def test_table_on_travel_fixture(self, capsys, travel_csv_path):
        code, out, err = run_cli(
            capsys, "rank", "--input", str(travel_csv_path), "--method", "all"
        )
        assert code == 0
        assert err == ""
        for method in ("ahp", "fuzzy_ahp", "manual"):
            assert f"method: {method}" in out
        # rank 1 is Parks for every method
        for line in out.splitlines():
            if line.lstrip().startswith("1 "):
                assert "Parks/Picnic Spots" in line

    def test_manual_on_equal_columns(self, capsys, two_equal_csv):
        code, out, _ = run_cli(
            capsys, "rank", "--input", str(two_equal_csv), "--method", "manual"
        )
        assert code == 0
        lines = out.splitlines()
        first = next(l for l in lines if l.lstrip().startswith("1 "))
        second = next(l for l in lines if l.lstrip().startswith("2 "))
        assert "left" in first and "0.5000" in first
        assert "right" in second

    def test_bad_cell_names_location(self, capsys, bad_csv):
        code, out, err = run_cli(capsys, "rank", "--input", str(bad_csv))
        assert code == 1
        assert out == ""
        assert "row 2, column 3" in err

    def test_missing_file_names_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        code, out, err = run_cli(capsys, "rank", "--input", str(missing))
        assert code == 1
        assert str(missing) in err

    def test_inconsistent_fixture_flagged_exit_2(self, capsys, inconsistent_csv):
        code, out, err = run_cli(
            capsys, "rank", "--input", str(inconsistent_csv), "--method", "ahp"
        )
        assert code == 2
        assert "method: ahp" in out  # report printed, not suppressed
        assert "[FAIL]" in out
        assert "warning" in err.lower()

    def test_json_round_trip(self, capsys, travel_csv_path):
        code, out, _ = run_cli(
            capsys,
            "rank", "--input", str(travel_csv_path),
            "--method", "fuzzy-ahp", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "fuzzy_ahp"
        assert payload["consistency"]["consistent"] is True
        assert payload["mse_vs_manual"] <= 5e-3
        weights = [e["weight"] for e in payload["entries"]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-4)
        ranks = sorted(e["rank"] for e in payload["entries"])
        assert ranks == list(range(1, 11))

    def test_json_matches_table_weights(self, capsys, travel_csv_path):
        code, json_out, _ = run_cli(
            capsys,
            "rank", "--input", str(travel_csv_path),
            "--method", "manual", "--format", "json",
        )
        code2, table_out, _ = run_cli(
            capsys,
            "rank", "--input", str(travel_csv_path),
            "--method", "manual", "--format", "table",
        )
        assert code == code2 == 0
        by_name = {e["name"]: e["weight"] for e in json.loads(json_out)["entries"]}
        for line in table_out.splitlines():
            parts = line.split("  ")
            if line.lstrip() and line.lstrip()[0].isdigit():
                name = parts[1].strip() if len(parts) > 1 else None
                fields = [p for p in line.split() if p]
                table_weight = float(fields[-2])
                entry_name = " ".join(fields[1:-2])
                assert by_name[entry_name] == pytest.approx(table_weight, abs=1e-4)

    def test_csv_format(self, capsys, travel_csv_path):
        code, out, _ = run_cli(
            capsys,
            "rank", "--input", str(travel_csv_path), "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "rank", "alternative", "weight", "raw_score"]
        assert len(rows) == 1 + 30

    def test_byte_identical_reruns(self, capsys, travel_csv_path):
        args = ("rank", "--input", str(travel_csv_path), "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_cr_threshold_override(self, capsys, inconsistent_csv):
        code, _, _ = run_cli(
            capsys,
            "rank", "--input", str(inconsistent_csv), "--cr-threshold", "0.5",
        )
        assert code == 0

    def test_warnings_go_to_stderr_not_stdout(self, capsys, tmp_path):
        path = tmp_path / "zero_col.csv"
        path.write_text("id,a,b\nr1,0.0,2.0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "rank", "--input", str(path))
        assert code == 0
        assert "warning" in err
        assert "warning" not in out

    def test_missing_names_config_names_its_path(self, capsys, two_equal_csv, tmp_path):
        missing = tmp_path / "no_names.cfg"
        code, _, err = run_cli(
            capsys,
            "rank", "--input", str(two_equal_csv), "--names-config", str(missing),
        )
        assert code == 1
        assert str(missing) in err

    def test_names_config_override(self, capsys, two_equal_csv, tmp_path):
        cfg = tmp_path / "names.cfg"
        cfg.write_text("# rating columns, 1-based\n1=Alpha\n2=Beta\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "rank", "--input", str(two_equal_csv),
            "--method", "manual", "--names-config", str(cfg),
        )
        assert code == 0
        assert "Alpha" in out and "Beta" in out

    def test_semicolon_delimiter(self, capsys, tmp_path):
        path = tmp_path / "semi.csv"
        path.write_text("id;a;b\nr1;1.0;3.0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "rank", "--input", str(path), "--method", "manual", "--delimiter", ";",
        )
        assert code == 0
        assert "0.7500" in out

    def test_sixteen_rating_columns_rank(self, capsys, tmp_path):
        # past Saaty's table: the random index comes from the linear fit
        ratings = [f"{0.4 + 0.2 * i:.1f}" for i in range(16)]
        path = tmp_path / "wide.csv"
        path.write_text(
            "id," + ",".join(f"c{i}" for i in range(16)) + "\n"
            "r1," + ",".join(ratings) + "\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "rank", "--input", str(path), "--method", "all")
        assert code == 0, err
        assert err == ""
        assert out.count("c15") == 3

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
    def test_invalid_cr_threshold(self, capsys, two_equal_csv, value):
        # the "=" form keeps argparse from taking "-inf" for an option
        code, _, err = run_cli(
            capsys,
            "rank", "--input", str(two_equal_csv), f"--cr-threshold={value}",
        )
        assert code == 1
        assert "cr-threshold" in err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank"])  # --input missing
        assert exc.value.code == 1


class TestValidateCommand:
    def test_consistent_data_exit_0(self, capsys, travel_csv_path):
        code, out, _ = run_cli(capsys, "validate", "--input", str(travel_csv_path))
        assert code == 0
        assert "lambda_max" in out and "CR" in out
        assert "PASS" in out

    def test_inconsistent_fixture_exit_2(self, capsys, inconsistent_csv):
        code, out, err = run_cli(capsys, "validate", "--input", str(inconsistent_csv))
        assert code == 2
        assert "FAIL" in out

    def test_threshold_override_passes(self, capsys, inconsistent_csv):
        code, out, _ = run_cli(
            capsys,
            "validate", "--input", str(inconsistent_csv), "--cr-threshold", "0.5",
        )
        assert code == 0
        assert "PASS" in out

    def test_reports_expected_diagnostics(self, capsys, travel_csv_path):
        _, out, _ = run_cli(capsys, "validate", "--input", str(travel_csv_path))
        values = dict(
            line.split(None, 1) for line in out.splitlines() if " " in line
        )
        assert float(values["lambda_max"]) == pytest.approx(10.0, abs=1e-6)
        assert float(values["CI"]) == pytest.approx(0.0, abs=1e-9)
        assert float(values["RI"]) == 1.49
        assert float(values["CR"]) == pytest.approx(0.0, abs=1e-9)

    def test_all_zero_file_passes_with_both_warnings(self, capsys, tmp_path):
        # rank rejects this file (no manual baseline exists); validate does not
        path = tmp_path / "zero.csv"
        path.write_text("id,a,b\nr1,0,0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 0
        assert "PASS" in out
        assert err.splitlines() == [
            "warning: all-zero column(s) 0 normalized to zeros",
            "warning: 2 score(s) below 1e-06 floored before ratio construction",
        ]


class TestExportPlotdata:
    def test_all_methods_row_count(self, capsys, travel_csv_path):
        code, out, _ = run_cli(
            capsys, "export-plotdata", "--input", str(travel_csv_path)
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "alternative", "weight", "rank"]
        assert len(rows) == 1 + 30

    def test_rows_ordered_by_method_then_rank(self, capsys, travel_csv_path):
        _, out, _ = run_cli(capsys, "export-plotdata", "--input", str(travel_csv_path))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        keys = [(r[0], int(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_single_method_row_count(self, capsys, travel_csv_path):
        code, out, _ = run_cli(
            capsys,
            "export-plotdata", "--input", str(travel_csv_path), "--method", "manual",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 10

    def test_empty_after_header_exit_1(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,a,b\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "export-plotdata", "--input", str(path))
        assert code == 1
        assert "no data rows" in err

    @pytest.mark.parametrize("normalize", ["--normalize", "--no-normalize"])
    @pytest.mark.parametrize("score_mode", ["weight", "weight-times-mean"])
    @pytest.mark.parametrize("method", ["ahp", "fuzzy-ahp", "manual", "all"])
    def test_rows_are_rank_csv_rows_reordered(
        self, capsys, travel_csv_path, method, score_mode, normalize
    ):
        flags = (
            "--input", str(travel_csv_path),
            "--method", method, "--score-mode", score_mode, normalize,
        )
        code, out, err = run_cli(capsys, "rank", "--format", "csv", *flags)
        plot_code, plot_out, plot_err = run_cli(capsys, "export-plotdata", *flags)
        assert (plot_code, plot_err) == (code, err)
        header, *rows = list(csv.reader(io.StringIO(plot_out)))
        assert header == ["method", "alternative", "weight", "rank"]
        ranked = csv.DictReader(io.StringIO(out))
        assert rows == [[r[column] for column in header] for r in ranked]


#: case -> (input bytes, names-config bytes or None, text the error must name)
UNREADABLE = {
    "input-not-utf8": (b"id,a,b\nr1,\xff,1\n", None, "input.csv"),
    "names-not-utf8": (b"id,a,b\nr1,1,2\n", b"1=caf\xe9\n", "names.cfg"),
    "oversized-field": (b"id,a,b\nr1," + b"1" * 200_000 + b",1\n", None, "row 2"),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
@pytest.mark.parametrize("command", ["rank", "validate", "export-plotdata"])
def test_unreadable_input_is_one_error_line(capsys, tmp_path, command, case):
    data, names, named = UNREADABLE[case]
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    argv = [command, "--input", str(path)]
    if names is not None:
        cfg = tmp_path / "names.cfg"
        cfg.write_bytes(names)
        argv += ["--names-config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--format", "table"],
        ["rank", "--format", "json"],
        ["rank", "--format", "csv"],
        ["validate"],
        ["export-plotdata"],
    ],
)
def test_closed_stdout_pipe_is_one_error_line(travel_csv_path, argv):
    # stdout is a pipe whose reader is gone before anything is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = pathlib.Path(tourrank.__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tourrank", *argv, "--input", str(travel_csv_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
