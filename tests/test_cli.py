import contextlib
import csv
import gc
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tourrank
import tourrank.__main__
from tourrank.cli import main
from tourrank.ranking import MAX_ALTERNATIVES

#: the source tree of the tourrank under test, for fresh interpreters
SRC = pathlib.Path(tourrank.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **kwargs):
    """A fresh interpreter on ``args``, importing the tourrank under test."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


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

    def test_names_config_with_utf8_bom(self, capsys, two_equal_csv, tmp_path):
        # Notepad and Excel save "UTF-8" files with a leading byte-order mark
        cfg = tmp_path / "names.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf1=Alpha\n")
        code, out, err = run_cli(
            capsys,
            "rank", "--input", str(two_equal_csv),
            "--method", "manual", "--names-config", str(cfg),
        )
        assert (code, err) == (0, "")
        assert "Alpha" in out and "right" in out and "left" not in out

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

    def test_exact_fuzzy_weight_tie_breaks_by_raw_mean(self, capsys, tmp_path):
        # c2 (mean 2.75) and c6 (mean 1.15) have exactly equal fuzzy weights:
        # both extents' middle row sums are 13.5, the highest
        path = tmp_path / "tie.csv"
        path.write_text(
            "reviewer,c0,c1,c2,c3,c4,c5,c6,c7,c8,c9,c10\n"
            "r0,2.7,1.0,2.1,3.3,0.4,3.0,0.2,1.3,2.7,1.0,0.9\n"
            "r1,1.1,2.2,3.4,3.7,0.2,1.6,2.1,0.9,2.9,2.7,3.5\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys,
            "rank", "--input", str(path), "--method", "fuzzy-ahp", "--format", "json",
        )
        assert code == 0
        assert err == "warning: 3 ratio pair(s) clamped to [1/9, 9]\n"
        first, second = json.loads(out)["entries"][:2]
        assert (first["name"], second["name"]) == ("c2", "c6")
        assert first["weight"] == second["weight"]

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


@pytest.fixture()
def past_cap_csv(tmp_path):
    # one reviewer, so the file is small; the cap is checked before any
    # n x n matrix is built
    n = MAX_ALTERNATIVES + 1
    path = tmp_path / "past_cap.csv"
    path.write_text(
        "id," + ",".join(f"c{i}" for i in range(n)) + "\n"
        "r1," + ",".join(["1.5"] * n) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize(
    "argv",
    [["rank"], ["validate"], ["export-plotdata", "--method", "fuzzy-ahp"]],
    ids=["rank", "validate", "export-plotdata"],
)
def test_past_the_cap_is_one_error_line(capsys, past_cap_csv, argv):
    code, out, err = run_cli(capsys, *argv, "--input", str(past_cap_csv))
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {MAX_ALTERNATIVES + 1} alternatives exceed the cap of "
        f"{MAX_ALTERNATIVES} for the ahp and fuzzy_ahp methods\n"
    )


def test_manual_needs_no_cap(capsys, past_cap_csv):
    code, out, err = run_cli(
        capsys, "rank", "--input", str(past_cap_csv), "--method", "manual"
    )
    assert code == 0, err
    assert out.count("\n") == MAX_ALTERNATIVES + 4


@pytest.mark.parametrize(
    "flag",
    [
        "--normalize",
        "--no-normalize",
        "--score-mode=weight",
        "--score-mode=weight-times-mean",
        "--score-mode weight",
    ],
)
@pytest.mark.parametrize("command", ["rank", "validate", "export-plotdata"])
def test_normalize_flags_are_usage_errors(capsys, travel_csv_path, command, flag):
    # scores are always SAW-normalized and every method ranks by its own
    # weights; no flag switches either
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", str(travel_csv_path), *flag.split()])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: unrecognized arguments: {flag}"
    ]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    usage = capsys.readouterr().out
    for removed in ("--normalize", "--no-normalize", "--score-mode"):
        assert removed not in usage


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

    def test_all_zero_file_exits_1_like_rank(self, capsys, tmp_path):
        # validate computes through compare_methods, so no baseline means no report
        path = tmp_path / "zero.csv"
        path.write_text("id,a,b\nr1,0,0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: all scores are zero; no baseline exists"]
        assert run_cli(capsys, "rank", "--input", str(path)) == (code, out, err)

    @pytest.mark.parametrize("flag", [["--method", "ahp"], ["--score-mode", "weight"]])
    def test_method_flags_are_usage_errors(self, capsys, travel_csv_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", str(travel_csv_path), *flag])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_help_lists_no_method_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--help"])
        out = capsys.readouterr().out
        assert "--input" in out
        assert "--method" not in out and "--score-mode" not in out


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

    @pytest.mark.parametrize("removed_flag", ["--normalize", "--no-normalize"])
    @pytest.mark.parametrize("score_mode", ["weight", "weight-times-mean"])
    @pytest.mark.parametrize("method", ["ahp", "fuzzy-ahp", "manual", "all"])
    def test_rows_are_rank_csv_rows_reordered(
        self, capsys, travel_csv_path, method, score_mode, removed_flag
    ):
        flags = ("--input", str(travel_csv_path), "--method", method)
        # the former normalize and score-mode switches: the two commands
        # reject them alike, and without them their rows agree
        for removed in ([removed_flag], ["--score-mode", score_mode]):
            errors = []
            for command in (["rank", "--format", "csv"], ["export-plotdata"]):
                with pytest.raises(SystemExit) as exc:
                    main([*command, *flags, *removed])
                lines = capsys.readouterr().err.splitlines()
                errors.append(
                    (exc.value.code, [line for line in lines if line.startswith("error:")])
                )
            assert errors[0] == errors[1] == (
                1, [f"error: unrecognized arguments: {' '.join(removed)}"]
            )
        code, out, err = run_cli(capsys, "rank", "--format", "csv", *flags)
        plot_code, plot_out, plot_err = run_cli(capsys, "export-plotdata", *flags)
        assert (plot_code, plot_err) == (code, err)
        header, *rows = list(csv.reader(io.StringIO(plot_out)))
        assert header == ["method", "alternative", "weight", "rank"]
        ranked = csv.DictReader(io.StringIO(out))
        assert rows == [[r[column] for column in header] for r in ranked]


GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"

#: case -> (input fixture, argv before --input); each case has the files
#: <case>.out, <case>.err and <case>.code under GOLDEN_DIR, never
#: regenerated. The first six were written once from an earlier release,
#: the rest from commit ba98009, before the renderers shared one record.
GOLDEN = {
    "rank-all-table": ("travel_csv_path", ["rank", "--method", "all"]),
    "rank-all-json": ("travel_csv_path", ["rank", "--method", "all", "--format", "json"]),
    "rank-all-csv": ("travel_csv_path", ["rank", "--method", "all", "--format", "csv"]),
    "validate": ("travel_csv_path", ["validate"]),
    "export-plotdata": ("travel_csv_path", ["export-plotdata"]),
    "rank-inconsistent": ("inconsistent_csv", ["rank"]),
    "rank-manual-json": (
        "travel_csv_path", ["rank", "--method", "manual", "--format", "json"]
    ),
    "rank-fuzzy-json": (
        "travel_csv_path", ["rank", "--method", "fuzzy-ahp", "--format", "json"]
    ),
    "rank-manual-table": ("travel_csv_path", ["rank", "--method", "manual"]),
    "rank-fuzzy-csv": (
        "travel_csv_path", ["rank", "--method", "fuzzy-ahp", "--format", "csv"]
    ),
    "validate-inconsistent": ("inconsistent_csv", ["validate"]),
    "validate-inconsistent-pass": (
        "inconsistent_csv", ["validate", "--cr-threshold", "0.5"]
    ),
    "export-plotdata-inconsistent": ("inconsistent_csv", ["export-plotdata"]),
    "rank-all-json-inconsistent": (
        "inconsistent_csv", ["rank", "--method", "all", "--format", "json"]
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_output_matches_golden(capsys, request, case):
    fixture, argv = GOLDEN[case]
    path = request.getfixturevalue(fixture)
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    golden = GOLDEN_DIR / case
    assert out == golden.with_suffix(".out").read_text(encoding="utf-8")
    assert err == golden.with_suffix(".err").read_text(encoding="utf-8")
    assert code == int(golden.with_suffix(".code").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(GOLDEN))
def test_process_output_matches_golden(request, case):
    # the whole process a shell user runs: the process entry, gc.freeze
    # included, and the interpreter's exit
    fixture, argv = GOLDEN[case]
    path = request.getfixturevalue(fixture)
    proc = run_python(
        "-m", "tourrank", *argv, "--input", str(path),
        stdin=subprocess.DEVNULL,
        capture_output=True,
    )
    golden = GOLDEN_DIR / case
    assert proc.stdout == golden.with_suffix(".out").read_bytes()
    assert proc.stderr == golden.with_suffix(".err").read_bytes()
    assert proc.returncode == int(golden.with_suffix(".code").read_text())


def test_process_entry_freezes_then_runs_the_cli(monkeypatch):
    entry = tourrank.__main__
    calls = []
    monkeypatch.setattr(entry.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(entry.cli, "main", lambda: calls.append("main") or 7)
    assert entry.main() == 7
    assert calls == ["freeze", "main"]


def test_installed_script_is_the_process_entry():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n", 1)[0]
    assert scripts == 'tourrank = "tourrank.__main__:main"'


def test_in_process_main_freezes_nothing(capsys, travel_csv_path):
    # tests and the benchmark call main in-process; a freeze there would
    # keep their garbage for good
    before = gc.get_freeze_count()
    assert run_cli(capsys, "rank", "--input", str(travel_csv_path))[0] == 0
    assert gc.get_freeze_count() == before


def test_cli_import_adds_no_dataclasses_json_or_copy():
    # module sets, not timings: each of these costs every process import time
    # that numpy's import has not already paid
    proc = run_python(
        "-c",
        "import sys, numpy; before = set(sys.modules); import tourrank.cli; "
        "print(*sorted(set(sys.modules) - before))",
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "tourrank.cli" in added
    assert not added & {"dataclasses", "json", "copy"}


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


@pytest.mark.parametrize("command", ["rank", "validate", "export-plotdata"])
@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_bad_delimiter_is_reported_before_any_file_is_opened(
    capsys, tmp_path, command, delimiter
):
    missing = str(tmp_path / "missing")
    for files in (["--input", missing], ["--input", missing, "--names-config", missing]):
        argv = [command, *files, f"--delimiter={delimiter}"]
        assert run_cli(capsys, *argv) == (
            1, "", "error: delimiter must be a single character\n"
        )


_CONTROL = (
    "error: alternative names must not hold control characters or line separators\n"
)

#: case -> (input text, names-config text or None, the whole of stderr)
BAD_NAMES = {
    "repeated-header": (
        "id,a,a\nr1,1,2\n", None, "error: alternative names must be unique\n"
    ),
    "config-repeats-a-name": (
        "id,a,b\nr1,1,2\n", "1=x\n2=x\n", "error: alternative names must be unique\n"
    ),
    "blank-header": (
        "id,a,\nr1,1,2\n", None, "error: alternative names must be non-empty\n"
    ),
    # unchecked, the quoted newline would print a forged table row,
    # "FAKE  1.0000 ...", and the escape sequence would reach the terminal
    "header-forges-a-row": (
        'id,"a\nFAKE  1.0000",b,"c\x1b[31mred"\nr1,1,2,3\n', None, _CONTROL
    ),
    "config-holds-escape": ("id,a,b\nr1,1,2\n", "1=a\x1b[31mred\n", _CONTROL),
    "config-holds-line-separator": ("id,a,b\nr1,1,2\n", "2=b\u2028c\n", _CONTROL),
}


@pytest.mark.parametrize("case", list(BAD_NAMES))
@pytest.mark.parametrize("command", ["rank", "validate", "export-plotdata"])
def test_bad_names_are_one_error_line(capsys, tmp_path, command, case):
    text, names, error = BAD_NAMES[case]
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(path)]
    if names is not None:
        cfg = tmp_path / "names.cfg"
        cfg.write_text(names, encoding="utf-8")
        argv += ["--names-config", str(cfg)]
    assert run_cli(capsys, *argv) == (1, "", error)


_CLAMP = "warning: 3 ratio pair(s) clamped to [1/9, 9]\n"
_GATE = (
    "warning: consistency ratio 0.406392 exceeds the threshold; "
    "results are flagged, not suppressed\n"
)

#: case -> (argv before --input, exit code, text stdout must hold, whole stderr)
VERDICTS = {
    "rank-table": (["rank", "--method", "ahp"], 2, "CR=0.4064 [FAIL]", _CLAMP + _GATE),
    "rank-json": (
        ["rank", "--method", "ahp", "--format", "json"], 2,
        '"consistent": false', _CLAMP + _GATE,
    ),
    "validate": (["validate"], 2, "verdict     FAIL (CR > 0.1)\n", _CLAMP),
    "rank-table-0.5": (
        ["rank", "--method", "ahp", "--cr-threshold", "0.5"], 0,
        "CR=0.4064 [PASS]", _CLAMP,
    ),
    "rank-json-0.5": (
        ["rank", "--format", "json", "--cr-threshold", "0.5"], 0,
        '"consistent": true', _CLAMP,
    ),
    "export-plotdata-0.5": (
        ["export-plotdata", "--cr-threshold", "0.5"], 0, "fuzzy_ahp,W,", _CLAMP
    ),
    "validate-0.5": (
        ["validate", "--cr-threshold", "0.5"], 0, "verdict     PASS (CR <= 0.5)\n",
        _CLAMP,
    ),
    "rank-manual": (["rank", "--method", "manual"], 0, "method: manual", ""),
}


@pytest.mark.parametrize("case", list(VERDICTS))
def test_gate_verdict_follows_the_threshold(capsys, inconsistent_csv, case):
    # the 4x4 file's CR is 0.4064: over the default 0.1, under 0.5
    argv, code, shown, err = VERDICTS[case]
    got_code, out, got_err = run_cli(capsys, *argv, "--input", str(inconsistent_csv))
    assert (got_code, got_err) == (code, err)
    assert shown in out


def test_bad_cell_is_reported_before_a_later_bad_byte(capsys, tmp_path):
    # reading stops at the bad cell, before the decoder reaches the byte
    body = b"".join(b"r%d,1,2,3\n" % i for i in range(2, 10_000))
    assert len(body) > 64 * 1024
    path = tmp_path / "input.csv"
    path.write_bytes(b"id,a,b,c\nr1,x,2,3\n" + body + b"r0,\xff,1,1\n")
    code, out, err = run_cli(capsys, "rank", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == "error: row 2, column 2: not a number: 'x'\n"


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
    try:
        proc = run_python(
            "-m", "tourrank", *argv, "--input", str(travel_csv_path),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


#: cells that reach every branch of the parser: out of range, non-finite,
#: float()-only, quoted, empty, and not numbers at all
FUZZ_CELLS = [
    " 2 ", "4.01", "-1", "nan", "inf", "Infinity", "1_0", "\u0661", "",
    '"3"', '"1\n2"', "x", "#", "\x00", "1e400",
]
FUZZ_RATINGS = ["0", "0.5", "1", "2.25", "3", "4"]
FUZZ_DELIMITERS = [
    ",", ";", '"', " ", "\t", ".", "0", "\x00", "\u00e9", "\n", "\r", "-",
]
FUZZ_FLAGS = {
    "rank": [
        "--format=table", "--format=json", "--format=csv", "--method=ahp",
        "--method=fuzzy-ahp", "--method=manual", "--method=all",
    ],
    "validate": ["--method=ahp"],
    "export-plotdata": ["--method=manual"],
}
COMMON_FLAGS = [
    "--no-normalize", "--normalize", "--score-mode=weight",
    "--score-mode=weight-times-mean", "--cr-threshold=0.5", "--cr-threshold=1e-9",
    "--cr-threshold=0", "--cr-threshold=x",
]


@st.composite
def csv_bytes(draw, delimiter):
    """Rows of ratings, often with bad cells and ragged rows, or arbitrary bytes."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=120))
    width = draw(st.integers(2, 6))
    cell = st.sampled_from(FUZZ_RATINGS)
    if draw(st.booleans()):
        cell |= st.sampled_from(FUZZ_CELLS) | st.text(max_size=3)
    row = st.lists(cell, min_size=width, max_size=width)
    if draw(st.booleans()):
        row |= st.lists(cell, max_size=6)
    rows = draw(st.lists(row, max_size=6))
    # a header cell may hold anything a rating cell may: quotes, newlines, NUL
    hostile = st.sampled_from(FUZZ_RATINGS + FUZZ_CELLS) | st.text(max_size=3)
    header = [draw(st.just(f"c{i}") | hostile) for i in range(width)]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "".join(delimiter.join(r) + end for r in [header, *rows])
    tail = draw(st.binary(max_size=2)) if draw(st.integers(0, 7)) == 0 else b""
    return text.encode("utf-8", "surrogatepass") + tail


@st.composite
def cli_cases(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    delimiter = draw(
        st.sampled_from(FUZZ_DELIMITERS) | st.characters() | st.text(max_size=2)
    )
    flag = st.sampled_from(FUZZ_FLAGS[command] + COMMON_FLAGS)
    flags = draw(st.lists(flag, max_size=2))
    names = draw(st.sampled_from([None, None, None, b"1=A\n", b"9=Z", b"x", b"\xff"]))
    return command, delimiter, flags, draw(csv_bytes(delimiter)), names


@given(cli_cases())
@example(  # unchecked, this header would print a forged row "FAKE  1.0000 ..."
    ("rank", ",", ["--method=manual"], b'id,"a\nFAKE  1.0000",b,c\nr1,1,2,3\n', None)
)
@settings(max_examples=300, deadline=None)
def test_no_input_escapes_the_exit_codes(case):
    # the CLI contract: every input ends in exit 0, 1 or 2 with no traceback;
    # exit 1 prints one error line on stderr and nothing on stdout
    command, delimiter, flags, data, names = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "input.csv")
        path.write_bytes(data)
        argv = [command, "--input", str(path), f"--delimiter={delimiter}", *flags]
        if names is not None:
            pathlib.Path(tmp, "names.cfg").write_bytes(names)
            argv.append(f"--names-config={tmp}/names.cfg")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors
                code = exc.code
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2)
    assert len(errors) == (code == 1)
    if code == 1:
        assert out.getvalue() == ""
    formats = [f for f in flags if f.startswith("--format=")] or ["--format=table"]
    if code != 1 and command == "rank" and formats[-1] == "--format=table":
        # a name cannot add a line: each table is its header lines, then
        # one line per rating column of the file
        text = io.StringIO(data.decode("utf-8"), newline="")
        n = len(next(csv.reader(text, delimiter=delimiter))) - 1
        for table in out.getvalue().rstrip("\n").split("\n\n"):
            lines = table.split("\n")
            assert lines[-n - 1].startswith("rank  alternative"), table
