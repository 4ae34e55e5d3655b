"""Command-line front end: rank, validate, export-plotdata.

Every subcommand is one pass: load the names config and the ratings CSV,
compute, render. Each method's report becomes one record, and every
output format renders the records. A record holds, in order: method;
consistency (lambda_max, n, ci, ri, cr and the consistent verdict, or
null for manual); mse_vs_manual; entries (rank, name, weight, raw_score).
``rank`` prints the records as a table (4 decimal places), JSON or CSV
(6 places); ``export-plotdata`` is ``rank --format csv`` with the columns
method, alternative, weight, rank; ``validate`` prints the AHP record's
consistency (6 places), computed as ``rank --method ahp`` computes it.

Exit codes: 0 success, 1 input or parse error (a missing, unreadable or
non-UTF-8 file, a malformed CSV, a ``--cr-threshold`` that is not a
positive finite number, a stdout pipe closed before the output was
written), 2 consistency-gate failure (CR above ``--cr-threshold``, which
only this module judges). Warnings and errors go to stderr, one line
each; data stays on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
import warnings
from typing import Sequence

from .dataset import _check_delimiter, load_reviews
from .errors import ConvergenceError, InputError
from .ranking import METHODS, RankingReport, compare_methods

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2

#: CSV columns of ``rank --format csv`` and of ``export-plotdata``.
_RANK_COLUMNS = ("method", "rank", "alternative", "weight", "raw_score")
_PLOT_COLUMNS = ("method", "alternative", "weight", "rank")


def load_names_config(path: str) -> dict[int, str]:
    """Parse `index=name` lines; blank lines and # comments are skipped."""
    mapping: dict[int, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            index_text, sep, name = line.partition("=")
            if not sep:
                raise InputError(f"{path}:{line_no}: expected 'index=name'")
            try:
                index = int(index_text.strip())
            except ValueError:
                raise InputError(
                    f"{path}:{line_no}: column index {index_text.strip()!r} "
                    "is not an integer"
                ) from None
            name = name.strip()
            if not name:
                raise InputError(f"{path}:{line_no}: empty name")
            mapping[index] = name
    return mapping


@contextlib.contextmanager
def _warnings_to_stderr():
    """Collect pipeline warnings and replay them on stderr, one line each."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _record(report: RankingReport, cr_threshold: float) -> dict:
    """The one record every output format renders, with unrounded values."""
    c = report.consistency
    return {
        "method": report.method,
        "consistency": None if c is None else {
            "lambda_max": c.lambda_max,
            "n": c.n,
            "ci": c.ci,
            "ri": c.ri,
            "cr": c.cr,
            "consistent": c.cr <= cr_threshold,
        },
        "mse_vs_manual": report.mse_vs_manual,
        "entries": [
            {"rank": e.rank, "name": e.name, "weight": e.weight, "raw_score": e.raw_score}
            for e in report.entries
        ],
    }


def _rounded(value):
    """``value`` with every float in it rounded to 6 places."""
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    # a bool is an int, not a float: round(True, 6) would print 1
    return round(value, 6) if isinstance(value, float) else value


def _format_table(record: dict) -> str:
    lines = [f"method: {record['method']}"]
    c = record["consistency"]
    if c is not None:
        lines.append(
            "consistency: lambda_max={lambda_max:.4f} CI={ci:.4f} RI={ri:.4f} "
            "CR={cr:.4f} [{verdict}]".format(
                verdict="PASS" if c["consistent"] else "FAIL", **c
            )
        )
    lines.append(f"mse_vs_manual: {record['mse_vs_manual']:.4f}")
    width = max(len("alternative"), *(len(e["name"]) for e in record["entries"]))
    lines.append(f"rank  {'alternative':<{width}}  weight  raw_score")
    row = "{rank:4d}  {name:<{width}}  {weight:.4f}  {raw_score:9.4f}"
    lines += (row.format(width=width, **e) for e in record["entries"])
    return "\n".join(lines)


def _write_csv(records: list[dict], columns: tuple[str, ...]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        for e in r["entries"]:
            cells = {**e, "method": r["method"], "alternative": e["name"]}
            writer.writerow(
                f"{cells[c]:.6f}" if isinstance(cells[c], float) else cells[c]
                for c in columns
            )


def _print_validation(c: dict, threshold: float) -> None:
    verdict = "PASS (CR <= {:g})" if c["consistent"] else "FAIL (CR > {:g})"
    print(f"n           {c['n']}")
    print(f"lambda_max  {c['lambda_max']:.6f}")
    print(f"CI          {c['ci']:.6f}")
    print(f"RI          {c['ri']:.6f}")
    print(f"CR          {c['cr']:.6f}")
    print("verdict     " + verdict.format(threshold))


def _run(args: argparse.Namespace) -> int:
    """Load the input, compute and render one subcommand; return its exit code."""
    methods = METHODS if args.method == "all" else (args.method.replace("-", "_"),)
    source = args.names_config  # the file being read, named if it is not UTF-8
    try:
        with _warnings_to_stderr():
            # load_reviews' own delimiter rule, before any file is opened
            _check_delimiter(args.delimiter)
            names = load_names_config(source) if source else None
            source = args.input
            with open(source, newline="", encoding="utf-8") as fh:
                data = load_reviews(fh, delimiter=args.delimiter, names=names)
            reports = compare_methods(data, methods=methods)
    except OSError as exc:
        # str(exc) names the offending file (input or names config)
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(
            f"error: cannot read input: {source}: not UTF-8 text ({exc.reason})",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except (InputError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    records = [_record(r, args.cr_threshold) for r in reports]
    # the ahp and fuzzy_ahp records share one consistency; manual has none
    consistency = next((r["consistency"] for r in records if r["consistency"]), None)
    try:
        if args.command == "validate":
            _print_validation(consistency, args.cr_threshold)
        elif args.format == "table":
            print("\n\n".join(_format_table(r) for r in records))
        elif args.format == "json":
            import json  # only this format needs it; the others skip the import

            payload = _rounded(records)
            print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
        else:
            _write_csv(records, args.columns)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader closed the pipe early. Point stdout at devnull so the
        # interpreter's flush at exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if consistency is None or consistency["consistent"]:
        return EXIT_OK
    if args.command != "validate":  # validate's verdict line already says it
        print(
            f"warning: consistency ratio {consistency['cr']:.6f} exceeds the threshold; "
            "results are flagged, not suppressed",
            file=sys.stderr,
        )
    return EXIT_INCONSISTENT


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors (exit 1); 2 is reserved for the CR gate.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tourrank",
        description="Rank alternatives from reviewer ratings using AHP, "
        "fuzzy-AHP, and a manual baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p_rank = sub.add_parser("rank", help="rank alternatives")
    p_val = sub.add_parser("validate", help="check pairwise-matrix consistency")
    p_plot = sub.add_parser(
        "export-plotdata", help="emit long-format CSV of weights and ranks"
    )

    for p in (p_rank, p_val, p_plot):
        # validate judges the AHP matrix alone, so it takes no method flags
        ranks = p is not p_val
        p.add_argument("--input", required=True, help="ratings CSV to process")
        if ranks:
            p.add_argument(
                "--method",
                choices=[m.replace("_", "-") for m in METHODS] + ["all"],
                default="all",
                help="which method(s) to run (default: all)",
            )
        p.add_argument(
            "--delimiter", default=",", help="field separator (default: ',')"
        )
        p.add_argument(
            "--cr-threshold",
            type=float,
            default=0.1,
            help="consistency-ratio gate (default: %(default)s)",
        )
        p.add_argument(
            "--names-config",
            default=None,
            help="file of 'index=name' lines renaming rating columns (1-based)",
        )

    p_rank.add_argument(
        "--format",
        choices=["table", "json", "csv"],
        default="table",
        help="output format (default: table)",
    )
    p_rank.set_defaults(columns=_RANK_COLUMNS)
    p_val.set_defaults(method="ahp")
    p_plot.set_defaults(format="csv", columns=_PLOT_COLUMNS)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.input:
        problem = "input path must be non-empty"
    elif args.cr_threshold <= 0:
        problem = "cr-threshold must be positive"
    elif not math.isfinite(args.cr_threshold):
        problem = "cr-threshold must be finite"
    else:
        return _run(args)
    print(f"error: {problem}", file=sys.stderr)
    return EXIT_INPUT
