"""Correctness checks that do not rely on the code under test.

Expected values come from the benchmark's own numpy: the exact column means
of each generated input, or of the bundled fixture. Each check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

METHODS = {"ahp", "fuzzy_ahp", "manual"}

#: Names the CLI contract gives a file with exactly ten "Category N" headers.
CANONICAL = (
    "Art Galleries",
    "Dance Clubs",
    "Juice Bars",
    "Restaurants",
    "Museums",
    "Resorts",
    "Parks/Picnic Spots",
    "Beaches",
    "Theaters",
    "Religious Institutions",
)

_ERROR_AT = re.compile(r"^row (\d+), column (\d+):")
_TABLE_ROW = re.compile(r"^\s*\d+  (.+?)\s{2,}(\d\.\d{4})\s+\S+$")


def category_names(n: int) -> list[str]:
    return list(CANONICAL) if n == len(CANONICAL) else [f"Category {j + 1}" for j in range(n)]


def expected(means: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Manual weights and the manual order (stable descending sort of the means)."""
    names = category_names(means.shape[0])
    order = np.argsort(-means, kind="stable")
    return means / means.sum(), [names[i] for i in order]


def _weights(entries, names: list[str]) -> np.ndarray:
    by_name = {name: float(weight) for name, weight in entries}
    if sorted(by_name) != sorted(names):
        raise ValueError(f"entries name {sorted(by_name)}, expected {sorted(names)}")
    return np.array([by_name[name] for name in names])


def check_weights(means, reports: dict, *, tol_manual: float, tol_ahp: float,
                  tol_cr: float, tol_sum: float) -> str | None:
    """Judge the three methods' weights against the means.

    ``reports`` maps method -> (entries as (name, weight) in rank order, CR).
    """
    if set(reports) != METHODS:
        return f"methods {sorted(reports)}, expected {sorted(METHODS)}"
    manual_w, manual_order = expected(means)
    names = category_names(means.shape[0])
    entries, _ = reports["manual"]
    if [name for name, _ in entries] != manual_order:
        return f"manual order {[name for name, _ in entries]}, expected {manual_order}"
    try:
        weights = {m: _weights(reports[m][0], names) for m in METHODS}
    except ValueError as exc:
        return str(exc)
    err = np.max(np.abs(weights["manual"] - manual_w))
    if err > tol_manual:
        return f"manual weights off by {err:.3g}"
    err = np.max(np.abs(weights["ahp"] - manual_w))
    if err > tol_ahp:
        return f"ahp weights off manual by {err:.3g}"
    cr = reports["ahp"][1]
    if cr is None or abs(cr) > tol_cr:
        return f"ahp CR {cr!r} on an unclamped, rank-1 matrix"
    fuzzy = weights["fuzzy_ahp"]
    if fuzzy.min() < 0 or abs(fuzzy.sum() - 1) > tol_sum:
        return f"fuzzy weights {fuzzy} not a distribution"
    return None


def check_result(case, result) -> str | None:
    """Judge one in-process operation: reports for a valid file, the error for a bad one."""
    if case.bad is not None:
        kind, row, column = case.bad
        if not isinstance(result, Exception):
            return f"expected {kind} at row {row}, column {column}; nothing raised"
        found = _ERROR_AT.match(str(result))
        where = (int(found[1]), int(found[2])) if found else None
        if type(result).__name__ != kind or where != (row, column):
            return f"expected {kind} at {(row, column)}, got {type(result).__name__}: {result}"
        return None
    if isinstance(result, Exception):
        return f"unexpected {type(result).__name__}: {result}"
    reports = {
        r.method: (
            [(e.name, e.weight) for e in r.entries],
            None if r.consistency is None else r.consistency.cr,
        )
        for r in result
    }
    return check_weights(case.means, reports, tol_manual=1e-12, tol_ahp=1e-9,
                         tol_cr=1e-9, tol_sum=1e-9)


def fixture_ratings(path: Path) -> np.ndarray:
    """The bundled fixture's (reviewers, categories) ratings, read with numpy alone."""
    return np.loadtxt(path, delimiter=",", skiprows=1,
                      usecols=range(1, 1 + len(CANONICAL)))


# Printed weights are rounded (4 decimals in tables, 6 in JSON and CSV), so
# the tolerances are half a unit of the last printed digit.
def _printed(means, reports, tol):
    return check_weights(means, reports, tol_manual=tol, tol_ahp=2 * tol,
                         tol_cr=tol, tol_sum=means.shape[0] * tol)


def check_cli(command: str, means: np.ndarray, code: int, stdout: str,
              stderr: str) -> str | None:
    """Judge one CLI run on a file with the given column means.

    ``command`` is one of rank, rank-json, validate, export-plotdata, or
    clamped (rank on a clamped 4 x 4 file, which must exit 2).
    """
    if command == "clamped":
        return None if code == 2 else f"clamped file exited {code}, expected 2"
    if code != 0:
        return f"{command} exited {code}: {stderr.strip()[:200]}"
    if stderr:
        return f"{command} wrote to stderr: {stderr.strip()[:200]}"
    return _CLI_CHECKS[command](means, stdout)


def _rank(means, stdout: str) -> str | None:
    reports = {}
    for block in stdout.strip().split("\n\n"):
        lines = block.splitlines()
        method = lines[0].removeprefix("method: ")
        cr = re.search(r"CR=(-?[\d.]+)", block)
        rows = [_TABLE_ROW.match(line) for line in lines]
        reports[method] = (
            [(m[1], float(m[2])) for m in rows if m],
            float(cr[1]) if cr else None,
        )
    return _printed(means, reports, 5.001e-5)


def _rank_json(means, stdout: str) -> str | None:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"rank --format json printed no JSON: {exc}"
    reports = {
        r["method"]: (
            [(e["name"], e["weight"]) for e in r["entries"]],
            None if r["consistency"] is None else r["consistency"]["cr"],
        )
        for r in payload
    }
    return _printed(means, reports, 5.001e-7)


def _validate(means, stdout: str) -> str | None:
    fields = dict(line.split(None, 1) for line in stdout.splitlines() if line.strip())
    n = str(means.shape[0])
    if fields.get("n") != n or not fields.get("verdict", "").startswith("PASS"):
        return f"validate printed {fields}"
    if abs(float(fields["CR"])) > 5.001e-7:
        return f"validate CR {fields['CR']} on a rank-1 matrix"
    return None


def _export_plotdata(means, stdout: str) -> str | None:
    lines = stdout.splitlines()
    rows = 1 + len(METHODS) * means.shape[0]
    if lines[:1] != ["method,alternative,weight,rank"] or len(lines) != rows:
        return f"export-plotdata printed {len(lines)} lines, expected {rows}"
    manual = [line.split(",")[1] for line in lines[1:] if line.startswith("manual,")]
    _, order = expected(means)
    return None if manual == order else f"export-plotdata manual order {manual}"


_CLI_CHECKS = {
    "rank": _rank,
    "rank-json": _rank_json,
    "validate": _validate,
    "export-plotdata": _export_plotdata,
}
