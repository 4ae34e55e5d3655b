"""Tests of the benchmark itself: inputs, oracle, tracer and output contract.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_same_seed_same_bytes(workload):
    for index in (0, 1):
        a = gen.case(workload, 7, index)
        b = gen.case(workload, 7, index)
        assert a.text == b.text and a.bad == b.bad
        assert np.array_equal(a.means, b.means)
    assert gen.case(workload, 7, 0).text != gen.case(workload, 8, 0).text
    assert gen.case(workload, 7, 0).text != gen.case(workload, 7, 1).text
    assert gen.clamped_text(7, 3) == gen.clamped_text(7, 3)


@pytest.mark.parametrize("workload", ["wide", "tall"])
def test_realised_means_stay_in_the_unclamped_band(workload):
    for index in range(20 if workload == "wide" else 2):
        case = gen.case(workload, 11, index)
        ratings = np.loadtxt(io.StringIO(case.text), delimiter=",", skiprows=1,
                             usecols=range(1, 1 + case.categories))
        assert ratings.shape == (case.reviewers, case.categories)
        assert ratings.min() >= 0 and ratings.max() <= 4
        assert np.allclose(ratings.mean(axis=0), case.means, rtol=0, atol=1e-12)
        assert case.means.max() / case.means.min() < 9
        assert np.unique(case.means).size == case.categories


def test_reject_files_carry_one_bad_cell_in_the_last_row():
    for index in range(6):
        case = gen.case("reject", 5, index)
        kind, row, column = case.bad
        assert kind == ("ParseError" if index % 2 == 0 else "RatingRangeError")
        assert row == case.reviewers + 1 and 2 <= column <= case.categories + 1
        valid = gen.case("reject", 5, index, corrupt=False)
        changed = [i for i, (a, b) in enumerate(zip(case.text.splitlines(),
                                                    valid.text.splitlines())) if a != b]
        assert changed == [case.reviewers]


def test_oracle_accepts_the_program_on_every_in_process_workload():
    for workload in gen.SHAPES:
        case = gen.case(workload, 3, 1)
        result = worker._guarded(lambda c: worker.compute(c.text), case)
        assert oracle.check_result(case, result) is None


def _reports(case):
    return [
        SimpleNamespace(
            method=r.method,
            entries=[SimpleNamespace(name=e.name, weight=e.weight) for e in r.entries],
            consistency=r.consistency,
        )
        for r in worker.compute(case.text)
    ]


@pytest.mark.parametrize("method", ["manual", "ahp", "fuzzy_ahp"])
def test_oracle_counts_a_perturbed_weight_vector(method):
    case = gen.case("wide", 3, 2)
    reports = _reports(case)
    assert oracle.check_result(case, reports) is None
    target = next(r for r in reports if r.method == method)
    entry = target.entries[0]
    # manual must match to 1e-12 and ahp to 1e-9; fuzzy weights must sum to 1
    entry.weight += {"manual": 1e-10, "ahp": 1e-8, "fuzzy_ahp": 1e-8}[method]
    assert oracle.check_result(case, reports) is not None


def test_oracle_counts_a_wrong_order_and_a_wrong_rejection():
    case = gen.case("wide", 3, 4)
    reports = _reports(case)
    manual = next(r for r in reports if r.method == "manual")
    manual.entries[0], manual.entries[1] = manual.entries[1], manual.entries[0]
    assert oracle.check_result(case, reports) is not None

    bad = gen.case("reject", 3, 0)
    kind, row, column = bad.bad
    error = type(kind, (Exception,), {})
    assert oracle.check_result(bad, error(f"row {row}, column {column}: x")) is None
    assert oracle.check_result(bad, error(f"row {row - 1}, column {column}: x"))
    assert oracle.check_result(bad, ValueError(f"row {row}, column {column}: x"))
    assert oracle.check_result(bad, _reports(gen.case("tall", 3, 0)))


def test_oracle_counts_a_wrong_exit_code():
    means = oracle.fixture_ratings(worker.FIXTURE).mean(axis=0)
    case = worker.CliCase("rank-json", ["rank", "--method", "all", "--format", "json",
                                        "--input", str(worker.FIXTURE)], means, 0, 10)
    code, out, err = worker.cli_inprocess(case)
    assert oracle.check_cli("rank-json", means, code, out, err) is None
    assert oracle.check_cli("rank-json", means, 1, out, err) is not None
    assert oracle.check_cli("rank-json", means, 2, out, err) is not None
    assert oracle.check_cli("clamped", None, 0, out, err) is not None
    assert oracle.check_cli("clamped", None, 2, out, err) is None


def test_every_cli_fixture_command_passes_the_oracle(tmp_path):
    workload = worker.Workload("cli-fixture", 1, tmp_path)
    for k in range(len(worker.CLI_CYCLE)):
        case = workload.make(k)
        assert workload.check(case, worker.cli_inprocess(case)) is None, case.command


def test_tracer_self_times_add_up_and_originals_come_back():
    from tourrank import cli, ranking

    original, loader = ranking.build_pairwise, cli.load_reviews
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ranking.build_pairwise is not original
        for k in range(3):
            with tracer.op(("op", k)):
                worker.compute(gen.case("wide", 1, k).text)
    finally:
        tracer.remove()
    assert ranking.build_pairwise is original and cli.load_reviews is loader

    layers = spans.summarize(tracer.spans, [("op", k) for k in range(3)])
    expected = {spans.ROOT} | (set(spans.SITES) - {"cli.main"})
    assert set(layers) == expected
    assert all(layer.calls == 3 for layer in layers.values())
    root = layers.pop(spans.ROOT)
    assert sum(layer.self_ns for layer in layers.values()) + root.self_ns == root.total_ns
    compare = layers["ranking.compare_methods"]
    assert 0 < compare.self_ns < compare.total_ns


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _run("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert [(m, v["unit"]) for m, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
