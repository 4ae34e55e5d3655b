#!/usr/bin/env python3
"""Run one tourrank benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the code under test is ``src/tourrank``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones. Every metric is printed by name with its unit; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Workloads, metrics and the reasons for them are
in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import gen

STARTED = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "travel_reviews.csv"

WORKLOADS = ("cli-fixture", "tall", "wide", "reject")

END_TO_END = {
    "latency_p50_ms": "ms",
    "throughput_cells_s": "cells/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}

PER_LAYER = {
    "latency_p90_ms": "ms",
    "latency_samples": "count",
    "init.python_ms": "ms",
    "init.numpy_import_ms": "ms",
    "init.tourrank_import_ms": "ms",
    "init.cli_import_ms": "ms",
    "dataset.load_reviews_ms": "ms",
    "dataset.category_means_ms": "ms",
    "dataset.normalize_ms": "ms",
    "dataset.cells": "count",
    "dataset.cells_per_s": "cells/s",
    "dataset.rejects": "count",
    "ahp.build_pairwise_ms": "ms",
    "ahp.evaluate_consistency_ms": "ms",
    "ahp.pairs": "count",
    "fuzzy.build_fuzzy_pairwise_ms": "ms",
    "fuzzy.synthetic_extents_ms": "ms",
    "fuzzy.fuzzy_weights_ms": "ms",
    "ranking.compare_methods_ms": "ms",
    "ranking.self_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "trace.ops": "count",
    "trace.op_ms": "ms",
    "trace.uncovered_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Fresh workers whose set-up time is sampled, the measuring worker among them.
SETUP_RUNS = 11
#: Fresh interpreters started to time the init layer.
INIT_REPS = 7
#: Import steps in order; each metric is the time the step adds to the previous ones.
INIT_STEPS = (
    ("init.numpy_import_ms", "numpy"),
    ("init.tourrank_import_ms", "tourrank"),
    ("init.cli_import_ms", "tourrank.cli"),
)
_TOP_LEVEL_IMPORT = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (\S+)$")
#: The whole run must end well within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_worker(args, workdir: Path, env: dict, *extra: str):
    """Start a worker and wait for its ``ready`` line; returns (process, set-up seconds)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 0)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, took


def finish(proc, timeout: float) -> str:
    """Wait for the worker's remaining output; kill it if it runs past ``timeout``."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def init_layer(env: dict) -> dict:
    """Bare interpreter start-up, then each import step on top of the previous ones.

    Start-up is the median wall time of ``python -c pass``. The imports are
    timed by ``-X importtime`` in one interpreter that imports the steps in
    order, so each step's cumulative time excludes what earlier steps loaded.
    """
    start, steps = [], {name: [] for name, _ in INIT_STEPS}
    code = "import " + ", ".join(module for _, module in INIT_STEPS)
    for _ in range(INIT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env,
                       check=True, timeout=60)
        start.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              env=env, check=True, timeout=60, capture_output=True, text=True)
        cumulative_us = {}
        for line in proc.stderr.splitlines():
            found = _TOP_LEVEL_IMPORT.match(line)
            if found:
                cumulative_us[found[2]] = int(found[1])
        for name, module in INIT_STEPS:
            steps[name].append(cumulative_us[module] / 1e3)
    out = {"init.python_ms": statistics.median(start) * 1e3}
    out.update({name: statistics.median(ms) for name, ms in steps.items()})
    return out


def run(args, workdir: Path) -> tuple[dict, dict]:
    env = child_env()
    # Compile bytecode once so no timed process pays for it.
    subprocess.run([sys.executable, "-c", "import tourrank.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    if args.workload != "cli-fixture":
        case = gen.case(args.workload, args.seed, 0, warmup=True)
        (workdir / "warmup.csv").write_text(case.text)

    def sample_setup() -> float:
        proc, took = start_worker(args, workdir, env, "--setup-only")
        finish(proc, 60)
        return took

    if args.trace:
        metrics = init_layer(env)
    else:
        setups = [sample_setup() for _ in range(SETUP_RUNS // 2)]

    proc, took = start_worker(args, workdir, env)
    out = finish(proc, DEADLINE_S - (time.monotonic() - STARTED))
    result = json.loads(out.strip().splitlines()[-1])
    if args.trace:
        metrics.update(result["layers"])
        return metrics, result
    # Half the set-up samples come after the measured loop, so that they
    # straddle it rather than catch one moment of the machine.
    setups += [took] + [sample_setup() for _ in range(SETUP_RUNS // 2)]
    metrics = {name: result[name] for name in END_TO_END if name in result}
    metrics["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return metrics, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "tourrank" / "__init__.py", FIXTURE) if not p.is_file()]
    if missing:
        print(f"error: not a tourrank checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        metrics, result = run(args, workdir)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed}))
    if args.trace:
        covered, total = result["additivity_ns"]
        print(f"traced operations: {metrics['trace.ops']}; layers' self time + uncovered "
              f"= {covered / 1e6:.3f} ms, traced operation time = {total / 1e6:.3f} ms")
    else:
        print(f"operations: {result['attempted']}, {result['quiet_ops']} in the quiet block; "
              "set-up samples: " + ", ".join(f"{s:.4f}" for s in result["setup_samples"]))
    for name, unit in units.items():
        value = metrics[name]
        print(f"  {name:32} {'missing' if value is None else f'{value:.6g}'} {unit}")
    correct = result["failed"] == 0
    if args.trace:
        correct = correct and covered == total
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
