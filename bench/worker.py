"""One fresh benchmark process: set up, then run a closed loop with one client.

Started by ``run.py`` with ``PYTHONPATH=src``. It imports tourrank and runs
one warm-up operation, then prints ``ready``: the parent times set-up from
process start to that line. Unless ``--setup-only`` is given it then runs
the workload for ``--seconds`` and prints its measurements as one JSON line.
Only the standard library and tourrank are imported before ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "travel_reviews.csv"

#: The p90 must leave at least 10 samples beyond it.
MIN_SAMPLES = 100
#: A loop stretched to reach its minimum sample count still stops here.
MAX_LOOP_S = 100.0
#: An end-to-end run is cut into this many equal time blocks; see quiet_block.
BLOCKS = 20
#: Blocks with fewer operations than this are too short to judge (one CLI cycle).
MIN_BLOCK_OPS = 5

#: Untraced/traced block pairs in a traced run.
TRACE_BLOCKS = 5

#: cli-fixture's command cycle: (oracle command, argv without --input).
CLI_CYCLE = (
    ("rank", ["rank", "--method", "all"]),
    ("rank-json", ["rank", "--method", "all", "--format", "json"]),
    ("validate", ["validate"]),
    ("export-plotdata", ["export-plotdata"]),
    ("clamped", ["rank", "--method", "all"]),
)

#: per-layer timing -> (span, "total_ns" or "self_ns")
TIMED = {
    "dataset.load_reviews_ms": ("dataset.load_reviews", "self_ns"),
    "dataset.category_means_ms": ("dataset.category_means", "self_ns"),
    "dataset.normalize_ms": ("dataset.normalize", "self_ns"),
    "ahp.build_pairwise_ms": ("ahp.build_pairwise", "self_ns"),
    "ahp.evaluate_consistency_ms": ("ahp.evaluate_consistency", "self_ns"),
    "fuzzy.build_fuzzy_pairwise_ms": ("fuzzy.build_fuzzy_pairwise", "self_ns"),
    "fuzzy.synthetic_extents_ms": ("fuzzy.synthetic_extents", "self_ns"),
    "fuzzy.fuzzy_weights_ms": ("fuzzy.fuzzy_weights", "self_ns"),
    "ranking.compare_methods_ms": ("ranking.compare_methods", "total_ns"),
    "ranking.self_ms": ("ranking.compare_methods", "self_ns"),
    "cli.main_ms": ("cli.main", "total_ns"),
    "cli.self_ms": ("cli.main", "self_ns"),
}


@dataclass(frozen=True)
class CliCase:
    command: str
    argv: list[str]
    means: object  # column means of the input file, for the oracle
    cells: int
    categories: int


@dataclass
class Loop:
    samples: list[int] = field(default_factory=list)  # ns per operation
    stamps: list[float] = field(default_factory=list)  # s from loop start to op start
    cells: list[int] = field(default_factory=list)  # cells through each op, 0 if it failed
    failed: int = 0

    def add(self, other: "Loop") -> None:
        self.samples += other.samples
        self.stamps += other.stamps
        self.cells += other.cells
        self.failed += other.failed


def compute(text: str):
    from tourrank import dataset, ranking

    return ranking.compare_methods(dataset.load_reviews(io.StringIO(text)))


def cli_subprocess(case: CliCase):
    proc = subprocess.run(
        [sys.executable, "-m", "tourrank", *case.argv],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def cli_inprocess(case: CliCase):
    from tourrank import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case.argv)
    return code, out.getvalue(), err.getvalue()


def setup(workload: str, workdir: Path) -> None:
    """Import tourrank and run one warm-up operation."""
    import tourrank  # noqa: F401  (the import is part of what set-up measures)
    from tourrank.errors import InputError

    if workload == "cli-fixture":
        cli_subprocess(CliCase("rank", ["rank", "--input", str(FIXTURE)], None, 0, 0))
        return
    try:
        compute((workdir / "warmup.csv").read_text())
    except InputError:
        pass  # reject's warm-up file is rejected too


def run_loop(make, run, check, seconds: float, *, min_samples=0, tracer=None,
             tag="op", meta=None, first=0) -> Loop:
    """Closed loop: make an input, time the operation on it, then check it.

    Making and checking inputs is outside the timed region.
    """
    loop = Loop()
    start = time.perf_counter()
    k = first
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (
            elapsed >= seconds and len(loop.samples) >= min_samples
        ):
            return loop
        case = make(k)
        loop.stamps.append(time.perf_counter() - start)
        if tracer is None:
            t0 = time.perf_counter_ns()
            result = _guarded(run, case)
            loop.samples.append(time.perf_counter_ns() - t0)
        else:
            meta[(tag, k)] = (case.cells, case.categories)
            with tracer.op((tag, k)) as span:
                result = _guarded(run, case)
            loop.samples.append(span[4] - span[3])
        try:
            reason = check(case, result)
        except Exception as exc:  # a garbled output must count, not crash
            reason = f"oracle could not read the output: {exc!r}"
        loop.cells.append(case.cells if reason is None else 0)
        if reason is not None:
            loop.failed += 1
            if loop.failed <= 3:
                print(f"failed operation {tag} {k}: {reason}", file=sys.stderr)
        # Let go of this input and result (a rejection's traceback holds the
        # parsed rows) before the next input is made, so peak memory is one
        # operation's worth.
        del case, result
        k += 1


def _guarded(run, case):
    try:
        return run(case)
    except Exception as exc:  # the oracle decides whether it was expected
        return exc


class Workload:
    """Inputs, the timed operation and its check for one named workload."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import gen
        import oracle

        self.name, self.seed, self.workdir = name, seed, workdir
        self.gen, self.oracle = gen, oracle
        self.period = len(CLI_CYCLE) if name == "cli-fixture" else 1
        if name == "cli-fixture":
            self.fixture = oracle.fixture_ratings(FIXTURE)

    def make(self, k: int):
        if self.name != "cli-fixture":
            return self.gen.case(self.name, self.seed, k)
        command, argv = CLI_CYCLE[k % len(CLI_CYCLE)]
        if command != "clamped":
            return CliCase(command, [*argv, "--input", str(FIXTURE)],
                           self.fixture.mean(axis=0), self.fixture.size,
                           self.fixture.shape[1])
        path = self.workdir / f"clamped-{k % 8}.csv"
        path.write_text(self.gen.clamped_text(self.seed, k))
        return CliCase(command, [*argv, "--input", str(path)], None, 16, 4)

    def make_probe(self, k: int) -> CliCase:
        """cli.main on the workload's own valid files (reject: before the bad cell)."""
        case = self.gen.case(self.name, self.seed, k, corrupt=False)
        path = self.workdir / f"probe-{k % 4}.csv"
        path.write_text(case.text)
        argv = ["rank", "--method", "all", "--format", "json", "--input", str(path)]
        return CliCase("rank-json", argv, case.means, case.cells, case.categories)

    def check(self, case, result):
        if isinstance(case, CliCase):
            if isinstance(result, Exception):
                return f"unexpected {type(result).__name__}: {result}"
            return self.oracle.check_cli(case.command, case.means, *result)
        return self.oracle.check_result(case, result)

    def run(self, case):
        return compute(case.text)


def percentile_ms(samples: list[int], q: float) -> float:
    """Nearest-rank percentile of ns samples, in ms."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] / 1e6


def quiet_block(loop: Loop, seconds: float) -> list[int]:
    """Indices of the operations in the time block with the lowest median latency.

    On a shared machine, contention from other tenants comes and goes over
    seconds and slows every operation by up to 1.8x while it lasts, so the
    median of a whole run mostly measures how much of the run it covered.
    The quietest block is the program's own speed with the least of it.
    """
    width = seconds / BLOCKS
    blocks: dict[int, list[int]] = {}
    for i, stamp in enumerate(loop.stamps):
        blocks.setdefault(min(int(stamp / width), BLOCKS - 1), []).append(i)
    full = [ops for ops in blocks.values() if len(ops) >= MIN_BLOCK_OPS]
    if not full:
        return list(range(len(loop.samples)))
    return min(full, key=lambda ops: statistics.median(loop.samples[i] for i in ops))


def end_to_end(workload: Workload, seconds: float) -> dict:
    subprocess_cli = workload.name == "cli-fixture"
    run = cli_subprocess if subprocess_cli else workload.run
    loop = run_loop(workload.make, run, workload.check, seconds)
    quiet = quiet_block(loop, seconds)
    p50_ns = statistics.median(loop.samples[i] for i in quiet)
    # Cells per operation over whole command cycles, so the mix of file
    # sizes is the same whichever block is quiet; a failed operation counts 0.
    cycled = quiet[: len(quiet) - len(quiet) % workload.period] or quiet
    cells_per_op = sum(loop.cells[i] for i in cycled) / len(cycled)
    who = resource.RUSAGE_CHILDREN if subprocess_cli else resource.RUSAGE_SELF
    attempted = len(loop.samples)
    return {
        "attempted": attempted,
        "failed": loop.failed,
        "quiet_ops": len(quiet),
        "latency_p50_ms": p50_ns / 1e6,
        "throughput_cells_s": cells_per_op / (p50_ns / 1e9),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "success_rate": (attempted - loop.failed) / attempted,
    }


def per_layer(workload: Workload, seconds: float) -> dict:
    """Untraced and traced operations in alternating blocks, plus CLI probes.

    Alternating blocks keep drift in machine speed out of the tracing
    overhead. cli-fixture runs ``cli.main`` in-process here, with output
    captured, so its traced and untraced operations are the same call.
    """
    import spans

    is_cli = workload.name == "cli-fixture"
    run = cli_inprocess if is_cli else workload.run
    share = 0.5 if is_cli else 0.4
    untraced, traced, probes = Loop(), Loop(), Loop()
    # (tag, index) -> (cells, categories) of each traced operation's input
    tracer, meta = spans.Tracer(), {}
    for _ in range(TRACE_BLOCKS):
        block = seconds * share / TRACE_BLOCKS
        untraced.add(run_loop(workload.make, run, workload.check, block,
                              min_samples=MIN_SAMPLES // TRACE_BLOCKS,
                              first=len(untraced.samples) + len(traced.samples)))
        tracer.install()
        try:
            traced.add(run_loop(workload.make, run, workload.check, block, tracer=tracer,
                                meta=meta, first=len(untraced.samples) + len(traced.samples)))
        finally:
            tracer.remove()
    if not is_cli:
        tracer.install()
        try:
            probes = run_loop(workload.make_probe, cli_inprocess, workload.check,
                              seconds * (1 - 2 * share), min_samples=3,
                              tracer=tracer, tag="probe", meta=meta)
        finally:
            tracer.remove()

    primary = [op for op in meta if op[0] == "op"]
    probe = [op for op in meta if op[0] == "probe"]
    sets = [(spans.summarize(tracer.spans, primary), primary),
            (spans.summarize(tracer.spans, probe), probe)]

    def source(span: str):
        """Layer totals from the workload's own operations, else from the probes."""
        for layers, ops in sets:
            if span in layers:
                return layers[span], ops
        return None, []

    def spans_of(span: str, ops) -> list:
        ops = set(ops)
        return [s for s in tracer.spans if s[0] == span and s[1] in ops]

    out: dict = {}
    for metric, (span, field) in TIMED.items():
        layer, ops = source(span)
        out[metric] = None if layer is None else getattr(layer, field) / 1e6 / len(ops)

    loads, ops = source("dataset.load_reviews")
    if loads is None:
        out.update({"dataset.cells": None, "dataset.cells_per_s": None,
                    "dataset.rejects": None})
    else:
        cells = sum(meta[s[1]][0] for s in spans_of("dataset.load_reviews", ops))
        out["dataset.cells"] = cells
        out["dataset.cells_per_s"] = cells / (loads.total_ns / 1e9)
        out["dataset.rejects"] = loads.raised
    _, ops = source("ahp.build_pairwise")
    out["ahp.pairs"] = None if not ops else sum(
        meta[s[1]][1] * (meta[s[1]][1] - 1) // 2 for s in spans_of("ahp.build_pairwise", ops)
    )

    root = sets[0][0][spans.ROOT]
    covered = sum(layer.self_ns for name, layer in sets[0][0].items() if name != spans.ROOT)
    untraced_p50 = statistics.median(untraced.samples)
    # The p90 is of the workload's own operation: for cli-fixture, the subprocess.
    tail = untraced
    if is_cli:
        tail = run_loop(workload.make, cli_subprocess, workload.check, 0,
                        min_samples=MIN_SAMPLES)
    out.update({
        "latency_p90_ms": percentile_ms(tail.samples, 0.9),
        "latency_samples": len(tail.samples),
        "trace.ops": len(primary),
        "trace.op_ms": root.total_ns / 1e6 / len(primary),
        "trace.uncovered_ms": root.self_ns / 1e6 / len(primary),
        "trace.overhead_pct": 100 * (statistics.median(traced.samples) - untraced_p50)
        / untraced_p50,
    })
    loops = (untraced, traced, probes) + ((tail,) if is_cli else ())
    return {
        "attempted": sum(len(loop.samples) for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "layers": out,
        # layers' self time + uncovered time must equal the traced op time
        "additivity_ns": (covered + root.self_ns, root.total_ns),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Any warning from the pipeline fails the operation that raised it.
    warnings.simplefilter("error")
    setup(args.workload, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = Workload(args.workload, args.seed, args.workdir)
    if args.trace:
        result = per_layer(workload, args.seconds)
    else:
        result = end_to_end(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
