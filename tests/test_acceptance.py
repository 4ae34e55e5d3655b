"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any failure also shows up as a normal pytest failure.
"""

import contextlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from tourrank import (
    DegenerateColumnWarning,
    ExtentVector,
    build_fuzzy_pairwise,
    compare_methods,
    consistency_index,
    evaluate_consistency,
    fuzzy_weights,
    mse,
    normalize,
    synthetic_extents,
)
from tourrank.ahp import PairwiseMatrix
from tourrank.fuzzy import _TABLE

from conftest import EXPECTED_MANUAL_ORDER
from reference import (
    SCALE,
    fuzzy_pairwise_index,
    oracle_fuzzy_weights,
    possibility,
    scale_tfn,
)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    print(f"\n[PASS] {label}")


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tourrank", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_c1_ranking_reproduction(travel_csv_path, travel_matrix):
    with criterion("criterion 1: published ranking reproduced in < 1 s"):
        start = time.perf_counter()
        proc = run_cli("rank", "--input", str(travel_csv_path), "--method", "all")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 1.0, f"rank took {elapsed:.3f}s"

        reports = {r.method: r for r in compare_methods(travel_matrix)}
        manual_order = [e.name for e in reports["manual"].entries]
        assert manual_order == EXPECTED_MANUAL_ORDER
        assert reports["ahp"].entries[0].name == "Parks/Picnic Spots"
        assert reports["fuzzy_ahp"].entries[0].name == "Parks/Picnic Spots"

        # the printed table agrees: every method block ranks Parks first
        rank1_lines = [
            line for line in proc.stdout.splitlines() if line.lstrip().startswith("1 ")
        ]
        assert len(rank1_lines) == 3
        assert all("Parks/Picnic Spots" in line for line in rank1_lines)


def test_c2_mse_magnitude(travel_matrix):
    with criterion("criterion 2: fuzzy-AHP vs manual MSE <= 5e-3, below uniform's"):
        reports = {r.method: r for r in compare_methods(travel_matrix)}
        fuzzy = reports["fuzzy_ahp"].mse_vs_manual
        assert fuzzy <= 5e-3
        # reported reference magnitude is ~2e-4; ours stays within one
        # order of it: fuzzy_ahp measures 2.57e-3 on the fixture. Uniform
        # weights (1/n each) give 2.75e-3, which the 5e-3 bound alone would
        # pass, so fuzzy-AHP must also beat them (skill over uniform 0.064)
        manual = [e.weight for e in reports["manual"].entries]
        assert fuzzy < mse([1 / len(manual)] * len(manual), manual)


def test_c3_consistent_matrix_suite():
    with criterion("criterion 3: 100 consistent-matrix round trips in < 1 s"):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.05, 1.0, size=n)
            names = tuple(f"a{i}" for i in range(n))
            matrix = PairwiseMatrix(names, w[:, None] / w[None, :])
            weights, report = evaluate_consistency(matrix)
            np.testing.assert_allclose(weights.w, w / w.sum(), atol=1e-8)
            assert abs(report.lambda_max - n) <= 1e-8
            assert abs(report.ci) <= 1e-8
            assert report.cr <= 0.1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"suite took {elapsed:.3f}s"


def test_c4_possibility_branches():
    with criterion("criterion 4: degree-of-possibility branch suite"):
        # of two extents, the one with the higher peak has degree 1, so the
        # weights are (d, 1) / (1 + d), d the lower one's degree: d = 1 and
        # d = 0 show exactly, and otherwise w_lo / w_hi = d
        def weights(lo, hi):
            return fuzzy_weights(ExtentVector(("lo", "hi"), [lo, hi])).w.tolist()

        w_lo, w_hi = weights((0.5, 2, 5), (1, 3, 4))
        assert abs(w_lo / w_hi - 0.8) <= 1e-12
        assert weights((1, 2, 3), (0.5, 2, 4)) == [0.5, 0.5]
        assert weights((1, 2, 3), (4, 5, 6)) == [0.0, 1.0]
        w_lo, w_hi = weights((0.5, 1.0, 2.5), (1.0, 2.0, 3.0))
        assert abs(w_lo / w_hi - 0.6) <= 1e-12

        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a = tuple(np.sort(rng.uniform(0.01, 10.0, size=3)))
            b = tuple(np.sort(rng.uniform(0.01, 10.0, size=3)))
            lo, hi = sorted((a, b), key=lambda t: t[1])
            w_lo, w_hi = weights(lo, hi)
            assert 0.0 <= w_lo <= w_hi <= 1.0
            if lo[1] == hi[1]:
                assert (w_lo, w_hi) == (0.5, 0.5)
            elif hi[0] >= lo[2]:
                assert (w_lo, w_hi) == (0.0, 1.0)
            else:
                assert abs(w_lo / w_hi - possibility(lo, hi)) <= 1e-15


def test_c5_scale_fidelity():
    with criterion("criterion 5: comparison-scale TFNs and inverse identities"):
        for intensity in SCALE:
            a = np.array([[1.0, intensity], [1.0 / intensity, 1.0]])
            f = _TABLE[build_fuzzy_pairwise(PairwiseMatrix(("a", "b"), a))]
            (l, m, u), (il, im, iu) = f[0, 1].tolist(), f[1, 0].tolist()
            assert (l, m, u) == scale_tfn(intensity)
            assert abs(l * iu - 1.0) <= 1e-15
            assert abs(m * im - 1.0) <= 1e-15
            assert abs(u * il - 1.0) <= 1e-15


def test_c6_fuzzy_weight_oracle_equivalence():
    with criterion("criterion 6: fuzzy weights match the exhaustive oracle"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            specs = [
                (int(rng.integers(1, 10)), rng.random() < 0.5)
                for _ in range(n * (n - 1) // 2)
            ]
            extents = synthetic_extents(
                tuple(f"a{i}" for i in range(n)), fuzzy_pairwise_index(n, specs)
            )
            got = fuzzy_weights(extents).w
            want = oracle_fuzzy_weights(extents.s.tolist())
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_c7_normalization_properties():
    with criterion("criterion 7: normalization properties on 1000 random matrices"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            rows = int(rng.integers(1, 8))
            cols = int(rng.integers(1, 8))
            m = rng.uniform(0.0, 100.0, size=(rows, cols))
            out = normalize(m)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            np.testing.assert_allclose(normalize(out), out, atol=1e-12)
            c = float(rng.uniform(0.1, 10.0))
            np.testing.assert_allclose(normalize(c * m), out, atol=1e-12)

        with pytest.warns(DegenerateColumnWarning) as caught:
            out = normalize(np.array([[0.0], [0.0]]))
        assert len(caught) == 1
        np.testing.assert_array_equal(out, [[0.0], [0.0]])


def test_c8_consistency_gate(travel_csv_path, inconsistent_csv):
    with criterion("criterion 8: consistency gate fires on the 4x4 fixture"):
        # independent oracle: eigenvalue of the clamped ratio matrix via numpy
        means = np.array([4.0, 0.5, 0.06, 0.008])
        a = np.clip(means[:, None] / means[None, :], 1 / 9, 9)
        lam = max(v.real for v in np.linalg.eigvals(a) if abs(v.imag) < 1e-9)
        oracle_cr = ((lam - 4) / 3) / 0.90
        assert oracle_cr > 0.1

        proc = run_cli("validate", "--input", str(inconsistent_csv))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "FAIL" in proc.stdout
        cr_line = next(
            line for line in proc.stdout.splitlines() if line.startswith("CR")
        )
        assert float(cr_line.split()[1]) == pytest.approx(oracle_cr, abs=1e-6)

        proc = run_cli("rank", "--input", str(inconsistent_csv), "--method", "ahp")
        assert proc.returncode == 2
        assert "method: ahp" in proc.stdout  # flagged, not suppressed
        assert "[FAIL]" in proc.stdout

        assert consistency_index(4.37, 4) == pytest.approx(0.12333, abs=1e-5)
