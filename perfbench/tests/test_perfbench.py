"""Self-tests of the benchmark: each oracle fires on a corrupted answer.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import copy
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import LAYER_SPANS, Tracer  # noqa: E402
from workloads import Exact, Fiber, Fixtures, exact_oracle, fiber_oracle  # noqa: E402


def oracles(failures):
    return {oracle for oracle, _ in failures}


def test_fixtures_oracle_catches_corrupt_report_and_exit_code():
    wl = Fixtures(ROOT, seed=0)
    try:
        (inp,) = wl.setup()
        out = wl.run_op(inp)
        assert wl.check(inp, out) == []
        assert wl.identical_reports() == (7, 7)
        name = out[0][0]
        wl.golden[name] = wl.golden[name] + b" "
        assert oracles(wl.check(inp, out)) == {"report-bytes"}
        assert oracles(wl.check(inp, [(name, 1)])) == {"exit-0"}
    finally:
        wl.close()


@pytest.fixture(scope="module")
def fiber():
    wl = Fiber(ROOT, seed=3, cycle=2)
    inputs = wl.setup()
    return wl, inputs, [wl.run_op(inp) for inp in inputs]


def test_fiber_oracle_passes_correct_solves(fiber):
    wl, inputs, outs = fiber
    for inp, out in zip(inputs, outs):
        assert wl.check(inp, out) == []
        assert [res.method for res in out] == ["closed-form", "newton-multistart"]


def test_fiber_oracle_catches_wrong_truth_method_planted_and_target(fiber):
    wl, inputs, outs = fiber
    inp, (closed, _) = inputs[0], outs[0]
    off_by_one = dict(inp, truth=inp["truth"] + 1)
    assert oracles(wl.check(off_by_one, outs[0])) == {"count"}
    assert oracles(fiber_oracle(wl.analysis, wl.builtin, inp, closed,
                                "newton-multistart")) == {"method"}
    moved = dict(inp, planted=inp["planted"] + 1.0)
    assert "planted" in oracles(fiber_oracle(wl.analysis, wl.builtin, moved, closed,
                                             "closed-form"))
    skewed = copy.copy(closed)
    skewed.solutions = [s * 1.5 for s in closed.solutions]
    assert {"planted", "reproduce"} <= oracles(
        fiber_oracle(wl.analysis, wl.builtin, inp, skewed, "closed-form"))


def test_exact_oracle_catches_each_identity():
    wl = Exact(ROOT, seed=5, cycle=1)
    (inp,) = wl.setup()
    valid, rows = wl.run_op(inp)
    assert valid and wl.check(inp, (valid, rows)) == []
    sec, (member, rank, b, t, label) = inp[0], rows[0]
    assert oracles(exact_oracle(sec, False, rank, b, t, label)) == {"membership"}
    assert oracles(exact_oracle(sec, member, rank - 1, b, t, label)) == {"rank"}
    assert oracles(exact_oracle(sec, member, rank, b, -t, label)) >= {"t"}
    shifted = [row[:] for row in b]
    shifted[0][0] += Fraction(1)
    assert "trace" in oracles(exact_oracle(sec, member, rank, shifted, t, label))
    assert oracles(wl.check(inp, (False, rows))) == {"validate"}


def test_exact_probe_counts_each_refusal():
    wl = Exact(ROOT, seed=5, cycle=1)
    wl.setup()
    cases, failing = wl.census()
    assert cases == 3
    for name, _, found in failing:
        assert name in ("solve_fiber", "normal_splitting", "classify_hypercomplex")
        assert found


class _Raising:
    def run_op(self, inp):
        raise ValueError("refused")

    def check(self, inp, out):  # pragma: no cover - never reached
        return []


def test_timed_loop_counts_an_exception_as_a_failed_op():
    latencies, refs, ok, failures, errors, _ = run.timed_loop(_Raising(), [None], 0.0)
    assert len(latencies) == run.MIN_OPS == len(failures)
    assert not any(ok) and len(refs) == len(latencies)
    assert oracles(failures[0]) == {"exception"}
    assert errors


def test_tracer_counts_repeat_and_uninstall_restores(fiber):
    wl, inputs, _ = fiber
    import twistorcheck.analysis as analysis
    import twistorcheck.systems as systems
    original = systems.real_section_system
    counts = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            assert analysis.real_section_system is systems.real_section_system
            assert systems.real_section_system is not original
            for inp in inputs:
                tracer.begin_op()
                wl.run_op(inp)
                tracer.end_op(0.1)
        finally:
            tracer.uninstall()
        counts.append({k: v for k, (v, unit) in tracer.layer_metrics().items()
                       if unit == "count"})
    assert systems.real_section_system is original
    assert analysis.real_section_system is original
    assert counts[0] == counts[1]
    assert counts[0]["analysis.solve_fiber.newton-multistart.calls"] == 1
    assert counts[0]["analysis.newton.residual_calls_per_solve"] > 0
    assert set(LAYER_SPANS) >= {"mpoly.evaluate", "numpy.linalg.svd"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_percentile_leaves_ten_samples_beyond_p90():
    vals = sorted(np.arange(run.MIN_OPS, dtype=float))
    p90 = run.percentile(vals, 0.9)
    assert sum(v > p90 for v in vals) == 10
