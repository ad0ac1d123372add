"""Command line contract: scenarios, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twistorcheck import (cli, evaluate_section, models_structurally_equal,
                          serialize)
from twistorcheck.cli import OPS, main, run_scenario, run_scenario_doc
from twistorcheck.errors import TwistorCheckError
from twistorcheck.scalars import GaussianRational
from twistorcheck.serialize import dump_report, encode_scalar, jsonable, load_scenario
from twistorcheck.models import TwistorModel
from twistorcheck.projline import SigmaCoordRule
from twistorcheck.systems import real_section_system
from conftest import with_real_constant

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
REPORTS = REPO / "reports"

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_scenarios_pass(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_scenario(str(FIXTURES / name), str(out))
    captured = capsys.readouterr()
    assert code == 0, captured.out + captured.err
    report = json.loads(out.read_text())
    assert report["summary"]["fail"] == 0
    assert report["toolkit"]["name"] == "twistorcheck"
    # golden gate: refactors must reproduce the committed report byte for byte
    assert out.read_bytes() == (REPORTS / name).read_bytes()


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_run_subcommand_writes_the_golden_report(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", str(FIXTURES / name), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (REPORTS / name).read_bytes()


def test_every_golden_report_has_its_fixture():
    # the gate above covers each fixture; a report without one would go stale
    assert sorted(p.name for p in REPORTS.glob("*.json")) == ALL_FIXTURES != []


def test_reports_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    path = str(FIXTURES / "deformed-antireal.json")
    assert run_scenario(path, str(out1)) == 0
    assert run_scenario(path, str(out2)) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_op_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"builtin": "quadric"},
                               "tasks": [{"op": "frobnicate"}]}))
    assert run_scenario(str(bad)) == 2
    capsys.readouterr()


def test_sampling_without_seed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"builtin": "quadric"},
                               "tasks": [{"op": "classify"}]}))
    assert run_scenario(str(bad)) == 2
    capsys.readouterr()


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_scenario(str(bad)) == 2
    capsys.readouterr()


_GLUE_NO_COEFF = {"op": "cone-glue", "equations": [[{"exponents": [1, 1, 0]}]]}
MALFORMED_TASKS = [
    pytest.param({"op": "solve-fiber"}, "'point'", id="point-missing"),
    pytest.param({"op": "solve-fiber", "point": 5}, "'point'", id="point-scalar"),
    pytest.param({"op": "solve-fiber", "point": "1,1,1", "zeta": [1]},
                 "zeta pair", id="zeta-one-entry"),
    pytest.param({"op": "solve-fiber", "point": "1,1,1",
                  "zeta": {"chart": "bogus", "value": 1}},
                 "zeta chart", id="zeta-bogus-chart"),
    pytest.param({"op": "validate", "model": 5}, "a model is", id="model-scalar"),
    pytest.param(_GLUE_NO_COEFF, "'coeff'", id="monomial-without-coeff"),
    pytest.param({"op": "cone-glue", "equations": 5}, "monomial lists",
                 id="equations-scalar"),
    pytest.param({"op": "cone-glue", "rules": [{"target": 1, "twist": 2}] * 3},
                 "'sign'", id="rule-without-sign"),
    pytest.param({"op": "branch", "params": 5}, "'params'", id="params-scalar"),
    pytest.param({"op": "quotient-census", "group": 5}, "group name",
                 id="group-scalar"),
    pytest.param({"op": "matrix-model", "oracle_q": 5}, "'oracle_q'",
                 id="oracle-q-scalar"),
    pytest.param({"op": "validate", "expect": 5}, "'expect'", id="expect-scalar"),
    pytest.param({"op": "branch", "section": 5}, "'section'",
                 id="section-scalar"),
    pytest.param({"op": "singular-scan", "seed": 0, "samples": [1]}, "'samples'",
                 id="samples-list"),
    pytest.param({"op": "singular-scan", "seed": [1]}, "'seed'", id="seed-list"),
    pytest.param({"op": "cone-glue",
                  "equations": [[{"exponents": 5, "coeff": 1}]]}, "'exponents'",
                 id="exponents-scalar"),
    pytest.param({"op": "quotient-census", "group_file": 1}, "'group_file'",
                 id="group-file-int"),
    pytest.param({"op": "cone-glue", "l": [1]}, "'l'", id="l-list"),
    pytest.param({"op": "singular-scan", "seed": 0, "samples": 2.7}, "'samples'",
                 id="samples-float"),
    pytest.param({"op": "singular-scan", "seed": 0, "samples": -5}, "'samples'",
                 id="samples-negative"),
    pytest.param({"op": "singular-scan", "seed": 0, "samples": None}, "'samples'",
                 id="samples-null"),
    pytest.param({"op": "singular-scan", "seed": 0, "include_origin": "false"},
                 "'include_origin'", id="include-origin-string"),
    pytest.param({"op": "matrix-model", "oracle_q": "nan,1,1,1"}, "'oracle_q'",
                 id="oracle-q-nan"),
    pytest.param({"op": "solve-fiber", "point": "1,1,1", "zeta": "nan"}, "'zeta'",
                 id="zeta-nan"),
    pytest.param({"op": "singular-scan", "seed": 0, "sample": 10}, "'sample'",
                 id="unknown-key"),
    pytest.param({"op": "validate", "model": {"builtin": "deformed", "lambda": 5}},
                 "'lambda'", id="task-model-lambda-int"),
    pytest.param({"op": "cone-glue", "compare": {"builtin": "quadric", "exact": [1]}},
                 "'exact'", id="compare-exact-list"),
]


@pytest.mark.parametrize("task,message", MALFORMED_TASKS)
def test_malformed_task_arguments_exit_2(task, message, tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"model": "quadric", "tasks": [task]}))
    assert run_scenario(str(scen)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("fields,message", [
    pytest.param({"seed": [1]}, "'seed'", id="seed-list"),
    pytest.param({"tolerances": 5}, "'tolerances'", id="tolerances-scalar"),
    pytest.param({"exact": [1]}, "'exact'", id="exact-list"),
    pytest.param({"exact": "false"}, "'exact'", id="exact-string"),
    pytest.param({"tolerances": {"tol": [1]}}, "'tol'", id="tol-list"),
    pytest.param({"tolerances": {"tol": "nan"}}, "'tol'", id="tol-string"),
    pytest.param({"tolerances": {"tol": float("nan")}}, "'tol'", id="tol-nan"),
    pytest.param({"tolerances": {"fiber_tol": float("inf")}}, "'fiber_tol'",
                 id="fiber_tol-inf"),
    pytest.param({"tolerances": {"rank_rtol": 0}}, "'rank_rtol'", id="rank_rtol-zero"),
    pytest.param({"tolerances": {"newton_tol": True}}, "'newton_tol'",
                 id="newton_tol-bool"),
    pytest.param({"tolerances": {"dedup_radius": 10 ** 400}}, "'dedup_radius'",
                 id="dedup_radius-huge"),
    pytest.param({"tolerances": {"max_iter": 5}}, "'max_iter'", id="max_iter"),
    pytest.param({"seed": None}, "'seed'", id="seed-null"),
    pytest.param({"out": 5}, "'out'", id="out-int"),
    pytest.param({"colour": 1}, "'colour'", id="unknown-key"),
    pytest.param({"model": {"builtin": "quadric", "exact": "no"}}, "'exact'",
                 id="model-exact-string"),
    pytest.param({"model": {"builtin": "deformed", "lambda": 5}}, "'lambda'",
                 id="model-lambda-int"),
    pytest.param({"model": {"builtin": "quadric", "colour": 1}}, "'colour'",
                 id="model-unknown-key"),
])
def test_malformed_scenario_fields_exit_2(fields, message, tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"model": "quadric", "tasks": [{"op": "validate"}],
                                **fields}))
    assert run_scenario(str(scen)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_standalone_nan_tolerance_exits_2(capsys):
    code = main(["solve-fiber", "--model", "quadric", "--point", "1,1,1",
                 "--tol", "nan"])
    err = capsys.readouterr().err
    assert code == 2 and "'tol'" in err


def test_newton_tol_above_the_membership_tolerance_exits_2(tmp_path, capsys):
    # at newton_tol 1e-4 the Newton rows stop short of member_tol = 1e-8
    # and every one is dropped, so the scenario is refused; newton_tol equal
    # to member_tol still finds both sections of the doubled quadric
    model = {"file": str(REPO / "tests" / "data" / "doubled-quadric.json")}
    task = {"op": "solve-fiber", "zeta": "0.4-0.3j", "point": "4,1,2",
            "expect": {"count": 2}}
    scen = tmp_path / "s.json"
    for newton_tol, want in ((1e-4, 2), (1e-8, 0)):
        scen.write_text(json.dumps({"model": model, "tasks": [task],
                                    "tolerances": {"newton_tol": newton_tol}}))
        assert run_scenario(str(scen)) == want
        captured = capsys.readouterr()
        if want == 2:
            assert "newton_tol 0.0001 exceeds member_tol" in captured.err
            assert "1e-08" in captured.err and "Traceback" not in captured.err
        else:
            assert "[PASS] solve-fiber: count=2" in captured.out


def test_failing_expectation_exits_1(tmp_path, capsys):
    doc = {"model": {"builtin": "quadric"}, "seed": 0,
           "tasks": [{"op": "solve-fiber", "zeta": "0",
                      "point": [[1, 0], [1, 0], [1, 0]],
                      "expect": {"count": 3}}]}
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(doc))
    assert run_scenario(str(scen)) == 1
    capsys.readouterr()


def test_standalone_solve_fiber(capsys):
    code = main(["solve-fiber", "--model", "quadric", "--zeta", "0",
                 "--point", "1,1,1", "--expect-count", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] solve-fiber" in out


def test_standalone_newton_fiber_of_the_doubled_quadric_file(doubled, capsys):
    # the model file CI runs through the console script: the doubled quadric
    # as model_to_dict writes it, solved by multistart Newton
    path = REPO / "tests" / "data" / "doubled-quadric.json"
    assert json.loads(path.read_text()) == serialize.model_to_dict(doubled)
    code = main(["solve-fiber", "--model", str(path), "--zeta", "0.4-0.3j",
                 "--point", "4,1,2", "--expect-count", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "newton-multistart" in out


def test_standalone_newton_fiber_off_the_incidence_slice(doubled, capsys):
    # the doubled quadric with a real constant coordinate c, as CI runs it:
    # no real section has c = 0.5i, so that target has no solutions, while
    # c = 0.5 keeps the two sections of the doubled quadric
    path = REPO / "tests" / "data" / "doubled-quadric-o0.json"
    assert json.loads(path.read_text()) == serialize.model_to_dict(
        with_real_constant(doubled))
    for point, count in (("4,1,2,0.5j", 0), ("4,1,2,0.5", 2)):
        code = main(["solve-fiber", "--model", str(path), "--zeta", "0.4-0.3j",
                     "--point", point, "--expect-count", str(count)])
        out = capsys.readouterr().out
        assert code == 0 and "newton-multistart" in out, point


def test_quadric_tuples_only_in_the_quadric_layout(tmp_path, capsys):
    # solve-fiber writes coefficient tuples, and a section may be given as
    # one, only on a model whose parameters are quadric_params' layout; an
    # equation-free model of degrees (2, 2, 2) with every coordinate
    # self-paired (sign +1) also has 9 parameters, x0.re, x0.im, x1, y0.re, ...
    rules = tuple(SigmaCoordRule(i, 1, 2) for i in range(3))
    model = TwistorModel("self-paired", (2, 2, 2), ("x", "y", "z"), rules, ())
    assert model.nparams == 9
    path = tmp_path / "self-paired.json"
    path.write_text(json.dumps(serialize.model_to_dict(model)))
    path = str(path)
    code, task = _standalone_task(["solve-fiber", "--model", path,
                                   "--point", "1,2,3"], tmp_path)
    assert code == 0 and task["numbers"]["count"] == 8
    assert "solution_tuples" not in task["evidence"]
    capsys.readouterr()
    for op in ("branch", "normal-bundle", "matrix-model"):
        assert main([op, "--model", path, "--section", "1,0,0,0,1"]) == 2, op
        assert "quadric parameter layout" in capsys.readouterr().err
    assert main(["branch", "--model", path, "--params", "1,0,0,0,0,0,0,0,1"]) == 0
    doubled = str(REPO / "tests" / "data" / "doubled-quadric.json")
    # fiber points at zeta = 0, where the antireal deformation term is -1
    for model, point in ((["quadric"], "1,1,1"), ([doubled], "1,1,1"),
                         (["deformed"], "1,0,1"),
                         (["deformed", "--reality", "real", "--lam", "0,1,0"], "1,1,1")):
        code, task = _standalone_task(["solve-fiber", "--model", *model,
                                       "--point", point], tmp_path)
        sols, tuples = task["evidence"]["solutions"], task["evidence"]["solution_tuples"]
        assert code == 0 and sols and len(tuples) == len(sols), model
        assert main(["matrix-model", "--model", *model, "--section", "1,0,0,0,1"]) == 0
    capsys.readouterr()


def _standalone_task(argv, tmp_path):
    """Exit code and task record of a standalone subcommand run with --out."""
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())["tasks"][0]


def test_standalone_newton_fiber_of_the_a2_cone_file(a2_cone, tmp_path, capsys):
    # the first cubic model through the console script, as CI runs it: the
    # A2 cone as model_to_dict writes it, at the target (2, 4, 2) on
    # u v = w^3, where multistart Newton returns one section, a regular point
    # (Jacobian rank 7) that reproduces the target
    path = REPO / "tests" / "data" / "a2-cone.json"
    doc = json.loads(path.read_text())
    assert doc == serialize.model_to_dict(a2_cone)
    assert models_structurally_equal(serialize.model_from_dict(doc), a2_cone)
    code, task = _standalone_task(["solve-fiber", "--model", str(path), "--zeta",
                                   "0.4-0.3j", "--point", "2,4,2",
                                   "--expect-count", "1"], tmp_path)
    capsys.readouterr()
    assert code == 0 and task["evidence"]["method"] == "newton-multistart"
    (sol,) = task["evidence"]["solutions"]
    assert real_section_system(a2_cone).jacobian_rank(np.array(sol)) == 7
    values = evaluate_section(a2_cone, sol, 0.4 - 0.3j).values
    assert np.allclose(values, (2, 4, 2), rtol=0, atol=1e-9)


def test_a3_cone_file_is_the_canonical_document(a3_cone, capsys):
    # the first quartic model through the console script, as CI runs it: the
    # A3 cone as model_to_dict writes it, validated and scanned (no fiber
    # count is pinned: multistart Newton is not complete on it)
    path = REPO / "tests" / "data" / "a3-cone.json"
    doc = json.loads(path.read_text())
    assert doc == serialize.model_to_dict(a3_cone)
    for op in ("validate", "singular-scan"):
        assert main([op, "--model", str(path)]) == 0
    capsys.readouterr()


def test_standalone_matrix_oracle(tmp_path, capsys):
    code, task = _standalone_task(["matrix-model", "--oracle-q", "1,2,3,4"], tmp_path)
    capsys.readouterr()
    assert code == 0
    assert task["numbers"]["t"] == 30 and task["numbers"]["rank_a"] == 1


def test_standalone_solve_fiber_in_the_inf_chart(tmp_path, capsys):
    # w = 0.5 is z = 2, where the values (1, 1, 1) read 2^2 * (1, 1, 1)
    code, inf = _standalone_task(["solve-fiber", "--zeta", "inf:0.5",
                                  "--point", "1,1,1"], tmp_path)
    assert code == 0
    code, std = _standalone_task(["solve-fiber", "--zeta", "2",
                                  "--point", "4,4,4"], tmp_path)
    capsys.readouterr()
    assert code == 0
    assert inf["numbers"] == std["numbers"] and inf["numbers"]["count"] == 2
    assert np.allclose(inf["evidence"]["solutions"], std["evidence"]["solutions"],
                       rtol=0, atol=1e-12)


def test_scenario_solves_its_fiber_tasks_in_batches(monkeypatch, capsys):
    # the solve-fiber tasks on one model object with an equal config share
    # one solve_fibers call, in task order; a task seed, a task model or a
    # wrong value count starts a batch of its own.  Every record is the one
    # the task writes alone
    calls = []
    original = cli.solve_fibers

    def counting(model, points, targets, cfg=None):
        calls.append((model.name, [list(t) for t in targets], cfg.seed))
        return original(model, points, targets, cfg)

    monkeypatch.setattr(cli, "solve_fibers", counting)
    doubled = {"file": str(REPO / "tests" / "data" / "doubled-quadric.json")}
    tasks = [{"op": "solve-fiber", "zeta": 2, "point": [4, 4, 4]},
             {"op": "validate"},
             {"op": "solve-fiber", "zeta": 0.5, "point": [1, 1, 1], "seed": 3},
             {"op": "solve-fiber", "model": doubled, "zeta": [0.4, -0.3],
              "point": [4, 1, 2], "expect": {"count": 2}},
             {"op": "solve-fiber", "zeta": [0.4, -0.3], "point": [4, 1, 2]},
             {"op": "solve-fiber", "zeta": 0.5, "point": [1, 1, 1], "seed": 3}]
    doc = {"model": "quadric", "seed": 1, "tasks": tasks}
    report = run_scenario_doc(doc)
    assert [(seed, targets) for _, targets, seed in calls] == [
        (1, [[4, 4, 4], [4, 1, 2]]), (3, [[1, 1, 1], [1, 1, 1]]), (1, [[4, 1, 2]])]
    for task, record in zip(tasks, report["tasks"]):
        (alone,) = run_scenario_doc({**doc, "tasks": [task]})["tasks"]
        assert dump_report(alone) == dump_report(record)
    assert report["tasks"][3]["status"] == "pass"
    capsys.readouterr()


@pytest.mark.parametrize("points,message", [
    ([[1, 1, 1], [1, 1], [1, 2, 1]], "value count"),
    ([[1, 1, 1], [1, 2, 1], [1, 1]], "does not satisfy the fiber equations"),
    ([[1, 1, 1], ["1e400", 1, 1], [1, 2, 1]], "must be finite")])
def test_scenario_fiber_batches_raise_at_each_tasks_turn(points, message, capsys):
    # a batch solves later targets early, but each error, a refusal or a
    # wrong value count, is raised at its own task's turn
    doc = {"model": "quadric", "exact": True,
           "tasks": [{"op": "solve-fiber", "point": p} for p in points]}
    with pytest.raises(TwistorCheckError, match=message):
        run_scenario_doc(doc)
    capsys.readouterr()


def test_inline_model_classifies_as_its_builtin(deformed, capsys):
    builtin = {"builtin": "deformed", "lambda": [[0, 1], [0, 0], [0, -1]],
               "reality": "antireal"}
    inline = {"inline": serialize.model_to_dict(deformed)}
    numbers = [run_scenario_doc({"model": model, "seed": 1,
                                 "tasks": [{"op": "classify"}]})["tasks"][0]["numbers"]
               for model in (builtin, inline)]
    capsys.readouterr()
    assert numbers[0] == numbers[1]
    assert numbers[0] == {"verdict": "WeaklyHypercomplex", "family_dimension": 2}


def test_standalone_quotient_census(capsys):
    code = main(["quotient-census", "--group", "Q8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "classes=2" in out and "predicate=False" in out


def test_standalone_normal_bundle(capsys):
    code = main(["normal-bundle", "--model", "quadric",
                 "--section", "1,0,0,0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "splitting=[1, 1]" in out and "h0=4" in out and "h0_minus2=0" in out


def test_standalone_classify_deformed(capsys):
    code = main(["classify", "--model", "deformed", "--lam", "1j,0,-1j",
                 "--reality", "antireal", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict=WeaklyHypercomplex" in out


def test_console_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "twistorcheck.cli",
                           "quotient-census", "--group", "Z3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "component_count=1" in proc.stdout


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_2_without_a_traceback(unbuffered):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # the first print meets the closed pipe, else the final flush
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "twistorcheck.cli",
                               "solve-fiber", "--model", "quadric", "--point", "1,1,1"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "Broken pipe" not in proc.stderr


def test_scenario_loader_validates():
    doc = load_scenario(str(FIXTURES / "quadric-full.json"))
    assert doc["tasks"][0]["op"] == "validate"


def test_model_file_interface(tmp_path, capsys):
    from twistorcheck import build_deformed
    from twistorcheck.serialize import save_model_file
    mpath = tmp_path / "model.json"
    save_model_file(build_deformed([1j, 0, -1j], "antireal"), str(mpath))
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({
        "model": {"file": str(mpath)}, "seed": 2,
        "tasks": [{"op": "validate", "expect": {"passed": True}},
                  {"op": "classify",
                   "expect": {"verdict": "WeaklyHypercomplex"}}]}))
    assert run_scenario(str(scen)) == 0
    capsys.readouterr()


def test_group_file_interface(tmp_path, capsys):
    gpath = tmp_path / "group.json"
    gpath.write_text(json.dumps({
        "name": "Z2", "quaternions": [[1, 0, 0, 0], [-1, 0, 0, 0]]}))
    code = main(["quotient-census", "--group-file", str(gpath)])
    out = capsys.readouterr().out
    assert code == 0
    assert "component_count=2" in out

    tpath = tmp_path / "table.json"
    tpath.write_text(json.dumps({
        "name": "Z3-table", "identity": 0,
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    code = main(["quotient-census", "--group-file", str(tpath)])
    out = capsys.readouterr().out
    assert code == 0
    assert "component_count=1" in out and "predicate=True" in out


def test_report_dump_is_stable():
    rep = {"b": 1, "a": [1.5, {"z": complex(1, 2)}]}
    assert dump_report(rep) == dump_report(rep)


def test_report_dump_spells_values_and_keys_as_jsonable():
    # library values are encoded as the encoder meets them, and a report
    # with a non-string key is spelled and sorted by str() as before
    cases = [
        {"f": Fraction(1, 3), "g": GaussianRational(1, Fraction(2)),
         "n": [np.float32(1.5), np.int64(3), np.bool_(True), np.float64(0.1)],
         "arr": np.array([[1, 2], [3, 4]]), "carr": np.array([1 + 2j, 3]),
         "t": (1, (2, 3)), "special": [float("nan"), float("inf"), None, True]},
        {10: "a", 9: "b"}, {True: 1, False: 2}, {None: 1}, {(1, 2): 3},
        {1.5: 1, float("inf"): 2}, {"x": [{3: 4, 12: 5}]}, {"mix": {1: 2, "a": 3}},
        {"key": {np.bool_(True): 1}}]
    for rep in cases:
        assert dump_report(rep) == json.dumps(jsonable(rep), sort_keys=True,
                                              indent=2) + "\n"


def test_numpy_integers_and_bools_keep_their_json_type():
    assert encode_scalar(np.int64(3)) == 3 and type(encode_scalar(np.int64(3))) is int
    assert encode_scalar(np.bool_(True)) is True
    assert jsonable([np.int64(3), np.bool_(True)]) == [3, True]
    assert dump_report({"n": np.int64(3), "b": np.bool_(True)}) == (
        '{\n  "b": true,\n  "n": 3\n}\n')


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-5, 1e300,
                   5e-324, 2.5e-310, 1e16, 0.1]
# keys whose str() collide: the last one written wins, as in jsonable
_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(
    [1, "1", True, "True", None, "None", 1.5, "1.5", float("nan"), "nan",
     (1, 2), "(1, 2)", 10, 9, "10", np.int64(9), np.float64(2.5), "2.5"]))
_FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))
_REPORT_LEAVES = st.one_of(
    _FLOATS, st.integers(), st.integers(min_value=10 ** 30, max_value=10 ** 60),
    st.booleans(), st.none(),
    st.text(), st.sampled_from(["", "\x00\x1f\x7f\"\\/", "é\u2028ж", "\U0001d11e😀"]),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.complex_numbers(), st.fractions(),
    st.builds(GaussianRational, st.fractions(), st.fractions()),
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(st.complex_numbers(), max_size=3).map(np.array),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(
        lambda v: np.array(v).reshape(2, 2)))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.recursive(_REPORT_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4)), max_leaves=25))
def test_report_dump_equals_json_dumps_of_jsonable(tree):
    assert dump_report(tree) == json.dumps(jsonable(tree), sort_keys=True,
                                           indent=2) + "\n"


def test_report_rewrite_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("x" * 5000 + "\n")
    serialize.write_report({"short": [1, 2.5]}, str(path))
    assert path.read_bytes() == dump_report({"short": [1, 2.5]}).encode()


def test_report_parent_directories_are_created(tmp_path):
    path = tmp_path / "a" / "b" / "report.json"
    serialize.write_report({"x": 1}, str(path))
    assert path.read_text() == dump_report({"x": 1})


def test_report_target_that_is_a_directory_exits_2(tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"model": "quadric",
                                "tasks": [{"op": "validate"}]}))
    target = tmp_path / "reports"
    target.mkdir()
    assert run_scenario(str(scen), str(target)) == 2
    assert "scenario error:" in capsys.readouterr().err
    assert list(target.iterdir()) == []


def test_report_to_devnull_exits_0(tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"model": "quadric",
                                "tasks": [{"op": "validate"}]}))
    assert run_scenario(str(scen), os.devnull) == 0
    assert "scenario error:" not in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_report_streams_through_a_pipe(tmp_path):
    # --out /dev/stdout is the way to stream a report: the pipe cannot seek
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"model": "quadric",
                                "tasks": [{"op": "validate"}]}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "twistorcheck.cli", "run",
                           str(scen), "--out", "/dev/stdout"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    start, end = proc.stdout.index("{\n"), proc.stdout.index("\n}\n") + 3
    assert json.loads(proc.stdout[start:end])["summary"]["pass"] == 1


def test_group_file_without_elements_exits_2(tmp_path, capsys):
    gpath = tmp_path / "group.json"
    gpath.write_text(json.dumps({"name": "nothing"}))
    assert main(["quotient-census", "--group-file", str(gpath)]) == 2
    assert "'quaternions' or 'table'" in capsys.readouterr().err


def test_model_file_without_rules_exits_2(tmp_path, capsys):
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps({"degrees": [1, 1]}))
    assert main(["validate", "--model", str(mpath)]) == 2
    assert "'rules'" in capsys.readouterr().err


def test_negative_bundle_degree_exits_2(tmp_path, capsys):
    # a basis of O(-2) used to fail with an IndexError, which exited 1
    doc = {"degrees": [-2], "rules": [{"target": 0, "sign": 1}]}
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(doc))
    assert main(["validate", "--model", str(mpath)]) == 2
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps({"model": {"inline": doc}, "tasks": [{"op": "validate"}]}))
    assert main(["run", str(spath)]) == 2
    assert capsys.readouterr().err.count("bundle degree -2 is negative") == 2


def test_solutions_beyond_the_float_range_exit_2(capsys):
    # the two sections have entries of about 2·1e308; the report used to
    # carry -Infinity, which is not JSON, and exit 0
    assert main(["solve-fiber", "--model", "quadric", "--zeta", "0",
                 "--point", "1e308,1e308,1e308"]) == 2
    captured = capsys.readouterr()
    assert "overflow the float range" in captured.err and captured.out == ""


@pytest.mark.parametrize("point", ["1e200,1e200,3e200", "1e160,1e160,1e160"])
def test_fiber_values_beyond_the_fiber_test_exit_2(point, capsys):
    # the deformed model is solved at the target's own scale, where
    # 1 + sum |v|^2 overflows; this used to print numpy overflow warnings and
    # report "0 sections, complete" with exit 0
    assert main(["solve-fiber", "--model", "deformed", "--lam", "1j,0,-1j",
                 "--reality", "antireal", "--zeta", "0.3", "--point", point]) == 2
    captured = capsys.readouterr()
    assert "too large" in captured.err and captured.out == ""


@pytest.mark.parametrize("model,point", [("a2-cone", "2e102,4e102,2e68"),
                                         ("a3-cone", "1e80,1.6e81,2e40")])
def test_newton_values_beyond_the_degree_bound_exit_2(model, point, capsys):
    # Newton on these cones used to overflow in matmul, print the warning
    # and report "count=0"
    path = REPO / "tests" / "data" / f"{model}.json"
    assert main(["solve-fiber", "--model", str(path), "--zeta", "0.4-0.3j",
                 "--point", point]) == 2
    captured = capsys.readouterr()
    assert "too large" in captured.err and captured.out == ""


def test_matrix_model_needs_the_quadric_layout(tmp_path, capsys):
    # nine parameters in another layout (the self-paired model of
    # test_quadric_tuples_only_in_the_quadric_layout) are no quadric section:
    # matrix-model refuses them as params, as it refuses coefficient tuples
    path = REPO / "tests" / "data" / "self-paired.json"
    model = serialize.load_model_file(str(path))
    assert model.nparams == 9 and not model.quadric_layout
    params = ["--params", "1,0,0,0,0,0,0,0,1"]
    assert main(["matrix-model", "--model", str(path), *params]) == 2
    assert "matrix models require the quadric parameter layout" in capsys.readouterr().err
    assert main(["matrix-model", "--model", "quadric", *params]) == 0
    # the oracle reads no model; without a model the params are taken as given
    code, task = _standalone_task(["matrix-model", "--model", str(path),
                                   "--oracle-q", "1,2,3,4"], tmp_path)
    assert code == 0 and task["numbers"]["rank_a"] == 1
    report = run_scenario_doc({"tasks": [{"op": "matrix-model",
                                          "params": [1, 0, 0, 0, 0, 0, 0, 0, 1]}]})
    assert report["tasks"][0]["numbers"]["label"] == 1
    capsys.readouterr()


def test_cone_glue_default_rules_need_three_weights(capsys):
    assert main(["cone-glue", "--weights", "1,1"]) == 2
    assert "three weights" in capsys.readouterr().err


def test_standalone_out_writes_the_run_report_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["quotient-census", "--group", "Z2", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    golden = json.loads((REPORTS / "quotient-z2.json").read_text())
    assert report.keys() == golden.keys()
    assert report["config"] == golden["config"]
    assert report["tasks"][0]["numbers"] == golden["tasks"][0]["numbers"]


# README example arguments per subcommand (fixture arguments where the
# README gives none); models are swept over every builtin
SWEEP_ARGS = {
    "validate": [],
    "sections": [],
    "solve-fiber": ["--zeta", "0", "--point", "1,1,1", "--expect-count", "2"],
    "singular-scan": ["--samples", "200", "--seed", "1"],
    "branch": ["--section", "1,0,0,0,1"],
    "normal-bundle": ["--section", "1,0,0,0,1"],
    "classify": ["--seed", "1"],
    "matrix-model": ["--section", "1,0,0,0,1"],
    "quotient-census": ["--group", "Q8"],
    "cone-glue": ["--weights", "1,1,1", "--l", "2", "--compare", "quadric"],
}
# float cases keep their "<command>-<model>" ids; --exact cases add "-exact"
SWEEP = [pytest.param(command, model, exact,
                      id=f"{command}-{model}" + ("-exact" if exact else ""))
         for exact in (False, True) for command, op in OPS.items()
         for model in (("quadric", "deformed", "smooth-o11") if op.model
                       else (None,))]


@pytest.mark.parametrize("command,model,exact", SWEEP)
def test_float_cli_sweep_honours_exit_contract(command, model, exact, capsys):
    argv = [command] + SWEEP_ARGS[command] + (["--exact"] if exact else [])
    if model is not None:
        argv += ["--model", model]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.out + captured.err
    assert (code == 1) == ("[FAIL]" in captured.out), captured.out


def _extreme_argv(command, key, value, model):
    """The sweep's flags of ``command``, less --expect-count and the other
    flags of the key's required group, with the flag of ``key`` set from
    ``value``: a section (value, 0, 0, 0, value), params, a point or a q of
    the model's width led and ended by value, or value itself; --tol when
    the op takes no number."""
    op, flags = OPS[command], SWEEP_ARGS[command]
    flags = dict(zip(flags[::2], flags[1::2]))
    flags.pop("--expect-count", None)
    if key is None:
        flags["--tol"] = value
    else:
        arg, built = op.args[key], cli.build_model_from_spec(model or "quadric")
        for other in op.args.values():
            if arg.required and other.required == arg.required:
                flags.pop(other.flag, None)
        width = {"section": 5, "params": built.nparams, "oracle_q": 4,
                 "point": len(built.degrees)}.get(key, 1)
        numbers = [value] + ["0"] * (width - 2) + [value] if width > 1 else [value]
        flags[arg.flag] = ",".join(numbers)
    if model:
        flags["--model"] = model
    return [token for pair in flags.items() for token in pair]


# 0, 1e±300, and exact 1e±400, through every numeric flag of every op
EXTREMES = [("0", False), ("1e300", False), ("1e-300", False), ("1e400", True),
            ("1e-400", True)]
# the deformed model is no cone, so a section keeps its size, and float
# membership's 1 + Σx² overflows with a RuntimeWarning
_NON_CONE_OVERFLOW = pytest.mark.xfail(
    strict=True, raises=RuntimeWarning,
    reason="ROADMAP item 6: float membership overflows on a deformed section of size 1e300")
EXTREME_SWEEP = [
    pytest.param(command, key, value, exact, model,
                 id=f"{command}-{key or 'tol'}-{value}-{model}",
                 marks=[_NON_CONE_OVERFLOW] if (model, value) == ("deformed", "1e300")
                 and command in ("branch", "normal-bundle") and key != "zeta" else [])
    for command, op in OPS.items()
    for key in ([k for k, a in op.args.items()
                 if a.kind in ("section", "reals", "point", "zeta")] or [None])
    for value, exact in EXTREMES
    for model in (("quadric", "deformed", "smooth-o11") if op.model else (None,))]


@pytest.mark.parametrize("command,key,value,exact,model", EXTREME_SWEEP)
def test_every_op_honours_the_exit_contract_at_extreme_sizes(command, key, value, exact,
                                                             model, capsys):
    # ROADMAP item 17: exit 0 or 2, never a traceback (exit 1 or an
    # exception); the suite turns numpy's RuntimeWarnings into errors
    argv = [command] + _extreme_argv(command, key, value, model) + (["--exact"] if exact
                                                                    else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err


def test_exact_matrix_model_rejects_a_non_square_modulus(capsys):
    argv = ["matrix-model", "--exact", "--section", "1+i,0,0,0,1", "--label", "1"]
    assert main(argv) == 2
    assert "exact rational square" in capsys.readouterr().err


@pytest.mark.parametrize("label", [["--label", "1"], []], ids=["label", "no-label"])
def test_exact_matrix_model_beyond_the_float_range_exits_2(label, capsys):
    # a valid section of size 1e400: float(t) (with a label) and the float
    # component label (without one) used to raise OverflowError, exit 1
    argv = ["matrix-model", "--exact", "--section", "1e400,0,0,0,1e400", *label]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "float range" in captured.err and "Traceback" not in captured.err


def test_float_matrix_model_command_near_the_float_range(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["matrix-model", "--section", "1e200,0,0,0,1e200", "--out", str(out)]) == 0
    capsys.readouterr()
    numbers = json.loads(out.read_text())["tasks"][0]["numbers"]
    assert numbers["label"] == 1 and numbers["t"] == pytest.approx(1e200, rel=1e-15)


def test_section_commands_read_the_unit_section(tmp_path, capsys):
    # the quadric is a cone: a section's verdicts are those of its ray, at
    # 1e200 without a numpy warning (the suite turns them into errors) and
    # exactly at 1e400; these read "branched", the origin or "degenerate",
    # or exited 1 with OverflowError
    def numbers(*argv):
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        return json.loads(out.read_text())["tasks"][0]["numbers"]

    branch = numbers("branch", "--section", "1,0,0,0,1", "--zeta", "0.3")
    normal = numbers("normal-bundle", "--section", "1,0,0,0,1")
    assert branch == {"verdict": "unbranched", "rank": 9}
    assert normal["splitting"] == [1, 1]
    assert numbers("branch", "--section", "1e200,0,0,0,1e200", "--zeta", "0.3") == branch
    assert numbers("branch", "--exact", "--section", "1e400,0,0,0,1e400",
                   "--zeta", "0.3") == branch
    assert numbers("normal-bundle", "--exact", "--section", "1e400,0,0,0,1e400") == normal
    assert numbers("normal-bundle", "--section", "1e-100,0,0,0,1e-100") == normal
    tiny = numbers("matrix-model", "--section", "1e-12,0,0,0,1e-12")
    assert tiny["label"] == 1 and tiny["t"] == 1e-12
    assert capsys.readouterr().err == ""


def test_matrix_model_float_params_ignore_the_exact_flag(tmp_path, capsys):
    # float params take the float path in either mode, as branch and normal-bundle do
    reports = []
    for flag in ([], ["--exact"]):
        out = tmp_path / f"report{len(reports)}.json"
        argv = ["matrix-model", "--params", "0.3,0.4,0,0,0,0,0,0,0.5",
                "--out", str(out)] + flag
        assert main(argv) == 0
        reports.append(json.loads(out.read_text())["tasks"][0])
    capsys.readouterr()
    assert reports[0]["numbers"] == reports[1]["numbers"]
    assert reports[0]["numbers"]["t"] == 0.5
    assert reports[0]["evidence"] == reports[1]["evidence"]


def test_exact_sections_decode_exactly(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["matrix-model", "--exact", "--section", "1/4,0,0,0,1/4",
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    evidence = json.loads(out.read_text())["tasks"][0]["evidence"]
    assert evidence["b"][0] == ["3/16", "0", "0", "0"]


def test_planted_point_in_the_std_chart_far_from_zero(capsys):
    # a section of the quadric evaluated at zeta = 20 in the standard chart
    point = "12.749999999999996+35j,308.05-414.12j,-137.2-20.050000000000008j"
    assert main(["solve-fiber", "--model", "quadric", "--zeta", "20",
                 "--point", point, "--expect-count", "2"]) == 0
    assert "count=2" in capsys.readouterr().out


# a fuzzed fixture task replaces one value by one of these, or drops the key
MUTATIONS = [5, [1], "x", {}, None]
FIXTURE_TASKS = [(doc, i) for doc in (json.loads((FIXTURES / name).read_text())
                                      for name in ALL_FIXTURES)
                 for i in range(len(doc["tasks"]))]


@settings(max_examples=150, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_fixture_tasks_honour_exit_contract(data, tmp_path, capsys):
    doc, index = data.draw(st.sampled_from(FIXTURE_TASKS))
    task = dict(doc["tasks"][index])
    key = data.draw(st.sampled_from(sorted(task)))
    mutation = data.draw(st.integers(0, len(MUTATIONS)))
    if mutation == len(MUTATIONS):
        del task[key]
    else:
        task[key] = MUTATIONS[mutation]
    scenario = {k: v for k, v in doc.items() if k not in ("tasks", "out")}
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({**scenario, "tasks": [task]}))
    code = run_scenario(str(path))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert (code == 1) == ("[FAIL]" in captured.out), captured.out + captured.err


def _schema_rows(schema):
    """README table rows of a schema: key, type, default, required, flag."""
    rows = []
    for key, arg in schema.items():
        group = [f"`{k}`" for k, a in schema.items() if a.required == arg.required]
        required = ("yes" if arg.required is True else
                    "one of " + ", ".join(group) if arg.required else "no")
        default = "—" if arg.default is None else f"`{json.dumps(arg.default)}`"
        flag = f"`{arg.flag}`" if arg.flag else "—"
        rows.append(f"| `{key}` | {arg.kind} | {default} | {required} | {flag} |")
    return rows


def _readme_tables():
    """The rows of each '#### `name`' table in the README."""
    tables, name = {}, None
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith("#### `"):
            name = line[6:-1]
            tables[name] = []
        elif name and line.startswith("| `"):
            tables[name].append(line)
    return tables


def test_readme_tables_match_the_schema():
    schemas = {"scenario": cli.SCENARIO, "tolerances": cli.TOLERANCE_ARGS,
               "every task": cli.COMMON, "model object": cli.MODEL,
               "zeta object": cli.ZETA, "monomial": cli.MONOMIAL, "rule": cli.RULE}
    schemas.update({name: op.args for name, op in OPS.items() if op.args})
    tables = _readme_tables()
    assert tables.keys() == schemas.keys()
    for name, schema in schemas.items():
        assert tables[name] == _schema_rows(schema), name
        for arg in schema.values():
            assert arg.kind in cli.KINDS
    readme = (REPO / "README.md").read_text()
    assert all(f"`{kind}`: " in readme for kind in cli.KINDS)


def test_every_subcommand_flag_sets_a_key_of_its_op():
    common = {"-h", "--help", "--model", "--lam", "--reality", "--exact", "--tol",
              "--seed", "--out"}
    subparsers = next(a for a in cli.build_parser()._actions
                      if a.dest == "command").choices
    for name, op in OPS.items():
        flags = {flag: action.dest for action in subparsers[name]._actions
                 for flag in action.option_strings if flag not in common}
        assert flags == {arg.flag: key for key, arg in op.args.items() if arg.flag}
