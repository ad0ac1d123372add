"""Command line contract: scenarios, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from twistorcheck.cli import OPS, main, run_scenario
from twistorcheck.serialize import dump_report, load_scenario

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
])
def test_malformed_scenario_fields_exit_2(fields, message, tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps({"model": "quadric", "tasks": [{"op": "validate"}],
                                **fields}))
    assert run_scenario(str(scen)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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


def test_exact_matrix_model_rejects_a_non_square_modulus(capsys):
    argv = ["matrix-model", "--exact", "--section", "1+i,0,0,0,1", "--label", "1"]
    assert main(argv) == 2
    assert "exact rational square" in capsys.readouterr().err


def test_exact_sections_decode_exactly(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["matrix-model", "--exact", "--section", "1/4,0,0,0,1/4",
            "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    evidence = json.loads(out.read_text())["tasks"][0]["evidence"]
    assert evidence["b"][0] == ["3/16", "0", "0", "0"]
