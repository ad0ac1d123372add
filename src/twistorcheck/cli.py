"""Scenario-driven command line front end.

Usage:
    twistorcheck run scenario.json [--out report.json]
    twistorcheck solve-fiber --model quadric --zeta 0 --point 1,1,1
    twistorcheck quotient-census --group Q8

Every op lives in the ``OPS`` table: its function, whether it reads a model,
whether it samples, and the schema of its task keys with their subcommand
flags.  A standalone subcommand runs as a one-task scenario, so ``--out``
writes the same report schema as ``run``; a human summary goes to stdout.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analysis import (SolveConfig, branch_test, classify_hypercomplex,
                       component_label, normal_splitting,
                       rank_one_matrix_oracle, sample_sections, singular_scan,
                       solve_fibers, sym_matrix_model)
from .errors import FiberError, ScenarioError, TwistorCheckError
from .models import (build_deformed, build_quadric, build_smooth_o11,
                     glue_cone_twistor, models_structurally_equal,
                     quadric_params, quadric_tuple, validate_model)
from .projline import P1Point, SigmaCoordRule
from .quotients import (builtin_group, closure_equals_quotient,
                        component_count, involution_census)
from .scalars import certifies
from .serialize import (decode_scalar, jsonable, load_group_file,
                        load_model_file, load_scenario, model_from_dict,
                        write_report)

# Argument schema.  Every key a scenario may hold is declared once, as an
# Arg of a kind from KINDS.  _check_ops decodes a whole scenario against it
# before the first task runs, so each op receives decoded arguments.

class Arg(NamedTuple):
    kind: str                      # a KINDS name
    default: object = None         # decoded like a given value; None: none
    required: bool | str = False   # a string names a group: one of its keys is needed
    flag: str | None = None        # the subcommand flag that sets the key


def _given(ok: bool, value):
    """The value, or the TypeError that _decode reports as a wrong kind."""
    if not ok:
        raise TypeError
    return value


def _list(value) -> list:
    return _given(isinstance(value, list), value)


def _tokens(value, read) -> list:
    """A JSON list, or a comma-separated string's tokens each read by ``read``."""
    if isinstance(value, str):
        return [read(t) for t in value.split(",") if t.strip()]
    return _list(value)


def _complex(token, exact: bool):
    """One complex number in the given mode: a number, an [re, im] pair, or a
    string such as '1/2-i'; float strings also take Python's syntax ('1e-3j')."""
    try:
        x = complex(_given(isinstance(token, str) and not exact, token))
    except (TypeError, ValueError):
        x = decode_scalar(_given(not isinstance(token, bool), token), exact)
    return x if exact else _given(cmath.isfinite(x), x)


def _section_tuple(value, exact: bool):
    """The parameters of a quadric section from its coefficient tuple."""
    vals = [_complex(t, exact) for t in _tokens(value, str)]
    return quadric_params(*_given(len(vals) == 5, vals), exact=exact)


def _zeta(value, exact):
    """A base point, always read in float mode."""
    if isinstance(value, dict):
        return P1Point(**_decode(value, ZETA, "a zeta", False))
    text = value.strip() if isinstance(value, str) else ""
    if text == "inf" or text.startswith("inf:"):
        return P1Point.inf(_complex(text[4:] if text != "inf" else 0, False))
    return _complex(value, False)


def build_model_from_spec(spec, exact: bool = False):
    """The model a spec names: a builtin name, a .json file name, or an
    object; a builtin object may set its own mode with "exact"."""
    if isinstance(spec, str):
        spec = {"file" if spec.endswith(".json") else "builtin": spec}
    if not isinstance(spec, dict):
        raise ScenarioError("a model is a builtin name, a file name or an object")
    spec = _decode(spec, MODEL, "a model", exact)
    if "file" in spec:
        return load_model_file(spec["file"])
    if "inline" in spec:
        return model_from_dict(spec["inline"])
    exact = spec.get("exact", exact)
    name = spec["builtin"]
    if name == "quadric":
        return build_quadric(exact=exact)
    if name in ("smooth-o11", "smooth"):
        return build_smooth_o11(exact=exact)
    if name == "deformed":
        return build_deformed(spec["lambda"], spec["reality"], exact=exact)
    raise ScenarioError(f"unknown builtin model {name!r}")


# kind -> (what a value must be, decoder (value, exact mode) -> decoded value)
KINDS = {
    "count": ("a non-negative integer",
              lambda v, x: _given(type(v) is int and v >= 0, v)),
    "int": ("an integer", lambda v, x: _given(type(v) is int, v)),
    "bool": ("true or false", lambda v, x: _given(type(v) is bool, v)),
    "str": ("a string", lambda v, x: _given(isinstance(v, str), v)),
    "chart": ("a zeta chart: std or inf", lambda v, x: _given(v in ("std", "inf"), v)),
    "object": ("an object", lambda v, x: _given(isinstance(v, dict), v)),
    "positive": ("a finite positive number", lambda v, x: float(_given(
        type(v) in (int, float) and 0 < v <= sys.float_info.max, v))),
    "counts": ("a list of non-negative integers", lambda v, x: [
        _given(type(n) is int and n >= 0, n) for n in _tokens(v, int)]),
    "reals": ("a list of finite real numbers", lambda v, x: [
        _given(type(t) in (int, float) and math.isfinite(t), float(t))
        for t in _tokens(v, float)]),
    "point": ("a list of complex numbers",
              lambda v, x: [_complex(t, x) for t in _tokens(v, str)]),
    "section": ("a quadric coefficient tuple x0, x1, x2, z0, r", _section_tuple),
    "scalar": ("a complex number", _complex),
    "zeta": ('"inf", "inf:<w>", a complex number, a zeta pair [re, im] or '
             '{chart, value}', _zeta),
    "model": ("a builtin name, a file name or an object", build_model_from_spec),
    # monomials as (exponents, coeff) and rules as SigmaCoordRule(target, sign, twist)
    "equations": ("a list of monomial lists", lambda v, x: [
        [tuple(_decode(m, MONOMIAL, "a monomial", False).values()) for m in _list(eq)]
        for eq in _list(v)]),
    "rules": ("a list of {target, sign, twist} rules", lambda v, x: tuple(
        SigmaCoordRule(*_decode(r, RULE, "a rule", False).values()) for r in _list(v))),
    "group": ("a builtin group name: Z<n>, BD<4n> or Q8",
              lambda v, x: builtin_group(_given(isinstance(v, str), v))),
    "group-file": ("a JSON file with 'quaternions' or a 'table'",
                   lambda v, x: load_group_file(_given(isinstance(v, str), v))),
    "tolerances": ("an object of tolerances",
                   lambda v, x: _decode(v, TOLERANCE_ARGS, "'tolerances'", x)),
    "tasks": ("a non-empty task list", lambda v, x: list(_given(bool(v), _list(v)))),
}


def _decode(obj, schema: dict, what: str, exact: bool) -> dict:
    """Check an object against its schema and decode every value; an absent
    key takes its default, if it has one.  A decoded "exact" key sets the
    mode of the keys after it."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{what} must be an object")
    unknown = sorted(set(obj) - set(schema))
    if unknown:
        raise ScenarioError(f"unknown key {unknown[0]!r} in {what}; "
                            f"expected one of {', '.join(schema)}")
    for group in {a.required for a in schema.values()} - {True, False}:
        keys = [k for k, a in schema.items() if a.required == group]
        if not any(k in obj for k in keys):
            raise ScenarioError(f"{what} needs {' or '.join(map(repr, keys))}")
    out = {}
    for key, arg in schema.items():
        if key not in obj and arg.required is True:
            raise ScenarioError(f"{what} needs {key!r}")
        if key not in obj and arg.default is None:
            continue
        value = obj.get(key, arg.default)
        desc, decode = KINDS[arg.kind]
        try:
            out[key] = decode(_given(value is not None, value), exact)
        except (TypeError, ValueError, LookupError, ArithmeticError) as exc:
            got = json.dumps(value, default=repr)[:60]
            why = f" ({exc})" if str(exc) else ""
            raise ScenarioError(f"{key!r} must be {desc}, got {got}{why}") from None
        if key == "exact" and key in obj:
            exact = out[key]
    return out


# the SolveConfig fields a scenario's "tolerances" object may set
TOLERANCES = ("tol", "rank_rtol", "newton_tol", "dedup_radius", "fiber_tol")
TOLERANCE_ARGS = {key: Arg("positive") for key in TOLERANCES}
SCENARIO = {"exact": Arg("bool", False), "seed": Arg("count"),
            "tolerances": Arg("tolerances", {}), "model": Arg("model"),
            "out": Arg("str"), "tasks": Arg("tasks", required=True)}
# the keys of every task; a task's own model and seed replace the scenario's
COMMON = {"op": Arg("str", required=True), "expect": Arg("object"),
          "model": Arg("model"), "seed": Arg("count")}
MODEL = {"builtin": Arg("str", "quadric"), "file": Arg("str"),
         "inline": Arg("object"), "exact": Arg("bool"),  # decoded before "lambda"
         "lambda": Arg("point", ["i", "0", "-i"]), "reality": Arg("str", "antireal")}
ZETA = {"chart": Arg("chart", "std"), "value": Arg("scalar", 0.0)}
MONOMIAL = {"exponents": Arg("counts", required=True),
            "coeff": Arg("scalar", required=True)}
RULE = {"target": Arg("count", required=True), "sign": Arg("int", required=True),
        "twist": Arg("int", required=True)}


# Op functions: (decoded task args, model or None, config) -> (numbers, evidence).

def _op_validate(args, model, cfg):
    rep = validate_model(model)
    return ({"passed": rep.passed,
             "dimension": rep.info.get("real_parameter_dimension")},
            {"failures": rep.failures, "notes": rep.notes,
             "equation_signs": rep.equation_signs})


def _op_sections(args, model, cfg):
    basis = model.section_basis
    return ({"dimension": basis.nparams},
            {"parameters": basis.param_names, "forms": basis.describe()})


def _op_solve_fiber(args, model, cfg):
    res = args["solved"]  # by run_scenario_doc, one solve_fibers call per batch
    if isinstance(res, FiberError):
        raise res
    numbers = {"count": len(res.solutions), "complete": res.complete,
               "family_dim": res.family.dim if res.family else 0}
    evidence = {"method": res.method,
                "solutions": [list(map(float, s)) for s in res.solutions]}
    if model.quadric_layout:
        evidence["solution_tuples"] = [quadric_tuple(s) for s in res.solutions]
    return numbers, evidence


def _op_singular_scan(args, model, cfg):
    rng = np.random.default_rng(cfg.seed)
    points = list(sample_sections(model, args["samples"], rng, cfg))
    if args["include_origin"]:
        points.append(np.zeros(model.nparams))
    rep = singular_scan(model, points, cfg)
    numbers = {"singular_count": len(rep.singular),
               "clusters": len(rep.clusters),
               "regular": rep.regular_count}
    return numbers, {"clusters": rep.clusters, "skipped": rep.skipped}


_QUADRIC_LAYOUT = "the quadric parameter layout (degrees 2, 2, 2 with the swap/minus rules)"


def _section(args, model):
    """The section's parameters, from 'params' or a quadric 'section'."""
    if "params" in args:
        return np.array(args["params"])
    if model is not None and not model.quadric_layout:
        raise ScenarioError(f"coefficient tuples require {_QUADRIC_LAYOUT}; "
                            "use 'params' otherwise")
    return args["section"]


def _op_branch(args, model, cfg):
    rep = branch_test(model, _section(args, model), args["zeta"], cfg)
    return {"verdict": rep.verdict, "rank": rep.rank}, {}


def _op_normal_bundle(args, model, cfg):
    rep = normal_splitting(model, _section(args, model), cfg)
    numbers = {
        "splitting": list(rep.splitting.degrees) if rep.splitting else None,
        "h0": rep.h0, "h0_minus2": rep.h0_minus2,
        "degenerate": bool(rep.degenerate)}
    evidence = {"degenerate_rows": rep.degenerate,
                "regular_point": rep.regular_point}
    return numbers, evidence


def _op_classify(args, model, cfg):
    cls = classify_hypercomplex(model, cfg)
    numbers = {"verdict": cls.verdict,
               "family_dimension": cls.evidence.get("family_dimension", 0)}
    return numbers, cls.evidence


def _op_matrix_model(args, model, cfg):
    if "oracle_q" in args:
        rep = rank_one_matrix_oracle(args["oracle_q"])
        numbers = {"t": float(rep.t), "trace_b": float(rep.trace_b),
                   "rank_a": rep.rank_a,
                   "displayed_form_residual": rep.displayed_residual_norm,
                   "product_identity_residual": rep.product_identity_norm}
        return numbers, {"b": rep.b}
    if model is not None and not model.quadric_layout:
        raise ScenarioError(f"matrix models require {_QUADRIC_LAYOUT}")
    section = _section(args, model)
    label = args.get("label")
    if label is None:
        lab = component_label(section)
        label = 1 if lab == "boundary" else lab
    b, t = sym_matrix_model(section, label, exact=certifies(True, section))
    numbers = {"t": float(t),
               "trace_b": float(np.trace(np.asarray(b, dtype=float))),
               "label": int(label)}
    return numbers, {"b": b}


def _op_quotient_census(args, model, cfg):
    group = args.get("group_file", args.get("group"))
    census = involution_census(group)
    count, flags = component_count(group)
    numbers = {"order": group.order, "involutions": len(census.involutions),
               "classes": census.class_count,
               "component_count": count,
               "predicate": closure_equals_quotient(group)}
    evidence = {"classes": census.classes, "assumptions": flags,
                "group": group.name}
    return numbers, evidence


def _op_cone_glue(args, model, cfg):
    weights, level, rules = args["weights"], args["l"], args.get("rules")
    if rules is None:
        if len(weights) != 3:
            raise ScenarioError("the default swap/minus rules need three "
                                "weights; give explicit rules otherwise")
        degs = [level * w for w in weights]
        rules = (SigmaCoordRule(1, 1, degs[0]), SigmaCoordRule(0, 1, degs[1]),
                 SigmaCoordRule(2, -1, degs[2]))
    glued = glue_cone_twistor(args["equations"], weights, level, rules)
    numbers = {"degrees": list(glued.degrees),
               "twists": [eq.twist for eq in glued.equations]}
    if "compare" in args:
        numbers["equals_builtin"] = models_structurally_equal(
            glued, args["compare"].float_view(),
            ignore_component_equations=True, tol=1e-12)
    return numbers, {"family": glued.family}


class _Op(NamedTuple):
    run: Callable          # op function, see above
    model: str | None      # "required", "optional", or None: no --model flag
    samples: bool = False  # draws random samples, so a seed is required
    args: dict = {}        # task keys beyond COMMON: key -> Arg


_SECTION = {"section": Arg("section", required="section", flag="--section"),
            "params": Arg("reals", required="section", flag="--params")}
_ZETA = Arg("zeta", "0", flag="--zeta")

OPS = {
    "validate": _Op(_op_validate, "required"),
    "sections": _Op(_op_sections, "required"),
    "solve-fiber": _Op(_op_solve_fiber, "required", args={
        "zeta": _ZETA, "point": Arg("point", required=True, flag="--point"),
        "expect": Arg("object", flag="--expect-count")}),
    "singular-scan": _Op(_op_singular_scan, "required", samples=True, args={
        "samples": Arg("count", SolveConfig.scan_samples, flag="--samples"),
        "include_origin": Arg("bool", True)}),
    "branch": _Op(_op_branch, "required", args={**_SECTION, "zeta": _ZETA}),
    "normal-bundle": _Op(_op_normal_bundle, "required", args=_SECTION),
    "classify": _Op(_op_classify, "required", samples=True),
    "matrix-model": _Op(_op_matrix_model, "optional", args={
        **_SECTION, "label": Arg("int", flag="--label"),
        "oracle_q": Arg("reals", required="section", flag="--oracle-q")}),
    "quotient-census": _Op(_op_quotient_census, None, args={
        "group": Arg("group", required="group", flag="--group"),
        "group_file": Arg("group-file", required="group", flag="--group-file")}),
    "cone-glue": _Op(_op_cone_glue, None, args={
        "weights": Arg("counts", [1, 1, 1], flag="--weights"),
        "l": Arg("count", 2, flag="--l"),
        "equations": Arg("equations", [[{"exponents": [1, 1, 0], "coeff": 1},
                                        {"exponents": [0, 0, 2], "coeff": -1}]],
                         flag="--equations-json"),
        "rules": Arg("rules", flag="--rules-json"),
        "compare": Arg("model", flag="--compare")}),
}


def execute_task(task: dict, args: dict, model, cfg: SolveConfig):
    """Run one task, given as written and as decoded; returns its record.

    A task with an ``expect`` object passes when every expected number
    matches; without one it is ``info``, unless its numbers carry their own
    ``passed`` verdict.
    """
    numbers, evidence = OPS[args["op"]].run(args, model, cfg)
    expect = args.get("expect")
    if expect:
        matched = all(jsonable(numbers.get(k)) == jsonable(v)
                      for k, v in expect.items())
        status = "pass" if matched else "fail"
    elif "passed" in numbers:
        status = "pass" if numbers["passed"] else "fail"
    else:
        status = "info"
    return {"op": args["op"],
            "inputs": jsonable({k: v for k, v in task.items()
                                if k not in ("op", "expect")}),
            "status": status,
            "numbers": jsonable(numbers),
            "evidence": jsonable(evidence)}


def _check_ops(doc) -> dict:
    """Check and decode a whole scenario before any task runs: the schema,
    plus a seed for every sampling op and a model for every op that needs one."""
    scenario = _decode(doc, SCENARIO, "the scenario", False)
    for i, task in enumerate(scenario["tasks"]):
        name = task.get("op") if isinstance(task, dict) else None
        if not (isinstance(name, str) and name in OPS):
            raise ScenarioError(f"unknown op {name!r}; ops are {', '.join(OPS)}")
        op = OPS[name]
        scenario["tasks"][i] = task = _decode(task, {**COMMON, **op.args},
                                              f"a {name!r} task", scenario["exact"])
        if op.samples and "seed" not in scenario and "seed" not in task:
            raise ScenarioError(f"op {name!r} samples and requires a seed")
        if op.model == "required" and "model" not in scenario and "model" not in task:
            raise ScenarioError(f"op {name!r} requires a model")
    return scenario


def _solve_fiber_batch(jobs, first: int) -> dict:
    """The results of the solve-fiber task jobs[first] and of every later one
    on the same model object with an equal config, by job index, from one
    solve_fibers call; each equals its one-target solve_fiber, or is the
    FiberError that refuses it.  A task whose point has the wrong value
    count forms a batch of its own, so that it raises at its own turn."""
    _, args, model, cfg = jobs[first]
    width, batch = len(model.degrees), [first]
    if len(args["point"]) == width:
        batch = [i for i, (_, a, m, c) in enumerate(jobs[first:], first)
                 if a["op"] == "solve-fiber" and m is model and c == cfg
                 and len(a["point"]) == width]
    results = solve_fibers(model, [jobs[i][1]["zeta"] for i in batch],
                           [tuple(jobs[i][1]["point"]) for i in batch], cfg)
    return dict(zip(batch, results))


def run_scenario_doc(doc: dict, out_path=None) -> dict:
    """Run a scenario: one stdout line per task, the report to its target.

    Returns the report; the caller turns its summary into the exit code.
    """
    scenario = _check_ops(doc)
    cfg = SolveConfig(seed=scenario.get("seed", 0), **scenario["tolerances"])
    jobs = [(task, args, args.get("model", scenario.get("model")),
             cfg if "seed" not in args else replace(cfg, seed=args["seed"]))
            for task, args in zip(doc["tasks"], scenario["tasks"])]
    records, solved = [], {}
    for i, (task, args, model, task_cfg) in enumerate(jobs):
        if args["op"] == "solve-fiber":
            if i not in solved:
                solved.update(_solve_fiber_batch(jobs, i))
            args = {**args, "solved": solved.pop(i)}
        records.append(execute_task(task, args, model, task_cfg))
    report = {
        "toolkit": {"name": "twistorcheck", "version": __version__},
        "mode": "exact" if scenario["exact"] else "float",
        "seed": scenario.get("seed"),
        "config": {k: v for k, v in vars(cfg).items() if k != "seed"},
        "scenario": doc,
        "tasks": records,
        "summary": {status: sum(r["status"] == status for r in records)
                    for status in ("pass", "fail", "info")},
    }
    for rec in records:
        marker = {"pass": "PASS", "fail": "FAIL", "info": "info"}[rec["status"]]
        brief = ", ".join(f"{k}={v}" for k, v in rec["numbers"].items())
        print(f"[{marker}] {rec['op']}: {brief}")
    target = out_path or scenario.get("out")
    if target:
        write_report(report, target)
        print(f"report written to {target}")
    return report


def _checked_run(scenario: Callable, out_path, prefix: str):
    """run_scenario_doc on scenario(), or None once the error that refuses
    the input (exit 2) is printed after ``prefix``."""
    try:
        return run_scenario_doc(scenario(), out_path)
    except BrokenPipeError:  # a closed stdout is handled by main
        raise
    except OverflowError as exc:  # an exact number the float numbers cannot hold
        print(f"{prefix}: a number is beyond the float range ({exc})", file=sys.stderr)
    except (TwistorCheckError, OSError, ValueError) as exc:
        print(f"{prefix}: {exc}", file=sys.stderr)
    return None


def run_scenario(path: str, out_path=None) -> int:
    """Execute a scenario file; exit code 0/1/2 per the contract."""
    report = _checked_run(lambda: load_scenario(path), out_path, "scenario error")
    return 2 if report is None else 1 if report["summary"]["fail"] else 0


def _add_common(parser, model=True):
    if model:
        parser.add_argument("--model", default="quadric",
                            help="builtin name (quadric|deformed|smooth-o11) or model file")
        parser.add_argument("--lam", help="deformation coefficients c0,c1,c2")
        parser.add_argument("--reality", default="antireal",
                            choices=["real", "antireal"])
    parser.add_argument("--exact", action="store_true",
                        help="exact rational arithmetic where supported")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the machine-readable report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistorcheck",
        description="Verification toolkit for twistor models over the projective line")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--out")

    for name, op in OPS.items():
        p = sub.add_parser(name)
        _add_common(p, model=op.model is not None)
        for key, arg in op.args.items():
            if arg.flag:  # --expect-count n sets expect to {"count": n}
                p.add_argument(arg.flag, dest=key, required=arg.required is True,
                               type=int if arg.kind in ("count", "int")
                               or key == "expect" else None)
    return parser


def _standalone_doc(ns) -> dict:
    """The one-task scenario a standalone subcommand stands for."""
    task = {"op": ns.command}
    for key, arg in OPS[ns.command].args.items():
        value = getattr(ns, key) if arg.flag else None
        if value is not None:
            task[key] = ({"count": value} if key == "expect" else json.loads(value)
                         if arg.flag.endswith("-json") else value)
    doc = {"seed": ns.seed, "exact": ns.exact, "tolerances": {"tol": ns.tol},
           "tasks": [task]}
    if hasattr(ns, "model"):
        doc["model"] = ns.model
        if ns.model == "deformed" and ns.lam:
            doc["model"] = {"builtin": "deformed", "lambda": ns.lam,
                            "reality": ns.reality}
    return doc


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "run":
            code = run_scenario(ns.scenario, ns.out)
        else:
            code = _run_standalone(ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early: point it at devnull so that the
        # interpreter's final flush is silent, and exit 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def _run_standalone(ns) -> int:
    report = _checked_run(lambda: _standalone_doc(ns), ns.out, "error")
    if report is None:
        return 2
    evidence = report["tasks"][0]["evidence"]
    if evidence:
        print(json.dumps(evidence, sort_keys=True, indent=2)[:2000])
    return 1 if report["summary"]["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
