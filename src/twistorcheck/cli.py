"""Scenario-driven command line front end.

Usage:
    twistorcheck run scenario.json [--out report.json]
    twistorcheck solve-fiber --model quadric --zeta 0 --point 1,1,1
    twistorcheck quotient-census --group Q8
    twistorcheck classify --model deformed --seed 1

Every op lives in the ``OPS`` table: its function, whether it reads a model,
whether it samples, and its subcommand flags.  A standalone subcommand runs
as a one-task scenario, so ``--out`` writes the same report schema as
``run``.  Every subcommand accepts --tol/--seed/--out/--exact and, where a
model applies, --model; a human summary goes to stdout, the machine-readable
report only to --out.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analysis import (SolveConfig, branch_test, classify_hypercomplex,
                       component_label, normal_splitting,
                       rank_one_matrix_oracle, sample_sections, singular_scan,
                       solve_fiber, sym_matrix_model)
from .errors import ScenarioError, TwistorCheckError
from .models import (build_deformed, build_quadric, build_smooth_o11,
                     glue_cone_twistor, models_structurally_equal,
                     quadric_params, quadric_tuple, validate_model)
from .projline import P1Point, SigmaCoordRule
from .quotients import (FiniteQuaternionGroup, builtin_group,
                        closure_equals_quotient, component_count,
                        involution_census)
from .serialize import (decode_scalar, jsonable, load_model_file,
                        load_scenario, model_from_dict, validate_scenario,
                        write_report)

DEFAULT_LAMBDA = ["i", "0", "-i"]


def _parse_complex_list(text: str, exact: bool):
    # float tokens keep Python's complex syntax, which also reads '1e-3j'
    return [decode_scalar(tok, True) if exact else complex(tok)
            for tok in text.split(",") if tok.strip()]


def _token_list(value, key: str) -> list:
    """A list argument, given as a JSON list or a comma-separated string."""
    if isinstance(value, str):
        return [t for t in value.split(",") if t.strip()]
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{key!r} must be a list or a comma-separated string")
    return list(value)


def _check_records(records, keys: set, message: str):
    """Reject anything but a list of objects that each hold ``keys``."""
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and keys <= r.keys() for r in records):
        raise ScenarioError(message)


def _parse_zeta(spec):
    if spec is None:
        return 0j
    if isinstance(spec, P1Point):
        return spec
    if isinstance(spec, str):
        s = spec.strip()
        if s == "inf":
            return P1Point.inf(0j)
        if s.startswith("inf:"):
            return P1Point.inf(complex(s[4:]))
        return complex(s)
    if isinstance(spec, dict):
        chart = spec.get("chart", "std")
        if chart not in ("std", "inf"):
            raise ScenarioError(f"zeta chart must be 'std' or 'inf', got {chart!r}")
        return P1Point(chart, decode_scalar(spec.get("value", 0.0), exact=False))
    if isinstance(spec, (list, tuple)):
        if len(spec) != 2:
            raise ScenarioError("a zeta pair needs two entries [re, im]")
        return complex(spec[0], spec[1])
    return complex(spec)


def _parse_section(args_dict, model, exact):
    if args_dict.get("params") is not None:
        vals = _token_list(args_dict["params"], "params")
        return np.array([float(v) for v in vals])
    sec = args_dict.get("section")
    if sec is None:
        raise ScenarioError("task needs a 'section' or 'params' argument")
    if isinstance(sec, str):
        vals = _parse_complex_list(sec, exact)
    else:
        vals = [decode_scalar(v, exact) for v in sec]
    if len(vals) != 5 or (model is not None and len(model.degrees) != 3):
        raise ScenarioError("coefficient tuples require the 3-coordinate model; "
                            "use 'params' otherwise")
    return quadric_params(*vals, exact=exact)


def build_model_from_spec(spec, exact: bool = False):
    if spec in (None, {}, ""):
        return None
    if isinstance(spec, str):
        spec = {"builtin": spec} if not spec.endswith(".json") else {"file": spec}
    if not isinstance(spec, dict):
        raise ScenarioError("a model is a builtin name, a file name or an object")
    if "file" in spec:
        return load_model_file(spec["file"])
    if "inline" in spec:
        return model_from_dict(spec["inline"])
    name = spec.get("builtin", "quadric")
    exact = spec.get("exact", exact)
    if name == "quadric":
        return build_quadric(exact=exact)
    if name in ("smooth-o11", "smooth"):
        return build_smooth_o11(exact=exact)
    if name == "deformed":
        lam = spec.get("lambda")
        if lam is None:
            lam = DEFAULT_LAMBDA
        if isinstance(lam, str):
            lam = [t for t in lam.split(",") if t.strip()]
        coeffs = [decode_scalar(v, exact) for v in lam]
        return build_deformed(coeffs, spec.get("reality", "antireal"), exact=exact)
    raise ScenarioError(f"unknown builtin model {name!r}")


def _load_group(args) -> FiniteQuaternionGroup:
    if args.get("group_file"):
        with open(args["group_file"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if "table" in doc:
            return FiniteQuaternionGroup.from_table(
                doc["table"], int(doc.get("identity", 0)),
                name=doc.get("name", "group"))
        if "quaternions" in doc:
            return FiniteQuaternionGroup.from_quaternions(
                doc["quaternions"], name=doc.get("name", "group"))
        raise ScenarioError("group file needs a 'quaternions' or 'table' entry")
    name = args.get("group")
    if not name or not isinstance(name, str):
        raise ScenarioError("quotient-census needs --group (a group name) "
                            "or --group-file")
    return builtin_group(name)


# Op functions: (task args, model or None, config, exact mode) ->
# (numbers, evidence).  Section and point tokens decode in the scenario's mode.

def _op_validate(args, model, cfg, exact):
    rep = validate_model(model)
    return ({"passed": rep.passed,
             "dimension": rep.info.get("real_parameter_dimension")},
            {"failures": rep.failures, "notes": rep.notes,
             "equation_signs": rep.equation_signs})


def _op_sections(args, model, cfg, exact):
    basis = model.section_basis
    return ({"dimension": basis.nparams},
            {"parameters": basis.param_names, "forms": basis.describe()})


def _op_solve_fiber(args, model, cfg, exact):
    zeta = _parse_zeta(args.get("zeta"))
    point = args.get("point")
    if isinstance(point, str):
        point = _parse_complex_list(point, exact)
    elif isinstance(point, (list, tuple)):
        point = [decode_scalar(v, exact) for v in point]
    else:
        raise ScenarioError("solve-fiber needs a 'point' list or string")
    res = solve_fiber(model, zeta, tuple(point), cfg)
    numbers = {"count": len(res.solutions), "complete": res.complete,
               "family_dim": res.family.dim if res.family else 0}
    evidence = {"method": res.method,
                "solutions": [list(map(float, s)) for s in res.solutions]}
    if len(model.degrees) == 3 and model.nparams == 9:
        evidence["solution_tuples"] = [jsonable(quadric_tuple(s))
                                       for s in res.solutions]
    return numbers, evidence


def _op_singular_scan(args, model, cfg, exact):
    n = int(args.get("samples", cfg.scan_samples))
    rng = np.random.default_rng(int(args.get("seed", cfg.seed)))
    points = list(sample_sections(model, n, rng, cfg))
    if args.get("include_origin", True):
        points.append(np.zeros(model.nparams))
    rep = singular_scan(model, points, cfg)
    numbers = {"singular_count": len(rep.singular),
               "clusters": len(rep.clusters),
               "regular": rep.regular_count}
    return numbers, {"clusters": rep.clusters, "skipped": rep.skipped}


def _op_branch(args, model, cfg, exact):
    section = _parse_section(args, model, exact)
    zeta = _parse_zeta(args.get("zeta"))
    rep = branch_test(model, section, zeta, cfg)
    return {"verdict": rep.verdict, "rank": rep.rank}, {}


def _op_normal_bundle(args, model, cfg, exact):
    section = _parse_section(args, model, exact)
    rep = normal_splitting(model, section, cfg)
    numbers = {
        "splitting": list(rep.splitting.degrees) if rep.splitting else None,
        "h0": rep.h0, "h0_minus2": rep.h0_minus2,
        "degenerate": bool(rep.degenerate)}
    evidence = {"degenerate_rows": jsonable(rep.degenerate),
                "regular_point": rep.regular_point}
    return numbers, evidence


def _op_classify(args, model, cfg, exact):
    cls = classify_hypercomplex(model, cfg)
    numbers = {"verdict": cls.verdict,
               "family_dimension": cls.evidence.get("family_dimension", 0)}
    return numbers, cls.evidence


def _op_matrix_model(args, model, cfg, exact):
    if args.get("oracle_q") is not None:
        q = _token_list(args["oracle_q"], "oracle_q")
        rep = rank_one_matrix_oracle([float(v) for v in q])
        numbers = {"t": float(rep.t), "trace_b": float(rep.trace_b),
                   "rank_a": rep.rank_a,
                   "displayed_form_residual": rep.displayed_residual_norm,
                   "product_identity_residual": rep.product_identity_norm}
        return numbers, {"b": jsonable(rep.b)}
    section = _parse_section(args, model, exact)
    label = args.get("label")
    if label is None:
        lab = component_label(section)
        label = 1 if lab == "boundary" else lab
    b, t = sym_matrix_model(section, int(label), exact=exact)
    numbers = {"t": float(t),
               "trace_b": float(np.trace(np.asarray(b, dtype=float))),
               "label": int(label)}
    return numbers, {"b": jsonable(b)}


def _op_quotient_census(args, model, cfg, exact):
    group = _load_group(args)
    census = involution_census(group)
    count, flags = component_count(group)
    numbers = {"order": group.order, "involutions": len(census.involutions),
               "classes": census.class_count,
               "component_count": count,
               "predicate": closure_equals_quotient(group)}
    evidence = {"classes": census.classes, "assumptions": flags,
                "group": group.name}
    return numbers, evidence


def _op_cone_glue(args, model, cfg, exact):
    weights = [int(w) for w in _token_list(args.get("weights", [1, 1, 1]),
                                           "weights")]
    level = int(args.get("l", 2))
    eq_spec = args.get("equations")
    if eq_spec is None:
        eq_spec = [[{"exponents": [1, 1, 0], "coeff": 1},
                    {"exponents": [0, 0, 2], "coeff": -1}]]
    if not isinstance(eq_spec, list):
        raise ScenarioError("cone-glue 'equations' is a list of monomial lists")
    for eq in eq_spec:
        _check_records(eq, {"exponents", "coeff"},
                       "each cone-glue monomial needs 'exponents' and 'coeff'")
        if not all(isinstance(m["exponents"], list) for m in eq):
            raise ScenarioError("cone-glue 'exponents' must be a list of integers")
    equations = [[(tuple(m["exponents"]), decode_scalar(m["coeff"], False))
                  for m in eq] for eq in eq_spec]
    rules_spec = args.get("rules")
    if rules_spec is None:
        if len(weights) != 3:
            raise ScenarioError("the default swap/minus rules need three "
                                "weights; give explicit rules otherwise")
        degs = [level * w for w in weights]
        rules = (SigmaCoordRule(1, 1, degs[0]), SigmaCoordRule(0, 1, degs[1]),
                 SigmaCoordRule(2, -1, degs[2]))
    else:
        _check_records(rules_spec, {"target", "sign", "twist"},
                       "each cone-glue rule needs 'target', 'sign' and 'twist'")
        rules = tuple(SigmaCoordRule(int(r["target"]), int(r["sign"]),
                                     int(r["twist"])) for r in rules_spec)
    glued = glue_cone_twistor(equations, weights, level, rules)
    numbers = {"degrees": list(glued.degrees),
               "twists": [eq.twist for eq in glued.equations]}
    compare = args.get("compare")
    if compare:
        ref = build_model_from_spec(compare)
        numbers["equals_builtin"] = models_structurally_equal(
            glued, ref, ignore_component_equations=True, tol=1e-12)
    return numbers, {"family": glued.family}


class _Op(NamedTuple):
    run: Callable          # op function, see above
    model: str | None      # "required", "optional", or None: no --model flag
    samples: bool = False  # draws random samples, so a seed is required
    flags: tuple = ()      # subcommand flags beyond the common ones


_SECTION_FLAGS = (("--section", {}), ("--params", {}))

OPS = {
    "validate": _Op(_op_validate, "required"),
    "sections": _Op(_op_sections, "required"),
    "solve-fiber": _Op(_op_solve_fiber, "required", flags=(
        ("--zeta", {"default": "0"}), ("--point", {"required": True}),
        ("--expect-count", {"type": int}))),
    "singular-scan": _Op(_op_singular_scan, "required", samples=True, flags=(
        ("--samples", {"type": int, "default": 60}),)),
    "branch": _Op(_op_branch, "required",
                  flags=_SECTION_FLAGS + (("--zeta", {"default": "0"}),)),
    "normal-bundle": _Op(_op_normal_bundle, "required", flags=_SECTION_FLAGS),
    "classify": _Op(_op_classify, "required", samples=True),
    "matrix-model": _Op(_op_matrix_model, "optional", flags=_SECTION_FLAGS + (
        ("--label", {"type": int}), ("--oracle-q", {}))),
    "quotient-census": _Op(_op_quotient_census, None,
                           flags=(("--group", {}), ("--group-file", {}))),
    "cone-glue": _Op(_op_cone_glue, None, flags=(
        ("--weights", {"default": "1,1,1"}),
        ("--l", {"type": int, "default": 2}),
        ("--equations-json", {}), ("--rules-json", {}), ("--compare", {}))),
}


def execute_task(op: str, args: dict, model, cfg: SolveConfig, exact: bool):
    """Run one task in the scenario's mode; returns a report record.

    A task with an ``expect`` object passes when every expected number
    matches; without one it is ``info``, unless its numbers carry their own
    ``passed`` verdict.
    """
    numbers, evidence = OPS[op].run(args, model, cfg, exact)
    expect = args.get("expect")
    if expect:
        matched = all(jsonable(numbers.get(k)) == jsonable(v)
                      for k, v in expect.items())
        status = "pass" if matched else "fail"
    elif "passed" in numbers:
        status = "pass" if numbers["passed"] else "fail"
    else:
        status = "info"
    return {"op": op,
            "inputs": jsonable({k: v for k, v in args.items() if k != "expect"}),
            "status": status,
            "numbers": jsonable(numbers),
            "evidence": jsonable(evidence)}


def _check_int(obj: dict, key: str):
    if obj.get(key) is not None:
        try:
            int(obj[key])
        except (TypeError, ValueError):
            raise ScenarioError(f"{key!r} must be an integer") from None


# the SolveConfig fields a scenario's "tolerances" object may set
TOLERANCES = ("tol", "rank_rtol", "newton_tol", "dedup_radius", "fiber_tol")


def _check_tolerances(tols):
    if not isinstance(tols, dict):
        raise ScenarioError("'tolerances' must be an object")
    for key, value in tols.items():
        if key not in TOLERANCES:
            raise ScenarioError(f"unknown tolerance {key!r}; "
                                f"expected one of {', '.join(TOLERANCES)}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 < value <= sys.float_info.max):
            raise ScenarioError(f"tolerance {key!r} must be a finite positive number")


def _check_ops(doc: dict):
    """Reject unknown ops, sampling ops without a seed and malformed common
    arguments, before any task runs."""
    _check_int(doc, "seed")
    if not isinstance(doc.get("exact", False), bool):
        raise ScenarioError("'exact' must be true or false")
    _check_tolerances(doc.get("tolerances", {}))
    for task in doc["tasks"]:
        op = OPS.get(task["op"])
        if op is None:
            raise ScenarioError(f"unknown op {task['op']!r}")
        if op.samples and doc.get("seed") is None and task.get("seed") is None:
            raise ScenarioError(f"op {task['op']!r} samples and requires a seed")
        if task.get("expect") is not None and not isinstance(task["expect"], dict):
            raise ScenarioError("'expect' must be an object of expected numbers")
        if task.get("section") is not None and not isinstance(
                task["section"], (str, list, tuple)):
            raise ScenarioError("'section' must be a list or a comma-separated string")
        _check_int(task, "seed")
        _check_int(task, "samples")


def run_scenario_doc(doc: dict, out_path=None) -> dict:
    """Run a scenario: one stdout line per task, the report to its target.

    Returns the report; the caller turns its summary into the exit code.
    """
    validate_scenario(doc)
    _check_ops(doc)
    exact = doc.get("exact", False)
    cfg = SolveConfig(seed=int(doc.get("seed", 0)))
    for key, value in doc.get("tolerances", {}).items():
        setattr(cfg, key, float(value))
    model = build_model_from_spec(doc.get("model"), exact=exact)
    records = []
    for task in doc["tasks"]:
        args = dict(task)
        op = args.pop("op")
        task_model = model
        if args.get("model") is not None:
            task_model = build_model_from_spec(args["model"], exact=exact)
        if OPS[op].model == "required" and task_model is None:
            raise ScenarioError(f"op {op!r} requires a model")
        records.append(execute_task(op, args, task_model, cfg, exact))
    report = {
        "toolkit": {"name": "twistorcheck", "version": __version__},
        "mode": "exact" if exact else "float",
        "seed": doc.get("seed"),
        "config": {k: getattr(cfg, k) for k in
                   ("tol", "rank_rtol", "newton_tol", "max_iter",
                    "dedup_radius", "multistart", "fiber_tol",
                    "scan_samples", "branch_checks", "continuation_step",
                    "cluster_radius")},
        "scenario": doc,
        "tasks": records,
        "summary": {
            "pass": sum(1 for r in records if r["status"] == "pass"),
            "fail": sum(1 for r in records if r["status"] == "fail"),
            "info": sum(1 for r in records if r["status"] == "info"),
        },
    }
    for rec in records:
        marker = {"pass": "PASS", "fail": "FAIL", "info": "info"}[rec["status"]]
        brief = ", ".join(f"{k}={v}" for k, v in rec["numbers"].items())
        print(f"[{marker}] {rec['op']}: {brief}")
    target = out_path or doc.get("out")
    if target:
        write_report(report, target)
        print(f"report written to {target}")
    return report


def run_scenario(path: str, out_path=None) -> int:
    """Execute a scenario file; exit code 0/1/2 per the contract."""
    try:
        report = run_scenario_doc(load_scenario(path), out_path)
    except (TwistorCheckError, OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    return 1 if report["summary"]["fail"] else 0


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
        for flag, kw in op.flags:
            p.add_argument(flag, **kw)
    return parser


def _standalone_doc(ns) -> dict:
    """The one-task scenario a standalone subcommand stands for."""
    task = {"op": ns.command}
    for flag, _ in OPS[ns.command].flags:
        key = flag[2:].replace("-", "_")
        if getattr(ns, key) is not None:
            task[key] = getattr(ns, key)
    if "expect_count" in task:
        task["expect"] = {"count": task.pop("expect_count")}
    for key in ("equations", "rules"):
        if key + "_json" in task:
            task[key] = json.loads(task.pop(key + "_json"))
    task["seed"] = ns.seed
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
    if ns.command == "run":
        return run_scenario(ns.scenario, ns.out)
    try:
        report = run_scenario_doc(_standalone_doc(ns), ns.out)
    except (TwistorCheckError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    evidence = report["tasks"][0]["evidence"]
    if evidence:
        print(json.dumps(evidence, sort_keys=True, indent=2)[:2000])
    return 1 if report["summary"]["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
