"""JSON (de)serialization for models, scenarios and reports.

Numbers are encoded as plain floats, ``[re, im]`` pairs for complex values,
or ``"p/q"`` strings for exact rationals (pairs of strings for exact complex
values).  Reports are dumped with sorted keys so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from .errors import ModelError, ScenarioError
from .models import FiberEquation, TwistorModel
from .mpoly import MPoly
from .projline import CoeffPoly, SigmaCoordRule, reality_fixed_space
from .scalars import (GaussianRational, make_complex, parse_exact_scalar,
                      real_of)


def encode_scalar(x):
    if isinstance(x, GaussianRational):
        return [str(x.re), str(x.im)]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    return x


def decode_scalar(v, exact: bool):
    """One JSON scalar in the given mode; an ``[re, im]`` pair decodes each
    part by the same rule, so exact mode rejects non-integer floats in both."""
    if isinstance(v, str):
        g = parse_exact_scalar(v)
        if exact:
            return g if g.im != 0 else g.re
        return complex(g)
    if isinstance(v, (list, tuple)):
        re, im = (real_of(decode_scalar(part, exact)) for part in v)
        return make_complex(re, im, exact)
    if exact:
        if isinstance(v, float) and not v.is_integer():
            raise ScenarioError(f"exact mode requires rational strings, got {v}")
        return Fraction(int(v)) if isinstance(v, float) else Fraction(v)
    return complex(v)


def jsonable(x):
    """Recursive conversion to JSON-serializable structures."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (GaussianRational, Fraction, complex)):
        return encode_scalar(x)
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _coeffpoly_to_list(cp: CoeffPoly):
    return [encode_scalar(c) for c in cp.coeffs]


def _coeffpoly_from_list(vals, bound: int, exact: bool) -> CoeffPoly:
    return CoeffPoly(bound, [decode_scalar(v, exact) for v in vals])


def model_to_dict(model: TwistorModel) -> dict:
    eqs = []
    for eq in model.equations:
        eqs.append({
            "twist": eq.twist,
            "monomials": [{"exponents": list(exps),
                           "coeffs": _coeffpoly_to_list(coeff)}
                          for exps, coeff in eq.monomials],
        })
    comps = []
    for comp in model.component_equations:
        comps.append([{"exponents": list(e), "coeff": encode_scalar(c)}
                      for e, c in sorted(comp.terms.items())])
    out = {
        "name": model.name,
        "mode": "exact" if model.exact else "float",
        "degrees": list(model.degrees),
        "coordinates": list(model.coordinates),
        "rules": [{"target": r.partner, "sign": r.sign, "twist": r.twist}
                  for r in model.rules],
        "equations": eqs,
        "componentEquations": comps,
    }
    if model.lam is not None:
        out["lambda"] = _coeffpoly_to_list(model.lam)
        out["reality"] = model.reality
    return out


def model_from_dict(d: dict) -> TwistorModel:
    if not isinstance(d, dict) or not {"degrees", "rules"} <= d.keys():
        raise ModelError("a model needs 'degrees' and 'rules' entries")
    exact = d.get("mode", "float") == "exact"
    degrees = tuple(int(k) for k in d["degrees"])
    coords = tuple(d.get("coordinates") or [f"u{i}" for i in range(len(degrees))])
    rules = tuple(SigmaCoordRule(int(r["target"]), int(r["sign"]),
                                 int(r.get("twist", degrees[i])))
                  for i, r in enumerate(d["rules"]))
    eqs = []
    for eq in d.get("equations", []):
        twist = int(eq["twist"])
        monos = []
        for mono in eq["monomials"]:
            exps = tuple(int(e) for e in mono["exponents"])
            bound = twist - sum(e * k for e, k in zip(exps, degrees))
            monos.append((exps, _coeffpoly_from_list(mono["coeffs"], bound, exact)))
        eqs.append(FiberEquation(twist, tuple(monos)))
    comp_docs = d.get("componentEquations", [])
    # the basis is needed up front only to size the component polynomials
    basis = reality_fixed_space(degrees, rules, names=coords,
                                exact=exact) if comp_docs else None
    comps = []
    for comp in comp_docs:
        terms = {}
        for term in comp:
            exps = tuple(int(e) for e in term["exponents"])
            terms[exps] = decode_scalar(term["coeff"], exact)
        comps.append(MPoly(basis.nparams, terms))
    lam = d.get("lambda")
    if lam is not None:
        lam = _coeffpoly_from_list(lam, 2, exact)
    model = TwistorModel(d.get("name", "model"), degrees, coords, rules,
                         tuple(eqs), component_equations=comps, exact=exact,
                         lam=lam, reality=d.get("reality"))
    model._basis = basis
    return model


def load_model_file(path: str) -> TwistorModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model_file(model: TwistorModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=2)
        fh.write("\n")


def validate_scenario(doc: dict) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    tasks = doc.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("scenario needs a non-empty 'tasks' list")
    for t in tasks:
        if not isinstance(t, dict) or "op" not in t:
            raise ScenarioError("each task needs an 'op' field")
    return doc


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    return validate_scenario(doc)


def dump_report(report: dict) -> str:
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_report(report))
