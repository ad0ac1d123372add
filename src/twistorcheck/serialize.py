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
from .quotients import FiniteQuaternionGroup
from .scalars import GaussianRational, make_complex, parse_exact_scalar


def encode_scalar(x):
    if isinstance(x, GaussianRational):
        return [str(x.re), str(x.im)]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
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
        re, im = (decode_scalar(part, exact).real for part in v)
        return make_complex(re, im, exact)
    if exact:
        if isinstance(v, float) and not v.is_integer():
            raise ScenarioError(f"exact mode requires rational strings, got {v}")
        return Fraction(int(v)) if isinstance(v, float) else Fraction(v)
    return complex(v)


def jsonable(x):
    """Recursive conversion to JSON-serializable structures."""
    t = type(x)
    if t is float or t is int or t is str or t is bool or x is None:
        return x
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (GaussianRational, Fraction, complex, np.bool_, np.integer,
                      np.floating)):
        return encode_scalar(x)
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


def _coeffpoly_from_list(vals, bound: int, exact: bool) -> CoeffPoly:
    return CoeffPoly(bound, [decode_scalar(v, exact) for v in vals])


def model_to_dict(model: TwistorModel) -> dict:
    """The model's document, every coefficient in the model's one scalar
    kind: ``["p/q", "p/q"]`` when exact, ``[re, im]`` floats otherwise.  So
    one spelling serves every coefficient, and model_to_dict of
    model_from_dict is the identity on the documents it writes."""
    kind = GaussianRational if model.exact else complex

    def coeffs(values):
        return [encode_scalar(kind(c)) for c in values]

    eqs = []
    for eq in model.equations:
        eqs.append({
            "twist": eq.twist,
            "monomials": [{"exponents": list(exps), "coeffs": coeffs(coeff.coeffs)}
                          for exps, coeff in eq.monomials],
        })
    comps = []
    for comp in model.component_equations:
        comps.append([{"exponents": list(e), "coeff": encode_scalar(kind(c))}
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
        out["lambda"] = coeffs(model.lam.coeffs)
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


def load_group_file(path: str) -> FiniteQuaternionGroup:
    """A group file: unit 'quaternions' or a multiplication 'table'."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "table" in doc:
        return FiniteQuaternionGroup.from_table(
            doc["table"], int(doc.get("identity", 0)), name=doc.get("name", "group"))
    if "quaternions" in doc:
        return FiniteQuaternionGroup.from_quaternions(
            doc["quaternions"], name=doc.get("name", "group"))
    raise ScenarioError("group file needs a 'quaternions' or 'table' entry")


def save_model_file(model: TwistorModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_scenario(path: str):
    """The JSON document of a scenario file; cli checks it against its schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc


_encode_str = json.encoder.encode_basestring_ascii


def _emit(x, out, nl):
    """Append the pieces of x as json.dumps(jsonable(x), sort_keys=True,
    indent=2) spells them; nl is the newline and indent x starts at."""
    t = type(x)
    if t is str:
        out.append(_encode_str(x))
    elif t is float:
        out.append(float.__repr__(x) if x - x == 0.0  # finite
                   else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity")
    elif t is int:
        out.append(int.__repr__(x))
    elif x is None or t is bool:
        out.append("null" if x is None else "true" if x else "false")
    elif t is dict:
        if not x:
            out.append("{}")
            return
        if not all(type(k) is str for k in x):
            x = {k if type(k) is str else str(k): v for k, v in x.items()}
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(x):
            out.append(sep)
            out.append(_encode_str(k))
            out.append(": ")
            _emit(x[k], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _emit(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        # jsonable returns plain containers and scalars, or a subclass of
        # int, float or str, which json spells as its base type; bool
        # subclasses int, so it is tested first
        x = jsonable(x)
        if isinstance(x, str):
            out.append(_encode_str(x))
        elif isinstance(x, bool):
            out.append("true" if x else "false")
        elif isinstance(x, int):
            out.append(int.__repr__(x))
        elif isinstance(x, float):
            _emit(float.__float__(x), out, nl)
        else:
            _emit(x, out, nl)


def dump_report(report: dict) -> str:
    """Sorted, indented JSON, byte for byte json.dumps(jsonable(report),
    sort_keys=True, indent=2) plus a newline, written in one walk."""
    out = []
    _emit(report, out, "\n")
    out.append("\n")
    return "".join(out)


def write_report(report: dict, path: str):
    text = dump_report(report)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
