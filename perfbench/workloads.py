"""The three benchmark workloads: inputs from a seed, one op, its oracle.

Every workload has the same shape:

- ``setup()`` imports twistorcheck, builds the models and returns the cycle
  of op inputs generated from the seed;
- ``run_op(inp)`` is the timed op;
- ``check(inp, out)`` is the oracle, run outside the timer; it returns a
  list of ``(oracle, detail)`` pairs, empty when the op is correct;
- ``census()`` runs the known-defect cases once per run, untimed, and
  returns ``(cases, failures)``.

twistorcheck is always reached through module attributes at call time
(``analysis.solve_fiber``, not a name bound at import), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path


def _import_program():
    import twistorcheck
    from twistorcheck import analysis, cli, models, serialize, systems
    return twistorcheck, analysis, cli, models, serialize, systems


class Fixtures:
    """One op: ``run_scenario`` over every committed ``fixtures/*.json``.

    This is the user's real traffic through ``cli`` and ``serialize``, and
    the golden gate for refactors: each report must be byte-identical to
    ``reports/<name>`` of the commit under test.  The fixtures carry their
    own seeds, so the benchmark seed does not change the inputs.
    """

    name = "fixtures"

    def __init__(self, root: Path, seed: int):
        self.root = Path(root)
        self.seed = seed
        self.scratch = None

    def setup(self):
        _, _, self.cli, _, _, _ = _import_program()
        fixtures = sorted((self.root / "fixtures").glob("*.json"))
        if not fixtures:
            raise RuntimeError("no fixtures/*.json in the checkout")
        self.golden = {}
        for path in fixtures:
            report = self.root / "reports" / path.name
            self.golden[path.name] = report.read_bytes()
        out_base = self.root / ".perfbench_out"
        out_base.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="fixtures-", dir=out_base))
        return [tuple(fixtures)]

    def run_op(self, inp):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for path in inp:
                out = self.scratch / path.name
                codes.append((path.name, self.cli.run_scenario(str(path), str(out))))
        return codes

    def check(self, inp, out):
        failures = []
        for name, code in out:
            if code != 0:
                failures.append(("exit-0", f"{name}: exit {code}"))
                continue
            written = (self.scratch / name).read_bytes()
            if written != self.golden[name]:
                failures.append(("report-bytes", f"{name}: report differs from "
                                                 f"reports/{name}"))
        return failures

    def identical_reports(self):
        """How many of the last op's reports match their golden bytes."""
        return sum((self.scratch / n).read_bytes() == g
                   for n, g in self.golden.items()), len(self.golden)

    def census(self):
        return 0, []

    def close(self):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def doubled_quadric(models, serialize):
    """The quadric cone with every fiber-equation coefficient doubled.

    Same section space and component equation as the builtin, but no
    closed-form family claims it, so ``solve_fiber`` runs multistart Newton.
    """
    doc = serialize.model_to_dict(models.build_quadric())
    for eq in doc["equations"]:
        for mono in eq["monomials"]:
            mono["coeffs"] = [[2 * re, 2 * im] for re, im in mono["coeffs"]]
    return serialize.model_from_dict(doc)


class Fiber:
    """One op: one fiber target solved by the closed form and by Newton.

    Targets are evaluations of a seeded planted squaring section (variant
    plus or minus at random) scaled by a factor log-uniform over
    [1e-2, 1e2], at a base point with a random chart and |zeta| log-uniform
    over [1e-2, 1e2].  On that range both solvers are correct at the commit
    that defined this benchmark.  The known-defect ranges (cone vertex,
    |zeta| and scale out to 1e-5..1e5 and 1e-3..1e3) run in ``census``.
    """

    name = "fiber"
    cycle = 250                 # distinct targets; about one 15 s run
    census_cases = 20
    zeta_decades = 2.0
    scale_decades = 2.0

    def __init__(self, root: Path, seed: int, cycle: int | None = None):
        self.root = Path(root)
        self.seed = seed
        if cycle is not None:
            self.cycle = cycle

    def setup(self):
        self.tc, self.analysis, _, models, serialize, _ = _import_program()
        self.projline = self.tc.projline
        self.builtin = models.build_quadric()
        self.doubled = doubled_quadric(models, serialize)
        self.models = models
        rng = random.Random(f"fiber-{self.seed}")
        # Latin-hypercube draws of log|zeta| and log(scale): every run covers
        # both ranges evenly, so runs differ less by their mix of costs.
        strata = []
        for _ in range(2):
            column = [(k + rng.random()) / self.cycle for k in range(self.cycle)]
            rng.shuffle(column)
            strata.append(column)
        return [self._target(rng, i, self.zeta_decades, self.scale_decades,
                             u_zeta=strata[0][i], u_scale=strata[1][i])
                for i in range(self.cycle)]

    def _target(self, rng, index, zeta_decades, scale_decades, vertex=False,
                u_zeta=None, u_scale=None):
        """One target; ``u_*`` in [0, 1) place log|zeta| and log(scale)."""
        u_zeta = rng.random() if u_zeta is None else u_zeta
        u_scale = rng.random() if u_scale is None else u_scale
        chart = "std" if rng.random() < 0.5 else "inf"
        zeta = 10 ** (zeta_decades * (2 * u_zeta - 1)) \
            * cmath.exp(2j * math.pi * rng.random())
        pt = self.projline.P1Point(chart, zeta)
        if vertex:
            return {"index": index, "seed": self.seed, "chart": chart,
                    "zeta": zeta, "scale": 0.0, "variant": "vertex",
                    "point": pt.canonical(), "values": (0j, 0j, 0j),
                    "planted": None, "truth": 1}
        a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        variant = "plus" if rng.random() < 0.5 else "minus"
        scale = 10 ** (scale_decades * (2 * u_scale - 1))
        planted = self.models.squaring_section(a, b, variant) * scale
        target = self.analysis.evaluate_section(self.builtin, planted, pt)
        return {"index": index, "seed": self.seed, "chart": chart,
                "zeta": zeta, "scale": scale, "variant": variant,
                "point": target.zeta, "values": target.values,
                "planted": planted, "truth": 2}

    def run_op(self, inp):
        solve = self.analysis.solve_fiber
        return (solve(self.builtin, inp["point"], inp["values"]),
                solve(self.doubled, inp["point"], inp["values"]))

    def check(self, inp, out):
        failures = []
        for model, want, res in ((self.builtin, "closed-form", out[0]),
                                 (self.doubled, "newton-multistart", out[1])):
            tag = f"{want} {describe_target(inp)}"
            failures.extend((oracle, f"{tag}: {detail}") for oracle, detail
                            in fiber_oracle(self.analysis, model, inp, res, want))
        return failures

    def census(self):
        """Known-defect targets: 1 in 5 at the cone vertex, wide ranges."""
        rng = random.Random(f"fiber-census-{self.seed}")
        cases = 0
        report = []
        for i in range(self.census_cases):
            inp = self._target(rng, i, 5.0, 3.0, vertex=(i % 5 == 0))
            for model, want in ((self.builtin, "closed-form"),
                                (self.doubled, "newton-multistart")):
                cases += 1
                try:
                    res = self.analysis.solve_fiber(model, inp["point"], inp["values"])
                    found = fiber_oracle(self.analysis, model, inp, res, want)
                except Exception as exc:  # a refusal is a failure, same as a crash
                    found = [("exception", f"{type(exc).__name__}: {exc}")]
                if found:
                    report.append((want, describe_target(inp), found))
        return cases, report

    def close(self):
        pass


def describe_target(inp) -> str:
    z = inp["zeta"]
    return (f"seed={inp['seed']} target={inp['index']} chart={inp['chart']} "
            f"|zeta|={abs(z):.3e} scale={inp['scale']:.3e} "
            f"variant={inp['variant']}")


def fiber_oracle(analysis, model, inp, res, want_method):
    """Count, planted section, reproduction of the target, solver path."""
    import numpy as np
    failures = []
    if res.method != want_method:
        failures.append(("method", f"method {res.method}"))
    if len(res.solutions) != inp["truth"]:
        failures.append(("count", f"{len(res.solutions)} sections, "
                                  f"truth {inp['truth']}"))
    planted = inp["planted"]
    if planted is not None:
        tol = 1e-6 * (1.0 + float(np.linalg.norm(planted)))
        if not any(np.linalg.norm(np.asarray(s) - planted) <= tol
                   for s in res.solutions):
            failures.append(("planted", "planted section not found"))
    values = [complex(v) for v in inp["values"]]
    vtol = 1e-6 * (1.0 + max(abs(v) for v in values))
    for s in res.solutions:
        got = analysis.evaluate_section(model, s, inp["point"])
        same_point = got.zeta.same_point(inp["point"], tol=1e-12)
        if not same_point or max(abs(complex(g) - v)
                                 for g, v in zip(got.values, values)) > vtol:
            failures.append(("reproduce", "a solution misses the target"))
            break
    return failures


class Exact:
    """One op: a certificate built on the exact (Gaussian-rational) backend.

    ``build_quadric(exact=True)``, ``real_section_system`` and
    ``validate_model``; then, for 4 seeded Gaussian-rational planted squaring
    sections, exact membership, the Jacobian rank through ``exactla`` and
    the exact symmetric-matrix model.
    """

    name = "exact"
    cycle = 1200                # distinct ops; about one 15 s run
    sections = 4

    def __init__(self, root: Path, seed: int, cycle: int | None = None):
        self.root = Path(root)
        self.seed = seed
        if cycle is not None:
            self.cycle = cycle

    def setup(self):
        self.tc, self.analysis, _, self.models, _, self.systems = _import_program()
        self.G = self.tc.GaussianRational
        rng = random.Random(f"exact-{self.seed}")
        return [[self._section(rng, i, k) for k in range(self.sections)]
                for i in range(self.cycle)]

    def _section(self, rng, index, k):
        def frac():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a = self.G(frac(), frac())
        b = self.G(frac(), frac())
        while a.re == a.im == b.re == b.im == 0:
            a = self.G(frac(), frac())
        variant = "plus" if rng.random() < 0.5 else "minus"
        return {"seed": self.seed, "op": index, "section": k,
                "a": a, "b": b, "variant": variant}

    def run_op(self, inp):
        model = self.models.build_quadric(exact=True)
        system = self.systems.real_section_system(model)
        valid = self.models.validate_model(model)
        out = []
        for sec in inp:
            p = self.models.squaring_section(sec["a"], sec["b"], sec["variant"],
                                             exact=True)
            label = 1 if sec["variant"] == "minus" else -1
            member = system.membership(p)
            rank = system.jacobian_rank(p)
            b, t = self.analysis.sym_matrix_model(p, label, exact=True)
            out.append((member.passed, rank, b, t, label))
        return valid.passed, out

    def check(self, inp, out):
        valid, rows = out
        failures = []
        if not valid:
            failures.append(("validate", f"seed={self.seed} op={inp[0]['op']}: "
                                         "validate_model failed"))
        for sec, (member, rank, b, t, label) in zip(inp, rows):
            tag = (f"seed={sec['seed']} op={sec['op']} section={sec['section']} "
                   f"a={sec['a']} b={sec['b']} variant={sec['variant']}")
            failures.extend((o, f"{tag}: {d}")
                            for o, d in exact_oracle(sec, member, rank, b, t, label))
        return failures

    def census(self):
        """Exact-mode probe: float-only paths fed exact data."""
        model = self.models.build_quadric(exact=True)
        a, b = self.G(Fraction(1, 2), Fraction(-3, 5)), self.G(Fraction(2, 7), Fraction(1, 3))
        p = self.models.squaring_section(a, b, "minus", exact=True)
        target = self.analysis.evaluate_section(model, p, self.G(Fraction(1, 3), Fraction(1, 4)))
        probes = (
            ("solve_fiber", lambda: len(self.analysis.solve_fiber(
                model, target.zeta, target.values).solutions), 2),
            ("normal_splitting", lambda: list(
                self.analysis.normal_splitting(model, p).splitting.degrees), [1, 1]),
            ("classify_hypercomplex", lambda: self.analysis.classify_hypercomplex(
                model).verdict, "Hypercomplex"),
        )
        report = []
        for name, call, want in probes:
            try:
                got = call()
            except Exception as exc:  # a refusal is a failure, same as a crash
                report.append((name, "exact quadric, a=1/2-3/5i b=2/7+1/3i",
                               [("exception", f"{type(exc).__name__}: {exc}")]))
                continue
            if got != want:
                report.append((name, "exact quadric", [("value", f"{got!r} != {want!r}")]))
        return len(probes), report

    def close(self):
        pass


def exact_oracle(sec, member, rank, b, t, label):
    """Exact identities for a planted squaring section (a, b, variant)."""
    failures = []
    if not member:
        failures.append(("membership", "planted section fails exact membership"))
    if rank != 5:
        failures.append(("rank", f"jacobian_rank {rank}, want 5"))
    if sum(b[i][i] for i in range(4)) != 0:
        failures.append(("trace", "trace B != 0"))
    a_, b_ = sec["a"], sec["b"]
    want_t = label * (a_.re ** 2 + a_.im ** 2 + b_.re ** 2 + b_.im ** 2)
    if t != want_t:
        failures.append(("t", f"t = {t}, want {want_t}"))
    quarter = Fraction(t) / 4
    mat = [[b[i][j] + (quarter if i == j else 0) for j in range(4)] for i in range(4)]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rank_one = any(v != 0 for row in mat for v in row) and all(
        mat[i][k] * mat[j][m] == mat[i][m] * mat[j][k]
        for i, j in pairs for k, m in pairs)
    if not rank_one:
        failures.append(("rank-one", "B + t/4 Id is not rank one"))
    return failures


WORKLOADS = {w.name: w for w in (Fixtures, Fiber, Exact)}

