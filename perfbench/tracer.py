"""Span tracer that wraps twistorcheck's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper wherever a
module of the package holds a reference to it: ``from ... import`` binds
the name at import time, so ``analysis.real_section_system`` and
``systems.real_section_system`` must both be replaced.  Methods are
replaced on their class.  ``uninstall`` restores every original.

Spans are aggregated in memory as they close: per span name, the number of
calls and the self time (duration minus the time covered by child spans).
Only calls made between ``begin_op`` and ``end_op`` are recorded, so set-up
and oracle work stay out of the per-op numbers.  Individual call records
are not kept: ``mpoly.evaluate`` alone closes tens of thousands of spans
per op.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute); attribute "Class.method" names a method.
SPANS = (
    ("cli.run_scenario", "cli", "run_scenario"),
    ("cli.execute_task", "cli", "execute_task"),
    ("serialize.write_report", "serialize", "write_report"),
    ("models.build", "models", "build_quadric"),
    ("models.build", "models", "build_deformed"),
    ("models.build", "models", "build_smooth_o11"),
    ("models.build", "models", "glue_cone_twistor"),
    ("models.build", "serialize", "model_from_dict"),
    ("models.validate_model", "models", "validate_model"),
    ("projline.reality_fixed_space", "projline", "reality_fixed_space"),
    ("projline.kernel_splitting", "projline", "kernel_splitting"),
    ("systems.real_section_system", "systems", "real_section_system"),
    ("systems.residuals", "systems", "RealEquationSystem.residuals"),
    ("systems.jacobian_at", "systems", "RealEquationSystem.jacobian_at"),
    ("systems.membership", "systems", "RealEquationSystem.membership"),
    ("systems.jacobian_rank", "systems", "RealEquationSystem.jacobian_rank"),
    ("mpoly.evaluate", "mpoly", "MPoly.evaluate"),
    ("exactla.exact_rank", "exactla", "exact_rank"),
    ("analysis.solve_fiber", "analysis", "solve_fiber"),
    ("analysis.branch_test", "analysis", "branch_test"),
    ("analysis.normal_splitting", "analysis", "normal_splitting"),
    ("analysis.singular_scan", "analysis", "singular_scan"),
    ("analysis.sample_sections", "analysis", "sample_sections"),
    ("analysis.classify_hypercomplex", "analysis", "classify_hypercomplex"),
    ("analysis.sym_matrix_model", "analysis", "sym_matrix_model"),
    ("quotients.builtin_group", "quotients", "builtin_group"),
    ("quotients.involution_census", "quotients", "involution_census"),
    ("quotients.component_count", "quotients", "component_count"),
)

# numpy kernels, looked up as attributes of numpy.linalg at call time.
KERNELS = (("numpy.linalg.svd", "svd"), ("numpy.linalg.lstsq", "lstsq"))

# Span names in the per-layer metrics; solve_fiber is split by result method.
LAYER_SPANS = tuple(dict.fromkeys(
    [name for name, _, _ in SPANS if name != "analysis.solve_fiber"]
    + ["analysis.solve_fiber.closed-form",
       "analysis.solve_fiber.newton-multistart"]
    + [name for name, _ in KERNELS]))


class Tracer:
    """In-memory span aggregator; see the module docstring."""

    def __init__(self):
        self._restore = []
        self._stack = []
        self.recording = False
        self.totals = defaultdict(float)   # "<span>.calls" / "<span>.self_s" / counters
        self.ops = 0
        self.op_wall_s = 0.0
        self.per_op = []                   # one dict of counts and self times per op
        self._op = None
        self._op_models = {}              # id -> model, kept alive for the op

    # -- installation -----------------------------------------------------

    def install(self):
        import numpy as np

        import twistorcheck  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "twistorcheck"
                                         or n.startswith("twistorcheck."))]
        for name, modname, attr in SPANS:
            owner = sys.modules["twistorcheck." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)
        for name, attr in KERNELS:
            self._set(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr)))
        return self

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)
                              if not isinstance(owner, type)
                              else owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            mark = self._op["systems.residuals.calls"] if hook else 0.0
            self._stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - start
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                span = name
                if hook is not None:
                    span = hook(self, args, kwargs, result, mark) or name
                self._op[span + ".calls"] += 1
                self._op[span + ".self_s"] += dur - child

        return traced

    # -- per-op accounting ------------------------------------------------

    def begin_op(self):
        self._op = defaultdict(float)
        self._op_models = {}
        self.recording = True

    def end_op(self, wall_s):
        self.recording = False
        self._op["op.wall_s"] = wall_s
        self._op["systems.real_section_system.models"] = len(self._op_models)
        self.per_op.append(dict(self._op))
        for key, val in self._op.items():
            self.totals[key] += val
        self.ops += 1
        self.op_wall_s += wall_s
        self._op = None
        self._op_models = {}

    def layer_metrics(self) -> dict:
        """Per-op means of every layer span, plus the derived ratios."""
        ops = max(self.ops, 1)
        t = self.totals
        out = {}
        for span in LAYER_SPANS:
            out[span + ".calls"] = (t[span + ".calls"] / ops, "count")
            out[span + ".self_s"] = (t[span + ".self_s"] / ops, "s")
        builds = t["systems.real_section_system.calls"]
        models = t["systems.real_section_system.models"]
        out["systems.real_section_system.calls_per_model"] = (
            builds / models if models else 0.0, "count")
        out["mpoly.evaluate.share"] = (
            t["mpoly.evaluate.self_s"] / self.op_wall_s if self.op_wall_s else 0.0,
            "ratio")
        solves = t["analysis.solve_fiber.newton-multistart.calls"]
        out["analysis.newton.residual_calls_per_solve"] = (
            t["newton.residual_calls"] / solves if solves else 0.0, "count")
        starts = t["newton.starts"]
        out["analysis.newton.solutions_per_start"] = (
            t["newton.solutions"] / starts if starts else 0.0, "ratio")
        out["serialize.write_report.bytes"] = (t["serialize.write_report.bytes"] / ops,
                                               "bytes")
        return out


def _solve_fiber_hook(tracer, args, kwargs, result, residual_mark):
    """Split solve_fiber spans by method and count Newton work."""
    if result is None:
        return "analysis.solve_fiber.error"
    span = "analysis.solve_fiber." + result.method
    if result.method == "newton-multistart":
        op = tracer._op
        op["newton.residual_calls"] += op["systems.residuals.calls"] - residual_mark
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        if cfg is None:
            from twistorcheck.analysis import DEFAULT_CONFIG
            cfg = DEFAULT_CONFIG
        op["newton.starts"] += cfg.multistart
        op["newton.solutions"] += len(result.solutions)
    return span


def _real_section_system_hook(tracer, args, kwargs, result, residual_mark):
    model = args[0] if args else kwargs.get("model")
    tracer._op_models[id(model)] = model
    return None


def _write_report_hook(tracer, args, kwargs, result, residual_mark):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer._op["serialize.write_report.bytes"] += os.path.getsize(path)
    return None


_HOOKS = {
    "analysis.solve_fiber": _solve_fiber_hook,
    "systems.real_section_system": _real_section_system_hook,
    "serialize.write_report": _write_report_hook,
}
