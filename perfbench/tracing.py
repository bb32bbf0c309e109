"""Spans around the public functions of each godeaux layer.

``Tracer.install`` replaces each function named by ``targets()`` with a
wrapper that records a span (name, start, end, parent span, request id).
A function imported by value into other modules is replaced in every
godeaux module that holds it, and class attributes are replaced on the
class, aliases included.  ``restore`` puts every original back.  Spans stay
in memory; ``dump`` writes them out when the run ends, and ``layer_metrics``
turns them into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from godeaux.errors import BudgetExceeded

CHECKS = tuple(f"C{i}" for i in range(1, 15))
GROEBNER = ("buchberger", "reduce", "ideal_member", "radical_member",
            "eliminate", "ring_map_kernel", "jacobian_smoothness")
PURE = ("buchberger", "buchberger_tracked", "normal_form",
        "normal_form_tracked")
COMPILED = ("buchberger", "normal_form")
RINGS_OPS = {"mul": "__mul__", "add": "__add__", "sub": "__sub__",
             "pow": "__pow__"}
RINGS_FUNCS = ("substitute", "parse_poly", "format_poly")
DERIVATIONS = ("apply", "graded_kernel", "chart_transform", "iterate_power",
               "fixed_locus_ideal", "vector_reduce")
NUMERICS = ("torsor_invariants", "descend_invariants",
            "self_intersection_from_chis", "chi_of_anticanonical_power",
            "noether_check", "feasible_characteristics", "torsion_order_bound",
            "betti_consistency", "e1_degeneration_check",
            "hypersurface_invariants")
LAYERS = ("cli", "suite", "groebner", "kernel", "rings", "derivations",
          "numerics", "fixtures")


def _terms(polys) -> int:
    return sum(len(t) for t in polys) if polys else 0


def _count_buchberger(values, args, result):
    basis, pairs = result
    values["kernel.terms_in"] += _terms(args[0])
    values["kernel.terms_out"] += _terms(basis)
    values["groebner.pairs_processed"] += pairs
    values["groebner.basis_polys"] += len(basis)


def _count_buchberger_tracked(values, args, result):
    basis, reps, pairs, unit = result
    values["kernel.terms_in"] += _terms(args[0])
    values["kernel.terms_out"] += (_terms(basis) + sum(_terms(r) for r in reps or ())
                                   + _terms(unit))
    values["groebner.pairs_processed"] += pairs
    values["groebner.basis_polys"] += len(basis or ())


def _count_normal_form(values, args, result):
    values["kernel.terms_in"] += len(args[0]) + _terms(args[1])
    values["kernel.terms_out"] += len(result)


def _count_normal_form_tracked(values, args, result):
    remainder, quotients = result
    values["kernel.terms_in"] += len(args[0]) + _terms(args[1])
    values["kernel.terms_out"] += len(remainder) + _terms(quotients)


def _count_checks(values, args, result):
    for check in result:
        values[f"suite.check.{check.id}.s"] += check.elapsed


_KERNEL_COUNTS = {"buchberger": _count_buchberger,
                  "buchberger_tracked": _count_buchberger_tracked,
                  "normal_form": _count_normal_form,
                  "normal_form_tracked": _count_normal_form_tracked}


def targets() -> list[tuple[str, str, str, object]]:
    """(span name, module, attribute, count hook) for every wrapped call.

    An attribute ``Class.method`` names a method on a class.  The compiled
    kernel is included only when it is loaded.
    """
    out = [("cli.main", "godeaux.cli", "main", None),
           ("suite.run_all", "godeaux.suite", "run_all", _count_checks),
           ("suite.report", "godeaux.suite", "report", None),
           ("suite.verify_witness", "godeaux.suite", "verify_witness", None),
           ("fixtures.load_fixtures", "godeaux.fixtures", "load_fixtures",
            None)]
    out += [(f"groebner.{f}", "godeaux.groebner", f, None) for f in GROEBNER]
    out += [(f"kernel.pure.{f}", "godeaux._kernel_pure", f, _KERNEL_COUNTS[f])
            for f in PURE]
    if "godeaux._kernel" in sys.modules:
        out += [(f"kernel.compiled.{f}", "godeaux._kernel", f,
                 _KERNEL_COUNTS[f]) for f in COMPILED]
    out += [(f"rings.{op}", "godeaux.rings", f"Polynomial.{dunder}", None)
            for op, dunder in RINGS_OPS.items()]
    out += [(f"rings.{f}", "godeaux.rings", f, None) for f in RINGS_FUNCS]
    out += [(f"derivations.{f}", "godeaux.derivations", f, None)
            for f in DERIVATIONS]
    out += [(f"numerics.{f}", "godeaux.numerics", f, None) for f in NUMERICS]
    return out


class Tracer:
    """Records spans around the wrapped calls of one process."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index, request)
        self.values: dict = defaultdict(float)   # counts taken at the spans
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, values = self.spans, self._stack, self.values
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                if name.startswith("kernel."):
                    values["groebner.budget_exceeded"] += 1
                raise
            finally:
                stack.pop()
                spans[index] = (name, start, clock(), parent, self.request)
            if count is not None:
                count(values, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; wrapping twice is refused."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}       # id(original function) -> wrapper
        classes = set()
        for name, module_name, attr, count in targets():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                classes.add(owner)
            original = vars(owner)[attr]
            wrappers[id(original)] = self.wrap(name, original, count)
        owners = list(classes) + [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "godeaux"
                                       or name.startswith("godeaux."))]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((owner, key, value))
                    setattr(owner, key, wrapper)

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "values": self.values}, fh)


def _name_metrics() -> list[tuple[str, str]]:
    names = [("cli.main.s", "s"), ("cli.main.self_s", "s"),
             ("suite.run_all.s", "s")]
    names += [(f"suite.check.{c}.s", "s") for c in CHECKS]
    names += [("suite.report.s", "s"), ("suite.verify_witness.calls", "count"),
              ("suite.verify_witness.s", "s")]
    for f in GROEBNER:
        names += [(f"groebner.{f}.calls", "count"), (f"groebner.{f}.s", "s"),
                  (f"groebner.{f}.self_s", "s")]
    names += [("groebner.pairs_processed", "count"),
              ("groebner.basis_polys", "count"),
              ("groebner.budget_exceeded", "count")]
    for kind, funcs in (("pure", PURE), ("compiled", COMPILED)):
        for f in funcs:
            names += [(f"kernel.{kind}.{f}.calls", "count"),
                      (f"kernel.{kind}.{f}.s", "s")]
    names += [("kernel.terms_in", "count"), ("kernel.terms_out", "count")]
    for f in list(RINGS_OPS) + list(RINGS_FUNCS):
        names += [(f"rings.{f}.calls", "count"), (f"rings.{f}.s", "s")]
    for f in DERIVATIONS:
        names += [(f"derivations.{f}.calls", "count"),
                  (f"derivations.{f}.s", "s")]
    names += [("numerics.s", "s"), ("fixtures.load_fixtures.s", "s")]
    names += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    names += [("trace.requests", "count"), ("trace.request_s", "s"),
              ("trace.verdict_s.p50", "s"), ("trace.untraced_verdict_s.p50", "s"),
              ("trace.overhead_s", "s")]
    return names


#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = _name_metrics()


def span_totals(spans: list, values: dict | None = None) -> dict:
    """Sum one process's spans into calls, inclusive and self seconds.

    ``.s`` counts only the outermost span of each name, so recursion is
    not counted twice; ``layer.<layer>.self_s`` partitions the traced time
    by the layer of the innermost active span.
    """
    out: dict = defaultdict(float)
    for key, value in (values or {}).items():
        out[key] += value
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_s = duration - covered[i]
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"layer.{layer}.self_s"] += self_s
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            out[f"{name}.s"] += duration
        if layer == "numerics":
            ancestor = parent
            while ancestor >= 0 and not spans[ancestor][0].startswith("numerics."):
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out["numerics.s"] += duration
    return out


def layer_metrics(totals: dict) -> dict:
    """The ``PER_LAYER`` metrics, zero where a layer was not reached."""
    return {name: {"value": totals.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}
