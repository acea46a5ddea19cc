"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods of each jetcalc
layer by wrappers that time them, and rebinds every alias of them: names other
modules copied with ``from .calculus import linearize``, the package's
re-exports, and class aliases such as ``__radd__ = __add__``.  ``restore()``
puts every original object back.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of the wrapped calls it
made.  The tracer's own bookkeeping is charged to no span: it sits outside the
wrapped call's timed interval and is counted as child time of the caller.
Count-only wrappers (``multiindex``, the derivative cache) take no clock
readings; their small cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, class or None, attribute) for timed spans.
SPANS = (
    ("expressions.total_derivative", "jetcalc.expressions", "PolyExpr", "total_derivative"),
    ("expressions.mul", "jetcalc.expressions", "PolyExpr", "__mul__"),
    ("expressions.add", "jetcalc.expressions", "PolyExpr", "__add__"),
    ("expressions.add", "jetcalc.expressions", "PolyExpr", "__sub__"),
    ("expressions.partial", "jetcalc.expressions", "PolyExpr", "partial"),
    ("vectorops.arith", "jetcalc.vectorops", "VectorOperator", "__add__"),
    ("vectorops.arith", "jetcalc.vectorops", "VectorOperator", "__sub__"),
    ("vectorops.arith", "jetcalc.vectorops", "VectorOperator", "__neg__"),
    ("vectorops.arith", "jetcalc.vectorops", "VectorOperator", "scale"),
    ("operators.apply", "jetcalc.operators", "CDiffOperator", "apply"),
    ("operators.compose", "jetcalc.operators", "CDiffOperator", "compose"),
    ("calculus.linearize", "jetcalc.calculus", None, "linearize"),
    ("calculus.evolutionary_apply", "jetcalc.calculus", None, "evolutionary_apply"),
    ("calculus.jacobi_bracket", "jetcalc.calculus", None, "jacobi_bracket"),
    ("calculus.hessian_form", "jetcalc.calculus", None, "hessian_form"),
    ("calculus.hessian_operator", "jetcalc.calculus", None, "hessian_operator"),
    ("identities.check", "jetcalc.identities", None, "check_hessian_symmetry"),
    ("identities.check", "jetcalc.identities", None, "check_linearization_anomaly"),
    ("identities.check", "jetcalc.identities", None, "check_bracket_leibniz"),
    ("identities.check", "jetcalc.identities", None, "check_jacobi_identity"),
    ("identities.check", "jetcalc.identities", None, "check_evolutionary_antihomomorphism"),
    ("identities.check", "jetcalc.identities", None, "check_commutation"),
    ("identities.check", "jetcalc.identities", None, "check_multiplier_identity"),
    ("identities.check", "jetcalc.identities", None, "check_bracket_oracle"),
    ("identities.sample", "jetcalc.calculus", None, "random_vector_operator"),
    ("identities.sample", "jetcalc.expressions", None, "random_expr"),
    ("identities.report", "jetcalc.identities", None, "run_random_suite"),
    ("structures.residual", "jetcalc.structures", None, "symmetry_residual"),
    ("structures.residual", "jetcalc.structures", None, "aux_residual"),
    ("dsl.parse", "jetcalc.dsl", None, "parse"),
    ("dsl.parse", "jetcalc.dsl", None, "parse_expression"),
    ("printing.text", "jetcalc.printing", None, "poly_text"),
    ("printing.text", "jetcalc.printing", None, "vector_text"),
    ("printing.text", "jetcalc.printing", None, "cdiff_text"),
    ("printing.latex", "jetcalc.printing", None, "latex"),
    ("printing.json", "jetcalc.expressions", "PolyExpr", "to_json"),
    ("printing.json", "jetcalc.vectorops", "VectorOperator", "to_json"),
    ("printing.json", "jetcalc.operators", "CDiffOperator", "to_json"),
    ("cli.build_parser", "jetcalc.cli", None, "build_parser"),
    ("cli.main", "jetcalc.cli", None, "main"),
)

# (counter, module, class or None, attribute) for count-only wrappers.
COUNTS = (
    ("multiindex.bump.calls", "jetcalc.multiindex", "MultiIndex", "bump"),
    ("multiindex.sub_indices.calls", "jetcalc.multiindex", None, "sub_indices"),
    ("calculus.derivative_cache.requests", "jetcalc.calculus", "DerivativeCache", "get"),
)

# The reported per-layer metrics: (name, unit, better).
LAYER_METRICS = (
    ("multiindex.bump.calls", "count", "lower"),
    ("multiindex.sub_indices.calls", "count", "lower"),
    ("expressions.total_derivative.calls", "count", "lower"),
    ("expressions.total_derivative.self_s", "s", "lower"),
    ("expressions.total_derivative.terms_in", "count", "lower"),
    ("expressions.total_derivative.distinct_ratio", "ratio", "higher"),
    ("expressions.mul.calls", "count", "lower"),
    ("expressions.mul.self_s", "s", "lower"),
    ("expressions.mul.term_pairs", "count", "lower"),
    ("expressions.add.calls", "count", "lower"),
    ("expressions.add.self_s", "s", "lower"),
    ("expressions.add.terms_copied", "count", "lower"),
    ("expressions.partial.calls", "count", "lower"),
    ("expressions.partial.self_s", "s", "lower"),
    ("expressions.peak_terms", "count", "lower"),
    ("vectorops.arith.calls", "count", "lower"),
    ("vectorops.arith.self_s", "s", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.self_s", "s", "lower"),
    ("operators.compose.calls", "count", "lower"),
    ("operators.compose.self_s", "s", "lower"),
    ("calculus.linearize.calls", "count", "lower"),
    ("calculus.linearize.self_s", "s", "lower"),
    ("calculus.evolutionary_apply.calls", "count", "lower"),
    ("calculus.evolutionary_apply.self_s", "s", "lower"),
    ("calculus.jacobi_bracket.calls", "count", "lower"),
    ("calculus.jacobi_bracket.self_s", "s", "lower"),
    ("calculus.hessian_form.calls", "count", "lower"),
    ("calculus.hessian_form.self_s", "s", "lower"),
    ("calculus.hessian_operator.calls", "count", "lower"),
    ("calculus.hessian_operator.self_s", "s", "lower"),
    ("calculus.derivative_cache.requests", "count", "lower"),
    ("identities.check.self_s", "s", "lower"),
    ("identities.sample.self_s", "s", "lower"),
    ("identities.report.self_s", "s", "lower"),
    ("structures.residual.calls", "count", "lower"),
    ("structures.residual.self_s", "s", "lower"),
    ("dsl.parse.calls", "count", "lower"),
    ("dsl.parse.self_s", "s", "lower"),
    ("dsl.parse.bytes", "count", "lower"),
    ("printing.text.self_s", "s", "lower"),
    ("printing.latex.self_s", "s", "lower"),
    ("printing.json.self_s", "s", "lower"),
    ("cli.build_parser.calls", "count", "lower"),
    ("cli.build_parser.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

MARK = "_perfbench_original"


def _jetcalc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "jetcalc" or name.startswith("jetcalc.")]


def _n_terms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0])  # metric -> [calls, self seconds]
        self.counts = Counter()
        self._stack = [[0.0]]
        self._td_inputs = set()
        self._patches = []  # (owner, attribute, original)

    # -- hooks that run after a wrapped call, outside its timed interval --------

    def _expression_result(self, result) -> None:
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.counts["expressions.peak_terms"]:
            self.counts["expressions.peak_terms"] = len(terms)

    def _hook(self, metric: str):
        counts = self.counts
        if metric == "expressions.total_derivative":
            def hook(args, result):
                e, i = args
                counts["expressions.total_derivative.terms_in"] += len(e.terms)
                self._td_inputs.add(hash((e.bundle, frozenset(e.terms.items()), i)))
                self._expression_result(result)
        elif metric == "expressions.mul":
            def hook(args, result):
                counts["expressions.mul.term_pairs"] += len(args[0].terms) * _n_terms(args[1])
                self._expression_result(result)
        elif metric == "expressions.add":
            def hook(args, result):
                counts["expressions.add.terms_copied"] += len(args[0].terms)
                self._expression_result(result)
        elif metric == "expressions.partial":
            def hook(args, result):
                self._expression_result(result)
        elif metric == "dsl.parse":
            def hook(args, result):
                counts["dsl.parse.bytes"] += len(args[0].encode())
        else:
            hook = None
        return hook

    # -- wrappers --------------------------------------------------------------

    def _span(self, metric: str, fn):
        stack, stat, hook, clock = self._stack, self.spans[metric], self._hook(metric), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            w0 = clock()
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
            if hook is not None:
                hook(args, result)
            stack[-1][0] += clock() - w0
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def _counter(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target and rebind each of its aliases."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for _, modname, _, _ in SPANS + COUNTS:
            importlib.import_module(modname)
        modules = _jetcalc_modules()
        for table, make in ((SPANS, self._span), (COUNTS, self._counter)):
            for metric, modname, clsname, attr in table:
                mod = sys.modules[modname]
                owner = getattr(mod, clsname) if clsname else mod
                original = vars(owner)[attr]
                wrapper = make(metric, original)
                scopes = [owner] if clsname else modules
                for scope in scopes:
                    for name, value in list(vars(scope).items()):
                        if value is original:
                            self._patch(scope, name, wrapper)

    def restore(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patch_count(self) -> int:
        return len(self._patches)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Every layer metric except trace.overhead_ratio, which needs the
        untraced run."""
        values = dict(self.counts)
        for metric, (calls, self_s) in self.spans.items():
            values[f"{metric}.calls"] = calls
            values[f"{metric}.self_s"] = self_s
        calls = values.get("expressions.total_derivative.calls", 0)
        values["expressions.total_derivative.distinct_ratio"] = (
            len(self._td_inputs) / calls if calls else 0.0
        )
        return {name: values.get(name, 0) for name, _, _ in LAYER_METRICS if name != "trace.overhead_ratio"}


def leftover_wrappers() -> list:
    """Names in jetcalc's modules and classes still bound to a tracing wrapper."""
    found = []
    for mod in _jetcalc_modules():
        for name, value in vars(mod).items():
            scopes = [(mod.__name__, name, value)]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                scopes += [(f"{mod.__name__}.{name}", a, v) for a, v in vars(value).items()]
            found += [f"{where}.{a}" for where, a, v in scopes if hasattr(v, MARK)]
    return found
