"""Spans and counters around the calls into each fmpl module, installed from outside.

The tracer replaces every binding of a traced function in the fmpl modules
(including names imported into another module, such as ``eval_fmp`` inside
``fmpl.identities`` or ``verify_main`` inside ``fmpl.sweep``) and a few class
methods, so calls made between modules are seen as well as calls from the
CLI.  Nothing in ``src/fmpl`` changes.  Spans are kept in memory as tuples
and written out once, by :meth:`Tracer.write_spans`.

A span is ``(name, parent, t0, t1, outer, p, work)``: ``parent`` is the index
of the enclosing span (-1 at top level), ``outer`` is true when no enclosing
span belongs to the same layer key (so recursive and nested calls are not
counted twice), ``p`` is the prime argument where there is one, and ``work``
is a per-call work count (multiply-adds for products, bytes for window steps,
generators for expression evaluation).
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict

import fmpl
from fmpl import cli, evaluate, identities, modular, surjections, sweep, words

MODULES = (fmpl, modular, words, surjections, evaluate, identities, sweep, cli)

_now = time.perf_counter


def _p_last(args):
    return args[-1] if args and isinstance(args[-1], int) else 0


def _mul_work(args):
    a, b = args
    return a.p, len(a.coeffs) * len(b.coeffs)


def _advanced_work(args):
    table = args[0]
    new_len = (table.stage + 1) * (table.p - 1) + 1
    # the prefix-sum array and the new stage table, both int64
    return table.p, 8 * (len(table.values) + 1 + new_len)


def _expression_work(args):
    expr, p = args
    return p, len(expr.terms)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list = []
        self.triple_peaks: list[float] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, key, fn, work=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p, w = work(args) if work is not None else (_p_last(args), 0)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = active[key] == 0
            spans.append(None)
            stack.append(idx)
            active[key] += 1
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                active[key] -= 1
                stack.pop()
                spans[idx] = (name, parent, t0, t1, outer, p, w)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _triple_peak(self, fn):
        """Tracemalloc peak within each outermost call; tracing runs only inside it."""
        peaks = self.triple_peaks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _replace_method(self, cls, name, wrapper):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install_peak(self) -> None:
        """Only the tracemalloc peak of each eval_fmp_triple call, for a pass of its own."""
        self._replace_everywhere(evaluate.eval_fmp_triple, self._triple_peak(evaluate.eval_fmp_triple))

    def install(self) -> None:
        functions = {
            modular.inverse_table: ("modular.inverse_table", None),
            evaluate.eval_fmp: ("evaluate.eval_fmp", None),
            evaluate.eval_zeta: ("evaluate.eval_zeta", None),
            evaluate.eval_zeta_variant: ("evaluate.eval_zeta_variant", None),
            evaluate.eval_fmp_triple: ("evaluate.eval_fmp_triple", None),
            surjections.variant_expansion: ("surjections.variant_expansion", None),
            surjections.enumerate_phi: ("surjections.enumerate_phi", None),
            identities.expand_triple: ("identities.expand_triple", None),
            identities.eval_expression: ("identities.eval_expression", _expression_work),
            sweep.run_one: ("sweep.task", None),
            sweep.run_sweep: ("sweep.run_sweep", None),
            cli.main: ("cli.main", None),
        }
        for fn in (words.shuffle, words.stuffle, words.star, words.concat):
            functions[fn] = ("words." + fn.__name__, None)
        for name in dir(identities):
            if name.startswith("verify_") or name == "pfd_check":
                functions[getattr(identities, name)] = ("identities." + name, None)
        for fn, (name, work) in functions.items():
            key = "words" if name.startswith("words.") else name
            self._replace_everywhere(fn, self._span(name, key, fn, work))
        self._replace_everywhere(modular.ensure_prime, self._counter("modular.ensure_prime", modular.ensure_prime))
        self._replace_method(modular.ModPoly, "__init__", self._counter("modular.ModPoly.new", modular.ModPoly.__init__))
        self._replace_method(
            modular.ModPoly, "__mul__", self._span("modular.ModPoly.mul", "modular.ModPoly.mul", modular.ModPoly.__mul__, _mul_work)
        )
        self._replace_method(
            evaluate.PartialSumTable,
            "advanced",
            self._span("evaluate.advanced", "evaluate.advanced", evaluate.PartialSumTable.advanced, _advanced_work),
        )
        self._replace_method(words.FormalSum, "__init__", self._span("words.FormalSum", "words", words.FormalSum.__init__))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, outer, p, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "t0": t0, "t1": t1, "outer": outer, "p": p, "work": work}))
                fh.write("\n")


def _hit_ratio(fn) -> float:
    info = fn.cache_info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def _slope(points) -> float:
    """Least-squares slope of log(time) against log(p); 0 without two distinct p."""
    xs = [math.log(p) for p, _ in points]
    ys = [math.log(dt) for _, dt in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(tracer: Tracer, main_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans, the counters and the functions' caches.

    ``<layer>.s`` is the time inside the outermost calls of that layer, so a
    recursive or re-entrant call is counted once.  ``main_s`` is the traced
    wall time of ``cli.main``.  Call it after :meth:`Tracer.uninstall`, so the
    module names are the cached functions again and ``cache_info()`` exists.
    """
    outer_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    mul_points = []
    task_ms = []
    for name, _parent, t0, t1, outer, p, w in tracer.spans:
        dt = t1 - t0
        calls[name] += 1
        work[name] += w
        key = "words" if name.startswith("words.") else name
        if outer:
            outer_s[key] += dt
        if name == "modular.ModPoly.mul" and p >= 500:
            mul_points.append((p, dt))
        elif name == "sweep.task":
            task_ms.append(dt * 1e3)
    task_s = sum(task_ms) / 1e3
    return {
        "modular.inverse_table.s": outer_s["modular.inverse_table"],
        "modular.inverse_table.misses": modular.inverse_table.cache_info().misses,
        "modular.ModPoly.mul.s": outer_s["modular.ModPoly.mul"],
        "modular.ModPoly.mul.calls": calls["modular.ModPoly.mul"],
        "modular.ModPoly.mul.macs": work["modular.ModPoly.mul"],
        "modular.ModPoly.mul.p_exp": _slope(mul_points),
        "modular.ModPoly.new.calls": tracer.counts["modular.ModPoly.new"],
        "modular.ensure_prime.calls": tracer.counts["modular.ensure_prime"],
        "evaluate.eval_fmp.s": outer_s["evaluate.eval_fmp"],
        "evaluate.eval_fmp.calls": calls["evaluate.eval_fmp"],
        "evaluate.eval_fmp.hit_ratio": _hit_ratio(evaluate.eval_fmp),
        "evaluate.advanced.calls": calls["evaluate.advanced"],
        "evaluate.advanced.mb": work["evaluate.advanced"] / 2**20,
        "evaluate.eval_zeta.s": outer_s["evaluate.eval_zeta"],
        "evaluate.eval_zeta.calls": calls["evaluate.eval_zeta"],
        "evaluate.eval_zeta.hit_ratio": _hit_ratio(evaluate.eval_zeta),
        "evaluate.eval_zeta_variant.s": outer_s["evaluate.eval_zeta_variant"],
        "evaluate.eval_fmp_triple.s": outer_s["evaluate.eval_fmp_triple"],
        "evaluate.eval_fmp_triple.calls": calls["evaluate.eval_fmp_triple"],
        "words.s": outer_s["words"],
        "surjections.variant_expansion.s": outer_s["surjections.variant_expansion"],
        "surjections.variant_expansion.calls": calls["surjections.variant_expansion"],
        "surjections.enumerate_phi.s": outer_s["surjections.enumerate_phi"],
        "identities.expand_triple.s": outer_s["identities.expand_triple"],
        "identities.expand_triple.misses": identities.expand_triple.cache_info().misses,
        "identities.eval_expression.s": outer_s["identities.eval_expression"],
        "identities.eval_expression.terms": work["identities.eval_expression"],
        "sweep.tasks": len(task_ms),
        "sweep.task_ms.p50": statistics.median(task_ms) if task_ms else 0.0,
        "sweep.task_ms.max": max(task_ms, default=0.0),
        "sweep.task_s.sum": task_s,
        "sweep.overhead_s": main_s - task_s,
    }
