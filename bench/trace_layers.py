"""Per-layer numbers for `bench/run.py --trace 1`.

The workload's commands run in-process through gsb.cli.main.  Before the
traced rounds, the public functions listed in LAYERS are wrapped from here
(the package itself is not changed).  Most gsb modules bind these names
with `from .x import y`, so each wrapper replaces the name in every gsb
module that bound it.  A wrapper records a span (name, start, end, parent)
in flat in-memory arrays and bumps the layer's work counters; self time is
a span's duration minus the spans of its direct children.

Between commands the package's lru caches and sympy's cache are cleared,
so every command starts as cold as in a fresh process and the counters
repeat exactly from round to round.  The spans' parent links assume the
default single-threaded case loop (GSB_THREADS unset).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Wrapped functions, as (module, attribute); the span name is
# "<module>.<function>" (see span_name) and the self-time metric "<span>.s".
LAYERS = (
    ("quadrature", "kspace_rule"),
    ("quadrature", "integrate_laguerre"),
    ("groups", "rep_matrix_batch"),
    ("transform", "holo_inner"),
    ("transform", "exp_iy_batch"),
    ("transform", "ct_inverse_integral"),
    ("coeffs", "CoefVec.eval_k_batch"),
    ("polar", "log_phi"),
    ("heat", "rho_eval"),
    ("kernels", "k_sobolev_integral"),
    ("kernels", "k_sobolev_spectral"),
    ("kernels", "reproduce_check"),
    ("sobolev", "toeplitz_symbol"),
    ("sobolev", "symbol_positivity_threshold"),
    ("bounds", "kernel_bound_check"),
    ("bounds", "smoothness_report"),
    ("bounds", "lattice_sum"),
    ("cli", "write_report"),
)

COUNTS = (
    "quadrature.kspace_nodes",
    "quadrature.laguerre_nodes",
    "groups.rep_entries",
    "transform.holo_inner.calls",
    "transform.exp_iy_batch.nodes",
    "coeffs.eval_k_batch.points",
    "polar.log_phi.calls",
    "heat.rho_eval.calls",
    "heat.series_terms",
    "sobolev.symbol_recursions",
    "cli.report_bytes",
)

COUNT_UNITS = {"cli.report_bytes": "B"}


def span_name(module_name, attr):
    return f"{module_name}.{attr.split('.')[-1]}"


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Tracer:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.span_names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.recursions = set()  # (group, n) phi_n recursions of the command
        self._undo = []

    # -- counters, keyed by span name; each gets (fn, args, kwargs, result) --

    def _after(self, span):
        counts = self.counts

        def node_count(key):
            return lambda fn, a, k, r: counts.update({key: r.shape[0]})

        def calls(key):
            return lambda fn, a, k, r: counts.update({key: 1})

        def rho(fn, a, k, r):
            counts.update({"heat.rho_eval.calls": 1, "heat.series_terms": r[1].cutoff})

        def symbol(fn, a, k, r):
            key = (str(_arg(fn, a, k, "spec")), _arg(fn, a, k, "n"))
            if key not in self.recursions:
                self.recursions.add(key)
                counts.update({"sobolev.symbol_recursions": 1})

        def report(fn, a, k, r):
            counts.update({"cli.report_bytes": os.path.getsize(_arg(fn, a, k, "path"))})

        return {
            "quadrature.kspace_rule": lambda fn, a, k, r: counts.update({"quadrature.kspace_nodes": r.nodes.shape[0]}),
            "groups.rep_matrix_batch": lambda fn, a, k, r: counts.update({"groups.rep_entries": r.size}),
            "transform.holo_inner": calls("transform.holo_inner.calls"),
            "transform.exp_iy_batch": node_count("transform.exp_iy_batch.nodes"),
            "coeffs.eval_k_batch": node_count("coeffs.eval_k_batch.points"),
            "polar.log_phi": calls("polar.log_phi.calls"),
            "heat.rho_eval": rho,
            "sobolev.toeplitz_symbol": symbol,
            "cli.write_report": report,
        }.get(span)

    def _before(self, span):
        if span != "quadrature.integrate_laguerre":
            return None
        counts = self.counts

        def count_nodes(fn, args, kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            f = bound.arguments["f"]

            def counted(s):
                counts.update({"quadrature.laguerre_nodes": 1})
                return f(s)

            bound.arguments["f"] = counted
            return bound.args, bound.kwargs

        return count_nodes

    def wrap(self, span, fn):
        nid = len(self.span_names)
        self.span_names.append(span)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        before, after = self._before(span), self._after(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(fn, args, kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()
            if after is not None:
                after(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "gsb" or n.startswith("gsb.")]
        for module_name, attr in LAYERS:
            module = sys.modules[f"gsb.{module_name}"]
            span = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(span, orig))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(span, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def take_round(self):
        """Self time per span name and the counters; then start afresh."""
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        own = np.bincount(names, weights=dur - child, minlength=len(self.span_names))
        times = {span: float(own[i]) for i, span in enumerate(self.span_names)}
        counts = {key: int(self.counts[key]) for key in COUNTS}
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()
        return times, counts


def fresh_state():
    """Clear the package's lru caches and sympy's, as a new process has them."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name == "gsb" or name.startswith("gsb."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and id(value) not in seen:
                    seen.add(id(value))
                    value.cache_clear()
    if "sympy" in sys.modules:
        sys.modules["sympy"].core.cache.clear_cache()


def in_process_round(commands, work, tally, tag, tracer=None):
    """One round through gsb.cli.main; returns its wall time."""
    import gsb.cli
    from checks import check_command

    wall = 0.0
    for k, cmd in enumerate(commands):
        fresh_state()
        if tracer is not None:
            tracer.recursions.clear()
        out_dir = work / f"{tag}c{k}"
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = gsb.cli.main(cmd.argv(str(out_dir)))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback ends a CLI process with exit code 1
                code = 1
        wall += time.perf_counter() - start
        tally.add(check_command(cmd, code, out.getvalue()))
    return wall


def import_times(env, work, repeats=3):
    """(gsb.cli import, sympy import inside it) in seconds, from -X importtime."""
    totals, sympys = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gsb.cli"],
            env=env, cwd=work, capture_output=True, text=True, check=True,
        )
        total = sympy = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2][1:]  # one space follows the bar; the rest is nesting
            if name in ("gsb", "gsb.cli"):
                total += int(fields[1])
            elif name.strip() == "sympy" and not sympy:
                sympy = int(fields[1])
        totals.append(total / 1e6)
        sympys.append(sympy / 1e6)
    return statistics.median(totals), statistics.median(sympys)


def traced(commands, src, work, seconds, tally, env, run_rounds):
    """Per-layer metrics: {name: (value, unit)}."""
    import_s, sympy_s = import_times(env, work)
    sys.path.insert(0, str(src))
    import gsb.cli  # noqa: F401  (loads every gsb module before wrapping)

    start = time.perf_counter()
    plain = in_process_round(commands, work, tally, "u")
    tracer = Tracer()
    tracer.install()
    try:
        left = seconds - (time.perf_counter() - start)

        def one(i):
            wall = in_process_round(commands, work, tally, f"t{i}", tracer)
            return wall, *tracer.take_round()

        rounds = run_rounds(left, one)
    finally:
        tracer.uninstall()

    metrics = {}
    for module_name, attr in LAYERS:
        span = span_name(module_name, attr)
        metrics[f"{span}.s"] = (statistics.median(r[1][span] for r in rounds), "s")
    for key in COUNTS:
        metrics[key] = (rounds[0][2][key], COUNT_UNITS.get(key, "count"))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.sympy_import_s"] = (sympy_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(r[0] for r in rounds) - plain, "s")
    return metrics
