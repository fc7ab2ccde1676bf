"""Per-layer tracing of archvar from outside the program.

``Tracer`` replaces each layer's public functions, in every archvar module
namespace that holds them, with wrappers that record a span per call: its
name, its inclusive time, the time of the spans it caused, and a work count
(rows, nodes, elements).  The integrand handed to ``quadrature.integrate`` and
the margins' ``__call__`` are wrapped the same way.  Aggregates are kept in
memory; ``layer_metrics`` derives the per-layer numbers from them.

``PeakAlloc`` is a separate pass under ``tracemalloc``: it records the peak
bytes allocated inside ``sample_copula`` and ``run_study``.  It runs apart
from the timed trace because tracemalloc slows every allocation.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

FRAILTY = {"gammas": "clayton", "log_series": "frank", "positive_stables": "gumbel",
           "sibuyas": "joe", "geometrics": "amh"}
MARGIN_KINDS = {"UniformMargin": "uniform", "FunctionMargin": "function",
                "TabulatedMargin": "tabulated"}


def _size(i):
    return lambda args: int(np.size(args[i]))


# (module, function) -> work count of one call, from its arguments
TRACED = {
    ("rng", "substream_keys"): _size(2),
    ("rng", "uniforms"): _size(0),
    ("rng", "exponentials"): _size(0),
    **{("rng", name): _size(0) for name in FRAILTY},
    ("sampling", "sample_copula"): lambda args: int(args[1]),
    ("sampling", "sample_frailty"): lambda args: int(args[3]),
    ("sampling", "empirical_kendall_tau"): lambda args: len(getattr(args[0], "data", args[0])),
    ("families", "phi"): _size(1),
    ("families", "phi_prime"): _size(1),
    ("families", "phi_inverse"): _size(1),
    ("families", "copula_cdf"): lambda args: int(np.size(args[1])) // args[0].d,
    ("mc", "run_study"): lambda args: args[0].n * args[0].replications,
    ("mc", "estimate_var_once"): lambda args: args[0].rows,
    ("quadrature", "integrate"): lambda args: 1,
    ("var", "var_for_spec"): lambda args: args[0].d,
    ("calibration", "theta_from_tau"): lambda args: 1,
    ("calibration", "kendall_tau"): lambda args: 1,
}


def _archvar_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "archvar" or name.startswith("archvar."))]


def _patch(originals: dict, namespaces) -> list:
    """Point every name bound to an original at its wrapper; return the undo list."""
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and value is wrapper[0]:
                undo.append((ns, attr, value))
                setattr(ns, attr, wrapper[1])
    return undo


class Tracer:
    """Context manager that records spans at archvar's layer boundaries."""

    def __init__(self, av):
        self.av = av
        self.stack = []                      # [span name, seconds of child spans]
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self.edge_calls = defaultdict(int)   # (parent, child) -> calls
        self.edge_s = defaultdict(float)     # (parent, child) -> child inclusive seconds
        self.selected = 0
        self._undo = []

    def _record(self, name, work, fn, args, kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            parent = self.stack[-1] if self.stack else None
            if parent is not None:
                parent[1] += dt
            key = (parent[0] if parent else None, name)
            self.edge_calls[key] += 1
            self.edge_s[key] += dt
            self.calls[name] += 1
            self.incl[name] += dt
            self.self_s[name] += dt - frame[1]
            self.work[name] += work

    def _wrap(self, module, fname, fn, work_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{module}.{fname}"
            if fname in FRAILTY:
                name = f"rng.frailty.{FRAILTY[fname]}"
            elif fname == "theta_from_tau":
                name = f"calibration.theta_from_tau.{args[0].value}"
            elif fname == "integrate":
                caller = tracer.stack[-1][0] if tracer.stack else "none"
                f = args[0]

                def integrand(x):
                    return tracer._record(f"quadrature.integrand<{caller}>", int(np.size(x)),
                                          f, (x,), {})

                args = (integrand,) + tuple(args[1:])
            out = tracer._record(name, work_of(args), fn, args, kwargs)
            if fname == "estimate_var_once":
                tracer.selected += out[1]
            return out

        return wrapper

    def _wrap_margin(self, cls, kind):
        tracer = self
        call = cls.__call__

        @functools.wraps(call)
        def wrapper(margin, u):
            return tracer._record(f"margins.{kind}", int(np.size(u)), call, (margin, u), {})

        return wrapper

    def __enter__(self):
        av = self.av
        originals = {}
        for (module, fname), work_of in TRACED.items():
            fn = getattr(getattr(av, module), fname)
            originals[id(fn)] = (fn, self._wrap(module, fname, fn, work_of))
        self._undo = _patch(originals, _archvar_namespaces())
        for cls_name, kind in MARGIN_KINDS.items():
            cls = getattr(av, cls_name)
            self._undo.append((cls, "__call__", cls.__call__))
            cls.__call__ = self._wrap_margin(cls, kind)
        return self

    def __exit__(self, *exc):
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        self._undo = []
        return False

    def table(self) -> dict:
        """Aggregates by span name, for the trace file."""
        return {name: {"calls": self.calls[name], "inclusive_s": self.incl[name],
                       "self_s": self.self_s[name], "work": self.work[name]}
                for name in sorted(self.calls)}


class PeakAlloc:
    """Peak tracemalloc bytes allocated inside sample_copula and run_study."""

    SPANS = {("sampling", "sample_copula"): "sampling", ("mc", "run_study"): "mc"}

    def __init__(self, av):
        self.av = av
        self.peak = defaultdict(int)
        self.stack = []                      # [bytes at entry, highest peak seen]
        self._undo = []

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], peak)
            frame = [current, current]
            self.stack.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.peak[layer] = max(self.peak[layer], top - frame[0])
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], top)

        return wrapper

    def __enter__(self):
        originals = {}
        for (module, fname), layer in self.SPANS.items():
            fn = getattr(getattr(self.av, module), fname)
            originals[id(fn)] = (fn, self._wrap(layer, fn))
        self._undo = _patch(originals, _archvar_namespaces())
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for ns, attr, value in reversed(self._undo):
            setattr(ns, attr, value)
        return False


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, peak: PeakAlloc) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``; 0 where a layer did no work."""
    calls, incl, self_s, work = tr.calls, tr.incl, tr.self_s, tr.work
    per_mrow = 1e9                          # seconds per row -> ms per 1e6 rows
    rows = work["sampling.sample_copula"]
    out = {
        "rng.keys_ms_per_mrow": (_ratio(incl["rng.substream_keys"],
                                        work["rng.substream_keys"], per_mrow), "ms"),
        "rng.exponentials_ms_per_mrow": (_ratio(incl["rng.exponentials"],
                                                work["rng.exponentials"], per_mrow), "ms"),
    }
    for fam in ("clayton", "frank", "gumbel", "joe"):
        name = f"rng.frailty.{fam}"
        out[f"rng.frailty_ms_per_mrow.{fam}"] = (_ratio(incl[name], work[name], per_mrow), "ms")
    under_sampling = tr.edge_s[("sampling.sample_copula", "families.phi_inverse")]
    var_calls = calls["var.var_for_spec"]
    margin_names = [f"margins.{kind}" for kind in MARGIN_KINDS.values()]
    integrands = [name for name in calls if name.startswith("quadrature.integrand<")]
    solves = [name for name in calls if name.startswith("calibration.theta_from_tau.")]
    out.update({
        "rng.words_per_row": (_ratio(work["rng.uniforms"], rows), "count"),
        "sampling.sample_ms_per_mrow": (_ratio(incl["sampling.sample_copula"], rows,
                                               per_mrow), "ms"),
        "sampling.transform_ms_per_mrow": (_ratio(under_sampling
                                                  + self_s["sampling.sample_copula"],
                                                  rows, per_mrow), "ms"),
        "sampling.kendall_ms_per_mrow": (_ratio(incl["sampling.empirical_kendall_tau"],
                                                work["sampling.empirical_kendall_tau"],
                                                per_mrow), "ms"),
        "sampling.peak_alloc_mb": (peak.peak["sampling"] / 2 ** 20, "MB"),
        "families.copula_cdf_ms_per_mrow": (_ratio(incl["families.copula_cdf"],
                                                   work["families.copula_cdf"], per_mrow), "ms"),
        "families.phi_inverse_ms_per_mrow": (_ratio(incl["families.phi_inverse"],
                                                    work["families.phi_inverse"],
                                                    per_mrow), "ms"),
        "mc.estimate_ms_per_mrow": (_ratio(incl["mc.estimate_var_once"],
                                           work["mc.estimate_var_once"], per_mrow), "ms"),
        "mc.reduction_ms_per_rep": (_ratio(
            incl["mc.estimate_var_once"]
            - tr.edge_s[("mc.estimate_var_once", "families.copula_cdf")],
            calls["mc.estimate_var_once"], 1e3), "ms"),
        "mc.study_self_ms": (_ratio(self_s["mc.run_study"], calls["mc.run_study"], 1e3), "ms"),
        "mc.selected_per_mrow": (_ratio(tr.selected, work["mc.estimate_var_once"], 1e6),
                                 "count"),
        "mc.peak_alloc_mb": (peak.peak["mc"] / 2 ** 20, "MB"),
        "quadrature.calls_per_var": (_ratio(tr.edge_calls[("var.var_for_spec",
                                                           "quadrature.integrate")],
                                            var_calls), "count"),
        "quadrature.evals_per_call": (_ratio(sum(work[n] for n in integrands),
                                             calls["quadrature.integrate"]), "count"),
        "quadrature.batches_per_call": (_ratio(sum(calls[n] for n in integrands),
                                               calls["quadrature.integrate"]), "count"),
        "quadrature.self_ms_per_call": (_ratio(self_s["quadrature.integrate"],
                                               calls["quadrature.integrate"], 1e3), "ms"),
        "quadrature.us_per_eval": (_ratio(sum(incl[n] for n in integrands),
                                          sum(work[n] for n in integrands), 1e6), "us"),
        "var.self_ms_per_call": (_ratio(self_s["var.var_for_spec"], var_calls, 1e3), "ms"),
        "var.weight_ms_per_call": (_ratio(self_s["quadrature.integrand<var.var_for_spec>"],
                                          var_calls, 1e3), "ms"),
        "margins.evals_per_call": (_ratio(sum(work[n] for n in margin_names),
                                          sum(calls[n] for n in margin_names)), "count"),
        "calibration.integrals_per_solve": (_ratio(
            sum(tr.edge_calls[(n, "quadrature.integrate")] for n in solves),
            sum(calls[n] for n in solves)), "count"),
        "calibration.kendall_tau_ms": (_ratio(incl["calibration.kendall_tau"],
                                              calls["calibration.kendall_tau"], 1e3), "ms"),
    })
    for kind in MARGIN_KINDS.values():
        name = f"margins.{kind}"
        out[f"margins.ms_per_call.{kind}"] = (_ratio(incl[name], calls[name], 1e3), "ms")
    for fam in ("clayton", "frank", "gumbel", "joe", "amh"):
        name = f"calibration.theta_from_tau.{fam}"
        out[f"calibration.solve_ms.{fam}"] = (_ratio(incl[name], calls[name], 1e3), "ms")
    return out
