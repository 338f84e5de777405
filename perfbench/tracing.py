"""In-memory spans around the program's layers, installed from outside.

``instrument(tracer)`` rebinds the public functions of the package's modules
to wrappers that record a span (name, start, end, parent) and per-layer
counts.  A function imported by name into another module is rebound in every
module that holds it, and the gauge and bump factories return models whose
evaluators are wrapped, so that closures built inside the checks are traced
too.  Everything is restored when the context exits; objects built while
tracing keep their wrappers, so the workloads build their inputs inside each
pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("carnot_hardy", "carnot_hardy.norms", "carnot_hardy.zfield",
           "carnot_hardy.bounds", "carnot_hardy.cli", "carnot_hardy.verify",
           "carnot_hardy.verify.testfuncs", "carnot_hardy.verify.quadrature",
           "carnot_hardy.verify.checks")


class Tracer:
    """Spans and counts for one pass; self time is computed as spans close."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []      # [span index, time covered by children]
        self._open: dict[str, int] = defaultdict(int)

    def call(self, name, fn, args, kwargs, count=None):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.self_s[name] += dur - frame[1]
            if not self._open[name]:
                self.inclusive_s[name] += dur
            if self._stack:
                self._stack[-1][1] += dur
        if count is not None:
            for key, value in count(args, kwargs, out).items():
                self.counts[key] += value
        return out

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        traced.__wrapped__ = fn
        return traced

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def save(self, path: Path):
        """Write every span of the pass as compressed arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            start=np.frombuffer(self.span_start, dtype=np.float64),
                            end=np.frombuffer(self.span_end, dtype=np.float64),
                            parent=np.frombuffer(self.span_parent, dtype=np.int32))


# ---------------------------------------------------------------------------
# counts taken at the layer boundaries
# ---------------------------------------------------------------------------

def _points(arr) -> int:
    return int(np.asarray(arr).size)


def _count_smoothstep(args, kwargs, out):
    x = np.asarray(args[0], dtype=float)
    return {"smoothstep_points": x.size,
            "smoothstep_interior": int(np.count_nonzero((x > 0.0) & (x < 1.0)))}


def _count_value(args, kwargs, out):
    return {"value_points": _points(out)}


def _count_hgrad(args, kwargs, out):
    return {"hgrad_points": _points(out) // max(np.shape(out)[-1], 1)}


def _count_mu(args, kwargs, out):
    return {"mu_inverse_points": _points(out)}


def _count_bump(args, kwargs, out):
    return {"bump_calls": 1}


def _count_components(args, kwargs, out):
    return {"components_calls": 1,
            "components_points": _points(out) // max(np.shape(out)[-1], 1)}


def _count_golden(args, kwargs, out):
    return {"golden_calls": 1}


def _count_nodes(args, kwargs, out):
    z, t, w = out
    return {"nodes": int(w.size), "node_bytes": int(z.nbytes + t.nbytes + w.nbytes)}


def _count_integrand(args, kwargs, out):
    return {"integrand_evals": _points(out)}


# ---------------------------------------------------------------------------
# rebinding
# ---------------------------------------------------------------------------

def _wrap_norm(tracer: Tracer, model):
    fields = {"value": tracer.wrap("norms.value", model.value, _count_value)}
    if model.hgrad is not None:
        fields["hgrad"] = tracer.wrap("norms.hgrad", model.hgrad, _count_hgrad)
    if model.dt is not None:
        fields["dt"] = tracer.wrap("norms.dt", model.dt)
    return dataclasses.replace(model, **fields)


def _wrap_bump(tracer: Tracer, tf):
    fields = {"value": tracer.wrap("testfuncs.bump", tf.value, _count_bump)}
    for attr in ("hgrad", "euler"):
        fn = getattr(tf, attr)
        if fn is not None:
            fields[attr] = tracer.wrap("testfuncs.bump", fn, _count_bump)
    return dataclasses.replace(tf, **fields)


def _factory(tracer: Tracer, fn, wrap_result):
    def build(*args, **kwargs):
        return wrap_result(tracer, fn(*args, **kwargs))
    build.__wrapped__ = fn
    return build


def _integrator(tracer: Tracer, fn):
    def integrate_many(group, fs, quad):
        fs = [tracer.wrap("quadrature.integrand", f, _count_integrand) for f in fs]
        return tracer.call("quadrature.integrate", fn, (group, fs, quad), {})
    integrate_many.__wrapped__ = fn
    return integrate_many


# (module, function, span name or factory kind, count); a name the program no
# longer defines is skipped, so the traced run survives a refactor
TRACED = [
    ("norms", "koranyi", "norm factory", None),
    ("norms", "koranyi_b", "norm factory", None),
    ("norms", "cc", "norm factory", None),
    ("norms", "balogh_tyson", "norm factory", None),
    ("norms", "solve_mu_inverse", "norms.mu_inverse", _count_mu),
    ("verify.testfuncs", "smoothstep", "testfuncs.smoothstep", _count_smoothstep),
    ("verify.testfuncs", "smoothstep_d", "testfuncs.smoothstep", _count_smoothstep),
    ("verify.testfuncs", "radial_bump", "bump factory", None),
    ("verify.testfuncs", "sharpness_function", "bump factory", None),
    ("verify.testfuncs", "extremal_power", "bump factory", None),
    ("zfield", "z_field_components", "zfield.components", _count_components),
    ("zfield", "golden_section_max", "zfield.golden", _count_golden),
    ("zfield", "multistart_sup", "zfield.multistart", None),
    ("zfield", "sup_z_norm", "bounds.sup_z_norm", None),
    ("bounds", "bound_generic", "bounds.formula", None),
    ("bounds", "bound_koranyi", "bounds.formula", None),
    ("bounds", "bound_cc", "bounds.formula", None),
    ("bounds", "bound_koranyi_B", "bounds.formula", None),
    ("bounds", "bound_product", "bounds.formula", None),
    ("verify.quadrature", "phi_polar_nodes", "quadrature.nodes", _count_nodes),
    ("verify.quadrature", "ambient_nodes", "quadrature.nodes", _count_nodes),
    ("verify.quadrature", "integrate_many", "integrator", None),
    ("verify.checks", "check_ibp_identity", "checks.ibp", None),
    ("verify.checks", "hardy_quotient", "checks.hardy", None),
    ("verify.checks", "sharpness_sequence", "checks.sharpness", None),
    ("verify.checks", "counterexample_scan", "checks.counterexample", None),
    ("verify.checks", "product_check", "checks.product", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_bounds", "cli.bounds", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_supz", "cli.supz", None),
    ("cli", "cmd_cc", "cli.cc", None),
]


def _replacements(tracer: Tracer) -> dict:
    """id of the original function -> wrapper, for every traced public name."""
    out = {}
    for modname, attr, kind, count in TRACED:
        fn = getattr(importlib.import_module(f"carnot_hardy.{modname}"), attr, None)
        if fn is None:
            continue
        if kind == "norm factory":
            out[id(fn)] = _factory(tracer, fn, _wrap_norm)
        elif kind == "bump factory":
            out[id(fn)] = _factory(tracer, fn, _wrap_bump)
        elif kind == "integrator":
            out[id(fn)] = _integrator(tracer, fn)
        else:
            out[id(fn)] = tracer.wrap(kind, fn, count)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind every module-level name bound to a traced function."""
    replacements = _replacements(tracer)
    saved = []
    for modname in MODULES:
        mod = importlib.import_module(modname)
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements:
                saved.append((mod, attr, value))
                setattr(mod, attr, replacements[id(value)])
    # gradients by finite differences have no factory-built evaluator to wrap
    model = importlib.import_module("carnot_hardy.norms").NormModel
    hgrad_or_fd = getattr(model, "hgrad_or_fd", None)

    def traced_hgrad_or_fd(self, z, t, step=1e-6):
        if self.hgrad is not None:         # already wrapped by the factory
            return hgrad_or_fd(self, z, t, step)
        return tracer.call("norms.hgrad", hgrad_or_fd, (self, z, t, step), {},
                           _count_hgrad)

    if hgrad_or_fd is not None:
        model.hgrad_or_fd = traced_hgrad_or_fd
    try:
        yield tracer
    finally:
        if hgrad_or_fd is not None:
            model.hgrad_or_fd = hgrad_or_fd
        for mod, attr, value in saved:
            setattr(mod, attr, value)
