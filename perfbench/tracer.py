"""Spans and counts recorded at psifno's module boundaries, from outside.

`install` wraps the public functions of each module (and three class
methods) in every psifno namespace that bound them, so calls made through
`from .x import y` aliases are traced too; the returned callable restores
the originals.  Each wrapped call records a span -- role, function,
start, end, parent span, operation id -- on a per-thread parent stack.
Spans opened on a worker thread with an empty stack (the CLI's `--jobs`
pool) take the load generator's innermost open span as their parent.
Spans stay in memory until the run ends; `Tracer.dump` writes them out
and `layer_metrics` reduces them.

Span names are roles, not function names (see ROLE_MAP), so that merging
or renaming functions inside psifno only changes the map, not the metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from .stats import Ratio, self_times, union_length


class Span:
    __slots__ = ("role", "fn", "start", "end", "parent", "op", "attrs")

    def __init__(self, role, fn, parent, op):
        self.role, self.fn, self.parent, self.op = role, fn, parent, op
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Span store for one process; `op` is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._owner = threading.get_ident()
        self._stacks: dict[int, list] = {}
        self._written: dict = {}  # op -> set of checkpoint paths written in it
        self._live: dict = {}     # id(multiplier) -> (multiplier, live channels)

    def _enter(self, role, fn):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        elif ident != self._owner:
            owner = self._stacks.get(self._owner)
            parent = owner[-1] if owner else None
        else:
            parent = None
        span = Span(role, fn, parent, self.op)
        stack.append(span)
        return span, stack

    def dump(self, path) -> None:
        """Write the spans as JSON lines; `parent` is the parent's line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "role": s.role, "fn": s.fn, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "op": s.op}) + "\n")

    def wrap(self, fn, role, label, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = tracer._enter(role(args) if callable(role) else role, label)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                span.attrs = hook(tracer, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Counts recorded at the boundaries
# ---------------------------------------------------------------------------


def _nbytes(x) -> int:
    for attr in ("values", "coeffs"):
        x = getattr(x, attr, x)
    return int(x.nbytes) if isinstance(x, np.ndarray) else 0


def _transform_bytes(tracer, args, kwargs, result):
    return {"bytes": _nbytes(args[0]) + _nbytes(result)}


def _multiplier_counts(tracer, args, kwargs, result):
    mult, coeffs = args[0], args[1]
    entry = tracer._live.get(id(mult))
    if entry is None or entry[0] is not mult:
        read = np.zeros(mult.d_v, dtype=bool)
        for _, A in mult.terms:
            read |= np.any(A != 0, axis=0)
        entry = tracer._live[id(mult)] = (mult, int(read.sum()))
    return {"terms": len(mult.terms), "live": entry[1], "channels": int(coeffs.shape[-1])}


def _keep_net(tracer, args, kwargs, result):
    return {"net": args[0]}


def _returned_net(tracer, args, kwargs, result):
    return {"net": result}


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


def _model_bytes(tracer, args, kwargs, result):
    from psifno import fno

    return {"bytes": os.path.getsize(_arg(fno.save_model, args, kwargs, "path"))}


def _picard_iterations(tracer, args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _step_sweeps(order):
    def hook(tracer, args, kwargs, result):
        from psifno import navier_stokes as ns

        fn = ns.step_first_order if order == 1 else ns.step_second_order
        kappa = _arg(fn, args, kwargs, "kappa")
        config = _arg(fn, args, kwargs, "config")
        if kappa is None:
            kappa = ns.kappa0(config.T, config.tau, order=order)
        return {"sweeps": int(kappa)}

    return hook


def _field_written(tracer, args, kwargs, result):
    from psifno import fieldio

    base = Path(_arg(fieldio.save_field, args, kwargs, "path"))
    size = sum(os.path.getsize(base.with_suffix(s)) for s in (".bin", ".json"))
    seen = tracer._written.setdefault(tracer.op, set())
    key = str(base.resolve())
    overwrote = key in seen
    seen.add(key)
    return {"bytes": size, "overwrote": int(overwrote)}


def _study_rows(tracer, args, kwargs, result):
    from psifno import harness

    rows, _summary = result
    kind = _arg(harness.run_experiment, args, kwargs, "kind")
    return {"kind": kind, "row_s": float(sum(r.get("seconds", 0.0) for r in rows))}


def _layer_role(args) -> str:
    layer = args[0]
    if layer.multiplier is not None:
        return "fno.f_layer"
    return "fno.sigma_layer" if layer.apply_activation else "fno.affine_layer"


# role -> functions behind it: (module, attribute or Class.method, hook).
# ROADMAP merges (dft/_fft_coeffs, the forward compiler) edit this map only.
ROLE_MAP = {
    "spectral.transform": [
        ("spectral", "dft", _transform_bytes),
        ("spectral", "idft", _transform_bytes),
        ("spectral", "_fft_coeffs", _transform_bytes),
        ("spectral", "_ifft_values", _transform_bytes),
    ],
    "spectral.validation": [("spectral", "hermitian_defect", None)],
    "spectral.resample": [("spectral", "resample", None)],
    "spectral.dealiased_product": [("spectral", "dealiased_product", None)],
    "fno.forward": [("fno", "fno_forward", _keep_net)],
    _layer_role: [("fno", "layer_forward", None)],
    "fno.multiplier": [("fno", "FourierMultiplier.apply", _multiplier_counts)],
    "fno.model.save": [("fno", "save_model", _model_bytes)],
    "fno.model.load": [("fno", "load_model", None)],
    "darcy.solve": [("darcy", "solve", _picard_iterations)],
    "darcy.picard": [("darcy", "PicardOperator.apply", None)],
    "darcy.prepare": [("darcy", "prepare_coefficients", None)],
    "navier_stokes.simulate": [("navier_stokes", "simulate", None)],
    "navier_stokes.step": [
        ("navier_stokes", "step_first_order", _step_sweeps(1)),
        ("navier_stokes", "step_second_order", _step_sweeps(2)),
    ],
    "emulation.build": [
        ("emulation", "build_darcy_emulator", _returned_net),
        ("emulation", "build_ns_emulator", _returned_net),
        ("emulation", "build_ft_emulator", _returned_net),
        ("emulation", "build_ift_emulator", _returned_net),
    ],
    "deeponet.export": [("deeponet", "to_deeponet", None)],
    "deeponet.evaluate": [("deeponet", "DeepOnetExport.evaluate", None)],
    "deeponet.save": [("deeponet", "save_deeponet", None)],
    "deeponet.load": [("deeponet", "load_deeponet", None)],
    "fieldio.save": [("fieldio", "save_field", _field_written)],
    "harness.study": [("harness", "run_experiment", _study_rows)],
    "cli.write": [("cli", "write_csv", None)],
}


def install(tracer: Tracer):
    """Wrap every function in ROLE_MAP; returns a callable that undoes it."""
    for name in ("cli", "harness", "deeponet", "emulation"):
        importlib.import_module(f"psifno.{name}")
    modules = [m for k, m in list(sys.modules.items()) if k == "psifno" or k.startswith("psifno.")]
    patches = []
    for role, entries in ROLE_MAP.items():
        for modname, attr, hook in entries:
            mod = importlib.import_module(f"psifno.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, tracer.wrap(original, role, f"{modname}.{attr}", hook))
                continue
            original = getattr(mod, attr)
            wrapper = tracer.wrap(original, role, f"{modname}.{attr}", hook)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        patches.append((m, name, original))
                        setattr(m, name, wrapper)

    def restore():
        for target, name, original in reversed(patches):
            setattr(target, name, original)

    return restore


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

BUILDERS = ("darcy_emulator", "ns_emulator", "ft_emulator", "ift_emulator")
STUDY_KINDS = ("darcy-converge", "ns-converge")


def _has_ancestor(span, pred) -> bool:
    p = span.parent
    while p is not None:
        if pred(p):
            return True
        p = p.parent
    return False


def _attr(span, key, default=0):
    return span.attrs.get(key, default) if span.attrs else default


def layer_metrics(tracer: Tracer, op_walls: dict) -> dict:
    """Per-layer metrics: name -> (value, unit).

    Operation-phase metrics are means per traced operation (op_walls maps
    op id -> (start, end)); set-up metrics are totals over the one traced
    set-up (spans stamped "setup").
    """
    selfs = self_times(tracer.spans)
    ops = [s for s in tracer.spans if s.op in op_walls]
    setup = [s for s in tracer.spans if s.op == "setup"]
    n_ops = max(len(op_walls), 1)
    out = {}

    def of(spans, role):
        return [s for s in spans if s.role == role]

    def calls(role):
        return len(of(ops, role)) / n_ops

    def self_s(role):
        return sum(selfs[id(s)] for s in of(ops, role)) / n_ops

    def outer_s(spans, role, per=1):
        # inclusive time, counting a span nested in the same role only once
        return sum(s.end - s.start for s in of(spans, role)
                   if not _has_ancestor(s, lambda p: p.role == role)) / per

    def total(spans, role, key):
        return sum(_attr(s, key) for s in of(spans, role))

    measures = {
        "calls": (calls, "count"),
        "self_s": (self_s, "s"),
        "s": (lambda role: outer_s(ops, role, n_ops), "s"),
    }
    for role, kinds in (
        ("spectral.transform", ("calls", "self_s")),
        ("spectral.validation", ("calls", "self_s")),
        ("spectral.resample", ("self_s",)),
        ("spectral.dealiased_product", ("self_s",)),
        ("fno.forward", ("calls", "s")),
        ("fno.f_layer", ("calls", "self_s")),
        ("fno.sigma_layer", ("calls", "self_s")),
        ("fno.multiplier", ("calls", "self_s")),
        ("darcy.solve", ("calls", "s")),
        ("darcy.picard", ("calls", "self_s")),
        ("darcy.prepare", ("self_s",)),
        ("navier_stokes.simulate", ("calls", "s")),
        ("navier_stokes.step", ("calls", "self_s")),
        ("deeponet.evaluate", ("calls", "self_s")),
        ("fieldio.save", ("calls", "self_s")),
        ("cli.write", ("self_s",)),
    ):
        for kind in kinds:
            measure, unit = measures[kind]
            out[f"{role}.{kind}"] = (measure(role), unit)

    out["spectral.transform.bytes_computed"] = (
        total(ops, "spectral.transform", "bytes") / n_ops, "B")
    out["fno.multiplier.terms_applied"] = (total(ops, "fno.multiplier", "terms") / n_ops, "count")
    out.update(Ratio(total(ops, "fno.multiplier", "live") / n_ops,
                     total(ops, "fno.multiplier", "channels") / n_ops)
               .metrics("fno.multiplier.live_channel_ratio"))
    out["darcy.picard_iterations"] = (total(ops, "darcy.solve", "iterations") / n_ops, "count")
    out["navier_stokes.inner_sweeps"] = (total(ops, "navier_stokes.step", "sweeps") / n_ops, "count")
    out["fieldio.bytes_written"] = (total(ops, "fieldio.save", "bytes") / n_ops, "B")
    out["fieldio.paths_overwritten"] = (total(ops, "fieldio.save", "overwrote") / n_ops, "count")

    studies = of(ops, "harness.study")
    for kind in STUDY_KINDS:
        mine = [s for s in studies if _attr(s, "kind", None) == kind]
        out[f"harness.study.{kind}.s"] = (
            sum(s.end - s.start for s in mine) / max(len(mine), 1), "s")
    out.update(Ratio(sum(_attr(s, "row_s", 0.0) for s in studies) / n_ops,
                     sum(s.end - s.start for s in studies) / n_ops)
               .metrics("harness.fan_out.overlap", base_unit="s"))

    covered = 0.0
    for op, (lo, hi) in op_walls.items():
        top = [(s.start, s.end) for s in ops if s.op == op and s.parent is None]
        covered += union_length(top, lo, hi)
    wall = sum(hi - lo for lo, hi in op_walls.values())
    out.update(Ratio(covered / n_ops, wall / n_ops).metrics("trace.coverage", base_unit="s"))

    # set-up phase: builds and their calibration, model and export I/O
    builds = of(setup, "emulation.build")
    for b in BUILDERS:
        out[f"emulation.build.{b}.s"] = (
            float(sum(s.end - s.start for s in builds if s.fn == f"emulation.build_{b}")), "s")
    in_build = lambda s: _has_ancestor(s, lambda p: p.role == "emulation.build")  # noqa: E731
    cal_fwd = [s for s in of(setup, "fno.forward") if in_build(s)]
    cal_solves = [s for s in setup
                  if s.role in ("darcy.solve", "navier_stokes.simulate") and in_build(s)]
    accepted = {id(_attr(b, "net", None)) for b in builds}
    useful = sum(1 for s in cal_fwd if id(_attr(s, "net", None)) in accepted)
    out["emulation.calibration.forwards"] = (float(len(cal_fwd)), "count")
    out["emulation.calibration.solves"] = (float(len(cal_solves)), "count")
    out.update(Ratio(useful, len(cal_fwd)).metrics("emulation.calibration.useful_ratio"))

    out["fno.model.save_s"] = (outer_s(setup, "fno.model.save"), "s")
    out["fno.model.load_s"] = (outer_s(setup, "fno.model.load"), "s")
    out["fno.model.bytes"] = (float(total(setup, "fno.model.save", "bytes")), "B")
    out["deeponet.export.s"] = (outer_s(setup, "deeponet.export"), "s")
    out["deeponet.export.layer_calls"] = (float(sum(
        1 for s in setup if s.role in ("fno.f_layer", "fno.sigma_layer", "fno.affine_layer")
        and _has_ancestor(s, lambda p: p.role == "deeponet.export"))), "count")
    out["deeponet.save_s"] = (outer_s(setup, "deeponet.save"), "s")
    out["deeponet.load_s"] = (outer_s(setup, "deeponet.load"), "s")
    return out
