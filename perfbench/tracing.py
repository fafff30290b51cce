"""Spans and transform counts around the calls into each lpns layer.

A ``Tracer`` replaces module attributes with wrappers while its ``with``
block runs and puts the originals back on exit.  Each layer wrapper records a
span (name, parent, start, end).  Each call into ``lpns._fft`` adds its
transform count, busy time and computed flop count to the innermost open
span, so transform counts are taken where the work happens.  Nothing under
``src/`` is modified.

Wrappers sit on the attribute the caller looks up at call time: ``lpns.cli``
imports ``simulate``, ``build_filter_bank`` and the snapshot functions by name,
so those are wrapped in ``lpns.cli``; ``lpns.solver.simulate`` calls
``step`` and ``shell_flux_report`` calls ``remainder`` through their own
module globals.  A refactor that moves a call past its wrapper leaves that
wrapper silent, which ``missing_wrappers`` reports.

A refactor can also move only some transforms past the counter, which leaves
every wrapper firing but the counts low.  So the tracer lists as bypasses
every ``lpns`` module global that holds a transform imported by name (from
``lpns._fft`` or a backend), and every call to a backend transform of
``numpy.fft`` or ``scipy.fft`` made outside ``lpns._fft``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import re
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

#: (module, attribute, span name, record the tracemalloc peak inside the span).
#: Spans that record a peak reset the tracemalloc peak, so they must not nest.
LAYER_WRAPPERS = (
    ("lpns.cli", "simulate", "solver.simulate", False),
    ("lpns.solver", "step", "solver.step", True),
    ("lpns.cli", "shell_flux_report", "flux.shell_flux_report", True),
    ("lpns.flux", "remainder", "flux.remainder", False),
    ("lpns.cli", "build_filter_bank", "lp.build_filter_bank", False),
    ("lpns.cli", "read_snapshot", "snapshots.read_snapshot", False),
    ("lpns.cli", "write_snapshot", "snapshots.write_snapshot", False),
)

FFT_MODULE = "lpns._fft"

#: Transform libraries that lpns must reach only through ``lpns._fft``, and
#: the names of their transforms (fftfreq, fftshift and the like are not).
BACKENDS = ("numpy.fft", "scipy.fft")
TRANSFORM_NAME = re.compile(r"^i?[rh]?fft[n2]?$")

#: Name under which transforms are counted when no layer span is open.
OUTSIDE = "outside"


def _bank_bytes(bank) -> int:
    return sum(
        getattr(bank, f.name).nbytes
        for f in dataclasses.fields(bank)
        if isinstance(getattr(bank, f.name), np.ndarray)
    )


def _snapshot_bytes(path) -> int:
    from lpns.snapshots import sidecar_path

    return Path(path).stat().st_size + sidecar_path(path).stat().st_size


def _span_info(name, args, result) -> dict:
    """Sizes a span reports besides its duration."""
    if name == "solver.simulate":
        return {"rows": len(result.rows)}
    if name == "lp.build_filter_bank":
        return {"bytes": _bank_bytes(result)}
    if name == "snapshots.write_snapshot":
        return {"bytes": _snapshot_bytes(args[0])}
    return {}


class Tracer:
    """Installs the layer and transform wrappers for the duration of a block."""

    def __init__(self):
        self.spans = [{"name": OUTSIDE, "parent": None, "start": 0.0, "end": 0.0,
                       "transforms": 0, "fft_s": 0.0, "flops": 0.0}]
        self.fired = {}
        self.bypasses = []
        self._stack = [0]
        self._saved = []
        self._fft_depth = 0

    def __enter__(self):
        tracemalloc.start()
        fft = importlib.import_module(FFT_MODULE)
        originals = {}
        for attr, fn in sorted(vars(fft).items()):
            if inspect.isfunction(fn) and "axes" in inspect.signature(fn).parameters:
                originals[id(fn)] = f"{FFT_MODULE}.{attr}"
                self._patch(fft, attr, self._fft_wrapper(fn, f"fft.{attr}"))
        for backend_name in BACKENDS:
            backend = importlib.import_module(backend_name)
            for attr, fn in sorted(vars(backend).items()):
                if TRANSFORM_NAME.match(attr) and callable(fn):
                    originals[id(fn)] = f"{backend_name}.{attr}"
                    self._saved.append((backend, attr, fn))
                    setattr(backend, attr, self._backend_wrapper(fn, f"{backend_name}.{attr}"))
        for module_name, attr, name, peak in LAYER_WRAPPERS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, peak))
        self.bypasses += imported_transforms(originals)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        tracemalloc.stop()
        return False

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)
        self.fired.setdefault(wrapper.span_name, 0)

    def _span_wrapper(self, fn, name, peak):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired[name] += 1
            span = {"name": name, "parent": self._stack[-1], "transforms": 0,
                    "fft_s": 0.0, "flops": 0.0}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            span.update(_span_info(name, args, result))
            return result

        wrapper.span_name = name
        return wrapper

    def _fft_wrapper(self, fn, name):
        default_axes = inspect.signature(fn).parameters["axes"].default

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            axes = kwargs.get("axes", args[0] if args else default_axes)
            shape = np.shape(a)
            transformed = {ax % len(shape) for ax in axes}
            size = math.prod(shape[d] for d in transformed)
            batch = math.prod(shape[d] for d in range(len(shape)) if d not in transformed)
            self._fft_depth += 1
            start = time.perf_counter()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._fft_depth -= 1
            self.fired[name] += 1
            span = self.spans[self._stack[-1]]
            span["transforms"] += batch
            span["fft_s"] += elapsed
            span["flops"] += batch * 5.0 * size * math.log2(size)
            return out

        wrapper.span_name = name
        return wrapper

    def _backend_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._fft_depth:
                bypass = f"{name} called outside {FFT_MODULE}"
                if bypass not in self.bypasses:
                    self.bypasses.append(bypass)
            return fn(*args, **kwargs)

        return wrapper


def imported_transforms(originals):
    """Globals of loaded ``lpns`` modules other than ``lpns._fft`` that hold
    one of the transform functions in ``originals`` (id -> qualified name):
    a transform imported by name is called past its wrapper."""
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or module_name == FFT_MODULE:
            continue
        if module_name != "lpns" and not module_name.startswith("lpns."):
            continue
        for attr, value in sorted(vars(module).items()):
            if id(value) in originals:
                found.append(f"{module_name}.{attr} is {originals[id(value)]} imported by name")
    return found


def inclusive(spans, key):
    """Per-span totals of ``key`` over the span and all its descendants."""
    totals = [s[key] for s in spans]
    for i in range(len(spans) - 1, 0, -1):
        parent = spans[i]["parent"]
        if parent is not None:
            totals[parent] += totals[i]
    return totals


def _duration(span):
    return span["end"] - span["start"]


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    above it, or None when there are ten samples or fewer."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return None
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def layer_metrics(traces):
    """Per-layer metrics pooled over the spans of several traced processes,
    and a note stating the percentile and sample count behind the step tail.

    Layers a workload does not exercise read 0.
    """
    spans = [s for trace in traces for s in trace["spans"]]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total_ms(name):
        return 1e3 * sum(_duration(s) for s in named(name))

    n_traces = len(traces)
    steps = named("solver.step")
    step_ms = [1e3 * _duration(s) for s in steps]
    sims = named("solver.simulate")
    rows = sum(s["rows"] for s in sims)
    step_transforms = sum(s["transforms"] for s in steps)
    step_fft_s = sum(s["fft_s"] for s in steps)
    sim_self_s = sum(_duration(s) for s in sims) - sum(_duration(s) for s in steps)

    reports, report_transforms = [], 0
    for trace in traces:
        totals = inclusive(trace["spans"], "transforms")
        for i, s in enumerate(trace["spans"]):
            if s["name"] == "flux.shell_flux_report":
                reports.append(s)
                report_transforms += totals[i]
    remainder_ms = total_ms("flux.remainder")

    transforms = sum(s["transforms"] for s in spans)
    fft_s = sum(s["fft_s"] for s in spans)
    flops = sum(s["flops"] for s in spans)
    tail = tail_percentile(step_ms)

    def per_trace(x):
        return x / n_traces if n_traces else 0.0

    return {
        "fft.transforms_per_step": step_transforms / len(steps) if steps else 0.0,
        "fft.transforms_per_row": sum(s["transforms"] for s in sims) / rows if rows else 0.0,
        "fft.transforms_per_report": report_transforms / len(reports) if reports else 0.0,
        "fft.busy_ms": per_trace(1e3 * fft_s),
        "fft.ms_per_transform": 1e3 * fft_s / transforms if transforms else 0.0,
        "fft.gflops_computed": flops / fft_s / 1e9 if fft_s else 0.0,
        "solver.step_ms_p50": statistics.median(step_ms) if steps else 0.0,
        "solver.step_ms_tail": tail[1] if tail else 0.0,
        "solver.step_fft_share": step_fft_s / sum(_duration(s) for s in steps) if steps else 0.0,
        "solver.diag_ms_per_row": 1e3 * sim_self_s / rows if rows else 0.0,
        "solver.step_peak_alloc_mb": max((s["peak_bytes"] for s in steps), default=0) / 2**20,
        "lp.bank_build_ms": per_trace(total_ms("lp.build_filter_bank")),
        "lp.bank_mb": max((s["bytes"] for s in named("lp.build_filter_bank")), default=0) / 2**20,
        "flux.report_ms": total_ms("flux.shell_flux_report") / len(reports) if reports else 0.0,
        "flux.remainder_ms": remainder_ms / len(reports) if reports else 0.0,
        "flux.remainder_calls": len(named("flux.remainder")) / len(reports) if reports else 0.0,
        "flux.report_self_ms": (
            (total_ms("flux.shell_flux_report") - remainder_ms) / len(reports) if reports else 0.0
        ),
        "flux.report_peak_alloc_mb": max((s["peak_bytes"] for s in reports), default=0) / 2**20,
        "snapshots.write_ms": per_trace(total_ms("snapshots.write_snapshot")),
        "snapshots.write_mb": per_trace(
            sum(s["bytes"] for s in named("snapshots.write_snapshot")) / 2**20
        ),
        "snapshots.read_ms": per_trace(total_ms("snapshots.read_snapshot")),
    }, (f"p{tail[0]:.1f} of {len(step_ms)} step spans" if tail
        else f"no tail: {len(step_ms)} step spans, need at least 11")


def missing_wrappers(trace, expected):
    """Names in ``expected`` that did not fire in one traced process.

    Besides wrapper names, ``expected`` may hold ``"fft in <span name>"``: at
    least one transform counted directly inside a span of that name.
    """
    missing = []
    for name in expected:
        if name.startswith("fft in "):
            span_name = name[len("fft in "):]
            if not any(s["name"] == span_name and s["transforms"] > 0 for s in trace["spans"]):
                missing.append(name)
        elif not trace["fired"].get(name):
            missing.append(name)
    return missing
