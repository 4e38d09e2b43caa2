"""Spans around sheetcalc's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function in every `sheetcalc` module
namespace that holds it: the modules import each other with `from .x import f`,
so patching the defining module alone would miss most calls.  `uninstall()`
puts every original back.  A span records its name, layer, parent, thread,
wall time (`time.perf_counter`) and the thread's CPU time (`time.thread_time`);
spans stay in memory until the caller takes them with `take()`.

Each thread keeps its own span stack.  A span opened on a thread whose stack
is empty (a `ThreadPoolExecutor` worker of `verify`) takes as parent the
innermost open span of the thread that installed the tracer, which is the
`run_*` call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


def _points(a) -> int:
    """Entries of an (..., k) array, the last axis taken as one point."""
    return a.size // a.shape[-1]


def _line_step_paths(x) -> int:
    """Steps times paths of a line trajectory shaped (..., n+1, d)."""
    return _points(x) // x.shape[-2] * (x.shape[-2] - 1)


def _ou_exact_cells(values) -> int:
    """Line increments drawn by the exact OU sampler: paths * n_s * (n_t+1)."""
    per_path = values.shape[-3] * values.shape[-2] * values.shape[-1]
    return values.size // per_path * (values.shape[-3] - 1) * values.shape[-2]


def _path_tag(path_indices):
    """(first path, path count) of a noise draw: identifies one path block."""
    p = np.asarray(path_indices)
    return (int(p.flat[0]) if p.size else -1, int(p.size))


# (layer, module, function, work count from (bound arguments, result)).
# A count of None records the span without work.
_TRACED = (
    ("philox", "sheetcalc.philox", "normal_block",
     lambda a, r: {"philox.calls": 1, "philox.normals": r.size}),
    ("philox", "sheetcalc.philox", "philox4x64", None),
    ("lattice", "sheetcalc.lattice", "normal_grid",
     lambda a, r: {"lattice.returned": r.size}),
    ("lattice", "sheetcalc.lattice", "sample_cell_increments", None),
    ("lattice", "sheetcalc.lattice", "sample_cell_increments_batch", None),
    ("lattice", "sheetcalc.lattice", "boundary_increments", None),
    ("lattice", "sheetcalc.lattice", "sample_boundary_bm", None),
    ("sheet", "sheetcalc.sheet", "build_sheet",
     lambda a, r: {"sheet.cell_paths": _points(a["incs"].values)}),
    ("sheet", "sheetcalc.sheet", "solve_ou_hyperbolic",
     lambda a, r: {"sheet.cell_paths": _points(a["incs"].values)}),
    ("sheet", "sheetcalc.sheet", "sample_ou_exact_batch",
     lambda a, r: {"sheet.cell_paths": _ou_exact_cells(r)}),
    ("stochcalc", "sheetcalc.stochcalc", "t_line", None),
    ("stochcalc", "sheetcalc.stochcalc", "s_line", None),
    ("stochcalc", "sheetcalc.stochcalc", "field_component", None),
    ("stochcalc", "sheetcalc.stochcalc", "quantize_values", None),
    ("stochcalc", "sheetcalc.stochcalc", "integral_zeta1", None),
    ("stochcalc", "sheetcalc.stochcalc", "integral_zeta2", None),
    ("stochcalc", "sheetcalc.stochcalc", "prefix2d", None),
    ("stochcalc", "sheetcalc.stochcalc", "cell_terms", None),
    ("stochcalc", "sheetcalc.stochcalc", "integral_two_param", None),
    ("stochcalc", "sheetcalc.stochcalc", "check_mixed_annihilation", None),
    ("stochcalc", "sheetcalc.stochcalc", "bdg_moment_check", None),
    ("rules", "sheetcalc.rules", "run_rules", None),
    ("hyperbolic", "sheetcalc.hyperbolic", "solve_system",
     lambda a, r: {"hyperbolic.cell_paths": _points(a["incs"].values)}),
    ("hyperbolic", "sheetcalc.hyperbolic", "blowup_monitor", None),
    ("hyperbolic", "sheetcalc.hyperbolic", "ou_system_boundaries", None),
    ("malliavin", "sheetcalc.malliavin", "solve_state_line",
     lambda a, r: {"malliavin.state_line.step_paths": _line_step_paths(r[0])}),
    ("malliavin", "sheetcalc.malliavin", "compute_malliavin_line",
     lambda a, r: {"malliavin.flow_line.step_paths": _line_step_paths(a["x"])}),
    ("malliavin", "sheetcalc.malliavin", "apply_L", None),
    ("verify", "sheetcalc.verify", "run_ibp", None),
    ("verify", "sheetcalc.verify", "run_bismut", None),
    ("verify", "sheetcalc.verify", "run_reversibility", None),
    ("verify", "sheetcalc.verify", "run_carre_limit", None),
    ("verify", "sheetcalc.verify", "run_holder_scan", None),
    ("config", "sheetcalc.config", "expand_config", None),
    ("config", "sheetcalc.models", "model_from_config", None),
    ("config", "sheetcalc.models", "payoff_from_config", None),
    ("cli", "sheetcalc.cli", "run", None),
)

# Counts that are a pure function of the workload's sizes: they must repeat
# exactly across passes and worker counts.
EXACT_COUNTS = (
    "philox.calls",
    "philox.normals",
    "lattice.returned",
    "sheet.cell_paths",
    "hyperbolic.cell_paths",
    "malliavin.state_line.step_paths",
    "malliavin.flow_line.step_paths",
    "models.evals",
    "verify.blocks",
)


@dataclass
class Span:
    id: int
    parent: int
    layer: str
    name: str
    thread: int
    wall: float
    cpu: float
    counts: dict
    tag: tuple


class Tracer:
    """Install with `install()`, run, `take()` the spans, then `uninstall()`."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn, count, post=None):
        tracer = self
        binder = inspect.signature(fn).bind if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                wall = time.perf_counter() - t0
                cpu = time.thread_time() - c0
                stack.pop()
                counts = tag = None
                if ok and count is not None:
                    bound = binder(*args, **kwargs)
                    bound.apply_defaults()
                    counts = count(bound.arguments, result)
                    if name == "normal_grid":
                        tag = _path_tag(bound.arguments["path_indices"])
                tracer.spans.append(
                    Span(sid, parent, layer, name, threading.get_ident(), wall, cpu, counts, tag)
                )
            if post is not None:
                post(result)
            return result

        return traced

    def _instrument_model(self, model):
        """Wrap the X / grad_X / hess_X callbacks of a freshly built model."""
        vf = model.vf
        for kind, callbacks in (("X", vf.X), ("grad_X", vf.grad_X), ("hess_X", vf.hess_X)):
            for i, cb in enumerate(callbacks):
                callbacks[i] = self._wrap(
                    "models", f"{kind}_{i}", cb,
                    lambda a, r: {"models.evals": _points(np.asarray(a["x"]))},
                )

    def install(self):
        self.missing = []
        self._main_stack = self._stack()
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "sheetcalc" or n.startswith("sheetcalc.")]
        for layer, modname, name, count in _TRACED:
            fn = getattr(importlib.import_module(modname), name, None)
            if fn is None:
                self.missing.append(f"{modname}.{name}")
                continue
            post = self._instrument_model if name == "model_from_config" else None
            wrapper = self._wrap(layer, name, fn, count, post)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched = []
        self._main_stack = None

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans) -> dict:
    """Per-layer self time, wait, per-function self time and work counts.

    A span's self time is its wall time minus that of its children on the same
    thread.  Wait is wall minus thread CPU time, summed over the spans whose
    parent belongs to another layer.  `verify.blocks` counts the distinct path
    blocks whose noise was drawn under a `verify` span.
    """
    by_id = {s.id: s for s in spans}
    child_wall = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            child_wall[s.parent] += s.wall
    self_s = defaultdict(float)
    name_self = defaultdict(float)
    wait = defaultdict(float)
    counts = Counter({k: 0 for k in EXACT_COUNTS})
    blocks = set()
    for s in spans:
        own = s.wall - child_wall[s.id]
        self_s[s.layer] += own
        name_self[s.name] += own
        p = by_id.get(s.parent)
        if p is None or p.layer != s.layer:
            wait[s.layer] += s.wall - s.cpu
        if s.counts:
            counts.update(s.counts)
        if s.tag is not None:
            a = p
            while a is not None and a.layer != "verify":
                a = by_id.get(a.parent)
            if a is not None:
                blocks.add((a.id, s.tag))
    counts["verify.blocks"] = len(blocks)
    return {"self_s": self_s, "name_self": name_self, "wait": wait, "counts": dict(counts)}
