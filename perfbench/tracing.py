"""Span tracing of heliodsm's layers, done from outside the program.

`Tracer.install` wraps every public function of each heliodsm module on the
request path, plus the public methods of `presets.ExperimentConfig`.  The
wrapper replaces the function in *every* heliodsm module namespace that
binds it, because `locator` and `cli` import names such as `reduced_data`
directly, and `specfun.hankel1` reaches `bessel_j` through its module
globals.  Each call records one span (function, start, end, parent span,
request id) in flat arrays, plus the work sizes of a few calls; nothing is
written until the run ends.

A span's self time is its duration minus the durations of its direct
children.  All wrapped calls are expected on the calling thread (the worker
threads of `_threads.map_chunks` run numpy only); `structure_problems`
checks that the spans of each request form one tree under `cli.main`.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# Modules on the request path; `verify` is not called by `reconstruct`.
LAYERS = ("specfun", "geometry", "forward", "indicators", "locator", "io", "presets", "cli", "_threads")


def _count_synthesize(result, ensemble, k, surface):
    return {"forward.field_evals": len(surface) * ensemble.count}


def _count_reduce(result, cauchy, k, directions):
    return {"indicators.reduce.exps": len(cauchy.surface) * len(directions)}


def _count_grid(result, reduced, k, grid, components=None):
    points, n_comp = result.shape
    return {
        "indicators.grid.points": points,
        "indicators.grid.cmacs": points * len(reduced.directions) * n_comp,
    }


def _count_peaks(result, field, significance, merge_radius):
    return {"locator.peaks.found": len(result)}


def _count_useful(result, *args, **kwargs):
    # every member of an accepted group is a refined peak, i.e. one fine grid
    return {"locator.fine_useful": sum(len(g.members) for g in result.groups)}


def _count_chunks(result, fn, starts):
    return {"threads.chunks": len(starts)}


def _count_file(key):
    def count(result, path, *args, **kwargs):
        return {key: os.path.getsize(path)}

    return count


# Work sizes recorded per call, computed from argument and result shapes
# (file sizes for io), keyed by "module.function".
COUNTERS = {
    "forward.synthesize_cauchy": _count_synthesize,
    "indicators.reduced_data": _count_reduce,
    "indicators.indicator_grid_values": _count_grid,
    "locator.find_peaks": _count_peaks,
    "locator.dsm2": _count_useful,
    "_threads.map_chunks": _count_chunks,
    "io.write_cauchy_csv": _count_file("io.write.bytes"),
    "io.write_indicator_csv": _count_file("io.write.bytes"),
    "io.write_reconstruction_csv": _count_file("io.write.bytes"),
    "io.write_run_json": _count_file("io.write.bytes"),
    "io.read_cauchy_csv": _count_file("io.read.bytes"),
    "io.read_indicator_csv": _count_file("io.read.bytes"),
    "io.read_reconstruction_csv": _count_file("io.read.bytes"),
}


def _public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Records spans of wrapped heliodsm calls while `enabled` is true."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.request_id = -1
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module of heliodsm."""
        modules = [m for n, m in list(sys.modules.items()) if n == "heliodsm" or n.startswith("heliodsm.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"heliodsm.{layer}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(module, attr, wrappers[id(value)])
        cls = sys.modules["heliodsm.presets"].ExperimentConfig
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(f"presets.ExperimentConfig.{attr}", value.__func__)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(f"presets.ExperimentConfig.{attr}", value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.start)
                tracer.fn.append(name_id)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.request.append(tracer.request_id)
                tracer.end.append(0.0)
                tracer.start.append(time.perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                into = tracer.counts[tracer.request_id]
                for key, value in counter(result, *bound.args, **bound.kwargs).items():
                    into[key] += value
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans and the function-name table as one .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def stage_sums(self, requests) -> dict[int, float]:
        """Per request, the sum of every span's self time, in wall seconds."""
        a = self.arrays()
        self_s = _self_times(a)
        return {r: float(self_s[a["request"] == r].sum()) for r in requests}

    def structure_problems(self) -> list[str]:
        """Ways in which the spans fail to form one tree per request.

        Each request must have exactly one root span, `cli.main`; every
        other span must lie inside its parent's [start, end] and belong to
        the parent's request; and siblings must not overlap.  Only then do
        the self times of a request add up to its root span without gaps
        or double counting.
        """
        a = self.arrays()
        names = np.array(self.names)
        problems = []
        root = a["parent"] < 0
        for r in np.unique(a["request"]):
            roots = np.flatnonzero(root & (a["request"] == r))
            if len(roots) != 1 or names[a["fn"][roots[0]]] != "cli.main":
                problems.append(f"request {r}: root spans {names[a['fn'][roots]].tolist()}, expected ['cli.main']")
        child = np.flatnonzero(~root)
        parent = a["parent"][child]
        outside = ((a["start"][child] < a["start"][parent]) | (a["end"][child] > a["end"][parent])
                   | (a["request"][child] != a["request"][parent]))
        problems += [f"span {i} ({names[a['fn'][i]]}) is not inside its parent" for i in child[outside]]
        order = child[np.lexsort((a["start"][child], parent))]
        same = a["parent"][order[1:]] == a["parent"][order[:-1]]
        overlap = same & (a["start"][order[1:]] < a["end"][order[:-1]])
        problems += [f"span {i} ({names[a['fn'][i]]}) overlaps its previous sibling" for i in order[1:][overlap]]
        return problems

    def layer_metrics(self, scale: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics as per-request means over the requests in `scale`.

        Times of request r are multiplied by scale[r], the run's host-speed
        normalization for that request.
        """
        a = self.arrays()
        requests = list(scale)
        keep = np.isin(a["request"], requests)
        factor = np.zeros(max(requests, default=0) + 1)
        factor[requests] = list(scale.values())
        factor = np.where(keep, factor[np.clip(a["request"], 0, None)], 0.0)
        fn_name = np.array(self.names)[a["fn"]]
        layer = np.array([n.split(".")[0] for n in self.names])[a["fn"]]
        parent_layer = np.where(a["parent"] >= 0, layer[a["parent"]], "")
        parent_name = np.where(a["parent"] >= 0, fn_name[a["parent"]], "")
        dur = (a["end"] - a["start"]) * factor
        self_s = _self_times(a) * factor
        # calls entering a layer from another layer (or from the benchmark)
        entry = keep & (layer != parent_layer)

        def named(*fns):
            return keep & np.isin(fn_name, fns)

        def total(values, mask):
            return float(values[mask].sum())

        totals = defaultdict(float)
        for r in requests:
            for key, value in self.counts.get(r, {}).items():
                totals[key] += value
        fine_grids = float(np.count_nonzero(named("geometry.make_grid") & (parent_name == "locator.dsm2")))
        synth = ("forward.synthesize_cauchy", "forward.field_2d", "forward.neumann_2d",
                 "forward.field_3d", "forward.neumann_3d")
        writes = tuple(n for n in self.names if n.startswith("io.write_"))
        reads = tuple(n for n in self.names if n.startswith("io.read_"))
        out = {
            "specfun.calls": float(np.count_nonzero(entry & (layer == "specfun"))),
            "specfun.busy_s": total(dur, entry & (layer == "specfun")),
            "forward.synthesize.self_s": total(self_s, named(*synth)),
            "forward.field_evals": totals["forward.field_evals"],
            "forward.noise.busy_s": total(dur, named("forward.add_noise")),
            "geometry.busy_s": total(dur, entry & (layer == "geometry")),
            "geometry.grids": float(np.count_nonzero(named("geometry.make_grid"))),
            "indicators.reduce.calls": float(np.count_nonzero(named("indicators.reduced_data"))),
            "indicators.reduce.busy_s": total(dur, named("indicators.reduced_data")),
            "indicators.reduce.exps": totals["indicators.reduce.exps"],
            "indicators.grid.calls": float(np.count_nonzero(named("indicators.indicator_grid_values"))),
            "indicators.grid.busy_s": total(dur, named("indicators.indicator_grid_values")),
            "indicators.grid.points": totals["indicators.grid.points"],
            "indicators.grid.cmacs": totals["indicators.grid.cmacs"],
            "indicators.at.busy_s": total(dur, named("indicators.indicator_at")),
            "locator.driver.self_s": total(self_s, named("locator.dsm", "locator.dsm2")),
            "locator.peaks.busy_s": total(dur, named("locator.find_peaks")),
            "locator.peaks.found": totals["locator.peaks.found"],
            "locator.fine_grids": fine_grids,
            "locator.fine_useful_ratio": totals["locator.fine_useful"] / fine_grids if fine_grids else 0.0,
            "locator.cluster.busy_s": total(dur, named("locator.cluster_peaks")),
            "locator.readoff.busy_s": total(dur, named("locator.recover_intensities")),
            "io.write.busy_s": total(dur, named(*writes)),
            "io.write.bytes": totals["io.write.bytes"],
            "io.read.busy_s": total(dur, named(*reads)),
            "io.read.bytes": totals["io.read.bytes"],
            "cli.self_s": total(self_s, named("cli.main")),
            "presets.busy_s": total(dur, entry & (layer == "presets")),
            "threads.chunks": totals["threads.chunks"],
            "threads.busy_s": total(dur, named("_threads.map_chunks")),
            "trace.spans": float(np.count_nonzero(keep)),
        }
        n = max(len(requests), 1)
        # the useful ratio is already a ratio; everything else is per request
        return {k: (v if k == "locator.fine_useful_ratio" else v / n) for k, v in out.items()}


def _self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child
