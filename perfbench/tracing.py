"""Spans around the public functions of sapflow's layers, kept in memory.

The tracer wraps functions from outside the program: it replaces every
binding of each target function in the loaded ``sapflow`` modules (the
defining module, ``sapflow/__init__`` and any ``from .x import y`` copy),
so a call through any of those names opens a span. A span is
``[name, start, end, parent, run_id]``; spans stay in a list until the
traced run ends and are written out once. Self time is a span's duration
minus the durations of the spans it directly encloses.
"""

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (metric prefix, defining module, attribute): the public functions of each
# measured layer. oracle (test-only) and errors (no work) are left out.
TARGETS = [
    ("mesh.gen", "sapflow.mesh", "gen_ellipsoid"),
    ("mesh.gen", "sapflow.mesh", "gen_perturbed_sphere"),
    ("mesh.gen", "sapflow.mesh", "gen_icosphere"),
    ("mesh.validate", "sapflow.mesh", "validate"),
    ("mesh.save_mesh", "sapflow.mesh", "save_mesh"),
    ("mesh.load_mesh", "sapflow.mesh", "load_mesh"),
    ("geometry.compute_cache", "sapflow.geometry", "compute_cache"),
    ("geometry.vertex_area_weights", "sapflow.geometry", "vertex_area_weights"),
    ("geometry.cotangent_stiffness", "sapflow.geometry", "cotangent_stiffness"),
    ("geometry.diameter_estimate", "sapflow.geometry", "diameter_estimate"),
    ("geometry.enclosed_volume", "sapflow.geometry", "enclosed_volume"),
    ("flow.compute_h", "sapflow.flow", "compute_h"),
    ("flow.select_timestep", "sapflow.flow", "select_timestep"),
    ("flow.advance", "sapflow.flow", "advance"),
    ("flow.enforce_area_constraint", "sapflow.flow", "enforce_area_constraint"),
    ("flow.run_flow", "sapflow.flow", "run_flow"),
    ("diagnostics.record_snapshot", "sapflow.diagnostics", "record_snapshot"),
    ("diagnostics.identity_residuals", "sapflow.diagnostics", "identity_residuals"),
    ("diagnostics.make_summary", "sapflow.diagnostics", "make_summary"),
    ("diagnostics.best_fit_sphere", "sapflow.diagnostics", "best_fit_sphere"),
    ("cli.cmd_run", "sapflow.cli", "cmd_run"),
    ("cli.cmd_analyze", "sapflow.cli", "cmd_analyze"),
]
CSV_WRITE = "diagnostics.series_csv.write"
CSV_READ = "diagnostics.series_csv.read"
WALL_ROOT = "bench.wall"


def _file_size(path_or_buffer):
    if hasattr(path_or_buffer, "tell"):
        return path_or_buffer.tell()
    return os.path.getsize(path_or_buffer)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Collects spans and counts while ``active``; install() wraps sapflow."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.active = False
        self.spans = []
        self.bindings = {}
        self.counts = defaultdict(int)
        self.selected_dt = []  # (dt chosen by select_timestep, config.dt_max)
        self.advanced_dt = []  # dt handed to advance
        self._stack = []
        self._observers = {
            "mesh.save_mesh": self._count_bytes("mesh.save_mesh", 1, "path"),
            "mesh.load_mesh": self._count_bytes("mesh.load_mesh", 0, "path"),
            CSV_WRITE: self._count_bytes(CSV_WRITE, 1, "path_or_buffer"),
            CSV_READ: self._count_bytes(CSV_READ, 1, "path_or_buffer"),
            "flow.select_timestep": self._on_select_timestep,
            "flow.advance": self._on_advance,
            "flow.enforce_area_constraint": self._on_projection,
        }

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def _count_bytes(self, name, pos, kw):
        def observe(args, kwargs, out):
            self.counts[f"{name}.bytes"] += _file_size(_arg(args, kwargs, pos, kw))

        return observe

    def _on_select_timestep(self, args, kwargs, out):
        self.selected_dt.append((out, _arg(args, kwargs, 3, "config").dt_max))

    def _on_advance(self, args, kwargs, out):
        self.advanced_dt.append(_arg(args, kwargs, 3, "dt"))

    def _on_projection(self, args, kwargs, out):
        self.counts["projection_applied"] += out.last_projection_scale != 1.0

    # -- installation ------------------------------------------------------

    def _rebind(self, name, original, wrapped):
        n = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "sapflow" and not modname.startswith("sapflow."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    n += 1
        self.bindings[f"{name}:{original.__name__}"] = n

    def install(self):
        """Wrap every binding of the target functions; call after importing sapflow."""
        import scipy.sparse.csgraph as csgraph
        from sapflow.diagnostics import TimeSeries

        for name, modname, attr in TARGETS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(name, original, self._wrap(name, original))
        TimeSeries.to_csv = self._wrap(CSV_WRITE, TimeSeries.to_csv)
        TimeSeries.from_csv = classmethod(
            self._wrap(CSV_READ, TimeSeries.__dict__["from_csv"].__func__)
        )
        # diameter_estimate imports dijkstra at call time: count its sweeps
        dijkstra = csgraph.dijkstra

        @functools.wraps(dijkstra)
        def counted(*args, **kwargs):
            if self.active:
                self.counts["dijkstra"] += 1
            return dijkstra(*args, **kwargs)

        csgraph.dijkstra = counted

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """Per span name [calls, inclusive s, self s], and the self time under bench.wall."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        self_by_root = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]
            self_by_root[root[i]] += end - start - child[i]
        walls = [i for i, s in enumerate(self.spans) if s[0] == WALL_ROOT]
        self_sum = sum(self_by_root[i] for i in walls)
        return agg, self_sum

    def step_intervals_ms(self):
        """Time between successive loop iterations of run_flow, in ms.

        Each iteration opens with one compute_cache directly under run_flow,
        so n iterations give n - 1 intervals, one per step taken.
        """
        starts = [
            s[1]
            for s in self.spans
            if s[0] == "geometry.compute_cache"
            and s[3] >= 0
            and self.spans[s[3]][0] == "flow.run_flow"
        ]
        return np.diff(np.array(starts)) * 1e3

    def layer_metrics(self, steps):
        """Every per-layer metric the trace gives, as name -> (value, unit)."""
        agg, _ = self.aggregate()
        out = {}

        def put(name, value, unit):
            out[name] = (float(value), unit)

        def timed(prefix, *keys):
            calls, incl, self_s = agg[prefix]
            for key in keys:
                value = {"s": incl, "self_s": self_s, "calls": calls}[key]
                put(f"{prefix}.{key}", value, "count" if key == "calls" else "s")

        timed("mesh.gen", "s")
        timed("mesh.validate", "s", "calls")
        for prefix in ("mesh.save_mesh", "mesh.load_mesh"):
            timed(prefix, "s", "calls")
            put(f"{prefix}.bytes", self.counts[f"{prefix}.bytes"], "bytes")
        timed("geometry.compute_cache", "s", "calls")
        put(
            "geometry.compute_cache.per_step",
            agg["geometry.compute_cache"][0] / max(steps, 1),
            "ratio",
        )
        timed("geometry.vertex_area_weights", "s", "calls")
        timed("geometry.cotangent_stiffness", "s", "calls")
        timed("geometry.diameter_estimate", "s", "calls")
        put("geometry.diameter_estimate.sweeps", self.counts["dijkstra"], "count")
        timed("geometry.enclosed_volume", "s", "calls")

        timed("flow.compute_h", "s")
        timed("flow.select_timestep", "s")
        timed("flow.advance", "s", "self_s")
        timed("flow.enforce_area_constraint", "s", "self_s")
        proj_calls = agg["flow.enforce_area_constraint"][0]
        put(
            "flow.projection.applied_ratio",
            self.counts["projection_applied"] / max(proj_calls, 1),
            "ratio",
        )
        timed("flow.run_flow", "self_s")
        iv = self.step_intervals_ms()
        n = len(iv)
        tail_pct = min(max(math.floor(100.0 * (1.0 - 10.0 / n)), 0), 99) if n else 0
        put("flow.step_ms.p50", np.percentile(iv, 50) if n else 0.0, "ms")
        put("flow.step_ms.tail", np.percentile(iv, tail_pct) if n else 0.0, "ms")
        put("flow.step_ms.tail_pct", tail_pct, "%")
        put("flow.step_ms.n", n, "count")
        dts = np.array(self.advanced_dt, dtype=float)
        for key, fn in (("min", np.min), ("median", np.median), ("max", np.max)):
            put(f"flow.dt.{key}", fn(dts) if len(dts) else 0.0, "model_t")
        cfl = sum(
            1
            for (sel, dt_max), used in zip(self.selected_dt, self.advanced_dt)
            if sel < dt_max and used == sel
        )
        put("flow.dt.cfl_bound_ratio", cfl / max(len(dts), 1), "ratio")

        timed("diagnostics.record_snapshot", "s", "self_s", "calls")
        timed("diagnostics.identity_residuals", "s", "calls")
        timed("diagnostics.make_summary", "s")
        timed("diagnostics.best_fit_sphere", "s")
        put("diagnostics.series_csv.write_s", agg[CSV_WRITE][1], "s")
        put("diagnostics.series_csv.read_s", agg[CSV_READ][1], "s")
        put(
            "diagnostics.series_csv.bytes",
            self.counts[f"{CSV_WRITE}.bytes"] + self.counts[f"{CSV_READ}.bytes"],
            "bytes",
        )
        timed("cli.cmd_run", "s", "self_s")
        timed("cli.cmd_analyze", "s", "self_s")
        return out

    def interception_failures(self, steps, semi_implicit, rows, cli, traced_wall):
        """Reasons the wrappers missed work that must have happened."""
        agg, self_sum = self.aggregate()
        calls = {name: a[0] for name, a in agg.items()}
        expect = {
            "flow.run_flow": 1,
            "flow.advance": steps,
            "flow.select_timestep": steps,
            "geometry.cotangent_stiffness": steps if semi_implicit else 0,
            "diagnostics.record_snapshot": rows,
        }
        if cli:
            expect.update(
                {
                    "cli.cmd_run": 1,
                    "cli.cmd_analyze": 1,
                    "mesh.save_mesh": rows + 1,  # a mesh per row, plus final.off
                    "mesh.load_mesh": rows,
                }
            )
        failures = [
            f"{name}.calls = {calls.get(name, 0)}, expected {want}"
            for name, want in expect.items()
            if calls.get(name, 0) != want
        ]
        for name in ("mesh.gen", "mesh.validate", "flow.compute_h",
                     "geometry.diameter_estimate", "geometry.enclosed_volume",
                     "diagnostics.make_summary", "diagnostics.best_fit_sphere"):
            if calls.get(name, 0) == 0:
                failures.append(f"{name}.calls = 0")
        if calls.get("geometry.compute_cache", 0) < steps + 1:
            failures.append("geometry.compute_cache.calls < steps + 1")
        if self.counts["dijkstra"] == 0:
            failures.append("no Dijkstra sweep counted")
        if len(self.step_intervals_ms()) != steps:
            failures.append("step intervals do not match the step count")
        if abs(self_sum - traced_wall) > 1e-3 * traced_wall:
            failures.append(
                f"self times sum to {self_sum:.6f} s, traced wall is {traced_wall:.6f} s"
            )
        return failures

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "run_id"],
                    "bindings": self.bindings,
                    "spans": self.spans,
                },
                fh,
            )
