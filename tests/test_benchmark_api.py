"""The names and signatures that the benchmark in perfbench/ relies on.

perfbench/tracing.py wraps sapflow functions by name and reads some of their
arguments by position; perfbench/workloads.py hands its configs to
``FlowConfig`` and to the manifest loader. Both files are loaded read-only
here, so a rename or a removed parameter fails this suite instead of only
the traced benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import pytest
from scipy.sparse import csgraph

from sapflow import FlowConfig, cli, diagnostics, flow, gen_icosphere, geometry, mesh
from conftest import count_calls

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_targets_exist():
    for _, modname, attr in load_perfbench("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), attr


# (function, position, name) of every argument the tracer's observers read
TRACED_ARGUMENTS = [
    (flow.advance, 3, "dt"),
    (flow.select_timestep, 3, "config"),
    (mesh.save_mesh, 1, "path"),
    (mesh.load_mesh, 0, "path"),
    (diagnostics.TimeSeries.to_csv, 1, "path_or_buffer"),
    (diagnostics.TimeSeries.from_csv.__func__, 1, "path_or_buffer"),
]


@pytest.mark.parametrize("fn,pos,name", TRACED_ARGUMENTS)
def test_traced_argument_positions(fn, pos, name):
    assert list(inspect.signature(fn).parameters)[pos] == name


def test_diameter_sweeps_visible_to_tracer(monkeypatch):
    # the tracer replaces csgraph.dijkstra after sapflow is imported and counts
    # the sweeps of diameter_estimate; a module-level import would hide them
    # all and fail the traced run with "no Dijkstra sweep counted"
    sphere = gen_icosphere(1.0, subdivisions=1)
    edge_length = geometry.compute_cache(sphere).edge_length
    geometry.diameter_estimate(sphere, edge_length)  # the one-time source selection
    calls = count_calls(monkeypatch, csgraph, "dijkstra")
    geometry.diameter_estimate(sphere, edge_length)
    assert calls


def test_run_flow_accepts_keep_meshes():
    inspect.signature(flow.run_flow).bind("mesh", "config", keep_meshes=False)


def test_make_summary_accepts_termination():
    inspect.signature(diagnostics.make_summary).bind("series", termination="converged")


def test_workload_configs_are_accepted(tmp_path):
    workloads = load_perfbench("workloads").WORKLOADS
    for spec in workloads.values():
        if spec.kind == "library":
            FlowConfig(**spec.config)
            continue
        # the manifest keys perfbench/worker.py writes besides the config
        manifest = dict(
            generator="perturbed", radius=1.0, amplitude=-0.35, bump="dent",
            width=0.3, direction=[0.0, 0.0, 1.0], subdivisions=2,
            output_dir=str(tmp_path / "out"), **spec.config,
        )
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        cli.flow_config(cli.load_manifest(str(path)))
