"""Workload definitions of the time-to-sphere benchmark.

Plain data only, so that ``run.py`` can read it without importing numpy or
sapflow. ``worker.py`` turns a spec plus a seed into the program's input.

Why each workload exists:

* ``ref-explicit-s3`` is the paper's reference run and the acceptance
  fixture (``tests/test_acceptance.py``). Its arrays are small (V = 642), so
  per-call overhead, geometry and the per-step diagnostics row (with the
  diameter) dominate; the sparse solve is bypassed entirely.
* ``dent-semi-s5`` is the fine-mesh target (V = 10242). It starts
  non-mean-convex, its arrays outgrow L2, and the factorize-and-solve of
  the semi-implicit step is about half the time; snapshots every 5 steps
  make the diameter nearly free.
* ``cli-roundtrip-s4`` is the only workload that writes mesh artifacts and
  reads them back: ``sapflow run --manifest`` with a mesh per step, then
  ``sapflow analyze``, which recomputes a geometry cache per persisted mesh.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    kind: str  # "library": sapflow.run_flow | "cli": sapflow run + analyze
    shape: str  # "ellipsoid": rotated by the seed | "dent": dent direction from the seed
    subdivisions: int
    config: dict  # FlowConfig keywords / manifest keys


ELLIPSOID_AXES = (1.2, 1.0, 0.85)
DENT_AMPLITUDE = -0.35
DENT_WIDTH = 0.3

WORKLOADS = {
    "ref-explicit-s3": Spec(
        "library",
        "ellipsoid",
        3,
        dict(
            stepping="explicit",
            cfl_safety=0.5,
            dt_max=0.05,
            area_projection=True,
            t_max=10.0,
            roundness_tol=1e-6,
            snapshot_every=1,
        ),
    ),
    "dent-semi-s5": Spec(
        "library",
        "dent",
        5,
        dict(
            stepping="semi-implicit",
            dt_max=0.05,
            area_projection=True,
            t_max=10.0,
            roundness_tol=1e-6,
            snapshot_every=5,
        ),
    ),
    # snapshot_every must stay 1: the worker counts steps as series rows - 1
    "cli-roundtrip-s4": Spec(
        "cli",
        "dent",
        4,
        dict(
            stepping="semi-implicit",
            dt_max=0.05,
            area_projection=True,
            t_max=10.0,
            roundness_tol=1e-6,
            snapshot_every=1,
            mesh_cadence=1,
        ),
    ),
}

# The smoke variant: every workload at subdivision 2 over a short horizon.
SMOKE_SUBDIVISIONS = 2
SMOKE_T_MAX = 0.2
