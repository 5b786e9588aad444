import os
import subprocess
import sys

import numpy as np
import pytest

import sapflow
from sapflow import TriMesh, gen_icosphere, run_flow
from sapflow import mesh as meshmod


def run_sapflow(*args):
    """``python -m sapflow.cli *args`` in a subprocess importing this sapflow."""
    src = os.path.dirname(os.path.dirname(sapflow.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sapflow.cli", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_keeping_meshes(mesh, config):
    """``(run_flow(mesh, config), meshes)``: the mesh of every row, in row
    order, collected by the run's observer."""
    meshes = []
    result = run_flow(
        mesh, config, observer=lambda state, cache, row: meshes.append(state.mesh)
    )
    return result, meshes


def replace_on_call(monkeypatch, module, name, k, substitute):
    """Make the k-th call of ``module.name`` return ``substitute(*args, **kwargs)``.

    Returns the list that grows by one entry per call.
    """
    real = getattr(module, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        return (substitute if len(calls) == k else real)(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name``; returns the list of calls."""
    return replace_on_call(monkeypatch, module, name, 0, None)


def record_builds(monkeypatch):
    """The list of the meshes that a face or segment record is built for,
    one entry per record, in order, whatever name the record class is
    reached by."""
    built = []
    for record in (meshmod._FaceRecord, meshmod._SegmentRecord):

        def counted(self, mesh, init=record.__init__):
            built.append(mesh)
            init(self, mesh)

        monkeypatch.setattr(record, "__init__", counted)
    return built


def fail_on_call(monkeypatch, module, name, k, error):
    """Make ``module.name`` raise ``error`` on its k-th call only."""

    def fail(*args, **kwargs):
        raise error("injected")

    replace_on_call(monkeypatch, module, name, k, fail)


def sliver_sphere(gap=1.7e-3):
    """Icosphere (V = 642) with one vertex pulled onto the opposite edge of an
    incident face up to ``gap`` of its distance: the default leaves a min
    angle of about 3e-3, above the 1e-3 mesh-degeneracy guard."""
    mesh = gen_icosphere(1.0, subdivisions=3)
    v = mesh.vertices.copy()
    i, a, b = mesh.faces[0]
    v[i] += (1.0 - gap) * (0.5 * (v[a] + v[b]) - v[i])
    return mesh.with_vertices(v)


def zero_area_cube():
    """The unit cube of the ``unit_cube`` fixture with corner 5 moved to the
    midpoint of corners 4 and 6, exactly: closed, oriented, a manifold and
    of volume 0.75, so load_mesh accepts it, but its face (4, 5, 6) has an
    area of exactly 0."""
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [0.5, 0.5, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = [
        [0, 3, 2], [0, 2, 1], [4, 5, 6], [4, 6, 7], [0, 1, 5], [0, 5, 4],
        [2, 3, 6], [3, 7, 6], [1, 2, 6], [1, 6, 5], [0, 4, 7], [0, 7, 3],
    ]
    return TriMesh(verts, faces)


def jittered_icosphere(seed):
    """An input of the fuzz probe: the icosphere of subdivision s in 0..2 and
    radius 10^u, u in [-3, 3], each vertex moved by normal noise of up to
    0.5^s of the radius, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    subdivisions = int(rng.integers(0, 3))
    radius = 10.0 ** rng.uniform(-3, 3)
    noise = rng.uniform(0, 0.5**subdivisions) * radius
    mesh = gen_icosphere(radius, subdivisions=subdivisions)
    return mesh.with_vertices(mesh.vertices + noise * rng.normal(size=mesh.vertices.shape))


def cg_not_converged(A, b, **kwargs):
    """A ``scipy.sparse.linalg.cg`` stand-in that reports non-convergence."""
    return np.zeros_like(b), 1


@pytest.fixture(scope="session")
def bowtie():
    """Two tetrahedra sharing vertex 0: closed and oriented, but the one-ring
    of vertex 0 is two cycles (not a manifold there)."""
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
         [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        dtype=float,
    )
    faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2],
             [0, 4, 5], [0, 6, 4], [4, 6, 5], [0, 5, 6]]
    return TriMesh(verts, faces)


@pytest.fixture(scope="session")
def two_tetrahedra():
    """Two tetrahedra sharing the edge 0-1, the second the first turned half
    a turn about the x axis: every face is outward, but four faces meet at
    the shared edge."""
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]],
        dtype=float,
    )
    faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2],
             [0, 4, 1], [0, 1, 5], [1, 4, 5], [0, 5, 4]]
    return TriMesh(verts, faces)


@pytest.fixture(scope="session")
def pinched_sphere():
    """The subdivision-1 icosphere with vertex 3 renamed to vertex 0 (6 hops
    apart, no common neighbour), vertex 3 dropped and the rest renumbered:
    closed and oriented with no isolated vertex, but the one-ring of vertex 0
    is two fans of 5 faces each (not a manifold there)."""
    mesh = gen_icosphere(1.0, subdivisions=1)
    faces = mesh.faces.copy()
    faces[faces == 3] = 0
    faces[faces > 3] -= 1
    return TriMesh(np.delete(mesh.vertices, 3, axis=0), faces)


@pytest.fixture(scope="session")
def icosphere():
    """Cached icosphere factory: icosphere(radius, subdiv, center)."""
    cache = {}

    def make(radius=1.0, subdiv=3, center=(0.0, 0.0, 0.0)):
        key = (radius, subdiv, tuple(center))
        if key not in cache:
            cache[key] = gen_icosphere(radius, center, subdiv)
        return cache[key]

    return make


@pytest.fixture(scope="session")
def unit_cube():
    """Unit cube split into 12 triangles; corners 0 and 6 have symmetric stars."""
    verts = np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=float,
    )
    faces = [
        [0, 3, 2], [0, 2, 1],  # bottom
        [4, 5, 6], [4, 6, 7],  # top
        [0, 1, 5], [0, 5, 4],  # front
        [2, 3, 6], [3, 7, 6],  # back
        [1, 2, 6], [1, 6, 5],  # right
        [0, 4, 7], [0, 7, 3],  # left
    ]
    return TriMesh(verts, faces)


@pytest.fixture(scope="session")
def tetrahedron():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]]
    return TriMesh(verts, faces)


@pytest.fixture(scope="session")
def flat_patch():
    """Triangulated unit square in the z=0 plane (open mesh)."""
    n = 9
    ax = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    verts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(n * n)])
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            b = (i + 1) * n + j
            faces += [[a, b, b + 1], [a, b + 1, a + 1]]
    return TriMesh(verts, faces)


def make_cylinder_patch(n_theta, n_z, height=1.0):
    """Open unit-radius cylinder segment; returns (mesh, interior_vertex_mask)."""
    th = 2 * np.pi * np.arange(n_theta) / n_theta
    zs = np.linspace(0.0, height, n_z)
    verts = []
    for z in zs:
        for t in th:
            verts.append([np.cos(t), np.sin(t), z])
    verts = np.array(verts)
    faces = []
    for k in range(n_z - 1):
        for i in range(n_theta):
            a = k * n_theta + i
            b = k * n_theta + (i + 1) % n_theta
            c = (k + 1) * n_theta + i
            d = (k + 1) * n_theta + (i + 1) % n_theta
            faces += [[a, b, d], [a, d, c]]
    # "interior" means at least two rings away from the open ends, so the
    # whole 1-ring of every marked vertex (and of its neighbours) is interior
    interior = np.zeros(len(verts), dtype=bool)
    interior[2 * n_theta : (n_z - 2) * n_theta] = True
    return TriMesh(verts, faces), interior
