import itertools

import numpy as np
import pytest

from reggefem import (TorusGeometry, assemble_mass, assemble_stiffness,
                      build_torus_mesh, mesh_summary, saint_venant)
from reggefem.mesh import _FACE_OFFSETS, _TET_OFFSETS, DIRECTIONS, _dir, \
    _edge_tets, _star_faces, _vid

TAU = 2.0 * np.pi

# lattice offsets of the points of each simplex template from its base vertex
_OFFSETS = {"tet": _TET_OFFSETS, "face": _FACE_OFFSETS,
            "edge": np.stack([np.zeros_like(DIRECTIONS), DIRECTIONS], axis=1)}


def lifted_points(mesh, kind, ids=None):
    """Lifted integer lattice points of simplices of one kind: "tet" (id
    6v + r), "face" (12v + k) or "edge" (7v + d, tail then head).

    The points are the template offsets moved to the lattice point of base
    vertex v, read from ``vertex_pos``: (k, 3) for one id, (n, k, 3) for
    an array of n ids, all simplices of the kind by default.
    """
    off = _OFFSETS[kind]
    if ids is None:
        ids = np.arange(len(off) * mesh.num_vertices)
    ids = np.asarray(ids)
    base = np.rint(mesh.vertex_pos / mesh.cell).astype(np.int64)
    return base[ids // len(off)][..., None, :] + off[ids % len(off)]


def per_edge(mesh, values):
    """A per-direction array (7, ...) of the mesh repeated to one row per
    edge: row e is row e % 7."""
    values = np.asarray(values)
    return np.tile(values, (mesh.num_vertices,) + (1,) * (values.ndim - 1))


def constant_metric(mesh, g):
    """Edge values d_e^T g d_e of the constant metric g, one per edge."""
    d = mesh.edge_vec
    return per_edge(mesh, np.einsum("di,ij,dj->d", d, g, d))


def lowest_face_first(mesh, e, values):
    """Rows of ``values``, which run in the template order of the star of
    edge e, rolled to start at its lowest face id."""
    faces = _star_faces(mesh, e % 7, e // 7)
    return np.roll(values, -int(faces.argmin()), axis=0)


def edge_star(mesh, e):
    """The star of edge e as (face, sector tet) pairs of ints, counter-
    clockwise about t_e from its lowest face id: pair i holds face i and
    the sector between faces i and i + 1."""
    tets = _edge_tets(mesh, e)  # MeshError for an invalid id
    faces = _star_faces(mesh, e % 7, e // 7)
    return list(zip(*(lowest_face_first(mesh, e, x).tolist()
                      for x in (faces, tets))))


def face_tables(mesh):
    """The face tables of ``mesh_summary``: face_edges (F, 3), the edge in
    each slot, and face_tets (F, 2), the two tets of each face ascending."""
    incidence = mesh_summary(mesh, include_incidence=True)["incidence"]
    return np.array(incidence["face_edges"]), np.array(incidence["face_tets"])


def point_group():
    """The 12 maps of the Kuhn complex onto itself, from ``DIRECTIONS``:
    each axis permutation p, with and without the point reflection, and
    the flat block entry each map sends every structural coupling
    (s, a, b) to.  The reflection maps edge (v, d) onto (-v - d, d), so
    B_s[a, b] onto B_{-s + d_a - d_b}[a, b]; then p maps it onto
    B_{p.s}[p.a, p.b], (p.x)_i = x_{p_i}."""
    c = saint_venant._couplings()
    s, a, b = np.unravel_index(c, (27, 7, 7))
    s = np.stack(np.unravel_index(s, (3, 3, 3)), axis=-1) - 1
    index = {tuple(d): i for i, d in enumerate(DIRECTIONS.tolist())}
    maps = []
    for p in itertools.permutations(range(3)):
        p = list(p)
        for reflect in (False, True):
            t = -s + DIRECTIONS[a] - DIRECTIONS[b] if reflect else s
            pa, pb = ([index[tuple(d)] for d in DIRECTIONS[x][:, p].tolist()]
                      for x in (a, b))
            image = (np.ravel_multi_index((t[:, p] + 1).T, (3, 3, 3)) * 49
                     + 7 * np.array(pa) + np.array(pb))
            maps.append((p, reflect, image))
    return maps


def edge_image(mesh, p, reflect: bool) -> np.ndarray:
    """Edge ids, on the torus (l_p1, l_p2, l_p3) with grid (n_p1, n_p2,
    n_p3), of the images of the edges of ``mesh`` under a map of
    ``point_group``: the reflection takes edge (v, d) to (-v - d, d), then
    p takes it to (p.v, p.d)."""
    n = np.array(mesh.grid)
    v = np.stack(np.unravel_index(np.arange(mesh.num_vertices), n),
                 axis=-1)[:, None]
    tails = -v - DIRECTIONS if reflect else v + 0 * DIRECTIONS  # (V, 7, 3)
    return (7 * _vid(tails[..., p], n[p]) + _dir(DIRECTIONS[:, p])).ravel()


@pytest.fixture(scope="session")
def geometry():
    return TorusGeometry(TAU, TAU, TAU)


@pytest.fixture(scope="session")
def mesh2(geometry):
    return build_torus_mesh(geometry, (2, 2, 2))


@pytest.fixture(scope="session")
def mesh3(geometry):
    return build_torus_mesh(geometry, (3, 3, 3))


@pytest.fixture(scope="session")
def mesh4(geometry):
    return build_torus_mesh(geometry, (4, 4, 4))


@pytest.fixture(scope="session")
def pencil2(mesh2):
    return assemble_stiffness(mesh2), assemble_mass(mesh2)


@pytest.fixture(scope="session")
def pencil3(mesh3):
    return assemble_stiffness(mesh3), assemble_mass(mesh3)


@pytest.fixture(scope="session")
def pencil4(mesh4):
    return assemble_stiffness(mesh4), assemble_mass(mesh4)
