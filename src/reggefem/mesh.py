"""Periodic tetrahedral meshes of a flat 3-torus.

The torus (R/l1 Z) x (R/l2 Z) x (R/l3 Z) is divided into an n1 x n2 x n3
grid of boxes and every box is cut into six tetrahedra sharing its main
diagonal (Kuhn subdivision).  The subdivision is translation invariant, so
it glues consistently under the periodic identification and all tets are
congruent under translation (quasi-uniform by construction).

Conventions
-----------
* Vertex (i, j, k) has id ``(i*n2 + j)*n3 + k``.
* Every simplex is a componentwise increasing chain of lattice points,
  indexed by its lowest point (base vertex v) and its one-box type: tet
  ``6*v + r`` is v, v + e_p0, v + e_p0 + e_p1, v + (1,1,1) for the r-th
  axis permutation p in lexicographic order; face ``12*v + k`` is v,
  v + DIRECTIONS[i], v + DIRECTIONS[j] for the k-th pair (i, j) with
  DIRECTIONS[i] strictly inside DIRECTIONS[j]; edge ``7*v + d`` runs from v
  to v + DIRECTIONS[d], the seven nonzero 0/1 vectors in lexicographic
  order, so t_e points from the lexicographically lower lifted endpoint to
  the higher one.
* An edge lies in 6 faces and 6 tets for the axis directions (d = 0, 1, 3)
  and the body diagonal (d = 6), in 4 of each for the face diagonals
  (d = 2, 4, 5).  Each direction's star, counter-clockwise about t_e, is
  derived once, at import, for the edge at the origin (``_STARS``: base
  offsets and types of its faces and sector tets, the edge's slot in each
  face); the star of edge 7v + d is that template moved to v, in template
  order.  Face i of a star lies between sectors i-1 and i, and n_ef points
  into sector i.  Only the sector tets are stored; ``_star_faces`` forms
  the face ids of a direction's stars by the same index arithmetic.
* Float geometry is stored once per shape: tet t, face f and edge e are
  translates of the templates t % 6, f % 12 and e % 7 of the box at the
  origin, which ``_box_templates`` computes from the cell alone; the mesh
  holds them, and the operators of ``saint_venant`` and ``action`` are
  built from them without a mesh, and kept per geometry and grid.
  Periodicity lives only in the vertex identification, which matters at
  n_i = 2 where distinct edges can share the same unordered vertex pair
  through different wraps.
* For each incident (edge e, face f) pair, m_ef lies in the plane of f,
  is orthogonal to e and points into the triangle; n_ef = t_e x m_ef, so
  (m_ef, n_ef, t_e) is a right-handed orthonormal triple.

The mesh is immutable after construction, its arrays read-only, and all
queries are pure, so it is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

__all__ = [
    "MeshError",
    "TorusGeometry",
    "PeriodicMesh",
    "build_torus_mesh",
    "checked_grid",
    "cell_geometry_error",
    "mesh_summary",
    "DIRECTIONS",
    "LOCAL_EDGES",
]

# The seven lattice directions of the Kuhn complex, in lexicographic order;
# the index of d is 4*d[0] + 2*d[1] + d[2] - 1.
DIRECTIONS = np.array(
    [
        [0, 0, 1],
        [0, 1, 0],
        [0, 1, 1],
        [1, 0, 0],
        [1, 0, 1],
        [1, 1, 0],
        [1, 1, 1],
    ],
    dtype=np.int64,
)
_DIR_INDEX = {tuple(d): i for i, d in enumerate(DIRECTIONS)}

# Local edge order within a tet: pairs of local vertex indices.
LOCAL_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# One-box stencil.  Axis orders of the six tets of a box (Kuhn subdivision)
# in lexicographic order, so the rank of (p0, p1, p2) is 2*p0 + (p1 > p2),
# and the lattice offsets of each tet's points from its base vertex.
_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_TET_OFFSETS = np.concatenate(
    [np.zeros((6, 1, 3), dtype=np.int64),
     np.cumsum(np.eye(3, dtype=np.int64)[_PERMS], axis=1)], axis=1)
# Offsets of the face types (i, j), DIRECTIONS[i] strictly inside
# DIRECTIONS[j], in the lexicographic order of their points.
_FACE_OFFSETS = np.array([[[0, 0, 0], DIRECTIONS[i], DIRECTIONS[j]]
                          for i in range(7) for j in range(7)
                          if i != j and (i + 1) & (j + 1) == i + 1])
# Local point pairs of the three edge slots of a face.
_FACE_EDGES = np.array([(0, 1), (0, 2), (1, 2)])


class MeshError(ValueError):
    """Invalid mesh construction input or inconsistent mesh topology."""


@dataclass(frozen=True)
class TorusGeometry:
    """Side lengths of the flat 3-torus."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        if not (self.l1 > 0 and self.l2 > 0 and self.l3 > 0):
            raise MeshError("torus side lengths must be positive")

    @property
    def lengths(self) -> np.ndarray:
        return np.array([self.l1, self.l2, self.l3], dtype=float)

    @property
    def volume(self) -> float:
        return float(self.l1 * self.l2 * self.l3)


class PeriodicMesh:
    """Combinatorics and one-box geometry of the Kuhn torus triangulation.

    Built by :func:`build_torus_mesh`, and never written after: every
    array is read-only, no attribute is set later, and the operators on
    the mesh are kept per geometry and grid by their modules, not on it.
    Array attributes (sizes: V vertices, E = 7V edges, T = 6V tets):

    cell (3,) box side lengths, vertex_pos (V,3), edge_tail/edge_head (E,);
    tet_edges (T,6) global edge ids in LOCAL_EDGES order.
    Shape templates, row d for edge 7v + d, row r for tet 6v + r and row k
    for face 12v + k: edge_vec/edge_tangent (7,3) and edge_length (7,);
    tet_coords (6,4,3) the tets of the box at the origin, tet_rho
    (6,6,3,3) edge basis matrices restricted to the tet (products of its
    barycentric gradients); face_m/face_n (12,3,3) the (m_ef, n_ef) frame
    of each edge slot.  tet_volume is the (float) volume of every tet.

    Edge incidence is held only by the stars: ``_star_tets[d]`` is a
    (V, valence) array whose row v lists the sector tets of edge 7*v + d
    in the order of the template ``_STARS[d]``, which also gives the face
    types and the edge's slot in each face.  ``_edge_tets`` reads one
    edge's row, and ``np.sort`` of it gives the ascending incident tets;
    ``_star_faces`` forms the face ids of the stars, which are not stored,
    and ``mesh_summary`` the face tables.
    ``_star_frames[d]``, a ``_StarFrame``, holds the float constants every
    star of direction d shares: its tangent, its face frames in template
    order and the index of each face's sector before it.
    ``_star_classes`` stacks those frames by valence, one direction a row,
    for the directions 0, 1, 3, 6 (valence 6) and 2, 4, 5 (valence 4).
    Every mesh of the torus shares both, from ``_box_templates``.
    """

    def __init__(self, geometry: TorusGeometry, grid):
        self.geometry = geometry
        self.grid = tuple(int(g) for g in grid)

    # counts ---------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.vertex_pos.shape[0]

    @property
    def num_edges(self) -> int:
        return 7 * self.num_vertices

    @property
    def num_faces(self) -> int:
        return 12 * self.num_vertices

    @property
    def num_tets(self) -> int:
        return 6 * self.num_vertices

    def vertex_id(self, lattice_point) -> int:
        n1, n2, n3 = self.grid
        i, j, k = (int(lattice_point[0]) % n1, int(lattice_point[1]) % n2,
                   int(lattice_point[2]) % n3)
        return (i * n2 + j) * n3 + k

    def edge_id(self, tail_lattice_point, direction) -> int:
        d = _DIR_INDEX.get(tuple(int(x) for x in direction))
        if d is None:
            raise MeshError(f"not a lattice edge direction: {direction}")
        return self.vertex_id(tail_lattice_point) * 7 + d


def _vid(points, n: np.ndarray) -> np.ndarray:
    """Vertex ids of lifted lattice points (any leading shape)."""
    return (points % n) @ np.array([n[1] * n[2], n[2], 1])


def _dir(d: np.ndarray) -> np.ndarray:
    """Direction index of nonzero 0/1 difference vectors (any shape)."""
    return d @ np.array([4, 2, 1]) - 1


def _lattice(grid) -> np.ndarray:
    """Lattice points (V, 3) of the vertices of ``grid``, by id."""
    return np.stack(np.unravel_index(np.arange(np.prod(grid)), grid), axis=-1)


# Local edge a of tet 6v + r runs from v + _BOX_EDGE_TAILS[r, a] along
# DIRECTIONS[_BOX_EDGE_DIRS[r, a]]: (6 tets, 6 slots, 3) and (6, 6).
_BOX_EDGE_TAILS = _TET_OFFSETS[:, LOCAL_EDGES][:, :, 0]
_BOX_EDGE_DIRS = _dir(np.diff(_TET_OFFSETS[:, LOCAL_EDGES], axis=2)[:, :, 0])


def _norm(x: np.ndarray) -> np.ndarray:
    # sqrt(vecdot) rounds exactly as np.linalg.norm of each 1-D row does
    return np.sqrt(np.vecdot(x, x))[..., None]


def _star_template(d: int):
    """Star of the edge from the origin to D = DIRECTIONS[d], counter-
    clockwise about D: the base offsets (s, 3) and types (s,) of the faces,
    the edge's slot in each, and the base offsets and types of the sector
    tets (sector i between faces i and i+1).  The order is taken in lattice
    coordinates; the positive diagonal scaling to the mesh keeps it."""
    D = DIRECTIONS[d]
    # the one-box faces (type k, slot s) and tets (type r, local edge a)
    # with an edge along D, moved so that this edge starts at the origin
    lo, hi = _FACE_EDGES.T
    k, s = np.nonzero(
        (_FACE_OFFSETS[:, hi] - _FACE_OFFSETS[:, lo] == D).all(axis=-1))
    off = -_FACE_OFFSETS[k, lo[s]]
    q = off + _FACE_OFFSETS[k, 3 - lo[s] - hi[s]]  # the third points
    lo, hi = np.array(LOCAL_EDGES).T
    r, a = np.nonzero(
        (_TET_OFFSETS[:, hi] - _TET_OFFSETS[:, lo] == D).all(axis=-1))
    toff = -_TET_OFFSETS[r, lo[a]]
    t = D / np.linalg.norm(D)
    m = q - np.outer(q @ t, t)
    ccw = np.argsort(np.arctan2(m @ np.cross(t, m[0]), m @ m[0]) % (2 * np.pi))
    # sector i is the tet that holds the third points of faces i and i+1
    has = ((toff[:, None] + _TET_OFFSETS[r])[:, :, None] == q[ccw]).all(
        axis=-1).any(axis=1)
    sector = (has & np.roll(has, -1, axis=1)).argmax(axis=0)
    return off[ccw], k[ccw], s[ccw], toff[sector], r[sector]


# the star of each edge direction at the origin
_STARS = [_star_template(d) for d in range(7)]

# The slot of the edge of direction d in a tet of type r, (6, 7); -1 for
# the one direction a Kuhn tet lacks (its six edges have six directions).
_TET_SLOTS = np.full((6, 7), -1)
_TET_SLOTS[np.arange(6)[:, None], _BOX_EDGE_DIRS] = np.arange(6)
_TET_SLOTS.setflags(write=False)


class _StarFrame(NamedTuple):
    """The float constants of the stars of one edge direction d, in the
    order of the template ``_STARS[d]``: face i has the frame (m_ef, n_ef)
    and lies between sectors ``prev[i]`` = i - 1 (cyclically) and i."""

    tangent: np.ndarray  # (3,) t_e
    ms: np.ndarray       # (s, 3) m_ef of face i
    ns: np.ndarray       # (s, 3) n_ef of face i
    tm: np.ndarray       # (s, 2, 3) rows t_e and m_ef: face i's plane
    prev: np.ndarray     # (s,) the sector before face i


class _StarClass(NamedTuple):
    """The frames of the edge directions ``dirs`` whose stars share one
    valence s, stacked on a leading axis: ``tangent``, ``ms`` and ``ns``
    of ``_star_frames[dirs[j]]`` at j."""

    dirs: np.ndarray     # (k,) the directions, ascending
    tangent: np.ndarray  # (k, 3)
    ms: np.ndarray       # (k, s, 3)
    ns: np.ndarray       # (k, s, 3)


def _star_constants(edge_tangent: np.ndarray, face_m: np.ndarray,
                    face_n: np.ndarray) -> tuple:
    """The ``_StarFrame`` of each direction, gathered once from the edge
    and face templates, and the ``_StarClass`` of each valence, 6 then 4,
    stacked from them; every array is read-only."""
    frames = []
    for d, (_, k, slot, _, _) in enumerate(_STARS):
        ms, ns = face_m[k, slot], face_n[k, slot]
        tm = np.stack([np.broadcast_to(edge_tangent[d], ms.shape), ms],
                      axis=1)
        frames.append(_StarFrame(edge_tangent[d], ms, ns, tm,
                                 np.arange(-1, len(k) - 1)))
    valence = np.array([len(f.prev) for f in frames])
    classes = []
    for s in (6, 4):
        dirs = np.flatnonzero(valence == s)
        classes.append(_StarClass(dirs, *(
            np.stack([getattr(frames[d], name) for d in dirs])
            for name in ("tangent", "ms", "ns"))))
    for arr in [a for group in frames + classes for a in group]:
        arr.setflags(write=False)
    return tuple(frames), tuple(classes)


@cache
def _stencil_tables():
    """The incidences of the edges 0..6 that give the 27 blocks of a
    block-circulant operator on the edges, read off their stars: face i of
    a star lies between sectors i-1 and i, and n_ef points into sector i.
    Built on first use, so that importing the package does not pay for it.

    Each table pairs flat indices into one-box template values with the
    flat entries (s + 1, d, b) of (3, 3, 3, 7, 7) blocks: row d is the
    star's direction, and b and s in {-1, 0, 1}^3 are the direction and
    the tail offset of local edge a of a sector tet of type r.  The face
    table ``(index, side, d, entry)`` holds every star face (type k, the
    edge's slot in it) with its two sector tets and their six local edges,
    ``index`` into (12, 3, 6, 6) values per (k, slot, r, a) and side +1
    for sector i, -1 for sector i-1.  The tet table ``(index, entry)``
    holds every sector tet, ``index`` into (6, 6, 6) values per (r, a_d,
    a), a_d the local edge of the star's edge.
    """
    valence = np.array([len(star[1]) for star in _STARS])
    _, k, slot, toff, r = (np.concatenate(x) for x in zip(*_STARS))
    d = np.repeat(np.arange(7), valence)
    # sector i - 1 of every star face, cyclic within its star
    prev = np.arange(len(d)) - 1
    prev[np.cumsum(valence) - valence] += valence
    # the tail offset and direction of every local edge of every sector tet
    tail = toff[:, None] + _BOX_EDGE_TAILS[r]
    b = _BOX_EDGE_DIRS[r]
    entry = ((tail + 1) @ [9, 3, 1]) * 49 + 7 * d[:, None] + b
    a = np.arange(6)
    # both sectors of every star face, sector i first
    sector = np.stack([np.arange(len(d)), prev], axis=1)
    index = (((k * 3 + slot)[:, None] * 6 + r[sector]) * 6)[..., None] + a
    faces = (index.ravel(), np.tile(np.repeat([1.0, -1.0], 6), len(d)),
             np.repeat(d, 12), entry[sector].ravel())
    a_d = _TET_SLOTS[r, d]
    tets = (((r * 6 + a_d)[:, None] * 6 + a).ravel(), entry.ravel())
    for arr in faces + tets:  # every caller shares the cached arrays
        arr.setflags(write=False)
    return faces, tets


# vertices of the largest grid whose arrays numpy can index: its largest
# index array, the E x E expansion of ``saint_venant._pattern``, holds 115
# entries of intp per vertex, and numpy refuses an array of more than the
# largest intp in bytes
_MAX_VERTICES = np.iinfo(np.intp).max // (115 * np.dtype(np.intp).itemsize)


def checked_grid(grid) -> tuple:
    """``grid`` as three ints n_i >= 2, so that no edge closes onto its
    own tail through a wrap, of at most ``_MAX_VERTICES`` vertices;
    MeshError otherwise."""
    if len(grid) != 3 or any(int(g) != g for g in grid):
        raise MeshError("grid must be three integer subdivision counts")
    grid = tuple(int(g) for g in grid)
    if min(grid) < 2:
        raise MeshError("grid too coarse for periodic identification "
                        f"(need n_i >= 2, got {grid})")
    if math.prod(grid) > _MAX_VERTICES:
        raise MeshError(f"grid {grid} has more than {_MAX_VERTICES} "
                        "vertices, too many for numpy arrays")
    return grid


def cell_geometry_error(geometry: TorusGeometry, grid) -> MeshError:
    """The error for side lengths so far apart for the grid that a squared
    edge length underflows or a basis matrix or a mass entry overflows in
    double precision."""
    return MeshError(f"side lengths {geometry.lengths.tolist()} give grid "
                     f"{grid} a zero or non-finite cell geometry")


# tori kept, per geometry and grid, by ``_box_templates`` (11 kB each) and
# the operator caches (21 kB for the blocks of A and M, 11 kB for J's)
_OPERATORS = 64


@lru_cache(maxsize=_OPERATORS)
# the geometry is checked once it is built, so its float warnings are moot
@np.errstate(all="ignore")
def _box_templates(geometry: TorusGeometry, grid: tuple) -> MappingProxyType:
    """The float geometry of one box of the (checked) ``grid``, every
    shape once, kept read-only per geometry and grid: the ``cell``;
    ``edge_length`` (7,), ``edge_vec`` and ``edge_tangent`` (7, 3) of the
    edges 7v + d, d = 0..6; the tet and face templates of ``PeriodicMesh``
    (``tet_coords``, ``tet_volume``, ``tet_rho``, ``face_m``, ``face_n``);
    and its ``_star_frames`` and ``_star_classes``.

    MeshError (``cell_geometry_error``) for side lengths so far apart for
    the grid that a squared edge length underflows or a basis matrix or
    an entry of the mass blocks overflows in double precision.
    """
    cell = geometry.lengths / np.array(grid)
    if not cell.min() > 0:  # a side length underflows on division by n
        raise cell_geometry_error(geometry, grid)
    vec = DIRECTIONS * cell
    edge_length = np.linalg.norm(vec, axis=1)
    edge_tangent = vec / edge_length[:, None]

    # tet templates: the six tets of the box at the origin; barycentric
    # gradients and restricted edge basis matrices
    tet_coords = _TET_OFFSETS * cell
    B = (tet_coords[:, 1:] - tet_coords[:, :1]).mT
    # every Kuhn tet has volume prod(cell) / 6; |det B| / 6 of template 0
    tet_volume = float(abs(np.linalg.det(B[0]))) / 6.0
    Binv = np.linalg.inv(B)
    grad = np.concatenate([-Binv.sum(axis=1, keepdims=True), Binv], axis=1)
    lo, hi = np.array(LOCAL_EDGES).T
    gi, gj = grad[:, lo, :, None], grad[:, hi, None, :]
    # -1/2 normalization makes the edge DOFs dual to this basis; fancy
    # indexing on axis 1 leaves the slot axis outermost in memory
    tet_rho = np.ascontiguousarray(-0.5 * (gi * gj + gj.mT * gi.mT))

    # face templates: (m_ef, n_ef) frames of the twelve faces at the origin;
    # slot s is the edge between local points _FACE_EDGES[s]
    a, b = _FACE_EDGES.T
    face_coords = _FACE_OFFSETS * cell
    u = face_coords[:, b] - face_coords[:, a]
    u /= _norm(u)
    w = face_coords[:, 3 - a - b] - face_coords[:, a]
    face_m = np.ascontiguousarray(w - np.vecdot(w, u)[..., None] * u)
    face_m /= _norm(face_m)
    face_n = np.cross(edge_tangent[_dir(_FACE_OFFSETS[:, b]
                                        - _FACE_OFFSETS[:, a])], face_m)
    # an entry of the mass blocks sums the tet masses |T| rho_a : rho_b of
    # at most six tets (an edge's star), each at most the largest
    # |T| rho_a : rho_a; on a thin cell these grow like h2 h3 / h1^3 and
    # overflow long before the templates do
    mass = np.einsum(",raij,raij->ra", tet_volume, tet_rho, tet_rho)
    sizes = np.append(edge_length ** 2, [tet_volume, 6.0 * mass.max()])
    if not (all(np.isfinite(x).all() for x in (sizes, tet_rho, face_m,
                                                face_n))
            and sizes.min() > 0):
        raise cell_geometry_error(geometry, grid)
    t = dict(cell=cell, edge_length=edge_length, edge_vec=vec,
             edge_tangent=edge_tangent, tet_coords=tet_coords,
             tet_volume=tet_volume, tet_rho=tet_rho, face_m=face_m,
             face_n=face_n)
    for arr in (cell, edge_length, vec, edge_tangent, tet_coords, tet_rho,
                face_m, face_n):  # every caller shares them
        arr.setflags(write=False)
    t["_star_frames"], t["_star_classes"] = _star_constants(
        edge_tangent, face_m, face_n)
    return MappingProxyType(t)


def build_torus_mesh(geometry: TorusGeometry, grid) -> PeriodicMesh:
    """Build the Kuhn triangulation of the torus with the given grid.

    Requires n_i >= 2 on every axis so that no edge closes onto its own
    tail through a wrap.  Every incidence array is the one-box or edge-star
    template broadcast over the vertex lattice, by the index arithmetic of
    the module docstring, so nothing is sorted or searched mesh-wide.  The
    float geometry, star frames included, is that of ``_box_templates``.
    """
    grid = checked_grid(grid)
    n = np.array(grid, dtype=np.int64)
    mesh = PeriodicMesh(geometry, grid)
    vars(mesh).update(_box_templates(geometry, grid))
    vertex_lattice = _lattice(grid)
    mesh.vertex_pos = vertex_lattice * mesh.cell

    # tet 6*v + r is the chain _TET_OFFSETS[r] from vertex v
    tails = vertex_lattice[:, None, None] + _BOX_EDGE_TAILS
    mesh.tet_edges = (7 * _vid(tails, n) + _BOX_EDGE_DIRS).reshape(-1, 6)

    # edge 7*v + d runs from v to v + DIRECTIONS[d]
    mesh.edge_tail = np.repeat(np.arange(len(vertex_lattice)), 7)
    mesh.edge_head = _vid(vertex_lattice[:, None] + DIRECTIONS, n).ravel()

    # the sector tets of every star: each template moved to every vertex
    mesh._star_tets = [6 * _vid(vertex_lattice[:, None] + toff, n) + ttype
                       for *_, toff, ttype in _STARS]

    for arr in [*vars(mesh).values(), *mesh._star_tets]:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return mesh


def _edge_tets(mesh: PeriodicMesh, e: int) -> np.ndarray:
    """The sector tets of the star of edge e, in template order."""
    if not 0 <= e < mesh.num_edges:
        raise MeshError(f"invalid edge id {e}")
    return mesh._star_tets[e % 7][e // 7]


def _star_faces(mesh: PeriodicMesh, d: int, v=None) -> np.ndarray:
    """The face ids of the stars of direction d in template order, (V, s),
    or of the star of edge 7*v + d alone, (s,): the template's faces moved
    to each vertex, as ``build_torus_mesh`` moves its sector tets."""
    off, ftype = _STARS[d][:2]
    points = (_lattice(mesh.grid) if v is None
              else np.array(np.unravel_index(v, mesh.grid)))
    return 12 * _vid(points[..., None, :] + off, np.array(mesh.grid)) + ftype


def mesh_summary(mesh: PeriodicMesh, include_incidence: bool = False) -> dict:
    """JSON-ready summary: counts, geometry and optional incidence tables,
    of which the face tables are formed here from the templates."""
    out = {
        "geometry": {"l1": mesh.geometry.l1, "l2": mesh.geometry.l2,
                     "l3": mesh.geometry.l3},
        "grid": list(mesh.grid),
        "counts": {
            "vertices": mesh.num_vertices,
            "edges": mesh.num_edges,
            "faces": mesh.num_faces,
            "tets": mesh.num_tets,
        },
        "euler_characteristic": mesh.num_vertices - mesh.num_edges
        + mesh.num_faces - mesh.num_tets,
        "mesh_width": float(np.max(
            [np.linalg.norm(mesh.tet_coords[0, i] - mesh.tet_coords[0, j])
             for i in range(4) for j in range(i)])),
    }
    if include_incidence:
        a, b = _FACE_EDGES.T
        tails = _lattice(mesh.grid)[:, None, None] + _FACE_OFFSETS[:, a]
        face_edges = 7 * _vid(tails, np.array(mesh.grid)) + _dir(
            _FACE_OFFSETS[:, b] - _FACE_OFFSETS[:, a])
        faces = [_star_faces(mesh, d) for d in range(7)]
        face_tets = np.empty((mesh.num_faces, 2), dtype=np.int64)
        for f, t in zip(faces, mesh._star_tets):
            face_tets[f] = np.sort(np.stack([np.roll(t, 1, axis=1), t], -1))

        def by_edge(stars):
            # row v of direction d, ascending, is the list of edge 7v + d
            rows = [np.sort(s, axis=1).tolist() for s in stars]
            return [row for vertex in zip(*rows) for row in vertex]

        out["incidence"] = {
            "tet_edges": mesh.tet_edges.tolist(),
            "face_tets": face_tets.tolist(),
            "face_edges": face_edges.reshape(-1, 3).tolist(),
            "edge_tets": by_edge(mesh._star_tets),
            "edge_faces": by_edge(faces),
        }
    return out
