"""Nonlinear Regge action: deficit angles, holonomy, and Taylor checks.

A metric configuration is one positive squared length per edge.  On each
tet the six squared lengths determine a unique constant metric (the edge
DOFs are unisolvent on constants); the resulting piecewise constant field
is tangential-tangential continuous because the three edge lengths of a
face pin the induced 2d metric from both sides.

Two independent routes to the deficit angle of an edge:

* dihedral: theta_e = 2*pi - sum over incident tets of the dihedral angle
  at e (positive when the cone angle falls short of 2*pi).  The angles
  come from the six squared lengths of each tet alone, through the
  adjugate of its Gram matrix, with no metric pulled back; and the sum
  runs over their gaps to the flat background's angles, which make up
  2*pi around every edge, so theta is exactly 0 at the flat
  configuration.  ``metric_dihedral_angles`` measures the same angles in
  the pulled-back metrics and serves as the tests' oracle.  The
  realizability guard tests both of its conditions (Cayley-Menger
  determinant, positive definite Gram matrix) in one boolean array and
  looks for the offending tet only when that test fails;
* holonomy: carry two vectors once around the edge through the cyclic
  star of sectors, crossing each face by the rank-one map that takes the
  metric-unit normal before it to the one after it, and read off the
  rotation angle in the plane metric-orthogonal to the edge.  The frame
  of that plane is w1, the part of m_0 metric-orthogonal to the edge made
  unit, and the metric-unit normal k- of face 0, which the crossings
  already solve for.

The action is R = sum_e theta_e * l_e.  Near the flat background,
R(l(eps)) = eps^2/8 * c' A c + O(eps^3) where c is the coefficient vector
of the metric perturbation and A the assembled stiffness matrix; the
linearized deficit equals half the assembled edge jump.

The sector build with its checks, the holonomy and the linearized deficit
are each one private kernel over stacked stars: the per-edge functions
call it on one edge, ``holonomy_deficits`` and ``linearized_deficits`` on
the V edges of each of the seven directions.  A star runs in the order of
its direction's template ``mesh._STARS[d]``.  Its tangent, face frames and
the sector before each face are constants that ``build_torus_mesh`` keeps
in ``mesh._star_frames[d]``, and a tet's slot of an edge direction is read
from ``mesh._TET_SLOTS``; only the sector tets are read per edge.  These
routes are independent on purpose: ``verify`` checks them against
``deficit_angles`` and against ``saint_venant.apply_ctc``, so they share no
code with those.  The holonomy route reads the metrics of
``tet_metrics_from_lengths``: the realizability guard of
``deficit_angles``, then the Regge basis matrices.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import _BOX_EDGE_DIRS, _TET_SLOTS, LOCAL_EDGES, PeriodicMesh, \
    _edge_tets, _star_arrays
from .spaces import ReggeField, regge_to_tet_matrices

__all__ = [
    "RealizabilityError",
    "EdgeLengthConfig",
    "EdgeSector",
    "euclidean_lengths",
    "perturbed_lengths",
    "tet_metrics_from_lengths",
    "cayley_menger_determinant",
    "metric_dihedral_angles",
    "deficit_angles",
    "deficit_angle_dihedral",
    "build_edge_sector",
    "deficit_angle_holonomy",
    "holonomy_deficits",
    "linearized_deficit",
    "linearized_deficits",
    "regge_action",
    "schlafli_check",
    "second_variation_check",
    "SecondVariationReport",
    "max_realizable_epsilon",
    "random_realizable_config",
]

# Realizability guard on the Cayley-Menger determinant, relative to the
# sixth power of the longest edge of the tet.
CM_DET_RTOL = 1e-14

# Bordered Cayley-Menger matrix entries of each LOCAL_EDGES slot.
_CM_LO, _CM_HI = np.array(LOCAL_EDGES).T + 1

# Local vertices per local edge slot: the edge's two ends, then the other
# two vertices, which span the two faces at the edge.
_EDGE_VERTS = np.array([[i, j] + [x for x in range(4) if x not in (i, j)]
                        for i, j in LOCAL_EDGES])

# Positions of the entries (i, j) of a symmetric 3x3 matrix packed as the
# six values 00, 11, 22, 01, 02, 12.
_SYM = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
# Packed adj G = G[p] * G[q] - G[r] * G[t] for the rows p, q, r, t: the
# cofactors of the packed G.
_COFACTORS = np.array([[1, 2, 5, 5], [0, 2, 4, 4], [0, 1, 3, 3],
                       [4, 5, 3, 2], [3, 5, 4, 1], [3, 4, 0, 5]]).T
# g_ij = (s_0i + s_0j - s_ij) / 2 for the off-diagonal (i, j) = 01, 02, 12:
# the slots 0i and 0j of each.
_POLAR_I, _POLAR_J = np.array([0, 0, 1]), np.array([1, 2, 2])
# The slots (i, j) = 01, 02, 03 have the opposite vertices (k, l) = 23,
# 13, 12, whose H_kl = adj G packed at 12, 02, 01; the slots 12, 13, 23
# take their H_0l from the rows of adj G of l = 3, 2, 1.
_OPPOSITE = np.array([5, 4, 3])
_ROWS = np.ascontiguousarray(_SYM[::-1])

# The sectors on the two sides of the faces of a star of valence s: sector
# i - 1 (cyclically) before face i, then sector i after it.
_SIDES = {s: np.concatenate([np.arange(-1, s - 1), np.arange(s)])
          for s in (4, 6)}
_EYE3 = np.eye(3)
_NONE = np.array([], dtype=np.intp)
for _a in (_POLAR_I, _POLAR_J, _OPPOSITE, _ROWS, *_SIDES.values(), _EYE3,
           _NONE):
    _a.setflags(write=False)

logger = logging.getLogger(__name__)


class RealizabilityError(ValueError):
    """Edge lengths do not embed a tet as a nondegenerate Euclidean simplex."""


@dataclass(frozen=True)
class EdgeLengthConfig:
    """One positive finite squared length per edge (length^2 units)."""

    squared_lengths: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.squared_lengths, float).ravel()
        object.__setattr__(self, "squared_lengths", s)
        if not np.all(np.isfinite(s)):
            raise RealizabilityError("squared lengths must be finite")
        if np.any(s <= 0):
            raise RealizabilityError("squared lengths must be positive")

    @property
    def lengths(self) -> np.ndarray:
        return np.sqrt(self.squared_lengths)

    def to_json(self) -> dict:
        return {"squared_lengths": self.squared_lengths.tolist()}

    @staticmethod
    def from_json(payload: dict) -> "EdgeLengthConfig":
        """Inverse of :meth:`to_json`; ValueError for any other payload
        (RealizabilityError, a ValueError, for non-positive lengths)."""
        if not (isinstance(payload, dict) and "squared_lengths" in payload):
            raise ValueError('need a JSON object with a "squared_lengths" '
                             "list")
        try:
            s = np.asarray(payload["squared_lengths"], float)
        except (TypeError, ValueError) as ex:
            raise ValueError(f"squared_lengths: {ex}") from ex
        return EdgeLengthConfig(s)


def euclidean_lengths(mesh: PeriodicMesh) -> EdgeLengthConfig:
    """Background configuration: squared Euclidean edge lengths."""
    return EdgeLengthConfig(np.tile(mesh.edge_length**2, mesh.num_vertices))


def perturbed_lengths(mesh: PeriodicMesh, u_prime: ReggeField,
                      eps: float) -> EdgeLengthConfig:
    """Squared lengths of the metric I + eps*u': l_e^2 + eps*c_e exactly."""
    return EdgeLengthConfig(np.tile(mesh.edge_length**2, mesh.num_vertices)
                            + eps * u_prime.coeffs)


def cayley_menger_determinant(s6):
    """Cayley-Menger determinants of tets from six squared lengths each.

    ``s6`` has shape (..., 6), LOCAL_EDGES order; the result has shape
    (...), one determinant of a bordered 5x5 distance matrix per tet (a
    float for a single tet).  Equals 288 V^2 for a realizable tet.
    """
    s = np.asarray(s6, float)
    M = np.ones(s.shape[:-1] + (5, 5))
    diag = np.arange(5)
    M[..., diag, diag] = 0.0
    M[..., _CM_LO, _CM_HI] = M[..., _CM_HI, _CM_LO] = s
    return np.linalg.det(M)


def _first_not_positive_definite(mats: np.ndarray) -> int:
    """Position (C order over the leading axes) of the first stacked 3x3
    matrix that has no Cholesky factor; -1 when all have one."""
    try:
        np.linalg.cholesky(mats)
        return -1
    except np.linalg.LinAlgError:
        for pos, m in enumerate(mats.reshape(-1, 3, 3)):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                return pos


def _gram_adjugate(s: np.ndarray):
    """adj G (6, T) from the closed-form cofactors, and det G (T,), the
    first row of G times the first column of adj G, of the Gram matrices G
    of the spanning edge vectors p_i - p_0 of tets in the sought metric,
    polarized from their squared lengths s (6, T).  One row per LOCAL_EDGES
    slot; each symmetric 3x3 matrix is packed as in ``_SYM``.
    """
    g = np.concatenate([s[:3], 0.5 * (s[_POLAR_I] + s[_POLAR_J] - s[3:])])
    p, q, r, t = g[_COFACTORS]
    adj = p * q - r * t
    return adj, g[0] * adj[0] + g[3] * adj[3] + g[4] * adj[4]


def _checked_gram(mesh: PeriodicMesh, config: EdgeLengthConfig, tets=None):
    """The realizability guard of every route from squared lengths.

    Returns ``s, *_gram_adjugate(s)`` for the squared lengths s (6, T) of
    the given tets (all by default).  Raises ValueError on an edge count
    mismatch, and RealizabilityError tagged with the first offending tet:
    Cayley-Menger determinant 8 det G below the relative guard, or else G
    not positive definite.  Both guards are one boolean test; the offender
    is searched for only when it fails.
    """
    if config.squared_lengths.shape[0] != mesh.num_edges:
        raise ValueError("edge count mismatch")
    edges = mesh.tet_edges if tets is None else mesh.tet_edges[tets]
    s = config.squared_lengths[edges.T]
    adj, det = _gram_adjugate(s)
    cm = 8.0 * det
    flat = cm > CM_DET_RTOL * s.max(axis=0) ** 3
    # Sylvester: with g00 = s_01 > 0 and det G > 0, G is positive definite
    # exactly when its leading 2x2 minor g00 g11 - g01^2 = adj[2] is
    realizable = flat & (adj[2] > 0)
    if not realizable.all():
        degenerate = np.flatnonzero(~flat)
        row = (degenerate if degenerate.size
               else np.flatnonzero(~realizable))[0]
        tet = int(row if tets is None else tets[row])
        if degenerate.size:
            raise RealizabilityError(
                f"tet {tet}: degenerate edge lengths "
                f"(Cayley-Menger determinant {cm[row]:.3e})")
        raise RealizabilityError(f"tet {tet}: metric not positive definite")
    return s, adj, det


def tet_metrics_from_lengths(mesh: PeriodicMesh, config: EdgeLengthConfig,
                             tets=None) -> np.ndarray:
    """Constant metric per tet (T, 3, 3), or of the listed ``tets`` only:
    the Regge field whose coefficients are the squared edge lengths (the
    edge DOFs are unisolvent on constants).

    Raises RealizabilityError (tagged with the first offending tet) when a
    tet is not realizable: Cayley-Menger determinant below the relative
    guard, or metric not positive definite.
    """
    _checked_gram(mesh, config, tets)
    return regge_to_tet_matrices(mesh, ReggeField(config.squared_lengths),
                                 tets)


def _dihedral_cs(s: np.ndarray, adj: np.ndarray, det: np.ndarray):
    """Unnormalised cosines x and sines y (6, T) of the dihedral angles of
    tets at their six edges, from ``_gram_adjugate``.

    The products of the barycentric gradients, scaled by det G, form the
    4x4 matrix H: adj G in rows and columns 1..3, minus its row sums in
    row and column 0.  At the slot (i, j) with opposite vertices k and l,
    x = -H_kl and y = sqrt(H_kk H_ll - H_kl^2), which equals
    sqrt(s_ij det G) and is taken in that form, free of cancellation.
    """
    x = np.concatenate([-adj[_OPPOSITE], adj[_ROWS].sum(axis=1)])
    return x, np.sqrt(s * det)


@lru_cache(maxsize=32)
def _flat_dihedral_cs(direction_lengths: tuple):
    """``_dihedral_cs`` (6 slots, 6 tets) of the six box-template tets of
    a mesh whose edges of direction d have the length
    ``direction_lengths[d]``: the flat background.  Tet 6v + r has the
    squared lengths of tet r bit for bit."""
    s = np.square(direction_lengths)[_BOX_EDGE_DIRS.T]
    adj, det = _gram_adjugate(s)
    out = _dihedral_cs(s, adj, det)
    for a in out:
        a.setflags(write=False)
    return out


def _flat_background(mesh: PeriodicMesh):
    """``_flat_dihedral_cs`` of the mesh (edge 7v + d has direction d)."""
    return _flat_dihedral_cs(tuple(mesh.edge_length.tolist()))


def _dihedral_angles(p: np.ndarray, u: np.ndarray, slot: int) -> np.ndarray:
    """Dihedral angle of each tet at one LOCAL_EDGES slot.

    ``p`` (T, 4, 3) tet points, ``u`` (T, 3, 3) metrics.  Returns (T,)
    angles in (0, pi): the angle between the two faces at the edge, i.e.
    between the metric-orthogonal complements of the edge direction inside
    the two face planes.
    """
    q = p[:, _EDGE_VERTS[slot]]
    t = q[:, 1] - q[:, 0]
    wc = q[:, 2] - q[:, 0]
    wd = q[:, 3] - q[:, 0]
    ut = np.einsum("tij,tj->ti", u, t)
    tt = np.einsum("ti,ti->t", t, ut)
    vc = wc - (np.einsum("ti,ti->t", wc, ut) / tt)[:, None] * t
    vd = wd - (np.einsum("ti,ti->t", wd, ut) / tt)[:, None] * t
    cc = np.einsum("ti,tij,tj->t", vc, u, vc)
    dd = np.einsum("ti,tij,tj->t", vd, u, vd)
    cd = np.einsum("ti,tij,tj->t", vc, u, vd)
    return np.arccos(np.clip(cd / np.sqrt(cc * dd), -1.0, 1.0))


def metric_dihedral_angles(mesh: PeriodicMesh,
                           metrics: np.ndarray) -> np.ndarray:
    """Dihedral angle of every tet at each of its six edges, in its metric.

    Returns (T, 6) angles in (0, pi), columns in LOCAL_EDGES order.  This
    is the metric route: it measures the angles of the tets, translates of
    the templates ``tet_coords``, in the pulled-back metrics (e.g. of
    ``tet_metrics_from_lengths``), so the tests use it as the oracle of the
    length-only ``deficit_angles``.
    """
    p = np.tile(mesh.tet_coords, (mesh.num_vertices, 1, 1))
    out = np.empty((mesh.num_tets, 6))
    for a in range(6):
        out[:, a] = _dihedral_angles(p, metrics, a)
    return out


def _angle_gaps(x, y, x0, y0) -> np.ndarray:
    """alpha0 - alpha of angles with unnormalised cosines and sines (x, y)
    and background ones (x0, y0); exactly 0 where they agree bit for
    bit."""
    return np.arctan2(x * y0 - y * x0, x * x0 + y * y0)


def deficit_angles(mesh: PeriodicMesh, config: EdgeLengthConfig) -> np.ndarray:
    """theta_e = 2*pi - sum of incident dihedral angles, for every edge.

    The angles come from the squared lengths alone, and the sum runs over
    their gaps to the flat background's angles, which sum to 2*pi around
    every edge; so theta is exactly 0 at the flat configuration.
    """
    s, adj, det = _checked_gram(mesh, config)
    x, y = (c.reshape(6, -1, 6) for c in _dihedral_cs(s, adj, det))
    x0, y0 = (c[:, None] for c in _flat_background(mesh))
    gaps = _angle_gaps(x, y, x0, y0).reshape(6, -1).T
    return np.bincount(mesh.tet_edges.ravel(), gaps.ravel(),
                       minlength=mesh.num_edges)


def deficit_angle_dihedral(mesh: PeriodicMesh, e: int,
                           config: EdgeLengthConfig) -> float:
    """Deficit angle of one edge via the dihedral angles of its star tets,
    summed in tet order as :func:`deficit_angles` sums them."""
    tets = np.sort(_edge_tets(mesh, e))
    s, adj, det = _checked_gram(mesh, config, tets)
    types = tets % 6
    slots = _TET_SLOTS[types, e % 7]
    cols = np.arange(len(tets))
    x, y = (c[slots, cols] for c in _dihedral_cs(s, adj, det))
    x0, y0 = (c[slots, types] for c in _flat_background(mesh))
    total = 0.0
    for gap in _angle_gaps(x, y, x0, y0).tolist():
        total += gap
    return total


@dataclass(frozen=True)
class EdgeSector:
    """Cyclic sector data around one edge, built and checked by
    :func:`build_edge_sector`.

    ``metrics[i]`` is the constant metric of the sector between faces i and
    i+1 (cyclically); ``ms[i]``/``ns[i]`` are the in-face and normal frame
    vectors of face i, right-handed with the tangent.  Consecutive sector
    metrics agree tangentially on the shared face.  ``faces`` and ``tets``
    run in star template order, not from the lowest face as in edge_star.
    """

    tangent: np.ndarray      # (3,)
    ms: np.ndarray           # (s, 3)
    ns: np.ndarray           # (s, 3)
    metrics: np.ndarray      # (s, 3, 3)
    edge: int
    faces: tuple
    tets: tuple


def _sectors(mesh: PeriodicMesh, d: int, v, tet_metrics: np.ndarray):
    """The star frame of direction d and the metrics (..., s, 3, 3) of the
    sectors of the edges 7*v + d (v a vertex or a slice), then the flat
    positions of the faces the metrics jump across tangentially and of the
    first metric that is not positive definite (-1 if none)."""
    frame = mesh._star_frames[d]
    mats = tet_metrics[mesh._star_tets[d][v]]
    scale = np.maximum(np.abs(mats).max(axis=(-3, -2, -1), keepdims=True),
                       1.0)
    # tangential-tangential part of the jump across face i, in the frame
    # (t_e, m_i) of the face
    jump = mats - mats[..., frame.prev, :, :]
    torn = np.abs(frame.tm @ jump @ frame.tm.mT) > 1e-9 * scale
    torn = np.flatnonzero(torn.any(axis=(-2, -1))) if torn.any() else _NONE
    return frame, mats, torn, _first_not_positive_definite(mats)


def build_edge_sector(mesh: PeriodicMesh, e: int,
                      tet_metrics: np.ndarray) -> EdgeSector:
    """Assemble the sector data of edge e from per-tet constant metrics."""
    faces, tets = _star_arrays(mesh, e)
    frame, mats, torn, bent = _sectors(mesh, e % 7, e // 7, tet_metrics)
    if torn.size:
        raise RealizabilityError(
            f"sector metrics of edge {e} are not tangentially "
            f"continuous across face {int(faces[torn[0]])}")
    if bent >= 0:
        raise RealizabilityError(
            f"sector {bent}: metric not positive definite")
    return EdgeSector(frame.tangent, frame.ms, frame.ns, mats, e,
                      tuple(faces.tolist()), tuple(tets.tolist()))


def _unit_normals(ns, mats):
    """Metric-unit normals k (..., 2s, 3) to the faces of stacked stars,
    with n . k (..., 2s, 1): face frames ns (s, 3), sector metrics (..., s,
    3, 3).  Row i is k- of face i, in the sector before it, and row s + i
    its k+, in the sector after it; each points to the side of n_i."""
    # n^T x is a matmul, which rounds as a single dot does; einsum does not
    n2 = np.concatenate([ns, ns], axis=-2)[..., None]
    x = np.linalg.solve(mats[..., _SIDES[ns.shape[-2]], :, :], n2)
    nk = np.sqrt(n2.mT @ x)[..., 0]
    return x[..., 0] / nk, nk


def _holonomy(t, ms, ns, mats) -> np.ndarray:
    """Holonomy rotation angles (...) of stacked sectors: tangent t (3,),
    face frames ms and ns (s, 3), metrics (..., s, 3, 3)."""
    s = ms.shape[-2]
    k, nk = _unit_normals(ns, mats)
    # crossing face i fixes its plane and maps k- to k+:
    # T_i = I + (k+ - k-) n_i^T / (n_i . k-)
    T = _EYE3 + ((k[..., s:, :] - k[..., :s, :])
                 / nk[..., :s, :])[..., None] * ns[..., None, :]
    E = T[..., 0, :, :]
    for i in range(1, s):
        E = T[..., i, :, :] @ E
    # a U-orthonormal frame of the plane U-orthogonal to t, in the start
    # metric U, the one before face 0: w1 by Gram-Schmidt of m_0 against t
    # (a^T U b of rows (..., 1, 3) is a @ U @ b.mT), and w2 = k- of face 0,
    # which is U-unit, U-orthogonal to face 0 and on the side of n_0
    U = mats[..., s - 1, :, :]
    m0 = ms[..., :1, :]

    def unit(v):
        return v / np.sqrt(v @ U @ v.mT)

    that = unit(t[..., None, :])
    w1 = unit(m0 - (m0 @ U @ that.mT) * that)
    W = np.concatenate([w1, k[..., :1, :]], axis=-2)
    # the holonomy E is a U-isometry that fixes t, and W^-1 = W^T U reads
    # its rotation in the (w1, w2) plane
    P = W @ U @ E @ W.mT
    return np.arctan2(P[..., 1, 0] - P[..., 0, 1], P[..., 0, 0] + P[..., 1, 1])


def deficit_angle_holonomy(sector: EdgeSector) -> float:
    """Deficit angle as the rotation angle of the holonomy around the edge.

    Crossing face i is T_i = I + (k+ - k-) n_i^T / (n_i . k-), which fixes
    the face and maps the metric-unit normal k- of the before-sector to the
    after-sector's k+.  The product of all crossings is an isometry of the
    start sector metric U fixing the edge direction: a rotation of the
    orthogonal plane, read by U-products in a U-orthonormal frame of it,
    whose second vector is the k- of face 0.  The angle is positive when
    the cone angle is less than 2*pi, and returned on the principal branch
    (-pi, pi], so agreement with the dihedral route holds for
    |deficit| < pi.
    """
    return float(_holonomy(sector.tangent, sector.ms, sector.ns,
                           sector.metrics))


def holonomy_deficits(mesh: PeriodicMesh,
                      tet_metrics: np.ndarray) -> np.ndarray:
    """``deficit_angle_holonomy(build_edge_sector(mesh, e, tet_metrics))``
    of every edge e, shape (E,), in one stacked pass per edge direction;
    raises what the failing edge of lowest id raises there."""
    out, failing = [], []
    for d in range(7):
        frame, mats, torn, bent = _sectors(mesh, d, slice(None), tet_metrics)
        # first failing vertex: torn and bent are flat (V, valence) positions
        valence = len(frame.prev)
        bad = [p // valence for p in (*torn[:1], bent) if p >= 0]
        if bad:
            failing.append(7 * min(bad) + d)
        else:
            out.append(_holonomy(frame.tangent, frame.ms, frame.ns, mats))
    if failing:
        build_edge_sector(mesh, min(failing), tet_metrics)
    return np.stack(out, axis=1).ravel()


def _linearized(mesh: PeriodicMesh, d: int, mats) -> np.ndarray:
    """Linearized deficits of edges of direction d from the matrices
    (..., s, 3, 3) of u' on their sector tets; the face terms are summed
    one at a time in star order."""
    frame = mesh._star_frames[d]
    jump = mats - mats[..., frame.prev, :, :]
    vals = (frame.ms[:, None, :] @ jump @ frame.ns[..., None])[..., 0, 0]
    total = 0.0
    for i in range(len(frame.prev)):
        total = total + vals[..., i]
    return 0.5 * total


def linearized_deficit(mesh: PeriodicMesh, e: int,
                       u_prime: ReggeField) -> float:
    """Derivative of the deficit angle at the flat background.

    theta'_e = 1/2 * sum over the star faces of m_f^T (u'_after - u'_before)
    n_f, the after/before sectors taken in counter-clockwise order; equals
    half the assembled edge jump of u'.
    """
    mats = regge_to_tet_matrices(mesh, u_prime, _edge_tets(mesh, e))
    return float(_linearized(mesh, e % 7, mats))


def linearized_deficits(mesh: PeriodicMesh,
                        u_prime: ReggeField) -> np.ndarray:
    """``linearized_deficit`` of every edge, shape (E,), in one stacked
    pass per edge direction."""
    mats = regge_to_tet_matrices(mesh, u_prime)
    return np.stack([_linearized(mesh, d, mats[mesh._star_tets[d]])
                     for d in range(7)], axis=1).ravel()


def regge_action(mesh: PeriodicMesh, config: EdgeLengthConfig) -> float:
    """R = sum_e theta_e * l_e (deficits via the dihedral route)."""
    theta = deficit_angles(mesh, config)
    return float(np.sum(theta * config.lengths))


def schlafli_check(mesh: PeriodicMesh, config: EdgeLengthConfig,
                   direction, step: float = 1e-4) -> float:
    """Residual of dR/deps against sum_e theta_e * dl_e.

    ``direction`` is a per-edge perturbation of the (unsquared) lengths.
    The derivative is a central difference at the given step, so the
    residual is O(step^2) for realizable configurations.
    """
    direction = np.asarray(direction, float).ravel()
    if direction.shape[0] != mesh.num_edges:
        raise ValueError("direction must have one entry per edge")
    l0 = config.lengths

    def action_at(eps):
        return regge_action(mesh,
                            EdgeLengthConfig((l0 + eps * direction) ** 2))

    dR = (action_at(step) - action_at(-step)) / (2.0 * step)
    theta = deficit_angles(mesh, config)
    rhs = float(np.sum(theta * direction))
    return abs(dR - rhs)


def max_realizable_epsilon(mesh: PeriodicMesh, u_prime: ReggeField,
                           hi: float = 1.0, iters: int = 60) -> float:
    """Largest eps <= hi with I + eps*u' realizable, by bisection; each
    step runs only the realizability guard, no metric pull-back."""

    def ok(eps):
        try:
            _checked_gram(mesh, perturbed_lengths(mesh, u_prime, eps))
            return True
        except RealizabilityError:
            return False

    if ok(hi):
        return hi
    lo, up = 0.0, hi
    for _ in range(iters):
        mid = 0.5 * (lo + up)
        if ok(mid):
            lo = mid
        else:
            up = mid
    return lo


def _neville(xs, ys, x0=0.0) -> float:
    xs = np.asarray(xs, float)
    p = np.asarray(ys, float).copy()
    n = len(xs)
    for level in range(1, n):
        for i in range(n - level):
            p[i] = ((x0 - xs[i + level]) * p[i]
                    + (xs[i] - x0) * p[i + 1]) / (xs[i] - xs[i + level])
    return float(p[0])


@dataclass
class SecondVariationReport:
    """Comparison of the nonlinear action against its quadratic model."""

    epsilons: np.ndarray
    actions: np.ndarray
    ratios: np.ndarray           # R(eps)/eps^2
    extrapolated: float          # Richardson limit of the ratios at 0
    target: float                # c' A c / 8 from the assembled matrix
    remainder_slope: float       # log-log slope of |R - eps^2 * target|
    pruned: list = field(default_factory=list)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.target), 1e-300)
        return abs(self.extrapolated - self.target) / scale

    def to_dict(self) -> dict:
        return {
            "epsilons": self.epsilons.tolist(),
            "actions": self.actions.tolist(),
            "ratios": self.ratios.tolist(),
            "extrapolated": self.extrapolated,
            "target": self.target,
            "rel_error": self.rel_error,
            "remainder_slope": self.remainder_slope,
            "pruned_epsilons": list(self.pruned),
        }


def second_variation_check(mesh: PeriodicMesh, u_prime: ReggeField,
                           epsilons, stiffness) -> SecondVariationReport:
    """Probe R(I + eps*u') over an eps schedule against eps^2/8 * c'Ac.

    Unrealizable eps values are pruned with a warning.  The report carries
    the per-eps ratios R/eps^2, their Richardson extrapolation at eps = 0,
    the assembled quadratic coefficient, and the log-log slope of the
    remainder (cubic or better when the expansion holds).  Keep the
    schedule above ~1e-3: the action is O(eps^2), so smaller eps loses the
    remainder to floating-point cancellation and degrades the slope fit.
    ``stiffness`` is ``assemble_stiffness(mesh)``; callers assemble it once
    for all their directions.
    """
    c = u_prime.coeffs
    target = float(c @ (stiffness.matrix @ c)) / 8.0
    eps_ok, actions, pruned = [], [], []
    for eps in sorted(float(e) for e in epsilons):
        try:
            cfg = perturbed_lengths(mesh, u_prime, eps)
            actions.append(regge_action(mesh, cfg))
            eps_ok.append(eps)
        except RealizabilityError:
            pruned.append(eps)
    if pruned:
        logger.debug("second_variation_check: pruned unrealizable "
                     "epsilons %s", pruned)
        warnings.warn(f"pruned unrealizable epsilons: {pruned}")
    if len(eps_ok) < 2:
        raise RealizabilityError("not enough realizable epsilon values")
    eps_arr = np.array(eps_ok)
    act = np.array(actions)
    ratios = act / eps_arr**2
    extrap = _neville(eps_arr, ratios, 0.0)
    rem = np.abs(act - eps_arr**2 * target)
    mask = rem > 0
    if mask.sum() >= 2:
        slope = float(np.polyfit(np.log(eps_arr[mask]),
                                 np.log(rem[mask]), 1)[0])
    else:
        slope = float("inf")
    return SecondVariationReport(eps_arr, act, ratios, extrap, target,
                                 slope, pruned)


def random_realizable_config(mesh: PeriodicMesh, rng, scale: float = 0.2,
                             max_deficit: float | None = None
                             ) -> EdgeLengthConfig:
    """Seeded random non-flat configuration, shrunk until realizable.

    With ``max_deficit`` the amplitude also shrinks until every deficit
    angle stays below the bound (keeps rotation angles on the principal
    branch for holonomy comparisons).
    """
    r = rng.uniform(-1.0, 1.0, mesh.num_edges)
    s0 = np.tile(mesh.edge_length**2, mesh.num_vertices)
    factor = scale
    for _ in range(40):
        try:
            cfg = EdgeLengthConfig(s0 * (1.0 + factor * r))
            theta = deficit_angles(mesh, cfg)
            if max_deficit is None or np.abs(theta).max() <= max_deficit:
                return cfg
            reason = "a deficit angle above max_deficit"
        except RealizabilityError as ex:
            reason = ex
        factor *= 0.5
        logger.debug("random_realizable_config: %s; amplitude halved to %g",
                     reason, factor)
    raise RealizabilityError("could not find a realizable configuration")
