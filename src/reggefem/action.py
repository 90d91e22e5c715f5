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
  configuration.  The realizability guard tests both of its conditions
  (Cayley-Menger determinant, positive definite Gram matrix) in one
  boolean array and looks for the offending tet only when that test
  fails;
* holonomy: carry two vectors once around the edge through the cyclic
  star of sectors, crossing each face by the rank-one map that takes the
  metric-unit normal before it to the one after it, and read off the
  rotation angle in the plane metric-orthogonal to the edge.  The frame
  of that plane is w1, the part of m_0 metric-orthogonal to the edge made
  unit, and the metric-unit normal k- of face 0, which the crossings
  already compute.  A metric-unit normal is G^-1 n / sqrt(n^T G^-1 n) for
  the sector metric G, taken from the inverse of G: the whole-mesh route
  inverts every tet metric once after one batched Cholesky test has found
  them all positive definite, and a single edge inverts its own sector
  metrics, which rounds the same.

The action is R = sum_e theta_e * l_e.  Near the flat background,
R(l(eps)) = eps^2/8 * c' A c + O(eps^3) where c is the coefficient vector
of the metric perturbation and A the stiffness operator, applied by its
matvec; the linearized deficit equals half the assembled edge jump.

Every whole-mesh route takes a leading rows axis, one configuration or
field a row, and each public one-configuration function is its one-row
case: ``deficit_angles`` of ``_dihedral_rows``, ``holonomy_deficits`` of
``_holonomy_rows``, ``linearized_deficits`` of ``_linearized_rows``,
``schlafli_check`` of ``_schlafli_rows`` and ``second_variation_check``
of ``_second_variation_rows``.  ``verify`` runs a suite's random draws
through them as the rows of one pass.  A pass holds as many rows as fit
``_SLAB_TETS`` tets (sector tets for the star routes), one at least, and
a row's values do not depend on the rows stacked with it, so each equals
its own call bit for bit.  A row that ``EdgeLengthConfig`` or the
realizability guard refuses raises what its own call raises, the first
such row first; ``second_variation_check`` prunes such an eps row
instead, with a warning per direction.

The holonomy and the linearized deficit are each one private kernel over
stacked stars: ``_holonomy_rows`` and ``_linearized_rows`` run it on the
stars of each valence class of every row, the directions 0, 1, 3, 6 (valence
6) and 2, 4, 5 (valence 4), stacked on a leading axis, so two passes
cover every edge (more only once a class holds over ``_SLAB_TETS``
sector tets, and a direction's stars run in vertex chunks once they
do); ``deficit_angle_holonomy`` runs it on the one star of
``build_edge_sector``, and ``linearized_deficit`` reads entry e of
``linearized_deficits``.  A star runs in the order of its direction's
template ``mesh._STARS[d]``.  Its tangent, face frames and the sector
before each face are constants that ``build_torus_mesh`` keeps in
``mesh._star_frames[d]``, stacked by class in ``mesh._star_classes``,
and a tet's slot of an edge direction is read from ``mesh._TET_SLOTS``;
only the sector tets are read per edge, and a face id is formed only to
name a torn face in an error.  These routes are independent on purpose:
``verify`` checks them against ``deficit_angles`` and against
``saint_venant.apply_ctc``, so they share no code with those.

``holonomy_deficits`` takes squared lengths and forms the metrics with
``tet_metrics_from_lengths``: the realizability guard of
``deficit_angles``, then the Regge basis matrices.  Such metrics agree
tangentially across every face by construction, so only
``build_edge_sector``, which takes metrics from its caller, tests each
star face for a tangential jump and each sector metric for a Cholesky
factor.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import _BOX_EDGE_DIRS, _TET_SLOTS, PeriodicMesh, _edge_tets, \
    _star_faces
from .spaces import ReggeField, _tet_matrices, regge_to_tet_matrices

__all__ = [
    "RealizabilityError",
    "EdgeLengthConfig",
    "EdgeSector",
    "euclidean_lengths",
    "perturbed_lengths",
    "tet_metrics_from_lengths",
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
    "random_realizable_config",
]

# Realizability guard on the Cayley-Menger determinant, relative to the
# sixth power of the longest edge of the tet.
CM_DET_RTOL = 1e-14

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
for _a in (_POLAR_I, _POLAR_J, _OPPOSITE, _ROWS, *_SIDES.values(), _EYE3):
    _a.setflags(write=False)

# Tets per stacked pass: ``second_variation_check`` puts as many eps rows
# (T tets each) into one dihedral pass as fit, and ``_by_valence`` as many
# directions of a class (V stars of s sector tets each), one at least, or
# as many stars of one direction when its V stars do not fit.  In
# process (one BLAS thread, budgets interleaved, medians), stacking the
# seven rows of a schedule took 1.55 -> 0.68 ms at 2^3 and 3.0 -> 2.3 ms
# at 4^3, but unbounded it took 15 against 10 ms at 8^3 and 50 against
# 34 ms at 12^3, and the holonomy's classes 66 against 55 ms at 12^3: past
# a few thousand tets a stacked pass is slower than its rows one at a time.
_SLAB_TETS = 2048


def _slabs(n: int, tets: int) -> list:
    """Slices of the rows 0..n-1 of a stacked pass in which each row holds
    ``tets`` tets: ``_SLAB_TETS // tets`` rows a slab, one at least."""
    step = max(1, _SLAB_TETS // tets)
    return [slice(lo, lo + step) for lo in range(0, n, step)]

logger = logging.getLogger(__name__)


class RealizabilityError(ValueError):
    """Edge lengths do not embed a tet as a nondegenerate Euclidean simplex."""


@dataclass(frozen=True)
class EdgeLengthConfig:
    """One positive finite squared length per edge (length^2 units).

    The lengths are a 1-D array of real numbers, stored as floats: any
    other shape or dtype (booleans included) is a ValueError, and a
    non-finite or non-positive value a RealizabilityError.
    """

    squared_lengths: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.squared_lengths)
        if s.ndim != 1 or s.dtype.kind not in "iuf":
            raise ValueError("squared lengths must be a 1-D array of real "
                             f"numbers, not {s.dtype} of shape {s.shape}")
        # a read-only copy: the caller's array, and later writes, cannot
        # change a configuration once it is checked
        s = np.array(s, dtype=float)
        s.setflags(write=False)
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
        """Inverse of :meth:`to_json`; ValueError for any other payload,
        a nested list, booleans or strings included (RealizabilityError,
        a ValueError, for non-positive lengths)."""
        if not (isinstance(payload, dict) and "squared_lengths" in payload):
            raise ValueError('need a JSON object with a "squared_lengths" '
                             "list")
        s = payload["squared_lengths"]
        if not (isinstance(s, list) and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in s)):
            raise ValueError("squared_lengths: need a flat list of numbers")
        try:
            return EdgeLengthConfig(np.array(s, float))
        except OverflowError as ex:  # an integer beyond the float range
            raise ValueError(f"squared_lengths: {ex}") from ex


def _background(mesh: PeriodicMesh) -> np.ndarray:
    """Squared Euclidean edge lengths (E,), unchecked: ``_box_templates``
    has found the seven finite and positive."""
    return np.tile(mesh.edge_length**2, mesh.num_vertices)


def euclidean_lengths(mesh: PeriodicMesh) -> EdgeLengthConfig:
    """Background configuration: squared Euclidean edge lengths."""
    return EdgeLengthConfig(_background(mesh))


def perturbed_lengths(mesh: PeriodicMesh, u_prime: ReggeField,
                      eps: float) -> EdgeLengthConfig:
    """Squared lengths of the metric I + eps*u': l_e^2 + eps*c_e exactly,
    checked once."""
    return EdgeLengthConfig(_background(mesh) + eps * u_prime.coeffs)


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


def _guard(s: np.ndarray, adj: np.ndarray, det: np.ndarray):
    """The realizability guard, tet by tet, of squared lengths s (6, ...)
    and ``_gram_adjugate`` of them: the Cayley-Menger determinant 8 det G,
    whether it clears the guard relative to the longest edge, and whether
    the tet is realizable, its G positive definite too."""
    cm = 8.0 * det
    flat = cm > CM_DET_RTOL * s.max(axis=0) ** 3
    # Sylvester: with g00 = s_01 > 0 and det G > 0, G is positive definite
    # exactly when its leading 2x2 minor g00 g11 - g01^2 = adj[2] is
    return cm, flat, flat & (adj[2] > 0)


def _gram(mesh: PeriodicMesh, S: np.ndarray, tets=None):
    """The realizability guard of every route from squared lengths.

    S holds the squared lengths (E,) of one configuration, or (r, E) of r
    stacked on a leading rows axis, each accepted by ``EdgeLengthConfig``.
    Returns ``s, adj, det, refused``: the squared lengths s (6, T) or (6,
    T, r) of the given tets (all by default), ``_gram_adjugate`` of them,
    and None, or when the guard refuses a tet, the first refused row and
    its RealizabilityError, tagged with the row's first offending tet:
    Cayley-Menger determinant 8 det G below the relative guard, or else G
    not positive definite.  Both guards are one boolean test, ``_guard``;
    the offender is searched for only when it fails.  Raises ValueError on
    an edge count mismatch.
    """
    if S.shape[-1] != mesh.num_edges:
        raise ValueError("edge count mismatch")
    edges = mesh.tet_edges if tets is None else mesh.tet_edges[tets]
    # np.take lays s out slot by slot (C order); indexing with edges.T
    # would lay it out tet by tet, which the kernels downstream read about
    # a third slower at 6^3 and 16^3
    s = np.take(S.T, edges.T, axis=0)
    adj, det = _gram_adjugate(s)
    cm, flat, realizable = _guard(s, adj, det)
    if realizable.all():
        return s, adj, det, None
    cm, flat, realizable = (a.reshape(len(edges), -1)
                            for a in (cm, flat, realizable))
    row = int(np.flatnonzero(~realizable.all(axis=0))[0])
    degenerate = np.flatnonzero(~flat[:, row])
    t = (degenerate if degenerate.size
         else np.flatnonzero(~realizable[:, row]))[0]
    tet = int(t if tets is None else tets[t])
    if degenerate.size:
        return s, adj, det, (row, RealizabilityError(
            f"tet {tet}: degenerate edge lengths "
            f"(Cayley-Menger determinant {cm[t, row]:.3e})"))
    return s, adj, det, (row, RealizabilityError(
        f"tet {tet}: metric not positive definite"))


def _checked_gram(mesh: PeriodicMesh, config: EdgeLengthConfig,
                  tets=None) -> list:
    """``s, adj, det`` of ``_gram`` for one configuration; raises the
    guard's error."""
    *gram, refused = _gram(mesh, config.squared_lengths, tets)
    if refused is not None:
        raise refused[1]
    return gram


def _checked_rows(mesh: PeriodicMesh, S: np.ndarray) -> list:
    """``_checked_gram`` of the rows of S (r, E), which no
    ``EdgeLengthConfig`` has checked yet: raises, for the first row that
    it or the guard refuses, what that row's own config and call raise."""
    ok = np.isfinite(S).all(axis=1) & (S > 0).all(axis=1)
    n = len(S) if ok.all() else int(ok.argmin())
    *gram, refused = _gram(mesh, S[:n])
    if refused is not None:
        raise refused[1]
    if n < len(S):
        EdgeLengthConfig(S[n])
    return gram


def tet_metrics_from_lengths(mesh: PeriodicMesh,
                             config: EdgeLengthConfig) -> np.ndarray:
    """Constant metric per tet (T, 3, 3): the Regge field whose
    coefficients are the squared edge lengths (the edge DOFs are unisolvent
    on constants).

    Raises RealizabilityError (tagged with the first offending tet) when a
    tet is not realizable: Cayley-Menger determinant below the relative
    guard, or metric not positive definite.
    """
    _checked_gram(mesh, config)
    return regge_to_tet_matrices(mesh, ReggeField(config.squared_lengths))


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


def _angle_gaps(x, y, x0, y0) -> np.ndarray:
    """alpha0 - alpha of angles with unnormalised cosines and sines (x, y)
    and background ones (x0, y0); exactly 0 where they agree bit for
    bit."""
    return np.arctan2(x * y0 - y * x0, x * x0 + y * y0)


def _deficit_rows(mesh: PeriodicMesh, s, adj, det) -> list:
    """Deficit angles (E,) of each of r configurations that pass the
    guard, from the squared lengths s (6, T, r) of their tets, or (6, T)
    for one, and ``_gram_adjugate`` of them: one stacked dihedral pass,
    then each configuration sums its gaps to the flat background in tet
    order, in one in-order ``np.bincount``."""
    x, y = (c.reshape(6, mesh.num_vertices, 6, -1)
            for c in _dihedral_cs(s, adj, det))
    x0, y0 = (c[:, None, :, None] for c in _flat_background(mesh))
    gaps = _angle_gaps(x, y, x0, y0).reshape(6, mesh.num_tets, -1)
    edges = mesh.tet_edges.ravel()
    # each (T, 6), as ``tet_edges`` lists the edges
    return [np.bincount(edges, g.ravel(), minlength=mesh.num_edges)
            for g in gaps.T]


def deficit_angles(mesh: PeriodicMesh, config: EdgeLengthConfig) -> np.ndarray:
    """theta_e = 2*pi - sum of incident dihedral angles, for every edge.

    The angles come from the squared lengths alone, and the sum runs over
    their gaps to the flat background's angles, which sum to 2*pi around
    every edge; so theta is exactly 0 at the flat configuration.  The one
    row of ``_deficit_rows``, which ``second_variation_check`` runs on
    its eps schedules and ``_dihedral_rows`` on stacked configurations.
    """
    return _deficit_rows(mesh, *_checked_gram(mesh, config))[0]


def _dihedral_rows(mesh: PeriodicMesh, S: np.ndarray) -> list:
    """``deficit_angles`` of the configurations in the rows of S (r, E),
    each bit for bit, in stacked passes of as many rows as fit
    ``_SLAB_TETS`` tets.  Raises, for the first row that
    ``EdgeLengthConfig`` or the guard refuses, what that row's own config
    and call raise."""
    out = []
    for part in _slabs(len(S), mesh.num_tets):
        out += _deficit_rows(mesh, *_checked_rows(mesh, S[part]))
    return out


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
    vectors of face i, right-handed with the tangent, in the order of the
    star's template.  Consecutive sector metrics agree tangentially on the
    shared face.
    """

    tangent: np.ndarray      # (3,)
    ms: np.ndarray           # (s, 3)
    ns: np.ndarray           # (s, 3)
    metrics: np.ndarray      # (s, 3, 3)


def build_edge_sector(mesh: PeriodicMesh, e: int,
                      tet_metrics: np.ndarray) -> EdgeSector:
    """Assemble the sector data of edge e from per-tet constant metrics;
    RealizabilityError when they jump tangentially across a star face or
    one is not positive definite."""
    frame = mesh._star_frames[e % 7]
    mats = tet_metrics[_edge_tets(mesh, e)]
    scale = max(np.abs(mats).max(), 1.0)
    # tangential-tangential part of the jump across face i, in the frame
    # (t_e, m_i) of the face
    jump = mats - mats[frame.prev]
    torn = np.flatnonzero((np.abs(frame.tm @ jump @ frame.tm.mT)
                           > 1e-9 * scale).any(axis=(-2, -1)))
    if torn.size:
        face = _star_faces(mesh, e % 7, e // 7)[torn[0]]
        raise RealizabilityError(
            f"sector metrics of edge {e} are not tangentially "
            f"continuous across face {face}")
    bent = _first_not_positive_definite(mats)
    if bent >= 0:
        raise RealizabilityError(
            f"edge {e}, sector {bent}: metric not positive definite")
    return EdgeSector(frame.tangent, frame.ms, frame.ns, mats)


def _unit_normals(ns, inv):
    """Metric-unit normals k (..., 2s, 3) to the faces of stacked stars,
    with n . k (..., 2s, 1): face frames ns (s, 3), inverse sector metrics
    (..., s, 3, 3).  Row i is k- of face i, in the sector before it, and
    row s + i its k+, in the sector after it; each points to the side of
    n_i."""
    # n^T x is a matmul, which rounds as a single dot does; einsum does not
    n2 = np.concatenate([ns, ns], axis=-2)[..., None]
    x = inv[..., _SIDES[ns.shape[-2]], :, :] @ n2
    nk = np.sqrt(n2.mT @ x)[..., 0]
    return x[..., 0] / nk, nk


def _holonomy(star, mats, inv) -> np.ndarray:
    """Holonomy rotation angles (...) of stacked stars: the tangent (3,)
    and face frames ms and ns (s, 3) of ``star``, or those of stars stacked
    on leading axes that broadcast against (...), and the sector metrics
    and their inverses (..., s, 3, 3)."""
    t, ms, ns = star.tangent, star.ms, star.ns
    s = ms.shape[-2]
    k, nk = _unit_normals(ns, inv)
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
    return float(_holonomy(sector, sector.metrics,
                           np.linalg.inv(sector.metrics)))


def _by_valence(mesh: PeriodicMesh, kernel, *per_tet) -> np.ndarray:
    """``kernel(frames, *gathered)`` of every edge of r rows, shape (r,
    E), from per-tet arrays (r, T, ...) of ``per_tet``: one stacked pass
    per valence class of ``mesh._star_classes`` for as many rows as fit
    ``_SLAB_TETS`` sector tets; past one row, the row's passes run per
    slab of the class's directions, and per chunk of vertices within that
    budget once a single direction's stars exceed it.  The kernel gets
    the stacked frames and each array gathered on the sector tets of the
    stars, (n, k, V, s, ...), (1, k, V, s, ...) or (1, 1, chunk, s, ...).
    A star's value depends on its own rows alone, so the stack gives the
    values of one row and one direction at a time, bit for bit."""
    r, V = len(per_tet[0]), mesh.num_vertices
    out = np.empty((r, 7, V))
    for cls in mesh._star_classes:
        k, s = len(cls.dirs), cls.ms.shape[-2]
        for rows in _slabs(r, k * V * s):  # k directions of V stars a row
            n = len(range(r)[rows])
            for part in _slabs(k, n * V * s):
                dirs = cls.dirs[part]
                frames = type(cls)(*(a[part] for a in cls))
                # all V stars at once, unless one direction's exceed the
                # budget
                for chunk in _slabs(V, n * s):
                    tets = np.stack([mesh._star_tets[d][chunk]
                                     for d in dirs])
                    out[rows, dirs, chunk] = kernel(
                        frames, *(a[rows][:, tets] for a in per_tet))
    return out.transpose(0, 2, 1).reshape(r, -1)


def holonomy_deficits(mesh: PeriodicMesh,
                      config: EdgeLengthConfig) -> np.ndarray:
    """Holonomy deficit angle of every edge, shape (E,), in one stacked
    pass per valence class, two in all: entry e is
    ``deficit_angle_holonomy(build_edge_sector(mesh, e, metrics))`` for
    the metrics of ``tet_metrics_from_lengths``.  The one row of
    ``_holonomy_rows``."""
    return _holonomy_rows(mesh, config.squared_lengths[None])[0]


def _holonomy_rows(mesh: PeriodicMesh, S: np.ndarray) -> np.ndarray:
    """``holonomy_deficits`` of the configurations in the rows of S (r,
    E), each accepted by ``EdgeLengthConfig``, shape (r, E), each row bit
    for bit.

    The rows run in slabs of as many as fit ``_SLAB_TETS`` tets, all of
    them at 2^3 and one a slab from 6^3 on, so the memory of a pass does
    not grow with the rows.  The metrics of a slab pass the realizability
    guard of ``deficit_angles``, one for all its rows, and agree
    tangentially across every face by construction, so no star is checked
    again.  One batched Cholesky test confirms that each float metric
    about to be inverted is positive definite (the guard judges the Gram
    matrix polarized from the lengths, not this one); then all are
    inverted in one call and each star gathers its inverses, bit for bit
    those of the per-edge route.  A refused row raises what its own call
    raises: the rows before the first one the guard refuses are tested
    for a Cholesky factor first.
    """
    out = np.empty(S.shape)
    for part in _slabs(len(S), mesh.num_tets):
        refused = _gram(mesh, S[part])[3]
        rows = S[part][:None if refused is None else refused[0]]
        metrics = _tet_matrices(mesh, rows)
        bent = _first_not_positive_definite(metrics.reshape(-1, 3, 3))
        if bent >= 0:
            raise RealizabilityError(f"tet {bent % mesh.num_tets}: metric "
                                     "not positive definite")
        if refused is not None:
            raise refused[1]
        out[part] = _by_valence(mesh, _holonomy, metrics,
                                np.linalg.inv(metrics))
    return out


def _linearized(star, mats) -> np.ndarray:
    """Linearized deficits (...) of stacked stars from the face frames ms
    and ns (s, 3) of ``star``, or of stars stacked as in ``_holonomy``,
    and the matrices (..., s, 3, 3) of u' on their sector tets; the face
    terms are summed one at a time in star order."""
    s = star.ms.shape[-2]
    # sector i - 1 before face i
    jump = mats - mats[..., _SIDES[s][:s], :, :]
    vals = (star.ms[..., None, :] @ jump @ star.ns[..., None])[..., 0, 0]
    total = 0.0
    for i in range(s):
        total = total + vals[..., i]
    return 0.5 * total


def linearized_deficit(mesh: PeriodicMesh, e: int,
                       u_prime: ReggeField) -> float:
    """Derivative of the deficit angle at the flat background.

    theta'_e = 1/2 * sum over the star faces of m_f^T (u'_after - u'_before)
    n_f, the after/before sectors taken in counter-clockwise order; equals
    half the assembled edge jump of u'.  Entry e of
    ``linearized_deficits``.
    """
    if not 0 <= e < mesh.num_edges:
        raise ValueError(f"invalid edge id {e}")
    return float(linearized_deficits(mesh, u_prime)[e])


def linearized_deficits(mesh: PeriodicMesh,
                        u_prime: ReggeField) -> np.ndarray:
    """``linearized_deficit`` of every edge, shape (E,), in one stacked
    pass per valence class, two in all.  The one row of
    ``_linearized_rows``."""
    return _linearized_rows(mesh, u_prime.coeffs[None])[0]


def _linearized_rows(mesh: PeriodicMesh, coeffs: np.ndarray) -> np.ndarray:
    """``linearized_deficits`` of the fields whose coefficients are the
    rows of coeffs (r, E), shape (r, E), each row bit for bit, in slabs
    of rows as ``_holonomy_rows`` runs them."""
    out = np.empty(coeffs.shape)
    for part in _slabs(len(coeffs), mesh.num_tets):
        out[part] = _by_valence(mesh, _linearized,
                                _tet_matrices(mesh, coeffs[part]))
    return out


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
    return _schlafli_rows(mesh, [config], [direction], step)[0][0]


def _schlafli_rows(mesh: PeriodicMesh, configs, directions,
                   step: float) -> list:
    """(residual, sum_e theta_e * dl_e) of ``schlafli_check`` for each
    pair of a config and a direction (E,), each bit for bit, from one
    ``_dihedral_rows`` call on the squared lengths at +step, at -step and
    of the config of every pair, in that order: the actions R(+-step) are
    ``regge_action`` of the first two rows, and theta is the third's."""
    rows = []
    for config, direction in zip(configs, directions):
        l0 = config.lengths
        rows += [(l0 + eps * direction) ** 2 for eps in (step, -step)]
        rows.append(config.squared_lengths)
    S = np.array(rows)
    theta = _dihedral_rows(mesh, S)
    out = []
    for i, direction in enumerate(directions):
        plus, minus = (float(np.sum(theta[j] * np.sqrt(S[j])))
                       for j in (3 * i, 3 * i + 1))
        dR = (plus - minus) / (2.0 * step)
        rhs = float(np.sum(theta[3 * i + 2] * direction))
        out.append((abs(dR - rhs), rhs))
    return out


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
    target: float                # c' A c / 8 by the stiffness matvec
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


def _slab_actions(mesh: PeriodicMesh, s0, c, eps) -> tuple:
    """``regge_action(mesh, perturbed_lengths(mesh, u', e))`` bit for bit,
    for the rows (u', e) of one slab in one stacked dihedral pass, from the
    background s0, the coefficients c (E, r) of each row's u' and its eps
    values e (r,): the positions of the rows that ``EdgeLengthConfig`` and
    the realizability guard accept, and their actions.  A refused row
    forms no angle."""
    S = s0[:, None] + c * eps  # (E, r), one configuration each
    rows = np.flatnonzero(np.isfinite(S).all(axis=0) & (S > 0).all(axis=0))
    if len(rows) < len(eps):
        S = S[:, rows]
    s = np.take(S, mesh.tet_edges.T, axis=0)  # (6, T, r), C order
    adj, det = _gram_adjugate(s)
    good = _guard(s, adj, det)[2].all(axis=0)
    if not good.all():
        rows, S, s, adj, det = (rows[good], *(a[..., good]
                                              for a in (S, s, adj, det)))
    if not rows.size:
        return rows, np.empty(0)
    theta = _deficit_rows(mesh, s, adj, det)
    return rows, np.array([np.sum(t * l)
                           for t, l in zip(theta, np.sqrt(S).T)])


def second_variation_check(mesh: PeriodicMesh, u_prime: ReggeField,
                           epsilons, stiffness) -> SecondVariationReport:
    """Probe R(I + eps*u') over an eps schedule against eps^2/8 * c'Ac.

    The sorted schedule runs in stacked dihedral passes of at most
    ``_SLAB_TETS`` tets (one eps at least), and each action equals
    ``regge_action(mesh, perturbed_lengths(mesh, u_prime, eps))`` bit for
    bit.  Unrealizable eps values, whose lengths ``EdgeLengthConfig`` or
    the realizability guard refuses, are pruned with a warning and a debug
    log line.  The report carries the per-eps ratios R/eps^2, their
    Richardson extrapolation at eps = 0, the assembled quadratic
    coefficient, and the log-log slope of the remainder (cubic or better
    when the expansion holds).  Keep the schedule above ~1e-3: the action
    is O(eps^2), so smaller eps loses the remainder to floating-point
    cancellation and degrades the slope fit.  ``stiffness`` is
    ``assemble_stiffness(mesh)``, which the mesh builds once; its matvec
    gives the target.  The one direction of ``_second_variation_rows``.
    """
    return _second_variation_rows(mesh, u_prime.coeffs[None], epsilons,
                                  stiffness)[0]


def _second_variation_rows(mesh: PeriodicMesh, coeffs: np.ndarray,
                           epsilons, stiffness) -> list:
    """``second_variation_check`` of each direction whose coefficients are
    a row of coeffs (k, E), on one eps schedule, each report bit for bit:
    the k schedules run as one stack of rows, direction by direction, in
    slabs of at most ``_SLAB_TETS`` tets, and each direction prunes, warns
    and logs, or raises, as its own call does, in direction order."""
    eps_all = np.array(sorted(float(e) for e in epsilons))
    k, n = len(coeffs), len(eps_all)
    which, eps_rows = np.repeat(np.arange(k), n), np.tile(eps_all, k)
    s0, ok = _background(mesh), np.zeros(k * n, dtype=bool)
    actions = np.empty(k * n)
    for part in _slabs(k * n, mesh.num_tets):
        rows, vals = _slab_actions(mesh, s0, coeffs[which[part]].T,
                                   eps_rows[part])
        rows += part.start
        actions[rows], ok[rows] = vals, True
    return [_schedule_report(eps_all, c, act, good, stiffness)
            for c, act, good in zip(coeffs, actions.reshape(k, n),
                                    ok.reshape(k, n))]


def _schedule_report(eps_all, c, actions, ok, stiffness
                     ) -> SecondVariationReport:
    """The report of one direction c (E,) from the actions of its sorted
    schedule eps_all and which of them were realizable."""
    target = float(c @ (stiffness @ c)) / 8.0
    pruned = eps_all[~ok].tolist()
    if pruned:
        logger.debug("second_variation_check: pruned unrealizable "
                     "epsilons %s", pruned)
        warnings.warn(f"pruned unrealizable epsilons: {pruned}")
    if ok.sum() < 2:
        raise RealizabilityError("not enough realizable epsilon values")
    eps_arr, act = eps_all[ok], actions[ok]
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
    s0 = _background(mesh)
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
