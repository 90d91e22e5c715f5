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
matvec.  The linearized deficit equals half the assembled edge jump; it
is linear and translation invariant, a ``BlockCirculant`` J of 27 blocks
as A is, and ``linearized_deficits`` is J c, on blocks that
``_linearized_blocks`` builds from the star templates once per torus.

Every nonlinear whole-mesh route has a form with a leading rows axis,
one configuration a row, through which ``verify`` runs a suite's random
draws as the rows of one pass: ``_dihedral_rows`` and ``_holonomy_rows``
of ``deficit_angles`` and ``holonomy_deficits``, ``_schlafli_rows`` of
``schlafli_check`` and ``_second_variation_rows`` of
``second_variation_check``.  A pass holds as many rows as fit
``_SLAB_TETS`` tets, one at least, and each row equals its own call bit
for bit.  A stacked pass only decides which rows ``EdgeLengthConfig``'s
rule and the realizability guard accept (``_admitted``); errors are
raised by the one-configuration calls alone.  A slab with a refused row
runs its rows again one at a time through their own calls, so the first
refused row raises what its own call raises;
``second_variation_check`` prunes such an eps row instead, with a
warning per direction.

The holonomy is one private kernel over stacked stars, run by
``_by_valence`` on each valence class, the directions 0, 1, 3, 6
(valence 6) and 2, 4, 5 (valence 4), as one sequence of (row,
direction, vertex) stars cut into passes of ``_SLAB_TETS`` sector tets,
and by ``deficit_angle_holonomy`` on the one star of
``build_edge_sector``.  A star runs in the order of its template
``mesh._STARS[d]``, with the constant frames of ``mesh._star_frames[d]``
of the torus; only its sector tets are read per edge, and a face id is
formed only to name a torn face in an error.  ``verify`` checks the
route against ``deficit_angles``, so the two share no code but the
realizability guard.  The metrics of ``holonomy_deficits`` come from the
lengths and agree tangentially across every face by construction, so
only ``build_edge_sector``, which takes metrics from its caller, tests
each star face for a tangential jump and each sector metric for a
Cholesky factor.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import _BOX_EDGE_DIRS, _OPERATORS, _STARS, _TET_SLOTS, \
    PeriodicMesh, TorusGeometry, _box_templates, _edge_tets, _star_faces, \
    _stencil_tables
from .saint_venant import BlockCirculant
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
# stars of a class (s sector tets each), one at least.  In
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


def _length_rule(S: np.ndarray) -> np.ndarray:
    """Whether each row of squared lengths S (..., E) is finite and
    positive: the rule of ``EdgeLengthConfig``."""
    return np.isfinite(S).all(axis=-1) & (S > 0).all(axis=-1)


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
        if not _length_rule(s):
            raise RealizabilityError("squared lengths must be " + (
                "positive" if np.isfinite(s).all() else "finite"))

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
    if len(u_prime.coeffs) != mesh.num_edges:
        raise ValueError("edge count mismatch")
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


def _gram(mesh: PeriodicMesh, S: np.ndarray, tets=None):
    """The realizability guard of every route from squared lengths.

    S holds the squared lengths (E,) of one configuration, or (r, E) of r
    stacked on a leading rows axis, each accepted by ``_length_rule``.
    Returns ``s, adj, det, flat, realizable``: the squared lengths s (6,
    T) or (6, T, r) of the given tets (all by default), ``_gram_adjugate``
    of them, and the verdicts (T,) or (T, r) of the guard on each tet:
    Cayley-Menger determinant 8 det G above the relative guard, and that
    and G positive definite.  Raises ValueError on an edge count mismatch.
    """
    if S.shape[-1] != mesh.num_edges:
        raise ValueError("edge count mismatch")
    edges = mesh.tet_edges if tets is None else mesh.tet_edges[tets]
    # np.take lays s out slot by slot (C order); indexing with edges.T
    # would lay it out tet by tet, which the kernels downstream read about
    # a third slower at 6^3 and 16^3
    s = np.take(S.T, edges.T, axis=0)
    adj, det = _gram_adjugate(s)
    cm = 8.0 * det
    flat = cm > CM_DET_RTOL * s.max(axis=0) ** 3
    # Sylvester: with g00 = s_01 > 0 and det G > 0, G is positive definite
    # exactly when its leading 2x2 minor g00 g11 - g01^2 = adj[2] is
    return s, adj, det, flat, flat & (adj[2] > 0)


def _checked_gram(mesh: PeriodicMesh, config: EdgeLengthConfig,
                  tets=None) -> tuple:
    """``s, adj, det`` of ``_gram`` for one configuration.  Raises
    RealizabilityError tagged with its first degenerate tet, or else its
    first tet whose metric is not positive definite; the offender is
    searched for only when the one boolean test of both verdicts fails."""
    s, adj, det, flat, realizable = _gram(mesh, config.squared_lengths,
                                          tets)
    if realizable.all():
        return s, adj, det
    degenerate = np.flatnonzero(~flat)
    t = (degenerate if degenerate.size else np.flatnonzero(~realizable))[0]
    tet = int(t if tets is None else tets[t])
    if degenerate.size:
        raise RealizabilityError(
            f"tet {tet}: degenerate edge lengths "
            f"(Cayley-Menger determinant {8.0 * det[t]:.3e})")
    raise RealizabilityError(f"tet {tet}: metric not positive definite")


def _admitted(mesh: PeriodicMesh, S: np.ndarray) -> list:
    """The rows of squared lengths S (r, E), which no ``EdgeLengthConfig``
    has checked, that its rule and the realizability guard accept:
    ``rows, s, adj, det``, their positions and ``_gram`` of them.  A row
    that the rule refuses forms no Gram matrix."""
    rows = np.flatnonzero(_length_rule(S))
    *gram, _, realizable = _gram(mesh, S[rows])
    ok = realizable.all(axis=0)
    return [rows[ok], *(a[..., ok] for a in gram)]


def tet_metrics_from_lengths(mesh: PeriodicMesh,
                             config: EdgeLengthConfig) -> np.ndarray:
    """Constant metric per tet (T, 3, 3): the Regge field whose
    coefficients are the squared edge lengths (the edge DOFs are unisolvent
    on constants).  Raises the RealizabilityError of ``_checked_gram``.
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
    ``_SLAB_TETS`` tets.  A slab with a row that ``_admitted`` refuses
    runs its rows again one at a time, each through
    ``deficit_angles(mesh, EdgeLengthConfig(row))``, so the first refused
    row raises what its own config and call raise."""
    out = []
    for part in _slabs(len(S), mesh.num_tets):
        rows, *gram = _admitted(mesh, S[part])
        out += (_deficit_rows(mesh, *gram) if len(rows) == len(S[part]) else
                [deficit_angles(mesh, EdgeLengthConfig(r)) for r in S[part]])
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
    """Assemble the sector data of edge e from per-tet constant metrics
    (T, 3, 3); RealizabilityError when they jump tangentially across a
    star face or one is not positive definite."""
    if np.shape(tet_metrics) != (mesh.num_tets, 3, 3):
        raise ValueError(f"tet_metrics: need shape ({mesh.num_tets}, 3, 3),"
                         f" got {np.shape(tet_metrics)}")
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


def _by_valence(mesh: PeriodicMesh, *per_tet) -> np.ndarray:
    """``_holonomy`` of every edge of r rows, shape (r, E), from per-tet
    arrays (r, T, ...) ``per_tet`` gathered on the sector tets of the
    stars.  The (row, direction, vertex) stars of each valence class of
    ``mesh._star_classes``, in that order, run in passes of as many as
    fit ``_SLAB_TETS`` sector tets, each gathering its stars' frames and
    sector tets.  A star's value depends on its own data alone, so each
    equals that of one row and one direction at a time, bit for bit."""
    r = len(per_tet[0])
    out = np.empty((r, 7, mesh.num_vertices))
    for cls in mesh._star_classes:
        tets = np.concatenate([mesh._star_tets[d] for d in cls.dirs])
        flat = np.empty(r * len(tets))
        for part in _slabs(len(flat), cls.ms.shape[-2]):
            row, star = np.divmod(np.arange(len(flat))[part], len(tets))
            flat[part] = _holonomy(
                type(cls)(*(a[star // mesh.num_vertices] for a in cls)),
                *(a[row[:, None], tets[star]] for a in per_tet))
        out[:, cls.dirs] = flat.reshape(r, -1, mesh.num_vertices)
    return out.transpose(0, 2, 1).reshape(r, -1)


def holonomy_deficits(mesh: PeriodicMesh,
                      config: EdgeLengthConfig) -> np.ndarray:
    """Holonomy deficit angle of every edge, shape (E,): entry e is
    ``deficit_angle_holonomy(build_edge_sector(mesh, e, metrics))`` for
    the metrics of ``tet_metrics_from_lengths``, bit for bit.  The
    lengths pass the guard of ``deficit_angles``; one batched Cholesky
    test of their float metrics (the guard judges the Gram matrices
    polarized from the lengths, not these) precedes one inverse of all,
    from which each star gathers its own."""
    _checked_gram(mesh, config)
    metrics = _tet_matrices(mesh, config.squared_lengths[None])
    bent = _first_not_positive_definite(metrics[0])
    if bent >= 0:
        raise RealizabilityError(f"tet {bent}: metric not positive definite")
    return _by_valence(mesh, metrics, np.linalg.inv(metrics))[0]


def _holonomy_rows(mesh: PeriodicMesh, S: np.ndarray) -> np.ndarray:
    """``holonomy_deficits`` of the configurations in the rows of S (r,
    E), shape (r, E), each bit for bit, in slabs of as many rows as fit
    ``_SLAB_TETS`` tets.  A slab whose rows ``_admitted`` accepts and
    whose metrics all have a Cholesky factor is one pass; any other runs
    its rows again one at a time, each through ``holonomy_deficits(mesh,
    EdgeLengthConfig(row))``, so the first refused row raises what its
    own config and call raise."""
    out = np.empty(S.shape)
    for part in _slabs(len(S), mesh.num_tets):
        if len(_admitted(mesh, S[part])[0]) == len(S[part]):
            metrics = _tet_matrices(mesh, S[part])
            if _first_not_positive_definite(metrics) < 0:
                out[part] = _by_valence(mesh, metrics,
                                        np.linalg.inv(metrics))
                continue
        out[part] = [holonomy_deficits(mesh, EdgeLengthConfig(row))
                     for row in S[part]]
    return out


def _linearized(star, mats) -> np.ndarray:
    """Linearized deficits (...) of stacked stars from the face frames ms
    and ns (s, 3) of ``star`` and the matrices (..., s, 3, 3) of u' on
    their sector tets."""
    jump = mats - mats[..., star.prev, :, :]  # sector i - 1 before face i
    vals = star.ms[..., None, :] @ jump @ star.ns[..., None]
    return 0.5 * vals.sum(axis=(-3, -2, -1))


@lru_cache(maxsize=_OPERATORS)
def _linearized_blocks(geometry: TorusGeometry, grid: tuple) -> np.ndarray:
    """The read-only blocks of J, theta' = J c, on the (checked) ``grid``
    of ``geometry``, built without a mesh on first use: row d is
    ``_linearized`` of the star template ``mesh._STARS[d]`` on the field
    rho_a on sector j alone, for every local edge a of each sector tet j,
    summed onto the edges by the tet table of ``mesh._stencil_tables``.
    Nothing is shared with the face terms of A, which ``verify`` checks J
    against."""
    t = _box_templates(geometry, grid)
    vals = []
    for (*_, types), frame in zip(_STARS, t["_star_frames"]):
        s = len(types)
        mats = np.zeros((s, 6, s, 3, 3))
        mats[np.arange(s), :, np.arange(s)] = t["tet_rho"][types]
        vals.append(_linearized(frame, mats.reshape(6 * s, s, 3, 3)))
    J = np.bincount(_stencil_tables()[1][1], np.concatenate(vals), 27 * 49)
    J.setflags(write=False)
    return J.reshape(3, 3, 3, 7, 7)


def linearized_deficit(mesh: PeriodicMesh, e: int,
                       u_prime: ReggeField) -> float:
    """Derivative of the deficit angle at the flat background, theta'_e =
    1/2 * sum over the star faces of m_f^T (u'_after - u'_before) n_f, the
    sectors taken counter-clockwise; half the assembled edge jump of u'.
    Entry e of ``linearized_deficits``."""
    if not 0 <= e < mesh.num_edges:
        raise ValueError(f"invalid edge id {e}")
    return float(linearized_deficits(mesh, u_prime)[e])


def linearized_deficits(mesh: PeriodicMesh,
                        u_prime: ReggeField) -> np.ndarray:
    """``linearized_deficit`` of every edge, shape (E,): J c for the
    coefficients c of u' and the blocks of ``_linearized_blocks``."""
    J = _linearized_blocks(mesh.geometry, mesh.grid)
    return BlockCirculant(J, mesh.grid) @ u_prime.coeffs


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
    if len(config.squared_lengths) != mesh.num_edges:
        raise ValueError("edge count mismatch")
    direction = np.asarray(direction, float)
    if direction.shape != (mesh.num_edges,):
        raise ValueError("direction must have one entry per edge")
    if not np.isfinite(direction).all():
        raise ValueError("direction: need finite entries")
    if not (np.isfinite(step) and step != 0):
        raise ValueError(f"step: need a finite nonzero step, got {step}")
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
    when the expansion holds).  A schedule that gives neither, not two or
    more distinct finite positive values, is a ValueError before any
    pass.  Keep the schedule above ~1e-3: the action is O(eps^2), so
    smaller eps loses the remainder to floating-point cancellation and
    degrades the slope fit.  The matvec of ``stiffness``,
    ``assemble_stiffness(mesh)``, gives the target.  The one direction of
    ``_second_variation_rows``.
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
    if coeffs.shape[-1] != mesh.num_edges:
        raise ValueError("edge count mismatch")
    if not np.isfinite(coeffs).all():
        raise ValueError("u_prime: need finite coefficients")
    eps_all = np.array([float(e) for e in epsilons])
    distinct = len(np.unique(eps_all)) == len(eps_all) > 1
    if not (distinct and np.isfinite(eps_all).all() and eps_all.min() > 0):
        raise ValueError("epsilons: need two or more distinct finite "
                         f"positive values, got {eps_all.tolist()}")
    eps_all.sort()
    k, n = len(coeffs), len(eps_all)
    which, eps_rows = np.repeat(np.arange(k), n), np.tile(eps_all, k)
    s0, ok = _background(mesh), np.zeros(k * n, dtype=bool)
    actions = np.empty(k * n)
    for part in _slabs(k * n, mesh.num_tets):
        # each row the squared lengths of perturbed_lengths, unchecked
        S = s0 + coeffs[which[part]] * eps_rows[part, None]
        rows, *gram = _admitted(mesh, S)
        if rows.size:  # the actions of regge_action, bit for bit
            actions[rows + part.start] = [
                np.sum(t * l) for t, l in zip(_deficit_rows(mesh, *gram),
                                              np.sqrt(S[rows]))]
            ok[rows + part.start] = True
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
    branch for holonomy comparisons).  A non-finite ``scale`` or a
    ``max_deficit`` that is not positive is a ValueError.
    """
    if not np.isfinite(scale):
        raise ValueError(f"scale: need a finite amplitude, got {scale}")
    if max_deficit is not None and not max_deficit > 0:
        raise ValueError(f"max_deficit: need a bound > 0, got {max_deficit}")
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
