"""Discrete spaces on the torus mesh: fields, measures, interpolators.

Four spaces form the discrete elasticity sequence

    vertex vector fields --def--> edge metric fields --curl^T curl-->
    edge measures --div--> vertex vector measures

* ``VertexVectorField``: continuous piecewise affine vector fields, one
  3-vector coefficient per vertex (hat function basis).
* ``ReggeField``: piecewise constant symmetric matrix fields with
  tangential-tangential continuity, one coefficient per edge in the basis
  dual to the edge degrees of freedom, the line integrals of the metric
  mu_e(u) = int_0^1 d_e^T u(x_e + s d_e) d_e ds.
* ``EdgeMeasure``: matrix line measures u_e t_e t_e^T delta_e.
* ``VertexVectorMeasure``: vector point measures u_x delta_x.

The interpolators integrate a field by one of two routes:

* ``ReggeField`` (``interpolate_2``): exactly, from its constant per-tet
  matrices U_T, read through ``regge_to_tet_matrices`` (which rejects a
  field whose length is not the edge count): |T| U_T : rho_e summed over
  the tets T.
* Every ``SmoothField``: through ``_moments``, the quadrature moments of
  the field on one shape family of the Kuhn complex, which is translation
  invariant: simplex (v, r) is the r-th member of the family moved to
  vertex v.  ``interpolate_1`` uses the seven edge directions,
  ``interpolate_2`` the six tet shapes of a box and ``interpolate_3`` the
  whole box with the hats folded into the weights.  A trig mode
  (``TrigMatrixField`` from ``matrix_mode``, ``TrigVectorField`` from
  ``vector_mode``: a constant amplitude times sin or cos of k.x + phase)
  is integrated in closed form by angle addition, at cost
  O(shapes * Q + V) with no array of size V * Q; any other field (a
  user callable) by point evaluation, a fixed block of ``_VERTEX_BLOCK``
  vertices at a time.
* The weighted (cos, sin) tables of the trig route depend only on the
  shape family, the quadrature order, the cell and the frequency k, not
  on the amplitude, the phase or sin/cos.  ``_trig_tables`` builds each
  once and keeps at most ``_TRIG_TABLES`` of them, read-only, so the 22
  trig interpolations of a ``verify`` run, all at k = (1, 0, 0) with 12
  points, share three tables.

``interpolate_0`` evaluates every ``SmoothField`` at points.
``interpolate_0``, ``interpolate_1`` and ``interpolate_3`` take only a
``SmoothField``, ``interpolate_2`` a ``SmoothField`` or ``ReggeField``;
anything else raises TypeError.

The deformation map is applied, never stored as a matrix: ``verify``
checks the complex on the blocks of the stiffness operator.

Symmetric 3x3 matrices are plain ndarrays kept exactly symmetric by
construction.  All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import _TET_OFFSETS, DIRECTIONS, PeriodicMesh
from .quadrature import segment_rule, tet_points_weights, tet_rule

__all__ = [
    "SmoothField",
    "VertexVectorField",
    "ReggeField",
    "EdgeMeasure",
    "VertexVectorMeasure",
    "matrix_mode",
    "vector_mode",
    "skew",
    "interpolate_0",
    "interpolate_1",
    "interpolate_2",
    "interpolate_3",
    "deformation",
    "divergence_x2",
    "regge_to_tet_matrices",
    "pair_x2_x1",
]


# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True)
class VertexVectorField:
    """Element of the vertex space: one 3-vector per vertex."""

    values: np.ndarray  # (V, 3)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, float))
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValueError("vertex field values must have shape (V, 3)")


@dataclass(frozen=True)
class ReggeField:
    """Element of the edge metric space: one coefficient per edge."""

    coeffs: np.ndarray  # (E,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.asarray(self.coeffs, float).ravel())


@dataclass(frozen=True)
class EdgeMeasure:
    """Matrix-valued edge measure: one coefficient per edge."""

    coeffs: np.ndarray  # (E,)

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           np.asarray(self.coeffs, float).ravel())


@dataclass(frozen=True)
class VertexVectorMeasure:
    """Vector-valued vertex measure: one 3-vector per vertex."""

    values: np.ndarray  # (V, 3)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, float))
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValueError("vertex measure values must have shape (V, 3)")


# ---------------------------------------------------------------------------
# analytic inputs


class SmoothField:
    """Analytic matrix- or vector-valued function of position.

    ``fn`` maps points (..., 3) to matrices (..., 3, 3), or to vectors
    (..., 3) for interpolate_0/3.  Periodicity is the caller's
    responsibility.  ``quad_points`` is the smoothness tag: the number of
    Gauss points per direction used when the field is integrated (edge
    rules are exact to degree 2*quad_points - 1, tet rules likewise).
    """

    def __init__(self, fn, quad_points=8):
        self.fn = fn
        self.quad_points = int(quad_points)

    def __call__(self, pts):
        return self.fn(np.asarray(pts, float))


def skew(v) -> np.ndarray:
    """Antisymmetric matrix with (skew v) w = v x w."""
    v = np.asarray(v, float)
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


class _TrigField(SmoothField):
    """amp * osc(k.x + phase) with a constant amplitude and osc sin or cos.

    The interpolators integrate these fields through scalar moments of
    osc (``_moments``), not by evaluating the field at every point.
    """

    def __init__(self, amp, k, trig, phase, quad_points):
        if trig not in ("sin", "cos"):
            raise ValueError("trig must be 'sin' or 'cos'")
        self.amp = amp
        self.k = np.asarray(k, float)
        self.trig = trig
        self.phase = float(phase)
        osc = np.sin if trig == "sin" else np.cos
        axes = (...,) + (None,) * amp.ndim
        super().__init__(
            lambda x: amp * osc(x @ self.k + self.phase)[axes], quad_points)


class TrigMatrixField(_TrigField):
    """u(x) = a * trig(k.x + phase) with symmetric a and lattice frequency k.

    Carries its image under the Saint-Venant operator and the divergence in
    closed form, which is what the commuting-diagram tests integrate.
    """

    def __init__(self, a, k, trig="sin", phase=0.0, quad_points=12):
        self.a = 0.5 * (np.asarray(a, float) + np.asarray(a, float).T)
        super().__init__(self.a, k, trig, phase, quad_points)

    def curl_t_curl(self) -> "TrigMatrixField":
        # symbol of the edge-jump operator; the overall sign matches the
        # jump orientation used in the assembly (n_ef into the + side)
        S = skew(self.k)
        return TrigMatrixField(-S @ self.a @ S, self.k, self.trig,
                               self.phase, self.quad_points)

    def divergence(self) -> "TrigVectorField":
        # sign matches the discrete divergence orientation (+ at edge
        # heads, - at tails; see divergence_x2)
        b = self.a @ self.k
        if self.trig == "sin":
            return TrigVectorField(-b, self.k, "cos", self.phase,
                                   self.quad_points)
        return TrigVectorField(b, self.k, "sin", self.phase,
                               self.quad_points)


class TrigVectorField(_TrigField):
    """v(x) = b * trig(k.x + phase); closed-form symmetrized gradient."""

    def __init__(self, b, k, trig="sin", phase=0.0, quad_points=12):
        self.b = np.asarray(b, float)
        super().__init__(self.b, k, trig, phase, quad_points)

    def deformation(self) -> TrigMatrixField:
        sym = 0.5 * (np.outer(self.b, self.k) + np.outer(self.k, self.b))
        if self.trig == "sin":
            return TrigMatrixField(sym, self.k, "cos", self.phase,
                                   self.quad_points)
        return TrigMatrixField(-sym, self.k, "sin", self.phase,
                               self.quad_points)


def _lattice_frequency(geometry, integer_freq):
    m = np.asarray(integer_freq)
    if not np.all(m == np.round(m)):
        raise ValueError("frequency must be integer multiples of the "
                         "fundamental torus frequencies")
    return 2.0 * np.pi * np.asarray(m, float) / geometry.lengths


def matrix_mode(geometry, a, integer_freq, trig="sin", phase=0.0,
                quad_points=12) -> TrigMatrixField:
    """Periodic symmetric-matrix mode a * trig(k.x), k = 2*pi*m/l."""
    return TrigMatrixField(a, _lattice_frequency(geometry, integer_freq),
                           trig, phase, quad_points)


def vector_mode(geometry, b, integer_freq, trig="sin", phase=0.0,
                quad_points=12) -> TrigVectorField:
    """Periodic vector mode b * trig(k.x), k = 2*pi*m/l."""
    return TrigVectorField(b, _lattice_frequency(geometry, integer_freq),
                           trig, phase, quad_points)


# ---------------------------------------------------------------------------
# degrees of freedom and interpolators


# vertices per block when a field is evaluated at the quadrature points
_VERTEX_BLOCK = 8
# trig-moment tables kept, one per shape family, quadrature order, cell
# and frequency; a verify run looks up 22 and builds 3
_TRIG_TABLES = 64


@lru_cache(maxsize=None)
def _box_rule(npts: int):
    """The tet rule on the six Kuhn tets of the unit box.

    Tet 6v + r of a mesh is tet r scaled by the box sides and moved to
    vertex v.  Returns the points (6, Q, 3), the weights (6, Q) and, for
    each box corner c (lattice offset DIRECTIONS[c - 1], or 0 for c = 0),
    the weights times the hat of c, zero on the tets without c: (6, Q, 8).
    """
    pts, w = tet_points_weights(_TET_OFFSETS.astype(float), npts)
    ref = tet_rule(npts)[0]
    # values of the four local hats at the points: the barycentric
    # coordinates of the reference rule, the same in every tet
    lam = np.concatenate([1.0 - ref.sum(axis=1, keepdims=True), ref],
                         axis=1)  # (Q, 4)
    corner = _TET_OFFSETS @ [4, 2, 1]  # (6, 4)
    hats = (w[:, :, None] * lam) @ (corner[:, :, None] == np.arange(8))
    out = np.ascontiguousarray(pts), w, hats
    for a in out:
        a.setflags(write=False)
    return out


def _family(family: str, npts: int, cell: np.ndarray):
    """Offsets (R, Q, 3) and weights (R, Q, ...) of the simplices of one
    shape family at the origin of a mesh with box sides ``cell``: the seven
    edge directions for "segment", the six tets of a box for "tet", and the
    whole box with the hats of its eight corners as weights for "hat"."""
    if family == "segment":
        s, w = segment_rule(npts)
        return s[:, None] * (DIRECTIONS * cell)[:, None], np.tile(w, (7, 1))
    pts, w, hats = _box_rule(npts)
    if family == "tet":
        return pts * cell, w * np.prod(cell)
    return (pts * cell).reshape(1, -1, 3), hats.reshape(1, -1, 8)


@lru_cache(maxsize=_TRIG_TABLES)
def _trig_tables(family: str, npts: int, cell: bytes, k: bytes):
    """The weighted tables sum_q W_rq (cos beta_rq, sin beta_rq), (2, R,
    ...), of ``_family`` with beta_rq = k.offsets[r, q], for the float64
    bytes of the cell and of the frequency k: bytes, so that -0.0 and 0.0
    never share a table.  Read-only, as every caller shares it."""
    offsets, weights = _family(family, npts, np.frombuffer(cell))
    R, Q = weights.shape[:2]
    w = weights.reshape(R, Q, -1)
    beta = offsets @ np.frombuffer(k)
    out = np.array([np.matmul(f(beta)[:, None], w)[:, 0]
                    for f in (np.cos, np.sin)]).reshape(
        (2, R) + weights.shape[2:])
    out.setflags(write=False)
    return out


def _moments(mesh, u: SmoothField, family: str) -> np.ndarray:
    """Quadrature moments of u on one shape family of the Kuhn complex.

    Simplex (v, r) of the family has the points x_v + offsets[r, q], x_v
    the position of vertex v, and the weights (R, Q, ...) of ``_family``
    at u's quadrature order; its moment is sum_q weights[r, q, ...]
    u(x_v + offsets[r, q]).  Returns (V, R, ...), the weight axes before
    the value axes.

    A trig mode amp * osc(k.x + phase) is integrated by angle addition:
    with alpha_v = k.x_v + phase and beta_rq = k.offsets[r, q],
    osc(alpha_v + beta_rq) = sin alpha_v c_rq + cos alpha_v s_rq, where
    (c, s) = (cos beta, sin beta) for sin and (-sin beta, cos beta) for
    cos.  So the moments are one product of the (V, 2) array
    (sin alpha_v, cos alpha_v) with the tables sum_q W_rq (c_rq, s_rq)
    multiplied out by amp, with no array of size V * Q.  The tables depend
    on the family, the order, the cell and k alone, and ``_trig_tables``
    builds each once.  Any other field is evaluated at the points of
    ``_VERTEX_BLOCK`` vertices at a time and reduced over q by one matmul,
    so memory stays O(_VERTEX_BLOCK * R * Q) and the arithmetic per vertex
    does not depend on the block size.
    """
    V = mesh.num_vertices
    if isinstance(u, _TrigField):
        C, S = _trig_tables(family, u.quad_points, mesh.cell.tobytes(),
                            u.k.tobytes())
        tables = np.multiply.outer(
            np.array([C, S] if u.trig == "sin" else [-S, C]), u.amp)
        alpha = mesh.vertex_pos @ u.k + u.phase
        m = np.array([np.sin(alpha), np.cos(alpha)]).T @ tables.reshape(2, -1)
        return m.reshape((V,) + C.shape + u.amp.shape)
    offsets, weights = _family(family, u.quad_points, mesh.cell)
    R, Q = weights.shape[:2]
    wq = weights.reshape(R, Q, -1).swapaxes(1, 2)  # (R, W, Q)
    parts = []
    for start in range(0, V, _VERTEX_BLOCK):
        x = mesh.vertex_pos[start:start + _VERTEX_BLOCK, None, None]
        vals = u(x + offsets)  # (b, R, Q, ...)
        m = np.matmul(wq, vals.reshape(vals.shape[:3] + (-1,)))
        parts.append(m.reshape(vals.shape[:2] + weights.shape[2:]
                               + vals.shape[3:]))
    return np.concatenate(parts)


def interpolate_0(mesh: PeriodicMesh, v: SmoothField) -> VertexVectorField:
    """Nodal interpolation: coefficient at vertex x is v(x)."""
    _require(v, "interpolate_0", SmoothField)
    return VertexVectorField(v(mesh.vertex_pos))


def _require(u, name: str, *types) -> None:
    if not isinstance(u, types):
        raise TypeError(f"{name} takes a "
                        f"{' or '.join(t.__name__ for t in types)}, not a "
                        f"{type(u).__name__}")


def interpolate_1(mesh: PeriodicMesh, u: SmoothField) -> ReggeField:
    """Projection onto the edge metric space: coefficients mu_e(u)."""
    _require(u, "interpolate_1", SmoothField)
    d = mesh.edge_vec  # edge 7v + i runs from vertex v along d[i]
    mats = _moments(mesh, u, "segment")
    return ReggeField(np.einsum("vrij,rij->vr", mats,
                                d[:, :, None] * d[:, None]).ravel())


def interpolate_2(mesh: PeriodicMesh,
                  u: SmoothField | ReggeField) -> EdgeMeasure:
    """L2-dual projection onto edge measures: c_e = l_e * int_S u : rho_e.

    A ReggeField is constant on each tet, so its integral is exact:
    |T| U_T : rho_e per tet T.
    """
    _require(u, "interpolate_2", SmoothField, ReggeField)
    if isinstance(u, ReggeField):
        mats = mesh.tet_volume * regge_to_tet_matrices(mesh, u)
    else:
        mats = _moments(mesh, u, "tet")
    # U_T : rho_a as (6, V, 9) @ (6, 9, 6), one product per template
    per_tet = mats.reshape(-1, 6, 9).swapaxes(0, 1) @ \
        mesh.tet_rho.reshape(6, 6, 9).mT
    out = np.bincount(mesh.tet_edges.ravel(), per_tet.swapaxes(0, 1).ravel(),
                      mesh.num_edges)
    return EdgeMeasure(out.reshape(-1, 7) * mesh.edge_length)


def interpolate_3(mesh: PeriodicMesh, u: SmoothField) -> VertexVectorMeasure:
    """L2-dual projection onto vertex measures: u_x = int_S u * lambda_x.

    The six tets of the box at vertex v are integrated together, once per
    box corner c with the hat of c as weight; that part belongs to the
    vertex at c, which is v for c = 0 and the head of edge 7v + c - 1
    otherwise.
    """
    _require(u, "interpolate_3", SmoothField)
    per_corner = _moments(mesh, u, "hat")
    V = mesh.num_vertices
    target = np.concatenate([np.arange(V)[:, None],
                             mesh.edge_head.reshape(V, 7)], axis=1).ravel()
    # scaled from the unit box to the mesh's box volume last, on (V, 3)
    return VertexVectorMeasure(np.prod(mesh.cell) * np.stack([
        np.bincount(target, col, V)
        for col in per_corner.reshape(-1, 3).T], axis=1))


# ---------------------------------------------------------------------------
# complex maps


def deformation(mesh: PeriodicMesh, v: VertexVectorField) -> ReggeField:
    """Discrete symmetrized gradient of a vertex field.

    c_e = (y - x)^T (v_head - v_tail) on the lifted edge, which equals
    mu_e(def v) for piecewise affine v.
    """
    if v.values.shape[0] != mesh.num_vertices:
        raise ValueError("vertex count mismatch")
    dv = v.values[mesh.edge_head] - v.values[mesh.edge_tail]
    d = np.tile(mesh.edge_vec, (mesh.num_vertices, 1))
    return ReggeField(np.einsum("ei,ei->e", d, dv))


def divergence_x2(mesh: PeriodicMesh, u: EdgeMeasure) -> VertexVectorMeasure:
    """Distributional divergence of an edge measure.

    div(t_e t_e^T delta_e) = t_e (delta_head - delta_tail); coefficients
    accumulate +- u_e t_e at the edge endpoints.
    """
    out = np.zeros((mesh.num_vertices, 3))
    flow = (u.coeffs.reshape(-1, 7, 1) * mesh.edge_tangent).reshape(-1, 3)
    np.add.at(out, mesh.edge_head, flow)
    np.add.at(out, mesh.edge_tail, -flow)
    return VertexVectorMeasure(out)


def regge_to_tet_matrices(mesh: PeriodicMesh, u: ReggeField) -> np.ndarray:
    """Per-tet constant matrices (T, 3, 3) of an edge metric field; tet t
    takes the basis matrices of template t % 6."""
    if u.coeffs.shape[0] != mesh.num_edges:
        raise ValueError("edge count mismatch")
    c = u.coeffs[mesh.tet_edges].reshape(-1, 6, 1, 6)
    return (c @ mesh.tet_rho.reshape(6, 6, 9)).reshape(-1, 3, 3)


# ---------------------------------------------------------------------------
# pairing


def pair_x2_x1(mesh: PeriodicMesh, em: EdgeMeasure, rf: ReggeField) -> float:
    """Duality pairing of an edge measure with an edge metric field.

    <t_e t_e^T delta_e, rho_e'> = delta_ee' / l_e, so the pairing is
    sum_e em_e c_e / l_e.
    """
    lengths = np.tile(mesh.edge_length, mesh.num_vertices)
    return float(np.sum(em.coeffs * rf.coeffs / lengths))
