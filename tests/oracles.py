"""Independent routes the tests check the library against.

Each restates an object of the paper by its definition, in the plainest
form: the Cayley-Menger determinant, dihedral angles measured in the
pulled-back metrics, the edge degree of freedom, the sparse deformation
matrix, the vertex pairing, the L2 norm of an edge metric field, constant
fields and the exact torus spectrum enumerated one frequency at a time.
The library runs none of them.  The last three are the dual-path,
second-variation and Schlafli suites of ``verify`` as they ran one random
draw at a time, each draw through the public one-configuration
functions.
"""

import numpy as np
import scipy.sparse as sp

from reggefem.action import deficit_angles, holonomy_deficits, \
    linearized_deficits, perturbed_lengths, random_realizable_config, \
    schlafli_check, second_variation_check
from reggefem.mesh import LOCAL_EDGES, _edge_tets
from reggefem.quadrature import segment_rule
from reggefem.saint_venant import apply_ctc, assemble_stiffness
from reggefem.spaces import ReggeField, SmoothField, _require, \
    regge_to_tet_matrices
from reggefem.verify import _N_RANDOM, CheckResult, _result

# Bordered Cayley-Menger matrix entries of each LOCAL_EDGES slot.
_CM_LO, _CM_HI = np.array(LOCAL_EDGES).T + 1

# Local vertices per local edge slot: the edge's two ends, then the other
# two vertices, which span the two faces at the edge.
_EDGE_VERTS = np.array([[i, j] + [x for x in range(4) if x not in (i, j)]
                        for i, j in LOCAL_EDGES])


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


def metric_dihedral_angles(mesh, metrics: np.ndarray) -> np.ndarray:
    """Dihedral angle of every tet at each of its six edges, in its metric.

    Returns (T, 6) angles in (0, pi), columns in LOCAL_EDGES order.  This
    is the metric route: it measures the angles of the tets, translates of
    the templates ``tet_coords``, in the pulled-back metrics (e.g. of
    ``tet_metrics_from_lengths``), the oracle of the length-only
    ``deficit_angles``.
    """
    p = np.tile(mesh.tet_coords, (mesh.num_vertices, 1, 1))
    out = np.empty((mesh.num_tets, 6))
    for a in range(6):
        out[:, a] = _dihedral_angles(p, metrics, a)
    return out


def constant_matrix_field(a, quad_points=2) -> SmoothField:
    a = 0.5 * (np.asarray(a, float) + np.asarray(a, float).T)
    return SmoothField(lambda x: np.broadcast_to(a, x.shape[:-1] + (3, 3)),
                       quad_points)


def constant_vector_field(b, quad_points=2) -> SmoothField:
    b = np.asarray(b, float)
    return SmoothField(lambda x: np.broadcast_to(b, x.shape[:-1] + (3,)),
                       quad_points)


def dof_mu_e(mesh, e: int, u) -> float:
    """Edge degree of freedom: the line integral of the metric along e.

    mu_e(u) = int_0^1 (y-x)^T u(x + s(y-x)) (y-x) ds with x, y the lifted
    endpoints.  For a ReggeField the value is exact (the field is constant
    on any incident tet and single-valued along the edge by
    tangential-tangential continuity); for a SmoothField it is computed by
    Gauss quadrature at the field's declared order.
    """
    if not 0 <= e < mesh.num_edges:
        raise ValueError(f"invalid edge id {e}")
    _require(u, "dof_mu_e", SmoothField, ReggeField)
    d = mesh.edge_vec[e % 7]
    if isinstance(u, ReggeField):
        t = _edge_tets(mesh, e).min()
        return float(d @ regge_to_tet_matrices(mesh, u)[t] @ d)
    s, w = segment_rule(u.quad_points)
    vals = u(mesh.vertex_pos[mesh.edge_tail[e]] + s[:, None] * d)
    return float(np.einsum("q,qij,i,j->", w, vals, d, d))


def deformation_matrix(mesh) -> sp.csr_matrix:
    """Sparse (E, 3V) matrix of the deformation map on stacked coefficients:
    row e holds +d_e at the head's three columns and -d_e at the tail's."""
    E, V = mesh.num_edges, mesh.num_vertices
    ends = np.stack([mesh.edge_head, mesh.edge_tail], axis=1)
    cols = 3 * ends[:, :, None] + np.arange(3)
    vals = np.tile(np.stack([mesh.edge_vec, -mesh.edge_vec], 1), (V, 1, 1))
    rows = np.repeat(np.arange(E), 6)
    return sp.csr_matrix((vals.ravel(), (rows, cols.ravel())),
                         shape=(E, 3 * V))


def pair_x3_x0(mesh, vm, vf) -> float:
    """Duality pairing of a vertex measure with a vertex field."""
    return float(np.sum(vm.values * vf.values))


def l2_norm_x1(mesh, u: ReggeField) -> float:
    """L2 norm via per-tet Frobenius norms of the constant matrices."""
    mats = regge_to_tet_matrices(mesh, u)
    return float(np.sqrt(np.sum(mesh.tet_volume
                                * np.einsum("tij,tij->t", mats, mats))))


def fourier_entries(geometry, cutoff: float) -> tuple:
    """The (eigenvalue, multiplicity) entries of ``fourier_oracle``, one
    frequency triple at a time in Python floats: -|k|^2 (4 each) and
    +|k|^2 (2 each) per pair {k, -k} with |k|^2 <= cutoff, values within
    1e-9 relative of the first of a run merged."""
    base = 2.0 * np.pi / geometry.lengths
    nmax = [int(np.floor(np.sqrt(cutoff) / b)) for b in base]
    acc: dict = {}
    for a in range(-nmax[0], nmax[0] + 1):
        for b in range(-nmax[1], nmax[1] + 1):
            for c in range(-nmax[2], nmax[2] + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                # one representative per {k, -k} pair
                if not ((a > 0) or (a == 0 and b > 0)
                        or (a == 0 and b == 0 and c > 0)):
                    continue
                k2 = (a * base[0]) ** 2 + (b * base[1]) ** 2 \
                    + (c * base[2]) ** 2
                if k2 > cutoff:
                    continue
                acc[-k2] = acc.get(-k2, 0) + 4
                acc[+k2] = acc.get(+k2, 0) + 2
    merged: list = []
    for lam in sorted(acc):
        if merged and abs(lam - merged[-1][0]) <= 1e-9 * max(1.0, abs(lam)):
            merged[-1][1] += acc[lam]
        else:
            merged.append([lam, acc[lam]])
    return tuple((float(l), int(m)) for l, m in merged)


def dual_path_per_draw(mesh, seed: int = 0) -> list:
    """``verify.check_dual_path_deficits``, one draw and one whole-mesh
    call at a time."""
    rng = np.random.default_rng(seed)
    out = []

    worst = 0.0
    for _ in range(_N_RANDOM):
        cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
        th_h = holonomy_deficits(mesh, cfg)
        worst = max(worst, np.abs(deficit_angles(mesh, cfg) - th_h).max())
    out.append(_result("holonomy_vs_dihedral", worst, 1e-9,
                       f"{_N_RANDOM} random configurations"))

    worst = 0.0
    for _ in range(_N_RANDOM):
        up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
        half_jump = 0.5 * apply_ctc(mesh, up).coeffs
        worst = max(worst, np.abs(linearized_deficits(mesh, up)
                                  - half_jump).max())
    out.append(_result("linearized_deficit_vs_half_jump", worst, 1e-12,
                       f"{_N_RANDOM} random fields, all edges"))

    up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
    h = 1e-2
    th = {eps: deficit_angles(mesh, perturbed_lengths(mesh, up, eps))
          for eps in (h, -h, h / 2, -h / 2)}
    d1 = (th[h] - th[-h]) / (2 * h)
    d2 = (th[h / 2] - th[-h / 2]) / h
    worst = np.abs((4 * d2 - d1) / 3 - linearized_deficits(mesh, up)).max()
    out.append(_result("deficit_fd_vs_linearized", worst, 1e-7,
                       "Richardson central differences"))
    return out


def second_variation_per_draw(mesh, seed: int = 0) -> list:
    """``verify.check_second_variation``, one direction's schedule at a
    time."""
    rng = np.random.default_rng(seed)
    A = assemble_stiffness(mesh)
    eps = np.geomspace(1e-2, 1e-1, 7)
    worst_err, worst_slope = 0.0, np.inf
    for _ in range(_N_RANDOM):
        up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
        rep = second_variation_check(mesh, up, eps, A)
        worst_err = max(worst_err, rep.rel_error)
        worst_slope = min(worst_slope, rep.remainder_slope)
    out = [_result("second_variation_coefficient", worst_err, 1e-2,
                   f"{_N_RANDOM} random directions")]
    out.append(CheckResult(
        "second_variation_remainder_slope", worst_slope >= 2.7,
        f"min log-log slope {worst_slope:.3f} (need >= 2.7)",
        float(worst_slope), 2.7))
    return out


def schlafli_per_draw(mesh, seed: int = 0) -> list:
    """``verify.check_schlafli``, one draw at a time, theta computed again
    for the tolerance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(_N_RANDOM):
        cfg = random_realizable_config(mesh, rng, scale=0.15)
        direction = rng.uniform(-1.0, 1.0, mesh.num_edges)
        res = schlafli_check(mesh, cfg, direction, step=1e-4)
        theta = deficit_angles(mesh, cfg)
        tol = 1e-6 * abs(float(np.sum(theta * direction))) + 1e-10
        worst = max(worst, res / tol)
    return [_result("schlafli_identity", worst, 1.0,
                    f"{_N_RANDOM} random non-flat configurations; "
                    "residual/tolerance ratio")]
