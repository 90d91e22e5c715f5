"""Named verification suites: the invariants the CLI gate runs.

Each suite returns CheckResult entries with a pass flag and a one-line
detail; ``run_verification`` bundles them for a mesh/seed.  Tolerances are
``_roundoff``'s for the five linear checks, else the acceptance ones, and
the random sample counts are fixed: 10 for the complex identities, 3 for
the dual-path, second-variation and Schlafli suites.

No suite expands an E x E or E x 3V matrix or builds a sparsity pattern.
The complex identities read the 27 blocks of the stiffness operator A:
D^T A, for the deformation matrix D, as the folded blocks of
``_divergence_of_jumps``, A c for a constant metric as the k = 0 block
sum, and A c for a deformation by the matvec ``A @ c``, which also gives
the second-variation target.  The blocks of A, and of the linearized
deficit's J, are kept per geometry and grid, not on the mesh, so every
run on one torus shares one build of each.

The interpolators have two routes (see the ``spaces`` module docstring):
a ``ReggeField`` is integrated exactly per tet, and every ``SmoothField``
through the shape-family moments of ``spaces._moments``, in closed form
for trig modes and by point evaluation otherwise.  The commuting squares
evaluate no field at quadrature points: they integrate trig modes
(``matrix_mode``, ``vector_mode``) with 12 Gauss points per direction,
and the adjoint square passes its random ``ReggeField`` to
``interpolate_2`` directly.  The matrix amplitudes are the
``sigma_modes`` of frequency (1, 0, 0) and one generic symmetric matrix.

The dual-path suite compares whole-mesh arrays of independent routes, each
called on the same squared lengths: the dihedral ``deficit_angles``,
computed from the lengths alone and relative to the flat background,
against ``holonomy_deficits``, which rotates frames through the metrics
that ``tet_metrics_from_lengths`` builds from them; and
``linearized_deficits``, the matvec of J from the edge star templates,
against half the edge jump ``apply_ctc``, the matvec of A from the face
terms.  Per edge, ``deficit_angles`` equals the star-local
``deficit_angle_dihedral`` exactly.  The holonomy runs each valence class
of edge stars in passes of at most 2048 sector tets, not per direction.

Nor do a run's passes multiply by a suite's random draws or its seven
eps values.  The dual-path, second-variation and Schlafli suites each
draw all their inputs first, in the order they were drawn one at a time,
and evaluate them as the rows of the action layer's rows forms (see the
``action`` module docstring): the dual-path suite in one dihedral and
one holonomy pass over its 3 configurations, four matvecs of J for its 4
fields and one dihedral pass over its 4 finite-difference rows; the
Schlafli suite in one dihedral pass over the 9 rows of its draws, whose
theta also gives its tolerance; the second-variation suite in one stack
of the 3 x 7 rows of its schedules.  A pass splits into slabs of at most
2048 tets, so on a 2^3 grid each is one pass, and from 6^3 on each row
runs alone.  Every result equals that of the one-draw loops bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._roundoff import FACE_TERMS, ROW_COUPLINGS, matvec_rtol, sum_rtol
from .action import _dihedral_rows, _holonomy_rows, _linearized_blocks, \
    _schlafli_rows, _second_variation_rows, euclidean_lengths, \
    linearized_deficits, random_realizable_config
from .mesh import DIRECTIONS, PeriodicMesh, build_torus_mesh
from .saint_venant import BlockCirculant, _fold, apply_ctc, \
    assemble_stiffness, constant_kernel_residual
from .spaces import ReggeField, VertexVectorField, deformation, \
    divergence_x2, interpolate_0, interpolate_1, interpolate_2, \
    interpolate_3, matrix_mode, pair_x2_x1, regge_to_tet_matrices, \
    vector_mode
from .spectrum import sigma_modes

__all__ = ["CheckResult", "run_verification",
           "check_complex_identities", "check_commuting_diagram",
           "check_dual_path_deficits", "check_second_variation",
           "check_schlafli"]


_N_COMPLEX = 10
_N_RANDOM = 3


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float = float("nan")
    tolerance: float = float("nan")

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "detail": self.detail, "value": self.value,
                "tolerance": self.tolerance}


def _result(name, value, tol, detail=""):
    msg = f"{detail + '; ' if detail else ''}max={value:.3e} tol={tol:.1e}"
    return CheckResult(name, bool(value <= tol), msg, float(value),
                       float(tol))


# the shifts of the blocks of D^T A on each axis: t with t or t + d in
# {-1, 0, 1} for a direction d of DIRECTIONS
_DIVERGENCE_SHIFTS = np.arange(-2, 2)


def _divergence_of_jumps(A: BlockCirculant, edge_vec: np.ndarray) -> tuple:
    """The blocks of D^T A, folded onto their residues mod grid as
    ``saint_venant._fold`` returns them: D is the E x 3V deformation
    matrix, whose row e holds +d_e at the three columns of its head and
    -d_e at those of its tail, and ``edge_vec`` the seven d.

    Entry (i, b) of block t couples column 3w + i to edge 7(w + t) + b.
    Edge 7v + d has its tail at v and its head at v + DIRECTIONS[d], so
    block t, t in {-2..1}^3, is sum_d d_d (x) (B_{t + DIRECTIONS[d]}[d] -
    B_t[d]), (3, 7), with B_s = 0 outside {-1, 0, 1}^3.  These are the
    products the sparse D^T A sums, on 27 blocks of A instead of E x E.
    """
    B = np.zeros((5, 5, 5, 7, 7))
    B[1:4, 1:4, 1:4] = A.blocks  # B_s at s + 2
    heads = np.stack([B[i:i + 4, j:j + 4, k:k + 4, d]
                      for d, (i, j, k) in enumerate(DIRECTIONS)], axis=3)
    blocks = np.einsum("di,tuvdb->tuvib", edge_vec, heads - B[:4, :4, :4])
    return _fold(blocks, _DIVERGENCE_SHIFTS, A.grid)


def check_complex_identities(mesh: PeriodicMesh, seed: int = 0) -> list:
    """def -> edge jump -> divergence composes to zero, A symmetric.

    On the 27 blocks of A throughout, with no E x E matrix formed.  The
    divergence of the jump of basis field e_j is column j of D^T A (D the
    deformation matrix): apply_ctc(e_j) is l * A[:, j] and divergence_x2
    is D^T diag(1/l).  ``_divergence_of_jumps`` gives every entry of D^T A
    from the blocks, the constant metrics go through the k = 0 block sum
    of ``constant_kernel_residual`` and the deformations through the
    matvec A @ c.
    """
    rng = np.random.default_rng(seed)
    A = assemble_stiffness(mesh)
    scale_A = np.abs(A.blocks).max()
    out = [_result("stiffness_symmetry", A.symmetry_residual(),
                   sum_rtol(FACE_TERMS))]

    worst = max(constant_kernel_residual(mesh.edge_vec, A, rng)
                for _ in range(_N_COMPLEX))
    out.append(_result("constant_metrics_in_kernel", worst,
                       sum_rtol(ROW_COUPLINGS),
                       f"{_N_COMPLEX} random constants"))

    worst = 0.0
    for _ in range(_N_COMPLEX):
        v = VertexVectorField(rng.uniform(-1, 1, (mesh.num_vertices, 3)))
        c = deformation(mesh, v).coeffs
        worst = max(worst, np.abs(A @ c).max()
                    / (scale_A * max(np.abs(c).max(), 1e-300)))
    out.append(_result("deformations_in_kernel", worst,
                       sum_rtol(ROW_COUPLINGS),
                       f"{_N_COMPLEX} random vertex fields"))

    # an entry of D^T A sums the seven products d (B_head - B_tail)
    worst = np.abs(_divergence_of_jumps(A, mesh.edge_vec)[1]).max()
    tol = sum_rtol(len(DIRECTIONS)) * scale_A * np.abs(mesh.edge_vec).max()
    out.append(_result("divergence_of_jumps_zero", worst, tol,
                       "all basis fields"))
    return out


def check_commuting_diagram(mesh: PeriodicMesh) -> list:
    """The four interpolation/operator squares on unit-frequency modes."""
    tol = 1e-9
    g = mesh.geometry
    gen = np.array([[1.0, 0.5, 0.2], [0.5, -0.3, 0.7], [0.2, 0.7, 0.4]])
    sigmas = [a for a, _ in sigma_modes((1, 0, 0))]
    out = []

    worst = 0.0
    for trig in ("sin", "cos"):
        for b in (np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, -1.0])):
            v = vector_mode(g, b, (1, 0, 0), trig)
            lhs = interpolate_1(mesh, v.deformation()).coeffs
            rhs = deformation(mesh, interpolate_0(mesh, v)).coeffs
            worst = max(worst, np.abs(lhs - rhs).max())
    out.append(_result("square_deformation", worst, tol))

    worst = 0.0
    for a in sigmas + [gen]:
        u = matrix_mode(g, a, (1, 0, 0), "sin")
        lhs = interpolate_2(mesh, u.curl_t_curl()).coeffs
        rhs = apply_ctc(mesh, interpolate_1(mesh, u)).coeffs
        worst = max(worst, np.abs(lhs - rhs).max())
    out.append(_result("square_saint_venant", worst, tol))

    worst = 0.0
    for a in [gen] + sigmas[:1]:
        for trig in ("sin", "cos"):
            u = matrix_mode(g, a, (1, 0, 0), trig)
            lhs = interpolate_3(mesh, u.divergence()).values
            rhs = divergence_x2(mesh, interpolate_2(mesh, u)).values
            worst = max(worst, np.abs(lhs - rhs).max())
    out.append(_result("square_divergence", worst, tol))

    # fourth square: the interpolators adjoint to each other
    rng = np.random.default_rng(2)
    rf = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
    i2_u = interpolate_2(mesh, rf)
    mats_u = regge_to_tet_matrices(mesh, rf)
    worst = 0.0
    for a in (gen, sigmas[0]):
        i1_w = interpolate_1(mesh, matrix_mode(g, a, (1, 0, 0), "sin"))
        lhs = pair_x2_x1(mesh, i2_u, i1_w)
        mats_w = regge_to_tet_matrices(mesh, i1_w)
        rhs = float(np.sum(mesh.tet_volume
                           * np.einsum("tij,tij->t", mats_u, mats_w)))
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("square_adjoint_pairing", worst, tol))
    return out


def check_dual_path_deficits(mesh: PeriodicMesh, seed: int = 0) -> list:
    """Holonomy vs dihedral deficits; linearized deficit vs half the jump.

    Every input is drawn first, in the order the checks read them; then
    the configurations take one dihedral and one holonomy pass, the four
    fields a matvec of J each, and the finite differences one dihedral
    pass."""
    rng = np.random.default_rng(seed)
    # stay on the principal branch of the holonomy rotation angle
    cfgs = np.stack([random_realizable_config(
        mesh, rng, max_deficit=2.5).squared_lengths
        for _ in range(_N_RANDOM)])
    # _N_RANDOM fields against the jump, then the finite differences' one
    fields = np.stack([rng.uniform(-1, 1, mesh.num_edges)
                       for _ in range(_N_RANDOM + 1)])
    out = []

    worst = 0.0
    for th_h, th_d in zip(_holonomy_rows(mesh, cfgs),
                          _dihedral_rows(mesh, cfgs)):
        worst = max(worst, np.abs(th_d - th_h).max())
    out.append(_result("holonomy_vs_dihedral", worst, 1e-9,
                       f"{_N_RANDOM} random configurations"))

    out.append(_half_jump(mesh, fields[:_N_RANDOM]))

    # finite differences of the nonlinear deficit against the linearization
    h = 1e-2
    steps = (h, -h, h / 2, -h / 2)
    # the squared lengths of perturbed_lengths(mesh, ReggeField(c), eps),
    # which _dihedral_rows checks row by row as each config and call would
    s0, c = euclidean_lengths(mesh).squared_lengths, fields[-1]
    th = dict(zip(steps, _dihedral_rows(mesh, np.stack([
        s0 + eps * c for eps in steps]))))
    d1 = (th[h] - th[-h]) / (2 * h)
    d2 = (th[h / 2] - th[-h / 2]) / h
    lin = linearized_deficits(mesh, ReggeField(c))
    worst = np.abs((4 * d2 - d1) / 3 - lin).max()
    out.append(_result("deficit_fd_vs_linearized", worst, 1e-7,
                       "Richardson central differences"))
    return out


def _half_jump(mesh: PeriodicMesh, fields: np.ndarray) -> CheckResult:
    """The linearized deficits J c of each field c, (n, E), against half
    its edge jump, to the roundoff of a row against another route."""
    worst = 0.0
    for c in fields:
        half_jump = 0.5 * apply_ctc(mesh, ReggeField(c)).coeffs
        worst = max(worst, np.abs(linearized_deficits(mesh, ReggeField(c))
                                  - half_jump).max())
    J = _linearized_blocks(mesh.geometry, mesh.grid)
    return _result("linearized_deficit_vs_half_jump", worst,
                   matvec_rtol() * np.abs(J).max() * np.abs(fields).max(),
                   f"{len(fields)} random fields, all edges")


def check_second_variation(mesh: PeriodicMesh, seed: int = 0) -> list:
    """R(eps)/eps^2 -> c'Ac/8 with cubic remainder."""
    rng = np.random.default_rng(seed)
    A = assemble_stiffness(mesh)
    eps = np.geomspace(1e-2, 1e-1, 7)
    # the schedules of all directions run as one stack of rows
    directions = np.stack([rng.uniform(-1, 1, mesh.num_edges)
                           for _ in range(_N_RANDOM)])
    worst_err, worst_slope = 0.0, np.inf
    for rep in _second_variation_rows(mesh, directions, eps, A):
        worst_err = max(worst_err, rep.rel_error)
        worst_slope = min(worst_slope, rep.remainder_slope)
    out = [_result("second_variation_coefficient", worst_err, 1e-2,
                   f"{_N_RANDOM} random directions")]
    slope_ok = worst_slope >= 2.7
    out.append(CheckResult(
        "second_variation_remainder_slope", slope_ok,
        f"min log-log slope {worst_slope:.3f} (need >= 2.7)",
        float(worst_slope), 2.7))
    return out


def check_schlafli(mesh: PeriodicMesh, seed: int = 0) -> list:
    """Length-derivative identity of the action at non-flat configs."""
    rng = np.random.default_rng(seed)
    cfgs, directions = [], []
    for _ in range(_N_RANDOM):
        cfgs.append(random_realizable_config(mesh, rng, scale=0.15))
        directions.append(rng.uniform(-1.0, 1.0, mesh.num_edges))
    # one dihedral pass gives both actions and theta of every draw, and
    # the tolerance reads the sum(theta * direction) it gives
    worst = 0.0
    for res, rhs in _schlafli_rows(mesh, cfgs, directions, 1e-4):
        tol = 1e-6 * abs(rhs) + 1e-10
        worst = max(worst, res / tol)
    return [_result("schlafli_identity", worst, 1.0,
                    f"{_N_RANDOM} random non-flat configurations; "
                    "residual/tolerance ratio")]


def run_verification(geometry, grid, seed: int = 0) -> list:
    """All suites on one mesh; returns the flat list of CheckResults."""
    mesh = build_torus_mesh(geometry, grid)
    results = []
    results += check_complex_identities(mesh, seed)
    results += check_commuting_diagram(mesh)
    results += check_dual_path_deficits(mesh, seed)
    results += check_second_variation(mesh, seed)
    results += check_schlafli(mesh, seed)
    return results
