"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import time

import numpy as np

from conftest import constant_metric
from reggefem import (ReggeField, VertexVectorField, apply_ctc,
                      convergence_study, deformation, divergence_x2,
                      holonomy_deficits, interpolate_0, interpolate_1,
                      interpolate_2, interpolate_3, linearized_deficits,
                      matrix_mode, perturbed_lengths, schlafli_check,
                      second_variation_check, solve_pencil, vector_mode)
from reggefem.action import deficit_angles, random_realizable_config, \
    tet_metrics_from_lengths
from reggefem.spaces import regge_to_tet_matrices


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} [{status}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_criterion_1_complex_exactness(self, mesh3, pencil3):
        t0 = time.time()
        A, _ = pencil3
        Ad = A.matrix.toarray()
        scale_A = np.abs(Ad).max()
        rng = np.random.default_rng(0)
        worst_def = 0.0
        for _ in range(20):
            v = VertexVectorField(rng.uniform(-1, 1,
                                              (mesh3.num_vertices, 3)))
            c = deformation(mesh3, v).coeffs
            worst_def = max(worst_def, np.abs(Ad @ c).max()
                            / (scale_A * np.abs(c).max()))
        worst_div = 0.0
        for e in range(mesh3.num_edges):
            basis = np.zeros(mesh3.num_edges)
            basis[e] = 1.0
            dv = divergence_x2(mesh3, apply_ctc(mesh3, ReggeField(basis)))
            worst_div = max(worst_div, np.abs(dv.values).max())
        dt = time.time() - t0
        ok = worst_def <= 1e-10 and worst_div <= 1e-12 and dt < 10.0
        report(1, ok, "complex exactness on (3,3,3): "
               f"|A c(def v)| <= {worst_def:.2e} (tol 1e-10, 20 seeds), "
               f"|div jump(rho_e)| <= {worst_div:.2e} (tol 1e-12, "
               f"all {mesh3.num_edges} edges), {dt:.1f}s")

    def test_criterion_2_commuting_diagram(self, geometry, mesh2, mesh4):
        t0 = time.time()
        e2, e3 = np.eye(3)[1], np.eye(3)[2]
        sigmas = [np.outer(e2, e2) + np.outer(e3, e3),
                  np.outer(e2, e3) + np.outer(e3, e2),
                  np.outer(e2, e2) - np.outer(e3, e3)]
        gen = np.array([[1.0, 0.5, 0.2], [0.5, -0.3, 0.7], [0.2, 0.7, 0.4]])
        worst = 0.0
        for mesh in (mesh2, mesh4):
            for b in (np.array([0.0, 1.0, 0.0]), np.array([1.0, 1.0, 1.0])):
                v = vector_mode(geometry, b, (1, 0, 0), "sin")
                lhs = interpolate_1(mesh, v.deformation()).coeffs
                rhs = deformation(mesh, interpolate_0(mesh, v)).coeffs
                worst = max(worst, np.abs(lhs - rhs).max())
            for a in sigmas + [gen]:
                u = matrix_mode(geometry, a, (1, 0, 0), "sin")
                lhs = interpolate_2(mesh, u.curl_t_curl()).coeffs
                rhs = apply_ctc(mesh, interpolate_1(mesh, u)).coeffs
                worst = max(worst, np.abs(lhs - rhs).max())
                lhs3 = interpolate_3(mesh, u.divergence()).values
                rhs3 = divergence_x2(mesh, interpolate_2(mesh, u)).values
                worst = max(worst, np.abs(lhs3 - rhs3).max())
            # fourth square: adjoint interpolators on a piecewise field
            from reggefem.spaces import pair_x2_x1
            rng = np.random.default_rng(1)
            rf = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
            w = matrix_mode(geometry, sigmas[0], (1, 0, 0), "sin")
            lhs = pair_x2_x1(mesh, interpolate_2(mesh, rf),
                             interpolate_1(mesh, w))
            mats_u = regge_to_tet_matrices(mesh, rf)
            mats_w = regge_to_tet_matrices(mesh, interpolate_1(mesh, w))
            rhs = float(np.sum(mesh.tet_volume
                               * np.einsum("tij,tij->t", mats_u, mats_w)))
            worst = max(worst, abs(lhs - rhs))
        dt = time.time() - t0
        ok = worst <= 1e-9 and dt < 30.0
        report(2, ok, "commuting diagram on (2,2,2) and (4,4,4), "
               f"frequency-1 modes: max discrepancy {worst:.2e} "
               f"(tol 1e-9), {dt:.1f}s")

    def test_criterion_3_kernel_structure(self, mesh2, mesh3, pencil2,
                                          pencil3):
        details = []
        ok = True
        rng = np.random.default_rng(0)
        for mesh, (A, M) in ((mesh2, pencil2), (mesh3, pencil3)):
            res = solve_pencil(A, M)
            v = mesh.num_vertices
            # >= 3V-3 required; the measured value 3V+3 (deformations plus
            # constant metrics) is frozen as the regression
            ok &= res.kernel_dim >= 3 * v - 3
            ok &= res.kernel_dim == 3 * v + 3
            details.append(f"grid {mesh.grid}: dim ker = {res.kernel_dim} "
                           f"(3V-3 = {3 * v - 3}, frozen 3V+3 = {3 * v + 3})")
            Ad = A.matrix.toarray()
            worst = 0.0
            for _ in range(10):
                g = rng.uniform(-1, 1, (3, 3))
                g = 0.5 * (g + g.T)
                c = constant_metric(mesh, g)
                worst = max(worst, np.abs(Ad @ c).max()
                            / (np.abs(Ad).max() * np.abs(c).max()))
            ok &= worst <= 1e-12
            details.append(f"|A c(g)| rel {worst:.2e}")
        report(3, ok, "kernel structure: " + "; ".join(details))

    def test_criterion_4_spectrum_vs_oracle(self, geometry):
        t0 = time.time()
        study = convergence_study(geometry, [2, 3, 4], n_eigs=2)
        errs = {t: [] for t in (1.0, -1.0)}
        counts_ok = True
        for row in study["rows"]:
            errs[row["target"]].append(row["rel_error"])
            counts_ok &= row["multiplicity"] == (6 if row["target"] > 0
                                                 else 12)
        decay_ok = all(study["monotone"].values())
        final_pos, final_neg = errs[1.0][-1], errs[-1.0][-1]
        bound_ok = final_pos < 0.3 and final_neg < 0.3
        dt = time.time() - t0
        bound_ok &= dt < 300.0
        detail = ("spectrum vs oracle, grids (2,3,4): multiplicities "
                  f"(6 near +1, 12 near -1) {'ok' if counts_ok else 'BAD'}; "
                  f"errors +1: {[f'{e:.3f}' for e in errs[1.0]]}, "
                  f"-1: {[f'{e:.3f}' for e in errs[-1.0]]}; strict decay "
                  f"{'ok' if decay_ok else 'BAD'}; grid-4 error < 0.3: "
                  f"{'ok' if bound_ok else 'NOT MET'}; {dt:.0f}s")
        report(4, counts_ok and decay_ok and bound_ok, detail)

    def test_criterion_5_second_variation(self, mesh2, pencil2):
        t0 = time.time()
        A, _ = pencil2
        rng = np.random.default_rng(0)
        eps = np.geomspace(1e-2, 1e-1, 7)
        worst_err, worst_slope = 0.0, np.inf
        for _ in range(5):
            up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
            rep = second_variation_check(mesh2, up, eps, A)
            worst_err = max(worst_err, rep.rel_error)
            worst_slope = min(worst_slope, rep.remainder_slope)
        dt = time.time() - t0
        ok = worst_err <= 1e-2 and worst_slope >= 2.7 and dt < 60.0
        report(5, ok, "second variation on (2,2,2), 5 seeds: "
               f"max rel err {worst_err:.2e} (tol 1e-2), min remainder "
               f"slope {worst_slope:.2f} (need >= 2.7), {dt:.1f}s")

    def test_criterion_6_linearized_deficit_bridge(self, mesh2):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst_half, worst_fd = 0.0, 0.0
        h = 1e-2
        for _ in range(5):
            up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
            lin = linearized_deficits(mesh2, up)
            worst_half = max(worst_half, np.abs(
                lin - 0.5 * apply_ctc(mesh2, up).coeffs).max())

            def theta(eps, path):
                # every edge's deficit, one route
                cfg = perturbed_lengths(mesh2, up, eps)
                if path == "dihedral":
                    return deficit_angles(mesh2, cfg)
                return holonomy_deficits(
                    mesh2, tet_metrics_from_lengths(mesh2, cfg))

            for path in ("dihedral", "holonomy"):
                d1 = (theta(h, path) - theta(-h, path)) / (2 * h)
                d2 = (theta(h / 2, path) - theta(-h / 2, path)) / h
                worst_fd = max(worst_fd,
                               np.abs((4 * d2 - d1) / 3 - lin).max())
        dt = time.time() - t0
        ok = worst_half <= 1e-12 and worst_fd <= 1e-7 and dt < 60.0
        report(6, ok, "linearized deficit bridge on (2,2,2), 5 seeds, all "
               f"edges: |theta' - jump/2| <= {worst_half:.2e} (tol 1e-12), "
               f"Richardson FD both paths <= {worst_fd:.2e} (tol 1e-7), "
               f"{dt:.0f}s")

    def test_criterion_7_schlafli_identity(self, mesh2):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst_ratio = 0.0
        for _ in range(5):
            cfg = random_realizable_config(mesh2, rng, scale=0.15)
            direction = rng.uniform(-1, 1, mesh2.num_edges)
            res = schlafli_check(mesh2, cfg, direction, step=1e-4)
            theta = deficit_angles(mesh2, cfg)
            tol = 1e-6 * abs(float(np.sum(theta * direction))) + 1e-10
            worst_ratio = max(worst_ratio, res / tol)
        dt = time.time() - t0
        ok = worst_ratio <= 1.0 and dt < 60.0
        report(7, ok, "length-derivative identity, 5 random non-flat "
               f"configs: worst residual/tolerance {worst_ratio:.2e} "
               f"(need <= 1), {dt:.1f}s")

    def test_criterion_8_dual_path_deficits(self, mesh2):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            # rotation angles live on the principal branch: stay below pi
            cfg = random_realizable_config(mesh2, rng, max_deficit=2.5)
            mats = tet_metrics_from_lengths(mesh2, cfg)
            worst = max(worst, np.abs(deficit_angles(mesh2, cfg)
                                      - holonomy_deficits(mesh2, mats)).max())
        dt = time.time() - t0
        ok = worst <= 1e-9 and dt < 60.0
        report(8, ok, "dual-path deficits, 50 random configs on (2,2,2): "
               f"max |holonomy - dihedral| = {worst:.2e} (tol 1e-9), "
               f"{dt:.0f}s")
