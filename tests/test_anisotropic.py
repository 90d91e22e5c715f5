"""End-to-end checks on anisotropic tori and non-cubic grids."""

import numpy as np
import pytest

from conftest import lifted_points
from reggefem import (ReggeField, TorusGeometry, VertexVectorField,
                      apply_ctc, assemble_mass, assemble_stiffness,
                      build_torus_mesh, deformation, divergence_x2,
                      edge_jump_scalar, interpolate_1, interpolate_2,
                      linearized_deficit, matrix_mode, solve_pencil)
from reggefem.action import (deficit_angles, euclidean_lengths,
                             random_realizable_config)

TAU = 2.0 * np.pi


@pytest.fixture(scope="module")
def aniso():
    geometry = TorusGeometry(TAU, TAU / 2, TAU / 3)
    return geometry, build_torus_mesh(geometry, (3, 2, 2))


class TestAnisotropicPipeline:
    def test_counts_and_volume(self, aniso):
        geometry, mesh = aniso
        n = 3 * 2 * 2
        assert (mesh.num_vertices, mesh.num_edges, mesh.num_faces,
                mesh.num_tets) == (n, 7 * n, 12 * n, 6 * n)
        assert abs(mesh.num_tets * mesh.tet_volume - geometry.volume) < 1e-12
        p = lifted_points(mesh, "tet") * mesh.cell
        vol = np.abs(np.linalg.det((p[:, 1:] - p[:, :1]).mT)) / 6.0
        assert abs(vol.sum() - geometry.volume) < 1e-12

    def test_flat_background_is_flat(self, aniso):
        _, mesh = aniso
        theta = deficit_angles(mesh, euclidean_lengths(mesh))
        assert np.abs(theta).max() < 1e-11

    def test_complex_identities(self, aniso):
        _, mesh = aniso
        A = assemble_stiffness(mesh)
        Ad = A.toarray()
        assert A.symmetry_residual() < 1e-10
        rng = np.random.default_rng(0)
        v = VertexVectorField(rng.uniform(-1, 1, (mesh.num_vertices, 3)))
        c = deformation(mesh, v).coeffs
        assert np.abs(Ad @ c).max() < 1e-10 * np.abs(Ad).max() \
            * np.abs(c).max()
        u = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
        dv = divergence_x2(mesh, apply_ctc(mesh, u))
        assert np.abs(dv.values).max() < 1e-11

    def test_commuting_square_off_axis_mode(self, aniso):
        geometry, mesh = aniso
        # frequency along the shortest axis: k = (0, 0, 3)
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 1.0]])
        u = matrix_mode(geometry, a, (0, 0, 1), "cos", quad_points=14)
        assert abs(u.k[2] - 3.0) < 1e-14
        lhs = interpolate_2(mesh, u.curl_t_curl()).coeffs
        rhs = apply_ctc(mesh, interpolate_1(mesh, u)).coeffs
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_kernel_dimension(self, aniso):
        _, mesh = aniso
        res = solve_pencil(assemble_stiffness(mesh), assemble_mass(mesh))
        assert res.kernel_dim == 3 * mesh.num_vertices + 3
        nz = res.nonzero
        assert (nz > 0).any() and (nz < 0).any()

    def test_linearized_deficit_bridge(self, aniso):
        _, mesh = aniso
        rng = np.random.default_rng(1)
        up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
        for e in range(0, mesh.num_edges, 11):
            assert abs(linearized_deficit(mesh, e, up)
                       - 0.5 * edge_jump_scalar(mesh, up, e)) < 1e-12

    def test_dihedral_sums(self, aniso):
        _, mesh = aniso
        from oracles import metric_dihedral_angles
        from reggefem.action import tet_metrics_from_lengths
        mats = tet_metrics_from_lengths(mesh, euclidean_lengths(mesh))
        ang = metric_dihedral_angles(mesh, mats)
        total = np.zeros(mesh.num_edges)
        np.add.at(total, mesh.tet_edges.ravel(), ang.ravel())
        assert np.abs(total - TAU).max() < 1e-10

    def test_nonflat_configuration_realizable(self, aniso):
        _, mesh = aniso
        rng = np.random.default_rng(2)
        cfg = random_realizable_config(mesh, rng, scale=0.1)
        theta = deficit_angles(mesh, cfg)
        assert np.abs(theta).max() > 1e-3
