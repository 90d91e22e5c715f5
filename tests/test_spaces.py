import tracemalloc

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_metric, face_tables, lifted_points, \
    per_edge
from oracles import constant_matrix_field, constant_vector_field, \
    deformation_matrix, dof_mu_e, l2_norm_x1, pair_x3_x0
from reggefem import (EdgeMeasure, ReggeField, SmoothField, VertexVectorField,
                      build_torus_mesh, deformation, divergence_x2,
                      interpolate_0, interpolate_1, interpolate_2,
                      interpolate_3, matrix_mode, pair_x2_x1,
                      regge_to_tet_matrices, vector_mode)
from reggefem import spaces
from reggefem.action import EdgeLengthConfig, tet_metrics_from_lengths
from reggefem.mesh import LOCAL_EDGES, TorusGeometry, _edge_tets
from reggefem.quadrature import segment_rule, tet_points_weights, tet_rule

TAU = 2.0 * np.pi


# inputs on the grid-2 mesh (56 edges) that are not a SmoothField
WRONG_FIELDS = {"ReggeField": ReggeField(np.ones(56)),
                "EdgeMeasure": EdgeMeasure(np.ones(56)), "ndarray": np.eye(3)}
# the types each field entry point takes, and a call of it on a mesh
ENTRY_POINTS = {
    "interpolate_0": (("SmoothField",), interpolate_0),
    "interpolate_1": (("SmoothField",), interpolate_1),
    "interpolate_2": (("SmoothField", "ReggeField"), interpolate_2),
    "interpolate_3": (("SmoothField",), interpolate_3),
    "dof_mu_e": (("SmoothField", "ReggeField"),
                 lambda mesh, u: dof_mu_e(mesh, 0, u)),
}


def random_sym(rng):
    a = rng.uniform(-1.0, 1.0, (3, 3))
    return 0.5 * (a + a.T)


class TestDofsAndBasis:
    def test_duality_matrix_is_identity(self, mesh2):
        E = mesh2.num_edges
        D = np.zeros((E, E))
        filled = np.zeros((E, E), dtype=bool)
        for e in range(E):
            d = mesh2.edge_vec[e % 7]
            for t in np.flatnonzero((mesh2.tet_edges == e).any(axis=1)):
                for a in range(6):
                    ep = mesh2.tet_edges[t, a]
                    val = d @ mesh2.tet_rho[t % 6, a] @ d
                    if filled[e, ep]:
                        # the DOF is single-valued no matter the tet used
                        assert abs(D[e, ep] - val) < 1e-12
                    D[e, ep] = val
                    filled[e, ep] = True
        assert np.abs(D - np.eye(E)).max() < 1e-12

    def test_dof_of_identity_metric_is_squared_length(self, mesh3):
        u = constant_matrix_field(np.eye(3))
        for e in range(0, mesh3.num_edges, 13):
            assert abs(dof_mu_e(mesh3, e, u)
                       - mesh3.edge_length[e % 7] ** 2) < 1e-12

    def test_dof_against_adaptive_quadrature(self, geometry, mesh4):
        # frequency-1 mode along the first axis, 16-point Gauss rule
        import warnings
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        u = matrix_mode(geometry, a, (1, 0, 0), "sin", quad_points=16)
        e = mesh4.edge_id((0, 0, 0), (1, 0, 0))
        L = TAU / 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            oracle, err = scipy.integrate.quad(
                lambda s: L * L * np.sin(s * L), 0.0, 1.0,
                epsabs=1e-14, epsrel=1e-14)
        assert err < 1e-13
        assert abs(dof_mu_e(mesh4, e, u) - oracle) < 1e-12

    def test_dof_invalid_edge(self, mesh2):
        with pytest.raises(ValueError):
            dof_mu_e(mesh2, -1, constant_matrix_field(np.eye(3)))

    def test_dof_rejects_regge_field_of_wrong_length(self, mesh2):
        with pytest.raises(ValueError, match="^edge count mismatch$"):
            dof_mu_e(mesh2, 0, ReggeField(np.ones(1000)))


class TestInterpolators:
    def test_constant_metric_reproduced(self, mesh2):
        g = random_sym(np.random.default_rng(3))
        rf = interpolate_1(mesh2, constant_matrix_field(g, quad_points=4))
        mats = regge_to_tet_matrices(mesh2, rf)
        assert np.abs(mats - g).max() < 1e-12

    def test_projection_property(self, mesh2):
        rng = np.random.default_rng(5)
        rf = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        back = np.array([dof_mu_e(mesh2, e, rf)
                         for e in range(mesh2.num_edges)])
        assert np.abs(back - rf.coeffs).max() < 1e-12

    def test_nodal_interpolation_exact(self, geometry, mesh2):
        v = vector_mode(geometry, np.array([1.0, 0.0, 0.0]), (1, 0, 0))
        vals = interpolate_0(mesh2, v).values
        expect = np.array([[np.sin(p[0]), 0.0, 0.0]
                           for p in mesh2.vertex_pos])
        assert np.abs(vals - expect).max() < 1e-15

    def test_nodal_interpolation_constant(self, mesh2):
        c = np.array([0.3, -1.0, 2.0])
        vals = interpolate_0(mesh2, constant_vector_field(c)).values
        assert np.abs(vals - c).max() == 0.0

    def test_affine_exactness_on_unwrapped_simplices(self, mesh3):
        # def of (the nodal interpolant of) x -> Ax equals A wherever the
        # lifted and canonical vertex positions coincide
        A = random_sym(np.random.default_rng(11))
        v = VertexVectorField(mesh3.vertex_pos @ A.T)
        rf = deformation(mesh3, v)
        mats = regge_to_tet_matrices(mesh3, rf)
        n = np.array(mesh3.grid)
        for t, lat in enumerate(lifted_points(mesh3, "tet")):
            if np.all(lat < n):
                assert np.abs(mats[t] - A).max() < 1e-12
        # the interpolated coefficients agree with the constant field ones
        const = interpolate_1(mesh3, constant_matrix_field(A, quad_points=4))
        tails = lifted_points(mesh3, "edge")[:, 0]
        unwrapped = [e for e in range(mesh3.num_edges)
                     if np.all(tails[e] + mesh3.edge_vec[e % 7] / mesh3.cell
                               < n - 0.5)]
        for e in unwrapped[:40]:
            assert abs(rf.coeffs[e] - const.coeffs[e]) < 1e-12

    def test_interpolate_2_closed_form_vs_mass_column(self, mesh2):
        from reggefem import assemble_mass
        M = assemble_mass(mesh2).matrix.toarray()
        e0 = 17
        basis = np.zeros(mesh2.num_edges)
        basis[e0] = 1.0
        em = interpolate_2(mesh2, ReggeField(basis))
        expect = per_edge(mesh2, mesh2.edge_length) * M[:, e0]
        assert np.abs(em.coeffs - expect).max() < 1e-12
        # a random field on an anisotropic torus against the mass matrix
        mesh = build_torus_mesh(
            TorusGeometry(TAU, 2.5 * np.pi, 3.0 * np.pi), (4, 5, 6))
        c = np.random.default_rng(18).uniform(-1, 1, mesh.num_edges)
        em = interpolate_2(mesh, ReggeField(c))
        expect = per_edge(mesh, mesh.edge_length) \
            * (assemble_mass(mesh).matrix @ c)
        assert np.abs(em.coeffs - expect).max() < 1e-12

    def test_pairing_identity(self, geometry, mesh2):
        # <t t^T delta_e, w> = mu_e(w) / l_e
        w = matrix_mode(geometry, random_sym(np.random.default_rng(1)),
                        (1, 0, 0), "cos")
        wh = interpolate_1(mesh2, w)
        for e in range(0, mesh2.num_edges, 9):
            basis = np.zeros(mesh2.num_edges)
            basis[e] = 1.0
            lhs = pair_x2_x1(mesh2, EdgeMeasure(basis), wh)
            rhs = dof_mu_e(mesh2, e, wh) / mesh2.edge_length[e % 7]
            assert abs(lhs - rhs) < 1e-12

    def test_pairing_refuses_a_wrong_edge_count(self, mesh2):
        # a length-1 field is refused, not broadcast over every edge
        ones = np.ones(mesh2.num_edges)
        for em, rf in ((ones, [1.0]), ([1.0], ones), (ones[1:], ones[1:])):
            with pytest.raises(ValueError, match="^edge count mismatch$"):
                pair_x2_x1(mesh2, EdgeMeasure(em), ReggeField(rf))

    def test_interpolate_3_constant(self, mesh3):
        c = np.array([1.0, -2.0, 0.5])
        out = interpolate_3(mesh3, constant_vector_field(c, quad_points=4))
        expect = c * TAU**3 / mesh3.num_vertices
        assert np.abs(out.values - expect).max() < 1e-12

    @pytest.mark.parametrize("name, field", [
        pytest.param(name, field, id=f"{field}-{name}")
        for name, (accepted, _) in ENTRY_POINTS.items()
        for field in WRONG_FIELDS if field not in accepted])
    def test_non_smooth_field_rejected(self, mesh2, name, field):
        accepted, call = ENTRY_POINTS[name]
        with pytest.raises(TypeError, match=(
                f"^{name} takes a {' or '.join(accepted)}, not a "
                f"{type(WRONG_FIELDS[field]).__name__}$")):
            call(mesh2, WRONG_FIELDS[field])

    def test_unknown_trig_rejected(self, geometry):
        with pytest.raises(ValueError, match="trig"):
            matrix_mode(geometry, np.eye(3), (1, 0, 0), "tan")

    def test_interpolate_3_zero(self, mesh2):
        z = constant_vector_field(np.zeros(3), quad_points=2)
        assert np.abs(interpolate_3(mesh2, z).values).max() == 0.0


def _old_points_weights(coords, npts):
    # per tet: p0 + B ref with B the spanning edge vectors, |det B| w_ref
    ref, w = tet_rule(npts)
    B = np.stack([coords[i] - coords[0] for i in (1, 2, 3)], axis=-1)
    return (coords[0] + np.einsum("ij,qj->qi", B, ref),
            abs(np.linalg.det(B)) * w)


def _old_interpolate_1(mesh, u):
    # per edge: the Gauss rule on the lifted segment from the tail
    s, w = segment_rule(u.quad_points)
    out = np.zeros(mesh.num_edges)
    for e in range(mesh.num_edges):
        d = mesh.edge_vec[e % 7]
        pts = mesh.vertex_pos[mesh.edge_tail[e]] + s[:, None] * d
        out[e] = np.einsum("q,qij,i,j->", w, u(pts), d, d)
    return out


def _old_interpolate_2(mesh, u):
    out = np.zeros(mesh.num_edges)
    coords = lifted_points(mesh, "tet") * mesh.cell
    for t in range(mesh.num_tets):
        pts, w = _old_points_weights(coords[t], u.quad_points)
        per_tet = np.einsum("q,qij,aij->a", w, u(pts), mesh.tet_rho[t % 6])
        for a, e in enumerate(mesh.tet_edges[t]):
            out[e] += per_tet[a]
    return out * per_edge(mesh, mesh.edge_length)


def _old_interpolate_3(mesh, u):
    out = np.zeros((mesh.num_vertices, 3))
    lattice = lifted_points(mesh, "tet")
    for t in range(mesh.num_tets):
        coords = lattice[t] * mesh.cell
        pts, w = _old_points_weights(coords, u.quad_points)
        Binv = np.linalg.inv((mesh.tet_coords[t % 6, 1:]
                              - mesh.tet_coords[t % 6, :1]).T)
        lam = np.einsum("ai,qi->qa", Binv, pts - coords[0])
        lam = np.concatenate([1.0 - lam.sum(axis=1, keepdims=True), lam],
                             axis=1)
        per_vertex = np.einsum("q,qa,qi->ai", w, lam, u(pts))
        for a, x in enumerate(lattice[t]):
            out[mesh.vertex_id(x)] += per_vertex[a]
    return out


def _rel_err(new, old):
    return np.abs(new - old).max() / np.abs(old).max()


def _trig_modes(mesh, make, amp, freqs):
    # sin and cos at a nonzero phase: the moment route of the interpolators
    return [make(mesh.geometry, amp, m, trig, phase=0.3)
            for m in freqs for trig in ("sin", "cos")]


def _generic_matrix_field(rng):
    # a plain callable, not a trig mode: the point-evaluation route
    a, b = random_sym(rng), random_sym(rng)
    return SmoothField(
        lambda x: (np.cos(x[..., 0] + 0.3)[..., None, None] * a
                   + (np.sin(x[..., 1]) * np.cos(x[..., 2]))[..., None, None]
                   * b), quad_points=12)


def _matrix_fields(mesh, rng):
    # trig modes (moment route) and a generic callable (points)
    a = random_sym(rng)
    return [matrix_mode(mesh.geometry, a, (1, 1, 0)),
            *_trig_modes(mesh, matrix_mode, a, [(1, 1, 0), (1, 1, 1)]),
            _generic_matrix_field(rng)]


def _assert_matches_oracle(new, old):
    # the modes are chosen so that no interpolant vanishes by aliasing
    assert np.abs(old).max() > 0.1
    assert _rel_err(new, old) <= 1e-13


@pytest.mark.parametrize("grid, lengths", [
    ((2, 2, 2), (TAU, TAU, TAU)),
    ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
], ids=["2x2x2", "4x5x6"])
class TestBatchedQuadratureOracle:
    """The batched quadrature contractions and the trig moment route
    against a plain per-tet or per-edge loop of point evaluations."""

    def test_tet_points_weights(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        coords = lifted_points(mesh, "tet") * mesh.cell
        pts, w = tet_points_weights(coords, 12)
        for t in range(mesh.num_tets):
            p_old, w_old = _old_points_weights(coords[t], 12)
            assert _rel_err(pts[t], p_old) <= 1e-13
            assert _rel_err(w[t], w_old) <= 1e-13

    def test_interpolate_1(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        for u in _matrix_fields(mesh, np.random.default_rng(15)):
            _assert_matches_oracle(interpolate_1(mesh, u).coeffs,
                                   _old_interpolate_1(mesh, u))

    def test_interpolate_2(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        for u in _matrix_fields(mesh, np.random.default_rng(14)):
            _assert_matches_oracle(interpolate_2(mesh, u).coeffs,
                                   _old_interpolate_2(mesh, u))

    def test_interpolate_3(self, grid, lengths):
        # on the 2x2x2 grid frequency (1, 1, 0) aliases to a zero vertex
        # measure, so (1, 0, 0) stands in for it
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        fields = _trig_modes(mesh, vector_mode, np.array([1.0, -0.5, 2.0]),
                             [(1, 0, 0), (1, 1, 1)])
        fields.append(SmoothField(lambda x: np.cos(x + 0.3), quad_points=12))
        for v in fields:
            _assert_matches_oracle(interpolate_3(mesh, v).values,
                                   _old_interpolate_3(mesh, v))


class TestQuadratureMemory:
    # 64 is the whole grid-4 mesh in one block
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_match_one_block_bitwise(self, mesh4, monkeypatch,
                                            block):
        u = _generic_matrix_field(np.random.default_rng(16))
        v = SmoothField(lambda x: np.cos(x), quad_points=12)
        runs = (lambda: interpolate_1(mesh4, u).coeffs,
                lambda: interpolate_2(mesh4, u).coeffs,
                lambda: interpolate_3(mesh4, v).values)
        default = [run() for run in runs]
        monkeypatch.setattr(spaces, "_VERTEX_BLOCK", block)
        for run, expect in zip(runs, default):
            assert np.array_equal(run(), expect)

    def test_trig_modes_form_no_point_arrays(self, geometry, mesh4):
        # a (T, Q) float array alone would take T * Q * 8 bytes
        u = matrix_mode(geometry, random_sym(np.random.default_rng(17)),
                        (1, 1, 1), "cos", phase=0.3)
        v = vector_mode(geometry, np.array([1.0, -0.5, 2.0]), (1, 1, 0))
        bound = mesh4.num_tets * tet_rule(12)[1].size * 8
        for run in (lambda: interpolate_2(mesh4, u),
                    lambda: interpolate_3(mesh4, v)):
            run()  # the quadrature rules are cached after the first call
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound

    def test_commuting_suite_evaluates_no_points(self, mesh2, monkeypatch):
        # verify integrates only trig modes and Regge fields, both without
        # the point-evaluation route
        from reggefem.verify import check_commuting_diagram

        call = SmoothField.__call__

        def no_points(u, pts):
            # vertex positions (V, 3) are fine: interpolate_0 is nodal
            if np.ndim(pts) > 2:
                raise AssertionError("point evaluation in the commuting "
                                     "suite")
            return call(u, pts)

        monkeypatch.setattr(SmoothField, "__call__", no_points)
        results = check_commuting_diagram(mesh2)
        assert len(results) == 4
        assert all(r.passed for r in results)


class TestSharedTables:
    def test_verify_builds_one_table_per_frequency(self, geometry):
        # the commuting squares look up 22 tables (interpolate_1 x10,
        # interpolate_2 x8 on trig modes, interpolate_3 x4), all at
        # k = (1, 0, 0) and 12 points: one per shape family
        from reggefem.verify import run_verification

        spaces._trig_tables.cache_clear()
        run_verification(geometry, (2, 2, 2), seed=0)
        info = spaces._trig_tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 19, 3)

    def test_verify_output_same_cold_and_warm(self, tmp_path):
        from reggefem import cli

        def verify_json(name):
            path = tmp_path / name
            cli.main(["verify", "--grid", "2", "2", "2", "--seed", "0",
                      "--output", str(tmp_path / "v.txt"),
                      "--json", str(path)])
            # the file names are part of the echoed config
            return path.read_bytes().replace(name.encode(), b"v.json")

        spaces._trig_tables.cache_clear()
        cold = verify_json("cold.json")
        assert spaces._trig_tables.cache_info().currsize == 3
        assert verify_json("warm.json") == cold

    def test_tables_read_only(self, geometry, mesh2):
        u = matrix_mode(geometry, np.eye(3), (1, 0, 0), "cos")
        expect = interpolate_2(mesh2, u).coeffs
        for family in ("segment", "tet", "hat"):
            table = spaces._trig_tables(family, 12, mesh2.cell.tobytes(),
                                        u.k.tobytes())
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[:] *= 2.0
        assert np.array_equal(interpolate_2(mesh2, u).coeffs, expect)

    def test_cached_rules_read_only(self, geometry, mesh2):
        # a caller that scales a cached rule in place would change every
        # later interpolant in the process
        u = matrix_mode(geometry, np.eye(3), (1, 0, 0), "cos")
        v = SmoothField(lambda x: np.cos(x), quad_points=3)
        runs = (lambda: interpolate_1(mesh2, u).coeffs,
                lambda: interpolate_2(mesh2, u).coeffs,
                lambda: interpolate_3(mesh2, v).values)
        before = [run() for run in runs]
        for rule in (segment_rule(12), tet_rule(12), segment_rule(3),
                     tet_rule(3)):
            for arr in rule:
                with pytest.raises(ValueError, match="read-only"):
                    arr[:] *= 2.0
        for run, expect in zip(runs, before):
            assert np.array_equal(run(), expect)


class TestDeformation:
    def test_translations_in_kernel(self, mesh2):
        v = VertexVectorField(np.tile([1.0, -2.0, 0.3],
                                      (mesh2.num_vertices, 1)))
        assert np.abs(deformation(mesh2, v).coeffs).max() == 0.0

    def test_single_vertex_hat_sign(self, mesh2):
        x = 0
        vec = np.array([0.7, -0.2, 0.4])
        vals = np.zeros((mesh2.num_vertices, 3))
        vals[x] = vec
        c = deformation(mesh2, VertexVectorField(vals)).coeffs
        for e in range(mesh2.num_edges):
            if mesh2.edge_tail[e] == x and mesh2.edge_head[e] != x:
                assert abs(c[e] - (-(mesh2.edge_vec[e % 7] @ vec))) < 1e-14
            elif mesh2.edge_head[e] == x and mesh2.edge_tail[e] != x:
                assert abs(c[e] - (mesh2.edge_vec[e % 7] @ vec)) < 1e-14

    def test_rank_is_3v_minus_3(self, mesh2):
        # oracle: singular values of the dense deformation matrix
        D = deformation_matrix(mesh2)
        sv = np.linalg.svd(D.toarray(), compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert rank == 3 * mesh2.num_vertices - 3

    def test_matrix_matches_map(self, mesh3):
        v = VertexVectorField(np.random.default_rng(11).uniform(
            -1, 1, (mesh3.num_vertices, 3)))
        c = deformation(mesh3, v).coeffs
        Dv = deformation_matrix(mesh3) @ v.values.ravel()
        assert np.abs(Dv - c).max() <= 1e-14 * np.abs(c).max()

    def test_commutes_with_nodal_interpolation(self, geometry, mesh4):
        for trig in ("sin", "cos"):
            v = vector_mode(geometry, np.array([0.3, 1.0, -0.5]), (1, 0, 0),
                            trig)
            lhs = interpolate_1(mesh4, v.deformation()).coeffs
            rhs = deformation(mesh4, interpolate_0(mesh4, v)).coeffs
            assert np.abs(lhs - rhs).max() < 1e-10


class TestDivergence:
    def test_basis_measure_pushes_to_endpoints(self, mesh2):
        e = 23
        basis = np.zeros(mesh2.num_edges)
        basis[e] = 1.0
        out = divergence_x2(mesh2, EdgeMeasure(basis)).values
        expect = np.zeros_like(out)
        expect[mesh2.edge_head[e]] += mesh2.edge_tangent[e % 7]
        expect[mesh2.edge_tail[e]] -= mesh2.edge_tangent[e % 7]
        assert np.abs(out - expect).max() == 0.0

    def test_is_transposed_deformation_matrix(self, mesh3):
        # divergence_x2 = D^T diag(1/l), the identity verify relies on
        w = np.random.default_rng(10).uniform(-1, 1, mesh3.num_edges)
        div = divergence_x2(mesh3, EdgeMeasure(w)).values.ravel()
        via_d = deformation_matrix(mesh3).T @ (
            w / per_edge(mesh3, mesh3.edge_length))
        assert np.abs(div - via_d).max() <= 1e-13 * np.abs(div).max()

    def test_short_measure_refused(self, mesh2):
        # not numpy's "not broadcastable" error
        with pytest.raises(ValueError, match="^edge count mismatch$"):
            divergence_x2(mesh2, EdgeMeasure(np.ones(mesh2.num_edges - 7)))

    def test_zero_in_zero_out(self, mesh2):
        out = divergence_x2(mesh2, EdgeMeasure(np.zeros(mesh2.num_edges)))
        assert np.abs(out.values).max() == 0.0

    def test_x3_pairing(self, mesh2):
        rng = np.random.default_rng(2)
        vm = divergence_x2(mesh2, EdgeMeasure(rng.uniform(-1, 1,
                                                          mesh2.num_edges)))
        vf = VertexVectorField(rng.uniform(-1, 1, (mesh2.num_vertices, 3)))
        assert abs(pair_x3_x0(mesh2, vm, vf)
                   - float(np.sum(vm.values * vf.values))) == 0.0


class TestMetricReconstruction:
    def test_matches_lstsq_oracle(self):
        # independent oracle per tet: solve its 6x6 DOF system directly
        rng = np.random.default_rng(20)
        X = rng.uniform(-1.0, 1.0, (3, 3))
        g = np.eye(3) + 0.3 * (X + X.T)
        assert np.linalg.eigvalsh(g).min() > 0
        for grid, lengths in [((2, 2, 2), (TAU, TAU, TAU)),
                              ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi))]:
            mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
            s = constant_metric(mesh, g)
            mats = tet_metrics_from_lengths(mesh, EdgeLengthConfig(s))
            assert np.abs(mats - g).max() < 1e-12
            for t in range(mesh.num_tets):
                p = lifted_points(mesh, "tet", t) * mesh.cell
                rows = []
                for i, j in LOCAL_EDGES:
                    d = p[j] - p[i]
                    rows.append([d[0] ** 2, d[1] ** 2, d[2] ** 2,
                                 2 * d[0] * d[1], 2 * d[0] * d[2],
                                 2 * d[1] * d[2]])
                x = np.linalg.lstsq(np.array(rows), s[mesh.tet_edges[t]],
                                    rcond=None)[0]
                oracle = np.array([[x[0], x[3], x[4]],
                                   [x[3], x[1], x[5]],
                                   [x[4], x[5], x[2]]])
                assert np.abs(mats[t] - oracle).max() < 1e-12


class TestContinuity:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tangential_tangential_continuity(self, seed):
        geometry = TorusGeometry(TAU, TAU, TAU)
        mesh = build_torus_mesh(geometry, (2, 2, 2))
        rng = np.random.default_rng(seed)
        rf = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
        mats = regge_to_tet_matrices(mesh, rf)
        scale = max(np.abs(mats).max(), 1.0)
        face_tets = face_tables(mesh)[1]
        for f in range(mesh.num_faces):
            t0, t1 = face_tets[f]
            jump = mats[t1] - mats[t0]
            pts = lifted_points(mesh, "face", f) * mesh.cell
            # the three edge directions span the tangent plane quadratically
            for a, b in ((0, 1), (0, 2), (1, 2)):
                d = pts[b] - pts[a]
                assert abs(d @ jump @ d) < 1e-12 * scale * (d @ d)

    def test_basis_support_is_edge_star(self, mesh2):
        e0 = 31
        basis = np.zeros(mesh2.num_edges)
        basis[e0] = 1.0
        mats = regge_to_tet_matrices(mesh2, ReggeField(basis))
        star = set(_edge_tets(mesh2, e0).tolist())
        for t in range(mesh2.num_tets):
            if t in star:
                assert np.abs(mats[t]).max() > 1e-3
            else:
                assert np.abs(mats[t]).max() == 0.0


class TestNormsAndSerialization:
    def test_l2_norm_matches_mass_quadratic_form(self, mesh2, pencil2):
        _, M = pencil2
        rng = np.random.default_rng(4)
        rf = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        q = float(rf.coeffs @ (M.matrix @ rf.coeffs))
        assert abs(l2_norm_x1(mesh2, rf) ** 2 - q) < 1e-12 * max(q, 1.0)
