
import itertools
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import constant_metric, face_tables, lifted_points
from golden import digest
from oracles import deformation_matrix
from reggefem import (ReggeField, VertexVectorField, apply_ctc,
                      assemble_mass, assemble_stiffness, build_torus_mesh,
                      deformation, divergence_x2, edge_jump_scalar,
                      interpolate_1, interpolate_2,
                      linearized_deficits, matrix_mode, read_coo,
                      saint_venant, skew, stencil_operators, write_coo)
from reggefem.mesh import DIRECTIONS, MeshError, TorusGeometry, _edge_tets, \
    _lattice, _vid
from reggefem.saint_venant import BlockCirculant, _face_terms, _neighbours, \
    _pattern, constant_kernel_residual
from reggefem.spaces import regge_to_tet_matrices
from reggefem.verify import _divergence_of_jumps, run_verification

TAU = 2.0 * np.pi


def random_sym(rng):
    a = rng.uniform(-1.0, 1.0, (3, 3))
    return 0.5 * (a + a.T)


class TestSkew:
    @settings(max_examples=50)
    @given(st.lists(st.floats(-10, 10), min_size=6, max_size=6))
    def test_cross_product_action(self, vals):
        v, w = np.array(vals[:3]), np.array(vals[3:])
        assert np.abs(skew(v) @ w - np.cross(v, w)).max() < 1e-9

    def test_antisymmetry_and_kernel(self):
        v = np.array([1.0, -2.0, 0.5])
        S = skew(v)
        assert np.abs(S + S.T).max() == 0.0
        assert np.abs(S @ v).max() == 0.0


def face_jumps(mesh, rf):
    """Tet-matrix jumps across every face, T1 minus T0 (F, 3, 3)."""
    mats = regge_to_tet_matrices(mesh, rf)
    face_tets = face_tables(mesh)[1]
    return mats[face_tets[:, 1]] - mats[face_tets[:, 0]]


class TestJumps:
    def test_constant_field_has_zero_jumps(self, mesh2):
        g = random_sym(np.random.default_rng(0))
        c = constant_metric(mesh2, g)
        rf = ReggeField(c)
        J = face_jumps(mesh2, rf)
        assert np.abs(J).max() < 1e-13
        assert np.abs(_face_terms(mesh2.face_m, mesh2.face_n, J)).max() < 1e-13
        for e in range(mesh2.num_edges):
            assert abs(edge_jump_scalar(mesh2, rf, e)) < 1e-13

    def test_tt_component_of_jump_vanishes(self, mesh2):
        rng = np.random.default_rng(1)
        rf = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        J = face_jumps(mesh2, rf)
        for f in range(0, mesh2.num_faces, 7):
            pts = lifted_points(mesh2, "face", f) * mesh2.cell
            for a, b in ((0, 1), (0, 2), (1, 2)):
                d = pts[b] - pts[a]
                d = d / np.linalg.norm(d)
                assert abs(d @ J[f] @ d) < 1e-12

    def test_jump_locality(self, mesh2):
        e0 = 2
        basis = np.zeros(mesh2.num_edges)
        basis[e0] = 1.0
        rf = ReggeField(basis)
        support = set(_edge_tets(mesh2, e0).tolist())
        J = face_jumps(mesh2, rf)
        terms = _face_terms(mesh2.face_m, mesh2.face_n, J)
        face_tets = face_tables(mesh2)[1]
        for f in range(mesh2.num_faces):
            if set(int(t) for t in face_tets[f]).isdisjoint(support):
                assert np.abs(J[f]).max() == 0.0
                assert np.abs(terms[f]).max() == 0.0

    def test_kernel_contracts_each_slot_frame(self, mesh2):
        # oracle: one m^T X n product per (face, slot)
        rng = np.random.default_rng(8)
        X = rng.uniform(-1, 1, (mesh2.num_faces, 2, 3, 3))
        terms = _face_terms(mesh2.face_m, mesh2.face_n, X)
        assert terms.shape == (mesh2.num_faces, 3, 2)
        for f in range(0, mesh2.num_faces, 5):
            for slot in range(3):
                m, n = mesh2.face_m[f % 12, slot], mesh2.face_n[f % 12, slot]
                for h in range(2):
                    assert abs(terms[f, slot, h] - m @ X[f, h] @ n) < 1e-14

    @pytest.mark.parametrize("grid, lengths", [
        ((2, 2, 2), (TAU, TAU, TAU)),
        ((3, 3, 3), (TAU, TAU, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
    ])
    def test_edge_jump_equals_apply_ctc_exactly(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rf = ReggeField(np.random.default_rng(9).uniform(
            -1, 1, mesh.num_edges))
        full = apply_ctc(mesh, rf).coeffs
        per_edge = [edge_jump_scalar(mesh, rf, e)
                    for e in range(mesh.num_edges)]
        assert per_edge == full.tolist()

    def test_deformations_have_zero_jumps(self, mesh2):
        rng = np.random.default_rng(2)
        v = VertexVectorField(rng.uniform(-1, 1, (mesh2.num_vertices, 3)))
        rf = deformation(mesh2, v)
        for e in range(mesh2.num_edges):
            assert abs(edge_jump_scalar(mesh2, rf, e)) < 1e-12


class TestApplyOperator:
    def test_zero_on_constants(self, mesh2):
        g = random_sym(np.random.default_rng(3))
        c = constant_metric(mesh2, g)
        out = apply_ctc(mesh2, ReggeField(c))
        assert np.abs(out.coeffs).max() < 1e-13

    def test_agrees_with_matrix_route(self):
        # the gather matvec of the blocks against the CSR expansion of the
        # first block row; a 2-wide axis folds two neighbours onto one
        # column
        rng = np.random.default_rng(4)
        for grid, lengths in HEAD_GRIDS.values():
            mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
            for A in (assemble_stiffness(mesh), assemble_mass(mesh)):
                c = rng.uniform(-1, 1, mesh.num_edges)
                expect = A.matrix @ c
                assert np.abs(A @ c - expect).max() \
                    <= 1e-15 * np.abs(expect).max()
        with pytest.raises(ValueError, match="expected"):
            A @ np.ones(mesh.num_edges + 1)

    @pytest.mark.parametrize("grid", [(2, 2, 2), (2, 3, 2), (6, 6, 6),
                                      (24, 24, 24)], ids=str)
    def test_gather_is_the_window_matvec(self, grid):
        # the former route, the 3x3x3 windows of the wrap-padded field,
        # forms the same (V, 189) operand, so the product is bit for bit
        A, M = stencil_operators(TorusGeometry(1.0, 1.3, 0.8), grid)
        c = np.random.default_rng(11).standard_normal(A.shape[0])
        for S in (A, M):
            field = c.reshape(grid + (7,))
            for axis, n in enumerate(grid):
                field = np.take(field, np.arange(-1, n + 1), axis,
                                mode="wrap")
            windows = np.moveaxis(sliding_window_view(
                field, (3, 3, 3), axis=(0, 1, 2)), 3, -1)
            expect = (windows.reshape(-1, 27 * 7)
                      @ S.blocks.swapaxes(-1, -2).reshape(27 * 7, 7))
            assert np.array_equal(S @ c, expect.ravel())
        # the neighbour table: vertex ids of the lifted points v + s
        table = _neighbours(grid)
        points = _lattice(grid)[:, None] + np.stack(np.unravel_index(
            np.arange(27), (3, 3, 3)), axis=-1) - 1
        assert np.array_equal(table, _vid(points, np.array(grid)))
        assert not table.flags.writeable

    @pytest.mark.parametrize("grid, lengths", [
        ((2, 3, 2), (TAU, TAU, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
        ((4, 5, 6), (1e-3 * TAU, TAU, TAU)),
    ], ids=["2x3x2", "4x5x6", "4x5x6-thin"])
    def test_is_twice_the_linearized_deficit(self, grid, lengths):
        # an independent route: the star-ordered linearized deficit reads
        # the tet matrices sector by sector, with no operator blocks
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rf = ReggeField(np.random.default_rng(10).uniform(
            -1, 1, mesh.num_edges))
        expect = 2.0 * linearized_deficits(mesh, rf)
        assert np.abs(apply_ctc(mesh, rf).coeffs - expect).max() \
            <= 1e-12 * np.abs(expect).max()

    def test_commutes_with_interpolation(self, geometry, mesh2):
        for a in (random_sym(np.random.default_rng(5)),):
            u = matrix_mode(geometry, a, (1, 0, 0), "sin")
            lhs = interpolate_2(mesh2, u.curl_t_curl()).coeffs
            rhs = apply_ctc(mesh2, interpolate_1(mesh2, u)).coeffs
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_divergence_of_jump_measure_vanishes(self, mesh3, pencil3):
        # discrete exactness at the measure space, every basis field; verify
        # computes the same columns as the one product D^T A
        loop = np.empty((3 * mesh3.num_vertices, mesh3.num_edges))
        for e in range(mesh3.num_edges):
            basis = np.zeros(mesh3.num_edges)
            basis[e] = 1.0
            out = divergence_x2(mesh3, apply_ctc(mesh3, ReggeField(basis)))
            loop[:, e] = out.values.ravel()
        assert np.abs(loop).max() < 1e-12
        product = deformation_matrix(mesh3).T @ pencil3[0].matrix
        assert np.abs(product.toarray() - loop).max() <= 1e-13


    @pytest.mark.parametrize("grid, lengths", [
        ((2, 2, 2), (TAU, TAU, TAU)), ((2, 3, 2), (TAU, TAU, TAU)),
        ((3, 3, 3), (TAU, TAU, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
        ((3, 4, 2), (1e-3 * TAU, 2.5 * np.pi, 3.0 * np.pi)),
    ], ids=["2x2x2", "2x3x2", "3x3x3", "4x5x6", "thin"])
    def test_folded_divergence_blocks_are_the_sparse_product(self, grid,
                                                             lengths):
        # verify's divergence_of_jumps_zero reads D^T A off 27 blocks of A;
        # entry (3w + i, 7u + b) sits in the block of residue u - w
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        A = assemble_stiffness(mesh)
        residues, blocks = _divergence_of_jumps(A, mesh.edge_vec)
        product = (deformation_matrix(mesh).T @ A.matrix).toarray()
        V = mesh.num_vertices
        pos = np.stack(np.unravel_index(np.arange(V), grid), axis=1)
        t = (pos[None] - pos[:, None]) % grid  # (w, u, 3): u - w
        rank = []
        for r, n in zip(residues, grid):
            lut = np.full(n, -1)
            lut[r] = np.arange(len(r))
            rank.append(lut)
        at = [lut[t[..., axis]] for axis, lut in enumerate(rank)]
        held = np.all([a >= 0 for a in at], axis=0)
        expect = np.where(held[..., None, None], blocks[tuple(at)], 0.0)
        expect = expect.swapaxes(1, 2).reshape(3 * V, 7 * V)
        scale = np.abs(A.blocks).max() * np.abs(mesh.edge_vec).max()
        assert np.abs(expect - product).max() <= 1e-15 * scale
        # every entry is compared, zeros included; and all are roundoff
        assert np.abs(blocks).max() <= 1e-14 * scale
        assert blocks.shape == tuple(map(len, residues)) + (3, 7)


class TestStiffness:
    def test_symmetry(self, pencil2, pencil3):
        for A, _ in (pencil2, pencil3):
            assert A.symmetry_residual() < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_constant_metrics_annihilated(self, seed):
        geometry = TorusGeometry(TAU, TAU, TAU)
        mesh = build_torus_mesh(geometry, (2, 2, 2))
        A = assemble_stiffness(mesh).matrix.toarray()
        g = random_sym(np.random.default_rng(seed))
        c = constant_metric(mesh, g)
        denom = np.abs(A).max() * max(np.abs(c).max(), 1e-300)
        assert np.abs(A @ c).max() <= 1e-12 * denom

    def test_deformation_range_annihilated(self, mesh2, pencil2):
        A, _ = pencil2
        Ad = A.matrix.toarray()
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = VertexVectorField(rng.uniform(-1, 1,
                                              (mesh2.num_vertices, 3)))
            c = deformation(mesh2, v).coeffs
            assert np.abs(Ad @ c).max() <= 1e-10 * np.abs(Ad).max() \
                * np.abs(c).max()

    def test_sparsity_confined_to_shared_tets(self, mesh2, pencil2):
        A, _ = pencil2
        coo = A.matrix.tocoo()
        tet_sets = [set(np.flatnonzero((mesh2.tet_edges == e).any(axis=1)))
                    for e in range(mesh2.num_edges)]
        for i, j, v in zip(coo.row, coo.col, coo.data):
            if v != 0.0:
                assert tet_sets[i] & tet_sets[j]

    @settings(max_examples=25, deadline=None)
    @given(grid=st.tuples(*[st.integers(2, 5)] * 3),
           scales=st.tuples(*[st.floats(0.5, 2.0)] * 3))
    def test_complex_exact_on_any_torus(self, grid, scales):
        # def -> jump -> div = 0 as matrices: A D = 0 and D^T A = 0
        mesh = build_torus_mesh(TorusGeometry(*(TAU * s for s in scales)),
                                grid)
        A = assemble_stiffness(mesh).matrix
        D = deformation_matrix(mesh)
        bound = 1e-12 * np.abs(A.data).max() * np.abs(D.data).max()
        for P in (A @ D, D.T @ A):
            assert abs(P).max() <= bound

    def test_consistency_decay_over_grids(self, geometry):
        # |a_h(I u, I v) - a(u, v)| shrinks monotonically for unit modes
        e2, e3 = np.eye(3)[1], np.eye(3)[2]
        modes = [np.outer(e2, e2) + np.outer(e3, e3),
                 np.outer(e2, e3) + np.outer(e3, e2),
                 np.outer(e2, e2) - np.outer(e3, e3)]
        diffs = {i: [] for i in range(len(modes))}
        for n in (2, 3, 4, 6):
            mesh = build_torus_mesh(geometry, (n, n, n))
            A = assemble_stiffness(mesh).matrix
            for i, a in enumerate(modes):
                u = matrix_mode(geometry, a, (1, 0, 0), "sin",
                                quad_points=10)
                c = interpolate_1(mesh, u).coeffs
                ah = float(c @ (A @ c))
                exact = u.curl_t_curl()
                lam = float(np.sum(exact.a * a) / np.sum(a * a))
                aa = lam * float(np.sum(a * a)) * TAU**3 / 2.0
                diffs[i].append(abs(ah - aa))
        for seq in diffs.values():
            assert all(b < a for a, b in zip(seq, seq[1:])), seq


class TestStiffnessBuiltOncePerMesh:
    def test_same_operator_every_call(self, geometry):
        mesh = build_torus_mesh(geometry, (2, 3, 2))
        A = assemble_stiffness(mesh)
        assert assemble_stiffness(mesh) is A
        # apply_ctc reads the mesh's operator: l * (A c)
        c = np.random.default_rng(40).uniform(-1, 1, mesh.num_edges)
        assert np.array_equal(apply_ctc(mesh, ReggeField(c)).coeffs,
                              (mesh.edge_length * (A @ c).reshape(-1, 7))
                              .ravel())

    def test_blocks_read_only(self, geometry):
        A = assemble_stiffness(build_torus_mesh(geometry, (2, 2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            A.blocks[1, 1, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            A.blocks *= 2.0

    def test_one_build_per_verify_run(self, geometry, monkeypatch):
        # seven apply_ctc calls and two suites share one build of A
        built = []
        stiffness = saint_venant._stiffness

        def counted(*args):
            built.append(args)
            return stiffness(*args)

        monkeypatch.setattr(saint_venant, "_stiffness", counted)
        run_verification(geometry, (2, 2, 2))
        assert len(built) == 1


class TestConstantKernelResidual:
    @pytest.mark.parametrize("grid, lengths", [
        ((2, 2, 2), (TAU, TAU, TAU)), ((2, 3, 2), (TAU, TAU, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
        ((3, 4, 2), (1e-3 * TAU, 2.5 * np.pi, 3.0 * np.pi)),
    ], ids=["2x2x2", "2x3x2", "4x5x6", "thin"])
    def test_matches_the_matvec(self, grid, lengths):
        # oracle: A c over the whole grid by the gather matvec, for the
        # constant metric's edge values from the mesh, and max|A| over the
        # entries of the E x E matrix; the residual reads the k = 0 block
        # sum and takes one 3x3 draw of its generator
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        A = assemble_stiffness(mesh)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            got = constant_kernel_residual(mesh.edge_vec, A, rng)
            replay = np.random.default_rng(seed)
            c = constant_metric(mesh, random_sym(replay))
            oracle = np.abs(A @ c).max() / (np.abs(A.matrix.data).max()
                                           * np.abs(c).max())
            assert abs(got - oracle) <= 1e-15
            assert rng.uniform() == replay.uniform()

    def test_grid_64_builds_no_pattern(self):
        # the block sum's cost does not grow with the grid: at 64^3
        # (E = 1835008) it forms no array of size E and no pattern
        A, _ = stencil_operators(TorusGeometry(TAU, TAU, TAU), (64, 64, 64))
        edge_vec = DIRECTIONS * (TAU / 64)
        _pattern.cache_clear()
        tracemalloc.start()
        try:
            got = constant_kernel_residual(edge_vec, A,
                                           np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got <= 1e-15
        assert peak < 8 * A.shape[0] // 100
        assert _pattern.cache_info().currsize == 0


class TestMass:
    def test_spd(self, pencil2, pencil3):
        for _, M in (pencil2, pencil3):
            np.linalg.cholesky(M.matrix.toarray())

    def test_quadratic_form_is_l2_norm(self, mesh2, pencil2):
        _, M = pencil2
        rng = np.random.default_rng(7)
        rf = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        mats = regge_to_tet_matrices(mesh2, rf)
        direct = float(np.sum(mesh2.tet_volume
                              * np.einsum("tij,tij->t", mats, mats)))
        q = float(rf.coeffs @ (M.matrix @ rf.coeffs))
        assert abs(q - direct) < 1e-12 * max(direct, 1.0)

    def test_trace_against_direct_summation(self, mesh2, pencil2):
        _, M = pencil2
        # independent summation of the diagonal
        trace = 0.0
        for t in range(mesh2.num_tets):
            for a in range(6):
                rho = mesh2.tet_rho[t % 6, a]
                trace += mesh2.tet_volume * float(np.sum(rho * rho))
        assert abs(trace - M.matrix.diagonal().sum()) < 1e-10 * trace

    def test_trace_scaling_under_refinement(self, pencil2, pencil4):
        # halving h: 8x the edges, each diagonal entry scaling like 1/h
        _, M2 = pencil2
        _, M4 = pencil4
        t2 = M2.matrix.diagonal().sum()
        t4 = M4.matrix.diagonal().sum()
        assert abs(t4 / t2 - 16.0) < 1e-10

    @pytest.mark.parametrize("grid", [(2, 2, 2), (3, 5, 7)])
    def test_accepted_cells_give_finite_blocks(self, grid):
        # thin and flat cells on both sides of the overflow of the mass
        # entries (about h2 h3 / h1^3): the templates refuse a cell, or
        # both operators' blocks are finite
        accepted = 0
        for thin in np.logspace(-90, -170, 81):
            for lengths in ((thin, 1.0, 1.0), (1.0, thin, 1e20)):
                try:
                    A, M = stencil_operators(TorusGeometry(*lengths), grid)
                except MeshError:
                    continue
                accepted += 1
                assert np.isfinite(A.blocks).all()
                assert np.isfinite(M.blocks).all()
        assert 0 < accepted < 162


# First 16 hex digits of the SHA-256 (golden.digest) of indptr, indices
# and data of the first block row (rows 0-6) of A and M, which the pencil
# files are written from, and of its indptr and indices alone: the entry
# set, the same for A and M, recorded when the row was assembled from the
# faces and tets of a mesh.
HEAD_GRIDS = {
    "2x2x2": ((2, 2, 2), (TAU, TAU, TAU)),
    "2x3x2": ((2, 3, 2), (TAU, TAU, TAU)),
    "4x5x6": ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
}
HEAD_DIGESTS = {
    "2x2x2": {"A": "e822e68e4cb94553", "M": "1132a939fd5b9c19"},
    "2x3x2": {"A": "fa0f89a450ff5198", "M": "efa8ffc34858af66"},
    "4x5x6": {"A": "811bd3971939b09d", "M": "396f8a62aadc3f75"},
}
HEAD_INDEX_DIGESTS = {"2x2x2": "c04223c9f95d782a", "2x3x2": "34341681ee1519dd",
                      "4x5x6": "52c71dd6d75b4f27"}


class TestBlockRow:
    @pytest.mark.parametrize("label", sorted(HEAD_GRIDS))
    def test_first_block_row_bit_identical(self, label):
        grid, lengths = HEAD_GRIDS[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        got = {}
        for name, assemble in (("A", assemble_stiffness),
                               ("M", assemble_mass)):
            S = assemble(mesh)
            head = S.matrix[:7]
            got[name] = digest([head.indptr, head.indices, head.data])
            assert digest([head.indptr, head.indices]) \
                == HEAD_INDEX_DIGESTS[label]
        assert got == HEAD_DIGESTS[label]

    @pytest.mark.parametrize("assemble", [assemble_stiffness, assemble_mass])
    def test_peak_memory_bounded_by_result(self, geometry, assemble):
        # expanding one block row needs no per-face or per-tet triplets:
        # the peak stays within a small multiple of the CSR it returns
        mesh = build_torus_mesh(geometry, (8, 8, 8))
        tracemalloc.start()
        try:
            S = assemble(mesh).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * (S.data.nbytes + S.indices.nbytes
                            + S.indptr.nbytes)


class TestBlockCirculant:
    @pytest.mark.parametrize("label", sorted(HEAD_GRIDS))
    def test_symmetry_residual_matches_full_matrix(self, label):
        # oracle: |S - S^T| on the expanded matrix; at 2x2x2 the shifts s
        # and -s wrap onto each other
        grid, lengths = HEAD_GRIDS[label]
        A = assemble_stiffness(build_torus_mesh(TorusGeometry(*lengths),
                                                grid))
        blocks = A.blocks.copy()
        entry = next(i for i in zip(*np.nonzero(blocks)) if i[3] != i[4])
        blocks[entry] *= 1.5
        skewed = BlockCirculant(blocks, A.grid)
        for S in (A, skewed):
            full = S.matrix.toarray()
            oracle = np.abs(full - full.T).max() / np.abs(full).max()
            assert S.symmetry_residual() == oracle
        assert skewed.symmetry_residual() > 0.0

    def test_bad_blocks_or_grid_rejected(self, pencil2):
        A, _ = pencil2
        with pytest.raises(ValueError, match=r"expected \(3, 3, 3, 7, 7\)"):
            BlockCirculant(A.matrix[:7].toarray(), A.grid)
        with pytest.raises(MeshError, match="too coarse"):
            BlockCirculant(A.blocks, (1, 3, 3))

    def test_entry_outside_couplings_rejected(self):
        # B_0[0, 0] is a coupling, B_(1,1,1)[0, 1] is not: the matvec
        # would read it and the E x E matrix drop it
        blocks = np.zeros((3, 3, 3, 7, 7))
        blocks[1, 1, 1, 0, 0] = 1.0
        blocks[2, 2, 2, 0, 1] = 5.0
        with pytest.raises(ValueError, match=re.escape(
                "block entry (s, a, b) = ((1, 1, 1), 0, 1) is not one of "
                "the 115 structural couplings")):
            BlockCirculant(blocks, (2, 3, 2))
        blocks[2, 2, 2, 0, 1] = -0.0
        S = BlockCirculant(blocks, (2, 3, 2))
        assert np.abs(S @ np.ones(S.shape[0])).max() == np.abs(
            S.matrix @ np.ones(S.shape[0])).max() == 1.0
        # the hand-built operator, with its explicit zeros, still constructs
        hand_built_block_row()


def point_group():
    """The 12 maps of the Kuhn complex onto itself, from ``DIRECTIONS``:
    each axis permutation p, with and without the point reflection, and
    the flat block entry each map sends every structural coupling
    (s, a, b) to.  The reflection maps edge (v, d) onto (-v - d, d), so
    B_s[a, b] onto B_{-s + d_a - d_b}[a, b]; then p maps it onto
    B_{p.s}[p.a, p.b], (p.x)_i = x_{p_i}."""
    c = saint_venant._couplings()
    s, a, b = np.unravel_index(c, (27, 7, 7))
    s = np.stack(np.unravel_index(s, (3, 3, 3)), axis=-1) - 1
    index = {tuple(d): i for i, d in enumerate(DIRECTIONS.tolist())}
    maps = []
    for p in itertools.permutations(range(3)):
        p = list(p)
        for reflect in (False, True):
            t = -s + DIRECTIONS[a] - DIRECTIONS[b] if reflect else s
            pa, pb = ([index[tuple(d)] for d in DIRECTIONS[x][:, p].tolist()]
                      for x in (a, b))
            image = (np.ravel_multi_index((t[:, p] + 1).T, (3, 3, 3)) * 49
                     + 7 * np.array(pa) + np.array(pb))
            maps.append((p, reflect, image))
    return maps


class TestPointGroup:
    def test_maps_permute_the_couplings(self):
        maps = point_group()
        assert len(maps) == 12
        couplings = saint_venant._couplings().tolist()
        for _, _, image in maps:
            assert sorted(image.tolist()) == couplings
        # the helper the solver reads: the six maps without reflection
        perms, images = saint_venant._axis_permutations()
        assert perms.tolist() == [p for p, r, _ in maps if not r]
        assert np.array_equal(images, [i for _, r, i in maps if not r])
        assert not perms.flags.writeable and not images.flags.writeable

    @pytest.mark.parametrize("sides, grid", [
        ((TAU, TAU, TAU), (3, 3, 3)),
        ((1.0, 2.0, 3.0), (4, 5, 6)),
        ((1e-3, 1.0, 1.0), (2, 3, 4)),
    ], ids=["cube", "1:2:3", "thin"])
    def test_blocks_map_under_the_point_group(self, sides, grid):
        # the torus (l_p1, l_p2, l_p3) on grid (n_p1, n_p2, n_p3) holds at
        # the image of each coupling the value the torus holds at it.  A
        # coupling sums at most 12 face terms of A and 6 tet terms of M,
        # each a rounded product of the templates; the mapped torus forms
        # them from its own templates, in another order, so the two differ
        # by (terms + 4) ulps of max|B| at most (measured: 3.8e-16 of
        # max|A|, 1.8e-16 of max|M|)
        couplings = saint_venant._couplings()
        ops = stencil_operators(TorusGeometry(*sides), grid)
        for p, _, image in point_group():
            mapped = stencil_operators(
                TorusGeometry(*np.array(sides)[p]), tuple(np.array(grid)[p]))
            for S, T, terms in zip(ops, mapped, (12, 6)):
                bound = (terms + 4) * np.finfo(float).eps \
                    * np.abs(S.blocks).max()
                assert np.abs(T.blocks.ravel()[image]
                              - S.blocks.ravel()[couplings]).max() <= bound

    def test_valence_classes_are_orbits_of_the_permutations(self, mesh2):
        # the axes with the body diagonal (valence 6) and the face
        # diagonals (valence 4)
        for cls in mesh2._star_classes:
            for p in itertools.permutations(range(3)):
                images = {tuple(d) for d in DIRECTIONS[cls.dirs][:, p]}
                assert images == {tuple(d) for d in DIRECTIONS[cls.dirs]}


def dense_by_matvec(S):
    """The E x E matrix of ``S`` column by column, ``S @ e_j``: the
    gather matvec reads the blocks and no sparsity pattern."""
    return np.stack([S @ e for e in np.eye(S.shape[0])], axis=1)


class TestPattern:
    def test_alternating_grids(self):
        # one pattern is kept: g1, g2, g1 rebuilds each time, and every
        # operator reads the one of its own grid
        grids = {"2x2x2": (2, 2, 2), "2x3x2": (2, 3, 2)}
        first = {}
        _pattern.cache_clear()
        for label in ("2x2x2", "2x3x2", "2x2x2", "2x3x2"):
            A, M = stencil_operators(TorusGeometry(TAU, 2.5 * np.pi, TAU),
                                     grids[label])
            V = int(np.prod(A.grid))
            got = []
            for S in (A, M):
                assert S.nnz == S.matrix.nnz == S.matrix[:7].nnz * V \
                    == 115 * V
                assert np.array_equal(S.matrix.toarray(), dense_by_matvec(S))
                got.append([a.tobytes() for a in (S.matrix.indptr,
                                                  S.matrix.indices,
                                                  S.matrix.data)])
            assert first.setdefault(label, got) == got
            assert _pattern.cache_info().currsize == 1
        assert _pattern.cache_info().misses == 4

    def test_shared_arrays_are_read_only(self, pencil2):
        A, M = pencil2
        p = _pattern(A.grid)
        shared = list(p) + [S.matrix.indices for S in (A, M)]
        for arr in shared:
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            A.matrix.indices[0] = 1
        # the values are each operator's own
        assert A.matrix.data.flags.writeable
        assert not np.shares_memory(A.matrix.data, M.matrix.data)


def former_expansion(S):
    """The E x E matrix of ``S`` as the block row used to be expanded:
    tile the values of its first block row over the vertices and sort
    each row."""
    head, grid = S.matrix[:7], S.grid
    shift, b = np.divmod(head.indices, 7)
    (n1, n2, n3), V = grid, int(np.prod(grid))
    i, j, k = ((np.arange(n)[:, None] + s) % n
               for n, s in zip(grid, np.unravel_index(shift, grid)))
    cols = 7 * n3 * (i[:, None, None] * n2 + j[:, None]) + (7 * k + b)
    indptr = np.r_[0, np.tile(np.diff(head.indptr), V).cumsum()]
    full = sp.csr_matrix((np.tile(head.data, V), cols.ravel(), indptr),
                         shape=(7 * V, 7 * V))
    full.sort_indices()
    return full


def former_coo_text(full):
    """The text the writer used to make: every entry of the expanded
    matrix, sorted by (i, j), formatted one by one."""
    coo = sp.coo_matrix(full)
    order = np.lexsort((coo.col, coo.row))
    triples = zip(coo.row[order].tolist(), coo.col[order].tolist(),
                  coo.data[order].tolist())
    return f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n" + "".join(
        map("%d %d %.17g\n".__mod__, triples))


def hand_built_block_row():
    """A 2x3x2 operator with few nonzero blocks: an explicit 0.0 (as every
    unset coupling is), a -0.0, a tiny value, and the shifts +1 and -1 of
    the 2-wide first axis folding onto one column of the first block row."""
    blocks = np.zeros((3, 3, 3, 7, 7))
    for s, a, b, value in (((0, 0, 0), 0, 0, 1.5), ((0, 0, 0), 0, 2, -0.0),
                           ((1, 0, 1), 0, 1, 1.0), ((-1, 0, 0), 0, 3, -1.0),
                           ((0, 0, 0), 0, 4, 0.0), ((0, 0, 1), 0, 5, 0.25),
                           ((0, 1, 1), 0, 3, -2e-300),
                           ((0, 0, 0), 6, 6, 1.0 / 3.0)):
        blocks[tuple(np.add(s, 1)) + (a, b)] = value
    S = BlockCirculant(blocks, (2, 3, 2))
    # every coupling is an entry; first-axis shifts +1 and -1 land at 1
    head = S.matrix[:7]
    assert head.nnz == 115 and np.signbit(head.data).sum() == 3
    assert head[0, 7 * 7 + 1] == 1.0 and head[0, 7 * 6 + 3] == -1.0
    return S


# the tori of the writer's tests: the head grids and a thin cell
COO_GRIDS = dict(HEAD_GRIDS, thin=((4, 5, 6), (1e-3 * TAU, TAU, TAU)))


def coo_cases(label):
    if label == "hand-built":
        return [hand_built_block_row()]
    grid, lengths = COO_GRIDS[label]
    mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
    return [assemble_stiffness(mesh), assemble_mass(mesh)]


class TestCooFormat:
    @pytest.mark.parametrize("label", sorted(COO_GRIDS) + ["hand-built"])
    def test_bytes_match_former_writer(self, label, tmp_path, monkeypatch):
        # at 2x2x2 the shifts +1 and -1 fold onto each other; slabs of 37
        # lines end inside rows (13 or 19 entries each) and cut the 115
        # entries of a block row at no fixed place
        for S in coo_cases(label):
            full = former_expansion(S)
            path = tmp_path / "S.txt"
            for slab in (saint_venant._SLAB_LINES, 37):
                monkeypatch.setattr(saint_venant, "_SLAB_LINES", slab)
                write_coo(S, path)
                assert path.read_bytes() == former_coo_text(full).encode()
            assert S.nnz == S.matrix.nnz == full.nnz
            for a, b in ((S.matrix.indptr, full.indptr),
                         (S.matrix.indices, full.indices),
                         (S.matrix.data, full.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(grid=st.tuples(*[st.integers(2, 6)] * 3),
           lengths=st.tuples(*[st.floats(0.1, 10.0)] * 3),
           slab=st.integers(1, 300))
    def test_slabs_match_former_writer_on_random_tori(self, grid, lengths,
                                                      slab):
        S = stencil_operators(TorusGeometry(*lengths), grid)[0]
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as m:
            m.setattr(saint_venant, "_SLAB_LINES", slab)
            path = os.path.join(tmp, "S.txt")
            write_coo(S, path)
            with open(path, "rb") as fh:
                assert fh.read() == \
                    former_coo_text(former_expansion(S)).encode()

    def test_header_only_file_reads_back(self, tmp_path):
        # every operator has entries, so this file is written by hand
        path = tmp_path / "S.txt"
        path.write_text("56 56 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_coo(path)
        assert back.shape == (56, 56) and back.nnz == 0

    def test_malformed_entry_rejected(self, pencil2, tmp_path):
        A, _ = pencil2
        path = tmp_path / "A.txt"
        write_coo(A, path)
        lines = path.read_text().splitlines()
        lines[5] = " ".join(lines[5].split()[:2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_coo(path)

    def test_roundtrip(self, pencil2, tmp_path):
        A, M = pencil2
        for mat in (A, M):
            path = tmp_path / "matrix.txt"
            write_coo(mat, path)
            back = read_coo(path)
            assert np.abs((back - mat.matrix).toarray()).max() == 0.0

    @pytest.mark.parametrize("extra", [-1, -100, 1])
    def test_entry_count_must_match_header(self, pencil2, tmp_path, extra):
        # a truncated file (extra < 0) or one with extra entry lines
        A, _ = pencil2
        path = tmp_path / "A.txt"
        write_coo(A, path)
        lines = path.read_text().splitlines()
        lines = lines[:extra] if extra < 0 else lines + lines[1:1 + extra]
        path.write_text("\n".join(lines) + "\n")
        nnz = A.matrix.nnz
        with pytest.raises(ValueError, match=f"nnz = {nnz}, found "
                           f"{nnz + extra} entries"):
            read_coo(path)

    def test_header_and_precision(self, pencil2, tmp_path):
        A, _ = pencil2
        path = tmp_path / "A.txt"
        write_coo(A, path)
        lines = path.read_text().splitlines()
        r, c, nnz = (int(x) for x in lines[0].split())
        assert (r, c) == A.shape and nnz == len(lines) - 1
        # 17 significant digits round-trip doubles exactly
        i, j, v = lines[1].split()
        assert float(v) == A.matrix.tocoo().data[
            np.lexsort((A.matrix.tocoo().col, A.matrix.tocoo().row))][0]
