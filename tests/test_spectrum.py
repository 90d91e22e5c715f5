import itertools
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lifted_points
from golden import digest
from oracles import deformation_matrix, fourier_entries
from reggefem import (TorusGeometry, assemble_mass, assemble_stiffness,
                      assign_clusters, build_torus_mesh, convergence_study,
                      fourier_oracle, sigma_modes, solve_pencil)
from reggefem import cli, saint_venant, spectrum
from reggefem.mesh import DIRECTIONS, PeriodicMesh
from reggefem.saint_venant import BlockCirculant, stencil_operators
from reggefem.spectrum import KERNEL_THRESHOLD_FACTOR, mode_symbol

TAU = 2.0 * np.pi


class TestOracle:
    def test_unit_torus_lowest_modes(self, geometry):
        sp = fourier_oracle(geometry, 1.5)
        assert sp.entries == ((-1.0, 12), (1.0, 6))

    def test_cutoff_below_first_mode(self, geometry):
        sp = fourier_oracle(geometry, 0.5)
        assert sp.entries == ()

    def test_anisotropic_torus(self):
        g = TorusGeometry(TAU, TAU / 2, TAU / 3)
        sp = fourier_oracle(g, 20.0)
        pos = [lam for lam, _ in sp.entries if lam > 0]
        assert abs(pos[0] - 1.0) < 1e-12
        assert abs(pos[1] - 4.0) < 1e-12

    def test_multiplicities_positive_even(self, geometry):
        sp = fourier_oracle(geometry, 6.5)
        for lam, mult in sp.entries:
            assert mult > 0 and mult % 2 == 0
        # sign pattern: -|k|^2 carries twice the weight of +|k|^2
        d = dict(sp.entries)
        for lam, mult in sp.entries:
            if lam > 0:
                assert d[-lam] == 2 * mult

    def test_bad_cutoff(self, geometry):
        with pytest.raises(ValueError):
            fourier_oracle(geometry, 0.0)

    @pytest.mark.parametrize("cutoff", [np.inf, np.nan])
    def test_non_finite_cutoff(self, geometry, cutoff):
        with pytest.raises(ValueError, match="finite"):
            fourier_oracle(geometry, cutoff)

    @pytest.mark.parametrize("lengths", [
        (TAU, TAU, TAU), (6.0, 7.0, 8.0), (TAU, 2.5 * np.pi, 3.0 * np.pi),
        (1.0, 2.0, 3.0), (1e-3 * TAU, TAU, TAU), (1.3, 0.7, 2.9),
    ])
    @pytest.mark.parametrize("cutoff", [0.5, 4.5, 1e2, 4e2])
    def test_planes_give_the_loop_entries(self, lengths, cutoff):
        # the same floats summed in the same order, merged as the loop
        # merges them: the entries are identical, not just close
        g = TorusGeometry(*lengths)
        assert fourier_oracle(g, cutoff).entries \
            == fourier_entries(g, cutoff)

    def test_cube_entries_at_cutoff_1e4(self, geometry):
        # 5.6 s by the loop (fourier_entries); its entries' digest
        entries = fourier_oracle(geometry, 1e4).entries
        assert len(entries) == 16670
        assert digest(list(entries)) == "88faeedf1601c925"

    @pytest.mark.parametrize("cutoff", [1e5, 1e308])
    def test_box_too_large_refused_at_once(self, geometry, cutoff):
        with pytest.raises(ValueError, match="needs more than 16777216 "
                           "frequencies"):
            fourier_oracle(geometry, cutoff)
        with pytest.raises(ValueError, match="16777216"):
            fourier_oracle(TorusGeometry(1e300, 1.0, 1.0), cutoff)

    def test_box_bound_on_the_cube(self, geometry):
        # |m_i| <= 127 below cutoff 128^2: 255^3 < 2^24 < 257^3 frequencies
        assert len(fourier_oracle(geometry, 1.6e4).entries) == 26670
        with pytest.raises(ValueError, match="16777216"):
            fourier_oracle(geometry, 128.0 ** 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 3e-10, 6e-10, 7e-10, 1.1e-9,
                                     5e-9, 1.0, 1.0 + 5e-10, 1.0 + 1e-9,
                                     2.0 + 3e-9, 2.0 + 4e-9, 1e9, 1e9 + 1.5]),
                    max_size=30))
    def test_merge_heads_decide_as_the_loop(self, values):
        # runs whose values chain within 1e-9 of each other but not of
        # their first need the sequential decision
        lam = np.sort(np.array(values, float))
        heads, head = [], None
        for j, x in enumerate(lam.tolist()):
            if head is None or abs(x - head) > 1e-9 * max(1.0, abs(x)):
                heads.append(j)
                head = x
        assert spectrum._merge_heads(lam).tolist() == heads

    def test_mode_symbol_matches_oracle_values(self, geometry):
        # every sigma mode's analytic Rayleigh quotient is an oracle value
        sp = fourier_oracle(geometry, 4.5)
        values = {lam for lam, _ in sp.entries}
        for k in ([1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 1], [2, 0, 0]):
            sym = mode_symbol(np.array(k, float))
            for mat, lam in sigma_modes(np.array(k, float)):
                got = float(np.sum(sym(mat) * mat) / np.sum(mat * mat))
                assert abs(got - lam) < 1e-12
                assert any(abs(got - v) < 1e-12 for v in values)
                assert np.abs(sym(mat) - lam * mat).max() < 1e-12

    def test_sigma_modes_orthogonal(self):
        k = np.array([1.0, 2.0, -1.0])
        mats = [m for m, _ in sigma_modes(k)]
        for i in range(3):
            for j in range(i):
                assert abs(np.sum(mats[i] * mats[j])) < 1e-12
            assert np.abs(mats[i] @ k).max() < 1e-12


class TestPencil:
    def test_kernel_dimension(self, mesh2, mesh3, pencil2, pencil3):
        for mesh, (A, M) in ((mesh2, pencil2), (mesh3, pencil3)):
            res = solve_pencil(A, M)
            v = mesh.num_vertices
            assert res.eigenvalues.size == mesh.num_edges
            assert res.kernel_dim >= 3 * v - 3
            # measured value frozen as a regression: deformations plus the
            # six constant metrics
            assert res.kernel_dim == 3 * v + 3

    def test_kernel_never_below_deformation_rank(self, mesh2, pencil2):
        A, M = pencil2
        sv = np.linalg.svd(deformation_matrix(mesh2).toarray(),
                           compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert solve_pencil(A, M).kernel_dim >= rank

    def test_residuals_small(self, pencil3):
        res = solve_pencil(*pencil3)
        assert res.max_residual <= 1e-8

    def test_threshold_stability(self, pencil2, pencil3):
        for A, M in (pencil2, pencil3):
            res = solve_pencil(A, M)
            w = res.eigenvalues
            counts = {int(np.sum(np.abs(w) < f * np.abs(w).max()))
                      for f in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6)}
            assert counts == {res.kernel_dim}

    def test_indefinite(self, pencil2):
        res = solve_pencil(*pencil2)
        nz = res.nonzero
        assert (nz > 0).any() and (nz < 0).any()

    def test_translation_relabeling_invariance(self, geometry, mesh2,
                                               pencil2):
        # permute edges by a unit-box translation; spectra must agree
        A, M = pencil2
        n = np.array(mesh2.grid)
        perm = np.empty(mesh2.num_edges, dtype=int)
        tails = lifted_points(mesh2, "edge")[:, 0]
        for e in range(mesh2.num_edges):
            moved = tails[e] + np.array([1, 0, 0])
            perm[e] = mesh2.vertex_id(moved) * 7 + e % 7
        assert np.array_equal(np.sort(perm), np.arange(mesh2.num_edges))
        P = np.zeros((mesh2.num_edges, mesh2.num_edges))
        P[perm, np.arange(mesh2.num_edges)] = 1.0
        Ad, Md = A.matrix.toarray(), M.matrix.toarray()
        w1 = solve_pencil(A, M).eigenvalues
        import scipy.linalg as sla
        w2 = sla.eigh(P @ Ad @ P.T, P @ Md @ P.T, eigvals_only=True)
        assert np.abs(np.sort(w1) - np.sort(w2)).max() < 1e-10 * max(
            1.0, np.abs(w1).max())

    def test_non_spd_mass_rejected(self, pencil2):
        A, M = pencil2
        bad = BlockCirculant(-M.blocks, M.grid)
        with pytest.raises(np.linalg.LinAlgError, match="not SPD"):
            solve_pencil(A, bad)


class TestBlochSolve:
    @pytest.mark.parametrize("grid, lengths", [
        ((2, 2, 2), (TAU, TAU, TAU)),
        ((3, 3, 3), (TAU, TAU, TAU)),
        ((3, 4, 5), (TAU, 1.25 * TAU, 1.5 * TAU)),
    ])
    def test_matches_dense_eigh(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        A, M = assemble_stiffness(mesh), assemble_mass(mesh)
        res = solve_pencil(A, M)
        Ad = A.matrix.toarray()
        dense = sla.eigh(0.5 * (Ad + Ad.T), M.matrix.toarray(),
                         eigvals_only=True)
        scale = np.abs(dense).max()
        assert np.abs(res.eigenvalues - dense).max() <= 1e-13 * scale
        tau = KERNEL_THRESHOLD_FACTOR * scale
        assert res.kernel_dim == int(np.sum(np.abs(dense) < tau))
        assert res.max_residual <= 1e-12
        assert res.asymmetry == A.symmetry_residual() <= 1e-14
        assert res.kernel_max_abs < res.threshold <= res.nonzero_min_abs
        out = res.to_dict()
        assert out["nonzero_min_abs"] == res.nonzero_min_abs
        assert out["kernel_max_abs"] == res.kernel_max_abs
        assert out["asymmetry"] == res.asymmetry

    def test_grid_of_other_size_rejected(self, geometry):
        # 2x3x2 and 3x2x2 have the same edge count, 84
        for a, m in (((2, 2, 2), (3, 3, 3)), ((2, 3, 2), (3, 2, 2))):
            A = assemble_stiffness(build_torus_mesh(geometry, a))
            M = assemble_mass(build_torus_mesh(geometry, m))
            msg = f"stiffness grid {a} and mass grid {m} differ"
            with pytest.raises(ValueError, match=re.escape(msg)):
                solve_pencil(A, M)

    def test_solve_builds_no_full_matrix(self, geometry):
        # assembly, solve and symmetry residual read the blocks alone:
        # the sparsity pattern, which .matrix expands along, stays unbuilt
        # (its cache cleared first, so that it counts only what runs here)
        saint_venant._pattern.cache_clear()
        mesh = build_torus_mesh(geometry, (8, 8, 8))
        A, M = assemble_stiffness(mesh), assemble_mass(mesh)
        res = solve_pencil(A, M)
        assert res.kernel_dim == 3 * mesh.num_vertices + 3
        assert res.asymmetry == A.symmetry_residual() <= 1e-14
        assert saint_venant._pattern.cache_info().currsize == 0
        A.matrix
        assert saint_venant._pattern.cache_info().currsize == 1

    @pytest.mark.parametrize("grid, lengths", [
        ((4, 4, 4), (TAU, TAU, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
    ], ids=["4x4x4", "4x5x6"])
    def test_symbols_of_complex_compose_to_zero(self, grid, lengths):
        # A D = 0 holds block by block: A^(k) D^(k) = 0 at every Bloch
        # frequency k of the half zone (the other half is its conjugate),
        # with the 7x3 symbol of the deformation matrix taken from its
        # first block row in the convention of BlockCirculant.symbols
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        half = grid[2] // 2 + 1
        Ak = assemble_stiffness(mesh).symbols().reshape(-1, 7, 7)
        row = deformation_matrix(mesh)[:7].toarray()
        Dk = np.moveaxis(np.fft.fftn(row.reshape((7,) + grid + (3,)),
                                     axes=(1, 2, 3)), 0, -2)
        Dk = Dk[:, :, :half].reshape(-1, 7, 3)
        # closed form: row i of D^(k) is d_i (exp(-2 pi i k.DIRECTIONS[i]/n)
        # - 1), the head minus the tail of edge direction i
        k = np.stack(np.meshgrid(*map(np.arange, grid[:2] + (half,)),
                                 indexing="ij"),
                     axis=-1).reshape(-1, 3) / np.array(grid)
        shift = np.exp(-2j * np.pi * k @ DIRECTIONS.T) - 1.0
        assert np.abs(Dk - shift[:, :, None] * mesh.edge_vec).max() \
            <= 1e-14 * np.abs(Dk).max()
        scale = np.abs(Ak).max() * np.abs(Dk).max()
        assert np.abs(Ak @ Dk).max() <= 1e-13 * scale
        # the opposite sign convention does not compose to zero
        assert np.abs(Ak @ Dk.conj()).max() > 1e-2 * scale

    @settings(max_examples=15, deadline=None)
    @given(grid=st.tuples(*[st.integers(2, 6)] * 3),
           scales=st.tuples(*[st.floats(0.5, 2.0)] * 3))
    def test_kernel_is_3v_plus_3_on_any_torus(self, grid, scales):
        mesh = build_torus_mesh(TorusGeometry(*(TAU * s for s in scales)),
                                grid)
        res = solve_pencil(assemble_stiffness(mesh), assemble_mass(mesh))
        assert res.eigenvalues.size == mesh.num_edges
        assert res.kernel_dim == 3 * mesh.num_vertices + 3
        assert res.asymmetry <= 1e-14
        assert res.max_residual <= 1e-12 * np.abs(res.eigenvalues).max()


# the symbols and eigenvalues of the one-box stencil against those of the
# first block row of an operator assembled on the grid's own mesh, by FFT
STENCIL_GRIDS = [(2, 2, 2), (2, 3, 2), (4, 5, 6), (12, 10, 8)]
STENCIL_SIDES = TorusGeometry(TAU, 2.5 * np.pi, 3.0 * np.pi)
# a thin cell: one side 1e-3 of the others
THIN_SIDES = TorusGeometry(1e-3 * TAU, TAU, TAU)


def fftn_symbols(S):
    """The former full-zone symbols: the FFT of the dense first block
    row, as an (n1, n2, n3, 7, 7) array."""
    blocks = S.matrix[:7].toarray().reshape((7,) + S.grid + (7,))
    return np.moveaxis(np.fft.fftn(blocks, axes=(1, 2, 3)), 0, -2)


def block_eigenvalues(A, M):
    """The 7 eigenvalues of every half-zone Bloch pencil, (blocks, 7)."""
    Ak, Mk = (S.symbols().reshape(-1, 7, 7) for S in (A, M))
    return np.stack([sla.eigh(0.5 * (a + a.conj().T), m, eigvals_only=True)
                     for a, m in zip(Ak, Mk)])


def assert_symbols_match_meshed_head_and_fftn(sides, grid):
    mesh = build_torus_mesh(sides, grid)
    meshed = (assemble_stiffness(mesh), assemble_mass(mesh))
    half = grid[2] // 2 + 1
    for H, S in zip(meshed, stencil_operators(sides, grid)):
        # one builder: the mesh holds the stencil's one-box templates
        assert np.array_equal(H.blocks, S.blocks)
        full = fftn_symbols(H)
        tol = 1e-14 * np.abs(full).max()
        assert S.shape == H.shape
        assert S.symbols().shape == (grid[:2] + (half, 7, 7))
        assert np.abs(S.symbols() - full[:, :, :half]).max() <= tol
        # each skipped block is the conjugate of its partner at -k
        partner = np.roll(full[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
        assert np.abs(full - partner.conj()).max() <= tol
        # the head is symmetric, so every symbol is Hermitian
        assert np.abs(full - full.conj().swapaxes(-1, -2)).max() <= tol
        # planes of k1 are those of the whole half zone, bit for bit
        assert np.array_equal(S.symbols(slice(1, None)), S.symbols()[1:])


class TestStencilRoute:
    @pytest.mark.parametrize("grid", STENCIL_GRIDS, ids=str)
    def test_symbols_match_meshed_head_and_fftn(self, grid):
        assert_symbols_match_meshed_head_and_fftn(STENCIL_SIDES, grid)

    @pytest.mark.parametrize("grid", [(2, 3, 2), (4, 5, 6)], ids=str)
    def test_thin_cell_symbols_match_meshed_head_and_fftn(self, grid):
        assert_symbols_match_meshed_head_and_fftn(THIN_SIDES, grid)

    def test_blocks_depend_only_on_the_cell(self):
        # grid (10^5)^3 has E = 7e15, which no array could hold; its cell
        # (1, 2, 3) is exactly that of the 3x3x3 torus of sides (3, 6, 9)
        big = stencil_operators(TorusGeometry(1e5, 2e5, 3e5), (10 ** 5,) * 3)
        small = stencil_operators(TorusGeometry(3.0, 6.0, 9.0), (3, 3, 3))
        for B, S in zip(big, small):
            assert B.shape == (7 * 10 ** 15,) * 2
            assert B.blocks.shape == (3, 3, 3, 7, 7)
            assert np.array_equal(B.blocks, S.blocks)

    @pytest.mark.parametrize("grid", STENCIL_GRIDS, ids=str)
    def test_eigenvalues_match_meshed_head(self, grid):
        # oracle: every block of the whole zone, from the FFT of the
        # meshed head, by a generalized eigh of its own
        mesh = build_torus_mesh(STENCIL_SIDES, grid)
        Ak, Mk = (fftn_symbols(S).reshape(-1, 7, 7)
                  for S in (assemble_stiffness(mesh), assemble_mass(mesh)))
        oracle = np.sort(np.concatenate([
            sla.eigh(0.5 * (a + a.conj().T), m, eigvals_only=True)
            for a, m in zip(Ak, Mk)]))
        res = solve_pencil(*stencil_operators(STENCIL_SIDES, grid))
        scale = np.abs(oracle).max()
        assert np.abs(res.eigenvalues - oracle).max() <= 1e-14 * scale
        kernel_dim = int(np.sum(np.abs(oracle)
                                < KERNEL_THRESHOLD_FACTOR * scale))
        assert res.kernel_dim == kernel_dim == 3 * mesh.num_vertices + 3

    @pytest.mark.parametrize("grid", STENCIL_GRIDS, ids=str)
    def test_kernel_per_block(self, grid):
        # under the global threshold, the block k = 0 holds 6 kernel
        # eigenvalues and every other block 3; a block's largest kernel
        # |lambda| is at most 1.2e-14 of its smallest nonzero |lambda|
        # (measured worst, at 12x10x8)
        A, M = stencil_operators(STENCIL_SIDES, grid)
        res = solve_pencil(A, M)
        w = np.abs(block_eigenvalues(A, M))
        kernel = w < res.threshold
        assert kernel[0].sum() == 6
        assert (kernel[1:].sum(axis=1) == 3).all()
        ratio = np.where(kernel, w, 0.0).max(axis=1) \
            / np.where(kernel, np.inf, w).min(axis=1)
        assert ratio.max() <= 1e-13

    @pytest.mark.parametrize("grid", [(8, 8, 8), (17, 9, 40)], ids=str)
    def test_slabs_give_the_one_slab_spectrum(self, grid, monkeypatch):
        A, M = stencil_operators(STENCIL_SIDES, grid)
        whole = solve_pencil(A, M)
        monkeypatch.setattr(spectrum, "_SLAB_BLOCKS", 1)
        sliced = solve_pencil(A, M)
        assert np.array_equal(sliced.eigenvalues, whole.eigenvalues)
        assert sliced.max_residual == whole.max_residual
        assert sliced.kernel_dim == whole.kernel_dim \
            == 3 * A.shape[0] // 7 + 3

    def test_spectra_build_no_mesh(self, geometry, monkeypatch, tmp_path):
        # nor does assemble, which writes the pencil from the same blocks
        built = []
        init = PeriodicMesh.__init__

        def counted(self, geometry, grid):
            built.append(tuple(grid))
            init(self, geometry, grid)

        monkeypatch.setattr(PeriodicMesh, "__init__", counted)
        convergence_study(geometry, [2, 3, 4], n_eigs=2)
        assert cli.main(["eigs", "--grid", "4", "5", "6", "--output",
                         str(tmp_path / "eigs.json")]) == 0
        assert cli.main(["assemble", "--grid", "4", "5", "6", "--prefix",
                         str(tmp_path / "pencil"), "--output",
                         str(tmp_path / "assemble.json")]) == 0
        assert built == []
        build_torus_mesh(geometry, (2, 3, 2))  # the counter sees a mesh
        assert built == [(2, 3, 2)]


def brute_orbits(grid, perms):
    """The orbits of the whole zone under k -> +-p.k, p in ``perms``, by
    enumeration: a list of frozensets of frequencies."""
    n = np.array(grid)
    seen, orbits = set(), []
    for k in np.ndindex(*grid):
        if k in seen:
            continue
        images = frozenset(tuple(int(x) for x in sign * np.array(k)[list(p)]
                                 % n)
                           for p in perms for sign in (1, -1))
        seen |= images
        orbits.append(images)
    return orbits


def half_zone_weights(grid):
    """The former weights of the half-zone blocks: 1 on the planes k3 = 0
    and, for even n3, k3 = n3/2, else 2 (a block and its conjugate)."""
    weight = np.full(grid[2] // 2 + 1, 2)
    weight[0] = 1
    if grid[2] % 2 == 0:
        weight[-1] = 1
    return np.broadcast_to(weight, grid[:2] + weight.shape).ravel()


SWAP_13 = [(0, 1, 2), (2, 1, 0)]
ALL_PERMS = sorted(itertools.permutations(range(3)))
# (sides, grid, the axis permutations of the pencil, blocks solved)
ORBIT_CASES = {
    "2^3": ((TAU,) * 3, (2, 2, 2), ALL_PERMS, 4),
    "3^3": ((TAU,) * 3, (3, 3, 3), ALL_PERMS, 6),
    "4^3": ((TAU,) * 3, (4, 4, 4), ALL_PERMS, 13),
    "5^3": ((TAU,) * 3, (5, 5, 5), ALL_PERMS, 19),
    "6^3": ((TAU,) * 3, (6, 6, 6), ALL_PERMS, 32),
    "7^3": ((TAU,) * 3, (7, 7, 7), ALL_PERMS, 44),
    "8^3": ((TAU,) * 3, (8, 8, 8), ALL_PERMS, 65),
    "2x3x2": ((TAU, 2.5 * np.pi, TAU), (2, 3, 2), SWAP_13, 6),
    "4x5x6": ((TAU, 2.5 * np.pi, 3.0 * np.pi), (4, 5, 6), [(0, 1, 2)], 62),
    "cube-cell-3x4x3": ((3.0, 4.0, 3.0), (3, 4, 3), SWAP_13, 14),
    "thin": ((1e-3 * TAU, TAU, TAU), (3, 3, 3), [(0, 1, 2), (0, 2, 1)],
             10),
    "1+1e-7": ((1.0, 1.0, 1.0 + 1e-7), (3, 3, 3), [(0, 1, 2), (1, 0, 2)],
               10),
}


class TestOrbitSolve:
    @pytest.mark.parametrize("name", ORBIT_CASES)
    def test_orbits_and_their_blocks(self, name, monkeypatch):
        sides, grid, perms, solved = ORBIT_CASES[name]
        A, M = stencil_operators(TorusGeometry(*sides), grid)
        # the group read off the blocks: on (1, 1, 1 + 1e-7) A keeps all
        # six permutations to roundoff, M only those that fix axis 3
        assert spectrum._symmetries(A, M).tolist() == [list(p)
                                                      for p in perms]
        orbits = brute_orbits(grid, perms)
        reps, weight = spectrum._orbits(grid, np.array(perms))
        assert len(reps) == len(orbits) == solved
        # each orbit's first half-zone member in np.ndindex order, and
        # its size in the whole zone
        half = grid[:2] + (grid[2] // 2 + 1,)
        size = {int(np.ravel_multi_index(min(k for k in o if k[2] < half[2]),
                                         half)): len(o) for o in orbits}
        assert reps.tolist() == sorted(size)
        assert weight.tolist() == [size[r] for r in sorted(size)]
        assert 7 * weight.sum() == A.shape[0]

        calls = []
        solve_blocks = spectrum._solve_blocks

        def counted(Ak, Mk):
            out = solve_blocks(Ak, Mk)
            calls.append((Ak, Mk, out[0]))
            return out

        monkeypatch.setattr(spectrum, "_solve_blocks", counted)
        res = solve_pencil(A, M)
        assert sum(len(Ak) for Ak, _, _ in calls) == solved
        assert res.eigenvalues.size == A.shape[0]
        assert res.kernel_dim == 3 * A.shape[0] // 7 + 3
        # a solved block is the half-zone symbol, and its eigenvalues are
        # those of the whole half zone in one call, bit for bit
        Ak, Mk = (S.symbols().reshape(-1, 7, 7) for S in (A, M))
        whole = solve_blocks(Ak, Mk)[0]
        assert np.array_equal(np.concatenate([a for a, _, _ in calls]),
                              Ak[reps])
        assert np.array_equal(np.concatenate([m for _, m, _ in calls]),
                              Mk[reps])
        assert np.array_equal(np.concatenate([w for _, _, w in calls]),
                              whole[reps])
        # against every half-zone block solved on its own by scipy, with
        # the half-zone weights
        oracle = np.sort(np.repeat(block_eigenvalues(A, M),
                                   half_zone_weights(grid), axis=0).ravel())
        scale = np.abs(oracle).max()
        if name == "thin":
            # a block is solved to about eps ||A^|| ||M^-1|| (the
            # Cholesky reduction), 1.3e7 of max|lambda| on this cell, so
            # similar blocks differ by 2.8e-11 of it
            Ah = 0.5 * (Ak + Ak.conj().swapaxes(-1, -2))
            scale = (np.linalg.norm(Ah, 2, axis=(-2, -1))
                     / np.linalg.svd(Mk, compute_uv=False)[:, -1]).max()
        assert np.abs(res.eigenvalues - oracle).max() <= 1e-14 * scale

    def test_symmetries_need_both_operators_and_the_grid(self):
        # A alone keeps every permutation on (1, 1, 1 + 1e-7); the grid
        # counts decide on a cubic cell
        A, M = stencil_operators(TorusGeometry(1.0, 1.0, 1.0 + 1e-7),
                                 (3, 3, 3))
        assert len(spectrum._symmetries(A, A)) == 6
        assert len(spectrum._symmetries(M, M)) == 2
        A, M = stencil_operators(TorusGeometry(2.0, 3.0, 4.0), (2, 3, 4))
        assert spectrum._symmetries(A, M).tolist() == [[0, 1, 2]]

    def test_group_closed_under_composition(self, monkeypatch):
        # two transpositions generate all six permutations, and a 3-cycle
        # its inverse too; the other images are made to fail the check
        A, M = stencil_operators(TorusGeometry(TAU, TAU, TAU), (3, 3, 3))
        perms, images = saint_venant._axis_permutations()
        for held, group in (((1, 2), 6), ((3,), 3), ((5,), 2)):
            blocked = images.copy()
            blocked[[j for j in range(1, 6) if j not in held]] \
                = images[0][::-1]
            monkeypatch.setattr(spectrum, "_axis_permutations",
                                lambda: (perms, blocked))
            assert len(spectrum._symmetries(A, M)) == group

    def test_slabs_skip_planes_without_a_representative(self, monkeypatch):
        # at 16^3, one k1 plane a slab, only the planes k1 <= 8 hold an
        # orbit's first member
        A, M = stencil_operators(TorusGeometry(TAU, TAU, TAU), (16,) * 3)
        planes = []
        symbols = BlockCirculant.symbols

        def counted(self, k1=slice(None)):
            planes.append(k1.start)
            return symbols(self, k1)

        monkeypatch.setattr(spectrum, "_SLAB_BLOCKS", 1)
        monkeypatch.setattr(BlockCirculant, "symbols", counted)
        res = solve_pencil(A, M)
        assert sorted(set(planes)) == list(range(9))
        assert res.kernel_dim == 3 * 16 ** 3 + 3


class TestClusters:
    def test_grid4_cluster_structure(self, geometry, pencil4):
        res = solve_pencil(*pencil4)
        oracle = fourier_oracle(geometry, 4.5)
        clusters = assign_clusters(res, oracle, 2)
        by_target = {c.target: c for c in clusters}
        pos, neg = by_target[1.0], by_target[-1.0]
        assert pos.multiplicity == 6 and len(pos.eigenvalues) == 6
        assert neg.multiplicity == 12 and len(neg.eigenvalues) == 12
        assert np.all(pos.eigenvalues > 0) and np.all(neg.eigenvalues < 0)
        # tight physical clusters at this resolution
        assert np.ptp(pos.eigenvalues) < 0.05
        assert np.ptp(neg.eigenvalues) < 0.05
        assert pos.rel_error < 0.4 and neg.rel_error < 0.4

    def test_indices_locate_cluster_eigenvalues(self, geometry, pencil4):
        res = solve_pencil(*pencil4)
        before = res.to_dict()
        clusters = assign_clusters(res, fourier_oracle(geometry, 20.0), 3)
        assert res.to_dict() == before  # the result is not annotated
        taken = np.concatenate([c.indices for c in clusters])
        assert len(set(taken.tolist())) == len(taken)
        for c in clusters:
            assert np.array_equal(res.eigenvalues[c.indices], c.eigenvalues)

    def test_fewer_oracle_targets_than_requested(self, geometry, pencil2):
        res = solve_pencil(*pencil2)
        with pytest.raises(ValueError, match="2 targets .* fewer than the 5"):
            assign_clusters(res, fourier_oracle(geometry, 1.5), 5)
        with pytest.raises(ValueError, match="0 targets"):
            assign_clusters(res, fourier_oracle(geometry, 0.5), 2)

    def test_study_monotone_decay(self, geometry):
        study = convergence_study(geometry, [2, 3, 4], n_eigs=2)
        assert set(study["monotone"]) == {1.0, -1.0}
        assert all(study["monotone"].values())
        assert len(study["rows"]) == 6
        # frozen regression baseline of the cluster means
        expect = {
            (2, -1.0): -0.362083498811, (2, 1.0): 0.368549509935,
            (3, -1.0): -0.520703827126, (3, 1.0): 0.506279782243,
            (4, -1.0): -0.664815210820, (4, 1.0): 0.654546740619,
        }
        for row in study["rows"]:
            key = (row["grid"][0], row["target"])
            assert abs(row["cluster_mean"] - expect[key]) < 1e-6

    def test_study_single_grid(self, geometry):
        study = convergence_study(geometry, [2], n_eigs=2)
        assert study["monotone"] == {}
        assert len(study["rows"]) == 2

    def test_study_input_validation(self, geometry):
        with pytest.raises(ValueError, match="empty"):
            convergence_study(geometry, [])
        with pytest.raises(ValueError, match="increasing"):
            convergence_study(geometry, [3, 2])
