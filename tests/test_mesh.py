import json
import warnings

import numpy as np
import pytest

from conftest import edge_star, face_tables, lifted_points, per_edge
from golden import digest
from oracles import metric_dihedral_angles
from reggefem import MeshError, ReggeField, TorusGeometry, apply_ctc, \
    assemble_mass, assemble_stiffness, build_torus_mesh, holonomy_deficits, \
    linearized_deficits, mesh_summary
from reggefem.action import euclidean_lengths, random_realizable_config, \
    tet_metrics_from_lengths
from reggefem.mesh import _STARS, LOCAL_EDGES, _edge_tets, _star_faces

TAU = 2.0 * np.pi

# The edge templates, one row per direction d of the edges 7v + d.
PER_DIRECTION = {"edge_length", "edge_tangent", "edge_vec"}

# First 16 hex digits of the SHA-256 of every attribute of build_torus_mesh
# (see _fingerprint), recorded from the per-simplex reference builder; the
# tet and face templates (tet_coords, tet_rho, face_m, face_n)
# equal its first 6 or 12 rows bit for bit, and tet_volume its first
# entry.  The per-direction edge_length, edge_tangent and edge_vec are
# digested repeated to one row per edge, and face_edges and face_tets are
# the tables of mesh_summary, as the builders that stored them held them.
GOLDEN_GRIDS = {
    "2x2x2": ((2, 2, 2), (TAU, TAU, TAU)),
    "3x3x3": ((3, 3, 3), (TAU, TAU, TAU)),
    "3x2x2": ((3, 2, 2), (TAU, 3.0, 5.0)),
    "4x5x6": ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
}
GOLDEN = {
    "2x2x2": {
        "cell": "2dfbd19cb1692e08",
        "edge_head": "1edd28297ac1c89d",
        "edge_length": "13902fb889af30a5",
        "edge_star": "94998c6fca69e52f",
        "edge_tail": "d8bcc87c019bd407",
        "edge_tangent": "c6e713c19c0529f7",
        "edge_vec": "a4264678cb79d4a4",
        "face_edges": "0628b4fbbe0305cb",
        "face_m": "03d82314e9ddabae",
        "face_n": "8b24f2b170e2de83",
        "face_tets": "7a5c17d363b3173e",
        "geometry": "57c83e798efe21a7",
        "grid": "c8ead7daa57273e9",
        "tet_coords": "ca2a3b93205595c3",
        "tet_edges": "617a6c345767d483",
        "tet_rho": "2867af046826a6f5",
        "tet_volume": "2655bba7740fac26",
        "vertex_pos": "f5a9bb3d9b9baf03",
    },
    "3x2x2": {
        "cell": "d63e25afa38928b1",
        "edge_head": "8132b59725eaf05b",
        "edge_length": "d21f55f609f7d93a",
        "edge_star": "69d1e113f8baeef6",
        "edge_tail": "d8ee7f6e80752e48",
        "edge_tangent": "9a48f0929cf2470b",
        "edge_vec": "be4bf4ac189bb34e",
        "face_edges": "4d7d975e85733994",
        "face_m": "cfb7d47f8e9977f8",
        "face_n": "eee4b28c5bf79a6e",
        "face_tets": "0d1a4b057f2aa6a1",
        "geometry": "bfdc9a84a69b69fc",
        "grid": "2de320b5c8879a43",
        "tet_coords": "79af9382242581b6",
        "tet_edges": "acfae813c6db1ab1",
        "tet_rho": "fd990b027d4cf43c",
        "tet_volume": "e9dc19d8da91c9c6",
        "vertex_pos": "bf417313231d1b24",
    },
    "3x3x3": {
        "cell": "8e21d587fa973311",
        "edge_head": "71804ea9ae9aa13c",
        "edge_length": "cdc60b1bf09b9952",
        "edge_star": "33c0d3da08dcce69",
        "edge_tail": "1acbd474e8fb2c85",
        "edge_tangent": "0cf221b05d296de1",
        "edge_vec": "fbcb7df7907edb03",
        "face_edges": "e4fa84ec1812b23c",
        "face_m": "9e14070e8ce3bae6",
        "face_n": "0898b8e9ae932cbe",
        "face_tets": "bef102a5707dc411",
        "geometry": "57c83e798efe21a7",
        "grid": "ebf16796deae7672",
        "tet_coords": "79ea098d18e078a1",
        "tet_edges": "59d4d3f424ac47a7",
        "tet_rho": "8b9f2b60cfe38f49",
        "tet_volume": "d8573b2c884ddc5c",
        "vertex_pos": "62ebc45b41d1c41b",
    },
    "4x5x6": {
        "cell": "410a455457be75c0",
        "edge_head": "db7863d6dae341c9",
        "edge_length": "d6463e1bd6d55238",
        "edge_star": "c3d2b506594b270f",
        "edge_tail": "00ba6786c413a55b",
        "edge_tangent": "5d98713f2ef04ad4",
        "edge_vec": "ea82bd915fbeb738",
        "face_edges": "bd226cfa005b5754",
        "face_m": "03d82314e9ddabae",
        "face_n": "8b24f2b170e2de83",
        "face_tets": "92cf65962e6ebe4b",
        "geometry": "11706c8772d59b24",
        "grid": "f373fe8d1d0430c6",
        "tet_coords": "7dd7da561e110254",
        "tet_edges": "09270752b97df9ad",
        "tet_rho": "7dec498cdad44ff6",
        "tet_volume": "20768468f1705add",
        "vertex_pos": "01025935a53f9542",
    },
}


# Per-edge incidence in array form (ascending faces, the slot of the edge in
# each of them, ascending tets) and the JSON of the full-incidence summary
# (see _incidence_fingerprint), recorded from the builder that stored
# per-edge lists.
GOLDEN_INCIDENCE = {
    "2x2x2": {"faces": "a778daf2d5ab9d39", "slots": "3bb45745faeaee82",
              "tets": "a12e22f956c3f87a", "summary": "495aad037fc99db6"},
    "3x2x2": {"faces": "b8b7d4a27bb889ae", "slots": "c78ad68ef3bb1b0f",
              "tets": "83d021cf3aad6dd0", "summary": "c034d030ab495fab"},
    "3x3x3": {"faces": "9537bb86c9f73d34", "slots": "218dc933f64b9dea",
              "tets": "d49b17b9fe45816c", "summary": "01cd3c301ad057e3"},
    "4x5x6": {"faces": "7db223cdee590124", "slots": "bb7963e78b117cc3",
              "tets": "89cd15d45e7abf45", "summary": "5915d1862220d781"},
}


def canonical_simplices(mesh):
    """Independent enumeration: canonicalize all sub-simplices of the tets
    by quotienting out lattice translations."""
    n = np.array(mesh.grid)
    verts, edges, faces, tets = set(), set(), set(), set()

    def canon(points):
        pts = np.atleast_2d(points)
        tau = pts.min(axis=0) // n
        return tuple(sorted(tuple(int(x) for x in p) for p in pts - tau * n))

    for lat in lifted_points(mesh, "tet"):
        tets.add(canon(lat))
        for i in range(4):
            verts.add(canon(lat[i]))
            faces.add(canon(lat[[m for m in range(4) if m != i]]))
            for j in range(i + 1, 4):
                edges.add(canon(lat[[i, j]]))
    return verts, edges, faces, tets


class TestCounts:
    def test_freudenthal_counts_2(self, mesh2):
        assert (mesh2.num_vertices, mesh2.num_edges, mesh2.num_faces,
                mesh2.num_tets) == (8, 56, 96, 48)

    def test_counts_match_enumeration(self, mesh2, mesh3):
        for mesh in (mesh2, mesh3):
            v, e, f, t = canonical_simplices(mesh)
            assert (len(v), len(e), len(f), len(t)) == (
                mesh.num_vertices, mesh.num_edges, mesh.num_faces,
                mesh.num_tets)
            n = mesh.num_vertices
            assert (len(e), len(f), len(t)) == (7 * n, 12 * n, 6 * n)

    def test_euler_characteristic_zero(self, mesh3):
        s = mesh_summary(mesh3)
        assert s["euler_characteristic"] == 0

    @pytest.mark.parametrize("grid", [(1, 1, 1), (1, 2, 2), (2, 2, 1)])
    def test_too_coarse_rejected(self, geometry, grid):
        with pytest.raises(MeshError, match="too coarse"):
            build_torus_mesh(geometry, grid)

    def test_bad_geometry_rejected(self):
        with pytest.raises(MeshError):
            TorusGeometry(1.0, -2.0, 3.0)

    @pytest.mark.parametrize("lengths", [(1e-170, 1.0, 1.0),
                                         (1e200, 1.0, 1.0),
                                         (1e-300, 1e-300, 1e-300),
                                         (1e-103, 1.0, 1.0),
                                         (1.0, 1e-70, 1e100)])
    def test_geometry_beyond_double_precision_rejected(self, lengths):
        # a squared length underflows to 0, or a squared length, the volume,
        # a basis matrix or a mass entry overflows; no float warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match="non-finite cell geometry"):
                build_torus_mesh(TorusGeometry(*lengths), (2, 2, 2))


class TestGeometry:
    def test_equal_tet_volumes_grid3(self, mesh3):
        expect = (TAU / 3) ** 3 / 6.0
        assert abs(mesh3.tet_volume - expect) < 1e-13
        p = lifted_points(mesh3, "tet") * mesh3.cell
        vol = np.abs(np.linalg.det((p[:, 1:] - p[:, :1]).mT)) / 6.0
        assert np.abs(vol - expect).max() < 1e-13

    def test_tets_congruent_under_translation(self, mesh3):
        # quasi-uniformity: per-box shapes repeat exactly
        rel = lifted_points(mesh3, "tet") * mesh3.cell
        rel -= rel[:, :1]
        template = mesh3.tet_coords - mesh3.tet_coords[:, :1]
        assert np.abs(template - rel.reshape(-1, 6, 4, 3)).max() < 1e-12

    def test_lifted_shifts_in_unit_box(self, mesh2, mesh3):
        for mesh in (mesh2, mesh3):
            lat = lifted_points(mesh, "tet")
            rel = lat - lat[:, :1]
            assert rel.min() >= 0 and rel.max() <= 1

    def test_edge_orientation_lexicographic(self, mesh3):
        # t_e points from the lower lifted endpoint to the higher
        tail = lifted_points(mesh3, "edge")[:, 0]
        head = tail + (per_edge(mesh3, mesh3.edge_vec) / mesh3.cell
                       + 0.5).astype(int)
        for e in range(0, mesh3.num_edges, 11):
            assert tuple(tail[e]) < tuple(head[e])

    def test_frames_orthonormal_right_handed(self, mesh2):
        face_edges = face_tables(mesh2)[0]
        for f in range(mesh2.num_faces):
            for s in range(3):
                e = face_edges[f, s]
                m, n, t = (mesh2.face_m[f % 12, s], mesh2.face_n[f % 12, s],
                           mesh2.edge_tangent[e % 7])
                for a, b in ((m, n), (m, t), (n, t)):
                    assert abs(a @ b) < 1e-12
                for a in (m, n, t):
                    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
                det = np.linalg.det(np.stack([m, n, t], axis=1))
                assert abs(det - 1.0) < 1e-12

    def test_face_normal_matches_edge_frames_up_to_sign(self, mesh2):
        # the unit normal of each face from its lifted points
        p = lifted_points(mesh2, "face") * mesh2.cell
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        for f in range(mesh2.num_faces):
            for s in range(3):
                assert abs(abs(mesh2.face_n[f % 12, s] @ normal[f])
                           - 1.0) < 1e-12

    def test_dihedral_angles_sum_to_two_pi(self, mesh2, mesh3):
        for mesh in (mesh2, mesh3):
            mats = tet_metrics_from_lengths(mesh, euclidean_lengths(mesh))
            ang = metric_dihedral_angles(mesh, mats)
            total = np.zeros(mesh.num_edges)
            np.add.at(total, mesh.tet_edges.ravel(), ang.ravel())
            assert np.abs(total - TAU).max() < 1e-10

    def test_arrays_immutable(self, mesh2):
        with pytest.raises(ValueError):
            mesh2.edge_tangent[0, 0] = 1.0

    @pytest.mark.parametrize("grid", [(2, 2, 2), (4, 5, 6)])
    def test_every_public_array_read_only(self, geometry, grid):
        # every ndarray reachable from the mesh, private star arrays too
        mesh = build_torus_mesh(geometry, grid)
        arrays = _arrays(mesh)
        assert {"cell", "edge_tail", "edge_vec", "_star_tets[6]",
                "_star_frames[6].tm"} <= set(arrays)
        assert [k for k, v in arrays.items() if v.flags.writeable] == []
        assert not _edge_tets(mesh, 3).flags.writeable


class TestEdgeStar:
    @pytest.fixture
    def mesh(self, mesh2):
        return mesh2

    def test_body_diagonal_star_length_six(self, mesh):
        # oracle: brute-force scan of tet incidence
        diag = [e for e in range(mesh.num_edges) if e % 7 == 6]
        assert diag
        for e in diag:
            brute = sum(1 for t in range(mesh.num_tets)
                        if e in mesh.tet_edges[t])
            star = edge_star(mesh, e)
            assert brute == 6 and len(star) == 6

    def test_star_covers_incident_tets_once(self, mesh):
        # oracle: brute-force scan of tet incidence
        for e in range(mesh.num_edges):
            star = edge_star(mesh, e)
            tets = [t for _, t in star]
            brute = np.flatnonzero((mesh.tet_edges == e).any(axis=1))
            assert sorted(tets) == brute.tolist()
            assert len(set(tets)) == len(tets)

    def test_consecutive_faces_share_sector_tet(self, mesh):
        face_tets = face_tables(mesh)[1]
        for e in range(0, mesh.num_edges, 5):
            star = edge_star(mesh, e)
            for i, (f, t) in enumerate(star):
                g = star[(i + 1) % len(star)][0]
                assert t in face_tets[f] and t in face_tets[g]

    def test_angles_strictly_increase(self, mesh):
        face_edges = face_tables(mesh)[0]
        for e in range(0, mesh.num_edges, 3):
            star = edge_star(mesh, e)
            te = mesh.edge_tangent[e % 7]
            ms = []
            for f, _ in star:
                s = list(face_edges[f]).index(e)
                ms.append(mesh.face_m[f % 12, s])
            r1 = ms[0]
            r2 = np.cross(te, r1)
            ang = np.unwrap([np.arctan2(m @ r2, m @ r1) for m in ms])
            assert np.all(np.diff(ang) > 1e-9)

    def test_invalid_edge_rejected(self, mesh):
        for e in (-1, mesh.num_edges):
            with pytest.raises(MeshError, match=f"^invalid edge id {e}$"):
                _edge_tets(mesh, e)

    def test_one_star_is_its_row_of_the_table(self, mesh):
        # the error path forms one vertex's faces, the summary every row
        for d in range(7):
            table = _star_faces(mesh, d)
            assert table.shape == (mesh.num_vertices, len(_STARS[d][1]))
            for v in range(mesh.num_vertices):
                assert np.array_equal(_star_faces(mesh, d, v), table[v])


class TestPeriodicity:
    def test_translation_invariance(self, mesh2, mesh3):
        # mesh maps to itself under unit-box translations (after relabeling)
        for mesh in (mesh2, mesh3):
            n = np.array(mesh.grid)
            base = canonical_simplices(mesh)
            for axis in range(3):
                shift = np.zeros(3, dtype=int)
                shift[axis] = 1

                def canon(pts):
                    p = np.atleast_2d(pts) + shift
                    tau = p.min(axis=0) // n
                    return tuple(sorted(tuple(int(x) for x in q)
                                        for q in p - tau * n))

                moved = {canon(lat) for lat in lifted_points(mesh, "tet")}
                assert moved == base[3]

    def test_parallel_edges_at_n2(self, mesh2):
        # n=2 wraps create distinct edges sharing a vertex pair
        e1 = mesh2.edge_id((0, 0, 0), (1, 0, 0))
        e2 = mesh2.edge_id((1, 0, 0), (1, 0, 0))
        assert e1 != e2
        pair1 = {mesh2.edge_tail[e1], mesh2.edge_head[e1]}
        pair2 = {mesh2.edge_tail[e2], mesh2.edge_head[e2]}
        assert pair1 == pair2
        # both are genuine edges with their own stars (brute-force counts)
        for e in (e1, e2):
            brute = sum(1 for t in range(mesh2.num_tets)
                        if e in mesh2.tet_edges[t])
            assert len(edge_star(mesh2, e)) == brute

    def test_every_face_has_two_distinct_tets(self, mesh2):
        face_tets = face_tables(mesh2)[1]
        assert np.all(face_tets[:, 0] != face_tets[:, 1])


# Tori for the face gluing checks: n_i = 2 wraps, unequal grids and sides.
GLUING_TORI = {
    "2x2x2": ((2, 2, 2), (TAU, TAU, TAU)),
    "2x3x2": ((2, 3, 2), (TAU, 2.5 * np.pi, TAU)),
    "4x5x6": ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
    "5x7x3": ((5, 7, 3), (1.0, 2.0, 3.0)),
}


def _torus(label):
    grid, lengths = GLUING_TORI[label]
    return build_torus_mesh(TorusGeometry(*lengths), grid)


class TestEdgeStarAnisotropic(TestEdgeStar):
    """The star tests, and the two-tet check of every face, on anisotropic
    tori."""

    @pytest.fixture(scope="class", params=["4x5x6", "5x7x3"])
    def mesh(self, request):
        return _torus(request.param)

    def test_every_face_has_two_distinct_tets(self, mesh):
        TestPeriodicity.test_every_face_has_two_distinct_tets(self, mesh)


def lifted_opposite_points(mesh, faces, tets):
    """For every face ``faces[i]``, the lattice point of tet ``tets[i]``
    off the face, lifted next to the face's own lifted points.  Asserts
    that the tet, moved by a period, holds the face.  Uses lattice points
    only."""
    n = np.array(mesh.grid)
    face = lifted_points(mesh, "face", faces)
    tet = lifted_points(mesh, "tet", tets)
    diff = face[:, :, None] - tet[:, None]  # (F, 3 face points, 4, 3)
    same = (diff % n == 0).all(axis=-1)
    assert np.all(same.sum(axis=-1) == 1)
    shift = diff[same].reshape(-1, 3, 3)
    assert np.all(shift == shift[:, :1])
    off = ~same.any(axis=1)
    assert np.all(off.sum(axis=1) == 1)
    return tet[off] + shift[:, 0]


class TestFaceGluing:
    """Independent geometric check, from the lifted lattice points of the
    faces and tets, of mesh_summary's face_tets and of the star convention
    the stencil tables read: face i of a star lies between sectors i-1 and
    i, and its n_ef points into sector i, away from sector i-1."""

    @pytest.mark.parametrize("label", sorted(GLUING_TORI))
    def test_face_tets_lie_on_either_side(self, label):
        mesh = _torus(label)
        faces = np.arange(mesh.num_faces)
        face_tets = face_tables(mesh)[1]
        assert np.all(face_tets[:, 0] < face_tets[:, 1])
        p = lifted_points(mesh, "face") * mesh.cell
        # (F, 2, 3): offset of each tet's off-face point from the face
        opp = np.stack([lifted_opposite_points(mesh, faces,
                                               face_tets[:, k])
                        * mesh.cell for k in (0, 1)], axis=1) \
            - p.mean(axis=1)[:, None]
        normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        side = np.vecdot(opp, normal[:, None])
        assert np.all(side[:, 0] * side[:, 1] < 0)
        # every (face, slot) pair lies in one star, between the face's two
        # tets, with n_ef pointing into sector i and away from sector i-1
        seen = np.zeros((mesh.num_faces, 3), dtype=np.int64)
        for d, t in enumerate(mesh._star_tets):
            f = _star_faces(mesh, d)
            s = np.broadcast_to(_STARS[d][2], f.shape).ravel()
            prev = np.roll(t, 1, axis=1).ravel()
            f, t = f.ravel(), t.ravel()
            seen[f, s] += 1
            assert np.array_equal(np.sort(np.stack([prev, t], axis=1)),
                                  face_tets[f])
            n = mesh.face_n[f % 12, s]
            centre = p[f].mean(axis=1)
            for tets, sign in ((t, 1), (prev, -1)):
                q = lifted_opposite_points(mesh, f, tets) * mesh.cell - centre
                assert np.all(sign * np.vecdot(q, n) > 0)
        assert np.all(seen == 1)


def _translate_geometry(mesh):
    """Geometry of every tet and face, recomputed from its own lifted
    points: basis matrices (T, 6, 3, 3), volumes (T,) and the (m_ef, n_ef)
    frames (F, 3, 3) of the face slots."""
    p = lifted_points(mesh, "tet") * mesh.cell
    B = np.stack([p[:, i] - p[:, 0] for i in (1, 2, 3)], axis=-1)
    Binv = np.linalg.inv(B)
    grad = np.concatenate([-Binv.sum(axis=1, keepdims=True), Binv], axis=1)
    rho = np.empty((len(p), 6, 3, 3))
    for a, (i, j) in enumerate(LOCAL_EDGES):
        gi, gj = grad[:, i], grad[:, j]
        rho[:, a] = -0.5 * (np.einsum("ti,tj->tij", gi, gj)
                            + np.einsum("ti,tj->tij", gj, gi))
    q = lifted_points(mesh, "face") * mesh.cell
    m, n = np.empty((2, len(q), 3, 3))
    for s, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
        t = q[:, b] - q[:, a]
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        w = q[:, 3 - a - b] - q[:, a]
        ms = w - np.einsum("fi,fi->f", w, t)[:, None] * t
        m[:, s] = ms / np.linalg.norm(ms, axis=1, keepdims=True)
        n[:, s] = np.cross(t, m[:, s])
    return rho, np.abs(np.linalg.det(B)) / 6.0, m, n


class TestShapeTemplates:
    @pytest.mark.parametrize("grid, lengths", [
        ((2, 2, 2), (TAU, TAU, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
        ((16, 16, 16), (TAU, TAU, TAU)),
    ], ids=["2x2x2", "4x5x6", "16x16x16"])
    def test_templates_match_every_translate(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rho, vol, m, n = _translate_geometry(mesh)
        tet = np.arange(mesh.num_tets) % 6
        face = np.arange(mesh.num_faces) % 12
        pairs = [(rho, mesh.tet_rho[tet]),
                 (vol, np.full(mesh.num_tets, mesh.tet_volume)),
                 (m, mesh.face_m[face]), (n, mesh.face_n[face])]
        for every, template in pairs:
            rel = np.abs(every - template).max() / np.abs(template).max()
            assert rel <= 1e-14
        assert np.prod(mesh.cell) / 6.0 == pytest.approx(mesh.tet_volume,
                                                         rel=1e-15)

    def test_no_per_simplex_float_arrays(self):
        # float geometry is O(1) templates; the O(V) incidence stays
        mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (16, 16, 16))
        arrays = [a for v in vars(mesh).values()
                  for a in (v if isinstance(v, list) else [v])
                  if isinstance(a, np.ndarray)]
        sizes = {mesh.num_tets, mesh.num_faces}
        assert [a.shape for a in arrays if a.dtype.kind == "f"
                and sizes & set(a.shape)] == []
        assert sum(a.nbytes for a in arrays) <= 12e6


def _arrays(mesh) -> dict:
    """Every ndarray the mesh holds, by attribute name (name[i] for the
    entries of a list attribute, name[i].field for the fields of a named
    tuple entry)."""
    out = {}
    for name, value in vars(mesh).items():
        items = value if isinstance(value, list) else [value]
        for i, a in enumerate(items):
            key = f"{name}[{i}]" if isinstance(value, list) else name
            if hasattr(a, "_asdict"):
                out.update({f"{key}.{field}": v
                            for field, v in a._asdict().items()})
            elif isinstance(a, np.ndarray):
                out[key] = a
    return out


class TestStorage:
    def test_only_incidence_scales_with_the_grid(self):
        # the arrays whose shape changes with the grid are the vertex
        # positions, the tet edges, the edge ends and the star tets, 712
        # bytes per vertex; every other array is a one-box template
        lengths = (TAU, 2.5 * np.pi, 3.0 * np.pi)
        mesh = build_torus_mesh(TorusGeometry(*lengths), (4, 5, 6))
        small = _arrays(build_torus_mesh(TorusGeometry(*lengths), (2, 2, 2)))
        arrays = _arrays(mesh)
        assert arrays.keys() == small.keys()
        scaling = {k for k, a in arrays.items() if a.shape != small[k].shape}
        assert {k.split("[")[0] for k in scaling} == {
            "vertex_pos", "tet_edges", "edge_tail", "edge_head", "_star_tets"}
        V = mesh.num_vertices
        assert {arrays[k].shape[0] for k in scaling} <= {V, 6 * V, 7 * V}
        assert sum(arrays[k].nbytes for k in scaling) == 712 * V
        assert max(a.size for k, a in arrays.items()
                   if k not in scaling) <= mesh.tet_rho.size
        assert not any(hasattr(mesh, name) for name in (
            "face_tets", "face_edges", "_star_faces", "_star_slots"))

    def test_the_mesh_is_never_written(self):
        # the operators are kept per geometry and grid, not on the mesh:
        # after every route that reads them, and a matrix read, the mesh
        # holds the attributes and objects build_torus_mesh gave it
        mesh = build_torus_mesh(TorusGeometry(TAU, 2.5 * np.pi, 3.0 * np.pi),
                                (4, 5, 6))
        before = dict(vars(mesh))
        rng = np.random.default_rng(41)
        u = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
        cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
        A = assemble_stiffness(mesh)
        assemble_mass(mesh)
        apply_ctc(mesh, u)
        linearized_deficits(mesh, u)
        holonomy_deficits(mesh, cfg)
        assert A.matrix.shape == (mesh.num_edges,) * 2
        assert vars(mesh).keys() == before.keys()
        assert all(vars(mesh)[k] is v for k, v in before.items())


class TestQueries:
    def test_summary_roundtrip(self, mesh2):
        import json
        s = mesh_summary(mesh2, include_incidence=True)
        payload = json.loads(json.dumps(s))
        assert payload["counts"]["edges"] == 56
        assert len(payload["incidence"]["face_tets"]) == 96


def _fingerprint(mesh) -> dict:
    out = {name: digest(per_edge(mesh, value) if name in PER_DIRECTION
                        else value)
           for name, value in vars(mesh).items() if not name.startswith("_")}
    out["face_edges"], out["face_tets"] = map(digest, face_tables(mesh))
    out["edge_star"] = digest([edge_star(mesh, e)
                               for e in range(mesh.num_edges)])
    return out


def _incidence_fingerprint(mesh) -> dict:
    faces, slots, tets = [], [], []
    face_edges = face_tables(mesh)[0]
    for e in range(mesh.num_edges):
        f = np.sort(_star_faces(mesh, e % 7, e // 7))
        faces.append(f)
        slots.append(np.argmax(face_edges[f] == e, axis=1))
        tets.append(np.sort(_edge_tets(mesh, e)))
    summary = json.dumps(mesh_summary(mesh, include_incidence=True))
    return {"faces": digest(faces), "slots": digest(slots),
            "tets": digest(tets), "summary": digest(summary)}


class TestGoldenFingerprints:
    @pytest.mark.parametrize("label", sorted(GOLDEN_GRIDS))
    def test_attributes_bit_identical(self, label):
        grid, lengths = GOLDEN_GRIDS[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        assert _fingerprint(mesh) == GOLDEN[label]
        assert all(v.flags.c_contiguous for v in vars(mesh).values()
                   if isinstance(v, np.ndarray))

    @pytest.mark.parametrize("label", sorted(GOLDEN_GRIDS))
    def test_incidence_bit_identical(self, label):
        grid, lengths = GOLDEN_GRIDS[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        assert _incidence_fingerprint(mesh) == GOLDEN_INCIDENCE[label]

    @pytest.mark.parametrize("label", sorted(GOLDEN_GRIDS))
    def test_stored_star_slots_reproduce_pinned_slots(self, label):
        # the slots of the star templates, which every star of a direction
        # shares, in ascending face order as the fingerprint's argmax
        # search lists them
        grid, lengths = GOLDEN_GRIDS[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        face_edges = face_tables(mesh)[0]
        slots = []
        for e in range(mesh.num_edges):
            faces = _star_faces(mesh, e % 7, e // 7)
            stored = _STARS[e % 7][2]
            assert np.array_equal(face_edges[faces, stored],
                                  np.full(len(faces), e))
            slots.append(stored[np.argsort(faces)])
        assert digest(slots) == GOLDEN_INCIDENCE[label]["slots"]
