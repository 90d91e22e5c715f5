import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_metric, face_tables, lifted_points, \
    per_edge
from golden import digest
from reggefem import (EdgeLengthConfig, RealizabilityError, ReggeField,
                      assemble_stiffness, build_edge_sector, build_torus_mesh,
                      deficit_angle_dihedral, deficit_angle_holonomy,
                      deficit_angles, edge_jump_scalar, edge_star,
                      euclidean_lengths, holonomy_deficits,
                      linearized_deficit, linearized_deficits,
                      perturbed_lengths, regge_action, schlafli_check,
                      second_variation_check)
from reggefem import action as action_module
from reggefem.action import (_SYM, CM_DET_RTOL, _dihedral_cs,
                             _gram_adjugate, _unit_normals,
                             cayley_menger_determinant,
                             max_realizable_epsilon, metric_dihedral_angles,
                             random_realizable_config,
                             tet_metrics_from_lengths)
from reggefem.mesh import _BOX_EDGE_DIRS, _STARS, _TET_SLOTS, LOCAL_EDGES, \
    TorusGeometry, _edge_tets, _star_arrays
from reggefem.spaces import (VertexVectorField, deformation,
                             regge_to_tet_matrices)

TAU = 2.0 * np.pi


EXACT_GRIDS = [((2, 2, 2), (TAU, TAU, TAU)),
               ((3, 3, 3), (TAU, TAU, TAU)),
               ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi))]
EXACT_IDS = ["2x2x2", "3x3x3", "4x5x6"]


class TestConfigs:
    def test_positive_lengths_required(self, mesh2):
        s = per_edge(mesh2, mesh2.edge_length) ** 2
        s[0] = -1.0
        with pytest.raises(RealizabilityError):
            EdgeLengthConfig(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_lengths_required(self, mesh2, bad):
        s = per_edge(mesh2, mesh2.edge_length) ** 2
        s[0] = bad
        with pytest.raises(RealizabilityError, match="finite"):
            EdgeLengthConfig(s)

    @pytest.mark.parametrize("payload", [
        [1, 2, 3], 5, None, {}, {"lengths": [1.0]},
        {"squared_lengths": "abc"}, {"squared_lengths": [[1.0], [1.0, 2.0]]},
        {"squared_lengths": [1.0, None]}, {"squared_lengths": [-1.0]},
        {"squared_lengths": [float("nan")]},
    ])
    def test_from_json_rejects_malformed_payload(self, payload):
        with pytest.raises(ValueError):
            EdgeLengthConfig.from_json(payload)

    def test_json_roundtrip(self, mesh2):
        cfg = euclidean_lengths(mesh2)
        back = EdgeLengthConfig.from_json(json.loads(json.dumps(
            cfg.to_json())))
        assert np.array_equal(back.squared_lengths, cfg.squared_lengths)

    def test_perturbed_lengths_are_linear_in_coefficients(self, mesh2):
        rng = np.random.default_rng(0)
        up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        cfg = perturbed_lengths(mesh2, up, 1e-3)
        expect = per_edge(mesh2, mesh2.edge_length) ** 2 + 1e-3 * up.coeffs
        assert np.array_equal(cfg.squared_lengths, expect)


class TestMetricReconstruction:
    def test_euclidean_gives_identity(self, mesh2):
        mats = tet_metrics_from_lengths(mesh2, euclidean_lengths(mesh2))
        assert np.abs(mats - np.eye(3)).max() < 1e-12

    def test_perturbation_exact(self, mesh2):
        rng = np.random.default_rng(1)
        up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        eps = 1e-2
        mats = tet_metrics_from_lengths(mesh2,
                                        perturbed_lengths(mesh2, up, eps))
        from reggefem.spaces import regge_to_tet_matrices
        expect = np.eye(3) + eps * regge_to_tet_matrices(mesh2, up)
        assert np.abs(mats - expect).max() < 1e-13

    def test_cayley_menger_on_euclidean_tet(self, mesh2):
        t = 4
        p = lifted_points(mesh2, "tet", t) * mesh2.cell
        s = np.array([np.sum((p[j] - p[i]) ** 2) for i, j in LOCAL_EDGES])
        cm = cayley_menger_determinant(s)
        vol = mesh2.tet_volume
        assert abs(cm - 288.0 * vol**2) < 1e-8 * abs(cm)

    def test_degenerate_lengths_rejected_with_tet_tag(self, mesh2):
        s = per_edge(mesh2, mesh2.edge_length) ** 2
        # collapse one tet: force a long edge to violate realizability
        t = 10
        s[mesh2.tet_edges[t, 0]] *= 60.0
        with pytest.raises(RealizabilityError, match="tet"):
            tet_metrics_from_lengths(mesh2, EdgeLengthConfig(s))

    def test_batched_cayley_menger_equals_rows(self, mesh3):
        rng = np.random.default_rng(18)
        cfg = random_realizable_config(mesh3, rng)
        s = cfg.squared_lengths[mesh3.tet_edges]
        cm = cayley_menger_determinant(s)
        assert cm.shape == (mesh3.num_tets,)
        assert np.array_equal(
            cm, [cayley_menger_determinant(row) for row in s])
        stacked = cayley_menger_determinant(s.reshape(-1, 3, 6))
        assert np.array_equal(stacked, cm.reshape(-1, 3))

    def test_guard_verdict_is_cholesky(self, mesh3):
        # Gram matrices that pass the Cayley-Menger test, definite and
        # indefinite (one positive eigenvalue, so det G > 0): the guard
        # accepts a tet exactly when its G has a Cholesky factor
        rng = np.random.default_rng(25)
        # the six edge vectors of a tet in the basis p_i - p_0
        x = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [-1, 1, 0], [-1, 0, 1], [0, -1, 1]])
        verdicts = []
        for i in range(200):
            a = rng.normal(size=(3, 3))
            R = a @ a.T + 0.1 * np.eye(3)
            if i % 2:
                G = R
            else:
                v = rng.normal(size=3)
                delta = np.min((x @ v) ** 2 / np.einsum("ei,ij,ej->e",
                                                         x, R, x))
                G = np.outer(v, v) - rng.uniform(0.05, 0.95) * delta * R
            s6 = np.einsum("ei,ij,ej->e", x, G, x)
            t = int(rng.integers(mesh3.num_tets))
            s = per_edge(mesh3, mesh3.edge_length) ** 2
            s[mesh3.tet_edges[t]] = s6
            g = 0.5 * (s6[:3, None] + s6[None, :3])
            g[np.triu_indices(3, 1)] -= 0.5 * s6[3:]
            g = np.triu(g) + np.triu(g, 1).T
            if not 8.0 * np.linalg.det(g) > 1e-10 * s6.max() ** 3:
                continue
            try:
                np.linalg.cholesky(g)
                definite = True
            except np.linalg.LinAlgError:
                definite = False
            try:
                tet_metrics_from_lengths(mesh3, EdgeLengthConfig(s), [t])
                accepted = True
            except RealizabilityError as ex:
                assert str(ex) == f"tet {t}: metric not positive definite"
                accepted = False
            assert accepted == definite
            verdicts.append(definite)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_first_degenerate_tet_named(self, mesh3):
        s = per_edge(mesh3, mesh3.edge_length) ** 2
        # a 60x squared length breaks the triangle inequality in every
        # face, so every tet at either stretched edge is degenerate
        ea, eb = mesh3.tet_edges[17, 0], mesh3.tet_edges[100, 0]
        s[[ea, eb]] *= 60.0
        cfg = EdgeLengthConfig(s)
        first = min(t for e in (ea, eb) for _, t in edge_star(mesh3, e))
        with pytest.raises(RealizabilityError,
                           match=rf"^tet {first}: degenerate"):
            tet_metrics_from_lengths(mesh3, cfg)
        with pytest.raises(RealizabilityError,
                           match=r"^tet 100: degenerate"):
            tet_metrics_from_lengths(mesh3, cfg, [100, 17])

    def test_degenerate_named_before_indefinite(self, mesh3):
        # the one fused guard keeps the two guards' priority: a degenerate
        # tet is named before any indefinite one, wherever they stand
        g = np.full((3, 3), 1.0 / 3.0) - 0.2 * np.eye(3)  # signature (+--)
        s = constant_metric(mesh3, g)
        assert s.min() > 0  # every edge is timelike
        stretched = s.copy()
        stretched[mesh3.tet_edges[100, 0]] *= 5.0

        def verdicts(s):
            # per tet, by a 5x5 determinant and a Cholesky factor
            rows = s[mesh3.tet_edges]
            cm = cayley_menger_determinant(rows)
            degenerate = ~(cm > CM_DET_RTOL * rows.max(axis=1) ** 3)
            definite = []
            for row in rows:
                G = 0.5 * (row[:3, None] + row[None, :3])
                G[[0, 0, 1], [1, 2, 2]] -= 0.5 * row[3:]
                try:
                    np.linalg.cholesky(np.triu(G) + np.triu(G, 1).T)
                    definite.append(True)
                except np.linalg.LinAlgError:
                    definite.append(False)
            return (np.flatnonzero(degenerate),
                    np.flatnonzero(~degenerate & ~np.array(definite)))

        def message(s, t):
            cm = 8.0 * _gram_adjugate(s[mesh3.tet_edges[[t]]].T)[1][0]
            return (f"tet {t}: degenerate edge lengths "
                    f"(Cayley-Menger determinant {cm:.3e})")

        degenerate, indefinite = verdicts(stretched)
        assert degenerate.tolist() == [24, 26, 43, 81, 100, 101]
        assert indefinite[0] == 0 and len(indefinite) == 156
        cases = [(stretched, None, message(stretched, 24)),
                 (stretched, [3, 101, 26, 150], message(stretched, 101)),
                 (s, None, "tet 0: metric not positive definite"),
                 (s, [40, 7, 0], "tet 40: metric not positive definite")]
        assert verdicts(s)[0].size == 0
        for lengths, tets, want in cases:
            with pytest.raises(RealizabilityError,
                               match=f"^{re.escape(want)}$"):
                tet_metrics_from_lengths(mesh3, EdgeLengthConfig(lengths),
                                         tets)

    def test_amplitude_halving_logged(self, mesh2, caplog):
        # amplitude 8 gives negative squared lengths until it is down to 1
        with caplog.at_level(logging.DEBUG, logger="reggefem.action"):
            cfg = random_realizable_config(mesh2, np.random.default_rng(19),
                                           scale=8.0)
        halved = [r.getMessage() for r in caplog.records
                  if r.name == "reggefem.action"]
        assert halved[:3] == [
            "random_realizable_config: squared lengths must be positive; "
            f"amplitude halved to {f:g}" for f in (4, 2, 1)]
        assert all("amplitude halved" in m for m in halved)
        r = np.random.default_rng(19).uniform(-1.0, 1.0, mesh2.num_edges)
        factor = 8.0 * 0.5 ** len(halved)
        s0 = per_edge(mesh2, mesh2.edge_length) ** 2
        assert np.array_equal(cfg.squared_lengths, s0 * (1.0 + factor * r))

    def test_max_deficit_halving_logged(self, mesh2, caplog):
        with caplog.at_level(logging.DEBUG, logger="reggefem.action"):
            cfg = random_realizable_config(mesh2, np.random.default_rng(20),
                                           max_deficit=1e-3)
        halved = [r.getMessage() for r in caplog.records
                  if r.name == "reggefem.action"]
        assert halved and all(m.startswith(
            "random_realizable_config: a deficit angle above max_deficit; "
            "amplitude halved to ") for m in halved)
        assert np.abs(deficit_angles(mesh2, cfg)).max() <= 1e-3


class TestDeficits:
    def test_flat_background_zero(self, mesh2, mesh3):
        # exactly: every angle gap to the flat background is 0
        torus = build_torus_mesh(
            TorusGeometry(TAU, 2.5 * np.pi, 3.0 * np.pi), (4, 5, 6))
        for mesh in (mesh2, mesh3, torus):
            flat = euclidean_lengths(mesh)
            assert np.all(deficit_angles(mesh, flat) == 0.0)
            assert regge_action(mesh, flat) == 0.0
            assert all(deficit_angle_dihedral(mesh, e, flat) == 0.0
                       for e in range(0, mesh.num_edges, 5))

    def test_uniform_scaling_invariance(self, mesh2):
        rng = np.random.default_rng(2)
        cfg = random_realizable_config(mesh2, rng)
        scaled = EdgeLengthConfig(4.0 * cfg.squared_lengths)
        t1 = deficit_angles(mesh2, cfg)
        t2 = deficit_angles(mesh2, scaled)
        assert np.abs(t1 - t2).max() < 1e-11
        r1 = regge_action(mesh2, cfg)
        r2 = regge_action(mesh2, scaled)
        assert abs(r2 - 2.0 * r1) < 1e-10 * max(abs(r1), 1.0)

    def test_dual_paths_agree(self, mesh2):
        # every third edge of the cube, every edge of an anisotropic torus
        # with its deficits on the principal branch
        rng = np.random.default_rng(3)
        aniso = build_torus_mesh(TorusGeometry(*EXACT_GRIDS[2][1]),
                                 EXACT_GRIDS[2][0])
        for mesh, step, bound in ((mesh2, 3, None), (aniso, 1, 2.5)):
            for _ in range(3):
                cfg = random_realizable_config(mesh, rng, max_deficit=bound)
                mats = tet_metrics_from_lengths(mesh, cfg)
                for e in range(0, mesh.num_edges, step):
                    th_d = deficit_angle_dihedral(mesh, e, cfg)
                    th_h = deficit_angle_holonomy(
                        build_edge_sector(mesh, e, mats))
                    assert abs(th_d - th_h) < 1e-9

    def test_sector_discontinuity_names_first_face(self, mesh2):
        mats = tet_metrics_from_lengths(mesh2, euclidean_lengths(mesh2))
        e = 3
        sector = build_edge_sector(mesh2, e, mats)
        # a tangential change of sector 2 breaks faces 2 and 3
        bent = mats.copy()
        bent[sector.tets[2]] += 1e-6 * np.eye(3)
        with pytest.raises(RealizabilityError, match=(
                rf"^sector metrics of edge {e} are not tangentially "
                rf"continuous across face {sector.faces[2]}$")):
            build_edge_sector(mesh2, e, bent)

    @pytest.mark.parametrize("long_edge, bent_tet", [
        (None, 3),  # first at edge 1; direction 0 first fails at edge 14
        (60, None),  # not positive definite, first at edge 14
        (3, 0),  # edge 3 fails both checks, continuity first
    ], ids=["bent", "indefinite", "both"])
    def test_whole_mesh_raises_first_per_edge_error(self, long_edge,
                                                    bent_tet):
        # the error of the first failing edge in ascending id, with the
        # message the per-edge loop raises
        mesh = build_torus_mesh(TorusGeometry(TAU, 2.5 * np.pi, TAU),
                                (2, 3, 2))
        c = per_edge(mesh, mesh.edge_length) ** 2
        if long_edge is not None:
            c[long_edge] *= 10.0
        mats = regge_to_tet_matrices(mesh, ReggeField(c))
        if bent_tet is not None:
            mats[bent_tet] += 1e-6 * np.eye(3)
        for e in range(mesh.num_edges):
            try:
                build_edge_sector(mesh, e, mats)
            except RealizabilityError as ex:
                message = str(ex)
                break
        with pytest.raises(RealizabilityError,
                           match=f"^{re.escape(message)}$"):
            holonomy_deficits(mesh, mats)

    @pytest.mark.parametrize("route", [
        lambda mesh, e: build_edge_sector(mesh, e, np.tile(np.eye(3), (
            mesh.num_tets, 1, 1))),
        lambda mesh, e: deficit_angle_dihedral(mesh, e,
                                               euclidean_lengths(mesh)),
        lambda mesh, e: linearized_deficit(
            mesh, e, ReggeField(np.zeros(mesh.num_edges))),
        lambda mesh, e: edge_jump_scalar(
            mesh, ReggeField(np.zeros(mesh.num_edges)), e),
    ], ids=["sector", "dihedral", "linearized", "edge_jump"])
    def test_invalid_edge_id_rejected(self, mesh2, route):
        for e in (-1, mesh2.num_edges):
            with pytest.raises(ValueError, match=f"^invalid edge id {e}$"):
                route(mesh2, e)

    def test_per_edge_matches_all_edges(self):
        # verify takes the dihedral side from deficit_angles; it must be
        # the star-local value bit for bit, not just within a tolerance
        rng = np.random.default_rng(4)
        for grid, lengths in EXACT_GRIDS:
            mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
            configs = [random_realizable_config(mesh, rng),
                       random_realizable_config(mesh, rng, max_deficit=2.5)]
            up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
            configs += [perturbed_lengths(mesh, up, eps)
                        for eps in (1e-2, -1e-2, 5e-3, -5e-3)]
            for cfg in configs:
                star = [deficit_angle_dihedral(mesh, e, cfg)
                        for e in range(mesh.num_edges)]
                assert np.array_equal(deficit_angles(mesh, cfg), star)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_global_pullback_leaves_deficits_zero(self, seed):
        geometry = TorusGeometry(TAU, TAU, TAU)
        mesh = build_torus_mesh(geometry, (2, 2, 2))
        rng = np.random.default_rng(seed)
        G = rng.uniform(-1, 1, (3, 3)) + 2.0 * np.eye(3)
        u = G.T @ G
        mats = np.broadcast_to(u, (mesh.num_tets, 3, 3))
        for e in range(0, mesh.num_edges, 11):
            sector = build_edge_sector(mesh, e, mats)
            assert abs(deficit_angle_holonomy(sector)) < 1e-10

    def test_sector_requires_positive_metrics(self, mesh2):
        mats = np.broadcast_to(np.diag([1.0, 1.0, -1.0]),
                               (mesh2.num_tets, 3, 3))
        with pytest.raises(RealizabilityError):
            build_edge_sector(mesh2, 0, mats)

    def test_sector_tt_continuity_enforced(self, mesh2):
        rng = np.random.default_rng(5)
        mats = np.array([np.eye(3) + 0.2 * rng.uniform(-1, 1, (3, 3))
                         for _ in range(mesh2.num_tets)])
        mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
        with pytest.raises(RealizabilityError, match="continuous"):
            build_edge_sector(mesh2, 0, mats)


TEMPLATE_GRIDS = [((2, 2, 2), (TAU, TAU, TAU)),
                  ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
                  ((5, 7, 3), (TAU, 2.5 * np.pi, 3.0 * np.pi))]


class TestLengthOnlyDihedrals:
    """The dihedral route: angles from six squared lengths per tet, summed
    as gaps to the flat background's angles."""

    @pytest.mark.parametrize("grid, lengths", TEMPLATE_GRIDS,
                             ids=["2x2x2", "4x5x6", "5x7x3"])
    def test_box_template_squared_lengths(self, grid, lengths):
        # tet 6v + r has the squared lengths of tet r bit for bit, and the
        # cached background reads them from the seven direction lengths
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        s = euclidean_lengths(mesh).squared_lengths[mesh.tet_edges]
        boxes = s.reshape(-1, 6, 6)
        assert np.array_equal(boxes, np.broadcast_to(boxes[0], boxes.shape))
        assert np.array_equal(
            boxes[0], np.square(mesh.edge_length)[_BOX_EDGE_DIRS])

    @pytest.mark.parametrize("grid, lengths", EXACT_GRIDS, ids=EXACT_IDS)
    def test_matches_metric_route(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rng = np.random.default_rng(20)
        for _ in range(3):
            cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
            ang = metric_dihedral_angles(
                mesh, tet_metrics_from_lengths(mesh, cfg))
            oracle = 2.0 * np.pi - np.bincount(
                mesh.tet_edges.ravel(), ang.ravel(), minlength=mesh.num_edges)
            assert np.abs(deficit_angles(mesh, cfg) - oracle).max() < 1e-13

    def test_guard_determinant_is_cayley_menger(self, mesh3):
        cfg = random_realizable_config(mesh3, np.random.default_rng(21))
        s = cfg.squared_lengths[mesh3.tet_edges]
        cm = cayley_menger_determinant(s)
        assert np.abs(8.0 * _gram_adjugate(s.T)[1] - cm).max() < \
            1e-12 * np.abs(cm).min()

    def test_sine_is_the_adjugate_minor(self, mesh3):
        # y = sqrt(s_ij det G) equals sqrt(H_kk H_ll - H_kl^2) of the
        # bordered adjugate H, the form that cancels
        cfg = random_realizable_config(mesh3, np.random.default_rng(22))
        s = cfg.squared_lengths[mesh3.tet_edges].T
        adj, det = _gram_adjugate(s)
        H = np.empty((mesh3.num_tets, 4, 4))
        H[:, 1:, 1:] = adj.T[:, _SYM]
        H[:, 0, 1:] = H[:, 1:, 0] = -H[:, 1:, 1:].sum(axis=-1)
        H[:, 0, 0] = H[:, 1:, 1:].sum(axis=(-2, -1))
        k, l = np.array([[x for x in range(4) if x not in edge]
                         for edge in LOCAL_EDGES]).T
        x, y = _dihedral_cs(s, adj, det)
        assert np.array_equal(x.T, -H[:, k, l])
        minor = np.sqrt(H[:, k, k] * H[:, l, l] - H[:, k, l] ** 2)
        assert np.abs(y.T / minor - 1.0).max() < 1e-12

    def test_needs_no_metric_and_no_det(self, mesh2, monkeypatch):
        # the action and the bisection guard read lengths only; no route
        # from lengths, the metric reconstruction included, takes a 5x5
        # determinant or a Cholesky factor
        cfg = random_realizable_config(mesh2, np.random.default_rng(23))

        def forbidden(*args, **kwargs):
            raise AssertionError("metric route, 5x5 determinant or "
                                 "Cholesky factor used")

        monkeypatch.setattr(np.linalg, "det", forbidden)
        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        assert np.array_equal(
            tet_metrics_from_lengths(mesh2, cfg),
            regge_to_tet_matrices(mesh2, ReggeField(cfg.squared_lengths)))
        monkeypatch.setattr(action_module, "tet_metrics_from_lengths",
                            forbidden)
        theta = deficit_angles(mesh2, cfg)
        assert regge_action(mesh2, cfg) == float(np.sum(theta * cfg.lengths))
        assert [deficit_angle_dihedral(mesh2, e, cfg)
                for e in range(mesh2.num_edges)] == theta.tolist()
        up = ReggeField(np.random.default_rng(24).uniform(
            -1, 1, mesh2.num_edges))
        assert 0 < max_realizable_epsilon(mesh2, up, hi=1e3) < 1e3


# The template tori, a torus whose 2-wide axes wrap, and a cell with one
# side 1e-3 of the others.
STAR_GRIDS = TEMPLATE_GRIDS + [((2, 3, 2), (TAU, 2.5 * np.pi, TAU)),
                               ((4, 5, 6), (1e-3 * TAU, 2.5 * np.pi,
                                            3.0 * np.pi))]


class TestStarConstants:
    """The per-direction constants the star routes read instead of
    gathering them on every call."""

    @pytest.mark.parametrize("grid, lengths", STAR_GRIDS,
                             ids=["2x2x2", "4x5x6", "5x7x3", "2x3x2", "thin"])
    def test_equal_the_gathers_they_replace(self, grid, lengths):
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        for d, frame in enumerate(mesh._star_frames):
            _, k, slot = _STARS[d][:3]
            assert np.array_equal(frame.ms, mesh.face_m[k, slot])
            assert np.array_equal(frame.ns, mesh.face_n[k, slot])
            assert np.array_equal(frame.tangent, mesh.edge_tangent[d])
            assert np.array_equal(frame.tm, np.stack(
                [np.tile(mesh.edge_tangent[d], (len(k), 1)), frame.ms],
                axis=1))
            assert frame.prev.tolist() == list(range(-1, len(k) - 1))
            assert not any(a.flags.writeable for a in frame)
        for e in range(mesh.num_edges):
            tets = _edge_tets(mesh, e)
            assert np.array_equal(_TET_SLOTS[tets % 6, e % 7], np.argmax(
                mesh.tet_edges[tets] == e, axis=1))


class TestLinearization:
    def test_linearized_deficit_equals_half_jump(self, mesh2):
        rng = np.random.default_rng(6)
        for _ in range(3):
            up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
            for e in range(mesh2.num_edges):
                assert abs(linearized_deficit(mesh2, e, up)
                           - 0.5 * edge_jump_scalar(mesh2, up, e)) < 1e-12

    @pytest.mark.parametrize("grid, lengths", EXACT_GRIDS, ids=EXACT_IDS)
    def test_star_tets_match_all_tets_exactly(self, grid, lengths):
        # the sum in template star order over matrices of all T tets, bit
        # for bit, with each slot searched in the summary's face table
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        up = ReggeField(np.random.default_rng(12).uniform(
            -1, 1, mesh.num_edges))
        mats = regge_to_tet_matrices(mesh, up)
        face_edges = face_tables(mesh)[0]
        for e in range(mesh.num_edges):
            star = list(zip(*_star_arrays(mesh, e)))
            total = 0.0
            for i, (f, t_after) in enumerate(star):
                slot = list(face_edges[f]).index(e)
                jump = mats[t_after] - mats[star[i - 1][1]]
                total += float(mesh.face_m[f % 12, slot] @ jump
                               @ mesh.face_n[f % 12, slot])
            assert linearized_deficit(mesh, e, up) == 0.5 * total

    def test_deformation_directions_flat(self, mesh2):
        rng = np.random.default_rng(7)
        v = VertexVectorField(rng.uniform(-1, 1, (mesh2.num_vertices, 3)))
        dv = deformation(mesh2, v)
        for e in range(mesh2.num_edges):
            assert abs(linearized_deficit(mesh2, e, dv)) < 1e-12

    def test_matches_finite_differences(self, mesh2):
        rng = np.random.default_rng(8)
        up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        h = 1e-2
        for e in range(0, mesh2.num_edges, 7):
            lin = linearized_deficit(mesh2, e, up)

            def theta(eps):
                return deficit_angle_dihedral(
                    mesh2, e, perturbed_lengths(mesh2, up, eps))

            d1 = (theta(h) - theta(-h)) / (2 * h)
            d2 = (theta(h / 2) - theta(-h / 2)) / h
            assert abs((4 * d2 - d1) / 3 - lin) < 1e-7

    def test_constant_direction_zero(self, mesh2):
        g = 0.5 * (lambda a: a + a.T)(np.random.default_rng(9)
                                      .uniform(-1, 1, (3, 3)))
        c = constant_metric(mesh2, g)
        for e in range(0, mesh2.num_edges, 5):
            assert abs(linearized_deficit(mesh2, e, ReggeField(c))) < 1e-13


class TestActionExpansion:
    def test_zero_direction_zero_action(self, mesh2):
        up = ReggeField(np.zeros(mesh2.num_edges))
        for eps in (1e-2, 5e-2):
            assert regge_action(mesh2,
                                perturbed_lengths(mesh2, up, eps)) == 0.0

    def test_quadratic_coefficient(self, mesh2, pencil2):
        A, _ = pencil2
        rng = np.random.default_rng(10)
        up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        rep = second_variation_check(mesh2, up,
                                     np.geomspace(1e-2, 1e-1, 7), A)
        assert rep.rel_error < 1e-2
        assert rep.remainder_slope >= 2.7

    def test_deformation_directions_cubic(self, mesh2, pencil2):
        A, _ = pencil2
        rng = np.random.default_rng(11)
        v = VertexVectorField(rng.uniform(-1, 1, (mesh2.num_vertices, 3)))
        up = deformation(mesh2, v)
        rep = second_variation_check(mesh2, up,
                                     np.geomspace(1e-2, 1e-1, 7), A)
        assert abs(rep.target) < 1e-12
        # R(eps)/eps^2 -> 0 for linearized isometry directions
        assert abs(rep.ratios[0]) < 1e-4
        assert abs(rep.extrapolated) < 1e-3

    def test_unrealizable_epsilons_pruned(self, mesh2, pencil2, caplog):
        A, _ = pencil2
        rng = np.random.default_rng(12)
        up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        hi = max_realizable_epsilon(mesh2, up, hi=1e3)
        with pytest.warns(UserWarning, match="pruned"), \
                caplog.at_level(logging.DEBUG, logger="reggefem.action"):
            rep = second_variation_check(
                mesh2, up, [1e-2, 3e-2, 2.0 * hi], A)
        assert rep.pruned == [2.0 * hi]
        assert [r.getMessage() for r in caplog.records] == [
            "second_variation_check: pruned unrealizable epsilons "
            f"{[2.0 * hi]}"]

    def test_max_realizable_epsilon_bisection(self, mesh2):
        rng = np.random.default_rng(13)
        up = ReggeField(rng.uniform(-1, 1, mesh2.num_edges))
        hi = max_realizable_epsilon(mesh2, up, hi=1e3)
        assert 0 < hi < 1e3
        tet_metrics_from_lengths(mesh2, perturbed_lengths(mesh2, up, hi))
        with pytest.raises(RealizabilityError):
            tet_metrics_from_lengths(mesh2,
                                     perturbed_lengths(mesh2, up, 1.05 * hi))


class TestSchlafli:
    def test_flat_background(self, mesh2):
        rng = np.random.default_rng(14)
        direction = rng.uniform(-1, 1, mesh2.num_edges)
        res = schlafli_check(mesh2, euclidean_lengths(mesh2), direction)
        # both sides vanish up to the O(step^2) difference truncation
        assert res < 1e-6
        theta = deficit_angles(mesh2, euclidean_lengths(mesh2))
        assert abs(float(np.sum(theta * direction))) < 1e-10

    def test_random_nonflat_configs(self, mesh2):
        rng = np.random.default_rng(15)
        for _ in range(3):
            cfg = random_realizable_config(mesh2, rng, scale=0.15)
            direction = rng.uniform(-1, 1, mesh2.num_edges)
            res = schlafli_check(mesh2, cfg, direction, step=1e-4)
            theta = deficit_angles(mesh2, cfg)
            tol = 1e-6 * abs(float(np.sum(theta * direction))) + 1e-10
            assert res <= tol

    def test_residual_is_second_order_in_step(self, mesh2):
        rng = np.random.default_rng(16)
        cfg = random_realizable_config(mesh2, rng, scale=0.15)
        direction = rng.uniform(-1, 1, mesh2.num_edges)
        r1 = schlafli_check(mesh2, cfg, direction, step=1e-2)
        r2 = schlafli_check(mesh2, cfg, direction, step=5e-3)
        assert 3.2 < r1 / r2 < 4.8

    def test_single_edge_direction_recovers_deficit(self, mesh2):
        rng = np.random.default_rng(17)
        cfg = random_realizable_config(mesh2, rng, scale=0.15)
        theta = deficit_angles(mesh2, cfg)
        e = 10
        d = np.zeros(mesh2.num_edges)
        d[e] = 1.0
        l0 = cfg.lengths
        step = 1e-5

        def act(eps):
            return regge_action(mesh2,
                                EdgeLengthConfig((l0 + eps * d) ** 2))

        fd = (act(step) - act(-step)) / (2 * step)
        assert abs(fd - theta[e]) < 1e-7

    def test_direction_length_validated(self, mesh2):
        with pytest.raises(ValueError):
            schlafli_check(mesh2, euclidean_lengths(mesh2), np.ones(3))


# First 16 hex digits of the SHA-256 (golden.digest) of the action layer's
# outputs on a seeded realizable configuration, recorded from the per-tet
# reference implementation; the linearized_deficit and 2x3x2 entries from
# the per-face loops of the sector, holonomy and linearized routes.  The
# deficit_angle_dihedral, deficit_angles and second_variation_check
# entries are those of the length-only dihedral angles summed as gaps to
# the flat background.  The linearized and sector frame entries are those
# of the one-box shape templates (tet t and face f read the geometry of
# t % 6 and f % 12); the metric, angle and holonomy entries those of the
# metrics from the Regge basis and the rank-one face crossings.  The
# holonomy and linearized entries are those of stars run in template
# order; the sector entries are pinned in edge_star order.  The holonomy
# entries read the rotation in the frame of w1 and the k- of face 0.
GOLDEN_GRIDS = {
    # edges of the 2-wide directions wrap through the period
    "2x3x2": ((2, 3, 2), (TAU, 2.5 * np.pi, TAU)),
    "3x3x3": ((3, 3, 3), (TAU, TAU, TAU)),
    "4x5x6": ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
}
GOLDEN = {
    "2x3x2": {
        "deficit_angle_dihedral": "4543b74a00ebe5d5",
        "deficit_angle_holonomy": "30890360a920e75c",
        "deficit_angles": "4543b74a00ebe5d5",
        "linearized_deficit": "93e6f880f5ad59a9",
        "metric_dihedral_angles": "90e24e0c25eaac50",
        "second_variation_check.actions": "d1080279571791d3",
        "sector.faces_tets": "6015147a6f37d10e",
        "sector.metrics": "53bbf40ba58a1c4b",
        "sector.ms": "cb132ba49559e553",
        "sector.ns": "228ad7cdb783b267",
        "tet_metrics_from_lengths": "6ef3a45afaf0c1c0",
    },
    "3x3x3": {
        "deficit_angle_dihedral": "23db855da94ac501",
        "deficit_angle_holonomy": "090e26c1ccdb579c",
        "deficit_angles": "23db855da94ac501",
        "linearized_deficit": "cc175d750c58b5c6",
        "metric_dihedral_angles": "27ab49f091ec802c",
        "second_variation_check.actions": "6c115092f80317d6",
        "sector.faces_tets": "4aac778ead2753b7",
        "sector.metrics": "84f2d2c0b52c9443",
        "sector.ms": "8cdd612f57dd1d55",
        "sector.ns": "91eaf2a990e5e6cb",
        "tet_metrics_from_lengths": "4d67ca8457ec3847",
    },
    "4x5x6": {
        "deficit_angle_dihedral": "ce108668568c42fb",
        "deficit_angle_holonomy": "5250bb6b8bf63870",
        "deficit_angles": "ce108668568c42fb",
        "linearized_deficit": "94aa9b3cfe0f569d",
        "metric_dihedral_angles": "e0edfb6c32f95706",
        "second_variation_check.actions": "7e53ebc27bbd7fe9",
        "sector.faces_tets": "eb6dcac4205b57de",
        "sector.metrics": "41cfb1e1ad75b5a8",
        "sector.ms": "7e434f99a37aed3a",
        "sector.ns": "84d6f49ba89668fb",
        "tet_metrics_from_lengths": "58b39bd49b1f19eb",
    },
}


class TestWholeMeshRoutes:
    @pytest.mark.parametrize("grid, lengths", [
        ((2, 3, 2), (TAU, 2.5 * np.pi, TAU)),
        ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
        ((4, 5, 6), (1e-3 * TAU, 2.5 * np.pi, 3.0 * np.pi)),
    ], ids=["2x3x2", "4x5x6", "thin"])
    def test_per_edge_routes_equal_whole_mesh(self, grid, lengths):
        # one stacked pass per direction against one edge at a time, bit
        # for bit, on a cell with one side 1e-3 of the others too
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rng = np.random.default_rng(30)
        metrics = tet_metrics_from_lengths(
            mesh, random_realizable_config(mesh, rng, max_deficit=2.5))
        up = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
        edges = range(mesh.num_edges)
        assert holonomy_deficits(mesh, metrics).tolist() == [
            deficit_angle_holonomy(build_edge_sector(mesh, e, metrics))
            for e in edges]
        assert linearized_deficits(mesh, up).tolist() == [
            linearized_deficit(mesh, e, up) for e in edges]


class TestHolonomyReadOff:
    @pytest.mark.parametrize("grid, lengths", [*GOLDEN_GRIDS.values(),
                                               STAR_GRIDS[-1]],
                             ids=[*GOLDEN_GRIDS, "thin"])
    def test_k_minus_of_face_zero_is_gram_schmidt_w2(self, grid, lengths):
        # the holonomy reads its rotation in the frame (w1, k-) of face 0;
        # k- is the vector that Gram-Schmidt of (t, m_0, n_0) in the start
        # metric U gives last, up to rounding
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        metrics = tet_metrics_from_lengths(mesh, random_realizable_config(
            mesh, np.random.default_rng(0), max_deficit=2.5))
        for d, frame in enumerate(mesh._star_frames):
            mats = metrics[mesh._star_tets[d]]
            k = _unit_normals(frame.ns, mats)[0][:, 0]
            U = mats[:, -1]

            def dot(a, b):
                return np.einsum("vi,vij,vj->v", a, U, b)[:, None]

            def unit(v):
                return v / np.sqrt(dot(v, v))

            t, m0, n0 = (np.broadcast_to(v, k.shape) for v in
                         (frame.tangent, frame.ms[0], frame.ns[0]))
            that = unit(t)
            w1 = unit(m0 - dot(m0, that) * that)
            w2 = unit(n0 - dot(n0, that) * that - dot(n0, w1) * w1)
            assert (np.abs(k - w2).max(axis=1)
                    <= 4 * np.finfo(float).eps * np.abs(w2).max(axis=1)).all()


# The whole-mesh passes must reproduce the per-edge routes' digests.
WHOLE_MESH = {"holonomy_deficits": "deficit_angle_holonomy",
              "linearized_deficits": "linearized_deficit"}


def _action_outputs(grid, lengths) -> dict:
    mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
    rng = np.random.default_rng(0)
    cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
    up = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
    metrics = tet_metrics_from_lengths(mesh, cfg)
    edges = range(mesh.num_edges)
    sectors = [build_edge_sector(mesh, e, metrics) for e in edges]

    def lowest_first(sector, name):
        # sector data run in template order; pinned in the edge_star order
        first = -int(np.argmin(sector.faces))
        rolled = np.roll(getattr(sector, name), first, axis=0)
        return tuple(rolled.tolist()) if name in ("faces", "tets") \
            else rolled

    return {
        "deficit_angles": deficit_angles(mesh, cfg),
        "tet_metrics_from_lengths": metrics,
        "metric_dihedral_angles": metric_dihedral_angles(mesh, metrics),
        "second_variation_check.actions": second_variation_check(
            mesh, up, np.geomspace(1e-2, 1e-1, 7),
            assemble_stiffness(mesh)).actions,
        "deficit_angle_dihedral": np.array(
            [deficit_angle_dihedral(mesh, e, cfg) for e in edges]),
        "deficit_angle_holonomy": np.array(
            [deficit_angle_holonomy(s) for s in sectors]),
        "linearized_deficit": np.array(
            [linearized_deficit(mesh, e, up) for e in edges]),
        "holonomy_deficits": holonomy_deficits(mesh, metrics),
        "linearized_deficits": linearized_deficits(mesh, up),
        "sector.ms": [lowest_first(s, "ms") for s in sectors],
        "sector.ns": [lowest_first(s, "ns") for s in sectors],
        "sector.metrics": [lowest_first(s, "metrics") for s in sectors],
        "sector.faces_tets": [(lowest_first(s, "faces"),
                               lowest_first(s, "tets")) for s in sectors],
    }


class TestGoldenDigests:
    @pytest.mark.parametrize("label", sorted(GOLDEN_GRIDS))
    def test_action_outputs_bit_identical(self, label):
        out = _action_outputs(*GOLDEN_GRIDS[label])
        golden = GOLDEN[label] | {k: GOLDEN[label][v]
                                  for k, v in WHOLE_MESH.items()}
        assert {k: digest(v) for k, v in out.items()} == golden
