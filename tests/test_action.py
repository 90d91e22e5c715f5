import json
import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_metric, edge_image, face_tables, \
    lifted_points, lowest_face_first, per_edge, point_group
from golden import digest
from oracles import cayley_menger_determinant, linearized_star_pass, \
    metric_dihedral_angles
from reggefem import (EdgeLengthConfig, RealizabilityError, ReggeField,
                      apply_ctc, assemble_stiffness, build_edge_sector,
                      build_torus_mesh, deficit_angle_dihedral,
                      deficit_angle_holonomy, deficit_angles,
                      edge_jump_scalar, euclidean_lengths,
                      holonomy_deficits,
                      linearized_deficit, linearized_deficits,
                      perturbed_lengths, regge_action, schlafli_check,
                      second_variation_check)
from reggefem import action as action_module
from reggefem._roundoff import FACE_TERMS, FRAME_TERMS, kernel_rtol, \
    matvec_rtol, sum_rtol
from reggefem.action import (_SYM, CM_DET_RTOL, _checked_gram,
                             _dihedral_cs, _gram_adjugate, _unit_normals,
                             random_realizable_config,
                             tet_metrics_from_lengths)
from reggefem.mesh import _BOX_EDGE_DIRS, _STARS, _TET_SLOTS, LOCAL_EDGES, \
    TorusGeometry, _edge_tets, _star_faces
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

    @pytest.mark.parametrize("bad, reason", [
        (np.ones((8, 7)), "float64 of shape (8, 7)"),
        (np.ones((56, 1)), "float64 of shape (56, 1)"),
        (np.float64(1.0), "float64 of shape ()"),
        (np.array([True] * 56), "bool of shape (56,)"),
        (np.ones(56, complex), "complex128 of shape (56,)"),
        (np.array(["1.0"] * 56), "<U3 of shape (56,)"),
        (np.array([1.0] * 56, dtype=object), "object of shape (56,)"),
    ], ids=["2-D", "column", "0-D", "bool", "complex", "str", "object"])
    def test_constructor_refuses_other_shapes_and_dtypes(self, bad, reason):
        # the one check of the lengths' form, for library callers and
        # from_json alike: nothing is flattened or read as 1.0
        with pytest.raises(ValueError) as info:
            EdgeLengthConfig(bad)
        assert str(info.value) == ("squared lengths must be a 1-D array "
                                   f"of real numbers, not {reason}")
        assert not isinstance(info.value, RealizabilityError)

    def test_constructor_takes_real_1d_arrays(self, mesh2):
        ints = EdgeLengthConfig(np.arange(1, 57, dtype=np.int32))
        assert ints.squared_lengths.dtype == float
        assert np.array_equal(ints.squared_lengths, np.arange(1.0, 57.0))
        s = per_edge(mesh2, mesh2.edge_length) ** 2
        # a float64 input is copied too, not kept: see the mutation test
        kept = EdgeLengthConfig(s).squared_lengths
        assert np.array_equal(kept, s) and not np.shares_memory(kept, s)
        assert np.array_equal(EdgeLengthConfig(s.tolist()).squared_lengths, s)

    def test_checked_lengths_cannot_change(self, mesh2):
        # neither a later write to the caller's array nor one to the
        # stored lengths reaches a checked configuration
        s = per_edge(mesh2, mesh2.edge_length) ** 2
        cfg = EdgeLengthConfig(s)
        s[0] = -3.0
        assert cfg.squared_lengths[0] == mesh2.edge_length[0] ** 2
        with pytest.raises(ValueError, match="read-only"):
            cfg.squared_lengths[1] = np.nan
        assert np.isfinite(cfg.squared_lengths).all()
        ints = EdgeLengthConfig(np.arange(1, 57))
        assert not ints.squared_lengths.flags.writeable

    @pytest.mark.parametrize("payload", [
        [1, 2, 3], 5, None, {}, {"lengths": [1.0]},
        {"squared_lengths": "abc"}, {"squared_lengths": [[1.0], [1.0, 2.0]]},
        {"squared_lengths": [1.0, None]}, {"squared_lengths": [-1.0]},
        {"squared_lengths": [float("nan")]},
        {"squared_lengths": [[1.0], [1.0]]}, {"squared_lengths": [True]},
        {"squared_lengths": ["1.0"]}, {"squared_lengths": [10 ** 400]},
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
                _checked_gram(mesh3, EdgeLengthConfig(s), [t])
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
        first = min(int(_edge_tets(mesh3, e).min()) for e in (ea, eb))
        with pytest.raises(RealizabilityError,
                           match=rf"^tet {first}: degenerate"):
            tet_metrics_from_lengths(mesh3, cfg)
        with pytest.raises(RealizabilityError,
                           match=r"^tet 100: degenerate"):
            _checked_gram(mesh3, cfg, [100, 17])

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
                _checked_gram(mesh3, EdgeLengthConfig(lengths), tets)

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

    @pytest.mark.parametrize("kwargs", [
        {"scale": np.nan}, {"scale": np.inf}, {"scale": -np.inf},
        {"max_deficit": np.nan}, {"max_deficit": 0.0},
        {"max_deficit": -1.0}],
        ids=["scale-nan", "scale-inf", "scale--inf", "bound-nan",
             "bound-zero", "bound-negative"])
    def test_bad_amplitude_or_bound_refused(self, mesh2, kwargs,
                                            monkeypatch):
        # a ValueError that names the argument, before any draw or pass,
        # not 40 refused configurations or dihedral passes ending in
        # "could not find a realizable configuration"
        def no_pass(*args):
            raise AssertionError("an action pass ran")

        monkeypatch.setattr(action_module, "_gram", no_pass)
        rng = np.random.default_rng(21)
        state = rng.bit_generator.state
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name}: ") as info:
            random_realizable_config(mesh2, rng, **kwargs)
        assert type(info.value) is ValueError and str(value) in str(
            info.value)
        assert rng.bit_generator.state == state

    def test_flat_and_negative_amplitudes_stay_valid(self, mesh2):
        flat = random_realizable_config(mesh2, np.random.default_rng(22),
                                        scale=0.0, max_deficit=1e-3)
        s0 = euclidean_lengths(mesh2).squared_lengths
        assert np.array_equal(flat.squared_lengths, s0)
        cfg = random_realizable_config(mesh2, np.random.default_rng(22),
                                       scale=-0.1)
        r = np.random.default_rng(22).uniform(-1.0, 1.0, mesh2.num_edges)
        assert np.array_equal(cfg.squared_lengths, s0 * (1.0 - 0.1 * r))


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
        # a tangential change of sector 2 breaks faces 2 and 3
        bent = mats.copy()
        bent[_edge_tets(mesh2, e)[2]] += 1e-6 * np.eye(3)
        face = _star_faces(mesh2, e % 7, e // 7)[2]
        with pytest.raises(RealizabilityError, match=(
                rf"^sector metrics of edge {e} are not tangentially "
                rf"continuous across face {face}$")):
            build_edge_sector(mesh2, e, bent)

    @pytest.mark.parametrize("bad, prefix", [
        ("degenerate", "tet 24: degenerate edge lengths"),
        ("indefinite", "tet 0: metric not positive definite"),
    ])
    def test_whole_mesh_raises_the_guard_error(self, mesh3, bad, prefix):
        # the holonomy forms its metrics through the realizability guard
        # of deficit_angles, so both refuse the same lengths alike
        g = np.full((3, 3), 1.0 / 3.0) - 0.2 * np.eye(3)  # signature (+--)
        s = constant_metric(mesh3, g)
        if bad == "degenerate":
            s[mesh3.tet_edges[100, 0]] *= 5.0
        cfg = EdgeLengthConfig(s)
        with pytest.raises(RealizabilityError) as dihedral:
            deficit_angles(mesh3, cfg)
        message = str(dihedral.value)
        assert message.startswith(prefix)
        with pytest.raises(RealizabilityError,
                           match=f"^{re.escape(message)}$"):
            holonomy_deficits(mesh3, cfg)

    def test_whole_mesh_names_an_indefinite_metric(self, mesh2,
                                                   monkeypatch):
        # the guard judges the Gram matrices polarized from the lengths;
        # a metric about to be inverted that has no Cholesky factor is
        # still refused, by its tet
        cfg = random_realizable_config(mesh2, np.random.default_rng(32))
        metrics = tet_metrics_from_lengths(mesh2, cfg)
        metrics[13] = np.diag([1.0, 1.0, -1.0])
        monkeypatch.setattr(action_module, "_tet_matrices",
                            lambda mesh, rows: metrics[None])
        with pytest.raises(RealizabilityError,
                           match="^tet 13: metric not positive definite$"):
            holonomy_deficits(mesh2, cfg)

    def test_whole_mesh_factors_once(self, mesh2, monkeypatch):
        # one batched Cholesky test of the T metrics, no per-star checks
        cfg = random_realizable_config(mesh2, np.random.default_rng(33),
                                       max_deficit=2.5)
        shapes = []
        cholesky = np.linalg.cholesky

        def counted(a):
            shapes.append(a.shape)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        holonomy_deficits(mesh2, cfg)
        assert shapes == [(mesh2.num_tets, 3, 3)]

    def test_whole_mesh_on_a_thin_cell(self):
        # at one side 1e-7 the rounding of the Regge basis trips the
        # per-edge continuity test; metrics from lengths are continuous by
        # construction, and the whole-mesh route does not test them again
        mesh = build_torus_mesh(TorusGeometry(1e-7, 1.0, 1.0), (4, 5, 6))
        cfg = random_realizable_config(mesh, np.random.default_rng(0),
                                       max_deficit=2.5)
        with pytest.raises(RealizabilityError, match=(
                "^sector metrics of edge 16 are not tangentially")):
            build_edge_sector(mesh, 16, tet_metrics_from_lengths(mesh, cfg))
        assert np.isfinite(holonomy_deficits(mesh, cfg)).all()

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
        with pytest.raises(RealizabilityError, match=(
                "^edge 9, sector 0: metric not positive definite$")):
            build_edge_sector(mesh2, 9, mats)

    def test_sector_refuses_other_metric_shapes(self, mesh2):
        # not an IndexError, nor a longer array read in part
        T = mesh2.num_tets
        for shape in ((10, 3, 3), (2 * T, 3, 3), (T, 9), (T, 3, 3, 1)):
            with pytest.raises(ValueError, match=re.escape(
                    f"tet_metrics: need shape ({T}, 3, 3), got {shape}")):
                build_edge_sector(mesh2, 0, np.ones(shape))

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
        # the action and the realizability guard read lengths only; no
        # route from lengths, the metric reconstruction included, takes a
        # 5x5 determinant or a Cholesky factor
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
        with pytest.raises(RealizabilityError, match="^tet 8: degenerate"):
            _checked_gram(mesh2, perturbed_lengths(mesh2, up, 5.0))


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
        # the same frames stacked by valence, one direction a row, which
        # the holonomy's passes gather star by star
        assert [(cls.dirs.tolist(), cls.tangent.shape, cls.ms.shape,
                 cls.ns.shape) for cls in mesh._star_classes] == [
            ([0, 1, 3, 6], (4, 3), (4, 6, 3), (4, 6, 3)),
            ([2, 4, 5], (3, 3), (3, 4, 3), (3, 4, 3))]
        for cls in mesh._star_classes:
            assert not any(a.flags.writeable for a in cls)
            for j, d in enumerate(cls.dirs):
                frame = mesh._star_frames[d]
                for name in ("tangent", "ms", "ns"):
                    assert np.array_equal(getattr(cls, name)[j],
                                          getattr(frame, name))
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
        # the meshed star pass of the oracle against the sum in template
        # star order over matrices of all T tets, bit for bit, with each
        # slot searched in the summary's face table
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        up = ReggeField(np.random.default_rng(12).uniform(
            -1, 1, mesh.num_edges))
        mats = regge_to_tet_matrices(mesh, up)
        face_edges = face_tables(mesh)[0]
        lin = linearized_star_pass(mesh, up)
        for e in range(mesh.num_edges):
            star = list(zip(_star_faces(mesh, e % 7, e // 7),
                            _edge_tets(mesh, e)))
            total = 0.0
            for i, (f, t_after) in enumerate(star):
                slot = list(face_edges[f]).index(e)
                jump = mats[t_after] - mats[star[i - 1][1]]
                total += float(mesh.face_m[f % 12, slot] @ jump
                               @ mesh.face_n[f % 12, slot])
            assert lin[e] == 0.5 * total

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


# The tori of J against the meshed star pass: the 2 pi cube, a torus whose
# 2-wide axes wrap, the 1:1.25:1.5 cell and its thin version, one side
# 1e-3 of the others, and the cube at 6^3 and 16^3.
J_TORI = {
    "2^3": ((2, 2, 2), (TAU, TAU, TAU)),
    "2x3x2": ((2, 3, 2), (TAU, 2.5 * np.pi, TAU)),
    "4x5x6": ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
    "thin": ((4, 5, 6), (1e-3 * TAU, 2.5 * np.pi, 3.0 * np.pi)),
    "6^3": ((6, 6, 6), (TAU, TAU, TAU)),
    "16^3": ((16, 16, 16), (TAU, TAU, TAU)),
}


class TestLinearizedOperator:
    """``linearized_deficits`` is the matvec J c of the 27 blocks that
    ``_linearized_blocks`` builds from the seven star templates."""

    @pytest.mark.parametrize("label", J_TORI)
    def test_matvec_equals_the_meshed_star_pass(self, label):
        # a row of J c sums one rounded product per coupling of the row;
        # the star pass rounds the same terms grouped by sector tet and
        # face, without J's entries.  They agree within the roundoff of a
        # row against another route, of max|J| max|c| (measured: 11.4
        # u at most, at 16^3)
        grid, lengths = J_TORI[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        u = ReggeField(np.random.default_rng(60).uniform(
            -1.0, 1.0, mesh.num_edges))
        J = action_module._linearized_blocks(mesh.geometry, mesh.grid)
        bound = matvec_rtol() * np.abs(J).max() * np.abs(u.coeffs).max()
        assert np.abs(linearized_deficits(mesh, u)
                      - linearized_star_pass(mesh, u)).max() <= bound

    @pytest.mark.parametrize("label", J_TORI)
    def test_blocks_are_half_the_lengths_times_the_stiffness(self, label):
        # J = 1/2 diag(l) A, block by block: row d of every block of A
        # scaled by l_d / 2.  An entry of either sums its rounded face or
        # sector terms, so they agree within the roundoff of such a sum,
        # of max|J| (measured: 1.8 u at most, on the thin cell)
        grid, lengths = J_TORI[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        J = action_module._linearized_blocks(mesh.geometry, mesh.grid)
        half = 0.5 * mesh.edge_length[:, None] * assemble_stiffness(
            mesh).blocks
        assert np.abs(J - half).max() <= sum_rtol(FACE_TERMS) \
            * np.abs(J).max()

    def test_blocks_kept_read_only(self, geometry):
        J = action_module._linearized_blocks(geometry, (2, 2, 2))
        assert action_module._linearized_blocks(geometry, (2, 2, 2)) is J
        with pytest.raises(ValueError, match="read-only"):
            J[1, 1, 1, 0, 0] = 1.0


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
        # at eps = 5 a tet is degenerate, and every squared length is
        # still positive (each is pi^2 or more, each |c_e| below 1)
        with pytest.raises(RealizabilityError, match="degenerate"):
            deficit_angles(mesh2, perturbed_lengths(mesh2, up, 5.0))
        with pytest.warns(UserWarning, match="pruned"), \
                caplog.at_level(logging.DEBUG, logger="reggefem.action"):
            rep = second_variation_check(mesh2, up, [1e-2, 3e-2, 5.0], A)
        assert rep.pruned == [5.0]
        assert [r.getMessage() for r in caplog.records] == [
            "second_variation_check: pruned unrealizable epsilons [5.0]"]

    @pytest.mark.parametrize("eps", [
        [0.0, 0.05, 0.1], [0.05, 0.05, 0.1], [-0.1, 0.1, 0.05], [0.05], [],
        [np.nan, 0.05, 0.1], [0.05, np.inf]],
        ids=["zero", "repeated", "negative", "one", "none", "nan", "inf"])
    def test_schedule_checked_before_any_pass(self, mesh2, pencil2, eps,
                                              monkeypatch):
        # a schedule that gives no extrapolation or slope, NaN with a
        # RuntimeWarning once, or "not enough realizable epsilon values"
        # for one eps, is a ValueError (not a RealizabilityError) before
        # any action is evaluated, and warns nothing
        def no_pass(*args):
            raise AssertionError("an action pass ran")

        # every action pass forms its Gram matrices by _gram first
        monkeypatch.setattr(action_module, "_gram", no_pass)
        up = ReggeField(np.random.default_rng(13).uniform(
            -1, 1, mesh2.num_edges))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "epsilons: need two or more distinct finite positive "
                    f"values, got {[float(e) for e in eps]}")) as info:
                second_variation_check(mesh2, up, eps, pencil2[0])
        assert type(info.value) is ValueError


def per_eps_report(mesh, up, epsilons, stiffness):
    """The report fields of ``second_variation_check`` from one
    ``regge_action(perturbed_lengths(...))`` per eps, pruning the eps
    whose configuration either refuses."""
    eps_ok, actions, pruned = [], [], []
    for eps in sorted(epsilons):
        try:
            actions.append(regge_action(mesh,
                                        perturbed_lengths(mesh, up, eps)))
            eps_ok.append(eps)
        except RealizabilityError:
            pruned.append(eps)
    eps, act = np.array(eps_ok), np.array(actions)
    target = float(up.coeffs @ (stiffness @ up.coeffs)) / 8.0
    rem = np.abs(act - eps**2 * target)
    slope = np.polyfit(np.log(eps[rem > 0]), np.log(rem[rem > 0]), 1)[0]
    return {"actions": act, "ratios": act / eps**2,
            "extrapolated": action_module._neville(eps, act / eps**2),
            "remainder_slope": float(slope), "pruned": pruned}


class TestStackedSchedule:
    """``second_variation_check`` runs its schedule in stacked slabs of
    rows; each row equals its own ``regge_action`` bit for bit."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_equals_one_action_per_eps(self, n):
        mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (n, n, n))
        up = ReggeField(np.random.default_rng(41).uniform(
            -1, 1, mesh.num_edges))
        eps = np.geomspace(1e-2, 1e-1, 7)
        # one slab at 2^3, several rows a slab and several slabs at 4^3,
        # one row a slab at 6^3
        slabs = action_module._slabs(len(eps), mesh.num_tets)
        assert [len(range(7)[p]) for p in slabs] == {
            2: [7], 4: [5, 2], 6: [1] * 7}[n]
        A = assemble_stiffness(mesh)
        rep = second_variation_check(mesh, up, eps, A)
        ref = per_eps_report(mesh, up, eps.tolist(), A)
        assert rep.actions.tolist() == ref["actions"].tolist()
        assert rep.ratios.tolist() == ref["ratios"].tolist()
        assert rep.extrapolated == ref["extrapolated"]
        assert rep.remainder_slope == ref["remainder_slope"]
        assert rep.pruned == ref["pruned"] == []

    @pytest.mark.parametrize("bad, reason", [
        (5.0, "degenerate"), (-40.0, "squared lengths must be positive")])
    def test_refused_row_in_a_slab_pruned(self, mesh2, pencil2, caplog,
                                          bad, reason):
        # the refused row shares its slab with the realizable ones.  A
        # schedule holds positive epsilons only, so the row at a negative
        # step along u' is run as the same lengths at |step| along -u'
        A, _ = pencil2
        up = ReggeField(np.random.default_rng(12).uniform(
            -1, 1, mesh2.num_edges))
        with pytest.raises(RealizabilityError, match=reason):
            regge_action(mesh2, perturbed_lengths(mesh2, up, bad))
        flipped = ReggeField(np.sign(bad) * up.coeffs)
        assert (abs(bad) * flipped.coeffs).tolist() \
            == (bad * up.coeffs).tolist()
        up, bad = flipped, abs(bad)
        eps = [2e-2, bad, 1e-2, 4e-2]
        assert len(action_module._slabs(len(eps), mesh2.num_tets)) == 1
        with pytest.warns(UserWarning, match="pruned") as record, \
                caplog.at_level(logging.DEBUG, logger="reggefem.action"):
            rep = second_variation_check(mesh2, up, eps, A)
        assert not [w for w in record
                    if issubclass(w.category, RuntimeWarning)]
        assert rep.pruned == [bad]
        assert [r.getMessage() for r in caplog.records] == [
            f"second_variation_check: pruned unrealizable epsilons [{bad}]"]
        ref = per_eps_report(mesh2, up, eps, A)
        assert rep.epsilons.tolist() == [1e-2, 2e-2, 4e-2]
        assert rep.actions.tolist() == ref["actions"].tolist()
        assert rep.remainder_slope == ref["remainder_slope"]


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

    @pytest.mark.parametrize("step", [0.0, -0.0, np.nan, np.inf, -np.inf])
    def test_step_must_be_finite_and_nonzero(self, mesh2, step,
                                             monkeypatch):
        # a ValueError before any pass, not a ZeroDivisionError or
        # "squared lengths must be finite"
        def no_pass(*args):
            raise AssertionError("an action pass ran")

        monkeypatch.setattr(action_module, "_gram", no_pass)
        with pytest.raises(ValueError, match=re.escape(
                f"step: need a finite nonzero step, got {step}")) as info:
            schlafli_check(mesh2, euclidean_lengths(mesh2),
                           np.zeros(mesh2.num_edges), step)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_direction_must_be_finite(self, mesh2, bad, monkeypatch):
        # a ValueError that names the direction, before any pass, not a
        # RealizabilityError on the squared lengths it would make
        def no_pass(*args):
            raise AssertionError("an action pass ran")

        monkeypatch.setattr(action_module, "_gram", no_pass)
        direction = np.zeros(mesh2.num_edges)
        direction[3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=(
                    "^direction: need finite entries$")) as info:
                schlafli_check(mesh2, euclidean_lengths(mesh2), direction)
        assert type(info.value) is ValueError

    def test_direction_length_validated(self, mesh2):
        with pytest.raises(ValueError):
            schlafli_check(mesh2, euclidean_lengths(mesh2), np.ones(3))

    @pytest.mark.parametrize("route, message", [
        (lambda m, A: perturbed_lengths(
            m, ReggeField(np.ones(m.num_edges - 1)), 0.1),
         "edge count mismatch"),
        (lambda m, A: second_variation_check(
            m, ReggeField(np.ones(m.num_edges + 7)), [1e-2, 2e-2], A),
         "edge count mismatch"),
        (lambda m, A: schlafli_check(
            m, EdgeLengthConfig(np.ones(m.num_edges - 7)),
            np.zeros(m.num_edges)), "edge count mismatch"),
        (lambda m, A: schlafli_check(
            m, euclidean_lengths(m), np.zeros((2, m.num_edges // 2))),
         "direction must have one entry per edge"),
    ], ids=["perturbed_lengths", "second_variation_check",
            "schlafli-config", "schlafli-2d-direction"])
    def test_wrong_edge_count_refused(self, mesh2, pencil2, route, message):
        # per-edge inputs of the wrong length or shape are refused before
        # any arithmetic, not by numpy's broadcast error or a raveled
        # (2, E/2) direction taken as E entries
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            route(mesh2, pencil2[0])
        assert type(info.value) is ValueError


# First 16 hex digits of the SHA-256 (golden.digest) of the action layer's
# outputs on a seeded realizable configuration, recorded from the per-tet
# reference implementation; the linearized and 2x3x2 entries from the
# per-face loops of the sector, holonomy and linearized routes (the
# linearized_deficits entries were recorded edge by edge).  The
# deficit_angle_dihedral, deficit_angles and second_variation_check
# entries are those of the length-only dihedral angles summed as gaps to
# the flat background.  The linearized and sector frame entries are those
# of the one-box shape templates (tet t and face f read the geometry of
# t % 6 and f % 12); the metric, angle and holonomy entries those of the
# metrics from the Regge basis and the rank-one face crossings.  The
# holonomy entries are those of stars run in template order; the sector
# entries are pinned from each star's lowest face.  The holonomy entries
# read the rotation in the frame of w1 and the k- of face 0, with the face
# normals taken through the inverse tet metrics.  The linearized_deficits
# entries are the matvec of the blocks of J, within 3.3e-16 of
# max|theta'| of the star pass they replaced, whose digests the oracle
# keeps (STAR_PASS).
GOLDEN_GRIDS = {
    # edges of the 2-wide directions wrap through the period
    "2x3x2": ((2, 3, 2), (TAU, 2.5 * np.pi, TAU)),
    "3x3x3": ((3, 3, 3), (TAU, TAU, TAU)),
    "4x5x6": ((4, 5, 6), (TAU, 2.5 * np.pi, 3.0 * np.pi)),
}
GOLDEN = {
    "2x3x2": {
        "deficit_angle_dihedral": "4543b74a00ebe5d5",
        "deficit_angle_holonomy": "4a8021bc0a44f276",
        "deficit_angles": "4543b74a00ebe5d5",
        "linearized_deficits": "ac3d4fbdb3f1b989",
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
        "deficit_angle_holonomy": "ef5607d3389b8647",
        "deficit_angles": "23db855da94ac501",
        "linearized_deficits": "2197960fa14c9b3b",
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
        "deficit_angle_holonomy": "fb5091c452108b94",
        "deficit_angles": "ce108668568c42fb",
        "linearized_deficits": "255f4c8d8de9b807",
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
        ((6, 6, 6), (TAU, TAU, TAU)),
    ], ids=["2x3x2", "4x5x6", "thin", "6^3"])
    def test_per_edge_routes_equal_whole_mesh(self, grid, lengths):
        # one stacked holonomy pass per valence class against one edge at
        # a time, and against one direction at a time, bit for bit, on a
        # cell with one side 1e-3 of the others too; at 6^3 the classes
        # split into slabs down to a stack of one direction
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rng = np.random.default_rng(30)
        cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
        metrics = tet_metrics_from_lengths(mesh, cfg)
        edges = range(mesh.num_edges)
        holonomy = holonomy_deficits(mesh, cfg)
        assert holonomy.tolist() == [
            deficit_angle_holonomy(build_edge_sector(mesh, e, metrics))
            for e in edges]
        # the star kernel on the stars of one direction, as the per-
        # direction passes ran it
        inv = np.linalg.inv(metrics)
        for d, frame in enumerate(mesh._star_frames):
            tets = mesh._star_tets[d]
            assert holonomy[d::7].tolist() == action_module._holonomy(
                frame, metrics[tets], inv[tets]).tolist()

    @pytest.mark.parametrize("grid, passes", [
        ((2, 2, 2), [(32, 6), (24, 4)]),
        ((10, 10, 10), [(341, 6)] * 11 + [(249, 6)] + [(512, 4)] * 5
         + [(440, 4)]),
    ], ids=["2^3", "10^3"])
    def test_star_slabs_equal_one_direction_pass(self, grid, passes,
                                                 monkeypatch):
        # the stars of a valence class, direction by direction, run in
        # slabs of 341 stars (valence 6) or 512 (valence 4), 2048 sector
        # tets at most; at 10^3 a slab ends inside a direction's 1000
        # stars, and the slabs give the one-direction kernel call bit for
        # bit.  Grid 2 keeps one pass a class
        mesh = build_torus_mesh(TorusGeometry(1.0, 1.2, 0.9), grid)
        rng = np.random.default_rng(32)
        metrics = tet_metrics_from_lengths(mesh, random_realizable_config(
            mesh, rng, max_deficit=0.5))
        inv = np.linalg.inv(metrics)
        kernel, stacks = action_module._holonomy, []

        def counted(frames, *gathered):
            stacks.append(gathered[0].shape[:2])
            return kernel(frames, *gathered)

        monkeypatch.setattr(action_module, "_holonomy", counted)
        out = action_module._by_valence(mesh, metrics[None], inv[None])[0]
        assert stacks == passes
        for d, frame in enumerate(mesh._star_frames):
            tets = mesh._star_tets[d]
            assert np.array_equal(out[d::7], kernel(frame, metrics[tets],
                                                    inv[tets]))

    @pytest.mark.parametrize("n, passes", [(2, 2), (6, 5), (16, 73)])
    def test_passes_per_call(self, n, passes, monkeypatch):
        # one valence class a pass up to 2048 sector tets: 28 V stars in
        # slabs of 341 (valence 6) and 512 (valence 4)
        mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (n, n, n))
        kernel, calls = action_module._holonomy, []

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(action_module, "_holonomy", counted)
        holonomy_deficits(mesh, euclidean_lengths(mesh))
        assert len(calls) == passes

    def test_holonomy_inverts_instead_of_solving(self, monkeypatch):
        # each tet metric is inverted once, not solved against once per
        # face normal
        mesh = build_torus_mesh(TorusGeometry(TAU, 2.5 * np.pi, TAU),
                                (2, 3, 2))
        cfg = random_realizable_config(mesh, np.random.default_rng(31),
                                       max_deficit=2.5)
        sector = build_edge_sector(mesh, 5,
                                   tet_metrics_from_lengths(mesh, cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        whole = holonomy_deficits(mesh, cfg)
        assert deficit_angle_holonomy(sector) == whole[5]


def report_fields(rep) -> tuple:
    return (rep.epsilons.tolist(), rep.actions.tolist(), rep.ratios.tolist(),
            rep.extrapolated, rep.target, rep.remainder_slope, rep.pruned)


class TestRows:
    """The rows forms of the action layer, which ``verify`` runs on a
    suite's stacked draws: each row equals its own one-configuration call
    bit for bit, and a refused row raises what its own call raises."""

    @pytest.mark.parametrize("grid, splits", [
        ((3, 3, 3), {"slabs": [7], "class": [[341, 341, 74]],
                     "schedules": [12, 9]}),
        ((4, 4, 4), {"slabs": [5, 2], "class": [[341, 341, 341, 257],
                                                [341, 171]],
                     "schedules": [5, 5, 5, 5, 1]}),
    ], ids=["3^3", "4^3"])
    def test_rows_equal_the_per_row_calls(self, grid, splits):
        # the rows split across slabs: 7 rows in slabs of T tets a row, the
        # star passes of the valence-6 class within each (4 V stars of 6
        # tets a row, 341 stars a pass), and the 3 x 7 rows of three
        # schedules
        mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), grid)
        T, V = mesh.num_tets, mesh.num_vertices

        def sizes(n, tets):
            return [len(range(n)[p]) for p in action_module._slabs(n, tets)]

        assert {"slabs": sizes(7, T),
                "class": [sizes(4 * V * n, 6) for n in sizes(7, T)],
                "schedules": sizes(21, T)} == splits
        rng = np.random.default_rng(42)
        cfgs = [random_realizable_config(mesh, rng, max_deficit=2.5)
                for _ in range(7)]
        S = np.stack([c.squared_lengths for c in cfgs])
        fields = rng.uniform(-1.0, 1.0, (7, mesh.num_edges))
        for got, cfg in zip(action_module._dihedral_rows(mesh, S), cfgs):
            assert np.array_equal(got, deficit_angles(mesh, cfg))
        for got, cfg in zip(action_module._holonomy_rows(mesh, S), cfgs):
            assert np.array_equal(got, holonomy_deficits(mesh, cfg))
        A, eps = assemble_stiffness(mesh), np.geomspace(1e-2, 1e-1, 7)
        reps = action_module._second_variation_rows(mesh, fields[:3], eps, A)
        assert [report_fields(r) for r in reps] == [
            report_fields(second_variation_check(mesh, ReggeField(c), eps, A))
            for c in fields[:3]]
        got = action_module._schlafli_rows(mesh, cfgs[:3], fields[:3], 1e-4)
        assert got == [(schlafli_check(mesh, cfg, d, 1e-4),
                        float(np.sum(deficit_angles(mesh, cfg) * d)))
                       for cfg, d in zip(cfgs[:3], fields[:3])]

    def test_refused_row_raises_its_own_error(self, mesh3):
        good = random_realizable_config(mesh3, np.random.default_rng(43))
        s = good.squared_lengths
        degenerate = s.copy()
        degenerate[mesh3.tet_edges[100, 0]] *= 60.0
        negative = s.copy()
        negative[5] = -1.0
        nan = s.copy()
        nan[7] = np.nan
        errors = {}
        for name, row in (("degenerate", degenerate), ("negative", negative),
                          ("nan", nan)):
            with pytest.raises(RealizabilityError) as info:
                deficit_angles(mesh3, EdgeLengthConfig(row))
            errors[name] = str(info.value)
        # the first refused row wins, whichever check refuses it
        for rows, first in (((s, degenerate, negative), "degenerate"),
                            ((s, negative, degenerate), "negative"),
                            ((s, nan, degenerate), "nan")):
            with pytest.raises(RealizabilityError,
                               match=f"^{re.escape(errors[first])}$"):
                action_module._dihedral_rows(mesh3, np.stack(rows))
        # the holonomy takes checked configurations
        with pytest.raises(RealizabilityError,
                           match=f"^{re.escape(errors['degenerate'])}$"):
            action_module._holonomy_rows(mesh3, np.stack([s, degenerate]))

    def test_holonomy_tests_earlier_rows_for_a_factor_first(self, mesh2,
                                                            monkeypatch):
        # row 0 holds a metric without a Cholesky factor and row 1 a
        # degenerate tet: one row at a time, row 0's error comes first
        cfg = random_realizable_config(mesh2, np.random.default_rng(44))
        bad = cfg.squared_lengths.copy()
        bad[mesh2.tet_edges[30, 0]] *= 60.0
        with pytest.raises(RealizabilityError, match=r"^tet \d+: degenerate"):
            holonomy_deficits(mesh2, EdgeLengthConfig(bad))
        tet_matrices = action_module._tet_matrices

        def bent(mesh, rows):
            mats = tet_matrices(mesh, rows)
            mats[0, 13] = np.diag([1.0, 1.0, -1.0])
            return mats

        monkeypatch.setattr(action_module, "_tet_matrices", bent)
        with pytest.raises(RealizabilityError,
                           match="^tet 13: metric not positive definite$"):
            action_module._holonomy_rows(
                mesh2, np.stack([cfg.squared_lengths, bad]))

    @pytest.mark.parametrize("bad", ["degenerate", "negative"])
    def test_refused_row_in_a_later_slab(self, bad, monkeypatch):
        # 7 rows at 4^3 run in slabs of 5 and 2, and row 6 is refused: the
        # first slab runs stacked, the second again row by row through the
        # rows' own calls, where row 5's returns and row 6's raises
        mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (4, 4, 4))
        assert [len(range(7)[p]) for p in action_module._slabs(
            7, mesh.num_tets)] == [5, 2]
        rng = np.random.default_rng(46)
        S = np.stack([random_realizable_config(
            mesh, rng, max_deficit=2.5).squared_lengths for _ in range(7)])
        if bad == "degenerate":
            S[6, mesh.tet_edges[100, 0]] *= 60.0
        else:
            S[6, 5] = -1.0
        with pytest.raises(RealizabilityError) as info:
            deficit_angles(mesh, EdgeLengthConfig(S[6]))
        message = f"^{re.escape(str(info.value))}$"
        for rows_form, name in ((action_module._dihedral_rows,
                                 "deficit_angles"),
                                (action_module._holonomy_rows,
                                 "holonomy_deficits")):
            calls = []

            def spied(mesh, config, _call=getattr(action_module, name)):
                calls.append(config.squared_lengths)
                return _call(mesh, config)

            monkeypatch.setattr(action_module, name, spied)
            with pytest.raises(RealizabilityError, match=message):
                rows_form(mesh, S)
            # a negative length is refused by the config, before the call
            assert np.array_equal(calls, S[5:7] if bad == "degenerate"
                                  else S[5:6])

    def test_each_direction_prunes_and_warns_in_order(self, mesh2, pencil2,
                                                      caplog):
        A, _ = pencil2
        fields = np.random.default_rng(12).uniform(-1, 1,
                                                   (2, mesh2.num_edges))
        fields[1] *= 0.01  # realizable at every eps of the schedule
        eps = [1e-2, 3e-2, 5.0]
        with pytest.warns(UserWarning, match="pruned") as record, \
                caplog.at_level(logging.DEBUG, logger="reggefem.action"):
            reps = action_module._second_variation_rows(mesh2, fields, eps,
                                                        A)
        assert [r.pruned for r in reps] == [[5.0], []]
        assert [str(w.message) for w in record] == [
            "pruned unrealizable epsilons: [5.0]"]
        assert [r.getMessage() for r in caplog.records] == [
            "second_variation_check: pruned unrealizable epsilons [5.0]"]
        # a direction left with one eps raises, after the warnings of the
        # directions before it
        with pytest.warns(UserWarning, match="pruned"), \
                pytest.raises(RealizabilityError, match="not enough"):
            action_module._second_variation_rows(
                mesh2, fields[::-1], [3e-2, 5.0], A)


class TestAdmission:
    """One admission verdict for stacked rows that no ``EdgeLengthConfig``
    has checked, ``_admitted``: the rule of ``EdgeLengthConfig``, then the
    realizability guard.  A stacked pass raises the first refused row's
    own error."""

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                             ids=["nan", "+inf", "-inf", "zero", "negative"])
    def test_rows_refused_as_their_configs(self, mesh3, bad, row):
        rng = np.random.default_rng(45)
        S = np.stack([random_realizable_config(mesh3, rng).squared_lengths
                      for _ in range(3)])
        S[row, 11] = bad
        with pytest.raises(RealizabilityError) as info:
            EdgeLengthConfig(S[row])
        errors = {row: str(info.value)}
        # the same stack with a degenerate row before or after the refused
        # one: the first refused row wins
        for other in set(range(3)) - {row}:
            T = S.copy()
            T[other, mesh3.tet_edges[100, 0]] *= 60.0
            with pytest.raises(RealizabilityError) as info:
                deficit_angles(mesh3, EdgeLengthConfig(T[other]))
            errors[other] = str(info.value)
            for stack, refused in ((S, [row]), (T, sorted([row, other]))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(RealizabilityError) as info:
                        action_module._dihedral_rows(mesh3, stack)
                    rows, s, *_ = action_module._admitted(mesh3, stack)
                assert str(info.value) == errors[refused[0]]
                # what the eps schedule keeps of a slab
                assert rows.tolist() == sorted(set(range(3)) - set(refused))
                assert s.shape == (6, mesh3.num_tets, len(rows))

    @pytest.mark.parametrize("eps", [0.25, 0.5], ids=["zero", "negative"])
    def test_schedule_prunes_rows_the_rule_refuses(self, mesh2, pencil2,
                                                   eps):
        # the field takes one squared length to exactly 0 at eps 1/4, to
        # -l^2 at 1/2; the other rows keep it at 0.96 l^2 or more
        s0 = euclidean_lengths(mesh2).squared_lengths
        c = np.zeros(mesh2.num_edges)
        c[3] = -4.0 * s0[3]
        with pytest.raises(RealizabilityError, match="must be positive"):
            perturbed_lengths(mesh2, ReggeField(c), eps)
        with pytest.warns(UserWarning, match="pruned") as record:
            rep = second_variation_check(mesh2, ReggeField(c),
                                         [1e-2, eps, 2e-2], pencil2[0])
        assert not [w for w in record
                    if issubclass(w.category, RuntimeWarning)]
        assert rep.pruned == [eps] and rep.epsilons.tolist() == [1e-2, 2e-2]
        assert rep.actions.tolist() == [
            regge_action(mesh2, perturbed_lengths(mesh2, ReggeField(c), e))
            for e in (1e-2, 2e-2)]

    def test_schedule_of_a_non_finite_field_refused(self, mesh2, pencil2,
                                                    monkeypatch):
        # a ValueError before any pass, not a RuntimeWarning from the
        # target c'Ac and every eps pruned into "not enough realizable
        # epsilon values"
        def no_pass(*args):
            raise AssertionError("an action pass ran")

        monkeypatch.setattr(action_module, "_gram", no_pass)
        for bad in (np.nan, np.inf, -np.inf):
            c = np.zeros(mesh2.num_edges)
            c[3] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=(
                        "^u_prime: need finite coefficients$")) as info:
                    second_variation_check(mesh2, ReggeField(c),
                                           [1e-2, 2e-2], pencil2[0])
            assert type(info.value) is ValueError


class TestPointGroupCovariance:
    """The 12 maps of the Kuhn complex onto itself (``point_group``)
    commute with the action routes: a mapped configuration has the mapped
    deficits, by the dihedral and the holonomy route, and the same action;
    the linearized deficits and the edge jump of a mapped field are the
    mapped ones.  Each bound is a roundoff bound, as the mapped torus
    forms every value from its own templates in another order."""

    @pytest.mark.parametrize("sides, grid", [
        ((TAU, TAU, TAU), (3, 3, 3)),
        ((1.0, 2.0, 3.0), (4, 5, 6)),
        ((1e-3, 1.0, 1.0), (2, 3, 4)),
    ], ids=["cube", "1:2:3", "thin"])
    def test_routes_commute_with_the_maps(self, sides, grid):
        mesh = build_torus_mesh(TorusGeometry(*sides), grid)
        rng = np.random.default_rng(50)
        cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
        c = rng.uniform(-1.0, 1.0, mesh.num_edges)
        theta, action = deficit_angles(mesh, cfg), regge_action(mesh, cfg)
        holonomy = holonomy_deficits(mesh, cfg)
        lin = linearized_deficits(mesh, ReggeField(c))
        jump = apply_ctc(mesh, ReggeField(c)).coeffs
        # polarizing a tet's Gram matrix from its squared lengths cancels
        # down to its shortest one, so each of an edge's angle gaps, one
        # per tet of its star, carries the kappa-scaled roundoff of a tet
        # kernel (measured: 5.9 kappa u at most, kappa 4.4 on the cube, 9.1
        # on the 1:2:3 cell, 7e5 on the thin cell)
        valence = max(len(types) for *_, types in _STARS)
        theta_tol = kernel_rtol(cfg.squared_lengths[mesh.tet_edges],
                                angles=valence)
        # the action adds E products theta_e * l_e
        action_tol = (theta_tol * cfg.lengths.sum() + sum_rtol(
            mesh.num_edges) * np.sum(np.abs(theta) * cfg.lengths))
        # an edge's jump is l_e times a row of A c, whose entries the
        # mapped torus forms from its own templates: a row against another
        # route (measured: 13.3 u of max|A| max|c| max l at most, on the
        # thin cell); the linearized deficit is half of it
        jump_tol = (matvec_rtol() * np.abs(assemble_stiffness(mesh).blocks)
                    .max() * np.abs(c).max() * mesh.edge_length.max())
        for p, reflect, _ in point_group():
            mapped = build_torus_mesh(TorusGeometry(*np.array(sides)[p]),
                                      tuple(np.array(grid)[p]))
            image = edge_image(mesh, p, reflect)
            assert sorted(image.tolist()) == list(range(mesh.num_edges))
            s_image, c_image = np.empty((2, mesh.num_edges))
            s_image[image], c_image[image] = cfg.squared_lengths, c
            cfg_image = EdgeLengthConfig(s_image)
            assert np.abs(deficit_angles(mapped, cfg_image)[image]
                          - theta).max() <= theta_tol
            assert np.abs(holonomy_deficits(mapped, cfg_image)[image]
                          - holonomy).max() <= theta_tol
            assert abs(regge_action(mapped, cfg_image) - action) \
                <= action_tol
            u_image = ReggeField(c_image)
            assert np.abs(linearized_deficits(mapped, u_image)[image]
                          - lin).max() <= jump_tol / 2
            assert np.abs(apply_ctc(mapped, u_image).coeffs[image]
                          - jump).max() <= jump_tol


class TestHolonomyReadOff:
    @pytest.mark.parametrize("grid, lengths", [*GOLDEN_GRIDS.values(),
                                               STAR_GRIDS[-1]],
                             ids=[*GOLDEN_GRIDS, "thin"])
    def test_k_minus_of_face_zero_is_gram_schmidt_w2(self, grid, lengths):
        # the holonomy reads its rotation in the frame (w1, k-) of face 0;
        # k- is the vector that Gram-Schmidt of (t, m_0, n_0) in the start
        # metric U gives last, up to rounding: two routes to a unit vector
        # whose components sum three terms (measured: 4.2 u of its largest
        # component at most, on the 4x5x6 torus)
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        metrics = tet_metrics_from_lengths(mesh, random_realizable_config(
            mesh, np.random.default_rng(0), max_deficit=2.5))
        for d, frame in enumerate(mesh._star_frames):
            mats = metrics[mesh._star_tets[d]]
            k = _unit_normals(frame.ns, np.linalg.inv(mats))[0][:, 0]
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
            assert (np.abs(k - w2).max(axis=1) <= sum_rtol(FRAME_TERMS)
                    * np.abs(w2).max(axis=1)).all()


# The whole-mesh holonomy must reproduce the per-edge route's digest.
WHOLE_MESH = {"holonomy_deficits": "deficit_angle_holonomy"}

# The linearized_deficits digests of the meshed star pass, which
# oracles.linearized_star_pass runs as the library did.
STAR_PASS = {"2x3x2": "93e6f880f5ad59a9", "3x3x3": "cc175d750c58b5c6",
             "4x5x6": "94aa9b3cfe0f569d"}


def _action_outputs(grid, lengths) -> dict:
    mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
    rng = np.random.default_rng(0)
    cfg = random_realizable_config(mesh, rng, max_deficit=2.5)
    up = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
    metrics = tet_metrics_from_lengths(mesh, cfg)
    edges = range(mesh.num_edges)
    sectors = [build_edge_sector(mesh, e, metrics) for e in edges]

    def lowest_first(e, name):
        # sector data run in template order; pinned from the lowest face
        return lowest_face_first(mesh, e, getattr(sectors[e], name))

    def faces_tets(e):
        faces = _star_faces(mesh, e % 7, e // 7)
        return tuple(tuple(lowest_face_first(mesh, e, x).tolist())
                     for x in (faces, _edge_tets(mesh, e)))

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
        "holonomy_deficits": holonomy_deficits(mesh, cfg),
        "linearized_deficits": linearized_deficits(mesh, up),
        "sector.ms": [lowest_first(e, "ms") for e in edges],
        "sector.ns": [lowest_first(e, "ns") for e in edges],
        "sector.metrics": [lowest_first(e, "metrics") for e in edges],
        "sector.faces_tets": [faces_tets(e) for e in edges],
    }


class TestGoldenDigests:
    @pytest.mark.parametrize("label", sorted(GOLDEN_GRIDS))
    def test_action_outputs_bit_identical(self, label):
        out = _action_outputs(*GOLDEN_GRIDS[label])
        golden = GOLDEN[label] | {k: GOLDEN[label][v]
                                  for k, v in WHOLE_MESH.items()}
        assert {k: digest(v) for k, v in out.items()} == golden

    @pytest.mark.parametrize("label", sorted(GOLDEN_GRIDS))
    def test_star_pass_oracle_is_the_former_route(self, label):
        grid, lengths = GOLDEN_GRIDS[label]
        mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
        rng = np.random.default_rng(0)
        random_realizable_config(mesh, rng, max_deficit=2.5)
        up = ReggeField(rng.uniform(-1.0, 1.0, mesh.num_edges))
        assert digest(linearized_star_pass(mesh, up)) == STAR_PASS[label]
