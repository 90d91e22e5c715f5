import functools
import json
import re
import warnings

import numpy as np
import pytest

from golden import digest
from reggefem.cli import COMMANDS, ConfigError, _resolve, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMeshCommand:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "mesh", "--grid", "2", "2", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["counts"] == {"vertices": 8, "edges": 56,
                                     "faces": 96, "tets": 48}
        assert payload["config"]["grid"] == [2, 2, 2]

    def test_full_incidence(self, capsys):
        code, out, _ = run(capsys, "mesh", "--grid", "2", "2", "2",
                           "--full-incidence")
        assert code == 0
        assert "incidence" in json.loads(out)

    def test_grid_too_coarse_is_config_error(self, capsys):
        code, _, err = run(capsys, "mesh", "--grid", "1", "1", "1")
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("n", [10 ** 18, 10 ** 20])
    def test_grid_beyond_numpy_arrays_refused_before_any_array(
            self, capsys, tmp_path, monkeypatch, n):
        # 10**18 once ended in "array is too big", 10**20 in an
        # OverflowError: the key checks now refuse both, building nothing
        from reggefem import cli, mesh
        from reggefem.mesh import MeshError, checked_grid

        def no_build(*args):
            raise AssertionError("an array was built")
        for name in ("build_torus_mesh", "stencil_operators",
                     "convergence_study"):
            monkeypatch.setattr(cli, name, no_build)
        monkeypatch.setattr(np, "arange", no_build)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": [2, 2, float(n)]}))
        for argv in (("mesh", "--grid", "2", "2", str(n)),
                     ("eigs", "--grid", str(n), "2", "2"),
                     ("mesh", "--config", str(path)),
                     ("converge", "--grids", "2", str(n))):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert re.fullmatch(r"error: grids?: more than \d+ vertices, "
                                r"too many for numpy arrays\n", err)
        monkeypatch.undo()
        with pytest.raises(MeshError, match="too many"):
            checked_grid((2, 2, n))
        # the bound is on the vertex count
        largest = (2, 2, mesh._MAX_VERTICES // 4)
        assert checked_grid(largest) == largest
        with pytest.raises(MeshError, match="too many"):
            checked_grid((2, 2, largest[2] + 1))

    def test_out_of_memory_names_the_grid(self, capsys, monkeypatch):
        # a grid the checks admit but the machine cannot hold: no real
        # allocation is tried, the build raises as an oversized one would
        from reggefem import cli

        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(cli, "build_torus_mesh", out_of_memory)
        monkeypatch.setattr(cli, "convergence_study", out_of_memory)
        code, out, err = run(capsys, "mesh", "--grid", "2", "2", "1000")
        assert (code, out) == (2, "")
        assert err == ("error: grid: [2, 2, 1000] needs more memory than is "
                       "available\n")
        code, _, err = run(capsys, "converge", "--grids", "2", "300")
        assert code == 2
        assert err.startswith("error: grids: [2, 300] needs more memory")


class TestEigsCommand:
    def test_grid_1_config_error(self, capsys):
        code, _, err = run(capsys, "eigs", "--grid", "1", "1", "1")
        assert code == 2

    @pytest.mark.parametrize("argv, key", [
        (("--cutoff", "-1"), "cutoff"),
        (("--cutoff", "0"), "cutoff"),
        (("--n-targets", "0"), "n_targets"),
        (("--n-targets", "50"), "n_targets"),
    ])
    def test_bad_targets_config_error(self, capsys, argv, key):
        code, out, err = run(capsys, "eigs", "--grid", "2", "2", "2", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("cutoff, n_targets, have", [("1.5", "5", 2),
                                                         ("0.5", "2", 0)])
    def test_cutoff_below_n_targets_config_error(self, capsys, cutoff,
                                                 n_targets, have):
        code, out, err = run(capsys, "eigs", "--grid", "3", "3", "3",
                             "--cutoff", cutoff, "--n-targets", n_targets)
        assert (code, out) == (2, "")
        assert err.startswith("error: n_targets:")
        assert f"has {have} targets" in err

    @pytest.mark.parametrize("key, value", [("cutoff", "x"),
                                            ("n_targets", "x")])
    def test_mistyped_config_value_is_config_error(self, capsys, tmp_path,
                                                   key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, err = run(capsys, "eigs", "--config", str(cfg))
        assert code == 2
        assert err.startswith(f"error: {key}:")

    def test_eigs_json_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "spectrum.csv"
        code, out, _ = run(capsys, "eigs", "--grid", "2", "2", "2",
                           "--csv", str(csv))
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_dim"] == 27
        assert payload["num_eigenvalues"] == 56
        lines = csv.read_text().splitlines()
        assert lines[2] == "eigenvalue,index,cluster,target,error"
        assert len(lines) == 3 + 56

    def test_eigs_byte_identical_reruns(self, capsys, tmp_path):
        csv = tmp_path / "spectrum.csv"
        _, out1, _ = run(capsys, "eigs", "--grid", "2", "2", "2",
                         "--csv", str(csv))
        bytes1 = csv.read_bytes()
        _, out2, _ = run(capsys, "eigs", "--grid", "2", "2", "2",
                         "--csv", str(csv))
        assert out1 == out2
        assert csv.read_bytes() == bytes1


class TestOracleCommand:
    def test_low_cutoff_rows(self, capsys):
        code, out, _ = run(capsys, "oracle", "--cutoff", "1.5")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#")][1:]
        assert rows[0][2] == "kernel"
        data = {(float(r[0]), int(r[1])) for r in rows[1:]}
        assert data == {(-1.0, 12), (1.0, 6)}

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "oracle", "--cutoff", "4.5")
        _, out2, _ = run(capsys, "oracle", "--cutoff", "4.5")
        assert out1 == out2

    def test_bad_cutoff(self, capsys):
        code, _, err = run(capsys, "oracle", "--cutoff", "-1")
        assert code == 2

    @pytest.mark.parametrize("argv, key", [
        (("oracle", "--cutoff", "1e308"), "cutoff"),
        (("oracle", "--cutoff", "1e5"), "cutoff"),
        (("oracle", "--lengths", "1e300", "1", "1", "--cutoff", "1e300"),
         "cutoff"),
        (("eigs", "--cutoff", "1e308"), "cutoff"),
        (("eigs", "--n-targets", "100000000"), "n_targets"),
    ])
    def test_box_too_large_to_enumerate_is_config_error(self, capsys, argv,
                                                        key):
        # once a hang (1e308) or tens of seconds: refused before the
        # enumeration, naming the key that sets the cutoff
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: {key}: cutoff \S+ needs more than "
                            r"16777216 frequencies to enumerate\n", err)

    def test_cutoff_below_first_mode_reports_kernel_only(self, capsys):
        code, out, _ = run(capsys, "oracle", "--cutoff", "0.5")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 1 and rows[0][2] == "kernel"


class TestAssembleCommand:
    def test_writes_matrices(self, capsys, tmp_path):
        prefix = str(tmp_path / "pencil")
        code, out, _ = run(capsys, "assemble", "--grid", "2", "2", "2",
                           "--prefix", prefix)
        assert code == 0
        payload = json.loads(out)
        assert payload["stiffness"]["symmetry_residual"] < 1e-10
        assert payload["constant_kernel_residual"] < 1e-12
        from reggefem import read_coo, assemble_stiffness, build_torus_mesh
        from reggefem.mesh import TorusGeometry
        mesh = build_torus_mesh(TorusGeometry(*payload["config"]["lengths"]),
                                payload["config"]["grid"])
        A = assemble_stiffness(mesh)
        back = read_coo(prefix + "_A.txt")
        assert np.abs((back - A.matrix).toarray()).max() == 0.0

    def test_expands_no_matrix(self, capsys, tmp_path, monkeypatch):
        # the files, the nnz counts and the constant-kernel residual are
        # all read off the block rows, and the edge jump is the window
        # matvec of the blocks: no E x E matrix is built
        from reggefem import ReggeField, apply_ctc, assemble_mass, \
            assemble_stiffness, build_torus_mesh, edge_jump_scalar, \
            saint_venant, second_variation_check
        from reggefem.mesh import TorusGeometry
        from reggefem.saint_venant import BlockCirculant
        expanded = []
        expand = BlockCirculant.matrix.func

        def matrix(self):
            expanded.append(self)
            return expand(self)

        counted = functools.cached_property(matrix)
        counted.__set_name__(BlockCirculant, "matrix")
        monkeypatch.setattr(BlockCirculant, "matrix", counted)
        code, out, _ = run(capsys, "assemble", "--grid", "2", "3", "2",
                           "--prefix", str(tmp_path / "pencil"))
        assert code == 0
        mesh = build_torus_mesh(TorusGeometry(TAU, 2.5 * np.pi, 3 * np.pi),
                                (4, 5, 6))
        u = ReggeField(np.random.default_rng(0).uniform(-1, 1,
                                                        mesh.num_edges))
        # nor the sparsity pattern, which write_coo uses (its cache
        # cleared of the command's, so that it counts only these calls)
        saint_venant._pattern.cache_clear()
        jump = apply_ctc(mesh, u).coeffs
        assert edge_jump_scalar(mesh, u, 17) == jump[17]
        assert saint_venant._pattern.cache_info().currsize == 0
        assert expanded == []
        mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (2, 3, 2))
        A, M = assemble_stiffness(mesh), assemble_mass(mesh)
        assert expanded == []
        A.matrix  # the counter sees an expansion
        assert len(expanded) == 1 and expanded[0] is A
        payload = json.loads(out)
        assert payload["stiffness"]["nnz"] == A.nnz
        assert payload["mass"]["nnz"] == M.nnz
        # verify checks the complex on the blocks and applies A by its
        # matvec, and so does the second-variation target; neither it nor
        # the constant-kernel residual builds the sparsity pattern
        expanded.clear()
        saint_venant._pattern.cache_clear()
        code, out, _ = run(capsys, "verify", "--grid", "2", "3", "2")
        assert code == 0 and out.endswith("14/14 checks passed\n")
        assert saint_venant.constant_kernel_residual(
            mesh.edge_vec, A, np.random.default_rng(0)) < 1e-15
        assert saint_venant._pattern.cache_info().currsize == 0
        c = np.random.default_rng(1).uniform(-1, 1, mesh.num_edges)
        rep = second_variation_check(mesh, ReggeField(c),
                                     np.geomspace(1e-2, 1e-1, 7), A)
        assert expanded == []
        assert abs(rep.target - c @ (A.matrix @ c) / 8) \
            <= 1e-14 * abs(rep.target)
        assert rep.rel_error < 1e-2


class TestConvergeCommand:
    def test_monotone_exit_zero(self, capsys):
        code, out, _ = run(capsys, "converge", "--grids", "2", "3")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0].startswith("grid,")
        assert len(rows) == 1 + 4  # two grids x two targets

    def test_nonincreasing_grids_config_error(self, capsys):
        code, _, err = run(capsys, "converge", "--grids", "3", "2")
        assert code == 2

    def test_default_cutoff_below_n_eigs_config_error(self, capsys):
        # on a thin torus the default cutoff admits only the six targets
        # +-1, +-4, +-9 of the long axis
        code, out, err = run(capsys, "converge", "--grids", "2", "3",
                             "--n-eigs", "8", "--lengths",
                             str(2 * np.pi), "1", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: n_eigs: the oracle has 6 targets")


class TestActionCommand:
    def test_flat_action_zero(self, capsys):
        code, out, _ = run(capsys, "action", "--grid", "2", "2", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["action"] == 0.0
        assert payload["max_abs_deficit"] < 1e-12

    def test_perturbed_action(self, capsys, tmp_path):
        csv = tmp_path / "deficits.csv"
        code, out, _ = run(capsys, "action", "--grid", "2", "2", "2",
                           "--perturb-seed", "0", "--perturb-scale", "0.05",
                           "--csv", str(csv))
        assert code == 0
        payload = json.loads(out)
        assert payload["action"] != 0.0
        lines = [l for l in csv.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "edge,length,deficit"
        assert len(lines) == 1 + 56

    def test_lengths_json_input(self, capsys, tmp_path):
        from reggefem import build_torus_mesh, euclidean_lengths
        from reggefem.mesh import TorusGeometry
        mesh = build_torus_mesh(TorusGeometry(2 * np.pi, 2 * np.pi,
                                              2 * np.pi), (2, 2, 2))
        path = tmp_path / "lengths.json"
        path.write_text(json.dumps(euclidean_lengths(mesh).to_json()))
        code, out, _ = run(capsys, "action", "--grid", "2", "2", "2",
                           "--lengths-json", str(path))
        assert code == 0
        assert json.loads(out)["action"] == 0.0

    def test_wrong_length_count(self, capsys, tmp_path):
        path = tmp_path / "lengths.json"
        path.write_text(json.dumps({"squared_lengths": [1.0, 2.0]}))
        code, _, err = run(capsys, "action", "--grid", "2", "2", "2",
                           "--lengths-json", str(path))
        assert code == 2

    @pytest.mark.parametrize("payload", [
        "[1, 2, 3]", "5", "[-1]", "{}", '{"squared_lengths": "abc"}',
        '{"squared_lengths": [[1.0], [1.0, 2.0]]}',
        '{"squared_lengths": [-1]}',
        pytest.param('{"squared_lengths": [NaN' + ', 1.0' * 55 + ']}',
                     id="nan-among-56"),
        # 56 realizable values each, of a type other than a flat list of
        # numbers: nested, JSON booleans (read as 1.0), numeric strings
        pytest.param(json.dumps({"squared_lengths": [[1.0] * 7] * 8}),
                     id="nested-8x7"),
        pytest.param(json.dumps({"squared_lengths": [True] * 56}),
                     id="bools-56"),
        pytest.param(json.dumps({"squared_lengths": ["1.0"] * 56}),
                     id="strings-56"),
    ])
    def test_malformed_lengths_json_is_config_error(self, capsys, tmp_path,
                                                    payload):
        path = tmp_path / "lengths.json"
        path.write_text(payload)
        code, out, err = run(capsys, "action", "--lengths-json", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: lengths_json:")

    @pytest.mark.parametrize("argv, message", [
        # a thin cell whose flat tets fail the relative guard
        (("--grid", "3", "3", "3", "--lengths", "1e-7", "1", "1"),
         "tet 0: degenerate edge lengths"),
        # amplitudes that break a triangle inequality, or a squared length
        (("--perturb-seed", "0", "--perturb-scale", "5"),
         "tet 14: degenerate edge lengths"),
        (("--perturb-seed", "0", "--perturb-scale", "100"),
         "squared lengths must be positive"),
        (("--lengths-json", "stretched.json"),
         "tet 0: degenerate edge lengths"),
    ], ids=["thin-cell", "perturb-degenerate", "perturb-negative", "json"])
    def test_unrealizable_lengths_are_config_error(self, capsys, tmp_path,
                                                   monkeypatch, argv,
                                                   message):
        from reggefem import build_torus_mesh, euclidean_lengths
        from reggefem.mesh import TorusGeometry
        mesh = build_torus_mesh(TorusGeometry(2 * np.pi, 2 * np.pi,
                                              2 * np.pi), (2, 2, 2))
        s = euclidean_lengths(mesh).squared_lengths.copy()
        s[mesh.tet_edges[0, 0]] *= 60.0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stretched.json").write_text(
            json.dumps({"squared_lengths": s.tolist()}))
        code, out, err = run(capsys, "action", "--grid", "2", "2", "2",
                             *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: lengths: {message}")


class TestVerifyCommand:
    def test_grid2_seed0_passes(self, capsys, tmp_path):
        js = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", "--grid", "2", "2", "2",
                           "--seed", "0", "--json", str(js))
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out
        payload = json.loads(js.read_text())
        assert payload["failures"] == 0

    def test_grid3_gate(self, capsys, tmp_path):
        # the two checks with known false failures are reported, not judged
        known_false = {"second_variation_remainder_slope",
                       "schlafli_identity"}
        js = tmp_path / "verify.json"
        code, out, _ = run(capsys, "verify", "--grid", "3", "3", "3",
                           "--seed", "0", "--json", str(js))
        results = json.loads(js.read_text())["results"]
        assert len(results) == 14
        assert len(out.splitlines()) == 15
        failed = [r["name"] for r in results if not r["passed"]]
        assert code == len(failed)
        assert set(failed) <= known_false


class TestEigsCsvLabels:
    def test_rows_labelled_by_cluster_member(self, capsys, tmp_path):
        # grid 4 with three targets has eigenvalues one ulp apart next to
        # the third cluster; only its actual members may carry its label
        csv = tmp_path / "spectrum.csv"
        code, out, _ = run(capsys, "eigs", "--grid", "4", "4", "4",
                           "--n-targets", "3", "--csv", str(csv))
        assert code == 0
        rows = [l.split(",") for l in csv.read_text().splitlines()[3:]]
        for ci, cluster in enumerate(json.loads(out)["clusters"]):
            labelled = [float(r[0]) for r in rows if int(r[2]) == ci]
            assert sorted(labelled) == sorted(cluster["eigenvalues"])


COMMAND_KEYS = [(name, key) for name, command in COMMANDS.items()
                for key in command.defaults]


class TestConfigTable:
    """Generated from COMMANDS: every subcommand and each of its keys."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("command, key", COMMAND_KEYS)
    def test_wrong_typed_value_is_config_error(self, capsys, tmp_path,
                                               command, key):
        # no config key takes a JSON object
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: {"x": 1}}))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("command, key", COMMAND_KEYS)
    def test_null_accepted_exactly_where_default_is_null(self, tmp_path,
                                                         command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        args = build_parser().parse_args([command, "--config", str(cfg)])
        if COMMANDS[command].defaults[key] is None:
            assert _resolve(args)[key] is None
        else:
            with pytest.raises(ConfigError, match=f"^{key}: "):
                _resolve(args)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_the_subcommand_flags(self, capsys, command):
        with pytest.raises(SystemExit) as ex:
            main([command, "--help"])
        assert ex.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        keys = ["help", "config", *COMMANDS[command].defaults]
        assert flags == {"--" + k.replace("_", "-") for k in keys}


class TestConfigHandling:
    @pytest.mark.parametrize("argv", [
        ("assemble", "--lengths", "1e-170", "1", "1"),
        ("mesh", "--lengths", "1e200", "1", "1"),
        ("eigs", "--grid", "2", "2", "2", "--lengths", "1e-8", "1", "1"),
        ("converge", "--grids", "2", "--lengths", "1e-8", "1", "1"),
        ("converge", "--grids", "2", "3", "--lengths", "1e-170", "1", "1"),
        # the mass entries overflow (about h2 h3 / h1^3) where the
        # templates are still finite
        ("assemble", "--lengths", "1e-103", "1", "1"),
        ("assemble", "--lengths", "1e-150", "1", "1"),
        ("mesh", "--lengths", "1e-103", "1", "1"),
        ("eigs", "--lengths", "1e-150", "1", "1"),
        ("converge", "--lengths", "1e-150", "1", "1"),
        ("verify", "--lengths", "1e-150", "1", "1"),
    ])
    def test_side_lengths_beyond_double_precision_are_config_errors(
            self, capsys, tmp_path, monkeypatch, argv):
        # valid numbers, too far apart for the grid: the one-box templates
        # or the mass matrix fail, and nothing is written
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: lengths: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (("eigs", "--grid", "2", "2", "2", "--lengths", "1e-8", "1", "1"),
         "mass matrix not SPD (an assembly bug, or cells too anisotropic "
         "for double precision)"),
        (("eigs", "--grid", "2", "3", "4", "--lengths", "1e-200", "1", "1"),
         "side lengths [1e-200, 1.0, 1.0] give grid (2, 3, 4) a zero or "
         "non-finite cell geometry"),
        (("converge", "--grids", "2", "3", "--lengths", "1e-170", "1", "1"),
         "side lengths [1e-170, 1.0, 1.0] give grid (2, 2, 2) a zero or "
         "non-finite cell geometry"),
        # the mass entries overflow: refused before any solve
        (("eigs", "--grid", "2", "2", "2", "--lengths", "1e-150", "1", "1"),
         "side lengths [1e-150, 1.0, 1.0] give grid (2, 2, 2) a zero or "
         "non-finite cell geometry"),
        (("converge", "--grids", "2", "3", "--lengths", "1e-150", "1", "1"),
         "side lengths [1e-150, 1.0, 1.0] give grid (2, 2, 2) a zero or "
         "non-finite cell geometry"),
    ])
    def test_spectrum_lengths_error_names_the_users_torus(self, capsys,
                                                         argv, message):
        # the spectra are built from the one-box templates of the user's
        # sides and grid, and no other torus is named
        assert run(capsys, *argv) == (2, "", f"error: lengths: {message}\n")

    def test_spectrum_of_a_thin_cell_is_solved(self, capsys, tmp_path):
        # a side 1e-7 of the others keeps the mass symbols SPD, where the
        # 1e-8 and 1e-200 cases above fail
        code, _, err = run(capsys, "eigs", "--grid", "3", "3", "3",
                           "--lengths", "1e-7", "1", "1",
                           "--output", str(tmp_path / "eigs.json"))
        assert (code, err) == (0, "")

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": [3, 3, 3]}))
        code, out, _ = run(capsys, "mesh", "--config", str(cfg),
                           "--grid", "2", "2", "2")
        assert code == 0
        assert json.loads(out)["config"]["grid"] == [2, 2, 2]
        code, out, _ = run(capsys, "mesh", "--config", str(cfg))
        assert json.loads(out)["config"]["grid"] == [3, 3, 3]

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gird": [3, 3, 3]}))
        code, _, err = run(capsys, "mesh", "--config", str(cfg))
        assert code == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("seed", 1.5), ("seed", True), ("seed", -1),
        ("lengths", ["a", 1, 1]), ("lengths", 5), ("lengths", "abc"),
        ("lengths", [1, 1, None]),
        ("grid", ["x", 2, 2]), ("grid", 3), ("grid", [2, 2, 2.5]),
        ("grid", [2, 2, True]),
    ])
    def test_mistyped_common_value_is_config_error(self, capsys, tmp_path,
                                                   key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("command, key, value", [
        ("converge", "grids", "x"),
        ("converge", "grids", [2.5, 3]),
        ("converge", "grids", []),
        ("converge", "n_eigs", "x"),
        ("converge", "n_eigs", 0),
        ("converge", "n_eigs", 50),
        ("converge", "lengths", ["a", 1, 1]),
        ("action", "perturb_seed", "x"),
        ("action", "perturb_seed", -1),
        ("action", "perturb_scale", "x"),
        ("oracle", "cutoff", "x"),
        ("oracle", "lengths", "abc"),
        ("mesh", "output", 5),
        ("eigs", "csv", 5),
        ("converge", "json", 5),
        ("action", "lengths_json", 5),
        ("assemble", "prefix", 5),
        ("assemble", "prefix", None),
        ("mesh", "full_incidence", "no"),
        ("oracle", "cutoff", float("inf")),
        ("eigs", "cutoff", float("nan")),
        ("action", "perturb_scale", float("nan")),
        ("verify", "lengths", [float("inf"), 1, 1]),
    ])
    def test_mistyped_command_value_is_config_error(self, capsys, tmp_path,
                                                    command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("argv, key", [
        (("mesh", "--output", "nodir/m.json"), "output"),
        (("mesh", "--output", ""), "output"),
        (("assemble", "--prefix", "nodir/p"), "prefix"),
        (("assemble", "--prefix", ""), "prefix"),
        (("converge", "--grids", "2", "--output", "nodir/c.csv"), "output"),
        (("converge", "--grids", "2", "--json", ""), "json"),
        (("eigs", "--csv", ""), "csv"),
        (("verify", "--json", "nodir/v.json"), "json"),
        (("action", "--lengths-json", ""), "lengths_json"),
    ])
    def test_unopenable_path_is_config_error(self, capsys, tmp_path,
                                             monkeypatch, argv, key):
        monkeypatch.chdir(tmp_path)
        # reported by the key checks, so before any computation
        with pytest.raises(ConfigError, match=f"^{key}: "):
            _resolve(build_parser().parse_args(argv))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, key, directory", [
        (("mesh", "--output", "d"), "output", "d"),
        (("eigs", "--csv", "d"), "csv", "d"),
        (("verify", "--json", "d"), "json", "d"),
        (("assemble", "--prefix", "p"), "prefix", "p_M.txt"),
    ])
    def test_existing_directory_as_path_is_config_error(
            self, capsys, tmp_path, monkeypatch, argv, key, directory):
        monkeypatch.chdir(tmp_path)
        (tmp_path / directory).mkdir()
        with pytest.raises(ConfigError,
                           match=f"^{key}: '{directory}' is a directory"):
            _resolve(build_parser().parse_args(argv))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}:")
        assert [p.name for p in tmp_path.iterdir()] == [directory]

    def test_prefix_next_to_directory_of_its_name(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pencil").mkdir()
        code, out, _ = run(capsys, "assemble", "--prefix", "pencil")
        assert code == 0
        assert json.loads(out)["stiffness"]["path"] == "pencil_A.txt"
        assert (tmp_path / "pencil_A.txt").is_file()
        assert (tmp_path / "pencil_M.txt").is_file()

    @pytest.mark.parametrize("content", [
        b"5", b"null", b'[["grid", [3, 3, 3]]]', b"\xff\xfe{}"])
    def test_config_not_an_object_is_config_error(self, capsys, tmp_path,
                                                  content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out, err = run(capsys, "mesh", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: config:")

    @pytest.mark.parametrize("argv, key", [
        (("oracle", "--cutoff", "inf"), "cutoff"),
        (("eigs", "--cutoff", "inf"), "cutoff"),
        (("mesh", "--lengths", "inf", "1", "1"), "lengths"),
        (("mesh", "--lengths", "nan", "1", "1"), "lengths"),
        (("action", "--perturb-seed", "1", "--perturb-scale", "nan"),
         "perturb_scale"),
    ])
    def test_non_finite_flag_is_config_error(self, capsys, argv, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {key}:")

    def test_integral_float_grids_echoed_as_integers(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grids": [2.0, 3]}))
        code, out, _ = run(capsys, "converge", "--config", str(cfg))
        assert code == 0
        assert '"grids": [2, 3]' in out.splitlines()[1]

    @pytest.mark.parametrize("argv, path_flag", [
        (("converge", "--grids", "2", "3", "4"), "--json"),
        (("eigs", "--grid", "3", "3", "3"), "--csv"),
    ])
    def test_byte_identical_reruns(self, capsys, tmp_path, argv, path_flag):
        path = tmp_path / "second_output"
        runs = []
        for _ in range(2):
            code, out, err = run(capsys, *argv, path_flag, str(path))
            runs.append((code, out, err, path.read_bytes()))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_integral_float_grid_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": [2.0, 2, 2]}))
        code, out, _ = run(capsys, "mesh", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["grid"] == [2, 2, 2]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "mesh.json"
        code, out, _ = run(capsys, "mesh", "--grid", "2", "2", "2",
                           "-o", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["counts"]["edges"] == 56


# ---------------------------------------------------------------------------
# Golden CLI runs: SHA-256 digests (tests/golden.py) of exit code, stdout,
# stderr and every written file, for a fixed argv list run in an empty
# directory with relative paths.  Inputs are written there first.

TAU = 2.0 * np.pi
BENCH_LENGTHS = [repr(x) for x in (TAU, 2.5 * np.pi, 3.0 * np.pi)]
WRONG_COUNT = {"squared_lengths": [1.0, 2.0]}


def _euclidean_2x2x2():
    from reggefem import build_torus_mesh, euclidean_lengths
    from reggefem.mesh import TorusGeometry
    mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (2, 2, 2))
    return euclidean_lengths(mesh).to_json()


GOLDEN_RUNS = {
    "mesh": (("mesh", "--grid", "2", "2", "2"), {}),
    "mesh_incidence_file": (("mesh", "--grid", "2", "3", "2",
                             "--full-incidence", "-o", "mesh.json"), {}),
    "mesh_lengths": (("mesh", "--lengths", "1", "2", "3",
                      "--grid", "3", "3", "3"), {}),
    "mesh_grid_1": (("mesh", "--grid", "1", "1", "1"), {}),
    "assemble_bench": (("assemble", "--grid", "4", "5", "6", "--lengths",
                        *BENCH_LENGTHS, "--prefix", "pencil", "--seed", "0",
                        "--output", "assemble.json"), {}),
    "assemble_seed": (("assemble", "--seed", "3"), {}),
    "eigs_csv": (("eigs", "--grid", "2", "2", "2", "--csv", "s.csv"), {}),
    "eigs_grid3": (("eigs", "--grid", "3", "3", "3", "--n-targets", "3",
                    "--csv", "s.csv"), {}),
    "eigs_cutoff": (("eigs", "--grid", "2", "3", "2", "--cutoff", "3.0"),
                    {}),
    "eigs_too_many": (("eigs", "--n-targets", "50"), {}),
    "oracle": (("oracle",), {}),
    "oracle_lengths": (("oracle", "--lengths", "6", "7", "8",
                        "--cutoff", "4.5", "-o", "o.csv"), {}),
    "oracle_negative": (("oracle", "--cutoff", "-1"), {}),
    "converge_bench": (("converge", "--grids", "3", "4", "5", "--n-eigs",
                        "2", "--output", "c.csv", "--json", "c.json"), {}),
    "converge_short": (("converge", "--grids", "2", "3"), {}),
    "converge_decreasing": (("converge", "--grids", "3", "2"), {}),
    "action_flat": (("action", "--grid", "2", "2", "2"), {}),
    "action_perturbed": (("action", "--grid", "2", "2", "2",
                          "--perturb-seed", "0", "--perturb-scale", "0.05",
                          "--csv", "d.csv"), {}),
    "action_lengths_json": (("action", "--lengths-json", "l.json"),
                            {"l.json": _euclidean_2x2x2()}),
    "action_wrong_count": (("action", "--lengths-json", "l.json"),
                           {"l.json": WRONG_COUNT}),
    "verify_bench": (("verify", "--grid", "2", "2", "2", "--seed", "0",
                      "--output", "v.txt", "--json", "v.json"), {}),
    "verify_thin": (("verify", "--lengths", "1e-6", "1", "1"), {}),
    "config_mesh": (("mesh", "--config", "c.json"),
                    {"c.json": {"grid": [3, 3, 3], "lengths": [1, 2, 3]}}),
    "config_override": (("mesh", "--config", "c.json", "--grid", "2", "2",
                         "2"), {"c.json": {"grid": [3, 3, 3]}}),
    "config_unknown": (("mesh", "--config", "c.json"),
                       {"c.json": {"gird": [3, 3, 3]}}),
    "config_missing": (("mesh", "--config", "missing.json"), {}),
    "config_eigs": (("eigs", "--config", "c.json"),
                    {"c.json": {"grid": [2.0, 2, 2], "n_targets": 1,
                                "cutoff": None, "csv": "s.csv"}}),
    "config_converge": (("converge", "--config", "c.json"),
                        {"c.json": {"grids": [2.0, 3], "n_eigs": 1,
                                    "json": "c2.json"}}),
    "config_action": (("action", "--config", "c.json"),
                      {"c.json": {"perturb_seed": 1, "perturb_scale": 0.02,
                                  "lengths_json": None}}),
    "config_prefix_null": (("assemble", "--config", "c.json"),
                           {"c.json": {"prefix": None}}),
    "config_oracle_null": (("oracle", "--config", "c.json"),
                           {"c.json": {"cutoff": None}}),
    "config_verify_seed": (("verify", "--config", "c.json"),
                           {"c.json": {"seed": "x"}}),
}

GOLDEN_DIGESTS = {
    "action_flat": "30a9cd848cc5fd31",
    "action_lengths_json": "06ae2303093f96ce",
    "action_perturbed": "a829732ecb0b533a",
    "action_wrong_count": "a4dcfa10f85ab2e6",
    "assemble_bench": "af598493fcde9c82",
    "assemble_seed": "3bbd3269bd671ff3",
    "config_action": "a69f2e000918939e",
    "config_converge": "9b16586d0ee85ede",
    "config_eigs": "5c041a117fcedddc",
    "config_mesh": "d6f7a697455379a1",
    "config_missing": "e396ae7d165ad749",
    "config_oracle_null": "0b3c30ac432fb44c",
    "config_override": "68618ba4a72bda53",
    "config_prefix_null": "08392b5498ae21d6",
    "config_unknown": "98177f81e0c069ff",
    "config_verify_seed": "45f15a419dc988d3",
    "converge_bench": "fb4c482f1994ea79",
    "converge_decreasing": "b306d47ec13f0bde",
    "converge_short": "774a21ab44a6a803",
    "eigs_csv": "035b38b016b2d532",
    "eigs_cutoff": "8f19732170969b73",
    "eigs_grid3": "61940fab6a16d1ca",
    "eigs_too_many": "5cd405e445d8ac8d",
    "mesh": "68618ba4a72bda53",
    "mesh_grid_1": "98d2ca1e01075124",
    "mesh_incidence_file": "99c7542031067862",
    "mesh_lengths": "74ddef2ec1692267",
    "oracle": "1a141c3fd934d42e",
    "oracle_lengths": "b230862fa1ee28eb",
    "oracle_negative": "0b3c30ac432fb44c",
    "verify_bench": "70511afc5c368711",
    "verify_thin": "f34ef32e4443dade",
}


def _golden_run(capsys, tmp_path, monkeypatch, argv, inputs):
    monkeypatch.chdir(tmp_path)
    for name, payload in inputs.items():
        (tmp_path / name).write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv)
    written = [(p.name, np.frombuffer(p.read_bytes(), np.uint8))
               for p in sorted(tmp_path.iterdir()) if p.name not in inputs]
    return digest([code, out, err, written])


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_cli_output(capsys, tmp_path, monkeypatch, name):
    argv, inputs = GOLDEN_RUNS[name]
    got = _golden_run(capsys, tmp_path, monkeypatch, argv, inputs)
    assert got == GOLDEN_DIGESTS[name]
