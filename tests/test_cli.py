import json

import numpy as np
import pytest

from reggefem.cli import main


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


class TestConfigHandling:
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
    ])
    def test_mistyped_command_value_is_config_error(self, capsys, tmp_path,
                                                    command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
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
