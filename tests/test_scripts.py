"""Smoke tests: every script in scripts/ runs at its smallest size, and so
does the README's library quickstart; every function the benchmark traces
or calls still exists in the library, and its fine_assemble and
spectrum_ladder workloads run and pass their checks; the CLI imports no
module it need not load and builds no table on import; the package
imports and every name in a module's ``__all__`` exists; no library module
or script imports a name it does not use, and no line of the sources,
scripts or tests is longer than 79 characters."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "deficit_angle_profile.py": ["--grid", "2", "2", "2", "--seeds", "1"],
    "eigenvalue_convergence.py": ["--grids", "2", "3", "--n-eigs", "1"],
    "second_variation_sweep.py": ["--grid", "2", "2", "2", "--seeds", "1"],
}


def test_every_script_listed():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == \
        sorted(SCRIPTS)


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    return proc.stdout


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    _run([str(ROOT / "scripts" / script), *SCRIPTS[script]])


def test_deficit_profile_starts_flat():
    # the dihedral route is exactly zero at the flat configuration
    out = _run([str(ROOT / "scripts" / "deficit_angle_profile.py"),
                "--grid", "3", "3", "3", "--seeds", "0"])
    label, action, max_theta, mean_theta, _ = out.splitlines()[1].split()
    assert label == "flat"
    assert float(action) == float(max_theta) == float(mean_theta) == 0.0


def test_sweep_refuses_a_schedule_of_one_epsilon():
    # a usage error naming the schedule, not "not enough realizable
    # epsilon values"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "second_variation_sweep.py"),
         "--seeds", "1", "--eps-count", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(
        "error: epsilons: need two or more distinct finite positive "
        "values, got [0.01]\n")


def test_readme_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    _run(["-c", blocks[0]])


def test_benchmark_traced_functions_resolve(monkeypatch):
    # perfbench/spans.py wraps reggefem.<module>.<function> for every key of
    # TRACED; load it without writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [(mod, fn) for mod, fn in spans.TRACED if not callable(
        getattr(importlib.import_module(f"reggefem.{mod}"), fn, None))]
    assert missing == []


def test_benchmark_workload_calls_resolve():
    # perfbench/workloads.py calls the library as <module>.<name>(...);
    # read it as text, so that nothing of it is imported or compiled
    text = (ROOT / "perfbench" / "workloads.py").read_text()
    calls = set(re.findall(
        r"(?<![\w.])(action|saint_venant|mesh|cli)\.(\w+)\(", text))
    assert ("action", "deficit_angle_holonomy") in calls
    missing = [(mod, fn) for mod, fn in sorted(calls) if not callable(
        getattr(importlib.import_module(f"reggefem.{mod}"), fn, None))]
    assert missing == []


def test_benchmark_fine_assemble_runs():
    # a short run of the benchmark workload that times `reggefem
    # assemble`; its finish() reads the pencil files back into the
    # written matrices, so this checks write_coo and read_coo end to end
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "fine_assemble", "--seed", "0", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_spectrum_ladder_runs():
    # a short run of the workload that times `reggefem converge --grids 3
    # 4 5`: it checks the cluster errors against its pinned values, the
    # 3V+3 kernel and one solve_pencil call per grid
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "spectrum_ladder", "--seed", "0", "--seconds", "0.2", "--trace",
         "0"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special costs about half of the package import; only the
    # tet quadrature rule loads it, on first use
    out = _run(["-c", "import sys, reggefem.cli; "
                      "print('scipy.special' in sys.modules)"])
    assert out.strip() == "False"


def test_cli_import_builds_no_table():
    # the block tables and the sparsity pattern are built on first use:
    # importing the CLI, the benchmark's set-up, pays for neither
    out = _run(["-c", "import reggefem.cli; "
                      "from reggefem import mesh, saint_venant; "
                      "print(saint_venant._pattern.cache_info().currsize, "
                      "mesh._stencil_tables.cache_info().currsize)"])
    assert out.split() == ["0", "0"]


def test_every_listed_name_resolves():
    # a stale __all__ entry fails only on `import *`: star-import every
    # module of the package in a fresh interpreter, after the package
    modules = sorted(p.stem for p in (ROOT / "src" / "reggefem").glob("*.py")
                     if p.stem != "__init__")
    assert "action" in modules and "mesh" in modules
    code = "".join(["import reggefem\n"]
                   + [f"from reggefem.{m} import *\n" for m in modules])
    _run(["-c", code + "print('ok')"])


def _unused_imports(path):
    """Names that ``path`` imports but neither reads nor lists in
    ``__all__`` (``from __future__`` imports aside)."""
    tree = ast.parse(path.read_text())
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_line_longer_than_79_characters():
    paths = [p for d in ("src", "scripts", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))]
    long = [(p.relative_to(ROOT).as_posix(), n)
            for p in paths
            for n, line in enumerate(p.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    paths = [p for p in sorted((ROOT / "src" / "reggefem").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "scripts").glob("*.py"))
    unused = [(p.relative_to(ROOT).as_posix(), line, name)
              for p in paths for line, name in _unused_imports(p)]
    assert unused == []
