"""The public names of the package are what its own code runs.

Every name in a module's ``__all__`` must be read somewhere in ``src/``,
``scripts/`` or ``perfbench/`` outside its own definition: a name that
only tests call is a test oracle and lives in ``tests/``.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import reggefem

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = [importlib.import_module(f"reggefem.{m.name}")
           for m in pkgutil.iter_modules(reggefem.__path__)]

# Public names kept without a reader, each for an open ROADMAP item.
ALLOWED = {
    # item 5: the block checks of the complex read the mode symbol
    "mode_symbol",
    # item 7: entry e of linearized_deficits and of apply_ctc, kept only
    # because perfbench/spans.py times them by name; they retire with the
    # rest of the per-edge layer
    "linearized_deficit",
    "edge_jump_scalar",
    # item 7: the mesh's mass builder, timed by name in perfbench/spans.py
    # (mass_s), which the spectra no longer call; the benchmark refresh
    # traces stencil_operators instead
    "assemble_mass",
}


def _references() -> set:
    """Names read (``Name`` loads and ``Attribute`` attrs) in the code of
    src/, scripts/ and perfbench/, each outside the function or class that
    defines it; imports and ``__all__`` strings are not reads."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            visit(ast.parse(path.read_text(), str(path)), frozenset())
    return found


def test_every_public_name_has_a_reader():
    found = _references()
    unread = sorted(f"{module.__name__}.{name}" for module in MODULES
                    for name in getattr(module, "__all__", ())
                    if name not in found and name not in ALLOWED)
    assert unread == []


def test_allowlist_is_current():
    found = _references()
    public = {name for module in MODULES
              for name in getattr(module, "__all__", ())}
    assert ALLOWED <= public
    assert not ALLOWED & found


@pytest.mark.parametrize("name", [
    "deformation_matrix", "dof_mu_e", "pair_x3_x0", "constant_matrix_field",
    "constant_vector_field", "cayley_menger_determinant",
    "metric_dihedral_angles", "l2_norm_x1"])
def test_test_oracles_are_not_exported(name):
    assert not hasattr(reggefem, name)
    assert all(not hasattr(module, name) for module in MODULES)
