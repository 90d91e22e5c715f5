"""Command line front end.

Subcommands: mesh | assemble | eigs | oracle | converge | action | verify.
Options come from flags or a JSON config file (--config); flags override
file values.  Exit codes: 0 success, 1 numerical-verification failure
(for verify: the number of failed checks), 2 configuration error.

Every JSON output embeds the resolved configuration and a schema version;
CSV files carry them in leading comment lines.  Numbers are written with
17 significant digits, so reruns with the same config and seed are
byte-identical on one platform.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .action import EdgeLengthConfig, RealizabilityError, \
    deficit_angles, euclidean_lengths, perturbed_lengths
from .mesh import MeshError, TorusGeometry, build_torus_mesh, mesh_summary
from .saint_venant import assemble_mass, assemble_stiffness, write_coo
from .spaces import ReggeField
from .spectrum import assign_clusters, convergence_study, fourier_oracle, \
    solve_pencil
from .verify import run_verification

SCHEMA_VERSION = 1
TAU = 2.0 * np.pi


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_text(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_payload(config: dict, body: dict) -> str:
    payload = {"schema_version": SCHEMA_VERSION, "config": config}
    payload.update(body)
    return json.dumps(payload, sort_keys=True, indent=2,
                      default=lambda o: o.tolist()
                      if isinstance(o, np.ndarray) else o) + "\n"


def _csv_text(config: dict, header, rows) -> str:
    lines = [f"# schema_version: {SCHEMA_VERSION}",
             "# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            _fmt(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _resolve(args, defaults: dict) -> dict:
    """Merge defaults < config file < explicit flags into one dict."""
    cfg = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as ex:
            raise ConfigError(f"config: cannot read {args.config}: {ex}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _is_whole(x) -> bool:
    return _is_int(x) or isinstance(x, float) and x.is_integer()


def _is_triple(x, item) -> bool:
    return isinstance(x, list) and len(x) == 3 and all(map(item, x))


PATH_KEYS = ("output", "csv", "json", "lengths_json")


def _validate_common(cfg: dict):
    # types first: a config file can hold any JSON value
    lengths = cfg["lengths"]
    if not _is_triple(lengths, _is_number) or any(l <= 0 for l in lengths):
        raise ConfigError("lengths: need three positive side lengths")
    for key in PATH_KEYS:
        if not isinstance(cfg.get(key), (str, type(None))):
            raise ConfigError(f"{key}: need a file path string")
    if "grid" in cfg:
        grid = cfg["grid"]
        if not _is_triple(grid, _is_whole):
            raise ConfigError("grid: need three integer subdivision counts")
        if min(grid) < 2:
            raise ConfigError("grid: subdivisions must be at least 2 "
                              "(periodic identification)")
        cfg["grid"] = [int(n) for n in grid]
    if "seed" in cfg and not (_is_int(cfg["seed"]) and cfg["seed"] >= 0):
        raise ConfigError("seed: need a nonnegative integer")


def _require_positive(cfg: dict, key: str, integer: bool = False):
    x = cfg[key]
    if not ((_is_int(x) if integer else _is_number(x)) and x > 0):
        kind = "integer" if integer else "number"
        raise ConfigError(f"{key}: need a positive {kind}")


def _geometry(cfg) -> TorusGeometry:
    return TorusGeometry(*cfg["lengths"])


def _add_common(p, grid=True):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--lengths", nargs=3, type=float, metavar=("L1", "L2", "L3"),
                   help=f"torus side lengths (default {TAU:g} each)")
    if grid:
        p.add_argument("--grid", nargs=3, type=int, metavar=("N1", "N2", "N3"),
                       help="subdivisions per axis (default 2 2 2)")
    p.add_argument("--output", "-o", help="output path (default stdout)")


COMMON_DEFAULTS = {"lengths": [TAU, TAU, TAU], "grid": [2, 2, 2],
                   "output": None}


def cmd_mesh(args) -> int:
    defaults = dict(COMMON_DEFAULTS, full_incidence=False)
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    if not isinstance(cfg["full_incidence"], bool):
        raise ConfigError("full_incidence: need true or false")
    mesh = build_torus_mesh(_geometry(cfg), cfg["grid"])
    body = mesh_summary(mesh, include_incidence=cfg["full_incidence"])
    _write_text(_json_payload(cfg, body), cfg["output"])
    return 0


def cmd_assemble(args) -> int:
    defaults = dict(COMMON_DEFAULTS, prefix="pencil", seed=0)
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    if not isinstance(cfg["prefix"], str):
        raise ConfigError("prefix: need a file path prefix string")
    mesh = build_torus_mesh(_geometry(cfg), cfg["grid"])
    A = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    write_coo(A, f"{cfg['prefix']}_A.txt")
    write_coo(M, f"{cfg['prefix']}_M.txt")
    rng = np.random.default_rng(cfg["seed"])
    g = rng.uniform(-1, 1, (3, 3))
    g = 0.5 * (g + g.T)
    c = np.einsum("ei,ij,ej->e", mesh.edge_vec, g, mesh.edge_vec)
    kern = float(np.abs(A.matrix @ c).max()
                 / (np.abs(A.matrix.data).max() * np.abs(c).max()))
    body = {
        "stiffness": {"path": f"{cfg['prefix']}_A.txt",
                      "nnz": int(A.matrix.nnz),
                      "symmetry_residual": A.symmetry_residual()},
        "mass": {"path": f"{cfg['prefix']}_M.txt",
                 "nnz": int(M.matrix.nnz)},
        "constant_kernel_residual": kern,
    }
    _write_text(_json_payload(cfg, body), cfg["output"])
    return 0


def cmd_eigs(args) -> int:
    defaults = dict(COMMON_DEFAULTS, n_targets=2, cutoff=None, csv=None)
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    cutoff = cfg["cutoff"]
    if cutoff is not None:
        _require_positive(cfg, "cutoff")
    _require_positive(cfg, "n_targets", integer=True)
    geometry = _geometry(cfg)
    mesh = build_torus_mesh(geometry, cfg["grid"])
    res = solve_pencil(assemble_stiffness(mesh), assemble_mass(mesh),
                       {"grid": cfg["grid"], "lengths": cfg["lengths"]})
    if cutoff is None:
        base = float(np.min(2.0 * np.pi / geometry.lengths) ** 2)
        cutoff = base * (cfg["n_targets"] + 2.0)
    oracle = fourier_oracle(geometry, cutoff)
    try:
        clusters = assign_clusters(res, oracle, cfg["n_targets"])
    except ValueError as ex:
        raise ConfigError(f"n_targets: {ex}") from ex
    if cfg["csv"]:
        assigned = {}
        for ci, cl in enumerate(clusters):
            for lam in cl.eigenvalues:
                assigned.setdefault(round(float(lam), 14), []).append(ci)
        rows = []
        for i, lam in enumerate(res.eigenvalues):
            key = round(float(lam), 14)
            if assigned.get(key):
                ci = assigned[key].pop(0)
                cl = clusters[ci]
                rows.append((float(lam), i, ci, cl.target,
                             abs(float(lam) - cl.target)))
            else:
                rows.append((float(lam), i, -1, float("nan"), float("nan")))
        text = _csv_text(cfg, ("eigenvalue", "index", "cluster", "target",
                               "error"), rows)
        _write_text(text, cfg["csv"])
    _write_text(_json_payload(cfg, res.to_dict()), cfg["output"])
    return 0


def cmd_oracle(args) -> int:
    defaults = dict(COMMON_DEFAULTS, cutoff=1.5)
    del defaults["grid"]
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    _require_positive(cfg, "cutoff")
    sp = fourier_oracle(_geometry(cfg), cfg["cutoff"])
    rows = [(0.0, -1, "kernel")]
    rows += [(lam, mult, "mode") for lam, mult in sp.entries]
    _write_text(_csv_text(cfg, ("eigenvalue", "multiplicity", "kind"), rows),
                cfg["output"])
    return 0


def cmd_converge(args) -> int:
    defaults = dict(COMMON_DEFAULTS, grids=[2, 3, 4], n_eigs=2, json=None)
    del defaults["grid"]
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    grids = cfg["grids"]
    if not (isinstance(grids, list) and grids and all(map(_is_whole, grids))):
        raise ConfigError("grids: need a list of integer grid sizes")
    grids = cfg["grids"] = [int(n) for n in grids]
    if min(grids) < 2:
        raise ConfigError("grids: subdivisions must be at least 2")
    if any(b <= a for a, b in zip(grids, grids[1:])):
        raise ConfigError("grids: must be strictly increasing")
    _require_positive(cfg, "n_eigs", integer=True)
    try:
        study = convergence_study(_geometry(cfg), grids, cfg["n_eigs"])
    except ValueError as ex:
        raise ConfigError(f"n_eigs: {ex}") from ex
    rows = [(f"{r['grid'][0]}x{r['grid'][1]}x{r['grid'][2]}", r["target"],
             r["multiplicity"], r["cluster_mean"], r["rel_error"],
             int(r["matched"])) for r in study["rows"]]
    text = _csv_text(cfg, ("grid", "target", "multiplicity", "cluster_mean",
                           "rel_error", "matched"), rows)
    _write_text(text, cfg["output"])
    if cfg["json"]:
        _write_text(_json_payload(cfg, study), cfg["json"])
    ok = all(study["monotone"].values()) if study["monotone"] else True
    return 0 if ok else 1


def cmd_action(args) -> int:
    defaults = dict(COMMON_DEFAULTS, lengths_json=None, perturb_seed=None,
                    perturb_scale=0.1, csv=None)
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    seed = cfg["perturb_seed"]
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise ConfigError("perturb_seed: need a nonnegative integer")
    if not _is_number(cfg["perturb_scale"]):
        raise ConfigError("perturb_scale: need a number")
    mesh = build_torus_mesh(_geometry(cfg), cfg["grid"])
    if cfg["lengths_json"]:
        try:
            with open(cfg["lengths_json"]) as fh:
                config = EdgeLengthConfig.from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError) as ex:
            raise ConfigError(f"lengths_json: {ex}")
        if config.squared_lengths.shape[0] != mesh.num_edges:
            raise ConfigError("lengths_json: expected one squared length "
                              f"per edge ({mesh.num_edges})")
    elif seed is not None:
        rng = np.random.default_rng(seed)
        up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
        config = perturbed_lengths(mesh, up, cfg["perturb_scale"])
    else:
        config = euclidean_lengths(mesh)
    theta = deficit_angles(mesh, config)
    total = float(np.sum(theta * config.lengths))
    if cfg["csv"]:
        rows = [(e, float(config.lengths[e]), float(theta[e]))
                for e in range(mesh.num_edges)]
        _write_text(_csv_text(cfg, ("edge", "length", "deficit"), rows),
                    cfg["csv"])
    _write_text(_json_payload(cfg, {"action": total,
                                    "max_abs_deficit":
                                        float(np.abs(theta).max())}),
                cfg["output"])
    return 0


def cmd_verify(args) -> int:
    defaults = dict(COMMON_DEFAULTS, seed=0, json=None)
    cfg = _resolve(args, defaults)
    _validate_common(cfg)
    results = run_verification(_geometry(cfg), cfg["grid"], cfg["seed"])
    lines = []
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        lines.append(f"[{status}] {r.name}: {r.detail}")
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    _write_text("\n".join(lines) + "\n", cfg["output"])
    if cfg["json"]:
        body = {"results": [r.to_dict() for r in results],
                "failures": failures}
        _write_text(_json_payload(cfg, body), cfg["json"])
    return failures


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reggefem",
        description="Linearized Regge calculus on periodic torus meshes")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build a mesh and print its summary")
    _add_common(p)
    p.add_argument("--full-incidence", dest="full_incidence",
                   action="store_const", const=True,
                   help="include full incidence tables")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("assemble",
                       help="write stiffness/mass matrices in COO text form")
    _add_common(p)
    p.add_argument("--prefix", help="output file prefix (default 'pencil')")
    p.add_argument("--seed", type=int, help="seed for the kernel residual")
    p.set_defaults(fn=cmd_assemble)

    p = sub.add_parser("eigs", help="solve the generalized eigenproblem")
    _add_common(p)
    p.add_argument("--n-targets", dest="n_targets", type=int,
                   help="oracle targets to match (default 2)")
    p.add_argument("--cutoff", type=float, help="oracle eigenvalue cutoff")
    p.add_argument("--csv", help="write the full spectrum as CSV here")
    p.set_defaults(fn=cmd_eigs)

    p = sub.add_parser("oracle", help="exact torus spectrum as CSV")
    _add_common(p, grid=False)
    p.add_argument("--cutoff", type=float,
                   help="report |eigenvalue| <= cutoff (default 1.5)")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("converge",
                       help="eigenvalue convergence study over grids")
    _add_common(p, grid=False)
    p.add_argument("--grids", nargs="+", type=int,
                   help="grid sizes n (cubic grids), default 2 3 4")
    p.add_argument("--n-eigs", dest="n_eigs", type=int,
                   help="number of oracle targets (default 2)")
    p.add_argument("--json", help="also write the study as JSON here")
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("action",
                       help="Regge action and per-edge deficit angles")
    _add_common(p)
    p.add_argument("--lengths-json", dest="lengths_json",
                   help="edge length configuration (JSON)")
    p.add_argument("--perturb-seed", dest="perturb_seed", type=int,
                   help="generate a random perturbed configuration")
    p.add_argument("--perturb-scale", dest="perturb_scale", type=float,
                   help="perturbation amplitude (default 0.1)")
    p.add_argument("--csv", help="write per-edge deficits as CSV here")
    p.set_defaults(fn=cmd_action)

    p = sub.add_parser("verify", help="run the numerical invariant suites")
    _add_common(p)
    p.add_argument("--seed", type=int,
                   help="seed for randomized checks (default 0)")
    p.add_argument("--json", help="also write results as JSON here")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MeshError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except RealizabilityError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
