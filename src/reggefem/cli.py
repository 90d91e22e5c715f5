"""Command line front end.

Subcommands: mesh | assemble | eigs | oracle | converge | action | verify.
Options come from flags or a JSON config file (--config); flags override
file values.  Exit codes: 0 success, 1 numerical-verification failure
(for verify: the number of failed checks), 2 configuration error.

``KEYS`` holds each config key's flag and check, ``COMMANDS`` each
subcommand's handler and keys with defaults; the parser is built from both.

Every JSON output embeds the resolved configuration and a schema version;
CSV files carry them in leading comment lines.  Numbers are written with
17 significant digits, so reruns with the same config and seed are
byte-identical on one platform.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .action import EdgeLengthConfig, RealizabilityError, \
    deficit_angles, euclidean_lengths, perturbed_lengths
from .mesh import _MAX_VERTICES, DIRECTIONS, MeshError, TorusGeometry, \
    build_torus_mesh, mesh_summary
from .saint_venant import constant_kernel_residual, stencil_operators, \
    write_coo
from .spaces import ReggeField
from .spectrum import assign_clusters, convergence_study, default_cutoff, \
    fourier_oracle, solve_pencil
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


# ---------------------------------------------------------------------------
# config keys: one flag and one check each

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float) and math.isfinite(x)


def _is_whole(x) -> bool:
    return _is_int(x) or isinstance(x, float) and x.is_integer()


def _is_triple(x, item) -> bool:
    return isinstance(x, list) and len(x) == 3 and all(map(item, x))


def _require(test, reason: str) -> Callable:
    def check(x):
        if not test(x):
            raise ConfigError(reason)
        return x
    return check


def _check_vertices(count: int) -> None:
    if count > _MAX_VERTICES:
        raise ConfigError(f"more than {_MAX_VERTICES} vertices, too many "
                          "for numpy arrays")


def _grid(x) -> list:
    if not _is_triple(x, _is_whole):
        raise ConfigError("need three integer subdivision counts")
    if min(x) < 2:
        raise ConfigError("subdivisions must be at least 2 "
                          "(periodic identification)")
    x = [int(n) for n in x]
    _check_vertices(math.prod(x))
    return x


def _grids(x) -> list:
    if not (isinstance(x, list) and x and all(map(_is_whole, x))):
        raise ConfigError("need a list of integer grid sizes")
    x = [int(n) for n in x]
    if min(x) < 2:
        raise ConfigError("subdivisions must be at least 2")
    if any(b <= a for a, b in zip(x, x[1:])):
        raise ConfigError("must be strictly increasing")
    _check_vertices(x[-1] ** 3)
    return x


class Key(NamedTuple):
    """A config key: ``check`` returns the normalised value or raises
    ConfigError with the reason; the flag is ``--<key with dashes>`` plus
    ``aliases``, with the ``add_argument`` keywords in ``flag``."""

    check: Callable
    help: str
    flag: dict = {}
    aliases: tuple = ()


def _path_key(what: str, suffixes=("",)) -> Callable:
    """Check of a path key: a nonempty string such that every path the
    command opens, the value followed by one of ``suffixes``, lies in an
    existing directory and is not a directory itself.  So such a path is
    reported before any computation."""
    def check(x):
        if not isinstance(x, str):
            raise ConfigError(f"need a {what} string")
        if not x:
            raise ConfigError(f"need a nonempty {what}")
        for path in (x + suffix for suffix in suffixes):
            parent = os.path.dirname(path)
            if parent and not os.path.isdir(parent):
                raise ConfigError(f"directory {parent!r} does not exist")
            if os.path.isdir(path):
                raise ConfigError(f"{path!r} is a directory")
        return x
    return check


_path = _path_key("file path")
# the files `assemble` writes next to its prefix: stiffness, mass
_PENCIL_SUFFIXES = ("_A.txt", "_M.txt")
_count = _require(lambda x: _is_int(x) and x > 0, "need a positive integer")
_seed = _require(lambda x: _is_int(x) and x >= 0,
                 "need a nonnegative integer")

KEYS = {
    "lengths": Key(_require(lambda x: _is_triple(x, _is_number)
                            and min(x) > 0,
                            "need three positive side lengths"),
                   "torus side lengths",
                   dict(nargs=3, type=float, metavar=("L1", "L2", "L3"))),
    "grid": Key(_grid, "subdivisions per axis",
                dict(nargs=3, type=int, metavar=("N1", "N2", "N3"))),
    "grids": Key(_grids, "increasing sizes n of cubic grids",
                 dict(nargs="+", type=int)),
    "output": Key(_path, "output path (default stdout)", aliases=("-o",)),
    "csv": Key(_path, "also write a CSV table here"),
    "json": Key(_path, "also write the results as JSON here"),
    "lengths_json": Key(_path, "edge length configuration (JSON)"),
    "prefix": Key(_path_key("file path prefix", _PENCIL_SUFFIXES),
                  "output file prefix"),
    "full_incidence": Key(_require(lambda x: isinstance(x, bool),
                                   "need true or false"),
                          "include full incidence tables",
                          dict(action="store_const", const=True)),
    "seed": Key(_seed, "seed for the randomized inputs", dict(type=int)),
    "perturb_seed": Key(_seed, "generate a random perturbed configuration",
                        dict(type=int)),
    "perturb_scale": Key(_require(_is_number, "need a number"),
                         "perturbation amplitude", dict(type=float)),
    "n_targets": Key(_count, "oracle targets to match", dict(type=int)),
    "n_eigs": Key(_count, "number of oracle targets", dict(type=int)),
    "cutoff": Key(_require(lambda x: _is_number(x) and x > 0,
                           "need a positive number"),
                  "oracle eigenvalue cutoff", dict(type=float)),
}


# ---------------------------------------------------------------------------
# subcommands: each receives a checked config and only computes

def _geometry(cfg) -> TorusGeometry:
    return TorusGeometry(*cfg["lengths"])


def cmd_mesh(cfg) -> int:
    mesh = build_torus_mesh(_geometry(cfg), cfg["grid"])
    body = mesh_summary(mesh, include_incidence=cfg["full_incidence"])
    _write_text(_json_payload(cfg, body), cfg["output"])
    return 0


def cmd_assemble(cfg) -> int:
    geometry = _geometry(cfg)
    A, M = stencil_operators(geometry, cfg["grid"])
    a_path, m_path = (cfg["prefix"] + s for s in _PENCIL_SUFFIXES)
    write_coo(A, a_path)
    write_coo(M, m_path)
    cell = geometry.lengths / np.array(A.grid)
    kern = constant_kernel_residual(DIRECTIONS * cell, A,
                                    np.random.default_rng(cfg["seed"]))
    body = {
        "stiffness": {"path": a_path,
                      "nnz": A.nnz,
                      "symmetry_residual": A.symmetry_residual()},
        "mass": {"path": m_path,
                 "nnz": M.nnz},
        "constant_kernel_residual": kern,
    }
    _write_text(_json_payload(cfg, body), cfg["output"])
    return 0


def cmd_eigs(cfg) -> int:
    geometry = _geometry(cfg)
    res = solve_pencil(*stencil_operators(geometry, cfg["grid"]),
                       {"grid": cfg["grid"], "lengths": cfg["lengths"]})
    cutoff = cfg["cutoff"]
    if cutoff is None:
        cutoff = default_cutoff(geometry, cfg["n_targets"])
    try:
        oracle = fourier_oracle(geometry, cutoff)
    except ValueError as ex:  # a frequency box too large to enumerate
        key = "n_targets" if cfg["cutoff"] is None else "cutoff"
        raise ConfigError(f"{key}: {ex}") from ex
    try:
        clusters = assign_clusters(res, oracle, cfg["n_targets"])
    except ValueError as ex:
        raise ConfigError(f"n_targets: {ex}") from ex
    if cfg["csv"]:
        label = {i: ci for ci, cl in enumerate(clusters)
                 for i in cl.indices.tolist()}
        rows = []
        for i, lam in enumerate(res.eigenvalues.tolist()):
            if i in label:
                target = clusters[label[i]].target
                rows.append((lam, i, label[i], target, abs(lam - target)))
            else:
                rows.append((lam, i, -1, float("nan"), float("nan")))
        text = _csv_text(cfg, ("eigenvalue", "index", "cluster", "target",
                               "error"), rows)
        _write_text(text, cfg["csv"])
    body = res.to_dict()
    body["clusters"] = [cl.to_dict() for cl in clusters]
    _write_text(_json_payload(cfg, body), cfg["output"])
    return 0


def cmd_oracle(cfg) -> int:
    try:
        sp = fourier_oracle(_geometry(cfg), cfg["cutoff"])
    except ValueError as ex:  # a frequency box too large to enumerate
        raise ConfigError(f"cutoff: {ex}") from ex
    rows = [(0.0, -1, "kernel")]
    rows += [(lam, mult, "mode") for lam, mult in sp.entries]
    _write_text(_csv_text(cfg, ("eigenvalue", "multiplicity", "kind"), rows),
                cfg["output"])
    return 0


def cmd_converge(cfg) -> int:
    try:
        study = convergence_study(_geometry(cfg), cfg["grids"], cfg["n_eigs"])
    except (MeshError, np.linalg.LinAlgError):
        raise  # a lengths error, see main
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


def _action_lengths(cfg, mesh) -> EdgeLengthConfig:
    """The squared lengths ``action`` evaluates: read from lengths_json,
    perturbed by a seeded direction, or the flat background's."""
    if cfg["lengths_json"]:
        try:
            with open(cfg["lengths_json"]) as fh:
                config = EdgeLengthConfig.from_json(json.load(fh))
        except (OSError, ValueError) as ex:
            raise ConfigError(f"lengths_json: {ex}")
        if config.squared_lengths.shape[0] != mesh.num_edges:
            raise ConfigError("lengths_json: expected one squared length "
                              f"per edge ({mesh.num_edges})")
        return config
    if cfg["perturb_seed"] is not None:
        rng = np.random.default_rng(cfg["perturb_seed"])
        up = ReggeField(rng.uniform(-1, 1, mesh.num_edges))
        return perturbed_lengths(mesh, up, cfg["perturb_scale"])
    return euclidean_lengths(mesh)


def cmd_action(cfg) -> int:
    mesh = build_torus_mesh(_geometry(cfg), cfg["grid"])
    try:
        config = _action_lengths(cfg, mesh)
        theta = deficit_angles(mesh, config)
    except RealizabilityError as ex:  # unrealizable lengths: bad input
        raise ConfigError(f"lengths: {ex}") from ex
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


def cmd_verify(cfg) -> int:
    try:
        results = run_verification(_geometry(cfg), cfg["grid"], cfg["seed"])
    except RealizabilityError as ex:  # perturbed lengths, not a failed check
        raise ConfigError(f"lengths: {ex}") from ex
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


class Command(NamedTuple):
    run: Callable
    help: str
    defaults: dict  # config key -> default, in flag order


SIDES = [TAU, TAU, TAU]
GRID = [2, 2, 2]

COMMANDS = {
    "mesh": Command(cmd_mesh, "build a mesh and print its summary",
                    dict(lengths=SIDES, grid=GRID, output=None,
                         full_incidence=False)),
    "assemble": Command(cmd_assemble,
                        "write stiffness/mass matrices in COO text form",
                        dict(lengths=SIDES, grid=GRID, output=None,
                             prefix="pencil", seed=0)),
    "eigs": Command(cmd_eigs, "solve the generalized eigenproblem",
                    dict(lengths=SIDES, grid=GRID, output=None, n_targets=2,
                         cutoff=None, csv=None)),
    "oracle": Command(cmd_oracle, "exact torus spectrum as CSV",
                      dict(lengths=SIDES, output=None, cutoff=1.5)),
    "converge": Command(cmd_converge,
                        "eigenvalue convergence study over grids",
                        dict(lengths=SIDES, output=None, grids=[2, 3, 4],
                             n_eigs=2, json=None)),
    "action": Command(cmd_action, "Regge action and per-edge deficit angles",
                      dict(lengths=SIDES, grid=GRID, output=None,
                           lengths_json=None, perturb_seed=None,
                           perturb_scale=0.1, csv=None)),
    "verify": Command(cmd_verify, "run the numerical invariant suites",
                      dict(lengths=SIDES, grid=GRID, output=None, seed=0,
                           json=None)),
}


def _resolve(args) -> dict:
    """Merge defaults < config file < explicit flags, then check each key.

    ``None`` skips the check exactly where the command's default is None.
    """
    defaults = COMMANDS[args.command].defaults
    cfg = dict(defaults)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as ex:
            raise ConfigError(f"config: cannot read {args.config}: {ex}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config: {args.config} must hold a JSON "
                              "object of config keys")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"config: unknown keys {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, default in defaults.items():
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
        if cfg[key] is not None or default is not None:
            try:
                cfg[key] = KEYS[key].check(cfg[key])
            except ConfigError as ex:
                raise ConfigError(f"{key}: {ex}") from None
    return cfg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    ap = argparse.ArgumentParser(
        prog="reggefem",
        description="Linearized Regge calculus on periodic torus meshes")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, default in command.defaults.items():
            k = KEYS[key]
            if isinstance(default, list):
                default = " ".join(f"{v:g}" for v in default)
            text = k.help if default is None else \
                f"{k.help} (default {default})"
            p.add_argument("--" + key.replace("_", "-"), *k.aliases,
                           dest=key, help=text, **k.flag)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {}
    try:
        cfg = _resolve(args)
        return COMMANDS[args.command].run(cfg)
    except MemoryError:
        # a grid the key checks admit, yet too large for this machine
        if not {"grid", "grids"} & cfg.keys():
            raise
        key = "grids" if "grids" in cfg else "grid"
        print(f"error: {key}: {cfg.get(key)} needs more memory than is "
              "available", file=sys.stderr)
        return 2
    except ConfigError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (MeshError, np.linalg.LinAlgError) as ex:
        # side lengths too far apart for the grid in double precision
        print(f"error: lengths: {ex}", file=sys.stderr)
        return 2
    except RealizabilityError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
