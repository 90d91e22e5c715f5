"""Span recording around the public functions of the reggefem modules.

Wrappers are installed from outside the library: every module of the
package that holds a traced function under some name gets the wrapper
under that name, because many functions are imported by name into other
modules (``build_torus_mesh`` into ``cli``, ``spectrum`` and ``verify``,
``apply_ctc`` into ``verify``, ...).  Spans stay in memory as
``[metric, start, end, parent]`` and are reduced to self times at the end.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) -> per-layer metric its self time is added to
TRACED = {
    ("mesh", "build_torus_mesh"): "mesh.build_s",
    ("saint_venant", "assemble_stiffness"): "saint_venant.stiffness_s",
    ("saint_venant", "assemble_mass"): "saint_venant.mass_s",
    ("saint_venant", "apply_ctc"): "saint_venant.apply_ctc_s",
    ("saint_venant", "edge_jump_scalar"): "saint_venant.edge_jump_s",
    ("saint_venant", "write_coo"): "saint_venant.write_coo_s",
    ("spectrum", "convergence_study"): "spectrum.study_s",
    ("spectrum", "solve_pencil"): "spectrum.solve_s",
    ("spectrum", "fourier_oracle"): "spectrum.oracle_s",
    ("spectrum", "assign_clusters"): "spectrum.assign_s",
    ("action", "deficit_angles"): "action.deficits_s",
    ("action", "tet_metrics_from_lengths"): "action.tet_metrics_s",
    ("action", "build_edge_sector"): "action.sector_s",
    ("action", "deficit_angle_holonomy"): "action.holonomy_s",
    ("action", "deficit_angle_dihedral"): "action.dihedral_edge_s",
    ("action", "linearized_deficit"): "action.linearized_s",
    ("action", "second_variation_check"): "action.second_variation_s",
    ("action", "schlafli_check"): "action.schlafli_s",
    ("action", "random_realizable_config"): "action.realizable_s",
    ("spaces", "interpolate_0"): "spaces.interpolate_s",
    ("spaces", "interpolate_1"): "spaces.interpolate_s",
    ("spaces", "interpolate_2"): "spaces.interpolate_s",
    ("spaces", "interpolate_3"): "spaces.interpolate_s",
    ("spaces", "deformation"): "spaces.deformation_s",
    ("spaces", "divergence_x2"): "spaces.divergence_s",
    ("spaces", "regge_to_tet_matrices"): "spaces.tet_matrices_s",
    ("quadrature", "tet_points_weights"): "quadrature.tet_points_s",
    ("verify", "run_verification"): "verify.run_s",
    ("verify", "check_complex_identities"): "verify.complex_s",
    ("verify", "check_commuting_diagram"): "verify.commuting_s",
    ("verify", "check_dual_path_deficits"): "verify.dual_path_s",
    ("verify", "check_second_variation"): "verify.second_variation_s",
    ("verify", "check_schlafli"): "verify.schlafli_s",
    ("cli", "main"): "cli.self_s",
}

# Root spans the benchmark opens itself; their self time is time inside a
# set-up or an operation that no traced library call covers.
PHASES = ("setup", "op")


class Tracer:
    """In-memory span store plus counters keyed by (phase, name)."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [-1]
        self.phase = None
        self.counts: dict = {}

    def open_root(self, phase: str) -> int:
        """Open the root span of one set-up or one operation."""
        if phase not in PHASES or self.stack != [-1]:
            raise RuntimeError(f"cannot open a {phase!r} span here")
        idx = len(self.spans)
        self.spans.append([phase, perf_counter(), 0.0, -1])
        self.stack.append(idx)
        self.phase = phase
        return idx

    def close_root(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()
        self.phase = None

    def count(self, name: str, amount):
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> dict:
        """Self seconds per (phase, metric), summed over all spans."""
        child = [0.0] * len(self.spans)
        phase = [None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            # a parent is appended before its children
            if parent >= 0:
                child[parent] += end - start
                phase[i] = phase[parent]
            else:
                phase[i] = name
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            key = (phase[i], name)
            out[key] = out.get(key, 0.0) + (end - start) - child[i]
        return out

    def calls(self, name: str, parent_name: str | None = None) -> dict:
        """Number of ``name`` spans per phase, only those directly under a
        ``parent_name`` span when that is given."""
        out: dict = {}
        phase: list = []
        for nm, _, _, parent in self.spans:
            phase.append(nm if parent < 0 else phase[parent])
            if nm == name and (parent_name is None or (
                    parent >= 0 and self.spans[parent][0] == parent_name)):
                out[phase[-1]] = out.get(phase[-1], 0) + 1
        return out


def _wrap(fn, metric, tracer, observers):
    if tracer is None or metric is None:
        def probed(*args, **kwargs):
            result = fn(*args, **kwargs)
            for obs in observers:
                obs(args, kwargs, result)
            return result
        return probed

    spans, stack = tracer.spans, tracer.stack

    def traced(*args, **kwargs):
        idx = len(spans)
        spans.append([metric, perf_counter(), 0.0, stack[-1]])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[idx][2] = perf_counter()
            stack.pop()
        for obs in observers:
            obs(args, kwargs, result)
        return result
    return traced


def install(observers: dict, tracer: Tracer | None = None):
    """Wrap library functions in every reggefem module that holds them.

    ``observers`` maps (module, function) to a list of callables
    ``obs(args, kwargs, result)`` run after each call; they carry the
    output checks and work in untraced runs too.  With a tracer every
    function of TRACED is also timed.  Returns a function that restores the
    originals.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "reggefem" or name.startswith("reggefem.")]
    targets = set(observers) | (set(TRACED) if tracer else set())
    saved = []
    for modname, fname in sorted(targets):
        orig = getattr(sys.modules["reggefem." + modname], fname)
        wrapper = _wrap(orig, TRACED.get((modname, fname)), tracer,
                        observers.get((modname, fname), []))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def restore():
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
    return restore
