"""The dual-path, second-variation and Schlafli suites run each suite's
random draws as stacked rows: their results equal those of the suites
run one draw at a time, and the number of action passes they make is
pinned.  The five linear checks take their tolerances from the roundoff
model, no looser than the fixed ones they replaced."""

import traceback

import numpy as np
import pytest

from oracles import dual_path_per_draw, schlafli_per_draw, \
    second_variation_per_draw
from reggefem import action, saint_venant
from reggefem.mesh import TorusGeometry, build_torus_mesh
from reggefem.verify import _half_jump, check_complex_identities, \
    check_dual_path_deficits, check_schlafli, check_second_variation, \
    run_verification
from test_action import J_TORI, TEMPLATE_GRIDS

TAU = 2.0 * np.pi

SUITES = [(check_dual_path_deficits, dual_path_per_draw),
          (check_second_variation, second_variation_per_draw),
          (check_schlafli, schlafli_per_draw)]

# grid 2 at seeds 0-11 holds the slope's false failures (seeds 8 and 11),
# grid 3 at seed 0 the slope's and at seed 2 the Schlafli tolerance's
CASES = ([((TAU, TAU, TAU), (2, 2, 2), seed) for seed in range(12)]
         + [((TAU, TAU, TAU), (3, 3, 3), seed) for seed in (0, 2)]
         + [((TAU, 2.5 * np.pi, TAU), (2, 3, 2), 0)])
SLOPE, SCHLAFLI = "second_variation_remainder_slope", "schlafli_identity"
FAILED = {((2, 2, 2), 8): [SLOPE], ((2, 2, 2), 11): [SLOPE],
          ((3, 3, 3), 0): [SLOPE], ((3, 3, 3), 2): [SCHLAFLI],
          ((2, 3, 2), 0): [SLOPE, SCHLAFLI]}


def fields(results) -> list:
    return [(r.name, r.passed, r.value, r.tolerance, r.detail)
            for r in results]


@pytest.mark.filterwarnings("ignore:pruned unrealizable epsilons")
@pytest.mark.parametrize("lengths, grid, seed", CASES,
                         ids=[f"{'x'.join(map(str, g))}-seed{s}"
                              for _, g, s in CASES])
def test_stacked_suites_equal_the_per_draw_loops(lengths, grid, seed):
    mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
    results = []
    for stacked, per_draw in SUITES:
        got = stacked(mesh, seed)
        assert fields(got) == fields(per_draw(mesh, seed))
        results += got
    # the cases hold every known false failure, and no other failure
    assert [r.name for r in results if not r.passed] == FAILED.get(
        (grid, seed), [])


def passes(monkeypatch, grid, runs=1) -> list:
    """Calls of each action kernel in each of ``runs`` calls of
    ``run_verification`` on the 2 pi cube at seed 0, the first on cleared
    operator caches."""
    saint_venant._operator_blocks.cache_clear()
    action._linearized_blocks.cache_clear()
    counts = []
    for name in ("_deficit_rows", "_holonomy", "_linearized"):
        def counted(*args, _kernel=getattr(action, name), _name=name):
            counts[-1][_name] = counts[-1].get(_name, 0) + 1
            return _kernel(*args)

        monkeypatch.setattr(action, name, counted)
    for _ in range(runs):
        counts.append({})
        run_verification(TorusGeometry(TAU, TAU, TAU), grid, 0)
    return counts


def test_one_pass_per_suite_at_grid_2(monkeypatch):
    # 6 dihedral passes in random_realizable_config (3 per suite, no
    # retry at seed 0), then one pass each: the dual-path configurations,
    # its finite differences, the 21 second-variation rows and the 9
    # Schlafli rows; one holonomy pass per valence class.  One draw at a
    # time they were 28 and 6.  The linearized deficits are matvecs of J,
    # so no linearized pass runs on the mesh: the 7 calls of the first run
    # are J's one build, one per star template, and the second run, on the
    # kept blocks, makes none
    assert passes(monkeypatch, (2, 2, 2), runs=2) == [
        {"_deficit_rows": 10, "_holonomy": 2, "_linearized": 7},
        {"_deficit_rows": 10, "_holonomy": 2}]


def test_a_clean_run_runs_no_row_again(monkeypatch):
    # every slab of the 2^3 run is admitted whole, so the rows forms never
    # run a row again through its own deficit_angles or holonomy_deficits
    # (random_realizable_config calls deficit_angles itself)
    again = []
    for name in ("deficit_angles", "holonomy_deficits"):
        def spied(*args, _call=getattr(action, name), _name=name):
            callers = {f.name for f in traceback.extract_stack()}
            if callers & {"_dihedral_rows", "_holonomy_rows"}:
                again.append(_name)
            return _call(*args)

        monkeypatch.setattr(action, name, spied)
    run_verification(TorusGeometry(TAU, TAU, TAU), (2, 2, 2), 0)
    assert again == []
    # the spies do see a row run again
    mesh = build_torus_mesh(TorusGeometry(TAU, TAU, TAU), (2, 2, 2))
    s = action.euclidean_lengths(mesh).squared_lengths
    with pytest.raises(action.RealizabilityError):
        action._holonomy_rows(mesh, np.stack([s, -s]))
    assert again == ["holonomy_deficits"]


def test_a_row_fills_a_slab_at_grid_6(monkeypatch):
    # at 6^3 every row fills its own slab, so the passes are those of one
    # draw at a time: 48 dihedral passes then (two retries of
    # random_realizable_config among them), less the 3 that recomputed
    # theta for the Schlafli tolerance; 5 holonomy passes per row (the 864
    # valence-6 stars in slabs of 341, the 648 valence-4 ones in slabs of
    # 512), and J's one build, as at grid 2
    assert passes(monkeypatch, (6, 6, 6)) == [
        {"_deficit_rows": 45, "_holonomy": 15, "_linearized": 7}]


# the fixed tolerances of the five linear checks before the roundoff
# model: the first three read relative values, the last two absolute ones
FIXED = {"stiffness_symmetry": 1e-10, "constant_metrics_in_kernel": 1e-12,
         "deformations_in_kernel": 1e-10, "divergence_of_jumps_zero": 1e-12,
         "linearized_deficit_vs_half_jump": 1e-12}
# J_TORI and TEMPLATE_GRIDS at seed 0, and the CASES above, each once
TORI = {f"{'x'.join(map(str, grid))}-{lengths[0]:.3g}-seed{seed}":
        (lengths, grid, seed) for lengths, grid, seed in dict.fromkeys(
            [(lengths, grid, 0) for grid, lengths in J_TORI.values()]
            + [(lengths, grid, 0) for grid, lengths in TEMPLATE_GRIDS]
            + CASES)}
THIN = "4x5x6-0.00628-seed0"


@pytest.mark.parametrize("label", sorted(TORI))
def test_linear_tolerances_no_looser(label):
    # each tested torus passes the five linear checks, and wherever a
    # fixed tolerance passed, the model's is at most that one
    lengths, grid, seed = TORI[label]
    mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
    results = check_complex_identities(mesh, seed)
    if label == THIN:
        # the fixed finite-difference step takes the thin side's squared
        # lengths negative, so verify reports no verdict of the suite
        with pytest.raises(action.RealizabilityError,
                           match="squared lengths must be positive"):
            check_dual_path_deficits(mesh, seed)
    else:
        results += check_dual_path_deficits(mesh, seed)
    linear = [r for r in results if r.name in FIXED]
    assert len(linear) == 4 + (label != THIN)
    for r in linear:
        assert r.passed, r.detail
        if r.value <= FIXED[r.name]:
            assert r.tolerance <= FIXED[r.name]


@pytest.mark.parametrize("lengths, grid", [
    ((1e-3, 1.0, 1.0), (3, 3, 3)),
    ((1e-3 * TAU, 2.5 * np.pi, 3.0 * np.pi), (12, 10, 8)),
], ids=["1e-3x1x1-3^3", "thin-12x10x8"])
def test_linear_checks_pass_on_thin_tori(lengths, grid):
    # the entries of A reach 5.4e4 and 4.1e3 here, so the fixed absolute
    # 1e-12 failed D^T A (3.75e-12, 2.27e-12) and the half jump (1.46e-11,
    # 5.46e-12) falsely; read relative to their operator's scale they lie
    # within 2 to 17 u.  The half jump is called alone: the dual-path
    # suite still aborts on these tori at its fixed finite-difference step
    mesh = build_torus_mesh(TorusGeometry(*lengths), grid)
    results = check_complex_identities(mesh, 0)
    fields = np.random.default_rng(0).uniform(-1.0, 1.0,
                                               (3, mesh.num_edges))
    results.append(_half_jump(mesh, fields))
    assert [r.name for r in results if not r.passed] == []
    absolute = [r for r in results if r.name in (
        "divergence_of_jumps_zero", "linearized_deficit_vs_half_jump")]
    assert [r.value > FIXED[r.name] for r in absolute] == [True, True]
