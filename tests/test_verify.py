"""The dual-path, second-variation and Schlafli suites run each suite's
random draws as stacked rows: their results equal those of the suites
run one draw at a time, and the number of action passes they make is
pinned."""

import numpy as np
import pytest

from oracles import dual_path_per_draw, schlafli_per_draw, \
    second_variation_per_draw
from reggefem import action, saint_venant
from reggefem.mesh import TorusGeometry, build_torus_mesh
from reggefem.verify import check_dual_path_deficits, check_schlafli, \
    check_second_variation, run_verification

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


def test_a_row_fills_a_slab_at_grid_6(monkeypatch):
    # at 6^3 every row fills its own slab, so the passes are those of one
    # draw at a time: 48 dihedral passes then (two retries of
    # random_realizable_config among them), less the 3 that recomputed
    # theta for the Schlafli tolerance; 5 holonomy passes per row (the 864
    # valence-6 stars in slabs of 341, the 648 valence-4 ones in slabs of
    # 512), and J's one build, as at grid 2
    assert passes(monkeypatch, (6, 6, 6)) == [
        {"_deficit_rows": 45, "_holonomy": 15, "_linearized": 7}]
