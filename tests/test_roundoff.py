"""The roundoff model of ``reggefem._roundoff``: gamma_n against exact
sums, the counts it reads off the complex, and the one home of every
roundoff tolerance."""

import ast
import io
import math
import pathlib
import tokenize
from fractions import Fraction

import numpy as np
import pytest

from reggefem import BlockCirculant, assemble_stiffness
from reggefem._roundoff import FACE_TERMS, FRAME_TERMS, ROW_COUPLINGS, \
    TET_TERMS, UNIT_ROUNDOFF, gamma, kernel_rtol, matvec_rtol, sum_rtol
from reggefem.action import _linearized_blocks
from reggefem.mesh import DIRECTIONS, TorusGeometry, _stencil_tables, \
    build_torus_mesh
from reggefem.saint_venant import _couplings

TAU = 2.0 * np.pi
ROOT = pathlib.Path(__file__).resolve().parent.parent

# a cube and a thin cell, one side 1e-3 of the others: the entries of the
# thin cell's A span eight orders of magnitude
TORI = {"cube": ((TAU, TAU, TAU), (3, 3, 3)),
        "thin": ((1e-3, 1.0, 1.0), (3, 4, 5))}


def exact(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


def within(computed, exact_value, bound) -> bool:
    """|computed - exact| <= bound, compared exactly."""
    return abs(Fraction(float(computed)) - exact_value) <= Fraction(bound)


def samples(rng, n):
    """Mixed-sign data over many magnitudes, and the entries of the thin
    cell's stiffness blocks."""
    blocks = assemble_stiffness(build_torus_mesh(
        TorusGeometry(*TORI["thin"][0]), TORI["thin"][1])).blocks
    pool = blocks[blocks != 0]
    yield rng.uniform(-1.0, 1.0, n)
    yield rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    yield rng.choice(pool, n)


class TestGamma:
    def test_values(self):
        assert UNIT_ROUNDOFF == 2.0 ** -53
        assert gamma(0) == 0.0
        assert gamma(1) > UNIT_ROUNDOFF
        assert gamma(3) < 3 * UNIT_ROUNDOFF * (1 + 4 * UNIT_ROUNDOFF)
        assert gamma(3) + gamma(4) <= gamma(7)

    @pytest.mark.parametrize("n", [-1, 0.5, 2 ** 53, np.inf])
    def test_counts_it_refuses(self, n):
        with pytest.raises(ValueError, match="^n: need a count"):
            gamma(n)


class TestAgainstExactSums:
    """Higham's bounds, that every count of the model builds on, hold on
    seeded data: a sum of n terms, in any order, is within
    gamma_(n - 1) sum |x|, a dot product of length n within gamma_n
    sum |x y|, and a row of a 27-block matvec within gamma_19 of its
    |B| |c|, since a row has 19 couplings and the zero blocks add
    nothing."""

    @pytest.mark.parametrize("n", [2, 12, 19, 1000])
    def test_sums(self, n):
        rng = np.random.default_rng(n)
        for x in samples(rng, n):
            ref = exact(x)
            assert math.fsum(x) == float(ref)
            bound = gamma(n - 1) * float(np.sum(np.abs(x)))
            for computed in (np.sum(x), np.bincount(np.zeros(n, int), x)[0],
                             sum(x.tolist()), np.cumsum(x)[-1]):
                assert within(computed, ref, bound)

    @pytest.mark.parametrize("n", [3, 7, 19, 500])
    def test_dot_products(self, n):
        rng = np.random.default_rng(100 + n)
        for x, y in zip(samples(rng, n), samples(rng, n)):
            ref = sum((Fraction(a) * Fraction(b) for a, b in zip(x, y)),
                      Fraction(0))
            bound = gamma(n) * float(np.abs(x) @ np.abs(y))
            for computed in (x @ y, np.einsum("i,i->", x, y),
                             np.sum(x * y)):
                assert within(computed, ref, bound)

    @pytest.mark.parametrize("label", TORI)
    def test_matvec_rows(self, label):
        sides, grid = TORI[label]
        mesh = build_torus_mesh(TorusGeometry(*sides), grid)
        c = np.random.default_rng(7).uniform(-1.0, 1.0, mesh.num_edges)
        J = _linearized_blocks(mesh.geometry, mesh.grid)
        for S in (assemble_stiffness(mesh), BlockCirculant(J, mesh.grid)):
            rows = S.matrix.tocsr()  # no axis of 2 folds two couplings
            computed = S @ c
            for i in range(0, mesh.num_edges, 5):
                cols = rows.indices[rows.indptr[i]:rows.indptr[i + 1]]
                vals = rows.data[rows.indptr[i]:rows.indptr[i + 1]]
                assert len(cols) <= ROW_COUPLINGS
                ref = sum((Fraction(a) * Fraction(b)
                           for a, b in zip(vals, c[cols])), Fraction(0))
                bound = gamma(ROW_COUPLINGS) * float(
                    np.abs(vals) @ np.abs(c[cols]))
                assert within(computed[i], ref, bound)


class TestCounts:
    def test_counts_of_the_complex(self):
        # the most couplings of a row, face terms of an entry of A, and
        # tet terms of an entry of M; an entry of J sums, per sector tet
        # of the tet table, the jumps across the tet's two star faces
        rows = np.unravel_index(_couplings(), (27, 7, 7))[1]
        assert np.bincount(rows).max() == ROW_COUPLINGS
        face_entry = _stencil_tables()[0][3]
        tet_entry = _stencil_tables()[1][1]
        assert np.bincount(face_entry.ravel()).max() == FACE_TERMS
        assert np.bincount(tet_entry.ravel()).max() == TET_TERMS
        assert 2 * np.bincount(tet_entry.ravel()).max() == FACE_TERMS
        # a Gram-Schmidt frame of the metric spans the three axes
        assert DIRECTIONS.shape[1] == FRAME_TERMS

    def test_bounds(self):
        # the count of each family, and no bound above the ulps (eps = 2u
        # each) written by hand for it before: terms + 4 under the point
        # group (A and J 16, M 10), 8 for the pencil's permutations, 19
        # for a row against the star pass, 8 kappa per angle gap, 4 for
        # the Gram-Schmidt frame
        eps = 2 * UNIT_ROUNDOFF
        assert sum_rtol(FACE_TERMS) == gamma(15) <= 8 * eps
        assert sum_rtol(FRAME_TERMS) == gamma(6) <= 4 * eps
        assert sum_rtol(TET_TERMS) == gamma(9) <= 8 * eps
        assert matvec_rtol() == gamma(37) <= 19 * eps
        cube_tet = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]
        assert kernel_rtol([cube_tet, cube_tet]) == 3.0 * gamma(6)
        assert kernel_rtol([cube_tet], angles=6) == 18.0 * gamma(6) \
            <= 6 * 8 * 3.0 * eps


# the tests whose bounds the model replaced, by file and qualified name
CONVERTED = {
    "tests/test_saint_venant.py": [
        "TestPointGroup.test_blocks_map_under_the_point_group"],
    "tests/test_action.py": [
        "TestLinearizedOperator.test_matvec_equals_the_meshed_star_pass",
        "TestLinearizedOperator"
        ".test_blocks_are_half_the_lengths_times_the_stiffness",
        "TestPointGroupCovariance.test_routes_commute_with_the_maps",
        "TestHolonomyReadOff.test_k_minus_of_face_zero_is_gram_schmidt_w2"],
}


def _hand_written(source: str) -> list:
    """The tokens of ``source``, comments and strings aside, that write
    roundoff by hand: finfo, spacing or nextafter, a float literal
    between 1e-18 and 1e-14, a power 2 ** -52 or 2 ** -53, the unit
    roundoff itself, or gamma of a literal count."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source)
                                                  .readline)
              if t.type not in (tokenize.COMMENT, tokenize.STRING,
                                tokenize.NL, tokenize.NEWLINE,
                                tokenize.INDENT, tokenize.DEDENT)]
    found = []
    for i, t in enumerate(tokens):
        after = [s.string for s in tokens[i + 1:i + 4]]
        if t.type == tokenize.NAME and t.string in (
                "finfo", "spacing", "nextafter", "UNIT_ROUNDOFF"):
            found.append(t.string)
        elif t.type == tokenize.NAME and t.string == "gamma" \
                and after[:1] == ["("] and after[1:2] \
                and after[1][:1].isdigit():
            found.append(f"gamma({after[1]})")
        elif t.type == tokenize.NUMBER:
            if 1e-18 < abs(ast.literal_eval(t.string)) < 1e-14:
                found.append(t.string)
            if t.string == "2" and after[:2] == ["**", "-"] \
                    and after[2] in ("52", "53"):
                found.append("2 ** -" + after[2])
    return found


def _function_source(path: pathlib.Path, qualname: str) -> str:
    node = ast.parse(path.read_text())
    for name in qualname.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return ast.get_source_segment(path.read_text(), node)


def test_the_guard_sees_hand_written_roundoff():
    for text in ("tol = 16 * np.finfo(float).eps", "tol = 2.2e-16",
                 "tol = 2 ** -53 * n", "tol = 19 * UNIT_ROUNDOFF",
                 "tol = gamma(19)", "tol = np.spacing(x)"):
        assert _hand_written(text), text
    for text in ("tol = gamma(n)", "# 2.2e-16 of max|A|", "x = 1e-300",
                 "'''16 ulps, 2.2e-16'''", "tol = sum_rtol(FACE_TERMS)"):
        assert not _hand_written(text), text


@pytest.mark.parametrize("where", sorted(
    [str(p.relative_to(ROOT)) for p in (ROOT / "src" / "reggefem")
     .glob("*.py") if p.name != "_roundoff.py"]
    + [f"{path}::{name}" for path, names in CONVERTED.items()
       for name in names]))
def test_roundoff_written_in_one_home(where):
    # every roundoff tolerance of the library and of the converted tests
    # comes from reggefem._roundoff
    path, _, qualname = where.partition("::")
    source = (_function_source(ROOT / path, qualname) if qualname
              else (ROOT / path).read_text())
    assert _hand_written(source) == []
