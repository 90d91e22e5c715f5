"""Distributional Saint-Venant (curl^T curl) operator on edge metric fields.

Applied to a piecewise constant tangential-tangential continuous field, the
operator concentrates on edges:

    curl^T curl u = sum_e [[u]]_e  t_e t_e^T delta_e,
    [[u]]_e = sum_{f ~ e} m_ef^T (u_{T+} - u_{T-}) n_ef,

where for each face f containing e, T+ is the tet on the side n_ef points
into.  The induced bilinear form a(u, v) = <curl^T curl u, v> has matrix
A[e', e] = [[rho_e]]_{e'} / l_{e'}, symmetric and supported on edge pairs
that share a tet.  The mass matrix is the L2 Gram matrix of the edge basis,
computed exactly from per-tet constant products.

A and M are block-circulant with 7x7 blocks (edge 7*v + d), and only the
27 blocks B_s, s in {-1, 0, 1}^3, can be nonzero.  A ``BlockCirculant``
holds those blocks and the grid, nothing of size E, and is the one owner
of the format.  Every library path reads the blocks alone: the Bloch
symbols over half the Brillouin zone, the symmetry residual, the matvec
``A @ c`` and ``constant_kernel_residual``; ``_fold`` sums blocks onto
their shifts' residues mod grid, as the E x E matrix holds them, for the
symmetry residual and ``verify``'s D^T A.  Only the E x E outputs,
``.matrix``, ``nnz`` and ``write_coo``, need to know where the entries
sit, which depends on the grid alone: the 115 structural couplings (the
edge pairs that share a tet), folded mod grid.  ``_pattern`` builds that
sparsity once per grid and keeps the last one: the block entry of each
entry of the first block row, its expansion to E x E, and the index texts
of the rows.  ``.matrix`` repeats the 115 block values along the
expansion only when read, ``nnz`` is the expansion's length, and
``write_coo`` formats the 115 values once and streams the lines in slabs.
The matvec gathers the values at the 27 neighbours of every vertex by
``_neighbours``, a (V, 27) table of the grid kept like ``_pattern``; and
``_axis_permutations`` maps the couplings under the six axis
permutations, from which ``spectrum.solve_pencil`` reads the symmetries
of its pencil.

The blocks depend only on the cell and have one builder each, from the
one-box templates: ``_stiffness`` contracts ``face_m``, ``face_n``,
``tet_rho`` and the seven edge lengths with the face-jump kernel
``_face_terms``, ``_mass`` forms the tet masses, and each scatters by its
index table of ``mesh._stencil_tables``.  ``_operator_blocks`` keeps them,
read-only, per geometry and grid, as ``spaces._trig_tables`` keeps its
tables per cell, and every call of ``stencil_operators``,
``assemble_stiffness`` or ``assemble_mass`` wraps them in a fresh
``BlockCirculant``; nothing is kept on a mesh.  ``apply_ctc`` is A's
matvec scaled by the edge lengths, l * (A c); ``edge_jump_scalar`` is one
entry of it.  ``action.linearized_deficits``, the matvec of a J built
from the edge stars, is a deliberately independent route to half the
edge jump: ``verify`` cross-checks it against ``apply_ctc``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import _OPERATORS, DIRECTIONS, PeriodicMesh, TorusGeometry, \
    _box_templates, _dir, _stencil_tables, _vid, checked_grid
from .spaces import EdgeMeasure, ReggeField

__all__ = [
    "edge_jump_scalar",
    "apply_ctc",
    "BlockCirculant",
    "stencil_operators",
    "assemble_stiffness",
    "assemble_mass",
    "constant_kernel_residual",
    "write_coo",
    "read_coo",
]

# the shifts s_i of the blocks along each axis
_SHIFTS = np.arange(-1, 2)

# entry lines per slab of ``write_coo``: about 30 bytes of text each, and
# while the slab is joined three list slots per line and the gathered
# texts, so a write holds some 6 MB beyond the pattern at any grid size
_SLAB_LINES = 1 << 16


def _face_terms(face_m: np.ndarray, face_n: np.ndarray,
                X: np.ndarray) -> np.ndarray:
    """m_ef^T X n_ef for the three edge slots s of each face: X is
    (F, ..., 3, 3), or (12, ..., 3, 3) for the twelve face templates, the
    result (F, 3, ...) or (12, 3, ...).  Face 12v + k takes the frames
    ``face_m[k]``, ``face_n[k]`` (12, 3, 3) of template k.  Unsigned: the
    caller orients it by the sectors of the edge's star."""
    Xk = X.reshape((-1, 12) + X.shape[1:])
    out = np.einsum("ksi,vk...ij,ksj->vks...", face_m, Xk, face_n)
    return out.reshape((X.shape[0], 3) + out.shape[3:])


class _Pattern(NamedTuple):
    """The sparsity of every block-circulant operator on one grid, shared
    by ``matrix``, ``nnz`` and ``write_coo``; its arrays are read-only.
    ``entry`` holds the flat (s + 1, a, b) block entry of each of the 115
    entries of the 7 x E first block row, in CSR order.  ``indptr`` and
    ``indices`` are the E x E expansion, columns sorted in each row, whose
    entry k repeats first-row entry ``src[k]``.  ``label`` holds the index
    texts f"{i} ", i < E."""

    entry: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    label: np.ndarray


@cache
def _couplings() -> np.ndarray:
    """The flat (s + 1, a, b) block entries, ascending, of the 115
    structural couplings: the (s, a, b) for which edge a at the origin and
    edge b at s share a tet.  Read-only."""
    out = np.unique(_stencil_tables()[1][1])
    out.setflags(write=False)
    return out


@cache
def _axis_permutations() -> tuple:
    """The six axis permutations p, (6, 3) with the identity first, and
    the flat block entry (p.s + 1, p.a, p.b) of each structural coupling
    (s, a, b) of ``_couplings()`` under each, (6, 115): p acts on a shift
    and on a direction vector ``DIRECTIONS[d]`` by permuting coordinates,
    (p.x)_i = x_{p_i}.  Read-only."""
    perms = np.array(list(permutations(range(3))))
    s, a, b = np.unravel_index(_couplings(), (27, 7, 7))
    s = np.stack(np.unravel_index(s, (3, 3, 3)), axis=-1)
    images = np.stack([
        np.ravel_multi_index(s[:, p].T, (3, 3, 3)) * 49
        + 7 * _dir(DIRECTIONS[a][:, p]) + _dir(DIRECTIONS[b][:, p])
        for p in perms])
    for arr in (perms, images):
        arr.setflags(write=False)
    return perms, images


@lru_cache(maxsize=1)
def _neighbours(grid: tuple) -> np.ndarray:
    """The vertex ids of v + s, s in {-1, 0, 1}^3 taken mod the (checked)
    ``grid``, of every vertex v: a read-only (V, 27) array, s + 1 in
    ``np.ndindex`` order, built by index arithmetic on first use and kept
    for the last grid, like ``_pattern``."""
    n1, n2, n3 = grid
    # the id strides times the residues of i + s on each axis, (n, 3)
    i, j, k = ((np.arange(n)[:, None] + _SHIFTS) % n * stride
               for n, stride in zip(grid, (n2 * n3, n3, 1)))
    ij = i[:, None, :, None] + j[:, None, :]
    out = (ij[:, :, None, :, :, None] + k[:, None, None, :]).reshape(-1, 27)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=1)
def _pattern(grid: tuple) -> _Pattern:
    """The ``_Pattern`` of the (checked) ``grid``, built on first use.

    The entries of the first block row are the structural couplings, the
    (s, a, b) for which edge a at the origin and edge b at s share a tet:
    entry (a, 7*u + b) holds B_s[a, b] for u = s mod grid.  A coupling of
    value 0 stays an explicit entry, so the entries depend on the grid
    alone.  On a 2-wide axis the shifts +1 and -1 fold onto one column,
    but no (a, b) couples at two shifts that fold, so each entry is one
    block value.  The expansion repeats each at (7*v + a, 7*w + b) for
    every vertex v, w = v + u taken mod grid per axis.
    """
    entry = _couplings()
    s, a, b = np.unravel_index(entry, (27, 7, 7))
    s = np.stack(np.unravel_index(s, (3, 3, 3)), axis=-1) - 1
    (n1, n2, n3), V = grid, int(np.prod(grid))
    E = 7 * V
    key = a * E + 7 * _vid(s, np.array(grid)) + b
    order = np.argsort(key)
    row, col = np.divmod(key[order], E)
    # scipy picks the index dtypes; the data carries the block entries
    first = sp.csr_matrix((entry[order], col,
                           np.searchsorted(row, np.arange(8))), shape=(7, E))
    # first-row entry (a, 7*u + b) repeats at (7*v + a, 7*w + b), w = v + u;
    # the columns take the row's index dtype, which scipy keeps without a
    # copy, and the ordinals stay intp: .matrix gathers by them
    u, b = np.divmod(first.indices, 7)
    i, j, k = (((np.arange(n)[:, None] + ui) % n).astype(b.dtype)
               for n, ui in zip(grid, np.unravel_index(u, grid)))
    cols = 7 * n3 * (i[:, None, None] * n2 + j[:, None]) + (7 * k + b)
    indptr = np.r_[0, np.tile(np.diff(first.indptr), V).cumsum()]
    # expand the ordinals of the first row's entries; sorting carries them
    S = sp.csr_matrix((np.tile(np.arange(first.nnz), V), cols.ravel(),
                       indptr), shape=(E, E))
    S.sort_indices()
    label = np.array([f"{i} " for i in range(E)], dtype=object)
    out = _Pattern(first.data, S.indptr, S.indices, S.data, label)
    for arr in out:  # every operator on the grid shares them
        arr.setflags(write=False)
    return out


def _residues(n: int, s: np.ndarray):
    """The distinct residues of the shifts ``s`` mod n, ascending, and the
    rank of every residue 0..n-1 among them (by a mask, not a sort)."""
    present = np.zeros(n, dtype=bool)
    present[s % n] = True
    return np.flatnonzero(present), np.cumsum(present) - 1


def _fold(blocks: np.ndarray, shifts: np.ndarray, grid) -> tuple:
    """``blocks`` (len(shifts),) * 3 + (...), block [i, j, k] at the shift
    (shifts[i], shifts[j], shifts[k]), summed onto the residues of the
    shifts mod ``grid``, as the E x E operator holds them: the residues of
    each axis, ascending, and the folded blocks (m1, m2, m3, ...), m_i
    residues on axis i."""
    residues, ranks = zip(*(_residues(n, shifts) for n in grid))
    out = np.zeros(tuple(map(len, residues)) + blocks.shape[3:])
    np.add.at(out, np.ix_(*(rank[shifts % n]
                            for rank, n in zip(ranks, grid))), blocks)
    return residues, out


def _roots(n: int, k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(-2 pi i k s / n) for frequencies k and shifts s, (len k, len s),
    read from one table of the n-th roots of unity by k s mod n: shifts of
    the same residue get the same phase, bit for bit."""
    table = np.exp(-2j * np.pi * np.arange(n) / n)
    return table[np.outer(k, s) % n]


@dataclass(frozen=True)
class BlockCirculant:
    """E x E block-circulant matrix held as its 27 nonzero 7x7 blocks.

    ``blocks[s1 + 1, s2 + 1, s3 + 1]`` is B_s, s in {-1, 0, 1}^3: entry
    (a, b) couples direction a at every vertex v to direction b at v + s on
    the ``(n1, n2, n3)`` lattice ``grid``, s taken mod grid, so that the
    shifts +1 and -1 of a 2-wide axis add.  The blocks are all it holds:
    the E x E ``matrix`` is derived on first use.  Only the 115 structural
    couplings may be nonzero, so that every route reads one operator; a
    nonzero entry elsewhere is a ValueError (a zero of either sign is
    fine).
    """

    blocks: np.ndarray
    grid: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", checked_grid(self.grid))
        if self.blocks.shape != (3, 3, 3, 7, 7):
            raise ValueError(f"blocks have shape {self.blocks.shape}, "
                             "expected (3, 3, 3, 7, 7)")
        outside = self.blocks.ravel().copy()
        outside[_couplings()] = 0.0
        bad = np.flatnonzero(outside)
        if bad.size:
            s, a, b = np.unravel_index(bad[0], (27, 7, 7))
            s = tuple(int(i) - 1 for i in np.unravel_index(s, (3, 3, 3)))
            raise ValueError(f"block entry (s, a, b) = ({s}, {a}, {b}) is "
                             "not one of the 115 structural couplings")

    @property
    def shape(self):
        return (7 * int(np.prod(self.grid)),) * 2

    @property
    def nnz(self) -> int:
        """Stored entries of ``matrix``: the expansion repeats each entry
        of the first block row once per vertex, and neither drops nor
        merges any."""
        return len(_pattern(self.grid).src)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The E x E matrix: the block values of the first block row along
        the expansion of ``_pattern``.  Its index arrays are the pattern's
        own, read-only, so a change of its structure in place
        (``eliminate_zeros``) needs a ``copy()`` first."""
        p = _pattern(self.grid)
        return sp.csr_matrix((self.blocks.ravel()[p.entry][p.src], p.indices,
                              p.indptr), shape=self.shape)

    def __matmul__(self, c) -> np.ndarray:
        """A c for a vector c of E values, without forming A: the seven
        values at each of the 27 neighbours v + s of every vertex v
        (``_neighbours``), gathered in one take, (V, 27 * 7), contracted
        with the blocks in one product."""
        c = np.asarray(c, dtype=float)
        if c.shape != self.shape[1:]:
            raise ValueError(f"vector has shape {c.shape}, expected "
                             f"{self.shape[1:]}")
        operand = np.take(c.reshape(-1, 7), _neighbours(self.grid), axis=0)
        return (operand.reshape(-1, 27 * 7)
                @ self.blocks.swapaxes(-1, -2).reshape(27 * 7, 7)).ravel()

    def symbols(self, k1=slice(None)) -> np.ndarray:
        """Bloch symbols sum_s B_s exp(-2 pi i k.s / n) over half the
        Brillouin zone, k3 in 0..n3//2, and the planes ``k1`` (a slice of
        0..n1-1) of the first axis: an (n1, n2, n3//2 + 1, 7, 7) array for
        the default slice, ``np.ndindex`` order within it.

        The symbol at -k is the conjugate of the one at k, because the
        blocks are real, so the half zone determines the whole spectrum.
        Each axis is one phase contraction of its shifts, the third first.
        No array of size E is formed.
        """
        n1, n2, n3 = self.grid
        ks = (np.arange(n1)[k1], np.arange(n2), np.arange(n3 // 2 + 1))
        out = self.blocks
        for axis in (2, 1, 0):
            phases = _roots(self.grid[axis], ks[axis], _SHIFTS)
            out = np.moveaxis(np.einsum("km,m...->k...", phases,
                                        np.moveaxis(out, axis, 0)), 0, axis)
        return out

    def symmetry_residual(self) -> float:
        """max|S - S^T| / max|S|, read off the blocks folded onto their
        residues mod grid: block s of S^T is B_{-s}^T."""
        residues, B = _fold(self.blocks, _SHIFTS, self.grid)
        # the shifts are their own negatives, and so are their residues
        partners = [np.searchsorted(r, -r % n)
                    for r, n in zip(residues, self.grid)]
        Bt = B[np.ix_(*partners)].swapaxes(-1, -2)
        denom = max(np.abs(B).max(initial=0.0), 1e-300)
        return float(np.abs(B - Bt).max(initial=0.0) / denom)


def _stiffness(t) -> np.ndarray:
    """The blocks of A from the templates ``t``: the face table of
    ``_stencil_tables`` scatters ``_face_terms`` of the tet templates on
    the face templates, (12, 3, 6, 6) per face k, slot s, tet r and local
    edge a, signed by the sector n_ef points into and divided by the
    length of the star's edge, in one in-order ``np.bincount``."""
    index, side, row, entry = _stencil_tables()[0]
    rho = t["tet_rho"]
    terms = _face_terms(t["face_m"], t["face_n"],
                        np.broadcast_to(rho, (12,) + rho.shape))
    return np.bincount(entry, side / t["edge_length"][row]
                       * terms.ravel()[index], 27 * 49).reshape(3, 3, 3, 7, 7)


def _mass(t) -> np.ndarray:
    """The blocks of M from the templates ``t``: the tet table of
    ``_stencil_tables`` scatters the tet masses |T| rho_a : rho_b (6, 6,
    6) per tet template r and local edges a, b."""
    index, entry = _stencil_tables()[1]
    rho = t["tet_rho"]
    mass = np.einsum(",raij,rbij->rab", t["tet_volume"], rho, rho)
    return np.bincount(entry, mass.ravel()[index],
                       27 * 49).reshape(3, 3, 3, 7, 7)


@lru_cache(maxsize=_OPERATORS)
def _operator_blocks(geometry: TorusGeometry, grid: tuple) -> tuple:
    """The read-only blocks of A and M on the (checked) ``grid`` of
    ``geometry``, built from ``mesh._box_templates`` on first use."""
    t = _box_templates(geometry, grid)
    out = _stiffness(t), _mass(t)
    for blocks in out:
        blocks.setflags(write=False)
    return out


def stencil_operators(geometry: TorusGeometry, grid):
    """A and M on the ``grid`` of ``geometry``, built without a mesh.

    The blocks depend only on the cell h_i = l_i / n_i, so any grid takes
    the same time, once: each call wraps the blocks of ``_operator_blocks``
    in fresh operators, so a ``.matrix`` read lives as long as its caller
    keeps the operator.  A MeshError names ``geometry`` and ``grid``, as
    building their mesh would.
    """
    grid = checked_grid(grid)
    return tuple(BlockCirculant(blocks, grid)
                 for blocks in _operator_blocks(geometry, grid))


def assemble_stiffness(mesh: PeriodicMesh) -> BlockCirculant:
    """A[e', e] = [[rho_e]]_{e'} / l_{e'}, so entries couple only edges
    sharing a tet: the A of ``stencil_operators`` of the mesh's torus."""
    return BlockCirculant(_operator_blocks(mesh.geometry, mesh.grid)[0],
                          mesh.grid)


def assemble_mass(mesh: PeriodicMesh) -> BlockCirculant:
    """M[e, e'] = sum_T |T| rho_e|_T : rho_e'|_T, exact: the M of
    ``stencil_operators`` of the mesh's torus."""
    return BlockCirculant(_operator_blocks(mesh.geometry, mesh.grid)[1],
                          mesh.grid)


def apply_ctc(mesh: PeriodicMesh, u: ReggeField) -> EdgeMeasure:
    """Saint-Venant operator: edge measure with coefficients [[u]]_e.

    Since A[e', e] = [[rho_e]]_{e'} / l_{e'}, the jump is l * (A c) for
    the coefficients c of u, by the matvec of ``assemble_stiffness``, whose
    blocks are built once per geometry and grid.
    """
    jump = (assemble_stiffness(mesh) @ u.coeffs).reshape(-1, 7)
    return EdgeMeasure(mesh.edge_length * jump)


def edge_jump_scalar(mesh: PeriodicMesh, u: ReggeField, e: int) -> float:
    """[[u]]_e = sum over faces containing e of m_ef^T [u]_ef n_ef, read
    from ``apply_ctc(mesh, u)``."""
    if not 0 <= e < mesh.num_edges:
        raise ValueError(f"invalid edge id {e}")
    return float(apply_ctc(mesh, u).coeffs[e])


def constant_kernel_residual(edge_vec: np.ndarray, A: BlockCirculant,
                             rng: np.random.Generator) -> float:
    """max|A c| / (max|A| max|c|) for the edge values c of one constant
    metric, symmetrised from a uniform [-1, 1] 3x3 draw of ``rng``;
    ``edge_vec`` holds the cell's seven edge vectors, DIRECTIONS * cell.

    Constant metrics lie in the kernel, so this is roundoff-sized.  c
    repeats the seven values c0 at every vertex, so (A c)_v is
    (sum_s B_s) c0 at every v, whether or not shifts fold mod grid; and
    max|A| is max|B_s|, since no two couplings fold onto one entry (see
    ``_pattern``).  The cost does not grow with the grid, and nothing of
    size E is formed.
    """
    g = rng.uniform(-1.0, 1.0, (3, 3))
    g = 0.5 * (g + g.T)
    c = np.einsum("ei,ij,ej->e", edge_vec, g, edge_vec)
    return float(np.abs(A.blocks.sum(axis=(0, 1, 2)) @ c).max()
                 / (np.abs(A.blocks).max() * max(np.abs(c).max(), 1e-300)))


def write_coo(matrix: BlockCirculant, path) -> None:
    """Write the E x E matrix held by ``matrix`` to ``path`` in coordinate
    text format, working from its blocks and the grid's ``_pattern``:
    each value of the first block row is formatted once, the pattern's
    index texts are reused, and the lines are joined and written
    ``_SLAB_LINES`` at a time, so the text in memory stays bounded as the
    file grows.

    Header line "rows cols nnz", then one "i j value" triple per line
    (0-based indices, 17 significant digits), sorted by (i, j).
    """
    p = _pattern(matrix.grid)
    E, nnz = matrix.shape[0], len(p.src)
    value = np.array(["%.17g\n" % v
                      for v in matrix.blocks.ravel()[p.entry].tolist()],
                     dtype=object)
    with open(path, "w") as fh:
        fh.write(f"{E} {E} {nnz}\n")
        for lo in range(0, nnz, _SLAB_LINES):
            hi = min(lo + _SLAB_LINES, nnz)
            # the rows first..last hold the entries lo..hi-1
            first, last = np.searchsorted(p.indptr, [lo, hi - 1],
                                          "right") - 1
            counts = np.diff(np.clip(p.indptr[first:last + 2], lo, hi))
            # the three pieces of every line, interleaved in one list
            pieces = [""] * (3 * (hi - lo))
            pieces[0::3] = np.repeat(p.label[first:last + 1],
                                     counts).tolist()
            pieces[1::3] = p.label[p.indices[lo:hi]].tolist()
            pieces[2::3] = value[p.src[lo:hi]].tolist()
            fh.write("".join(pieces))


_COO_ENTRY = np.dtype([("row", np.int64), ("col", np.int64),
                       ("value", np.float64)])


def read_coo(path) -> sp.csr_matrix:
    """Read the matrix file at ``path`` written by :func:`write_coo`.

    Raises ValueError unless the file has exactly the header's nnz entry
    lines, each an "i j value" triple.
    """
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    nr, nc, nnz = (int(x) for x in header.split())
    # loadtxt warns on a file with no entry lines, which nnz = 0 allows
    entries = (np.loadtxt(io.StringIO(body), dtype=_COO_ENTRY, ndmin=1)
               if body.strip() else np.empty(0, _COO_ENTRY))
    if len(entries) != nnz:
        raise ValueError(f"{path}: header says nnz = {nnz}, found "
                         f"{len(entries)} entries")
    return sp.coo_matrix((entries["value"], (entries["row"],
                                             entries["col"])),
                         shape=(nr, nc)).tocsr()
