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

A and M are block-circulant with 7x7 blocks (edge 7*v + d): each is built
as its first block row, from the faces or tets of the edges e < 7, and held
as a ``BlockCirculant``.  It is the one owner of that format: it gives the
entry count from the row alone, and expands the row to the E x E matrix
only when ``.matrix`` is read.  ``write_coo`` also works from the row:
``_block_circulant`` gives the one index expansion, which ``.matrix`` fills
with the head's values and ``write_coo`` with their text, formatted once
per distinct value.

The row holds at most 27 nonzero blocks B_s, s in {-1, 0, 1}^3, which
depend only on the cell.  A ``Stencil`` holds just those blocks and owns
the Bloch symbols (one routine over half the Brillouin zone) and the
symmetry residual; ``BlockCirculant.stencil`` reads it off the row.  Two
deliberately independent routes give the blocks of a grid, and a test
compares them symbol by symbol: the meshed head of the grid, which
``assemble``, ``write_coo`` and ``verify`` use, and ``stencil_operators``,
which the spectra (``converge``, ``eigs``) use.  It builds no mesh and no
head: it scatters the one-box templates (``mesh._box_templates``, which
the mesh reads too) into the blocks by the two index tables of
``mesh._stencil_tables``, read once off the edge stars at the origin.

The module has one face-jump kernel, ``_face_terms``: the frame contraction
m_ef^T X n_ef of per-face matrices X in the face templates' frames.
``assemble_stiffness`` and ``stencil_operators`` apply it to the six tet
templates' basis matrices on the twelve face templates
(``_template_terms``), ``apply_ctc`` to the tet-matrix differences of a
field; ``edge_jump_scalar`` is one entry of ``apply_ctc``.  The
star-ordered ``action.linearized_deficits`` (``linearized_deficit`` per
edge) is a separate, deliberately independent route to half the edge jump:
``verify`` cross-checks it against ``apply_ctc``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import PeriodicMesh, TorusGeometry, _box_templates, \
    _stencil_tables, checked_grid
from .spaces import EdgeMeasure, ReggeField, regge_to_tet_matrices

__all__ = [
    "edge_jump_scalar",
    "apply_ctc",
    "BlockCirculant",
    "Stencil",
    "stencil_operators",
    "assemble_stiffness",
    "assemble_mass",
    "constant_kernel_residual",
    "write_coo",
    "read_coo",
]


def _face_terms(face_m: np.ndarray, face_n: np.ndarray,
                X: np.ndarray) -> np.ndarray:
    """m_ef^T X n_ef for the three edge slots s of each face: X is
    (F, ..., 3, 3), or (12, ..., 3, 3) for the twelve face templates, the
    result (F, 3, ...) or (12, 3, ...).  Face 12v + k takes the frames
    ``face_m[k]``, ``face_n[k]`` (12, 3, 3) of template k.  Unsigned: the
    caller orients it by face_side."""
    Xk = X.reshape((-1, 12) + X.shape[1:])
    out = np.einsum("ksi,vk...ij,ksj->vks...", face_m, Xk, face_n)
    return out.reshape((X.shape[0], 3) + out.shape[3:])


def _template_terms(face_m, face_n, tet_rho) -> np.ndarray:
    """``_face_terms`` of the six tet templates' basis matrices on the
    twelve face templates, (12, 3, 6, 6): face k, slot s, tet template r,
    local edge a."""
    return _face_terms(face_m, face_n,
                       np.broadcast_to(tet_rho, (12,) + tet_rho.shape))


def _tet_mass(tet_volume, tet_rho) -> np.ndarray:
    """|T| rho_a : rho_b of the six tet templates, (6, 6, 6)."""
    return np.einsum(",raij,rbij->rab", tet_volume, tet_rho, tet_rho)


def edge_jump_scalar(mesh: PeriodicMesh, u: ReggeField, e: int) -> float:
    """[[u]]_e = sum over faces containing e of m_ef^T [u]_ef n_ef, read
    from ``apply_ctc(mesh, u)``."""
    if not 0 <= e < mesh.num_edges:
        raise ValueError(f"invalid edge id {e}")
    return float(apply_ctc(mesh, u).coeffs[e])


def apply_ctc(mesh: PeriodicMesh, u: ReggeField) -> EdgeMeasure:
    """Saint-Venant operator: edge measure with coefficients [[u]]_e."""
    mats = regge_to_tet_matrices(mesh, u)
    diff = mats[mesh.face_tets[:, 1]] - mats[mesh.face_tets[:, 0]]  # (F,3,3)
    sign = np.where(mesh.face_side == 1, 1.0, -1.0)
    out = np.zeros(mesh.num_edges)
    np.add.at(out, mesh.face_edges.ravel(),
              (sign * _face_terms(mesh.face_m, mesh.face_n, diff)).ravel())
    return EdgeMeasure(out)


def _block_circulant(head: sp.csr_matrix, grid):
    """Index expansion of the E x E block-circulant matrix with first block
    row ``head`` (7 x E CSR, duplicates summed): its entry (a, 7*s + b)
    couples direction a at each vertex v to direction b at v + s, the sum
    taken mod grid per axis.

    Returns the CSR arrays ``(indptr, indices, src)``, columns sorted in
    each row: expanded entry k repeats ``head.data[src[k]]``.
    """
    shift, b = np.divmod(head.indices, 7)
    (n1, n2, n3), V = grid, int(np.prod(grid))
    i, j, k = ((np.arange(n)[:, None] + s) % n
               for n, s in zip(grid, np.unravel_index(shift, grid)))
    cols = 7 * n3 * (i[:, None, None] * n2 + j[:, None]) + (7 * k + b)
    indptr = np.r_[0, np.tile(np.diff(head.indptr), V).cumsum()]
    # expand the ordinals of the head entries; sorting carries them along
    S = sp.csr_matrix((np.tile(np.arange(head.nnz), V), cols.ravel(),
                       indptr), shape=(7 * V, 7 * V))
    S.sort_indices()
    return S.indptr, S.indices, S.data


@dataclass(frozen=True)
class BlockCirculant:
    """E x E block-circulant matrix held as its first block row.

    ``head`` is the 7 x E CSR block row (duplicates summed): entry
    (a, 7*s + b) is block B_s[a, b], coupling direction a at every vertex v
    to direction b at v + s on the ``(n1, n2, n3)`` lattice ``grid``.
    ``shape`` is read from the head; ``matrix`` expands it once, on first
    use.
    """

    head: sp.csr_matrix
    grid: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(int(n) for n in self.grid))
        E = 7 * int(np.prod(self.grid))
        if self.head.shape != (7, E):
            raise ValueError(f"block row has shape {self.head.shape}, "
                             f"expected {(7, E)} for grid {self.grid}")

    @property
    def shape(self):
        return (self.head.shape[1],) * 2

    @property
    def nnz(self) -> int:
        """Stored entries of ``matrix``: the expansion repeats each head
        entry once per vertex, and neither drops nor merges any."""
        return self.head.nnz * int(np.prod(self.grid))

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        indptr, cols, src = _block_circulant(self.head, self.grid)
        return sp.csr_matrix((self.head.data[src], cols, indptr),
                             shape=self.shape)

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def stencil(self) -> "Stencil":
        """The head's blocks as a ``Stencil``: one block per distinct shift
        residue s mod grid that the head holds, so a folded +-1 shift of a
        2-wide axis is read once."""
        shift, b = np.divmod(self.head.indices, 7)
        a = np.repeat(np.arange(7), np.diff(self.head.indptr))
        offsets, index = [], []
        for r, n in zip(np.unravel_index(shift, self.grid), self.grid):
            residues, rank = _residues(n, r)
            offsets.append(residues)
            index.append(rank[r])
        blocks = np.zeros(tuple(map(len, offsets)) + (7, 7))
        blocks[(*index, a, b)] = self.head.data
        return Stencil(blocks, tuple(offsets), self.grid)

    def symbols(self, k1=slice(None)) -> np.ndarray:
        """The half-zone Bloch symbols of ``Stencil.symbols``, from the
        blocks read off the head: (n1, n2, n3//2 + 1, 7, 7) for the default
        ``k1``.  No FFT of the dense head and no array of size E."""
        return self.stencil.symbols(k1)

    def symmetry_residual(self) -> float:
        """``Stencil.symmetry_residual`` of the blocks read off the head:
        max|S - S^T| / max|S|."""
        return self.stencil.symmetry_residual()


def _residues(n: int, s: np.ndarray):
    """The distinct residues of the shifts ``s`` mod n, ascending, and the
    rank of every residue 0..n-1 among them (by a mask, not a sort)."""
    present = np.zeros(n, dtype=bool)
    present[s % n] = True
    return np.flatnonzero(present), np.cumsum(present) - 1


def _roots(n: int, k: np.ndarray, s: np.ndarray) -> np.ndarray:
    """exp(-2 pi i k s / n) for frequencies k and shifts s, (len k, len s),
    read from one table of the n-th roots of unity by k s mod n: shifts of
    the same residue get the same phase, bit for bit."""
    table = np.exp(-2j * np.pi * np.arange(n) / n)
    return table[np.outer(k, s) % n]


@dataclass(frozen=True)
class Stencil:
    """E x E block-circulant matrix held as its nonzero 7x7 blocks.

    ``blocks[i, j, l]`` is B_s for s = (offsets[0][i], offsets[1][j],
    offsets[2][l]): entry (a, b) couples direction a at every vertex v to
    direction b at v + s on the ``(n1, n2, n3)`` lattice ``grid``, s taken
    mod grid, and shifts of the same residue add.  Nothing of size E is
    stored: a ``stencil_operators`` pair holds 27 blocks on any grid.
    """

    blocks: np.ndarray
    offsets: tuple
    grid: tuple

    @property
    def shape(self):
        return (7 * int(np.prod(self.grid)),) * 2

    def symbols(self, k1=slice(None)) -> np.ndarray:
        """Bloch symbols sum_s B_s exp(-2 pi i k.s / n) over half the
        Brillouin zone, k3 in 0..n3//2, and the planes ``k1`` (a slice of
        0..n1-1) of the first axis: an (n1, n2, n3//2 + 1, 7, 7) array for
        the default slice, ``np.ndindex`` order within it.

        The symbol at -k is the conjugate of the one at k, because the
        blocks are real, so the half zone determines the whole spectrum.
        Each axis is one phase contraction of its shifts, the third first.
        """
        n1, n2, n3 = self.grid
        ks = (np.arange(n1)[k1], np.arange(n2), np.arange(n3 // 2 + 1))
        out = self.blocks
        for axis in (2, 1, 0):
            phases = _roots(self.grid[axis], ks[axis], self.offsets[axis])
            out = np.moveaxis(np.einsum("km,m...->k...", phases,
                                        np.moveaxis(out, axis, 0)), 0, axis)
        return out

    def symmetry_residual(self) -> float:
        """max|S - S^T| / max|S|, read off the blocks folded onto their
        residues mod grid: block s of S^T is B_{-s}^T."""
        folds, partners = [], []
        for s, n in zip(self.offsets, self.grid):
            # the residues of the shifts and of their negatives, each once
            residues, rank = _residues(n, np.concatenate([s, -s]))
            folds.append(rank[s % n])
            partners.append(rank[-residues % n])
        B = np.zeros(tuple(map(len, partners)) + (7, 7))
        np.add.at(B, np.ix_(*folds), self.blocks)
        Bt = B[np.ix_(*partners)].swapaxes(-1, -2)
        denom = max(np.abs(B).max(initial=0.0), 1e-300)
        return float(np.abs(B - Bt).max(initial=0.0) / denom)


def assemble_stiffness(mesh: PeriodicMesh) -> BlockCirculant:
    """Assemble A[e', e] = [[rho_e]]_{e'} / l_{e'} from its first block row.

    Row e' < 7 collects, from each face containing e', the frame-contracted
    difference of the basis matrices on its two tets (so entries couple only
    edges sharing a tet); the ``BlockCirculant`` repeats it at every vertex.
    """
    f, s = np.nonzero(mesh.face_edges < 7)
    rows = mesh.face_edges[f, s]
    # half 0 is the tet n_ef points into (+), half 1 the other one (-)
    inv_l = (2.0 * mesh.face_side[f, s] - 1.0) / mesh.edge_length[rows]
    tets = mesh.face_tets[f, ::-1]
    # the terms of every face template k, slot s and tet template r, read
    # at face f % 12 and its tets' templates
    terms = _template_terms(mesh.face_m, mesh.face_n, mesh.tet_rho)
    vals = (inv_l[:, None, None] * np.array([1.0, -1.0])[:, None]) * \
        terms[(f % 12)[:, None], s[:, None], tets % 6]
    head = sp.coo_matrix((vals.ravel(), (np.repeat(rows, 12),
                                         mesh.tet_edges[tets].ravel())),
                         shape=(7, mesh.num_edges))
    return BlockCirculant(head.tocsr(), mesh.grid)


def assemble_mass(mesh: PeriodicMesh) -> BlockCirculant:
    """Assemble M[e, e'] = sum_T |T| rho_e|_T : rho_e'|_T exactly from its
    first block row: the tets of the edges e < 7, tet 6v + r with the local
    matrix of template r, held as a ``BlockCirculant``."""
    local = _tet_mass(mesh.tet_volume, mesh.tet_rho)
    t, a = np.nonzero(mesh.tet_edges < 7)
    head = sp.coo_matrix((local[t % 6, a].ravel(),
                          (np.repeat(mesh.tet_edges[t, a], 6),
                           mesh.tet_edges[t].ravel())),
                         shape=(7, mesh.num_edges))
    return BlockCirculant(head.tocsr(), mesh.grid)


def stencil_operators(geometry: TorusGeometry, grid):
    """A and M on the ``grid`` of ``geometry`` as two ``Stencil``s, built
    without a mesh.

    The blocks B_s, s in {-1, 0, 1}^3, depend only on the cell h_i =
    l_i / n_i: they are the one-box templates of ``_box_templates``
    (``face_m``, ``face_n``, ``tet_rho``, ``tet_volume``, the seven edge
    lengths) contracted by ``_face_terms`` and ``_tet_mass`` and scattered
    by the index tables of ``mesh._stencil_tables``.  Nothing depends
    on the grid beyond the cell, so any grid takes the same time.  A
    MeshError names ``geometry`` and ``grid``, as building their mesh would.
    """
    grid = checked_grid(grid)
    box = _box_templates(geometry, grid)
    (index, side, row, entry), tets = _stencil_tables()
    terms = _template_terms(box["face_m"], box["face_n"], box["tet_rho"])
    A = np.bincount(entry, side / box["edge_length"][row]
                    * terms.ravel()[index], 27 * 49)
    index, entry = tets
    M = np.bincount(entry, _tet_mass(box["tet_volume"],
                                     box["tet_rho"]).ravel()[index], 27 * 49)
    return tuple(Stencil(B.reshape(3, 3, 3, 7, 7), (np.arange(-1, 2),) * 3,
                         grid) for B in (A, M))


def constant_kernel_residual(mesh: PeriodicMesh, A: BlockCirculant,
                             rng: np.random.Generator) -> float:
    """max|A c| / (max|A| max|c|) for the edge values c of one constant
    metric, symmetrised from a uniform [-1, 1] 3x3 draw of ``rng``.

    Constant metrics lie in the kernel, so this is roundoff-sized.  c
    repeats per direction, so every block row of A c holds the products of
    the first one, summed in another order: the head gives A c and max|A|
    without expanding A.
    """
    g = rng.uniform(-1.0, 1.0, (3, 3))
    g = 0.5 * (g + g.T)
    c = np.einsum("ei,ij,ej->e", mesh.edge_vec, g, mesh.edge_vec)
    return float(np.abs(A.head @ c).max()
                 / (np.abs(A.head.data).max()
                    * max(np.abs(c).max(), 1e-300)))


def write_coo(matrix: BlockCirculant, path) -> None:
    """Write the E x E matrix held by ``matrix`` to ``path`` in coordinate
    text format, working from its block row: each distinct head value is
    formatted once and repeated at every vertex.

    Header line "rows cols nnz", then one "i j value" triple per line
    (0-based indices, 17 significant digits), sorted by (i, j).
    """
    indptr, cols, src = _block_circulant(matrix.head, matrix.grid)
    E = matrix.shape[0]
    index = np.array([f"{i} " for i in range(E)], dtype=object)
    value = np.array(["%.17g\n" % v for v in matrix.head.data.tolist()],
                     dtype=object)
    # the three pieces of every line side by side, joined in one pass
    pieces = np.stack([np.repeat(index, np.diff(indptr)), index[cols],
                       value[src]], axis=1)
    text = f"{E} {E} {matrix.nnz}\n" + "".join(pieces.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(text)


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
