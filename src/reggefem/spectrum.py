"""Generalized eigenproblem A x = lambda M x and the exact torus spectrum.

The discrete problem approximates the eigenpairs of the edge-jump operator
on the flat torus.  On (R/l1 Z) x (R/l2 Z) x (R/l3 Z) the exact nonzero
spectrum consists, for each unordered pair {k, -k} of nonzero lattice
frequencies, of the eigenvalue -|k|^2 with real multiplicity 4 and +|k|^2
with real multiplicity 2 (plus an infinite-dimensional kernel).  The
discrete kernel always contains the deformation range and the constant
metrics; nonzero discrete eigenvalues converge to the exact +-|k|^2 values
from below in magnitude, in sexets/dozens matching the multiplicities.

The pencil is solved per Bloch frequency.  Edge ids are ``7*vertex +
direction`` on a periodic lattice, so A and M are block-circulant with 7x7
blocks B_s, nonzero only for s in {-1, 0, 1}^3, and their symbols are
A^(k) = sum_s B_s exp(-2 pi i k.s / n), at each frequency k the products of
three per-axis phases contracted with the 27 blocks
(``BlockCirculant.symbols``).  The E eigenvalues of the pencil are the
union of those of the V = n1*n2*n3 Hermitian pencils A^(k) x = lambda
M^(k) x.
Frequencies in one orbit of the pencil's symmetry group G give blocks with
the same eigenvalues, so one block per orbit is solved and its eigenvalues
count once per member.  G holds k -> -k, since the blocks are real and the
symbol at -k is the conjugate of the one at k; and k -> p.k for each axis
permutation p of the Kuhn subdivision that fixes the grid counts and maps
the blocks of A and of M onto themselves, B_{p.s}[p.a, p.b] = B_s[a, b],
for then the symbol at p.k is the one at k with rows and columns
permuted.  A permutation qualifies only on a cell with equal sides along
the axes it moves: on the cube G has 12 elements and an orbit up to 48
frequencies, on a cell with no equal axes G is {+-1}.  Each orbit is
solved at its first member in the half zone k3 in 0..n3//2.  No E x E
matrix is formed.  The kernel is 6-dimensional at k = 0 and
3-dimensional at every other k, so 3V + 3 in total.  Time is O(E), and
O(E log E) for the final sort.  The half zone is taken in slabs of whole
k1 planes, about ``_SLAB_BLOCKS`` blocks (one plane at least), and
symbols are formed at the solved frequencies alone, so the working memory
is bounded by the slab and only the E eigenvalues grow with the grid.

The blocks have one builder.  ``convergence_study`` (so ``converge``) and
the CLI ``eigs`` take them from ``saint_venant.stencil_operators``, which
scatters the one-box shape templates of the cell into them, builds no
mesh at all and keeps them per geometry and grid; ``assemble_stiffness``
and ``assemble_mass`` of a mesh give the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._roundoff import FACE_TERMS, TET_TERMS, sum_rtol
from .mesh import TorusGeometry
from .saint_venant import _axis_permutations, stencil_operators
from .spaces import skew

__all__ = [
    "FourierSpectrum",
    "fourier_oracle",
    "default_cutoff",
    "mode_symbol",
    "sigma_modes",
    "SpectrumResult",
    "solve_pencil",
    "ClusterAssignment",
    "assign_clusters",
    "convergence_study",
    "KERNEL_THRESHOLD_FACTOR",
]

# kernel = eigenvalues below this fraction of max |lambda|.  Measured per
# Bloch block on 2x2x2, 2x3x2, 4x5x6 and 12x10x8 (sides 2pi, 2.5pi, 3pi), a
# block's largest kernel |lambda| is at most 1.2e-14 of its smallest
# nonzero |lambda| (worst at 12x10x8; 2.1e-13 at 32^3), and this threshold
# splits every block into 6 kernel eigenvalues at k = 0 and 3 elsewhere
KERNEL_THRESHOLD_FACTOR = 1e-8

# an axis permutation is a symmetry of the pencil when it maps every
# structural coupling of A and of M onto one of the same value to within
# the roundoff of a sum of its face or tet terms, of max|B|.  Measured
# defects of the blocks of ``stencil_operators`` under the permutations
# that hold: at most 2.0e-16 on the 2 pi cube, the unit cube, 2x3x2 of
# sides (2 pi, 2.5 pi, 2 pi) and (0.7, 1.3, 0.7) (axes 1 and 3), and
# 2.6e-16 on (1, 1, 1 + 1e-7) (axes 1 and 2).  There the four permutations
# that move axis 3 keep A within 6.6e-16 but M only within 2.4e-7, so
# both operators are checked
_SYMMETRY_RTOL = np.array([[sum_rtol(FACE_TERMS)], [sum_rtol(TET_TERMS)]])

# half-zone Bloch blocks per slab of the solve: a slab holds the images of
# its frequencies under the group, at most 12 x 3 integers per block
# (``_orbits``), and at its orbits' first members the symbols of A and M
# and about eight complex (solved, 7, 7) arrays at once, 784 bytes per
# solved block each.  On a cell with no equal axes nearly every block is
# solved, so at most some 30 MB (28 MB under tracemalloc on 16x17x30);
# grids up to 16^3 (2304 half-zone blocks) take one slab
_SLAB_BLOCKS = 4096

# frequencies ``fourier_oracle`` enumerates at most.  It sums |k|^2 one
# plane at a time but keeps, sorts and merges the values of the half ball
# inside the cutoff, about a quarter of the box, 8 bytes each.  A box of
# 2^24 (the 2 pi cube at cutoff 1.6e4) takes about 0.7 s and a 110 MB
# peak under tracemalloc on one core; the box at cutoff 1e308 would never
# finish
_MAX_FREQUENCY_BOX = 2 ** 24


def mode_symbol(k) -> np.ndarray:
    """Action of the operator on the mode a*exp(i k.x): a -> sym(k) applied.

    Returns the linear map S on symmetric matrices as a (3,3,3,3)-free
    closed form: symbol(a) = -skew(k) a skew(k), the sign matching the
    into-side jump orientation of the assembly.
    """
    S = skew(k)

    def apply(a):
        return -S @ np.asarray(a, float) @ S

    return apply


def sigma_modes(k):
    """Eigenbasis of the mode symbol orthogonal to the kernel at frequency k.

    Returns [(matrix, eigenvalue)]: one mode with eigenvalue +|k|^2 and two
    with -|k|^2 (each contributes twice to the real multiplicity through
    the cos/sin pair of the +-k frequencies).
    """
    k = np.asarray(k, float)
    kn = np.linalg.norm(k)
    if kn == 0:
        raise ValueError("frequency must be nonzero")
    # orthonormal (k/|k|, t1, t2), right-handed
    t1 = np.array([1.0, 0.0, 0.0])
    if abs(k[0]) / kn > 0.9:
        t1 = np.array([0.0, 1.0, 0.0])
    t1 = t1 - (t1 @ k) / kn**2 * k
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(k / kn, t1)
    trace_mode = np.outer(t1, t1) + np.outer(t2, t2)
    shear_a = np.outer(t1, t2) + np.outer(t2, t1)
    shear_b = np.outer(t1, t1) - np.outer(t2, t2)
    lam = kn * kn
    return [(trace_mode, +lam), (shear_a, -lam), (shear_b, -lam)]


@dataclass(frozen=True)
class FourierSpectrum:
    """Exact nonzero eigenvalues with real multiplicities, up to a cutoff.

    ``entries`` is sorted ascending by eigenvalue.  The operator also has an
    infinite-dimensional kernel, which no entry lists.
    """

    geometry: TorusGeometry
    cutoff: float
    entries: tuple  # ((eigenvalue, multiplicity), ...)

    def targets_by_magnitude(self, n: int):
        """The n entries of smallest magnitude (for cluster matching)."""
        order = sorted(self.entries, key=lambda t: (abs(t[0]), t[0]))
        return order[:n]


def fourier_oracle(geometry: TorusGeometry, cutoff: float) -> FourierSpectrum:
    """Enumerate the exact spectrum: +-|k|^2 per frequency pair {k, -k}.

    Each pair contributes -|k|^2 with real multiplicity 4 and +|k|^2 with
    real multiplicity 2, consistent with the mode decomposition of
    :func:`sigma_modes` doubled by the cos/sin pairing of +-k.

    The box |m_i| <= n_i = floor(sqrt(cutoff) / (2 pi / l_i)) of integer
    frequencies m is enumerated one plane of m_1 at a time, with
    |k|^2 = ((m_1 b_1)^2 + (m_2 b_2)^2) + (m_3 b_3)^2, b_i = 2 pi / l_i;
    values within 1e-9 relative of the first of a run are merged
    (``_merge_heads``).
    ValueError for a box of more than ``_MAX_FREQUENCY_BOX`` frequencies.
    """
    if not (np.isfinite(cutoff) and cutoff > 0):
        raise ValueError("cutoff must be positive and finite")
    base = 2.0 * np.pi / geometry.lengths
    with np.errstate(over="ignore"):  # an infinite box is refused
        extent = np.floor(np.sqrt(cutoff) / base)
        box = np.prod(2.0 * extent + 1.0)
    if not box <= _MAX_FREQUENCY_BOX:
        raise ValueError(f"cutoff {cutoff:g} needs more than "
                         f"{_MAX_FREQUENCY_BOX} frequencies to enumerate")
    n1, n2, n3 = (int(n) for n in extent)
    # (m b_i)^2 as the float64 scalar power, which rounds unlike m b_i
    # times itself, for m = -n_i..n_i
    sq = [np.array([(m * b) ** 2 for m in range(-n, n + 1)])
          for n, b in zip((n1, n2, n3), base)]
    kept = []
    for a in range(n1 + 1):
        k2 = (sq[0][n1 + a] + sq[1][:, None]) + sq[2]
        keep = k2 <= cutoff
        if a == 0:  # one of each pair {k, -k}: m_2 > 0, or m_2 = 0 < m_3
            keep[:n2] = False
            keep[n2, :n3 + 1] = False
        kept.append(k2[keep])
    k2, count = np.unique(np.concatenate(kept), return_counts=True)
    # ascending: -|k|^2 with multiplicity 4 per pair, then +|k|^2 with 2
    lam = np.concatenate([-k2[::-1], k2])
    heads = _merge_heads(lam)
    mult = np.add.reduceat(np.concatenate([4 * count[::-1], 2 * count]),
                           heads)
    entries = tuple(zip(lam[heads].tolist(), mult.tolist()))
    return FourierSpectrum(geometry, float(cutoff), entries)


def _merge_heads(lam: np.ndarray) -> np.ndarray:
    """The positions of the values of ascending ``lam`` that start a run:
    each value joins the run of the last start s when |lam - s| <= 1e-9 *
    max(1, |lam|), in order, as a loop over the values would decide.

    A value that is not that close to the value before it starts a run,
    since the start lies no higher; only the stretches between those are
    looped over, and only where one of their values is not that close to
    the stretch's first.
    """
    tol = 1e-9 * np.maximum(1.0, np.abs(lam))
    start = np.abs(np.diff(lam, prepend=-np.inf)) > tol
    first = np.flatnonzero(start)
    stretch = np.cumsum(start) - 1
    end = np.append(first[1:], len(lam))
    for k in np.unique(stretch[np.abs(lam - lam[first][stretch]) > tol]):
        head = lam[first[k]]
        for j in range(first[k] + 1, end[k]):
            if abs(lam[j] - head) > tol[j]:
                start[j], head = True, lam[j]
    return np.flatnonzero(start)


def default_cutoff(geometry: TorusGeometry, n_targets: int) -> float:
    """Oracle cutoff used when matching n targets and none is given:
    (min_i 2 pi / l_i)^2 * (n + 2)."""
    return float(np.min(2.0 * np.pi / geometry.lengths) ** 2) \
        * (n_targets + 2.0)


@dataclass
class SpectrumResult:
    """Full real spectrum of the pencil with kernel identification.

    ``asymmetry`` is max|A - A^T| / max|A| of the stiffness matrix before
    the solver Hermitised its symbols.
    """

    eigenvalues: np.ndarray
    kernel_dim: int
    threshold: float
    max_residual: float
    asymmetry: float
    metadata: dict = field(default_factory=dict)

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[np.abs(self.eigenvalues) >= self.threshold]

    @property
    def kernel_max_abs(self) -> float:
        """Largest |lambda| counted as kernel (0 if the kernel is empty)."""
        w = np.abs(self.eigenvalues)
        return float(np.max(w[w < self.threshold], initial=0.0))

    @property
    def nonzero_min_abs(self) -> float:
        """Smallest |lambda| counted as nonzero."""
        return float(np.abs(self.nonzero).min())

    def to_dict(self) -> dict:
        return {
            "kernel_dim": int(self.kernel_dim),
            "threshold": float(self.threshold),
            "max_residual": float(self.max_residual),
            "asymmetry": float(self.asymmetry),
            "kernel_max_abs": self.kernel_max_abs,
            "nonzero_min_abs": self.nonzero_min_abs,
            "num_eigenvalues": int(self.eigenvalues.size),
            "metadata": self.metadata,
        }


def _adjoint(X: np.ndarray) -> np.ndarray:
    return X.conj().swapaxes(-1, -2)


def _solve_blocks(Ak: np.ndarray, Mk: np.ndarray):
    """Eigenvalues (..., 7) of the pencils Ak^ x = lambda Mk^ x, Ak^ the
    Hermitian part of Ak, and the largest residual of their eigenpairs."""
    Ak = 0.5 * (Ak + _adjoint(Ak))
    try:
        L = np.linalg.cholesky(Mk)
    except np.linalg.LinAlgError as ex:
        raise np.linalg.LinAlgError(
            "mass matrix not SPD (an assembly bug, or cells too anisotropic "
            "for double precision)") from ex
    # L^-1 A^ L^-H, then x^ = L^-H y.  np.linalg.solve batches in C; scipy's
    # solve_triangular batches only from 1.15 on, and was 6x slower at V=4096
    Y = np.linalg.solve(L, Ak)
    w, y = np.linalg.eigh(_adjoint(np.linalg.solve(L, _adjoint(Y))))
    x = np.linalg.solve(_adjoint(L), y)
    resid = Ak @ x - (Mk @ x) * w[..., None, :]
    return w, float(np.linalg.norm(resid, axis=-2).max())


def _symmetries(A, M) -> np.ndarray:
    """The axis permutations p, (g, 3), under which the pencil is
    invariant: p fixes the grid counts, and B_{p.s}[p.a, p.b] = B_s[a, b]
    holds on every structural coupling of A and of M to within
    ``_SYMMETRY_RTOL`` of the operator's max|B|; closed under composition,
    so a group, the identity first."""
    perms, images = _axis_permutations()
    # the identity's images are the couplings, which hold every nonzero
    B = np.stack([A.blocks.ravel(), M.blocks.ravel()]).take(images, axis=1)
    defect = np.abs(B - B[:, :1]).max(axis=-1)
    scale = np.abs(B[:, :1]).max(axis=-1)
    grid = np.array(A.grid)
    held = (defect <= _SYMMETRY_RTOL * scale).all(axis=0) \
        & (grid[perms] == grid).all(axis=1)
    group = set(map(tuple, perms[held].tolist()))
    while len(group) < len(perms):  # all six are closed
        # p.(q.x) = x[q][p]
        closed = {tuple(q[i] for i in p) for p in group for q in group}
        if closed <= group:
            break
        group |= closed
    return np.array(sorted(group))


def _orbits(grid, perms: np.ndarray, k1=slice(None)):
    """The Bloch frequencies of the planes ``k1`` of the half zone that
    ``solve_pencil`` solves, and what each stands for, under the group G
    of the maps k -> +-p.k, p in ``perms`` (a group): each orbit's first
    member in the half zone that lies in those planes, (r, 3) in the
    ``np.ndindex`` order of the half zone, and the orbit's size in the
    whole zone, |G| / |stabiliser of k|.

    Every orbit meets the half zone, whose order is that of the whole
    zone's flat index, so k is its orbit's first member when no image of
    k in the half zone has a smaller flat index.  All of G at once: the
    planes' (|G|, 3, blocks) images, with nothing of the whole zone's size.
    """
    n1, n2, n3 = grid
    h3 = n3 // 2 + 1
    planes = range(n1)[k1]
    k = np.array(np.unravel_index(np.arange(planes.start * n2 * h3,
                                            planes.stop * n2 * h3),
                                  (n1, n2, h3)))
    x = np.concatenate([k[perms], (-k % np.array(grid)[:, None])[perms]])
    strides = np.array([n2 * n3, n3, 1])
    index, own = strides @ x, strides @ k
    first = np.where(x[:, 2] < h3, index, n1 * n2 * n3).min(axis=0)
    reps = np.flatnonzero(first == own)
    return k[:, reps].T, len(x) // (index[:, reps] == own[reps]).sum(axis=0)


def solve_pencil(A, M, metadata: dict | None = None) -> SpectrumResult:
    """Full spectrum of A x = lambda M x, one 7x7 Hermitian pencil per
    orbit of the Bloch frequencies under the pencil's symmetries.

    A and M are ``BlockCirculant``s on the same lattice, else ValueError.
    Their symbols come from their blocks, so no E x E matrix is built.
    The blocks at k and -k are conjugate, and on a cell with equal axes
    the blocks at k and p.k are similar under an axis permutation p
    (``_symmetries``), so all blocks of an orbit of the group G these
    generate have the same eigenvalues.  One block per orbit is solved,
    its first member in the half zone k3 in 0..n3//2, and its eigenvalues
    count once per frequency of the orbit (``_orbits``); G is {+-1} on a
    cell with no equal axes.  The half zone is taken in slabs of whole k1
    planes, about ``_SLAB_BLOCKS`` blocks at a time; the symbols of A and
    M are formed at the orbits' first members in a slab alone, and a slab
    with none is skipped.  In each, the symbols of A are Hermitised, those
    of M Cholesky-factored (LinAlgError if M is not SPD), and each pencil
    is reduced by solves against the Cholesky factor and passed to
    ``eigh``.
    The eigenvalues are the ascending union over the solved blocks with
    their weights, E in all.  ``max_residual`` is
    max ||A^ x^ - lambda M^ x^||_2 over every solved block eigenpair with
    ||x^||_M^ = 1; because the normalised DFT is unitary this equals the
    residual ||A x - lambda M x||_2 of the lifted complex eigenvector x
    with ||x||_M = 1.  The solve is deterministic.
    """
    if A.grid != M.grid:
        raise ValueError(f"stiffness grid {A.grid} and mass grid {M.grid} "
                         "differ")
    n1, n2, n3 = A.grid
    perms = _symmetries(A, M)
    planes = max(1, _SLAB_BLOCKS // (n2 * (n3 // 2 + 1)))
    # the E eigenvalues are written in place and sorted there, so that no
    # second or third array of E values is held
    w = np.empty(A.shape[0])
    filled, max_residual = 0, 0.0
    for start in range(0, n1, planes):
        k, weight = _orbits(A.grid, perms, slice(start, start + planes))
        if not len(k):
            continue
        values, residual = _solve_blocks(A.symbols(k), M.symbols(k))
        max_residual = max(max_residual, residual)
        values = np.repeat(values, weight, axis=0).ravel()
        w[filled:filled + values.size] = values
        filled += values.size
    w.sort()
    tau = KERNEL_THRESHOLD_FACTOR * np.abs(w).max()
    kernel_dim = int(np.sum(np.abs(w) < tau))
    return SpectrumResult(w, kernel_dim, float(tau), max_residual,
                          A.symmetry_residual(), dict(metadata or {}))


@dataclass
class ClusterAssignment:
    """Discrete eigenvalue cluster assigned to one oracle target.

    ``indices`` are the positions of ``eigenvalues`` in the spectrum
    (``SpectrumResult.eigenvalues``) they were taken from.
    """

    target: float
    multiplicity: int
    eigenvalues: np.ndarray
    window: float
    count_in_window: int
    indices: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.eigenvalues.mean()) if self.eigenvalues.size else \
            float("nan")

    @property
    def rel_error(self) -> float:
        return abs(self.mean - self.target) / abs(self.target)

    @property
    def matched(self) -> bool:
        return self.count_in_window == self.multiplicity

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "multiplicity": self.multiplicity,
            "eigenvalues": self.eigenvalues.tolist(),
            "mean": self.mean,
            "rel_error": self.rel_error,
            "window": self.window,
            "count_in_window": self.count_in_window,
            "matched": self.matched,
        }


def assign_clusters(result: SpectrumResult, oracle: FourierSpectrum,
                    n_targets: int = 2) -> list:
    """Assign discrete eigenvalues to the n smallest-magnitude oracle targets.

    The physical clusters approach the targets from below in magnitude, so
    each target of eigenvalue sign s consumes the next ``multiplicity``
    unassigned nonzero eigenvalues of sign s in order of |lambda|.  The
    window (half the gap to the nearest distinct oracle value) is a
    diagnostic: ``matched`` records whether the count of eigenvalues inside
    it equals the oracle multiplicity.  Raises ValueError when the oracle
    has fewer than ``n_targets`` entries below its cutoff.
    """
    targets = oracle.targets_by_magnitude(n_targets)
    if len(targets) < n_targets:
        raise ValueError(
            f"the oracle has {len(targets)} targets below its cutoff "
            f"{oracle.cutoff}, fewer than the {n_targets} requested")
    values = sorted(v for v, _ in oracle.entries)
    w = result.eigenvalues
    nonzero = np.flatnonzero(np.abs(w) >= result.threshold)
    nz = w[nonzero]
    pos, neg = nonzero[nz > 0], nonzero[nz < 0]
    # positions by increasing |lambda|; stable, so ties keep spectrum order
    pools = {
        +1: pos[np.argsort(w[pos], kind="stable")],
        -1: neg[np.argsort(np.abs(w[neg]), kind="stable")],
    }
    used = {+1: 0, -1: 0}
    clusters = []
    for target, mult in targets:
        s = 1 if target > 0 else -1
        take = pools[s][used[s]:used[s] + mult]
        if len(take) < mult:
            raise ValueError(
                f"not enough nonzero eigenvalues of sign {s:+d} to match "
                f"the oracle target {target} (need {mult}, have {len(take)})")
        used[s] += mult
        gaps = [abs(target - v) for v in values if abs(target - v) > 1e-12]
        window = 0.5 * min(gaps) if gaps else abs(target)
        inside = int(np.sum(np.abs(nz - target) <= window))
        clusters.append(ClusterAssignment(target, mult, w[take], window,
                                          inside, take))
    return clusters


def convergence_study(geometry: TorusGeometry, grids,
                      n_eigs: int = 2) -> dict:
    """Cluster errors against the oracle over a sequence of grids.

    Returns a dict with one row per (grid, target): cluster mean, relative
    error and the window-match diagnostic, plus a per-target flag whether
    the error decreases strictly monotonically over the grids.  Cluster
    mismatches (window count != multiplicity) are reported in the rows, not
    silently ignored.  ``grids`` are the sizes n of n x n x n grids.  The
    oracle is cut at ``default_cutoff(geometry, n_eigs)``.
    """
    grids = [(int(n),) * 3 for n in grids]
    if not grids:
        raise ValueError("empty grid list")
    sizes = [np.prod(g) for g in grids]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("grids must be strictly increasing")
    oracle = fourier_oracle(geometry, default_cutoff(geometry, n_eigs))
    rows = []
    errors: dict = {}
    for grid in grids:
        res = solve_pencil(*stencil_operators(geometry, grid),
                           {"grid": list(grid)})
        for cl in assign_clusters(res, oracle, n_eigs):
            rows.append({
                "grid": list(grid),
                "target": cl.target,
                "multiplicity": cl.multiplicity,
                "cluster_mean": cl.mean,
                "rel_error": cl.rel_error,
                "matched": cl.matched,
            })
            errors.setdefault(cl.target, []).append(cl.rel_error)
    monotone = {}
    if len(grids) >= 2:
        for target, errs in errors.items():
            monotone[target] = all(b < a for a, b in zip(errs, errs[1:]))
    return {"rows": rows, "monotone": monotone,
            "targets": [t for t, _ in oracle.targets_by_magnitude(n_eigs)]}
