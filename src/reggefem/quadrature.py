"""Fixed-order Gauss rules on the unit interval and reference tetrahedron.

The rules are cached per order and shared by every caller, so their arrays
are read-only.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def segment_rule(npts: int):
    """Gauss-Legendre nodes/weights on [0, 1]; exact to degree 2*npts - 1."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return _read_only(0.5 * (x + 1.0), 0.5 * w)


@lru_cache(maxsize=None)
def tet_rule(npts: int):
    """Conical-product Gauss-Jacobi rule on the reference tetrahedron.

    Reference simplex {x, y, z >= 0, x + y + z <= 1}; npts points per
    direction, exact on polynomials of total degree 2*npts - 1.  Weights
    sum to 1/6 (reference volume).
    """
    # imported here: scipy.special is slow to load, and only the
    # interpolators need this rule
    from scipy.special import roots_jacobi

    x2, w2 = roots_jacobi(npts, 2.0, 0.0)
    x1, w1 = roots_jacobi(npts, 1.0, 0.0)
    x0, w0 = roots_jacobi(npts, 0.0, 0.0)
    # map to [0, 1]; Jacobi weight (1-t)^a on [-1,1] carries a factor 2^(a+1)
    t2, u2 = 0.5 * (x2 + 1.0), w2 / 8.0
    t1, u1 = 0.5 * (x1 + 1.0), w1 / 4.0
    t0, u0 = 0.5 * (x0 + 1.0), w0 / 2.0
    a, b, c = np.meshgrid(t2, t1, t0, indexing="ij")
    wa, wb, wc = np.meshgrid(u2, u1, u0, indexing="ij")
    x = a
    y = b * (1.0 - a)
    z = c * (1.0 - a) * (1.0 - b)
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=-1)
    w = (wa * wb * wc).ravel()
    return _read_only(pts, w)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def tet_points_weights(tet_coords: np.ndarray, npts: int):
    """Map the reference rule onto a batch of tets.

    tet_coords: (T, 4, 3) vertex coordinates of T tets, such as the (6, 4,
    3) points of the six Kuhn tets of the unit box.
    Returns points (T, Q, 3), a transposed view of a (T, 3, Q) array, and
    weights (T, Q) absorbing |det B| so that sum_q w[t, q] equals the
    volume of tet t.  Point q of tet t is p0 + B ref[q], so its barycentric
    coordinates are (1 - sum(ref[q]), ref[q]) with ref = tet_rule(npts)[0].
    """
    ref, w = tet_rule(npts)
    p0 = tet_coords[:, 0]
    B = np.stack([tet_coords[:, i] - p0 for i in (1, 2, 3)], -1)  # (T,3,3)
    # (T, 3, Q) layout: the translation by p0 runs along the long point axis
    pts = np.matmul(B, ref.T)
    pts += p0[:, :, None]
    jac = np.abs(np.linalg.det(B))
    return pts.swapaxes(1, 2), jac[:, None] * w[None, :]
