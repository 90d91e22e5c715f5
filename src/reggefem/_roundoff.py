"""The one roundoff model behind every tolerance of a linear check.

The complex and the linearized action rest on exact identities: def ->
jump -> div = 0, A symmetric, J = 1/2 diag(l) A, and the point group of
the Kuhn complex maps each operator onto itself.  A check of one of them
reads how far rounding leaves a computed value from the identity, so
each tolerance is a roundoff bound, and every one comes from here.  No
option, environment variable or config key sets them.

u = eps / 2 is the unit roundoff, and gamma_n = n u / (1 - n u) bounds
what n roundings leave: a product of n factors (1 + delta_i)^(+-1),
|delta_i| <= u, is 1 + theta with |theta| <= gamma_n, and gamma_a +
gamma_b <= gamma_(a+b) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 3, Lemmas 3.1 and 3.3).  So recursive
summation of n terms is within gamma_(n-1) sum |x_i| of the exact sum,
and a dot product of length n within gamma_n sum |x_i y_i| (eq. 3.4).

A check compares a value with the scale of its operator, max|B| or
max|B| max|c|, because the sum of |terms| of each value is not at hand.
The model counts n, the roundings on the path of a value, each of at
most u times that scale:

* A sum of n terms, each formed with at most ``TERM_ROUNDINGS`` = 4
  roundings of its own, has n - 1 + 4 (``sum_rtol``).  An entry of A or
  of J sums at most ``FACE_TERMS`` = 12 face or sector terms, one of M
  ``TET_TERMS`` = 6 tet terms, an entry of D^T A the seven directions'
  products d (B_head - B_tail), and a row of a 27-block matvec B c
  ``ROW_COUPLINGS`` = 19 products B_ab c_b.  Two routes to one entry, as
  A_s[a, b] and A_-s[b, a], an operator and its image under the point
  group, or J and 1/2 l A, form it from the cell's template values, and
  the model takes them to differ by the count of one route.  A value
  held against an exact zero, as a row of A c for a metric in the
  kernel or an entry of D^T A, counts its own sum, the operator's
  entries taken as they are stored.
* A row of B c held against a route that forms B's entries another way,
  as J c against 1/2 l (A c) or against J's meshed star pass, adds the
  count of an entry to that of the row: 22 + 15 = 37 (``matvec_rtol``).
* A U-unit vector of a 3 x 3 metric U that two routes form, as k- of a
  face, U^-1 n_0 / (n_0^T U^-1 n_0)^(1/2), against the last vector of
  Gram-Schmidt of the face's frame (t, m_0, n_0) in U, is held against
  its largest component.  A component sums ``FRAME_TERMS`` = 3 terms, a
  row of U^-1 against n_0 or n_0 less its projections on the first two
  vectors, each within the model's roundings of its own, the
  normalization's included: 3 - 1 + 4 = 6 (``sum_rtol(FRAME_TERMS)``).
* A tet kernel polarizes its Gram matrix from six squared lengths, each
  entry a sum of three of them, and the cancellation down to the tet's
  shortest squared length multiplies the sum's error by kappa, the ratio
  of its longest to its shortest one: kappa gamma_6 per angle
  (``kernel_rtol``).

This is a model, not Higham's worst case, which would read sum |terms|,
up to n times the scale, and add the counts of two routes.  gamma_n
times the scale is at most the count of ulps (eps = 2u each) once
written by hand for the same value: terms + 4 for an entry under the
point group, 8 for an axis permutation of the pencil, 19 for a row of J
c against the star pass, 8 kappa per angle gap, 4 for the Gram-Schmidt
frame.  So no bound is looser than the one it replaces, and the values
measured on the tested tori lie 1.3 to 6 times below their bounds
(README, Tolerances).
"""

from __future__ import annotations

import numpy as np

UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2

TERM_ROUNDINGS = 4
FACE_TERMS = 12
TET_TERMS = 6
ROW_COUPLINGS = 19
FRAME_TERMS = 3


def gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), for 0 <= n u < 1."""
    if not (0 <= n * UNIT_ROUNDOFF < 1 and n == int(n)):
        raise ValueError(f"n: need a count with 0 <= n u < 1, got {n}")
    return n * UNIT_ROUNDOFF / (1 - n * UNIT_ROUNDOFF)


def _count(terms: int) -> int:
    """Roundings of a sum of ``terms`` values formed with
    ``TERM_ROUNDINGS`` each: its terms - 1 additions and theirs."""
    return terms - 1 + TERM_ROUNDINGS


def sum_rtol(terms: int) -> float:
    """A sum of ``terms`` values, relative to its operator's scale."""
    return gamma(_count(terms))


def matvec_rtol() -> float:
    """A row of B c against another route to it, relative to max|B|
    max|c|."""
    return gamma(_count(ROW_COUPLINGS) + _count(FACE_TERMS))


def kernel_rtol(squared_lengths, angles: int = 1) -> float:
    """``angles`` angles that a tet kernel forms from the squared lengths
    (..., 6) of its tets, each to kappa gamma_6 of its size, kappa the
    largest ratio of a tet's longest to its shortest squared length."""
    s = np.asarray(squared_lengths, float)
    kappa = float((s.max(axis=-1) / s.min(axis=-1)).max())
    return angles * kappa * gamma(_count(3))
