"""Dense complex linear-algebra helpers.

Matrices are plain numpy complex128 arrays.  No library module uses this one.
The benchmark traces `solve_linear`, `eigenvalues` and `kron` by name, so these
three stay until its metric refresh (ROADMAP item 1).  `as_cmatrix` and
KRON_CAP belong to `kernels`, the RK4 oracle, whose import loads no scipy.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionOverflow, NoConvergence, ShapeMismatch, SingularMatrix
from .kernels import KRON_CAP, as_cmatrix

#: pivot magnitudes below PIVOT_RTOL * ||a||_inf are treated as singular
PIVOT_RTOL = 1e-14


def norm_inf(a):
    """Largest entry magnitude max |a_ij| (0.0 for an empty array).

    This is not the induced infinity norm (largest absolute row sum) that the
    backward-error test of `steadystate.cool_many` uses.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def solve_linear(a, b):
    """Solve a @ x = b for square a.

    Raises SingularMatrix when an LU pivot magnitude falls below
    PIVOT_RTOL * ||a||_inf.
    """
    a = as_cmatrix(a)
    b = np.asarray(b, dtype=np.complex128)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("coefficient matrix must be square")
    if b.shape[0] != n:
        raise ShapeMismatch("rhs rows %d != matrix dim %d" % (b.shape[0], n))
    # LAPACK directly: scipy's lu_factor warns on an exactly zero pivot, which
    # the threshold below turns into SingularMatrix anyway
    lu, piv, _ = lapack.zgetrf(a)
    scale = norm_inf(a)
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() <= PIVOT_RTOL * scale:
        raise SingularMatrix("pivot below %g * ||a||_inf" % PIVOT_RTOL)
    return lapack.zgetrs(lu, piv, b)[0]


def eigenvalues(a):
    """Eigenvalues of a square complex matrix (QR iteration via LAPACK)."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch("matrix must be square")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigenvalue iteration failed: %s" % exc)


def kron(a, b, cap=KRON_CAP):
    """Kronecker product with a dimension cap on the result."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > cap:
        raise DimensionOverflow("kron result %dx%d exceeds cap %d" % (rows, cols, cap))
    return np.kron(a, b)
