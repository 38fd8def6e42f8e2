"""Time-domain oracle for the steady-state covariance.

Fixed-step RK4 for the differential Lyapunov equation dX/dt = A X + X A^T + Q
with symmetric Q and X(0), as in every covariance flow.  The flow commutes
with transposition, so X stays symmetric and runs on its n(n+1)/2
lower-triangle coordinates (half-vectorization; Magnus & Neudecker, SIAM J.
Algebraic Discrete Methods 1, 1980).  A Q or X(0) that is not symmetric is
refused, since its upper triangle would never be read.

On the coordinates y the flow is y' = G y + q, with G built from dt A by
cached index arrays.  One RK4 step is the affine map y <- P y + r with

    P = sum_{m<=4} (hG)^m / m!,    r = h sum_{m<=3} (hG)^m / (m+1)! q,

which is the one augmented matrix M = [[P, r], [0, 1]] acting on [y; 1]
(Van Loan, IEEE TAC 23, 1978).  n steps are M^n, computed by binary powering
in ceil(log2 n) squarings of M, one matmul each, instead of n steps (Higham,
Functions of Matrices, 2008, ch. 10).  The iterates equal step-by-step RK4 up
to roundoff.  A squaring costs (n(n+1)/2)^3, about n^6/8, so this is an
oracle for small drifts only: the cap still counts the full lift, n^2 <=
KRON_CAP.  It does no linear solve and imports no scipy, so it stays
independent of the steady-state solver.
"""

import functools

import numpy as np

from .errors import BlowUp, DimensionOverflow, ShapeMismatch

#: hard cap on the dimension of Kronecker-lifted systems
KRON_CAP = 4096

_BLOWUP_LIMIT = 1e12


def as_cmatrix(a):
    """Validate and convert to a finite complex128 2-D array."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeMismatch("expected a 2-D array, got ndim=%d" % a.ndim)
    if not np.all(np.isfinite(a)):
        raise ShapeMismatch("matrix contains non-finite entries")
    return a


def _check(m):
    # entries <= 1e12 keep the next product of two step maps far from overflow
    if not np.abs(m).max() <= _BLOWUP_LIMIT:
        raise BlowUp("integration diverged (entry magnitude above %g)" % _BLOWUP_LIMIT)
    return m


@functools.lru_cache(maxsize=None)
def _half(n):
    """Index arrays for the lower-triangle coordinates of symmetric n x n matrices.

    Returns (rows, cols, pos, gen): the coordinates are y = X[rows, cols], and
    X = y[pos].  gen lists two (target, source) pairs: the augmented
    generator, flattened, gets (dt A).flat[source] at target.  For coordinate
    r = (i, j) the terms are (A Y)_ij = sum_k A_ik Y_kj and
    (Y A^T)_ij = sum_k Y_ik A_jk.  Within one pair no target repeats, so each
    is one fancy-index update.  The cap keeps n <= 64, so the cache holds at
    most 64 small entries.
    """
    rows, cols = np.tril_indices(n)
    m = rows.size
    pos = np.zeros((n, n), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(m)
    k = np.arange(n)
    r = np.arange(m)[:, None] * (m + 1)
    gen = [((r + pos[k, cols[:, None]]).ravel(), (rows[:, None] * n + k).ravel()),
           ((r + pos[rows[:, None], k]).ravel(), (cols[:, None] * n + k).ravel())]
    return rows, cols, pos, gen


def _step_map(ha, hq, gen):
    """Augmented RK4 step map [[P, r], [0, 1]] on the lower-triangle coordinates."""
    m = hq.size
    hg = np.zeros((m + 1) * (m + 1), dtype=np.complex128)
    (t1, s1), (t2, s2) = gen
    hg[t1] = ha[s1]
    hg[t2] += ha[s2]
    hg = hg.reshape(m + 1, m + 1)
    hg[:m, m] = hq
    _check(hg)
    # Horner on the augmented generator: T4(hG) = I + hG (I + hG/2 (I + hG/3 (I + hG/4)))
    eye = np.eye(m + 1)
    s = eye + hg / 4.0
    s = eye + hg @ s / 3.0
    s = eye + hg @ s / 2.0
    return _check(eye + hg @ s)


def _power(step, y, n_steps):
    """Apply y <- step @ y n_steps times, squaring step at each bit."""
    # powers of one map commute, so the bits of n_steps can be taken lowest first
    while True:
        if n_steps & 1:
            y = _check(step @ y)
        n_steps >>= 1
        if not n_steps:
            return y
        step = _check(step @ step)


def rk4_lyapunov_flow(a, q, x0, t_end, dt):
    """Integrate dX/dt = A X + X A^T + Q from X(0)=x0 to t_end with step dt.

    Takes round(t_end / dt) RK4 steps (a copy of x0 is returned for none).
    Raises ShapeMismatch unless a, q and x0 are finite matrices of one square
    shape, q and x0 are symmetric (X^T = X exactly) and dt > 0,
    DimensionOverflow when n^2 exceeds KRON_CAP, and BlowUp if any entry
    magnitude of the generator, the step map, its powers or the state exceeds
    1e12, in lower-triangle coordinates; that signals an unstable drift.  The
    result is symmetric bit for bit.
    """
    a, q, x0 = as_cmatrix(a), as_cmatrix(q), as_cmatrix(x0)
    if a.shape[0] != a.shape[1] or q.shape != a.shape or x0.shape != a.shape:
        raise ShapeMismatch("a must be square, and q and x0 of its shape")
    if not (np.array_equal(q, q.T) and np.array_equal(x0, x0.T)):
        raise ShapeMismatch("q and x0 must be symmetric")
    if not dt > 0:
        raise ShapeMismatch("dt must be positive")
    n = a.shape[0]
    if n * n > KRON_CAP:
        raise DimensionOverflow("RK4 lift %dx%d exceeds cap %d" % (n * n, n * n, KRON_CAP))
    n_steps = int(round(t_end / dt))
    if n_steps <= 0:
        return x0.copy()

    rows, cols, pos, gen = _half(n)
    y = _power(_step_map((dt * a).ravel(), dt * q[rows, cols], gen),
               np.append(x0[rows, cols], 1.0), n_steps)
    return y[pos]
