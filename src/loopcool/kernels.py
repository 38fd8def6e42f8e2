"""Time-domain oracle for the steady-state covariance.

Fixed-step RK4 for the differential Lyapunov equation dX/dt = A X + X A^T + Q.
The flow is linear in X and commutes with transposition, so the symmetric
half (X + X^T)/2 and the antisymmetric half (X - X^T)/2 evolve on their own,
each forced by the same half of Q.  Each half runs on its lower-triangle
coordinates (half-vectorization; Magnus & Neudecker, SIAM J. Algebraic
Discrete Methods 1, 1980): n(n+1)/2 of them for the symmetric half and
n(n-1)/2 for the antisymmetric one, whose diagonal is zero.  The symmetric
half always runs; the antisymmetric half runs only when q or x0 has an
antisymmetric part, since without forcing or a start it stays exactly zero.

On a half's coordinates y the flow is y' = G y + q, with G built from dt A by
cached index arrays.  One RK4 step is the affine map y <- P y + r with

    P = sum_{m<=4} (hG)^m / m!,    r = h sum_{m<=3} (hG)^m / (m+1)! q,

which is the one augmented matrix M = [[P, r], [0, 1]] acting on [y; 1]
(Van Loan, IEEE TAC 23, 1978).  n steps are M^n, computed by binary powering
in ceil(log2 n) squarings of M, one matmul each, instead of n steps (Higham,
Functions of Matrices, 2008, ch. 10).  The iterates equal step-by-step RK4 up
to roundoff.  A squaring costs (n(n+1)/2)^3, about n^6/8, so this is an
oracle for small drifts only: the cap still counts the full lift, n^2 <=
numkit.KRON_CAP.  It does no linear solve, so it stays independent of the
steady-state solver.
"""

import functools

import numpy as np

from . import numkit
from .errors import BlowUp, DimensionOverflow, ShapeMismatch

_BLOWUP_LIMIT = 1e12


def _check(m):
    # entries <= 1e12 keep the next product of two step maps far from overflow
    if not np.abs(m).max() <= _BLOWUP_LIMIT:
        raise BlowUp("integration diverged (entry magnitude above %g)" % _BLOWUP_LIMIT)
    return m


@functools.lru_cache(maxsize=None)
def _half(n, sign):
    """Index arrays for the half of n x n matrices with X^T = sign X.

    Returns (rows, cols, pos, sgn, gen): the coordinates are y = X[rows, cols],
    the lower triangle (strict for sign = -1), and X = sgn * y[pos].  gen lists
    (target, source, weight) triples: the augmented generator, flattened, gets
    weight * (dt A).flat[source] at target.  For coordinate r = (i, j) the
    terms are (A Y)_ij = sum_k A_ik Y_kj and (Y A^T)_ij = sum_k Y_ik A_jk.
    Within one triple no target repeats, so each is one fancy-index update.
    The cap keeps n <= 64, so the cache holds at most 128 small entries.
    """
    rows, cols = np.tril_indices(n, 0 if sign > 0 else -1)
    m = rows.size
    pos = np.zeros((n, n), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(m)
    sgn = np.zeros((n, n))
    sgn[cols, rows] = sign
    sgn[rows, cols] = 1.0
    k = np.arange(n)
    r = np.arange(m)[:, None] * (m + 1)
    gen = []
    for col, src, w in ((pos[k, cols[:, None]], rows[:, None] * n + k, sgn[k, cols[:, None]]),
                        (pos[rows[:, None], k], cols[:, None] * n + k, sgn[rows[:, None], k])):
        keep = w != 0
        gen.append(((r + col)[keep], src[keep], w[keep]))
    return rows, cols, pos, sgn, gen


def _step_map(ha, hq, gen):
    """Augmented RK4 step map [[P, r], [0, 1]] on one half's coordinates."""
    m = hq.size
    hg = np.zeros((m + 1) * (m + 1), dtype=np.complex128)
    (t1, s1, w1), (t2, s2, w2) = gen
    hg[t1] = w1 * ha[s1]
    hg[t2] += w2 * ha[s2]
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
    shape and dt > 0, DimensionOverflow when n^2 exceeds numkit.KRON_CAP, and
    BlowUp if any entry magnitude of the generator, the step map, its powers
    or the state exceeds 1e12, in half coordinates; that signals an unstable
    drift.  With symmetric q and x0 the result is symmetric bit for bit.
    """
    a, q, x0 = numkit.as_cmatrix(a), numkit.as_cmatrix(q), numkit.as_cmatrix(x0)
    if a.shape[0] != a.shape[1] or q.shape != a.shape or x0.shape != a.shape:
        raise ShapeMismatch("a must be square, and q and x0 of its shape")
    if not dt > 0:
        raise ShapeMismatch("dt must be positive")
    n = a.shape[0]
    if n * n > numkit.KRON_CAP:
        raise DimensionOverflow("RK4 lift %dx%d exceeds cap %d" % (n * n, n * n, numkit.KRON_CAP))
    n_steps = int(round(t_end / dt))
    if n_steps <= 0:
        return x0.copy()

    ha = (dt * a).ravel()
    x = np.zeros((n, n), dtype=np.complex128)
    for sign in (1.0, -1.0):
        rows, cols, pos, sgn, gen = _half(n, sign)
        qh = (q[rows, cols] + sign * q[cols, rows]) / 2.0
        yh = (x0[rows, cols] + sign * x0[cols, rows]) / 2.0
        if sign < 0 and not (qh.any() or yh.any()):
            break
        y = _power(_step_map(ha, dt * qh, gen), np.append(yh, 1.0), n_steps)
        x += sgn * y[pos]
    return x
