"""Time-domain oracle for the steady-state covariance.

Fixed-step RK4 for the differential Lyapunov equation dX/dt = A X + X A^T + Q.
On the vectorised state x = vec X the flow is linear, x' = L x + q with
L = A (x) I + I (x) A, so one RK4 step is the affine map x <- P x + r with

    P = sum_{m<=4} (hL)^m / m!,    r = h sum_{m<=3} (hL)^m / (m+1)! q.

n steps are that map applied n times, computed by binary powering of the pair
(P, r) in ceil(log2 n) squarings instead of n steps (Van Loan, IEEE TAC 23,
1978; Higham, Functions of Matrices, 2008, ch. 10).  The iterates equal
step-by-step RK4 up to roundoff.  The lift is n^2 x n^2 and each squaring
costs n^6, so this is an oracle for small drifts only: n^2 is capped at
numkit.KRON_CAP.  It does no linear solve, so it stays independent of the
steady-state solver.
"""

import numpy as np

from . import numkit
from .errors import BlowUp, DimensionOverflow, ShapeMismatch

_BLOWUP_LIMIT = 1e12


def _check(m):
    # entries <= 1e12 keep the next product of n^2 x n^2 factors far from overflow
    if not np.abs(m).max() <= _BLOWUP_LIMIT:
        raise BlowUp("integration diverged (entry magnitude above %g)" % _BLOWUP_LIMIT)
    return m


def rk4_lyapunov_flow(a, q, x0, t_end, dt):
    """Integrate dX/dt = A X + X A^T + Q from X(0)=x0 to t_end with step dt.

    Takes round(t_end / dt) RK4 steps (a copy of x0 is returned for none).
    Raises ShapeMismatch unless a, q and x0 are finite matrices of one square
    shape and dt > 0, DimensionOverflow when the n^2 x n^2 lift would exceed
    numkit.KRON_CAP, and BlowUp if any entry magnitude of the step map, its
    powers or the state exceeds 1e12, which signals an unstable drift.
    """
    a, q, x0 = numkit.as_cmatrix(a), numkit.as_cmatrix(q), numkit.as_cmatrix(x0)
    if a.shape[0] != a.shape[1] or q.shape != a.shape or x0.shape != a.shape:
        raise ShapeMismatch("a must be square, and q and x0 of its shape")
    if not dt > 0:
        raise ShapeMismatch("dt must be positive")
    n = a.shape[0]
    if n * n > numkit.KRON_CAP:
        raise DimensionOverflow("RK4 lift %dx%d exceeds cap %d" % (n * n, n * n, numkit.KRON_CAP))
    x = x0.reshape(n * n).copy()
    n_steps = int(round(t_end / dt))
    if n_steps <= 0:
        return x.reshape(n, n)

    eye_n = np.eye(n)
    eye = np.eye(n * n)
    # row-major vec: vec(A X) = (A (x) I) x and vec(X A^T) = (I (x) A) x
    hl = _check(dt * (np.kron(a, eye_n) + np.kron(eye_n, a)))
    # Horner: s = sum_{m<=3} (hL)^m / (m+1)!, then P = I + hL s and r = h s q
    s = eye + hl / 4.0
    s = eye + hl @ s / 3.0
    s = eye + hl @ s / 2.0
    p = _check(eye + hl @ s)
    r = _check(dt * (s @ q.reshape(n * n)))

    # (P, r) applied twice is (P^2, P r + r); powers of one map commute, so
    # the bits of n_steps can be multiplied in lowest first
    while True:
        if n_steps & 1:
            x = _check(p @ x + r)
        n_steps >>= 1
        if not n_steps:
            return x.reshape(n, n)
        r = _check(p @ r + r)
        p = _check(p @ p)
