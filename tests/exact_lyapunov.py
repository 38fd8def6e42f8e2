"""An exact reference for the steady-state engine's error, in rational arithmetic.

It reads a drift's own float A and Q as fractions.Fraction, so it measures
only the solver's error on the same rounded inputs.  In the quadratures
r = T u of u = [da, db_j, da^+, db_j^+], with the unnormalised
T = [[I, I], [-iI, iI]] (x = a + a^+, p = i (a^+ - a)), a drift of the
conjugate block structure A = [[X, Y], [Y*, X*]] reads

    A_r = T A T^-1 = [[Re X + Re Y, Im Y - Im X], [Im X + Im Y, Re X - Re Y]],

and a noise matrix of the same structure Q = [[P, R], [R*, P*]] reads
Q_r = T Q T^T = 2 [[Re P + Re R, Im P - Im R], [Im P + Im R, Re R - Re P]]:
exactly rational and real.  A_r V_r + V_r A_r^T + Q_r = 0 is then solved for
the m (m + 1) / 2 unknowns of the symmetric V_r = T V T^T by Gaussian
elimination over the rationals, and a mode's occupation is
<c^+ c> = (V_r[x, x] + V_r[p, p]) / 4 - 1/2.

Cost: about 0.1 s per N = 2 point, growing as m^6; keep Tier-1 uses to N <= 2.
"""

from fractions import Fraction


def _exact(m):
    """A real float matrix as a list of rows of Fractions."""
    return [[Fraction(float(x)) for x in row] for row in m]


def solve_lyapunov(a, q):
    """The exact symmetric V with A V + V A^T + Q = 0, for square A and Q given as
    rows of rationals (Fractions or ints); a ZeroDivisionError if it is singular."""
    m = len(a)
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    index = {pair: k for k, pair in enumerate(pairs)}

    def unknown(i, j):
        return index[(i, j) if i <= j else (j, i)]

    rows = []
    for i, j in pairs:  # the (i, j) entry of A V + V A^T = -Q
        row = [Fraction(0)] * (len(pairs) + 1)
        for k in range(m):
            row[unknown(k, j)] += a[i][k]
            row[unknown(i, k)] += a[j][k]
        row[-1] = -Fraction(q[i][j])
        rows.append(row)
    for col in range(len(pairs)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / head[col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
    values = [Fraction(0)] * len(pairs)
    for col in reversed(range(len(pairs))):
        head = rows[col]
        values[col] = (head[-1] - sum(head[k] * values[k] for k in range(col + 1, len(pairs)))
                       ) / head[col]
    return [[values[unknown(i, j)] for j in range(m)] for i in range(m)]


def quadratures(m):
    """T M T^-1 of a complex matrix M = [[X, Y], [Y*, X*]]: real and rational, as rows
    of Fractions.  A ValueError if M is not of that structure."""
    dim = len(m) // 2
    x, y = m[:dim, :dim], m[:dim, dim:]
    if not ((m[dim:, dim:] == x.conj()).all() and (m[dim:, :dim] == y.conj()).all()):
        raise ValueError("not of the conjugate block structure [[X, Y], [Y*, X*]]")
    rx, ix, ry, iy = (_exact(part) for part in (x.real, x.imag, y.real, y.imag))
    cols = range(dim)
    return ([[rx[i][j] + ry[i][j] for j in cols] + [iy[i][j] - ix[i][j] for j in cols]
             for i in cols]
            + [[ix[i][j] + iy[i][j] for j in cols] + [rx[i][j] - ry[i][j] for j in cols]
               for i in cols])


def occupations(drift):
    """(n_f, n_cav) of a drift model (a, q), exact: n_f the N resonators' and n_cav
    the cavity's <c^+ c>, from the exact V_r of the drift's own float A and Q."""
    a_r = quadratures(drift.a)
    dim = len(a_r) // 2
    # T Q T^T = 2 (T Q T^-1) diag(I, -I), since T^T = T^H diag(I, -I) and T^H = 2 T^-1
    q_r = [[2 * x if k < dim else -2 * x for k, x in enumerate(row)]
           for row in quadratures(drift.q)]
    v_r = solve_lyapunov(a_r, q_r)
    n = [(v_r[k][k] + v_r[dim + k][dim + k]) / 4 - Fraction(1, 2) for k in range(dim)]
    return n[1:], n[0]
