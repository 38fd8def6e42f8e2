from fractions import Fraction

import numpy as np
import pytest

from exact_lyapunov import occupations, quadratures, solve_lyapunov
from loopcool import build_drift, get_preset
from loopcool.steadystate import cool


def test_scalar_in_closed_form():
    # a v + v a = -q  ->  v = q / (-2 a), exactly
    assert solve_lyapunov([[-1]], [[2]]) == [[1]]
    a, q = Fraction(-3, 7), Fraction(5)
    assert solve_lyapunov([[a]], [[q]]) == [[Fraction(35, 6)]]


def test_diagonal_in_closed_form():
    assert solve_lyapunov([[-1, 0], [0, -2]], [[2, 0], [0, 8]]) == [[1, 0], [0, 2]]
    # a coupled entry: v_12 = -q_12 / (a_11 + a_22)
    assert solve_lyapunov([[-1, 0], [0, -3]], [[2, 4], [4, 6]]) == [[1, 1], [1, 1]]


def test_quadratures_take_only_the_conjugate_block_structure():
    m = np.array([[1 + 2j, 3 - 1j], [3 + 1j, 1 - 2j]])
    assert quadratures(m) == [[4, -3], [1, -2]]  # [[Re X + Re Y, Im Y - Im X], ...]
    with pytest.raises(ValueError):
        quadratures(np.array([[1 + 2j, 3], [3, 1 + 2j]]))


def test_engine_on_fig2_is_within_1e_13_of_the_exact_solve():
    drift = build_drift(get_preset("fig2"))
    n_f, n_cav = occupations(drift)
    report = cool(drift)
    for got, want in zip([*report.n_f.tolist(), report.n_cav], [*n_f, n_cav]):
        assert abs(Fraction(got) - want) <= Fraction(1e-13) * abs(want)
