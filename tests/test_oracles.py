import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke.ladder import build_ladder
from dicke.oracles import (ConstrainedSumQuery, TruncationError,
                           UnsupportedDegeneracyError, constrained_sum_bruteforce,
                           constrained_sum_residue, discrete_time_propagate,
                           evaluate_series, integrate_rate_equations,
                           series_coefficients)
from dicke.residues import evaluate_population, residue_terms


def test_top_state_coefficients_are_signed_powers():
    for n, m0 in ((4, 4), (6, 3)):
        coeffs = series_coefficients(build_ladder(n, 1.0), m0, 12)
        h_m0 = m0 * (n + 1 - m0)
        for k in range(13):
            assert coeffs.table[m0][k] == (-h_m0) ** k


def test_recursion_first_orders_n2():
    coeffs = series_coefficients(build_ladder(2, 1.0), 2, 3)
    assert coeffs.table[1][1] == 2
    assert coeffs.table[1][2] == -8
    # consistent with 2*g*t*exp(-2*g*t) = 2(g*t) - 4(g*t)^2 + ... via the 1/n! weights
    assert coeffs.table[1][2] / math.factorial(2) == -4


def test_column_sums_vanish_beyond_zeroth_order():
    coeffs = series_coefficients(build_ladder(7, 1.0), 7, 15)
    assert sum(coeffs.column(0)) == 1
    for k in range(1, 16):
        assert sum(coeffs.column(k)) == 0


def test_series_single_emitter_tight():
    coeffs = series_coefficients(build_ladder(1, 1.0), 1, 20)
    state, bound = evaluate_series(coeffs, 1.0, 0.1)
    assert abs(state.populations[1] - math.exp(-0.1)) < 1e-15
    assert bound < 1e-15


def test_series_matches_residue_small_time():
    ladder = build_ladder(4, 1.0)
    coeffs = series_coefficients(ladder, 4, 40)
    state, _ = evaluate_series(coeffs, 1.0, 0.05)
    for m in range(5):
        exact = evaluate_population(residue_terms(ladder, m, 4), 1.0, 0.05)
        assert abs(state.populations[m] - exact) < 1e-12


def test_series_refuses_uncertifiable_time():
    coeffs = series_coefficients(build_ladder(4, 1.0), 4, 10)
    with pytest.raises(TruncationError) as excinfo:
        evaluate_series(coeffs, 1.0, 5.0)
    assert excinfo.value.bound > 1e-12 or math.isinf(excinfo.value.bound)


def test_series_remainder_bound_is_honest():
    ladder = build_ladder(3, 1.0)
    coeffs = series_coefficients(ladder, 3, 25)
    state, bound = evaluate_series(coeffs, 1.0, 0.15, tol=1e-6)
    # truncation bound plus float64 representation slack on both sides
    for m in range(4):
        exact = evaluate_population(residue_terms(ladder, m, 3), 1.0, 0.15)
        assert abs(state.populations[m] - exact) <= bound + 1e-14


def test_constrained_sum_examples():
    pairs = [
        (ConstrainedSumQuery((Fraction(2), Fraction(3)), 2), Fraction(19)),
        (ConstrainedSumQuery((Fraction(5),), 3), Fraction(125)),
        (ConstrainedSumQuery((Fraction(2), Fraction(7), Fraction(11)), 0), Fraction(1)),
        (ConstrainedSumQuery((Fraction(2), Fraction(2)), 1), Fraction(4)),
        (ConstrainedSumQuery((Fraction(1), Fraction(2), Fraction(3)), 1), Fraction(6)),
    ]
    for query, expected in pairs:
        assert constrained_sum_bruteforce(query) == expected
        assert constrained_sum_residue(query) == expected


def test_constrained_sum_enumeration_cap():
    query = ConstrainedSumQuery(tuple(Fraction(k + 1) for k in range(8)), 40)
    with pytest.raises(ValueError):
        constrained_sum_bruteforce(query, enumeration_cap=1000)


def test_constrained_sum_rejects_triple_degeneracy():
    with pytest.raises(UnsupportedDegeneracyError):
        constrained_sum_residue(ConstrainedSumQuery((Fraction(2),) * 3, 2))
    with pytest.raises(UnsupportedDegeneracyError):
        constrained_sum_residue(
            ConstrainedSumQuery((Fraction(1), Fraction(1), Fraction(2), Fraction(2)), 2))


@settings(max_examples=60)
@given(st.data())
def test_constrained_sum_residue_equals_bruteforce(data):
    n_t = data.draw(st.integers(min_value=1, max_value=5))
    total = data.draw(st.integers(min_value=0, max_value=12))
    rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    terms = [data.draw(rationals) for _ in range(n_t)]
    counts = {v: terms.count(v) for v in terms}
    query = ConstrainedSumQuery(tuple(terms), total)
    if any(c > 2 for c in counts.values()) or sum(1 for c in counts.values() if c == 2) > 1:
        with pytest.raises(UnsupportedDegeneracyError):
            constrained_sum_residue(query)
    else:
        assert constrained_sum_residue(query) == constrained_sum_bruteforce(query)


def test_discrete_single_emitter_first_order():
    ladder = build_ladder(1, 1.0)
    state = discrete_time_propagate(ladder, 1, 1e-4, 10_000)
    assert abs(state.populations[1] - math.exp(-1.0)) < 1e-3


def test_discrete_one_step_from_inverted():
    for n in (1, 4, 9):
        ladder = build_ladder(n, 1.0)
        dt = 1e-3 / n
        state = discrete_time_propagate(ladder, n, dt, 1)
        assert state.populations[n] == pytest.approx(1 - n * dt, abs=1e-15)
        assert state.populations[n - 1] == pytest.approx(n * dt, abs=1e-15)


def test_discrete_step_size_precondition():
    ladder = build_ladder(4, 1.0)
    with pytest.raises(ValueError):
        discrete_time_propagate(ladder, 4, 1.0, 3)  # g*h_max*dt = 6 >= 1


def test_discrete_richardson_extrapolation():
    ladder = build_ladder(2, 1.0)
    target = 0.5
    exact = evaluate_population(residue_terms(ladder, 1, 2), 1.0, target)
    dt = 1e-3
    coarse = discrete_time_propagate(ladder, 2, dt, round(target / dt)).populations[1]
    fine = discrete_time_propagate(ladder, 2, dt / 2, round(2 * target / dt)).populations[1]
    assert abs(2 * fine - coarse - exact) < 1e-6


def test_discrete_convergence_order_is_one():
    ladder = build_ladder(3, 1.0)
    target = 0.4
    exact = evaluate_population(residue_terms(ladder, 1, 3), 1.0, target)
    errors = []
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        approx = discrete_time_propagate(ladder, 3, dt, round(target / dt)).populations[1]
        errors.append(abs(approx - exact))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    for order in orders:
        assert 0.9 < order < 1.1


def test_ode_single_emitter():
    grid = np.linspace(0.0, 3.0, 13)
    table = integrate_rate_equations(build_ladder(1, 1.0), 1, grid)
    assert np.abs(table.populations[1] - np.exp(-grid)).max() < 1e-10


def test_ode_n3_state1_value():
    # oracle value from the hand-solved cascade: 12*g*t*e^{-3gt} - 12e^{-3gt} + 12e^{-4gt}
    table = integrate_rate_equations(build_ladder(3, 1.0), 3, np.array([0.0, 1.0]))
    expected = 12 * math.exp(-4.0)
    assert abs(table.populations[1, 1] - expected) < 1e-6


def test_ode_trace_drift_n64():
    grid = np.linspace(0.0, 2.0, 21)
    table = integrate_rate_equations(build_ladder(64, 1.0), 64, grid)
    assert table.trace_defect() < 1e-9


def test_ode_equals_plain_rate_equation_integration():
    # the right-hand side as first written, four temporaries per call: the
    # oracle's table and evaluation count must not move
    from scipy.integrate import solve_ivp

    ladder = build_ladder(24, 1.5)
    h = ladder.h_array()
    grid = np.geomspace(1e-3, 2.0, 30)

    def rhs(_t, y):
        dy = -h * y
        dy[:-1] += h[1:] * y[1:]
        return 1.5 * dy

    y0 = np.zeros(25)
    y0[20] = 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        sol = solve_ivp(rhs, (0.0, grid[-1]), y0, method="DOP853", t_eval=grid, rtol=1e-10,
                        atol=1e-12, max_step=2.0 / (1.5 * ladder.h_max))
    table = integrate_rate_equations(ladder, 20, grid)
    assert np.array_equal(table.populations, sol.y)
    assert table.meta["nfev"] == sol.nfev


def test_ode_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        integrate_rate_equations(build_ladder(2, 1.0), 2, [0.0, 1.0], rel_tol=0.0)


def test_ode_grid_validation():
    with pytest.raises(ValueError):
        integrate_rate_equations(build_ladder(2, 1.0), 2, [1.0, 0.5])


def test_series_recursion_duality_with_residues():
    # certified truncation agrees with the closed form at small g*t
    for n in range(1, 9):
        ladder = build_ladder(n, 1.0)
        coeffs = series_coefficients(ladder, n, 60)
        for gt in (0.05, 0.2):
            state, _ = evaluate_series(coeffs, 1.0, gt, tol=1e-11)
            for m in range(n + 1):
                exact = evaluate_population(residue_terms(ladder, m, n), 1.0, gt)
                assert abs(state.populations[m] - exact) < 1e-9
