import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constrained_sums import constrained_sum_bruteforce
from dicke.ladder import build_ladder, build_rate_matrix
from dicke.oracles import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, MIN_REL_TOL, ConstrainedSumQuery,
                           StiffnessError, TruncationError, UnsupportedDegeneracyError,
                           constrained_sum_residue,
                           discrete_time_propagate, discrete_time_table, evaluate_series,
                           integrate_rate_equations, rate_band, series_coefficients)
from dicke.methods import solve_populations
from dicke.residues import evaluate_distribution, evaluate_population, residue_terms


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
    # dt = 0 divided by zero in `solve_populations`, and nan and inf passed
    # the bound and returned NaN populations
    for delta_t in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta_t"):
            discrete_time_table(ladder, 4, delta_t, [0, 1, 2])
        with pytest.raises(ValueError, match="delta_t"):
            solve_populations(ladder, times=[0.0, 0.5], method="discrete", delta_t=delta_t)


def test_discrete_richardson_extrapolation():
    ladder = build_ladder(2, 1.0)
    target = 0.5
    exact = evaluate_population(residue_terms(ladder, 1, 2), 1.0, target)
    dt = 1e-3
    coarse = discrete_time_propagate(ladder, 2, dt, round(target / dt)).populations[1]
    fine = discrete_time_propagate(ladder, 2, dt / 2, round(2 * target / dt)).populations[1]
    assert abs(2 * fine - coarse - exact) < 1e-6


def test_discrete_table_is_one_pass_of_the_chain():
    # the table steps the chain once along the grid; each column equals a
    # chain restarted from t = 0 for that column's step count
    for n, m0, dt, steps in ((5, 5, 1e-3, [0, 0, 3, 40, 41, 500]),
                             (12, 7, 2e-3, list(range(0, 600, 37)))):
        ladder = build_ladder(n, 1.0)
        table = discrete_time_table(ladder, m0, dt, steps)
        restarted = np.stack([discrete_time_propagate(ladder, m0, dt, k).populations
                              for k in steps], axis=1)
        assert np.array_equal(table, restarted)
    with pytest.raises(ValueError):
        discrete_time_table(build_ladder(4, 1.0), 4, 1e-3, [5, 3])


def test_discrete_method_steps_once_along_the_grid():
    ladder = build_ladder(64, 1.0)
    grid = np.geomspace(5e-3, 5.0, 200)
    table = solve_populations(ladder, times=grid, method="discrete")
    dt = table.meta["delta_t"]
    for j in (0, 57, 199):
        state = discrete_time_propagate(ladder, 64, dt, int(round(grid[j] / dt)))
        assert np.array_equal(table.populations[:, j], state.populations)


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
    # the right-hand side as first written, four temporaries per call, and
    # the Jacobian band written out by hand: the oracle's table and
    # evaluation count must not move
    from scipy.integrate import solve_ivp

    ladder = build_ladder(24, 1.5)
    h = ladder.h_array()
    grid = np.geomspace(1e-3, 2.0, 30)

    def rhs(_t, y):
        dy = -h * y
        dy[:-1] += h[1:] * y[1:]
        return 1.5 * dy

    band = np.zeros((2, 25))
    band[0, 1:] = 1.5 * h[1:]
    band[1] = -1.5 * h
    y0 = np.zeros(25)
    y0[20] = 1.0
    sol = solve_ivp(rhs, (0.0, grid[-1]), y0, method="LSODA", t_eval=grid, rtol=1e-13,
                    atol=1e-15, jac=lambda _t, _y: band, lband=0, uband=1)
    table = integrate_rate_equations(ladder, 20, grid)
    assert np.array_equal(table.populations, sol.y)
    assert table.meta["nfev"] == sol.nfev


def _solve_ivp_lsoda(ladder, initial_m0, grid):
    # the oracle's own right-hand side and band, stepped by solve_ivp, which
    # returns to Python after every LSODA step
    from scipy.integrate import solve_ivp

    h = ladder.h_array()
    gamma = ladder.gamma
    loss, gain = -h, h[1:]

    def rhs(_t, y):
        dy = loss * y
        dy[:-1] += gain * y[1:]
        dy *= gamma
        return dy

    band = rate_band(ladder)
    y0 = np.zeros(h.size)
    y0[initial_m0] = 1.0
    return solve_ivp(rhs, (0.0, grid[-1]), y0, method="LSODA", t_eval=grid,
                     rtol=DEFAULT_REL_TOL, atol=DEFAULT_ABS_TOL, jac=lambda _t, _y: band,
                     lband=0, uband=1)


CLI_LOG_GRID = np.geomspace(5e-3, 5.0, 50)


@pytest.mark.parametrize("n, m0, gamma, grid", [
    (8, 8, 1.0, np.linspace(0.0, 3.0, 11)),          # t = 0 comes from the first step
    (64, 64, 1.0, CLI_LOG_GRID),
    (256, 256, 1.0, CLI_LOG_GRID),
    (128, 64, 1.0, CLI_LOG_GRID),
    (33, 20, 0.37, np.geomspace(1e-3, 4.0, 40)),
    (1, 1, 1.0, np.linspace(0.0, 3.0, 13)),
    (10, 0, 1.0, np.linspace(0.0, 2.0, 5)),
    (6, 6, 1.0, np.array([0.5, 0.5000001, 3.0])),   # two grid times in one step
    (12, 12, 1.0, np.array([0.7])),
], ids=["linear-n8", "log-n64", "log-n256", "partial-n128", "g0.37-n33", "n1", "m0-zero",
        "one-step-two-times", "one-time"])
def test_ode_table_is_solve_ivp_lsoda_bit_for_bit(n, m0, gamma, grid):
    # the oracle drives LSODA once per grid time and reads its Nordsieck
    # array; solve_ivp steps it one step per call: same steps, same table
    ladder = build_ladder(n, gamma)
    table = integrate_rate_equations(ladder, m0, grid)
    sol = _solve_ivp_lsoda(ladder, m0, grid)
    assert sol.success
    assert np.array_equal(table.populations, sol.y)
    assert (table.meta["nfev"], table.meta["njev"], table.meta["nlu"]) == \
        (sol.nfev, sol.njev, sol.nlu)


@pytest.mark.parametrize("grid, message", [
    ([0.5, 1.0], "lsoda: Illegal input"),    # LSODA's own failure, from scipy's warning
    ([0.0, 1.0], "stalled"),                 # the step reaches t = 0 but has length zero
])
def test_ode_failure_is_stiffness_error_without_warning(grid, message):
    # at g = 1e200 LSODA's first-step estimate overflows to a step of zero:
    # the run must end in StiffnessError, neither looping nor warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StiffnessError, match=message):
            integrate_rate_equations(build_ladder(4, 1e200), 4, grid)
    assert caught == []


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_rate_band_is_the_rate_matrix(n):
    # expanded from its packed form (row u + i - j holds entry (i, j), u = 1),
    # the band is g * H with the m-ordering of the state vector
    ladder = build_ladder(n, 0.7)
    band = rate_band(ladder)
    assert band.shape == (2, n + 1)
    dense = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for j in (i, i + 1):
            if j <= n:
                dense[i, j] = band[1 + i - j, j]
    assert band[0, 0] == 0.0
    assert np.array_equal(dense, 0.7 * build_rate_matrix(ladder).to_dense()[::-1, ::-1])


def test_ode_default_tolerances_n256():
    # at the default tolerances, on the CLI's N = 256 log grid, the oracle is
    # as accurate as residue's target and its work has a fixed ceiling
    ladder = build_ladder(256, 1.0)
    grid = np.geomspace(5e-3, 5.0, 50)
    table = integrate_rate_equations(ladder, 256, grid)
    reference = evaluate_distribution(ladder, 256, time_grid=grid)
    assert np.abs(table.populations - reference.populations).max() < 1e-11
    assert table.trace_defect() <= 1e-13
    assert table.meta["nfev"] < 50_000


def test_ode_meta_has_one_shape():
    ladder = build_ladder(6, 1.0)
    still = integrate_rate_equations(ladder, 6, [0.0])
    moved = integrate_rate_equations(ladder, 6, [0.0, 1.0])
    assert still.meta.keys() == moved.meta.keys()
    assert still.meta["integrator"] == moved.meta["integrator"] == "LSODA"
    assert still.meta["nfev"] == still.meta["njev"] == still.meta["nlu"] == 0
    # a short non-stiff run stays on Adams and forms no Jacobian
    assert moved.meta["nfev"] > 0 and "max_step" not in moved.meta
    assert (moved.meta["rel_tol"], moved.meta["abs_tol"]) == (DEFAULT_REL_TOL, DEFAULT_ABS_TOL)


@pytest.mark.parametrize("rel_tol", [1e-15, MIN_REL_TOL / 2, float("nan"), float("inf")])
def test_ode_refuses_tolerance_scipy_would_override(rel_tol):
    # below 100 * eps scipy warns, raises rtol and runs: the recorded
    # tolerance would not be the one used
    with pytest.raises(ValueError, match="rel_tol"):
        integrate_rate_equations(build_ladder(4, 1.0), 4, [0.0, 1.0], rel_tol=rel_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_rate_equations(build_ladder(4, 1.0), 4, [0.0, 1.0], rel_tol=MIN_REL_TOL)


def test_ode_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        integrate_rate_equations(build_ladder(2, 1.0), 2, [0.0, 1.0], rel_tol=0.0)


def test_ode_grid_validation():
    with pytest.raises(ValueError):
        integrate_rate_equations(build_ladder(2, 1.0), 2, [1.0, 0.5])


@pytest.mark.parametrize("times", [[math.nan], [0.5, math.inf], [-math.inf, 0.0, 1.0]])
@pytest.mark.parametrize("method", ["residue", "laplace", "jordan", "series", "ode", "discrete",
                                    "mc"])
def test_non_finite_times_are_refused(method, times):
    # before any work: an ode solve to nan did not return, and mc put all
    # of its population in m = 0
    with pytest.raises(ValueError, match="finite"):
        solve_populations(build_ladder(8, 1.0), times=times, method=method, n_traj=100)
    with pytest.raises(ValueError, match="finite"):
        evaluate_population(residue_terms(build_ladder(8, 1.0), 3, 8), 1.0, np.array(times))


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
