import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational

from dicke import ladder as ladder_module
from dicke import precision, residues, spectral
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.oracles import integrate_rate_equations
from dicke.precision import PrecisionError, PrecisionPolicy, round_to_bits, scaled_to_float
from dicke.residues import (ResidueTerm, RoundedRow, _ladder_exponentials,
                            above_equator_closed_form, assemble_table, evaluate_distribution,
                            evaluate_population, evaluate_rows, exact_terms, residue_terms)
from dicke.spectral import invert_laplace, jordan_decompose, jordan_terms
from fraction_reference import fraction_round_to_bits, fraction_terms, pair, pair_terms
from pole_census import classify_poles


def closed_form_n2(gt):
    """Hand-solved three-level cascade (oracle for the N=2 assertions)."""
    rho2 = math.exp(-2 * gt)
    rho1 = 2 * gt * math.exp(-2 * gt)
    return np.array([1.0 - rho1 - rho2, rho1, rho2])


def closed_form_n3_state1(gt):
    """Hand-solved four-level cascade, middle state."""
    return 12 * gt * math.exp(-3 * gt) - 12 * math.exp(-3 * gt) + 12 * math.exp(-4 * gt)


def test_single_emitter_term():
    terms = residue_terms(build_ladder(1, 1.0), 1, 1)
    assert len(terms) == 1
    assert (terms[0].pole, terms[0].multiplicity) == (1, 1)
    assert terms[0].const == 1 and terms[0].linear == 0
    assert evaluate_population(terms, 1.0, 0.7) == pytest.approx(math.exp(-0.7), abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_top_state_pure_exponential(n):
    ladder = build_ladder(n, 1.0)
    terms = residue_terms(ladder, n, n)
    for gt in (0.0, 0.1, 1.0, 4.0):
        assert evaluate_population(terms, 1.0, gt) == pytest.approx(math.exp(-n * gt), rel=1e-13, abs=1e-300)


def test_n2_double_pole_term():
    terms = residue_terms(build_ladder(2, 1.0), 1, 2)
    assert len(terms) == 1
    term = terms[0]
    assert (term.pole, term.multiplicity) == (2, 2)
    assert term.const == 0 and term.linear == 2
    for gt in (0.3, 1.5):
        assert evaluate_population(terms, 1.0, gt) == pytest.approx(2 * gt * math.exp(-2 * gt), abs=1e-15)


def test_n3_state1_closed_form():
    terms = residue_terms(build_ladder(3, 1.0), 1, 3)
    by_pole = {t.pole: t for t in terms}
    assert by_pole[3].const == -12 and by_pole[3].linear == 12
    assert by_pole[4].const == 12 and by_pole[4].linear == 0
    value = evaluate_population(terms, 1.0, 1.0)
    assert value == pytest.approx(closed_form_n3_state1(1.0), abs=1e-14)
    assert value == pytest.approx(12 * math.exp(-4.0), abs=1e-14)


def test_initial_condition_is_kronecker_delta():
    ladder = build_ladder(6, 1.0)
    for m0 in (6, 3):
        for m in range(m0 + 1):
            value = evaluate_population(residue_terms(ladder, m, m0), 1.0, 0.0)
            assert value == pytest.approx(1.0 if m == m0 else 0.0, abs=1e-12)


def test_ground_state_saturates():
    terms = residue_terms(build_ladder(2, 1.0), 0, 2)
    assert evaluate_population(terms, 1.0, 40.0) == pytest.approx(1.0, abs=1e-12)


def test_gamma_scaling():
    # only the product gamma*t enters
    ladder_fast = build_ladder(3, 2.5)
    ladder_slow = build_ladder(3, 1.0)
    fast = evaluate_population(residue_terms(ladder_fast, 1, 3), 2.5, 0.4)
    slow = evaluate_population(residue_terms(ladder_slow, 1, 3), 1.0, 1.0)
    assert fast == pytest.approx(slow, rel=1e-13)


def test_above_equator_matches_residue_terms_exactly():
    for n in range(1, 33):
        ladder = build_ladder(n, 1.0)
        first_valid = n // 2 + 1 if n % 2 == 0 else (n + 1) // 2
        for m in range(first_valid, n + 1):
            closed = above_equator_closed_form(ladder, m)
            general = residue_terms(ladder, m, n)
            assert closed == general  # exact rational term-by-term equality


def test_above_equator_rejects_below_equator():
    with pytest.raises(ValueError):
        above_equator_closed_form(build_ladder(4, 1.0), 1)
    with pytest.raises(ValueError):
        above_equator_closed_form(build_ladder(4, 1.0), 2)
    with pytest.raises(ValueError):
        above_equator_closed_form(build_ladder(5, 1.0), 2)


def test_n4_above_equator_example():
    terms = above_equator_closed_form(build_ladder(4, 1.0), 3)
    assert [(t.pole, t.const) for t in terms] == [(4, Fraction(2)), (6, Fraction(-2))]
    gt = 0.8
    expected = 2 * math.exp(-4 * gt) - 2 * math.exp(-6 * gt)  # solves the two-level cascade
    assert evaluate_population(terms, 1.0, gt) == pytest.approx(expected, abs=1e-15)


def test_n2_above_equator_top_state():
    terms = above_equator_closed_form(build_ladder(2, 1.0), 2)
    assert [(t.pole, t.const, t.linear) for t in terms] == [(2, Fraction(1), Fraction(0))]


def test_distribution_n1():
    table = evaluate_distribution(build_ladder(1, 1.0), 1, time_grid=[0.0, 1.0])
    expected = np.array([[0.0, 1.0 - math.exp(-1)], [1.0, math.exp(-1)]])
    assert np.allclose(table.populations, expected, atol=1e-15)


def test_distribution_t0_column():
    table = evaluate_distribution(build_ladder(2, 1.0), 2, time_grid=[0.0])
    assert np.array_equal(table.populations[:, 0], [0.0, 0.0, 1.0])


def test_distribution_trace_and_positivity():
    grid = np.linspace(0.0, 5.0, 41)
    for n in (4, 12):
        table = evaluate_distribution(build_ladder(n, 1.0), n, time_grid=grid)
        assert table.trace_defect() < 1e-12
        assert table.min_population() > -1e-12


def test_distribution_matches_ode_oracle():
    grid = np.array([0.01, 0.1, 0.3, 1.0, 3.0])
    for n in range(1, 11):
        ladder = build_ladder(n, 1.0)
        exact = evaluate_distribution(ladder, n, time_grid=grid)
        reference = integrate_rate_equations(ladder, n, grid)
        assert np.abs(exact.populations - reference.populations).max() < 1e-9


def test_general_initial_state_matches_ode():
    grid = np.array([0.05, 0.4, 1.2])
    for n, m0 in ((5, 3), (8, 4), (10, 7), (9, 1)):
        ladder = build_ladder(n, 1.0)
        exact = evaluate_distribution(ladder, m0, time_grid=grid)
        reference = integrate_rate_equations(ladder, m0, grid)
        assert np.abs(exact.populations - reference.populations).max() < 1e-9
        assert np.array_equal(exact.populations[m0 + 1:], np.zeros((n - m0, grid.size)))


def test_rows_above_initial_state_are_zero():
    table = evaluate_distribution(build_ladder(6, 1.0), 2, time_grid=[0.0, 0.5, 2.0])
    assert np.array_equal(table.populations[3:], np.zeros((4, 3)))


def test_auto_policy_escalates_below_equator():
    ladder = build_ladder(40, 1.0)
    terms = residue_terms(ladder, 0, 40)
    assert terms[0].bits > 53
    table = evaluate_distribution(ladder, 40, time_grid=np.linspace(0, 2, 9))
    assert max(table.meta["bits"]) > 53
    assert table.trace_defect() < 1e-10


def test_fixed_double_policy_reports_defect_honestly():
    ladder = build_ladder(40, 1.0)
    table = evaluate_distribution(ladder, 40, PrecisionPolicy.double(),
                                  np.linspace(0, 2, 5))
    assert table.trace_defect() > 1e-9  # cancellation loss is visible, not hidden


def test_precision_error_on_tiny_cap():
    ladder = build_ladder(40, 1.0)
    policy = PrecisionPolicy(mode="auto", target_defect=1e-30, max_bits=60)
    with pytest.raises(PrecisionError) as excinfo:
        residue_terms(ladder, 0, 40, policy)
    assert excinfo.value.defect > 0


def test_fixed_bits_policy_trace():
    grid = np.linspace(0.0, 3.0, 11)
    table = evaluate_distribution(build_ladder(24, 1.0), 24,
                                  PrecisionPolicy.bits(160), grid)
    assert table.trace_defect() < 1e-12
    assert set(table.meta["bits"]) == {160}


def test_evaluate_population_rejects_negative_time():
    terms = residue_terms(build_ladder(2, 1.0), 1, 2)
    with pytest.raises(ValueError):
        evaluate_population(terms, 1.0, -0.1)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=16), st.data())
def test_t0_reconstruction_is_exact_rational(n, data):
    ladder = build_ladder(n, 1.0)
    m0 = data.draw(st.integers(min_value=0, max_value=n))
    m = data.draw(st.integers(min_value=0, max_value=m0))
    terms = residue_terms(ladder, m, m0)
    # the constants are exact rationals, so the delta reconstruction is exact
    assert sum((t.const for t in terms), Fraction(0)) == (1 if m == m0 else 0)


def test_small_n_full_solutions_against_hand_forms():
    grid = np.linspace(0.0, 4.0, 17)
    table = evaluate_distribution(build_ladder(2, 1.0), 2, time_grid=grid)
    expected = np.stack([closed_form_n2(gt) for gt in grid], axis=1)
    assert np.abs(table.populations - expected).max() < 1e-14


def product_formula_terms(ladder, m, m0):
    """Reference coefficients from the O(N^3) product formula: every pole
    gap h_p - h_k multiplied out, the double-pole sum over 1/gap built from
    prefix/suffix products of the gaps."""
    h = ladder.h
    numerator = 1
    for k in range(m + 1, m0 + 1):
        numerator *= h[k]
    signed_num = (-1 if (m0 - m) % 2 else 1) * numerator
    out = []
    for v in sorted({h[k] for k in range(m, m0 + 1)}):
        multiplicity = sum(1 for k in range(m, m0 + 1) if h[k] == v)
        gaps = [v - h[k] for k in range(m, m0 + 1) if h[k] != v]
        den = 1
        for g in gaps:
            den *= g
        c = Fraction(signed_num, den)
        if multiplicity == 1:
            out.append((v, 1, c, Fraction(0)))
            continue
        prefix = [1]
        for g in gaps:
            prefix.append(prefix[-1] * g)
        s_num, suffix = 0, 1
        for i in range(len(gaps) - 1, -1, -1):
            s_num += prefix[i] * suffix
            suffix *= gaps[i]
        s = Fraction(s_num, den)
        out.append((v, 2, -c * s, -c))
    return pair_terms(out)


def test_closed_form_matches_product_formula():
    for n in range(1, 41):
        ladder = build_ladder(n, 1.0)
        for m0 in range(n + 1):
            for m in range(m0 + 1):
                assert exact_terms(ladder, m, m0) == product_formula_terms(ladder, m, m0), (n, m, m0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=41, max_value=300), st.data())
def test_closed_form_matches_product_formula_large_n(n, data):
    ladder = build_ladder(n, 1.0)
    m0 = data.draw(st.integers(min_value=0, max_value=n), label="m0")
    m = data.draw(st.integers(min_value=0, max_value=m0), label="m")
    # the drawn row, and the same target from the fully inverted start
    for start in (m0, n):
        assert exact_terms(ladder, m, start) == product_formula_terms(ladder, m, start), start


@pytest.mark.parametrize("n, m, m0, expected", [
    # pole 0 (ground state): the steady-state weight 1, then a double pole
    (2, 0, 2, [(0, 1, 1, 0), (2, 2, -1, -2)]),
    # odd-N middle p = q = 2 next to a simple pole whose partner q = 3 > m0:
    # rho_1 = 4 exp(-3 g t) - 4 exp(-4 g t)
    (3, 1, 2, [(3, 1, 4, 0), (4, 1, -4, 0)]),
    # partial start, every partner above m0: rho_2 = 6 exp(-10 g t) - 6 exp(-12 g t)
    (6, 2, 3, [(10, 1, 6, 0), (12, 1, -6, 0)]),
    # every partner below m (q = 1, 2 < 3), so p runs down: rho_3 = 2 exp(-4 g t) - 2 exp(-6 g t)
    (4, 3, 4, [(4, 1, 2, 0), (6, 1, -2, 0)]),
])
def test_each_pole_branch_by_hand(n, m, m0, expected):
    ladder = build_ladder(n, 1.0)
    assert exact_terms(ladder, m, m0) == pair_terms(expected)
    assert exact_terms(ladder, m, m0) == product_formula_terms(ladder, m, m0)


@pytest.mark.parametrize("n, m, m0", [
    (5, 2, 5),     # q < m (pole 5), a double pole (8) and the middle (9)
    (9, 0, 7),     # pole 0, q > m0, double poles and the middle
    (10, 4, 10),   # q < m below the double poles
    (64, 20, 50),  # q > m0 below the double poles
])
def test_pole_branches_in_one_row(n, m, m0):
    ladder = build_ladder(n, 1.0)
    terms = exact_terms(ladder, m, m0)
    assert [t[0] for t in terms] == sorted({ladder.h[k] for k in range(m, m0 + 1)})
    assert terms == product_formula_terms(ladder, m, m0)


@pytest.mark.parametrize("m, m0", [(3, 2), (-1, 2), (0, 5), (5, 6)])
def test_exact_terms_rejects_bad_range(m, m0):
    with pytest.raises(ValueError):
        exact_terms(build_ladder(4, 1.0), m, m0)


def mp_rounded(value, bits):
    """`value` rounded to `bits` significant bits (round-half-even) by mpmath."""
    return mpmath.mpf(from_rational(value.numerator, value.denominator, bits, "n"))


@settings(max_examples=200, deadline=None)
@given(st.fractions().filter(bool), st.integers(min_value=2, max_value=300))
# exact ties, which random fractions almost never hit: half-even gives 1 and -1.5
@example(Fraction(5, 4), 2)
@example(Fraction(-13, 8), 3)
def test_round_to_bits_matches_mpmath(value, bits):
    mant, exp = round_to_bits(value.numerator, value.denominator, bits)
    with mpmath.workprec(bits):
        assert mpmath.ldexp(mant, exp) == mp_rounded(value, bits)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=48), st.data())
def test_fixed_point_rows_match_mpmath_sum(n, data):
    m0 = data.draw(st.integers(min_value=0, max_value=n), label="m0")
    t = data.draw(st.floats(min_value=0.0, max_value=3.0), label="t")
    gamma = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="gamma")
    ladder = build_ladder(n, gamma)
    table = evaluate_distribution(ladder, m0, time_grid=[t])
    for m in range(m0 + 1):
        bits = table.meta["bits"][m]
        if bits <= 53:
            continue
        # the same b-bit coefficients, summed at more than twice the width
        with mpmath.workprec(2 * bits + 64):
            gt = mpmath.mpf(gamma) * mpmath.mpf(t)
            total = mpmath.fsum((mp_rounded(a, bits) + mp_rounded(b, bits) * gt)
                                * mpmath.exp(-v * gt)
                                for v, _, a, b in fraction_terms(exact_terms(ladder, m, m0)))
        assert abs(table.populations[m, 0] - float(total)) <= 1e-15, (m, bits)


def test_fixed_point_population_matches_table():
    ladder = build_ladder(30, 1.0)
    grid = np.array([0.0, 0.05, 0.4])
    table = evaluate_distribution(ladder, 30, time_grid=grid)
    for m in (0, 7, 15):
        terms = residue_terms(ladder, m, 30)
        assert terms[0].bits > 53
        for j, t in enumerate(grid):
            assert evaluate_population(terms, 1.0, t) == table.populations[m, j]


def test_t0_defect_recorded_from_resolution():
    ladder = build_ladder(24, 1.0)
    table = evaluate_distribution(ladder, 20, time_grid=[0.0, 1.0])
    for m in range(21):
        assert table.meta["t0_defect"][m] <= 1e-12
    assert table.meta["t0_defect"][21:] == [0.0] * 4


def test_fixed_point_rows_far_in_time():
    # exp(-h*g*t) far below 2**-F rounds to zero; the ground state holds everything
    ladder = build_ladder(30, 1.0)
    table = evaluate_distribution(ladder, 30, time_grid=[0.0, 1e4, 1e9])
    assert max(table.meta["bits"]) > 53
    assert np.array_equal(table.populations[:, 1:], np.eye(31)[:, :1].repeat(2, axis=1))


# --- the fixed-point pass against its per-pole mpmath reference -------------

def reference_to_fixed(mant, exp, frac_bits):
    """mant * 2**exp scaled by 2**frac_bits, rounded half up."""
    shift = exp + frac_bits
    if shift >= 0:
        return mant << shift
    if mant.bit_length() < -shift:
        return 0
    return (mant + (1 << (-shift - 1))) >> -shift


def reference_rows(rows, gamma, grid):
    """Term lists evaluated as the package did before the ladder recurrence:
    float64 rows in numpy; wider rows with every coefficient pre-shifted
    to 2**-F and one `mpmath.exp` per pole and time at F + 32 bits."""
    grid = np.asarray(grid, dtype=float)
    out = np.zeros((len(rows), grid.size))
    wide = [r for r, row in enumerate(rows) if row and max(t.bits for t in row) > 53]
    for r, row in enumerate(rows):
        if row and r not in wide:
            poles = np.array([t.pole for t in row], dtype=float)
            consts = np.array([float(t.const) for t in row])
            linears = np.array([float(t.linear) for t in row])
            gt = gamma * grid
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                weights = consts[:, None] + linears[:, None] * gt[None, :]
                out[r] = (weights * np.exp(-poles[:, None] * gt[None, :])).sum(axis=0)
    if not wide:
        return out
    widths = [max(t.bits for t in rows[r]) for r in wide]
    frac_bits = max(widths) + 64
    poles = sorted({t.pole for r in wide for t in rows[r]})
    index = {v: i for i, v in enumerate(poles)}
    doubled = {index[t.pole] for r in wide for t in rows[r] if t.linear}
    fixed = []
    for r, bits in zip(wide, widths):
        row = rows[r]
        linear = [t for t in row if t.linear]
        fixed.append(([index[t.pole] for t in row],
                      [reference_to_fixed(*fraction_round_to_bits(t.const, bits), frac_bits)
                       for t in row],
                      [index[t.pole] for t in linear],
                      [reference_to_fixed(*fraction_round_to_bits(t.linear, bits), frac_bits)
                       for t in linear]))
    with mpmath.workprec(frac_bits + 32):
        gamma_mp = mpmath.mpf(gamma)
        for j, t in enumerate(grid):
            gt = gamma_mp * mpmath.mpf(float(t))
            expo = [mpmath.exp(-v * gt) for v in poles]
            e_fix = [reference_to_fixed(*x.man_exp, frac_bits) for x in expo]
            g_fix = {i: reference_to_fixed(*(gt * expo[i]).man_exp, frac_bits) for i in doubled}
            for r, (idx, consts, lin_idx, linears) in zip(wide, fixed):
                acc = sum(c * e_fix[i] for c, i in zip(consts, idx))
                acc += sum(c * g_fix[i] for c, i in zip(linears, lin_idx))
                out[r, j] = scaled_to_float(acc, 2 * frac_bits)
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.data())
def test_evaluator_equals_per_pole_exp_reference(n, data):
    m0 = data.draw(st.integers(min_value=0, max_value=n), label="m0")
    gamma = data.draw(st.sampled_from([0.5, 1.0, 2.5]), label="gamma")
    policy = data.draw(st.sampled_from([PrecisionPolicy(), PrecisionPolicy.bits(120)]),
                       label="policy")
    times = data.draw(st.lists(st.floats(min_value=0.0, max_value=20.0), max_size=4),
                      label="times")
    grid = np.array(sorted({0.0, 1e4, 1e9, *times}))
    ladder = build_ladder(n, gamma)
    rows = {
        "residue": [residue_terms(ladder, m, m0, policy) if m <= m0 else None
                    for m in range(n + 1)],
        "laplace": [invert_laplace(ladder, m, m0, policy) if m <= m0 else None
                    for m in range(n + 1)],
        "jordan": jordan_terms(jordan_decompose(ladder, policy), np.eye(n + 1)[m0]),
    }
    for method, method_rows in rows.items():
        table = solve_populations(ladder, m0, grid, method, policy)
        assert np.array_equal(table.populations, reference_rows(method_rows, gamma, grid)), method


def test_evaluator_equals_reference_on_wide_log_grid():
    ladder = build_ladder(64, 1.0)
    grid = np.geomspace(1e-3, 5.0, 20)
    for m0 in (64, 40):
        rows = [residue_terms(ladder, m, m0) if m <= m0 else None for m in range(65)]
        assert max(row.bits for row in rows if row) > 53
        table = evaluate_distribution(ladder, m0, time_grid=grid)
        assert np.array_equal(table.populations, reference_rows(rows, 1.0, grid))


def test_coefficient_below_the_fixed_point_scale_is_rounded():
    # at 60 bits F = 124, and a 60-bit mantissa times 2**-134 keeps only its
    # top 50 bits at 2**-F: 2**49 + 1023/1024 rounds up to 2**49 + 1
    const = Fraction((1 << 59) + 1023, 1 << 134)
    row = [ResidueTerm(pole=1, multiplicity=1, const_pair=pair(const), linear_pair=(0, 1),
                       bits=60)]
    grid = np.array([0.0, 0.5])
    values = evaluate_rows([row], 1.0, grid)
    assert values[0, 0] == math.ldexp((1 << 49) + 1, -124)
    assert np.array_equal(values, reference_rows([row], 1.0, grid))


def mp_fixed(x, frac_bits):
    return int(mpmath.nint(x * mpmath.mpf(2) ** frac_bits))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 129, 256])
@pytest.mark.parametrize("frac_bits", [117, 700])
def test_ladder_exponentials_within_a_unit(n, frac_bits):
    poles = sorted(set(build_ladder(n, 1.0).h))
    # g*t putting the largest or a middle pole's value 256 units above 2**-F:
    # the recurrence must not lose it on the way down
    floor_cases = [(v, (frac_bits - 8) * math.log(2) / v)
                   for v in {poles[-1], poles[len(poles) // 2]} if v]
    for gt in [0.0, 1e-3, 0.37, 1.0, 5.0, 1e4, 1e9, *(gt for _, gt in floor_cases)]:
        gt_mp = mpmath.mpf(gt)
        values = _ladder_exponentials(poles, list(range(len(poles))), gt_mp, frac_bits)
        with mpmath.workprec(frac_bits + 64 + 64):
            expected = [mp_fixed(mpmath.exp(-v * gt_mp), frac_bits) for v in poles]
            expected += [mp_fixed(gt_mp * mpmath.exp(-v * gt_mp), frac_bits) for v in poles]
        assert len(values) == len(expected)
        assert all(abs(a - b) <= 1 for a, b in zip(values, expected)), (n, gt)
    for v, gt in floor_cases:
        values = _ladder_exponentials(poles, [], mpmath.mpf(gt), frac_bits)
        assert values[poles.index(v)] >= 255, (n, v)


@pytest.mark.parametrize("n", [1, 2, 7, 64, 129, 256])
@pytest.mark.parametrize("frac_bits", [117, 700])
def test_ladder_exponentials_non_increasing_per_group(n, frac_bits):
    # the evaluator sums each row only up to the first zero of each group
    poles = sorted(set(build_ladder(n, 1.0).h))
    doubled = list(range(0, len(poles), 2))
    gts = [0.0, 1e-3, 0.37, 1.0, 5.0, 1e4, 1e9]
    gts += [(frac_bits - 8) * math.log(2) / v for v in {poles[-1], poles[len(poles) // 2]} if v]
    for gt in gts:
        values = _ladder_exponentials(poles, doubled, mpmath.mpf(gt), frac_bits)
        for group in (values[:len(poles)], values[len(poles):]):
            assert all(a >= b for a, b in zip(group, group[1:])), (n, gt)


def test_evaluator_equals_reference_where_most_exponentials_are_zero():
    ladder = build_ladder(64, 1.0)
    grid = np.geomspace(1e-3, 1e4, 16)
    poles = sorted(set(ladder.h))
    policy = PrecisionPolicy()
    for m0 in (64, 40):
        rows = {
            "residue": [residue_terms(ladder, m, m0, policy) if m <= m0 else None
                        for m in range(65)],
            "laplace": [invert_laplace(ladder, m, m0, policy) if m <= m0 else None
                        for m in range(65)],
            "jordan": jordan_terms(jordan_decompose(ladder, policy), np.eye(65)[m0]),
        }
        frac_bits = max(row.bits for row in rows["residue"] if row) + 64
        assert frac_bits > 53 + 64
        # on most of the grid, most exponentials round to zero
        nonzero = [sum(map(bool, _ladder_exponentials(poles, [], mpmath.mpf(t), frac_bits)))
                   for t in grid]
        assert sum(k < len(poles) // 4 for k in nonzero) > len(grid) // 2, nonzero
        for method, method_rows in rows.items():
            table = solve_populations(ladder, m0, grid, method, policy)
            assert np.array_equal(table.populations,
                                  reference_rows(method_rows, 1.0, grid)), (method, m0)


def test_evaluator_takes_terms_in_any_order():
    # the zero-prefix cut needs operands sorted by pole; a caller's list need not be
    ladder = build_ladder(40, 1.0)
    grid = np.geomspace(1e-3, 1e4, 12)
    rows = [residue_terms(ladder, m, 40) for m in range(41)]
    assert max(row.bits for row in rows) > 53
    shuffled = [residues.TermRow(row[::-1], row.bits) for row in rows]
    assert np.array_equal(evaluate_rows(shuffled, 1.0, grid),
                          reference_rows(shuffled, 1.0, grid))


def gap_product(fact, x, m, m0):
    """Product of (x - k) over k in [m, m0] with k != x, as a factorial
    quotient."""
    if x > m0:
        return fact[x - m] // fact[x - m0 - 1]
    if x < m:
        sign = -1 if (m0 - m + 1) % 2 else 1
        return sign * (fact[m0 - x] // fact[m - x - 1])
    sign = -1 if (m0 - x) % 2 else 1
    return sign * fact[x - m] * fact[m0 - x]


def fraction_harmonic_terms(ladder, m, m0):
    """Coefficients as factorial quotients over the gaps h_p - h_k =
    (p-k)(q-k), q = N+1-p, with the harmonic numbers as `Fraction`s: the
    double-pole logarithmic derivative from five `Fraction` sums."""
    n = ladder.n_emitters
    fact, harm = [1], [Fraction(0)]
    for k in range(1, n + 2):
        fact.append(fact[-1] * k)
        harm.append(harm[-1] + Fraction(1, k))
    sign = -1 if (m0 - m) % 2 else 1
    signed_num = sign * (fact[m0] // fact[m]) * (fact[n - m] // fact[n - m0])
    out = []
    for pole in classify_poles(ladder, m, m0).poles:
        p = pole.index
        q = n + 1 - p
        run_p = gap_product(fact, p, m, m0)
        if q == p:
            den = run_p * run_p
        else:
            if pole.multiplicity == 2:
                run_p //= p - q
            den = run_p * (gap_product(fact, q, m, m0) // (q - p))
        c = Fraction(signed_num, den)
        if pole.multiplicity == 1:
            out.append((pole.value, 1, c, Fraction(0)))
            continue
        s = (harm[p - m] - harm[m0 - p] - harm[q - m] + harm[m0 - q]
             + Fraction(2, q - p)) / (q - p)
        out.append((pole.value, 2, -c * s, -c))
    return pair_terms(out)


def test_integer_harmonic_sums_equal_fraction_formula():
    for n in range(1, 41):
        ladder = build_ladder(n, 1.0)
        for m0 in range(n + 1):
            for m in range(m0 + 1):
                assert exact_terms(ladder, m, m0) == fraction_harmonic_terms(ladder, m, m0), \
                    (n, m, m0)


def test_each_coefficient_rounded_and_bounded_once(monkeypatch):
    calls = {"exp": 0, "round": 0, "bound": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mpmath, "exp", counting("exp", mpmath.exp))
    for module in (residues, precision):
        monkeypatch.setattr(module, "round_to_bits", counting("round", module.round_to_bits))
        monkeypatch.setattr(module, "error_bound", counting("bound", module.error_bound))
    ladder = build_ladder(48, 1.0)
    grid = np.linspace(0.0, 3.0, 7)
    table = evaluate_distribution(ladder, 48, time_grid=grid)
    wide = [residue_terms(ladder, m, 48) for m in range(49) if table.meta["bits"][m] > 53]
    assert wide
    # q = exp(-g*t) and the lowest pole's value, per time
    assert calls["exp"] == 2 * grid.size
    # each nonzero const and linear coefficient rounded once; zeros are not rounded
    assert calls["round"] == sum(bool(t.const_pair[0]) + bool(t.linear_pair[0])
                                 for row in wide for t in row)
    assert calls["bound"] == 0


def test_one_exact_terms_call_per_row_and_no_pole_classification(monkeypatch):
    calls = {"exact_terms": 0, "classify_poles": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(residues, "exact_terms", counting("exact_terms", residues.exact_terms))
    classify = counting("classify_poles", classify_poles)
    for module in (ladder_module, residues, spectral):
        monkeypatch.setattr(module, "classify_poles", classify, raising=False)
    for n, m0 in ((17, 17), (40, 25)):
        calls.update(exact_terms=0, classify_poles=0)
        evaluate_distribution(build_ladder(n, 1.0), m0, time_grid=[0.0, 0.5])
        assert calls == {"exact_terms": m0 + 1, "classify_poles": 0}, (n, m0)


def test_shared_evaluation_reuses_equal_rows_as_copies(fixed_point_passes):
    ladder, grid = build_ladder(30, 1.0), np.linspace(0.0, 2.0, 7)
    policy = PrecisionPolicy.bits(120)
    with residues.shared_evaluation():
        first = solve_populations(ladder, times=grid, method="residue", policy=policy)
        second = solve_populations(ladder, times=grid, method="laplace", policy=policy)
    assert len(fixed_point_passes) == 1
    assert np.array_equal(first.populations, second.populations)
    # each table owns its array: editing one leaves the other as evaluated
    first.populations[3, 2] = np.nan
    assert np.isfinite(second.populations).all()
    assert residues._shared is None


def test_shared_evaluation_keys_on_the_width(fixed_point_passes):
    # `ResidueTerm` equality ignores `bits`: equal terms at two widths are two passes
    ladder, grid = build_ladder(30, 1.0), np.linspace(0.0, 2.0, 7)
    with residues.shared_evaluation():
        narrow = evaluate_distribution(ladder, 30, PrecisionPolicy.bits(120), grid)
        wide = evaluate_distribution(ladder, 30, PrecisionPolicy.bits(200), grid)
    assert len(fixed_point_passes) == 2
    assert max(narrow.meta["bits"]) == 120 and max(wide.meta["bits"]) == 200


def test_no_sharing_outside_the_scope(fixed_point_passes):
    ladder, grid = build_ladder(30, 1.0), np.linspace(0.0, 2.0, 7)
    policy = PrecisionPolicy.bits(120)
    for _ in range(2):
        solve_populations(ladder, times=grid, method="residue", policy=policy)
    assert len(fixed_point_passes) == 2
    assert residues._shared is None


def test_nested_shared_evaluation_restores_the_outer_memo(fixed_point_passes):
    ladder, grid = build_ladder(30, 1.0), np.linspace(0.0, 2.0, 7)
    policy = PrecisionPolicy.bits(120)
    with residues.shared_evaluation():
        outer = residues._shared
        evaluate_distribution(ladder, 30, policy, grid)
        with residues.shared_evaluation():
            assert residues._shared is not outer
            evaluate_distribution(ladder, 30, policy, grid)   # a fresh memo
        assert residues._shared is outer
        evaluate_distribution(ladder, 30, policy, grid)       # the outer one's entry
    assert len(fixed_point_passes) == 2
    assert residues._shared is None


# --- rows rounded as they are derived ----------------------------------------

@pytest.mark.parametrize("n, m0, policy", [
    (1, 1, PrecisionPolicy()), (2, 2, PrecisionPolicy()), (2, 1, PrecisionPolicy()),
    (7, 7, PrecisionPolicy()), (7, 4, PrecisionPolicy()),
    (33, 20, PrecisionPolicy.bits(212)), (128, 64, PrecisionPolicy.bits(212)),
    (40, 40, PrecisionPolicy.double()), (40, 40, PrecisionPolicy.bits(60)),
    (64, 64, PrecisionPolicy()),
])
def test_streamed_table_equals_table_of_exact_rows(n, m0, policy):
    ladder = build_ladder(n, 1.0)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 24), [1e4]])
    streamed = evaluate_distribution(ladder, m0, policy, grid)
    rows = [residue_terms(ladder, m, m0, policy) if m <= m0 else None for m in range(n + 1)]
    exact = assemble_table(ladder, m0, grid, rows, "residue", policy)
    assert np.array_equal(streamed.populations, exact.populations)
    for key in ("bits", "error_bound", "t0_defect"):
        assert streamed.meta[key] == exact.meta[key], key


def test_rounded_row_keeps_the_roundings_of_its_term_row():
    ladder = build_ladder(40, 1.0)
    for policy in (PrecisionPolicy.double(), PrecisionPolicy.bits(120)):
        row = residue_terms(ladder, 3, 40, policy)
        rounded = row.rounded
        assert isinstance(rounded, RoundedRow)
        assert (len(rounded), rounded.bits, rounded.bound) == (len(row), row.bits, row.bound)
        assert [t.pole for t in rounded] == [t.pole for t in row]
        assert {t.bits for t in rounded} == {row.bits}
        if row.bits <= 53:
            _, consts, linears = row.doubles
            assert [t.const for t in rounded] == consts.tolist()
            assert [t.linear for t in rounded] == linears.tolist()
        else:
            c_mants, c_exps, l_mants, l_exps = row.mantissas
            assert [t.const for t in rounded] == list(zip(c_mants, c_exps))
            assert [t.linear for t in rounded] == list(zip(l_mants, l_exps))


def test_streamed_table_peak_memory_below_exact_rows():
    # the table keeps each row's rounded operands only, never every row's
    # exact pairs: its peak, evaluation included, measured 0.48 of what the
    # exact rows with their mantissas hold (1.25 when all rows were kept)
    ladder, grid = build_ladder(160, 1.0), np.geomspace(0.005, 5.0, 50)
    evaluate_distribution(ladder, 160, time_grid=grid[:1])   # per-N caches, mpmath
    tracemalloc.start()
    try:
        evaluate_distribution(ladder, 160, time_grid=grid)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.clear_traces()
        rows = [residue_terms(ladder, m, 160) for m in range(161)]
        held_rows = [(row, row.mantissas) for row in rows]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held_rows) == 161
    assert peak < 0.6 * held, (peak, held)

