import math
from fractions import Fraction

import numpy as np
import pytest

from dicke.ladder import build_ladder
from dicke.oracles import integrate_rate_equations
from dicke.methods import solve_populations
from dicke import residues, spectral
from dicke.precision import PrecisionError, PrecisionPolicy
from dicke.residues import exact_terms, residue_terms
from dicke.spectral import (ResolventColumn, SingularityError, _t11_inv_row, _t22_inv_row,
                            _v_components, _w_components, eigenvector,
                            generalized_eigenvector, invert_laplace, jordan_decompose,
                            jordan_rows, jordan_terms, propagate, resolvent_element)
from dicke.states import DiagonalState
from fraction_reference import fraction_terms, pair
from jordan_diagnostics import (reconstruction_defect, similarity, similarity_inverse,
                                tilde_inv)


def fractions(entries):
    return [Fraction(*x) for x in entries]


def dense_generator(ladder):
    """H in physical ordering (upper bidiagonal)."""
    n = ladder.n_emitters
    mat = np.zeros((n + 1, n + 1))
    for m in range(n + 1):
        mat[m, m] = -ladder.h[m]
        if m < n:
            mat[m, m + 1] = ladder.h[m + 1]
    return mat


def test_zero_mode_is_ground_state_indicator():
    for n in (1, 2, 5, 12):
        vec = eigenvector(build_ladder(n, 1.0), n + 1)
        expected = np.zeros(n + 1)
        expected[0] = 1.0
        assert np.array_equal(vec, expected)


def test_eigenvector_residual_n2():
    ladder = build_ladder(2, 1.0)
    vec = eigenvector(ladder, 2)
    residual = dense_generator(ladder) @ vec + 2 * vec
    assert np.abs(residual).max() <= 1e-12


def test_eigenvector_residuals_sweep():
    for n in range(1, 21):
        ladder = build_ladder(n, 1.0)
        mat = dense_generator(ladder)
        labels = list(range((n + 1) // 2 + 1, n + 2))
        if n % 2 == 1:
            labels.insert(0, (n + 1) // 2)
        for j in labels:
            vec = eigenvector(ladder, j)
            lam = 0 if j == n + 1 else ladder.h[j]
            scale = max(1.0, np.abs(vec).max() * ladder.h_max)
            assert np.abs(mat @ vec + lam * vec).max() <= 1e-12 * scale


def test_middle_eigenvector_odd_n_has_no_partner():
    ladder = build_ladder(5, 1.0)
    vec = eigenvector(ladder, 3)  # simple middle eigenvalue
    mat = dense_generator(ladder)
    assert np.abs(mat @ vec + ladder.h[3] * vec).max() <= 1e-10
    with pytest.raises(ValueError):
        generalized_eigenvector(ladder, 3)


def test_eigenvector_rejects_out_of_range():
    ladder = build_ladder(4, 1.0)
    with pytest.raises(ValueError):
        eigenvector(ladder, 1)
    with pytest.raises(ValueError):
        eigenvector(ladder, 6)
    # even N: the middle label belongs to the doubled branch, not a lone vector
    with pytest.raises(ValueError):
        eigenvector(ladder, 2)


def test_generalized_eigenvector_defect_equation():
    for n, j in ((2, 2), (4, 3), (4, 4), (9, 6), (12, 8)):
        ladder = build_ladder(n, 1.0)
        mat = dense_generator(ladder)
        w = generalized_eigenvector(ladder, j)
        v = eigenvector(ladder, j)
        scale = max(1.0, np.abs(w).max() * ladder.h_max)
        assert np.abs(mat @ w + ladder.h[j] * w - v).max() <= 1e-12 * scale


def test_no_generalized_vectors_for_n1():
    with pytest.raises(ValueError):
        generalized_eigenvector(build_ladder(1, 1.0), 1)


def test_jordan_blocks_n2():
    decomp = jordan_decompose(build_ladder(2, 1.0))
    assert decomp.blocks == ((-2, 2), (0, 1))


def test_jordan_blocks_n3():
    decomp = jordan_decompose(build_ladder(3, 1.0))
    assert decomp.blocks == ((-4, 1), (-3, 2), (0, 1))


def test_jordan_block_census():
    for n in range(1, 33):
        decomp = jordan_decompose(build_ladder(n, 1.0))
        doubles = [b for b in decomp.blocks if b[1] == 2]
        singles = [b for b in decomp.blocks if b[1] == 1]
        assert len(doubles) == n // 2
        assert sum(size for _, size in decomp.blocks) == n + 1
        assert singles.count((0, 1)) == 1
        if n % 2 == 1:
            mid = (n + 1) // 2
            assert (-build_ladder(n, 1.0).h[mid], 1) in singles
            assert len(singles) == 2
        else:
            assert len(singles) == 1


def test_tilde_is_lower_triangular():
    for n in (2, 3, 8, 13):
        decomp = jordan_decompose(build_ladder(n, 1.0))
        for i in range(n + 1):
            for k in range(i + 1, n + 1):
                assert decomp.tilde[i][k] == (0, 1)


def test_tilde_inverse_is_exact_inverse():
    for n in (1, 2, 3, 4, 7, 10, 16):
        decomp = jordan_decompose(build_ladder(n, 1.0))
        inverse = tilde_inv(decomp)
        dim = n + 1
        for i in range(dim):
            for c in range(dim):
                acc = Fraction(0)
                for k in range(dim):
                    acc += Fraction(*decomp.tilde[i][k]) * inverse[k][c]
                assert acc == (1 if i == c else 0)


def test_apply_inverse_matches_full_inverse():
    for n in range(1, 33):
        decomp = jordan_decompose(build_ladder(n, 1.0))
        inverse = tilde_inv(decomp)
        for i in range(n + 1):
            unit = [(int(k == i), 1) for k in range(n + 1)]
            assert fractions(decomp.apply_inverse(unit)) == \
                [row[i] for row in inverse], (n, i)


def test_propagation_never_forms_the_inverse(monkeypatch):
    # the inverse is formed only with `Fraction`s, in the diagnostics
    def forbidden(cls, *args, **kwargs):
        raise AssertionError("Fraction built outside the diagnostics")
    monkeypatch.setattr(Fraction, "__new__", forbidden)
    decomp = jordan_decompose(build_ladder(24, 1.0))
    out = propagate(decomp, 1.0, np.array([0.0, 0.3]),
                    DiagonalState(populations=np.eye(25)[12], time=0.0))
    assert np.abs(out.sum(axis=0) - 1).max() < 1e-12


def test_per_time_propagation_converts_coefficients_once(monkeypatch):
    decomp = jordan_decompose(build_ladder(16, 1.0), PrecisionPolicy.double())
    start = DiagonalState(populations=np.eye(17)[16], time=0.0)
    first = propagate(decomp, 1.0, 0.5, start).populations
    calls = []
    for name in ("resolve_bits", "round_to_bits"):
        func = getattr(residues, name)
        monkeypatch.setattr(residues, name,
                            lambda *args, name=name, func=func: calls.append(name) or func(*args))
    # later times reuse the rows and the rounded coefficients kept on them
    assert np.array_equal(propagate(decomp, 1.0, 0.5, start).populations, first)
    propagate(decomp, 1.0, 1.5, start)
    assert calls == []


def test_similarity_permutation_consistency():
    decomp = jordan_decompose(build_ladder(6, 1.0))
    t = similarity(decomp)
    tinv = similarity_inverse(decomp)
    assert np.abs(t @ tinv - np.eye(7)).max() < 1e-9


def test_reconstruction_defect_exact_zero():
    for n in range(1, 33):
        defect = reconstruction_defect(jordan_decompose(build_ladder(n, 1.0)))
        assert defect <= 1e-10  # exact entries: identically 0
        assert defect == 0.0


def product_v(h, n, j, m):
    """Eigenvector component from its full product formula (zero above N+1-j)."""
    mbar = n + 1 - m
    if m > n + 1 - j:
        return Fraction(0)
    acc = Fraction(1)
    for i in range(j + 1, mbar + 1):
        acc *= Fraction(h[i - 1], h[i] - h[j])
    return acc


def product_w(h, n, j, m):
    """Jordan-partner component from its full product and tail-sum formulas."""
    mbar = n + 1 - m
    if n + 1 - j < m <= j:
        acc = Fraction(1, h[j - 1])
        for i in range(mbar + 1, j):
            acc *= Fraction(h[i] - h[j], h[i - 1])
        return acc
    if m > j:
        return Fraction(0)
    tail = sum((Fraction(1, h[i] - h[j]) for i in range(mbar + 1, n + 2)), Fraction(0))
    return product_v(h, n, j, m) * tail


def product_t11_inv(h, n, m, j):
    """Generalized-vector inverse block entry, labels mid < m <= j <= N."""
    mid = (n + 1) // 2
    acc = Fraction(h[m])
    for i in range(m + 1, j + 1):
        acc *= Fraction(h[i], h[i] - h[m])
    for i in range(mid + 1, m):
        acc *= Fraction(h[i], h[i] - h[m]) ** 2
    if n % 2 == 1:
        acc *= Fraction(h[mid], h[mid] - h[m])
    return acc


def product_t22_inv(h, n, m, j):
    """Eigenvector inverse block entry, state m, label j <= N+1-m."""
    mbar = n + 1 - m
    acc = Fraction(1)
    for i in range(j, mbar):
        acc *= Fraction(h[i], h[i] - h[mbar])
    return acc


def test_running_products_match_product_formulas():
    # the builders accumulate each column and row as one running product;
    # every entry must equal its own closed-form product with ==
    for n in range(1, 41):
        h = [m * (n + 1 - m) for m in range(n + 2)]  # h_{N+1} = 0
        mid = (n + 1) // 2
        v_labels = range(n + 1 - mid, n + 2)
        w_labels = range(mid + 1, n + 1)
        for j in v_labels:
            v = _v_components(h, n, j)
            assert fractions(v) == [product_v(h, n, j, m) for m in range(n + 1)], (n, j)
            if j in w_labels:
                assert fractions(_w_components(h, n, j, v)) == \
                    [product_w(h, n, j, m) for m in range(n + 1)], (n, j)
        for m in w_labels:  # row m, columns j = N..mid+1
            assert fractions(_t11_inv_row(h, n, m)) == [
                product_t11_inv(h, n, m, j) if j >= m else 0 for j in range(n, mid, -1)], (n, m)
        for m in range(mid + 1):  # row m, columns j ascending over v_labels
            assert fractions(_t22_inv_row(h, n, m)) == [
                product_t22_inv(h, n, m, j) if j <= n + 1 - m else 0 for j in v_labels], (n, m)


def assert_jordan_terms_exact(ladder, starts):
    n = ladder.n_emitters
    decomp = jordan_decompose(ladder)
    for m0 in starts:
        rows = jordan_terms(decomp, np.eye(n + 1)[m0])
        for m in range(n + 1):
            expected = exact_terms(ladder, m, m0) if m <= m0 else []
            assert fraction_terms(rows[m]) == fraction_terms(expected), (n, m, m0)


def test_jordan_terms_equal_exact_terms():
    # the eigenvector route and the residue closed form are independent
    # derivations of the same expansion; with exact entries they agree with ==
    for n in range(1, 33):
        assert_jordan_terms_exact(build_ladder(n, 1.0), range(n + 1))
    assert_jordan_terms_exact(build_ladder(64, 1.0), [64])
    assert_jordan_terms_exact(build_ladder(65, 1.0), [65, 32])


def test_jordan_n65_table_matches_residue():
    ladder = build_ladder(65, 1.0)
    grid = np.array([0.0, 0.01, 0.05, 0.2, 1.0])
    jordan = solve_populations(ladder, times=grid, method="jordan")
    residue = solve_populations(ladder, times=grid, method="residue")
    assert np.abs(jordan.populations - residue.populations).max() <= 1e-12


def test_propagate_t0_is_identity():
    ladder = build_ladder(9, 1.0)
    decomp = jordan_decompose(ladder)
    rng = np.random.default_rng(5)
    pops = rng.random(10)
    pops /= pops.sum()
    state = DiagonalState(populations=pops, time=0.0)
    out = propagate(decomp, 1.0, 0.0, state)
    assert np.abs(out.populations - pops).max() < 1e-12


def test_propagate_n2_closed_form():
    decomp = jordan_decompose(build_ladder(2, 1.0))
    start = DiagonalState(populations=np.array([0.0, 0.0, 1.0]), time=0.0)
    out = propagate(decomp, 1.0, 1.0, start)
    expected = np.array([1.0 - 3 * math.exp(-2), 2 * math.exp(-2), math.exp(-2)])
    assert np.abs(out.populations - expected).max() < 1e-13


def test_propagate_matches_ode_on_random_states():
    rng = np.random.default_rng(11)
    grid = np.array([0.0, 0.2, 0.9, 2.5])
    for n in (3, 6, 10):
        ladder = build_ladder(n, 1.0)
        decomp = jordan_decompose(ladder)
        pops = rng.random(n + 1)
        pops /= pops.sum()
        reference = None
        for m0 in range(n + 1):  # ODE of the mixture = mixture of ODE solutions
            tab = integrate_rate_equations(ladder, m0, grid)
            reference = tab.populations * pops[m0] if reference is None \
                else reference + tab.populations * pops[m0]
        state = DiagonalState(populations=pops, time=0.0)
        for idx, t in enumerate(grid):
            out = propagate(decomp, 1.0, float(t), state)
            assert np.abs(out.populations - reference[:, idx]).max() < 1e-9


def test_propagate_grid_matches_single_times():
    ladder = build_ladder(12, 1.0)
    decomp = jordan_decompose(ladder)
    state = DiagonalState(populations=np.eye(13)[9], time=0.0)
    grid = np.array([0.0, 0.1, 0.7, 3.0])
    table = propagate(decomp, 1.0, grid, state)
    assert table.shape == (13, 4)
    for j, t in enumerate(grid):
        assert np.array_equal(table[:, j], propagate(decomp, 1.0, float(t), state).populations)
    with pytest.raises(ValueError):
        propagate(decomp, 1.0, np.array([0.0, -0.1]), state)


def test_propagate_semigroup_property():
    rng = np.random.default_rng(3)
    for n in (4, 7, 10):
        ladder = build_ladder(n, 1.0)
        decomp = jordan_decompose(ladder)
        pops = rng.random(n + 1)
        pops /= pops.sum()
        state = DiagonalState(populations=pops, time=0.0)
        t1, t2 = 0.37, 1.21
        two_steps = propagate(decomp, 1.0, t2, propagate(decomp, 1.0, t1, state))
        one_step = propagate(decomp, 1.0, t1 + t2, state)
        assert np.abs(two_steps.populations - one_step.populations).max() < 1e-9


def test_propagate_conserves_trace():
    ladder = build_ladder(16, 1.0)
    decomp = jordan_decompose(ladder)
    start = np.zeros(17)
    start[16] = 1.0
    for t in (0.05, 0.5, 3.0):
        out = propagate(decomp, 1.0, t, DiagonalState(populations=start, time=0.0))
        assert out.trace_defect() < 1e-12


def test_resolvent_diagonal_top_state():
    ladder = build_ladder(5, 1.0)
    z = 0.3 + 0.7j
    assert resolvent_element(ladder, 5, 5, z) == pytest.approx(1.0 / (z + 5))


def test_resolvent_strict_support():
    ladder = build_ladder(5, 1.0)
    assert resolvent_element(ladder, 3, 1, 1.0 + 1.0j) == 0j


def test_resolvent_element_structure():
    from dicke.spectral import resolvent_matrix_element

    ladder = build_ladder(4, 1.0)
    element = resolvent_matrix_element(ladder, 1, 3)
    assert element.poles == (4, 6, 6)
    assert element.numerator == 36  # h_2 * h_3
    empty = resolvent_matrix_element(ladder, 3, 1)
    assert empty.poles == () and empty.numerator == 0
    assert empty.evaluate(2.0 + 1.0j) == 0j


def test_resolvent_pole_hit():
    ladder = build_ladder(3, 1.0)
    with pytest.raises(SingularityError):
        resolvent_element(ladder, 1, 3, -3.0 + 0j)


def test_resolvent_identity():
    rng = np.random.default_rng(7)
    for n in (4, 9, 16):
        ladder = build_ladder(n, 1.0)
        mat = dense_generator(ladder)
        draws = [1.0 + 1.0j] + [complex(rng.normal(), rng.normal()) * 3.0
                                for _ in range(10)]
        for z in draws:
            if min(abs(z + h) for h in ladder.h) < 1e-3:
                continue
            resolvent = np.array([[resolvent_element(ladder, m, mp, z)
                                   for mp in range(n + 1)] for m in range(n + 1)])
            identity = resolvent @ (z * np.eye(n + 1) - mat)
            assert np.abs(identity - np.eye(n + 1)).max() < 1e-12


def test_invert_laplace_equals_residue_terms_exactly():
    for n in range(1, 17):
        ladder = build_ladder(n, 1.0)
        for m0 in range(n + 1):
            for m in range(m0 + 1):
                assert (fraction_terms(invert_laplace(ladder, m, m0))
                        == fraction_terms(residue_terms(ladder, m, m0)))


def test_invert_laplace_n2_double_pole():
    terms = invert_laplace(build_ladder(2, 1.0), 1, 2)
    assert [(t.pole, t.multiplicity, t.const, t.linear) for t in terms] == \
        [(2, 2, Fraction(0), Fraction(2))]


def test_invert_laplace_diagonal_single_term():
    ladder = build_ladder(6, 1.0)
    for m in (0, 2, 6):
        terms = invert_laplace(ladder, m, m)
        assert [(t.pole, t.const, t.linear) for t in terms] == \
            [(ladder.h[m], Fraction(1), Fraction(0))]


def test_invert_laplace_n3_ground_state():
    terms = invert_laplace(build_ladder(3, 1.0), 0, 3)
    assert sum((t.const for t in terms), Fraction(0)) == 0  # t=0 occupation vanishes
    by_pole = {t.pole: t.multiplicity for t in terms}
    assert by_pole == {0: 1, 3: 2, 4: 1}


def column_terms(ladder, m0):
    """Raw (pole, multiplicity, const, linear) tuples of every row of one
    resolvent column, stepped from m0 down."""
    column = ResolventColumn(ladder, m0)
    for m in range(m0, -1, -1):
        column.step_to(m)
        yield m, column.terms()


def test_resolvent_column_equals_exact_terms():
    for n in range(1, 41):
        ladder = build_ladder(n, 1.0)
        for m0 in sorted({n, n // 2, max(n - 3, 0)}):
            for m, raw in column_terms(ladder, m0):
                assert fraction_terms(raw) == fraction_terms(exact_terms(ladder, m, m0)), \
                    (n, m0, m)


@pytest.mark.parametrize("n", [64, 256])
def test_resolvent_column_equals_exact_terms_fully_inverted(n):
    ladder = build_ladder(n, 1.0)
    for m, raw in column_terms(ladder, n):
        assert fraction_terms(raw) == fraction_terms(exact_terms(ladder, m, n)), (n, m)


def test_invert_laplace_walks_one_column():
    ladder = build_ladder(11, 1.0)
    column = ResolventColumn(ladder, 9)
    for m in range(9, -1, -1):
        assert invert_laplace(ladder, m, 9, column=column) == invert_laplace(ladder, m, 9)
    assert column.row == 0
    # a column only moves down, and only serves its own ladder and start
    with pytest.raises(ValueError):
        invert_laplace(ladder, 1, 9, column=column)
    with pytest.raises(ValueError):
        invert_laplace(ladder, 0, 8, column=column)
    with pytest.raises(ValueError):
        invert_laplace(build_ladder(12, 1.0), 0, 9, column=column)
    with pytest.raises(ValueError):
        invert_laplace(ladder, 5, 4)


def test_laplace_solves_share_no_column(monkeypatch):
    rows = []
    descend = ResolventColumn._descend

    def recording(self):
        descend(self)
        rows.append(self.row)

    monkeypatch.setattr(ResolventColumn, "_descend", recording)
    grid = [0.0, 0.3, 1.0]
    tables = []
    for _ in range(2):   # equal ladders, hashed alike: each solve steps the whole column
        rows.clear()
        tables.append(solve_populations(build_ladder(14, 1.0), 11, grid, method="laplace"))
        assert rows == list(range(11, -1, -1))
    assert np.array_equal(tables[0].populations, tables[1].populations)


def perturbed_entry(builder, label, m):
    """`builder` with entry m of the column for `label` moved by 1e-30."""
    def wrapper(h, n, j, *rest):
        out = builder(h, n, j, *rest)
        if j == label:
            out = list(out)
            out[m] = pair(Fraction(*out[m]) + Fraction(1, 10**30))
        return out
    return wrapper


@pytest.mark.parametrize("n", [2, 7, 8])
def test_perturbed_v_column_is_rejected(monkeypatch, n):
    ladder = build_ladder(n, 1.0)
    label = n   # a doubled value, with a Jordan partner
    for m in range(n + 1):
        monkeypatch.setattr(spectral, "_v_components",
                            perturbed_entry(_v_components, label, m))
        with pytest.raises(ArithmeticError):
            eigenvector(ladder, label)
        with pytest.raises(ArithmeticError):
            jordan_decompose(ladder)
    monkeypatch.undo()
    assert reconstruction_defect(jordan_decompose(ladder)) == 0.0


@pytest.mark.parametrize("n", [2, 7, 8])
def test_perturbed_w_column_is_rejected(monkeypatch, n):
    ladder = build_ladder(n, 1.0)
    for label in range((n + 1) // 2 + 1, n + 1):
        for m in range(n + 1):
            monkeypatch.setattr(spectral, "_w_components",
                                perturbed_entry(_w_components, label, m))
            with pytest.raises(ArithmeticError):
                generalized_eigenvector(ladder, label)
            with pytest.raises(ArithmeticError):
                jordan_decompose(ladder)


def test_jordan_policy_modes():
    ladder = build_ladder(40, 1.0)
    auto = jordan_decompose(ladder)
    double = jordan_decompose(ladder, PrecisionPolicy.double())
    # the mode sets only the propagation widths, never the entries
    assert double.tilde == auto.tilde and tilde_inv(double) == tilde_inv(auto)
    assert double.t11_inv == auto.t11_inv and double.t22_inv == auto.t22_inv
    assert double.bits == auto.bits == 53
    start = DiagonalState(populations=np.eye(41)[40], time=0.0)
    widths = [row.bits for row in jordan_rows(auto, start.populations)]
    assert max(widths) > 53
    assert {row.bits for row in jordan_rows(double, start.populations)} == {53}
    capped = jordan_decompose(ladder, PrecisionPolicy(max_bits=max(widths) - 1))
    with pytest.raises(PrecisionError):
        propagate(capped, 1.0, 0.8, start)
    a = propagate(auto, 1.0, 0.8, start)
    b = propagate(jordan_decompose(ladder, PrecisionPolicy.bits(4 * 40 + 200)), 1.0, 0.8, start)
    assert np.abs(a.populations - b.populations).max() < 1e-12
