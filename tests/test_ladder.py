import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dicke.ladder import build_ladder, build_rate_matrix
from pole_census import classify_poles


def test_ladder_n4():
    ladder = build_ladder(4, 1.0)
    assert ladder.h == (0, 4, 6, 6, 4)


def test_ladder_n1():
    assert build_ladder(1, 1.0).h == (0, 1)


def test_ladder_n3_degenerate_pair():
    ladder = build_ladder(3, 1.0)
    assert ladder.h == (0, 3, 4, 3)
    assert ladder.h[1] == ladder.h[3] == 3
    assert ladder.h[2] == 4


@pytest.mark.parametrize("bad_n, bad_gamma", [(0, 1.0), (-3, 1.0), (2, 0.0), (2, -1.0),
                                                (2, float("inf")), (2, float("nan"))])
def test_build_ladder_rejects(bad_n, bad_gamma):
    with pytest.raises(ValueError):
        build_ladder(bad_n, bad_gamma)


def test_build_ladder_respects_maximum():
    with pytest.raises(ValueError):
        build_ladder(5000, 1.0)
    assert build_ladder(5000, 1.0, max_emitters=8192).n_emitters == 5000


@given(st.integers(min_value=1, max_value=64))
def test_ladder_symmetry_sweep(n):
    ladder = build_ladder(n, 1.0)
    h = ladder.h
    assert h[0] == 0
    assert h[n] == n
    for m in range(1, n + 1):
        assert h[m] == h[n + 1 - m]
    assert max(h) == math.ceil((n + 1) / 2) * math.floor((n + 1) / 2)


def test_classify_poles_above_equator_simple():
    ladder = build_ladder(4, 1.0)
    poles = classify_poles(ladder, 3, 4).poles
    assert {(p.value, p.multiplicity, p.index) for p in poles} == {(6, 1, 3), (4, 1, 4)}


def test_classify_poles_full_range_n4():
    ladder = build_ladder(4, 1.0)
    poles = classify_poles(ladder, 0, 4).poles
    assert [(p.value, p.multiplicity) for p in poles] == [(0, 1), (4, 2), (6, 2)]


def test_classify_poles_n3():
    ladder = build_ladder(3, 1.0)
    poles = classify_poles(ladder, 1, 3).poles
    assert [(p.value, p.multiplicity) for p in poles] == [(3, 2), (4, 1)]


def test_middle_pole_always_simple_odd_n():
    for n in (3, 5, 7, 9, 33):
        ladder = build_ladder(n, 1.0)
        mid = (n + 1) // 2
        pole_set = classify_poles(ladder, 0, n)
        match = [p for p in pole_set.poles if p.value == ladder.h[mid]]
        assert len(match) == 1 and match[0].multiplicity == 1


def test_classify_poles_rejects_inverted_range():
    ladder = build_ladder(4, 1.0)
    with pytest.raises(ValueError):
        classify_poles(ladder, 4, 3)


@given(st.integers(min_value=1, max_value=40), st.data())
def test_pole_multiplicities_count_occurrences(n, data):
    ladder = build_ladder(n, 1.0)
    m0 = data.draw(st.integers(min_value=0, max_value=n))
    m = data.draw(st.integers(min_value=0, max_value=m0))
    pole_set = classify_poles(ladder, m, m0)
    # the count is the definition: re-counting must be idempotent and <= 2
    values = [ladder.h[k] for k in range(m, m0 + 1)]
    for p in pole_set.poles:
        assert p.multiplicity == values.count(p.value)
        assert p.multiplicity in (1, 2)
        assert p.index == min(k for k in range(m, m0 + 1) if ladder.h[k] == p.value)
    assert pole_set.total_multiplicity() == m0 - m + 1


def test_target_n_single_simple_pole():
    for n in (1, 2, 5, 16):
        ladder = build_ladder(n, 1.0)
        poles = classify_poles(ladder, n, n).poles
        assert len(poles) == 1
        assert poles[0].multiplicity == 1
        assert poles[0].value == n


def test_double_pole_census_fully_inverted():
    # below the equator the number of doubled values follows the ladder shape
    for n in (4, 6, 8, 10):
        ladder = build_ladder(n, 1.0)
        for m in range(0, (n + 1) // 2):
            doubles = sum(1 for p in classify_poles(ladder, m, n).poles
                          if p.multiplicity == 2)
            assert doubles == n // 2 - max(m - 1, 0)
        for m in range(n // 2 + 1, n + 1):
            assert all(p.multiplicity == 1 for p in classify_poles(ladder, m, n).poles)


def test_rate_matrix_n1():
    mat = build_rate_matrix(build_ladder(1, 1.0)).to_dense()
    assert np.array_equal(mat, np.array([[-1.0, 0.0], [1.0, 0.0]]))


def test_rate_matrix_n2():
    rm = build_rate_matrix(build_ladder(2, 1.0))
    assert rm.diagonal == (-2, -2, 0)
    assert rm.subdiagonal == (2, 2)


@given(st.integers(min_value=1, max_value=64))
def test_rate_matrix_columns_conserve(n):
    mat = build_rate_matrix(build_ladder(n, 1.0)).to_dense()
    assert np.array_equal(mat.sum(axis=0), np.zeros(n + 1))
    eigenvalues = sorted(np.diag(mat))
    assert eigenvalues == sorted(-h for h in build_ladder(n, 1.0).h)


def test_rate_matrix_first_recursion_step():
    n = 6
    ladder = build_ladder(n, 1.0)
    mat = build_rate_matrix(ladder).to_dense()
    inverted = np.zeros(n + 1)
    inverted[0] = 1.0  # top-down ordering: first component is state N
    derivative = mat @ inverted
    assert derivative[0] == -ladder.h[n]
