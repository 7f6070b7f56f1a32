import math

import numpy as np
import pytest

from dicke import observables
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.observables import (GridTooCoarseError, burst_summary, burst_time_grid,
                               emission_curve, emitted_photons, scaling_scan)


def test_emission_single_emitter_exponential():
    ladder = build_ladder(1, 1.0)
    grid = np.linspace(0.0, 3.0, 31)
    table = solve_populations(ladder, times=grid, method="residue")
    curve = emission_curve(table, ladder)
    assert np.abs(curve.rate - np.exp(-grid)).max() < 1e-14


def test_emission_initial_rate_is_start_rate():
    for n, m0 in ((2, 2), (5, 5), (5, 3), (8, 1)):
        ladder = build_ladder(n, 1.3)
        grid = np.linspace(0.0, 1.0, 5)
        table = solve_populations(ladder, initial_m0=m0, times=grid, method="residue")
        curve = emission_curve(table, ladder)
        assert curve.rate[0] == pytest.approx(1.3 * ladder.h[m0], rel=1e-13)


def test_emission_n2_value():
    # oracle: the hand-solved N=2 populations at g*t = 0.25
    ladder = build_ladder(2, 1.0)
    table = solve_populations(ladder, times=np.array([0.0, 0.25]), method="residue")
    curve = emission_curve(table, ladder)
    assert curve.rate[1] == pytest.approx(3 * math.exp(-0.5), abs=1e-13)


def test_emission_rate_nonnegative_and_decaying():
    ladder = build_ladder(16, 1.0)
    grid = np.linspace(0.0, 4.0, 200)
    curve = emission_curve(solve_populations(ladder, times=grid, method="residue"), ladder)
    assert curve.rate.min() >= -1e-10
    assert curve.rate[-1] < 1e-6 * curve.rate.max()


def test_burst_single_emitter_boundary():
    ladder = build_ladder(1, 1.0)
    grid = np.linspace(0.0, 3.0, 31)
    curve = emission_curve(solve_populations(ladder, times=grid, method="residue"), ladder)
    summary = burst_summary(curve)
    assert summary.boundary
    assert summary.peak_time == 0.0
    assert summary.peak_rate == pytest.approx(1.0)


def test_burst_n2_reported_honestly_at_boundary():
    # the N=2 emission curve is monotone decreasing: no interior peak exists
    ladder = build_ladder(2, 1.0)
    grid = np.linspace(0.0, 3.0, 400)
    curve = emission_curve(solve_populations(ladder, times=grid, method="residue"), ladder)
    assert (np.diff(curve.rate) < 0).all()
    summary = burst_summary(curve)
    assert summary.boundary
    assert summary.peak_time == 0.0
    assert summary.peak_rate == pytest.approx(2.0)


def test_burst_right_edge_is_an_error():
    ladder = build_ladder(64, 1.0)
    grid = np.linspace(0.0, 0.01, 20)  # window ends before the burst
    curve = emission_curve(solve_populations(ladder, times=grid, method="ode"), ladder)
    with pytest.raises(GridTooCoarseError):
        burst_summary(curve)


def test_burst_n64_bracket():
    ladder = build_ladder(64, 1.0)
    grid = burst_time_grid(64, 1.0)
    curve = emission_curve(solve_populations(ladder, times=grid, method="ode"), ladder)
    summary = burst_summary(curve)
    assert not summary.boundary
    scale = 64 ** 2 / 4
    assert 0.1 * scale < summary.peak_rate < 10 * scale
    assert summary.peak_rate >= curve.rate.max()  # refinement only improves the grid max
    idx = int(np.argmax(curve.rate))
    assert curve.times[idx - 1] <= summary.peak_time <= curve.times[idx + 1]


def test_scaling_scan_small():
    result = scaling_scan([8, 16, 32], 1.0, solver_choice="ode", grid_points=250)
    assert 1.5 < result.rate_exponent < 2.5
    assert result.time_correlation > 0.98
    assert result.excluded == ()


def test_scaling_scan_excludes_boundary_sizes():
    result = scaling_scan([2, 8, 16, 32], 1.0, solver_choice="ode", grid_points=250)
    assert 2 in result.excluded
    assert all(s.boundary == (s.n_emitters == 2) for s in result.summaries)


def test_scaling_scan_rejects_n1():
    with pytest.raises(ValueError):
        scaling_scan([1, 8], 1.0)


def test_scaling_scan_rejects_repeated_sizes():
    with pytest.raises(ValueError, match="distinct"):
        scaling_scan([8, 16, 8], 1.0)


def test_photon_sum_rule_full_inversion():
    for n in (2, 5, 12):
        ladder = build_ladder(n, 1.0)
        total = emitted_photons(ladder, n)
        assert abs(total - n) / n < 1e-3


def test_photon_sum_rule_partial_inversion():
    ladder = build_ladder(6, 1.0)
    for m0 in (0, 1, 4):
        total = emitted_photons(ladder, m0)
        if m0 == 0:
            assert total == 0.0
        else:
            assert abs(total - m0) / m0 < 1e-3


def test_method_independence_of_emission():
    for n in (12, 32):
        ladder = build_ladder(n, 1.0)
        grid = np.linspace(0.0, 2.0, 41)
        curves = {}
        for method in ("residue", "jordan", "ode"):
            table = solve_populations(ladder, times=grid, method=method)
            curves[method] = emission_curve(table, ladder).rate
        assert np.abs(curves["residue"] - curves["jordan"]).max() < 1e-8
        assert np.abs(curves["residue"] - curves["ode"]).max() < 1e-8


def test_emission_rejects_mismatched_ladder():
    table = solve_populations(build_ladder(3, 1.0), times=[0.0, 1.0], method="residue")
    with pytest.raises(ValueError):
        emission_curve(table, build_ladder(4, 1.0))


def test_emitted_photons_is_numpy_trapezoid(monkeypatch):
    # the rule is written out so that NumPy 1.x runs it; it must stay NumPy's own
    trapezoid = getattr(np, "trapezoid", None)
    if trapezoid is None:
        pytest.skip("np.trapezoid arrived in NumPy 2.0")
    curves = []

    def capture(table, ladder):
        curves.append(emission_curve(table, ladder))
        return curves[-1]

    monkeypatch.setattr(observables, "emission_curve", capture)
    for n, m0 in ((6, 6), (9, 4)):
        total = emitted_photons(build_ladder(n, 1.0), m0)
        assert total == float(trapezoid(curves[-1].rate, curves[-1].times))
