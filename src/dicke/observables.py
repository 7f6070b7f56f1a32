"""Derived physical quantities: radiated power, burst location, scaling.

The photon emission rate is g * sum_m h_m * rho_m(t); its transient
maximum (height growing like N^2, time like ln(N)/(N*g)) is the burst
signature these diagnostics quantify.  Scaling claims are checked as
fitted-exponent windows, never as exact constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ladder import DickeLadder, build_ladder
from .methods import solve_populations
from .states import EvolutionTable


class GridTooCoarseError(ValueError):
    """Emission maximum sits on the right edge of the sampled window."""


@dataclass(frozen=True)
class EmissionCurve:
    times: np.ndarray
    rate: np.ndarray             # photons per unit time
    n_emitters: int
    initial_m0: int
    source_method: str


@dataclass(frozen=True)
class BurstSummary:
    n_emitters: int
    peak_time: float
    peak_rate: float
    boundary: bool               # maximum at the left grid edge (monotone decay)


def emission_curve(table: EvolutionTable, ladder: DickeLadder) -> EmissionCurve:
    """rate_j = g * sum_m h_m rho_m(t_j) from a population table."""
    if table.n_emitters != ladder.n_emitters:
        raise ValueError("table and ladder describe different ensembles")
    rate = ladder.gamma * (ladder.h_array() @ table.populations)
    return EmissionCurve(times=table.times, rate=rate, n_emitters=ladder.n_emitters,
                         initial_m0=table.initial_m0, source_method=table.method)


def _parabolic_refine(times: np.ndarray, rate: np.ndarray, idx: int) -> tuple[float, float]:
    """Vertex of the quadratic through the grid point and its neighbors."""
    t0, t1, t2 = times[idx - 1:idx + 2]
    r0, r1, r2 = rate[idx - 1:idx + 2]
    denom = (t1 - t0) * (r1 - r2) - (t1 - t2) * (r1 - r0)
    if denom == 0:
        return float(times[idx]), float(rate[idx])
    t_peak = t1 - 0.5 * ((t1 - t0) ** 2 * (r1 - r2) - (t1 - t2) ** 2 * (r1 - r0)) / denom
    # evaluate the fitted quadratic at its vertex (Lagrange form)
    l0 = (t_peak - t1) * (t_peak - t2) / ((t0 - t1) * (t0 - t2))
    l1 = (t_peak - t0) * (t_peak - t2) / ((t1 - t0) * (t1 - t2))
    l2 = (t_peak - t0) * (t_peak - t1) / ((t2 - t0) * (t2 - t1))
    return float(t_peak), float(r0 * l0 + r1 * l1 + r2 * l2)


def burst_summary(curve: EmissionCurve) -> BurstSummary:
    """Grid argmax with local quadratic refinement.

    A maximum at the left edge is reported honestly with the boundary
    flag (small ensembles decay monotonically); a maximum on the right
    edge means the window missed the peak and is an error.
    """
    idx = int(np.argmax(curve.rate))
    if idx == curve.rate.size - 1 and curve.rate.size > 1:
        raise GridTooCoarseError(
            "emission maximum on the right grid edge; extend or refine the window")
    if idx == 0:
        return BurstSummary(n_emitters=curve.n_emitters, peak_time=float(curve.times[0]),
                            peak_rate=float(curve.rate[0]), boundary=True)
    t_peak, r_peak = _parabolic_refine(curve.times, curve.rate, idx)
    return BurstSummary(n_emitters=curve.n_emitters, peak_time=t_peak,
                        peak_rate=r_peak, boundary=False)


def burst_time_grid(n_emitters: int, gamma: float, points: int = 400) -> np.ndarray:
    """Log grid bracketing the expected burst time ln(N)/(N*g)."""
    t_guess = max(math.log(max(n_emitters, 2)), 1.0) / (n_emitters * gamma)
    return np.geomspace(t_guess / 50.0, t_guess * 50.0, points)


@dataclass(frozen=True)
class ScanResult:
    summaries: tuple[BurstSummary, ...]
    rate_exponent: float         # slope of ln(peak_rate) vs ln(N)
    time_slope: float            # peak_time vs ln(N)/(N*gamma)
    time_intercept: float
    time_correlation: float      # Pearson r of that regression
    excluded: tuple[int, ...]    # boundary-peaked N dropped from the fits


def scaling_scan(n_list, gamma: float, solver_choice: str = "ode",
                 grid_points: int = 400) -> ScanResult:
    """Burst summaries across ensemble sizes plus the fitted scaling laws."""
    n_list = [int(n) for n in n_list]
    if any(n < 2 for n in n_list):
        raise ValueError("scaling scan needs N >= 2")
    if len(set(n_list)) != len(n_list):
        # a repeated size adds a duplicate point that makes the fits degenerate
        raise ValueError(f"scaling scan needs distinct sizes, got {n_list}")
    summaries = []
    for n in n_list:
        ladder = build_ladder(n, gamma)
        grid = burst_time_grid(n, gamma, grid_points)
        table = solve_populations(ladder, initial_m0=n, times=grid, method=solver_choice)
        summaries.append(burst_summary(emission_curve(table, ladder)))

    fit = [s for s in summaries if not s.boundary]
    excluded = tuple(s.n_emitters for s in summaries if s.boundary)
    if len(fit) < 2:
        raise ValueError("need at least two interior-peaked sizes to fit the scaling laws")
    ln_n = np.log([s.n_emitters for s in fit])
    ln_rate = np.log([s.peak_rate for s in fit])
    rate_exponent = float(np.polyfit(ln_n, ln_rate, 1)[0])

    x = np.array([math.log(s.n_emitters) / (s.n_emitters * gamma) for s in fit])
    y = np.array([s.peak_time for s in fit])
    slope, intercept = np.polyfit(x, y, 1)
    correlation = float(np.corrcoef(x, y)[0, 1])
    return ScanResult(summaries=tuple(summaries), rate_exponent=rate_exponent,
                      time_slope=float(slope), time_intercept=float(intercept),
                      time_correlation=correlation, excluded=excluded)


def emitted_photons(ladder: DickeLadder, initial_m0: int,
                    rel_tol: float = 1e-4, solver_choice: str = "residue") -> float:
    """Integral of the emission rate out to where it has decayed away;
    equals the initial excitation number m0 by conservation."""
    gamma = ladder.gamma
    if initial_m0 == 0:
        return 0.0
    # every decay rate on the path is >= h_1*g = N*g, so the tail is fast
    t_end = 40.0 / (ladder.n_emitters * gamma)
    floor = 1e-12 * ladder.n_emitters * gamma
    while True:
        head = np.linspace(0.0, t_end / 10.0, 2001)
        tail = np.geomspace(t_end / 10.0, t_end, 2001)[1:]
        grid = np.concatenate([head, tail])
        table = solve_populations(ladder, initial_m0=initial_m0, times=grid,
                                  method=solver_choice)
        curve = emission_curve(table, ladder)
        if curve.rate[-1] < floor:
            break
        t_end *= 2.0
    # the trapezoid rule written out: np.trapezoid needs NumPy 2.0
    t, r = curve.times, curve.rate
    return float((np.diff(t) * (r[1:] + r[:-1]) / 2.0).sum())
