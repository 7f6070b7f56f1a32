"""Shared result containers: single-time states and time-grid tables."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class DiagonalState:
    """Length-(N+1) probability vector over ladder states at one time.

    Index is the physical excitation number m (0 = ground).  Values are
    kept raw; any clamping to [0, 1] is a reporting concern.
    """

    populations: np.ndarray
    time: float

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        pops.setflags(write=False)
        object.__setattr__(self, "populations", pops)
        check_times(self.time)

    def trace_defect(self) -> float:
        return abs(float(self.populations.sum()) - 1.0)

    def validate(self, tol: float = 1e-9) -> None:
        if self.trace_defect() > tol:
            raise ValueError(f"populations sum defect {self.trace_defect():.3e} exceeds {tol:.1e}")
        if self.populations.min() < -tol or self.populations.max() > 1 + tol:
            raise ValueError("populations leave [0, 1] beyond tolerance")


def check_times(t) -> np.ndarray:
    """`t`, one time or a 1-d grid of times in any order, as a float array;
    `ValueError` for a time that is negative or not finite."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.isfinite(times).all() or np.any(times < 0):
        raise ValueError(f"t must be a finite nonnegative time or 1-d grid, got {t}")
    return times


def check_time_grid(times) -> np.ndarray:
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.isfinite(grid).all():
        raise ValueError("time grid must be finite")
    if grid[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("time grid must be strictly increasing")
    return grid


@dataclass
class EvolutionTable:
    """Populations on a time grid: rows are states m = 0..N, columns times.

    `meta` carries per-method provenance (per-row widths and bounds, t=0
    reconstruction defects, integrator statistics, ...).  `std_errors` is
    populated by the Monte Carlo engine only.
    """

    n_emitters: int
    gamma: float
    initial_m0: int
    times: np.ndarray
    populations: np.ndarray
    method: str
    meta: dict = field(default_factory=dict)
    std_errors: np.ndarray | None = None

    def __post_init__(self):
        self.times = check_time_grid(self.times)
        self.populations = np.asarray(self.populations, dtype=float)
        expected = (self.n_emitters + 1, self.times.size)
        if self.populations.shape != expected:
            raise ValueError(f"populations shape {self.populations.shape} != {expected}")

    def trace_defect(self) -> float:
        return float(np.abs(self.populations.sum(axis=0) - 1.0).max())

    def min_population(self) -> float:
        return float(self.populations.min())
