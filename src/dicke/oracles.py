"""Independent low-tech oracles used to certify the closed-form solvers.

Four routes that share no code with the residue/Jordan machinery:

* the exact integer recursion for the power-series coefficients of each
  population, summed with a rigorous truncation certificate,
* brute-force enumeration of the constrained monomial sums plus their
  residue-formula counterpart (the enumeration is the authority),
* first-order discrete-time Markov propagation (jump probability
  h_k*g*dt per step),
* an adaptive embedded Runge-Kutta reference integration of the
  bidiagonal rate equations (scipy's DOP853 behind this module's
  contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ladder import DickeLadder
from .states import DiagonalState, EvolutionTable, check_time_grid


class TruncationError(ArithmeticError):
    """Partial sum cannot certify the requested tolerance."""

    def __init__(self, message: str, bound: float):
        super().__init__(message)
        self.bound = bound


class StiffnessError(RuntimeError):
    """Adaptive integrator drove the step size below usefulness."""


class UnsupportedDegeneracyError(ValueError):
    """Constrained-sum residue formula limited to at most one repeated value."""


@dataclass(frozen=True)
class SeriesCoefficients:
    """Exact table rho_m^(n): rho_m(t) = sum_n (g*t)^n / n! * rho_m^(n)."""

    n_emitters: int
    initial_m0: int
    order: int
    table: tuple[tuple[int, ...], ...]   # [m][n], exact integers

    def column(self, order: int) -> tuple[int, ...]:
        return tuple(self.table[m][order] for m in range(self.n_emitters + 1))


def series_coefficients(ladder: DickeLadder, initial_m0: int, n_max: int) -> SeriesCoefficients:
    """Build the coefficient table by the ladder recursion
    rho_m^(n+1) = -h_m rho_m^(n) + h_{m+1} rho_{m+1}^(n), exactly."""
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    h = ladder.h
    current = [0] * (n + 1)
    current[initial_m0] = 1
    cols = [tuple(current)]
    for _ in range(n_max):
        nxt = [0] * (n + 1)
        for m in range(n + 1):
            val = -h[m] * current[m]
            if m < n:
                val += h[m + 1] * current[m + 1]
            nxt[m] = val
        cols.append(tuple(nxt))
        current = nxt
    table = tuple(tuple(cols[k][m] for k in range(n_max + 1)) for m in range(n + 1))
    return SeriesCoefficients(n_emitters=n, initial_m0=initial_m0, order=n_max, table=table)


def series_tail_bound(h_max: int, gamma: float, t: float, n_max: int) -> float:
    """Rigorous tail bound from |rho^(n)| <= (2*h_max)^n: geometric
    majorant starting at order n_max + 1."""
    x = 2.0 * h_max * gamma * t
    if x == 0.0:
        return 0.0
    ratio = x / (n_max + 2)
    if ratio >= 1.0:
        return math.inf
    log_lead = (n_max + 1) * math.log(x) - math.lgamma(n_max + 2)
    return math.exp(log_lead) / (1.0 - ratio)


def evaluate_series(coeffs: SeriesCoefficients, gamma: float, t: float,
                    tol: float = 1e-12) -> tuple[DiagonalState, float]:
    """Certified partial sum: exact rational evaluation of the truncated
    series plus the tail bound; refuses when the bound misses `tol`."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    h_max = max(m * (coeffs.n_emitters + 1 - m) for m in range(coeffs.n_emitters + 1))
    bound = series_tail_bound(h_max, gamma, t, coeffs.order)
    if bound > tol:
        raise TruncationError(
            f"truncation bound {bound:.3e} above requested tolerance {tol:.1e}", bound=bound)

    gt = Fraction(gamma) * Fraction(t)
    weights = [Fraction(1)]
    for k in range(1, coeffs.order + 1):
        weights.append(weights[-1] * gt / k)
    pops = np.empty(coeffs.n_emitters + 1)
    for m in range(coeffs.n_emitters + 1):
        acc = Fraction(0)
        row = coeffs.table[m]
        for k in range(coeffs.order + 1):
            if row[k]:
                acc += row[k] * weights[k]
        pops[m] = float(acc)
    return DiagonalState(populations=pops, time=t), bound


@dataclass(frozen=True)
class ConstrainedSumQuery:
    """Sum of a_1^{i_1} ... a_k^{i_k} over exponent tuples with total M."""

    terms: tuple[Fraction, ...]
    total_degree: int

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("need at least one term")
        if self.total_degree < 0:
            raise ValueError("total degree must be nonnegative")
        object.__setattr__(self, "terms", tuple(Fraction(a) for a in self.terms))


def constrained_sum_bruteforce(query: ConstrainedSumQuery,
                               enumeration_cap: int = 10 ** 7) -> Fraction:
    """Exact nested enumeration over all exponent compositions."""
    n_t = len(query.terms)
    size = math.comb(query.total_degree + n_t - 1, n_t - 1)
    if size > enumeration_cap:
        raise ValueError(f"enumeration size {size} exceeds cap {enumeration_cap}")

    def rec(idx: int, remaining: int) -> Fraction:
        if idx == n_t - 1:
            return query.terms[idx] ** remaining
        total = Fraction(0)
        for e in range(remaining + 1):
            total += query.terms[idx] ** e * rec(idx + 1, remaining - e)
        return total

    return rec(0, query.total_degree)


def constrained_sum_residue(query: ConstrainedSumQuery) -> Fraction:
    """Residue evaluation of the generating function z^{M + n_t - 1} /
    prod(z - a_k).

    The correct power is M + n_t - 1 (fixed against the brute-force
    oracle); at most one value may repeat, and then exactly twice.
    """
    a = query.terms
    n_t = len(a)
    exponent = query.total_degree + n_t - 1

    counts: dict[Fraction, int] = {}
    for v in a:
        counts[v] = counts.get(v, 0) + 1
    repeated = [v for v, c in counts.items() if c > 1]
    if any(c > 2 for c in counts.values()) or len(repeated) > 1:
        raise UnsupportedDegeneracyError(
            "residue formula supports at most one doubly repeated value")

    if not repeated:
        total = Fraction(0)
        for k, ak in enumerate(a):
            den = Fraction(1)
            for j, aj in enumerate(a):
                if j != k:
                    den *= ak - aj
            total += ak ** exponent / den
        return total

    v = repeated[0]
    others = [x for x in a if x != v]
    total = Fraction(0)
    for k, ak in enumerate(others):
        den = (ak - v) ** 2
        for j, aj in enumerate(others):
            if j != k:
                den *= ak - aj
        total += ak ** exponent / den
    # double pole: d/dz [z^E * prod 1/(z - a_j)] at z = v
    p = Fraction(1)
    for aj in others:
        p /= v - aj
    deriv = Fraction(0)
    if exponent > 0:
        deriv += exponent * v ** (exponent - 1) * p
    s = sum((Fraction(1) / (v - aj) for aj in others), Fraction(0))
    deriv -= v ** exponent * p * s
    return total + deriv


def discrete_time_propagate(ladder: DickeLadder, initial_m0: int,
                            delta_t: float, steps: int) -> DiagonalState:
    """First-order Markov chain: per step, jump probability h_k*g*dt and
    survival 1 - h_k*g*dt.  O(dt) accurate at fixed t = steps*dt."""
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    d = ladder.gamma * delta_t * ladder.h_array()
    if delta_t <= 0 or d.max() >= 1.0:
        raise ValueError(
            f"delta_t must satisfy 0 < dt < 1/(gamma*h_max) = "
            f"{1.0 / (ladder.gamma * ladder.h_max):.3e}, got {delta_t}")
    s = 1.0 - d
    pops = np.zeros(n + 1)
    pops[initial_m0] = 1.0
    for _ in range(steps):
        jumped = d * pops
        pops = s * pops
        pops[:-1] += jumped[1:]
    return DiagonalState(populations=pops, time=steps * delta_t)


def integrate_rate_equations(ladder: DickeLadder, initial_m0: int, time_grid,
                             rel_tol: float = 1e-10, abs_tol: float = 1e-12) -> EvolutionTable:
    """Reference adaptive integration of rho' = g * H * rho with dense
    output on the grid.  The step ceiling is tied to the fastest rate
    1/(g*h_max); explicit embedded pair, no implicit machinery."""
    if rel_tol <= 0 or abs_tol <= 0:
        raise ValueError("tolerances must be positive")
    grid = check_time_grid(time_grid)
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")
    from scipy.integrate import solve_ivp

    h = ladder.h_array()
    gamma = ladder.gamma
    loss, gain = -h, h[1:]

    def rhs(_t, y):
        dy = loss * y
        dy[:-1] += gain * y[1:]
        dy *= gamma
        return dy

    y0 = np.zeros(n + 1)
    y0[initial_m0] = 1.0
    t_end = float(grid[-1])
    if t_end == 0.0:
        populations = y0[:, None].copy()
        meta = {"method": "ode", "rel_tol": rel_tol, "abs_tol": abs_tol, "nfev": 0}
        return EvolutionTable(n_emitters=n, gamma=gamma, initial_m0=initial_m0,
                              times=grid, populations=populations, method="ode", meta=meta)

    max_step = 2.0 / (gamma * ladder.h_max)
    with np.errstate(invalid="ignore", divide="ignore"):
        # the embedded error norm divides 0/0 once the state is exactly zero
        sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", t_eval=grid,
                        rtol=rel_tol, atol=abs_tol, max_step=max_step)
    if not sol.success:
        raise StiffnessError(f"integrator failed: {sol.message}")
    meta = {"method": "ode", "rel_tol": rel_tol, "abs_tol": abs_tol,
            "nfev": int(sol.nfev), "max_step": max_step}
    return EvolutionTable(n_emitters=n, gamma=gamma, initial_m0=initial_m0,
                          times=grid, populations=sol.y, method="ode", meta=meta)
