"""Independent low-tech oracles used to certify the closed-form solvers.

Four routes that share no code with the residue/Jordan machinery:

* the exact integer recursion for the power-series coefficients of each
  population, summed with a rigorous truncation certificate,
* the residue formula for the constrained monomial sums (the tests
  check it against a brute-force enumeration),
* first-order discrete-time Markov propagation (jump probability
  h_k*g*dt per step),
* a reference integration of the bidiagonal rate equations by LSODA
  (scipy's ODEPACK wrapper, switching between Adams and BDF as the
  problem turns stiff) with the exact banded Jacobian, driven once per
  grid time and sampled from LSODA's own interpolant, so its table
  equals `solve_ivp(method="LSODA", t_eval=grid)`'s bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ladder import DickeLadder
from .states import DiagonalState, EvolutionTable, check_time_grid

# Default tolerances of `integrate_rate_equations`, read by every caller.
# LSODA delivers about the accuracy it is asked for, so they sit close to
# the float64 floor.  A rel_tol below 100 * eps is refused: solve_ivp
# would raise it to that floor, so the recorded tolerance would not be the
# one used and the table would no longer be solve_ivp's.
DEFAULT_REL_TOL = 1e-13
DEFAULT_ABS_TOL = 1e-15
MIN_REL_TOL = 100 * float(np.finfo(float).eps)


class TruncationError(ArithmeticError):
    """Partial sum cannot certify the requested tolerance."""

    def __init__(self, message: str, bound: float):
        super().__init__(message)
        self.bound = bound


class StiffnessError(RuntimeError):
    """The reference integrator reported a failure."""


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
    populations = discrete_time_table(ladder, initial_m0, delta_t, [steps])[:, 0]
    return DiagonalState(populations=populations, time=steps * delta_t)


def check_delta_t(ladder: DickeLadder, delta_t: float) -> None:
    """`ValueError` unless 0 < dt < 1/(gamma*h_max), where every step's
    jump probability h_k*g*dt is below 1; NaN and infinity are refused,
    before any division by dt."""
    if not (delta_t > 0 and ladder.gamma * delta_t * ladder.h_max < 1.0):
        raise ValueError(
            f"delta_t must be finite and satisfy 0 < dt < 1/(gamma*h_max) = "
            f"{1.0 / (ladder.gamma * ladder.h_max):.3e}, got {delta_t}")


def discrete_time_table(ladder: DickeLadder, initial_m0: int, delta_t: float,
                        steps) -> np.ndarray:
    """The chain of `discrete_time_propagate` after each of the
    nondecreasing step counts `steps`, one column each, from one pass."""
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")
    counts = np.diff([0, *steps])   # steps to take before each column
    if (counts < 0).any():
        raise ValueError("steps must be nonnegative and nondecreasing")
    check_delta_t(ladder, delta_t)
    d = ladder.gamma * delta_t * ladder.h_array()
    s = 1.0 - d
    pops = np.zeros(n + 1)
    pops[initial_m0] = 1.0
    table = np.empty((n + 1, counts.size))
    for j, count in enumerate(counts):
        for _ in range(count):
            jumped = d * pops
            pops = s * pops
            pops[:-1] += jumped[1:]
        table[:, j] = pops
    return table


def rate_band(ladder: DickeLadder) -> np.ndarray:
    """The rate equations' Jacobian g * H in m-ordering, packed as a
    2 x (N+1) band: H is upper-bidiagonal, so row 0 holds the gains
    g * h_m in columns 1..N (column 0 unused) and row 1 the losses -g * h_m."""
    h = ladder.h_array()
    band = np.zeros((2, h.size))
    band[0, 1:] = ladder.gamma * h[1:]
    band[1] = -ladder.gamma * h
    return band


def integrate_rate_equations(ladder: DickeLadder, initial_m0: int, time_grid,
                             rel_tol: float = DEFAULT_REL_TOL,
                             abs_tol: float = DEFAULT_ABS_TOL) -> EvolutionTable:
    """Reference integration of rho' = g * H * rho by LSODA, sampled on the
    grid.  The Jacobian is the constant band from `rate_band`, so the
    stiff (BDF) phase factors a bidiagonal matrix and no step is capped
    by the fastest rate; the error is about what the tolerances ask for.

    LSODA runs as `solve_ivp(method="LSODA", t_eval=grid)` runs it, with
    t_end as the critical time it never steps past: one step toward
    t_end, then one call per grid time the last step does not reach, so
    Python runs once per grid time, not once per step.  Each grid time
    is read from the Nordsieck array of the step that covers it, as
    solve_ivp's dense output reads it, so the table, nfev, njev and nlu
    equal solve_ivp's exactly.  A rel_tol below MIN_REL_TOL is refused,
    since solve_ivp would silently raise it."""
    if not (MIN_REL_TOL <= rel_tol < math.inf and 0 < abs_tol < math.inf):
        raise ValueError(f"need {MIN_REL_TOL:.3g} <= rel_tol and 0 < abs_tol, both "
                         f"finite; got rel_tol={rel_tol}, abs_tol={abs_tol}")
    grid = check_time_grid(time_grid)
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")
    from scipy.integrate import ode

    h = ladder.h_array()
    gamma = ladder.gamma
    loss, gain = -h, h[1:]

    def rhs(_t, y):
        dy = loss * y
        dy[:-1] += gain * y[1:]
        dy *= gamma
        return dy

    band = rate_band(ladder)
    y0 = np.zeros(n + 1)
    y0[initial_m0] = 1.0
    meta = {"method": "ode", "integrator": "LSODA", "rel_tol": rel_tol, "abs_tol": abs_tol,
            "nfev": 0, "njev": 0, "nlu": 0}
    t_end = float(grid[-1])
    if t_end == 0.0:
        return EvolutionTable(n_emitters=n, gamma=gamma, initial_m0=initial_m0,
                              times=grid, populations=y0[:, None], method="ode", meta=meta)

    solver = ode(rhs, lambda _t, _y: band)
    solver.set_integrator("lsoda", rtol=rel_tol, atol=abs_tol, lband=0, uband=1,
                          nsteps=np.iinfo(np.int32).max)
    solver.set_initial_value(y0, 0.0)
    lsoda = solver._integrator
    rwork, iwork = lsoda.rwork, lsoda.iwork
    rwork[0] = t_end                # tcrit: no step passes t_end
    lsoda.call_args[4] = rwork
    # LSODA's tcrit test: a step ending this close to t_end ends at t_end
    near = 100 * np.finfo(float).eps
    columns = []
    done, itask = 0, 5              # itask 5: one step, picked as solve_ivp picks it
    with warnings.catch_warnings():
        # scipy reports a failed call by a UserWarning; it goes into the error
        warnings.filterwarnings("error", message="lsoda", category=UserWarning)
        while done < grid.size:
            target = t_end if itask == 5 else grid[done]
            lsoda.call_args[2] = itask
            try:
                solver.integrate(target)
            except UserWarning as failure:
                raise StiffnessError(f"integrator failed at t = {rwork[12]:.6g}: "
                                     f"{failure}") from None
            if not solver.successful():
                raise StiffnessError(f"integrator failed at t = {rwork[12]:.6g}")
            step_h, t_step = rwork[11], rwork[12]
            if abs(t_step - t_end) <= near * (abs(t_step) + abs(step_h)):
                t_step = t_end
            # a step of size zero covers no grid time
            stop = int(grid.searchsorted(t_step, side="right")) if step_h else done
            if stop == done and itask == 4:
                raise StiffnessError(f"integrator stalled at t = {t_step:.6g} (step "
                                     f"{step_h:.3g}) before the grid time {target:.6g}")
            if stop > done:
                # LSODA._dense_output_impl and LsodaDenseOutput, verbatim
                order = iwork[13]
                yh = np.reshape(rwork[20:20 + (order + 1) * y0.size],
                                (y0.size, order + 1), order="F").copy()
                if iwork[14] < order:
                    yh[:, -1] *= (step_h / rwork[10]) ** order
                x = ((grid[done:stop] - t_step) / step_h) ** np.arange(order + 1)[:, None]
                columns.append(np.dot(yh, x))
            # itask 4: on to the next grid time, never stepping past t_end
            done, itask = stop, 4
    meta.update(nfev=int(iwork[11]), njev=int(iwork[12]), nlu=int(iwork[12]))
    return EvolutionTable(n_emitters=n, gamma=gamma, initial_m0=initial_m0,
                          times=grid, populations=np.hstack(columns), method="ode", meta=meta)
