"""Single entry point running any solver into a population table."""

from __future__ import annotations

import numpy as np

from .ladder import DickeLadder
from .oracles import (DEFAULT_ABS_TOL, DEFAULT_REL_TOL, check_delta_t, discrete_time_table,
                      evaluate_series, integrate_rate_equations, series_coefficients)
from .precision import PrecisionPolicy
from .residues import RoundedRow, assemble_table, evaluate_distribution, rows_meta
from .states import DiagonalState, EvolutionTable, check_time_grid
from .trajectories import estimate

METHODS = ("residue", "jordan", "laplace", "series", "ode", "discrete", "mc")
EXACT_METHODS = ("residue", "jordan", "laplace", "series", "ode")


def solve_populations(ladder: DickeLadder, initial_m0: int | None = None,
                      times=None, method: str = "residue",
                      policy: PrecisionPolicy | None = None,
                      rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = DEFAULT_ABS_TOL,
                      series_order: int = 80, series_tol: float = 1e-10,
                      delta_t: float | None = None,
                      n_traj: int = 100_000, seed: int = 0) -> EvolutionTable:
    """Populations on a grid by the chosen method.

    `policy` steers the residue/laplace/jordan working precision;
    `rel_tol`/`abs_tol` the reference integrator; `series_order` and
    `series_tol` the certified power series; `delta_t` the first-order
    discrete chain; `n_traj`/`seed` the Monte Carlo engine.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    grid = check_time_grid(times)
    n = ladder.n_emitters
    m0 = n if initial_m0 is None else int(initial_m0)
    if not (0 <= m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {m0}")
    policy = policy or PrecisionPolicy()

    if method == "residue":
        return evaluate_distribution(ladder, m0, policy, grid)

    if method == "laplace":
        from .spectral import ResolventColumn, invert_laplace
        # a column per solve, so nothing outlives it; rows are read as it
        # steps down, and each keeps only its rounded operands
        column = ResolventColumn(ladder, m0)
        rows: list[RoundedRow | None] = [None] * (n + 1)
        for m in range(m0, -1, -1):
            rows[m] = RoundedRow(invert_laplace(ladder, m, m0, column=column), policy)
        return assemble_table(ladder, m0, grid, rows, "laplace", policy)

    if method == "jordan":
        from .spectral import jordan_decompose, jordan_rows, propagate
        decomp = jordan_decompose(ladder, policy)
        initial = DiagonalState(populations=np.eye(n + 1)[m0], time=0.0)
        populations = propagate(decomp, ladder.gamma, grid, initial)
        meta = rows_meta(jordan_rows(decomp, initial.populations), m0, "jordan", policy)
        return EvolutionTable(n_emitters=n, gamma=ladder.gamma, initial_m0=m0, times=grid,
                              populations=populations, method="jordan", meta=meta)

    if method == "series":
        coeffs = series_coefficients(ladder, m0, series_order)
        populations = np.empty((n + 1, grid.size))
        worst_bound = 0.0
        for j, t in enumerate(grid):
            state, bound = evaluate_series(coeffs, ladder.gamma, float(t), tol=series_tol)
            populations[:, j] = state.populations
            worst_bound = max(worst_bound, bound)
        meta = {"method": "series", "order": series_order, "tail_bound": worst_bound}
        return EvolutionTable(n_emitters=n, gamma=ladder.gamma, initial_m0=m0,
                              times=grid, populations=populations, method="series",
                              meta=meta)

    if method == "ode":
        return integrate_rate_equations(ladder, m0, grid, rel_tol=rel_tol, abs_tol=abs_tol)

    if method == "discrete":
        dt = delta_t if delta_t is not None else 0.1 / (ladder.gamma * ladder.h_max)
        check_delta_t(ladder, dt)
        steps = [int(round(float(t) / dt)) for t in grid]
        populations = discrete_time_table(ladder, m0, dt, steps)
        meta = {"method": "discrete", "delta_t": dt}
        return EvolutionTable(n_emitters=n, gamma=ladder.gamma, initial_m0=m0,
                              times=grid, populations=populations, method="discrete",
                              meta=meta)

    mc = estimate(ladder, m0, grid, n_traj=n_traj, root_seed=seed)
    meta = {"method": "mc", "n_traj": n_traj, "seed": seed,
            "chunk_size": mc.chunk_size, "chunks": mc.chunks,
            "library_streams": mc.library_streams}
    return EvolutionTable(n_emitters=n, gamma=ladder.gamma, initial_m0=m0,
                          times=grid, populations=mc.populations, method="mc",
                          meta=meta, std_errors=mc.std_errors)
