"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings as they complete.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from constrained_sums import constrained_sum_bruteforce
from dicke.cli import double_precision_onset, escalation_report, main
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.observables import burst_time_grid, emitted_photons, scaling_scan
from dicke.oracles import ConstrainedSumQuery, constrained_sum_residue, integrate_rate_equations
from dicke.precision import PrecisionPolicy
from dicke.residues import evaluate_population, residue_terms
from dicke.spectral import invert_laplace, jordan_decompose, propagate, resolvent_element
from dicke.states import DiagonalState
from dicke.trajectories import estimate
from jordan_diagnostics import reconstruction_defect

GRID = np.linspace(0.0, 5.0, 41)
TOP_TIMES = np.array([0.0, 0.5, 1.25, 2.5, 3.75, 5.0])


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    info: dict = {}
    try:
        yield info
    except BaseException:
        print(f"\nFAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    print(f"\nPASS criterion {number}: {description}"
          f" [{elapsed:.2f} s{'; ' + detail if detail else ''}]")


@pytest.fixture(scope="module")
def ode_tables():
    """Reference integrations for N = 1..64 on the shared grid, with
    per-invocation wall times."""
    out = {}
    for n in range(1, 65):
        ladder = build_ladder(n, 1.0)
        started = time.perf_counter()
        table = integrate_rate_equations(ladder, n, GRID, rel_tol=1e-13, abs_tol=1e-14)
        out[n] = (table, time.perf_counter() - started)
    return out


@pytest.fixture(scope="module")
def exact_decomps():
    out = {}
    for n in range(1, 65):
        out[n] = jordan_decompose(build_ladder(n, 1.0))
    return out


def top_state_from_jordan(n: int, times) -> np.ndarray:
    ladder = build_ladder(n, 1.0)
    decomp = jordan_decompose(ladder, PrecisionPolicy.double())
    start = np.zeros(n + 1)
    start[n] = 1.0
    state = DiagonalState(populations=start, time=0.0)
    return np.array([propagate(decomp, 1.0, float(t), state).populations[n]
                     for t in times])


def test_criterion_1_top_state_closed_form(ode_tables):
    with criterion(1, "rho_N(t) = exp(-N*g*t) at 1e-12 for residue/jordan/laplace/ode, "
                      "N = 1..64, g*t in [0,5], each invocation < 1 s") as info:
        worst = 0.0
        slowest = 0.0
        top_idx = [int(np.argmin(np.abs(GRID - t))) for t in TOP_TIMES]
        for n in range(1, 65):
            ladder = build_ladder(n, 1.0)
            expected = np.exp(-n * TOP_TIMES)

            started = time.perf_counter()
            terms = residue_terms(ladder, n, n)
            vals = np.array([evaluate_population(terms, 1.0, t) for t in TOP_TIMES])
            slowest = max(slowest, time.perf_counter() - started)
            worst = max(worst, np.abs(vals - expected).max())

            started = time.perf_counter()
            terms = invert_laplace(ladder, n, n)
            vals = np.array([evaluate_population(terms, 1.0, t) for t in TOP_TIMES])
            slowest = max(slowest, time.perf_counter() - started)
            worst = max(worst, np.abs(vals - expected).max())

            started = time.perf_counter()
            vals = top_state_from_jordan(n, TOP_TIMES)
            slowest = max(slowest, time.perf_counter() - started)
            worst = max(worst, np.abs(vals - expected).max())

            table, seconds = ode_tables[n]
            slowest = max(slowest, seconds)
            ode_vals = table.populations[n, top_idx]
            worst = max(worst, np.abs(ode_vals - np.exp(-n * GRID[top_idx])).max())

        info["worst_abs_err"] = f"{worst:.2e}"
        info["slowest_invocation_s"] = f"{slowest:.3f}"
        assert worst <= 1e-12
        assert slowest < 1.0


def n2_closed_form(gt: np.ndarray) -> np.ndarray:
    rho2 = np.exp(-2 * gt)
    rho1 = 2 * gt * np.exp(-2 * gt)
    return np.stack([1.0 - rho1 - rho2, rho1, rho2])


def n3_state1_closed_form(gt: np.ndarray) -> np.ndarray:
    return 12 * gt * np.exp(-3 * gt) - 12 * np.exp(-3 * gt) + 12 * np.exp(-4 * gt)


def test_criterion_2_small_n_hand_forms():
    with criterion(2, "hand-derived N=2 and N=3 closed forms matched to 1e-10 "
                      "by every exact method, < 1 s") as info:
        started = time.perf_counter()
        grid = np.linspace(0.0, 2.5, 26)
        worst = 0.0
        expected2 = n2_closed_form(grid)
        expected3 = n3_state1_closed_form(grid)
        for method in ("residue", "jordan", "laplace", "ode"):
            t2 = solve_populations(build_ladder(2, 1.0), times=grid, method=method)
            worst = max(worst, np.abs(t2.populations - expected2).max())
            t3 = solve_populations(build_ladder(3, 1.0), times=grid, method=method)
            worst = max(worst, np.abs(t3.populations[1] - expected3).max())
        # certified series route, on its convergence domain
        small = np.array([0.02, 0.1, 0.2])
        ts = solve_populations(build_ladder(3, 1.0), times=small, method="series",
                               series_order=60, series_tol=1e-12)
        worst = max(worst, np.abs(ts.populations[1] - n3_state1_closed_form(small)).max())
        elapsed = time.perf_counter() - started
        info["worst_abs_err"] = f"{worst:.2e}"
        assert worst <= 1e-10
        assert elapsed < 1.0


def test_criterion_3_cross_method_equivalence(ode_tables, exact_decomps):
    with criterion(3, "residue vs jordan vs laplace vs ode pairwise <= 1e-8, "
                      "N = 1..64, full grid, < 1 min") as info:
        started = time.perf_counter()
        worst = 0.0
        for n in range(1, 65):
            ladder = build_ladder(n, 1.0)
            tables = {
                "residue": solve_populations(ladder, times=GRID, method="residue"),
                "laplace": solve_populations(ladder, times=GRID, method="laplace"),
                "ode": ode_tables[n][0],
            }
            start = np.zeros(n + 1)
            start[n] = 1.0
            state = DiagonalState(populations=start, time=0.0)
            jordan = propagate(exact_decomps[n], 1.0, GRID, state)
            mats = [tables["residue"].populations, tables["laplace"].populations,
                    tables["ode"].populations, jordan]
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    worst = max(worst, float(np.abs(mats[i] - mats[j]).max()))
        elapsed = time.perf_counter() - started
        info["worst_pairwise"] = f"{worst:.2e}"
        assert worst <= 1e-8
        assert elapsed < 60.0


def test_criterion_4_jordan_structure(exact_decomps):
    with criterion(4, "Jordan census (floor(N/2) size-2 blocks) and exact "
                      "reconstruction <= 1e-10, N <= 32") as info:
        worst = 0.0
        for n in range(1, 33):
            decomp = exact_decomps[n]
            doubles = [b for b in decomp.blocks if b[1] == 2]
            singles = [b for b in decomp.blocks if b[1] == 1]
            assert len(doubles) == n // 2
            assert singles.count((0, 1)) == 1
            assert len(singles) == (2 if n % 2 else 1)
            assert sum(size for _, size in decomp.blocks) == n + 1
            worst = max(worst, reconstruction_defect(decomp))
        info["worst_reconstruction"] = f"{worst:.1e}"
        assert worst <= 1e-10


def test_criterion_5_resolvent_identity_and_laplace_duality():
    with criterion(5, "R(z)(z*1 - H) = 1 entrywise <= 1e-12 at 10 random z, "
                      "N <= 16; laplace inversion == residue terms exactly") as info:
        rng = np.random.default_rng(2718)
        worst = 0.0
        for n in range(1, 17):
            ladder = build_ladder(n, 1.0)
            mat = np.zeros((n + 1, n + 1))
            for m in range(n + 1):
                mat[m, m] = -ladder.h[m]
                if m < n:
                    mat[m, m + 1] = ladder.h[m + 1]
            drawn = 0
            while drawn < 10:
                z = complex(rng.normal(scale=3), rng.normal(scale=3))
                if min(abs(z + h) for h in ladder.h) < 0.5:
                    continue
                drawn += 1
                resolvent = np.array([[resolvent_element(ladder, m, mp, z)
                                       for mp in range(n + 1)] for m in range(n + 1)])
                defect = np.abs(resolvent @ (z * np.eye(n + 1) - mat) - np.eye(n + 1)).max()
                worst = max(worst, float(defect))
        assert worst <= 1e-12

        checked = 0
        for n in range(1, 17):
            ladder = build_ladder(n, 1.0)
            for m0 in range(n + 1):
                for m in range(m0 + 1):
                    assert invert_laplace(ladder, m, m0) == residue_terms(ladder, m, m0)
                    checked += 1
        info["worst_identity"] = f"{worst:.1e}"
        info["term_lists_compared"] = checked


def test_criterion_6_constrained_sum_oracle():
    with criterion(6, "constrained-sum residue formula == brute force on 200 "
                      "random queries (exact rationals)") as info:
        rng = np.random.default_rng(137)
        checked = 0
        doubled = 0
        while checked < 200:
            n_t = int(rng.integers(1, 6))
            total = int(rng.integers(0, 13))
            terms = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                     for _ in range(n_t)]
            if n_t >= 2 and rng.random() < 0.35:
                terms[-1] = terms[int(rng.integers(0, n_t - 1))]
            counts = {v: terms.count(v) for v in terms}
            if any(c > 2 for c in counts.values()) \
                    or sum(1 for c in counts.values() if c == 2) > 1:
                continue
            query = ConstrainedSumQuery(tuple(terms), total)
            assert constrained_sum_residue(query) == constrained_sum_bruteforce(query)
            checked += 1
            doubled += any(c == 2 for c in counts.values())
        info["queries"] = checked
        info["with_double_pole"] = doubled
        assert checked == 200


def test_criterion_7_monte_carlo_soundness(cores):
    with criterion(7, "MC N=8, 1e5 trajectories, 20 times: <= 1% of |z| > 3; "
                      "bit-identical under rerun and worker count, < 1 min") as info:
        started = time.perf_counter()
        ladder = build_ladder(8, 1.0)
        grid = np.linspace(0.05, 1.0, 20)
        cores(1)
        first = estimate(ladder, 8, grid, n_traj=100_000, root_seed=123)
        rerun = estimate(ladder, 8, grid, n_traj=100_000, root_seed=123)
        cores(4)
        workers = estimate(ladder, 8, grid, n_traj=100_000, root_seed=123)
        assert np.array_equal(first.counts, rerun.counts)
        assert np.array_equal(first.counts, workers.counts)

        exact = solve_populations(ladder, times=grid, method="residue").populations
        sigma = np.sqrt(np.clip(exact * (1 - exact), 0.0, None) / 100_000)
        mask = sigma > 0
        z = np.abs(first.populations[mask] - exact[mask]) / sigma[mask]
        fraction = float((z > 3.0).mean())
        elapsed = time.perf_counter() - started
        info["fraction_above_3"] = f"{fraction:.4f}"
        info["max_abs_z"] = f"{z.max():.2f}"
        assert fraction < 0.01
        assert elapsed < 60.0


def test_criterion_8_superradiance_signatures():
    with criterion(8, "burst scaling over N in {8..128}: peak-rate exponent in "
                      "[1.8, 2.2], peak-time correlation >= 0.99, < 2 min") as info:
        started = time.perf_counter()
        result = scaling_scan([8, 16, 32, 64, 128], 1.0, solver_choice="ode")
        elapsed = time.perf_counter() - started
        info["exponent"] = f"{result.rate_exponent:.3f}"
        info["correlation"] = f"{result.time_correlation:.4f}"
        assert 1.8 <= result.rate_exponent <= 2.2
        assert result.time_correlation >= 0.99
        assert all(not s.boundary for s in result.summaries)
        assert elapsed < 120.0


def test_criterion_9_conservation_suite():
    with criterion(9, "trace defect <= 1e-9 and populations >= -1e-9 for all exact "
                      "methods up to N=128; photon sum rule to 1e-3, N <= 32") as info:
        grid = np.linspace(0.0, 3.0, 16)
        worst_trace = 0.0
        worst_negative = 0.0
        for n in (16, 33, 64, 128):
            ladder = build_ladder(n, 1.0)
            for method in ("residue", "laplace", "jordan", "ode"):
                table = solve_populations(ladder, times=grid, method=method)
                worst_trace = max(worst_trace, table.trace_defect())
                worst_negative = max(worst_negative, -table.min_population())
        info["worst_trace"] = f"{worst_trace:.2e}"
        info["worst_negative"] = f"{worst_negative:.2e}"
        assert worst_trace <= 1e-9
        assert worst_negative <= 1e-9

        worst_sum_rule = 0.0
        for n, m0 in ((4, 4), (12, 12), (12, 5), (32, 32)):
            ladder = build_ladder(n, 1.0)
            solver = "residue" if n <= 16 else "ode"
            total = emitted_photons(ladder, m0, solver_choice=solver)
            worst_sum_rule = max(worst_sum_rule, abs(total - m0) / m0)
        info["worst_sum_rule_rel"] = f"{worst_sum_rule:.2e}"
        assert worst_sum_rule <= 1e-3


def test_criterion_10_precision_engineering(tmp_path):
    with criterion(10, "bench reports the double-precision failure onset and "
                       "auto escalation recovering N = 256") as info:
        onset = double_precision_onset(n_cap=64)
        assert onset["onset_n"] is not None
        assert onset["onset_n"] > 1
        # double precision really is broken there, and auto really fixes it
        ladder = build_ladder(onset["onset_n"], 1.0)
        grid = np.linspace(0.0, 5.0, 11)
        broken = solve_populations(ladder, times=grid, method="residue",
                                   policy=PrecisionPolicy.double())
        bad = max(broken.trace_defect(), -broken.min_population())
        assert not np.isfinite(bad) or bad > 1e-9
        repaired = solve_populations(ladder, times=grid, method="residue")
        assert repaired.trace_defect() <= 1e-9

        esc = escalation_report(256)
        assert esc["max_bits"] > 53
        assert esc["trace_defect"] <= 1e-9
        assert esc["min_population"] >= -1e-9

        out = tmp_path / "bench.json"
        code = main(["bench", "--n-list", "8,16", "--methods", "residue,ode",
                     "--points", "8", "--find-onset", "--onset-cap", "40",
                     "--out", str(out)])
        assert code == 0
        info["double_onset_n"] = onset["onset_n"]
        info["escalated_bits"] = esc["max_bits"]
        info["n256_trace"] = f"{esc['trace_defect']:.2e}"
