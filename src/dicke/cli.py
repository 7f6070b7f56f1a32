"""Command-line frontend: solve / compare / trajectories / scan / bench.

Exit codes: 0 success, 2 usage or configuration error (an unwritable
--out path included), 3 numerical or precision failure, 4 cross-method
comparison failure.  Failures emit a machine-readable JSON error object
on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .io import emit_json, write_csv, write_json
from .ladder import build_ladder
from .methods import EXACT_METHODS, METHODS, solve_populations
from .observables import scaling_scan
from .oracles import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, StiffnessError, TruncationError
from .precision import PrecisionError, PrecisionPolicy
from .residues import shared_evaluation
from .workers import WorkerError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_COMPARISON = 4


def _policy_from_args(args) -> PrecisionPolicy:
    # --max-bits 0 leaves the cap to PrecisionPolicy's default
    if args.precision == "double":
        return PrecisionPolicy(mode="double", max_bits=args.max_bits)
    if args.precision == "bits":
        return PrecisionPolicy(mode="bits", mantissa_bits=args.bits, max_bits=args.max_bits)
    return PrecisionPolicy(mode="auto", target_defect=args.target_defect,
                           max_bits=args.max_bits)


def _spacing(n: int, spacing: str) -> str:
    # large ensembles burst at t ~ ln(N)/(N*g); linear grids waste the points
    if spacing != "auto":
        return spacing
    return "log" if n >= 64 else "linear"


def _time_grid(n: int, t_max: float, points: int, spacing: str = "auto",
               t_min: float | None = None) -> np.ndarray:
    """The request's time grid: linear from t_min (default 0), or log from
    t_min (default t_max/1000); `auto` spacing is log from N = 64 up."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    for name, value in (("t_max", t_max), ("t_min", t_min)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if _spacing(n, spacing) == "linear":
        return np.linspace(0.0 if t_min is None else t_min, t_max, points)
    start = t_max * 1e-3 if t_min is None else t_min
    if start <= 0:
        raise ValueError("log grids need t_min > 0")
    return np.geomspace(start, t_max, points)


def _solve(args, method: str):
    """Build the ladder, grid and policy a request's flags ask for, and
    solve it by `method`."""
    policy = _policy_from_args(args)
    times = _time_grid(args.n, args.t_max, args.points, args.grid, args.t_min)
    ladder = build_ladder(args.n, args.gamma)
    table = solve_populations(
        ladder, initial_m0=args.initial, times=times, method=method, policy=policy,
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, series_order=args.series_order,
        delta_t=args.delta_t, n_traj=args.ntraj, seed=args.seed)
    return ladder, table


def _describe(args, method: str) -> dict:
    """The `config` block of a request's output."""
    policy = _policy_from_args(args)
    return {
        "n_emitters": args.n,
        "gamma": args.gamma,
        "initial_m0": args.n if args.initial is None else args.initial,
        "t_max": args.t_max,
        "t_min": args.t_min,
        "grid_points": args.points,
        "grid_spacing": _spacing(args.n, args.grid),
        "method": method,
        "precision": {
            "mode": policy.mode,
            "mantissa_bits": policy.mantissa_bits,
            "target_defect": policy.target_defect,
            "max_bits": policy.max_bits,
        },
        "rel_tol": args.rel_tol,
        "abs_tol": args.abs_tol,
        "mc": {"n_traj": args.ntraj, "seed": args.seed},
    }


def _require_finite(table) -> None:
    """Raise FloatingPointError if the populations or a number in the
    metadata are NaN or infinite, which strict JSON cannot carry."""
    for name, values in [("populations", table.populations), *table.meta.items()]:
        if isinstance(values, (float, list, np.ndarray)):
            finite = np.isfinite(np.asarray(values, dtype=float))
            if not finite.all():
                raise FloatingPointError(
                    f"the {table.method} table has {int((~finite).sum())} non-finite values "
                    f"in {name}; --precision auto or more --bits avoids the overflow")


def cmd_solve(args) -> int:
    ladder, table = _solve(args, args.method)
    _require_finite(table)
    if args.out is not None and args.format == "csv":
        write_csv(table, ladder, args.out, digits=args.digits)
    else:
        write_json(table, ladder, args.out, _describe(args, args.method))
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = _parse_methods(args.methods)
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    if len(set(methods)) < len(methods):
        # a method compared with itself reports a difference of 0 and proves nothing
        raise UsageError(f"compare needs distinct methods, got {args.methods!r}")
    exact = [m for m in methods if m in EXACT_METHODS]
    if not exact:
        # discrete and mc are only ever set against an exact table: with
        # none there is no gated pair and no z-scores
        raise UsageError(f"compare needs an exact method ({', '.join(EXACT_METHODS)}), "
                         f"got {args.methods!r}")
    if not args.tol >= 0:
        raise UsageError(f"--tol must be a nonnegative number, got {args.tol}")

    # residue, laplace and jordan rows that are `==` share one evaluation
    with shared_evaluation():
        tables = {m: _solve(args, m)[1] for m in methods}
    report = {"schema": 1, "config": _describe(args, methods[0]),
              "methods": methods, "pairs": [], "mc": None, "tolerance": args.tol}

    def max_diff(a: str, b: str) -> float:
        with np.errstate(invalid="ignore"):   # inf - inf is NaN
            return float(np.abs(tables[a].populations - tables[b].populations).max())

    # a NaN or infinite difference fails the gate and is written as null
    worst = 0.0
    for i, a in enumerate(exact):
        for b in exact[i + 1:]:
            diff = max_diff(a, b)
            worst = max(worst, diff if math.isfinite(diff) else math.inf)
            report["pairs"].append({"a": a, "b": b, "max_abs_diff": diff})
    if "discrete" in methods:
        for a in exact:
            diff = max_diff(a, "discrete")
            report["pairs"].append({"a": a, "b": "discrete", "max_abs_diff": diff,
                                    "gated": False})
    if "mc" in methods:
        ref = tables[exact[0]].populations
        mc = tables["mc"]
        sigma = np.sqrt(np.clip(ref * (1.0 - ref), 0.0, None) / mc.meta["n_traj"])
        ok = sigma > 0
        z = np.zeros_like(ref)
        z[ok] = (mc.populations[ok] - ref[ok]) / sigma[ok]
        report["mc"] = {
            "reference": exact[0],
            "fraction_abs_z_above_3": float((np.abs(z) > 3.0).mean()),
            "max_abs_z": float(np.abs(z).max()),
        }

    emit_json(report, args.out)
    if worst > args.tol:
        _report_error({"kind": "comparison", "max_abs_diff": worst, "tolerance": args.tol})
        return EXIT_COMPARISON
    return EXIT_OK


def cmd_scan(args) -> int:
    n_list = _parse_n_list(args.n_list)
    result = scaling_scan(n_list, args.gamma, solver_choice=args.method,
                          grid_points=args.points)
    report = {
        "schema": 1,
        "gamma": args.gamma,
        "method": args.method,
        "summaries": [
            {"n_emitters": s.n_emitters, "peak_time": s.peak_time,
             "peak_rate": s.peak_rate, "boundary": s.boundary}
            for s in result.summaries],
        "rate_exponent": result.rate_exponent,
        "time_slope": result.time_slope,
        "time_intercept": result.time_intercept,
        "time_correlation": result.time_correlation,
        "excluded": list(result.excluded),
    }
    emit_json(report, args.out)
    return EXIT_OK


def double_precision_onset(gamma: float = 1.0, n_cap: int = 64,
                           trace_tol: float = 1e-9, t_max: float = 5.0) -> dict:
    """Smallest N whose fully inverted double-precision residue table
    breaks the trace criterion (or goes negative beyond it)."""
    grid = np.linspace(0.0, t_max, 11)
    policy = PrecisionPolicy.double()
    for n in range(2, n_cap + 1):
        ladder = build_ladder(n, gamma)
        table = solve_populations(ladder, times=grid, method="residue", policy=policy)
        with np.errstate(invalid="ignore"):   # inf - inf is NaN
            defect = table.trace_defect()
        negative = -table.min_population()
        if not np.isfinite(defect) or defect > trace_tol or negative > trace_tol:
            return {"onset_n": n, "trace_defect": float(defect),
                    "min_population": float(table.min_population()),
                    "trace_tol": trace_tol}
    return {"onset_n": None, "trace_defect": None, "min_population": None,
            "trace_tol": trace_tol, "note": f"no violation up to N={n_cap}"}


def escalation_report(n_emitters: int, gamma: float = 1.0, t_max: float = 5.0,
                      policy: PrecisionPolicy | None = None) -> dict:
    """Show auto escalation recovering the trace criterion at large N."""
    ladder = build_ladder(n_emitters, gamma)
    grid = np.linspace(0.0, t_max, 5)
    started = time.perf_counter()
    table = solve_populations(ladder, times=grid, method="residue",
                              policy=policy or PrecisionPolicy())
    return {
        "n_emitters": n_emitters,
        "max_bits": int(max(table.meta["bits"])),
        "trace_defect": table.trace_defect(),
        "min_population": table.min_population(),
        "seconds": time.perf_counter() - started,
    }


def cmd_bench(args) -> int:
    n_list = _parse_n_list(args.n_list)
    methods = _parse_methods(args.methods)
    if not methods:
        raise UsageError("bench needs at least one method")
    policy = _policy_from_args(args)
    rows = []
    for n in n_list:
        times = _time_grid(n, args.t_max, args.points)
        ladder = build_ladder(n, args.gamma)
        for m in methods:
            started = time.perf_counter()
            table = solve_populations(ladder, times=times, method=m, policy=policy,
                                      n_traj=args.ntraj, seed=args.seed)
            seconds = time.perf_counter() - started
            with np.errstate(invalid="ignore"):   # inf - inf is NaN
                defect = table.trace_defect()
            rows.append({
                "method": m, "n_emitters": n, "seconds": seconds, "trace_defect": defect,
                "bits": max(table.meta["bits"]) if "bits" in table.meta else None,
            })
    report = {"schema": 1, "bench": rows}
    if args.find_onset:
        report["double_onset"] = double_precision_onset(
            args.gamma, n_cap=args.onset_cap, t_max=args.t_max)
    if args.escalate:
        report["escalation"] = escalation_report(args.escalate, args.gamma, args.t_max)
    emit_json(report, args.out)
    return EXIT_OK


class UsageError(ValueError):
    pass


def _parse_n_list(text: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" in piece:
            a, b = piece.split(":", 1)
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(piece))
    if not out:
        raise UsageError("empty N list")
    return out


def _parse_methods(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    return methods


def _add_precision(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", choices=("auto", "double", "bits"), default="auto")
    p.add_argument("--bits", type=int, default=113, help="mantissa bits for --precision bits")
    p.add_argument("--target-defect", type=float, default=1e-12)
    p.add_argument("--max-bits", type=int, default=0,
                   help="precision cap (default: DICKE_MAX_BITS env or 16384)")


def _add_request(p: argparse.ArgumentParser) -> None:
    """The flags of one solve request, shared by solve, trajectories and compare."""
    p.add_argument("--n", type=int, required=True, help="number of emitters")
    p.add_argument("--gamma", type=float, default=1.0, help="single-emitter decay rate")
    p.add_argument("--initial", type=int, default=None,
                   help="initial ladder state m0 (default: fully inverted, N)")
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--grid", choices=("auto", "linear", "log"), default="auto",
                   help="auto picks log spacing from N = 64 up (the burst sits "
                        "at short times there), linear below")
    p.add_argument("--ntraj", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


def _add_exact(p: argparse.ArgumentParser) -> None:
    """The settings of the exact methods, read by solve and compare."""
    _add_precision(p)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                   help="ode relative tolerance (at least 100 * float64 eps)")
    p.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    p.add_argument("--series-order", type=int, default=80)
    p.add_argument("--delta-t", type=float, default=None)


def _add_table_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="format of the --out file; without --out the table prints as JSON")
    p.add_argument("--digits", type=int, default=17, help="significant digits in CSV")


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: a mistyped or removed flag must not parse as another
    parser = argparse.ArgumentParser(
        prog="dicke", allow_abbrev=False,
        description="Exact and stochastic solvers for collective-decay ladder populations")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", allow_abbrev=False,
                             help="populations and emission rate on a time grid")
    _add_request(p_solve)
    _add_exact(p_solve)
    p_solve.add_argument("--method", choices=METHODS, default="residue")
    _add_table_output(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_traj = sub.add_parser("trajectories", allow_abbrev=False,
                            help="Monte Carlo estimate with standard errors")
    _add_request(p_traj)
    _add_table_output(p_traj)
    # Monte Carlo reads no exact-method setting; the config block reports their defaults
    exact_defaults = argparse.ArgumentParser(add_help=False)
    _add_exact(exact_defaults)
    p_traj.set_defaults(func=cmd_solve, method="mc", **vars(exact_defaults.parse_args([])))

    p_cmp = sub.add_parser("compare", allow_abbrev=False,
                           help="cross-validate several methods on one grid")
    _add_request(p_cmp)
    _add_exact(p_cmp)
    p_cmp.add_argument("--methods", type=str, required=True,
                       help="comma-separated list, e.g. residue,jordan,ode")
    p_cmp.add_argument("--tol", type=float, default=1e-8,
                       help="gate for exact-method pairwise differences")
    p_cmp.set_defaults(func=cmd_compare)

    p_scan = sub.add_parser("scan", allow_abbrev=False,
                            help="burst summaries and scaling fits across N")
    p_scan.add_argument("--n-list", type=str, required=True,
                        help="comma separated, ranges as a:b, e.g. 8,16,32:64")
    p_scan.add_argument("--gamma", type=float, default=1.0)
    p_scan.add_argument("--method", choices=EXACT_METHODS, default="ode")
    p_scan.add_argument("--points", type=int, default=400)
    p_scan.add_argument("--out", type=str, default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_bench = sub.add_parser("bench", allow_abbrev=False,
                             help="wall time per method and precision diagnostics")
    p_bench.add_argument("--n-list", type=str, required=True)
    p_bench.add_argument("--methods", type=str, default="residue,ode")
    p_bench.add_argument("--gamma", type=float, default=1.0)
    p_bench.add_argument("--t-max", type=float, default=5.0)
    p_bench.add_argument("--points", type=int, default=50)
    _add_precision(p_bench)
    p_bench.add_argument("--ntraj", type=int, default=20_000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--find-onset", action="store_true",
                         help="locate the smallest N where double precision breaks the trace")
    p_bench.add_argument("--onset-cap", type=int, default=64)
    p_bench.add_argument("--escalate", type=int, default=0,
                         help="demonstrate auto escalation at this N")
    p_bench.add_argument("--out", type=str, default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


# Built by the first `main` call, not at import, and reused: a parse
# leaves the parser unchanged, and each build costs about 3 ms.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _report_error({"kind": "usage", "message": str(exc)})
        return EXIT_USAGE
    except (PrecisionError, TruncationError, StiffnessError, WorkerError,
            ArithmeticError) as exc:
        payload = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, PrecisionError):
            payload.update({"defect": exc.defect, "bits": exc.bits})
        if isinstance(exc, TruncationError):
            payload["bound"] = exc.bound
        _report_error(payload)
        return EXIT_NUMERICAL
    except ValueError as exc:
        _report_error({"kind": "config", "message": str(exc)})
        return EXIT_USAGE
    except OSError as exc:
        # an --out path that cannot be written
        _report_error({"kind": "io", "message": str(exc), "path": exc.filename})
        return EXIT_USAGE


def _report_error(payload: dict) -> None:
    """Print an error object on stderr, on one line."""
    emit_json({"error": payload}, indent=None, file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
