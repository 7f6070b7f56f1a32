"""Command-line frontend: solve / compare / trajectories / scan / bench.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical or
precision failure, 4 cross-method comparison failure.  Failures emit a
machine-readable JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .io import table_document, write_csv, write_json
from .ladder import build_ladder
from .methods import EXACT_METHODS, METHODS, solve_populations
from .observables import scaling_scan
from .oracles import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, StiffnessError, TruncationError
from .precision import PrecisionError, PrecisionPolicy

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_COMPARISON = 4


@dataclass
class RunConfig:
    n_emitters: int
    gamma: float = 1.0
    initial_m0: int | None = None
    t_max: float = 5.0
    t_min: float | None = None
    grid_points: int = 200
    grid_spacing: str = "auto"        # "auto" | "linear" | "log"
    method: str = "residue"
    policy: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    series_order: int = 80
    delta_t: float | None = None
    n_traj: int = 100_000
    seed: int = 0
    n_workers: int = 1
    out_format: str = "csv"
    out_path: str | None = None
    digits: int = 17

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("grid needs at least 2 points")
        if self.t_max <= 0:
            raise ValueError("t_max must be positive")
        if self.grid_spacing not in ("auto", "linear", "log"):
            raise ValueError(f"unknown grid spacing {self.grid_spacing!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.initial_m0 is not None and not (0 <= self.initial_m0 <= self.n_emitters):
            raise ValueError("initial_m0 must lie in [0, N]")

    def resolved_spacing(self) -> str:
        if self.grid_spacing != "auto":
            return self.grid_spacing
        # large ensembles burst at t ~ ln(N)/(N*g); linear grids waste the points
        return "log" if self.n_emitters >= 64 else "linear"

    def time_grid(self) -> np.ndarray:
        if self.resolved_spacing() == "linear":
            start = 0.0 if self.t_min is None else self.t_min
            return np.linspace(start, self.t_max, self.grid_points)
        start = self.t_max * 1e-3 if self.t_min is None else self.t_min
        if start <= 0:
            raise ValueError("log grids need t_min > 0")
        return np.geomspace(start, self.t_max, self.grid_points)

    def describe(self) -> dict:
        return {
            "n_emitters": self.n_emitters,
            "gamma": self.gamma,
            "initial_m0": self.n_emitters if self.initial_m0 is None else self.initial_m0,
            "t_max": self.t_max,
            "t_min": self.t_min,
            "grid_points": self.grid_points,
            "grid_spacing": self.resolved_spacing(),
            "method": self.method,
            "precision": {
                "mode": self.policy.mode,
                "mantissa_bits": self.policy.mantissa_bits,
                "target_defect": self.policy.target_defect,
                "max_bits": self.policy.max_bits,
            },
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "mc": {"n_traj": self.n_traj, "seed": self.seed, "n_workers": self.n_workers},
        }


def _policy_from_args(args) -> PrecisionPolicy:
    # --max-bits 0 leaves the cap to PrecisionPolicy's default
    if args.precision == "double":
        return PrecisionPolicy(mode="double", max_bits=args.max_bits)
    if args.precision == "bits":
        return PrecisionPolicy(mode="bits", mantissa_bits=args.bits, max_bits=args.max_bits)
    return PrecisionPolicy(mode="auto", target_defect=args.target_defect,
                           max_bits=args.max_bits)


def _config_from_args(args, method: str | None = None) -> RunConfig:
    return RunConfig(
        n_emitters=args.n, gamma=args.gamma, initial_m0=args.initial,
        t_max=args.t_max, t_min=args.t_min, grid_points=args.points,
        grid_spacing=args.grid, method=method or args.method,
        policy=_policy_from_args(args), rel_tol=args.rel_tol, abs_tol=args.abs_tol,
        series_order=args.series_order, delta_t=args.delta_t,
        n_traj=args.ntraj, seed=args.seed, n_workers=args.workers,
        out_format=args.format, out_path=args.out, digits=args.digits)


def _solve(config: RunConfig):
    ladder = build_ladder(config.n_emitters, config.gamma)
    table = solve_populations(
        ladder, initial_m0=config.initial_m0, times=config.time_grid(),
        method=config.method, policy=config.policy,
        rel_tol=config.rel_tol, abs_tol=config.abs_tol,
        series_order=config.series_order, delta_t=config.delta_t,
        n_traj=config.n_traj, seed=config.seed, n_workers=config.n_workers)
    return ladder, table


def _emit(report: dict, out: str | None) -> None:
    """Write a JSON report to `out`, or print it when no path is given, as
    strict JSON: a non-finite number is written as null."""
    text = json.dumps(_strict(report), indent=1, allow_nan=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _strict(value):
    """`value` with each NaN or infinite float in it, at any depth of
    dicts, lists and tuples, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


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


def cmd_solve(args, method: str | None = None) -> int:
    config = _config_from_args(args, method=method)
    ladder, table = _solve(config)
    _require_finite(table)
    if config.out_path is None:
        _emit(table_document(table, ladder, config.describe()), None)
    elif config.out_format == "csv":
        write_csv(table, ladder, config.out_path, digits=config.digits)
    else:
        write_json(table, ladder, config.out_path, config.describe())
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise UsageError("compare needs at least two methods")
    if len(set(methods)) < len(methods):
        # a method compared with itself reports a difference of 0 and proves nothing
        raise UsageError(f"compare needs distinct methods, got {args.methods!r}")
    if not args.tol >= 0:
        raise UsageError(f"--tol must be a nonnegative number, got {args.tol}")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")

    tables = {}
    ladder = None
    for m in methods:
        config = _config_from_args(args, method=m)
        ladder, tables[m] = _solve(config)

    exact = [m for m in methods if m in EXACT_METHODS]
    report = {"schema": 1, "config": _config_from_args(args, method=methods[0]).describe(),
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
    if "mc" in methods and exact:
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

    _emit(report, args.out)
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
    _emit(report, args.out)
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
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}")
    rows = []
    for n in n_list:
        for m in methods:
            config = RunConfig(n_emitters=n, gamma=args.gamma, t_max=args.t_max,
                               grid_points=args.points, method=m,
                               policy=_policy_from_args(args),
                               n_traj=args.ntraj, seed=args.seed)
            started = time.perf_counter()
            _, table = _solve(config)
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
    _emit(report, args.out)
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


def _add_common(p: argparse.ArgumentParser) -> None:
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
    p.add_argument("--method", choices=METHODS, default="residue")
    p.add_argument("--precision", choices=("auto", "double", "bits"), default="auto")
    p.add_argument("--bits", type=int, default=113, help="mantissa bits for --precision bits")
    p.add_argument("--target-defect", type=float, default=1e-12)
    p.add_argument("--max-bits", type=int, default=0,
                   help="precision cap (default: DICKE_MAX_BITS env or 16384)")
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL,
                   help="ode relative tolerance (at least 100 * float64 eps)")
    p.add_argument("--abs-tol", type=float, default=DEFAULT_ABS_TOL)
    p.add_argument("--series-order", type=int, default=80)
    p.add_argument("--delta-t", type=float, default=None)
    p.add_argument("--ntraj", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--digits", type=int, default=17)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke",
        description="Exact and stochastic solvers for collective-decay ladder populations")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="populations and emission rate on a time grid")
    _add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_traj = sub.add_parser("trajectories", help="Monte Carlo estimate with standard errors")
    _add_common(p_traj)
    p_traj.set_defaults(func=functools.partial(cmd_solve, method="mc"))

    p_cmp = sub.add_parser("compare", help="cross-validate several methods on one grid")
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", type=str, required=True,
                       help="comma-separated list, e.g. residue,jordan,ode")
    p_cmp.add_argument("--tol", type=float, default=1e-8,
                       help="gate for exact-method pairwise differences")
    p_cmp.set_defaults(func=cmd_compare)

    p_scan = sub.add_parser("scan", help="burst summaries and scaling fits across N")
    p_scan.add_argument("--n-list", type=str, required=True,
                        help="comma separated, ranges as a:b, e.g. 8,16,32:64")
    p_scan.add_argument("--gamma", type=float, default=1.0)
    p_scan.add_argument("--method", choices=EXACT_METHODS, default="ode")
    p_scan.add_argument("--points", type=int, default=400)
    p_scan.add_argument("--out", type=str, default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_bench = sub.add_parser("bench", help="wall time per method and precision diagnostics")
    p_bench.add_argument("--n-list", type=str, required=True)
    p_bench.add_argument("--methods", type=str, default="residue,ode")
    p_bench.add_argument("--gamma", type=float, default=1.0)
    p_bench.add_argument("--t-max", type=float, default=5.0)
    p_bench.add_argument("--points", type=int, default=50)
    p_bench.add_argument("--precision", choices=("auto", "double", "bits"), default="auto")
    p_bench.add_argument("--bits", type=int, default=113)
    p_bench.add_argument("--target-defect", type=float, default=1e-12)
    p_bench.add_argument("--max-bits", type=int, default=0)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        _report_error({"kind": "usage", "message": str(exc)})
        return EXIT_USAGE
    except (PrecisionError, TruncationError, StiffnessError, ArithmeticError) as exc:
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


def _report_error(payload: dict) -> None:
    """Print an error object on stderr as strict JSON: a non-finite number
    (such as an unknown defect) is written as null."""
    print(json.dumps({"error": _strict(payload)}, allow_nan=False), file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
