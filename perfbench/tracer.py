"""Outside-in tracing of the dicke layers.

The package is not edited: the benchmark swaps each traced function for a
wrapper at every place a caller can look it up (module globals anywhere in
the package and the values of module-level dicts), times the call, and
subtracts the time of wrapped calls made inside it to get self time.
Spans are aggregated by name as they close, so the 2e5 per-trajectory
spans of a Monte Carlo request cost a counter update each, not a record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

MISSING = -1.0   # value of a metric whose function no longer exists


class Rebinder:
    """Replaces every binding of a function inside the dicke package and
    puts the originals back on `restore`."""

    def __init__(self):
        self._undo: list[tuple[dict, str, object]] = []

    def replace(self, module_name: str, attr: str, make_wrapper) -> bool:
        """Rebind `module_name.attr` everywhere; False if it does not exist."""
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "dicke" or name.startswith("dicke.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._swap(namespace, key, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            self._swap(value, k, wrapper)
        return True

    def _swap(self, mapping: dict, key, wrapper) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def restore(self) -> None:
        for mapping, key, original in reversed(self._undo):
            mapping[key] = original
        self._undo.clear()


@dataclass(frozen=True)
class Target:
    """A function to trace, the span name its calls get, the metrics it
    feeds, the workloads that must call it, and an optional counter fed
    from its arguments and result."""

    module: str
    attr: str
    span: str | Callable[[inspect.BoundArguments], str]
    feeds: tuple[str, ...]
    used_by: tuple[str, ...]
    count: Callable | None = None

    @property
    def path(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.missing: list[str] = []
        self._rebinder = Rebinder()
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.counter_errors: set[str] = set()
        self.target_calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def install(self) -> None:
        self.missing = [t.path for t in self.targets
                        if not self._rebinder.replace(t.module, t.attr,
                                                      functools.partial(self._wrap, t))]

    def uncalled(self, workload: str) -> list[str]:
        """Traced functions this workload should call but did not: after a
        refactor their metrics read 0 because the work moved elsewhere."""
        return [t.path for t in self.targets if workload in t.used_by
                and t.path not in self.missing and not self.target_calls[t.path]]

    def uninstall(self) -> None:
        self._rebinder.restore()

    def calls(self, span: str) -> int:
        return self.stats[span][0] if span in self.stats else 0

    def total_s(self, span: str) -> float:
        return self.stats[span][1] if span in self.stats else 0.0

    def self_s(self, span: str) -> float:
        return self.stats[span][2] if span in self.stats else 0.0

    def _wrap(self, target: Target, func):
        stack, stats, edges, target_calls = self._stack, self.stats, self.edges, self.target_calls
        clock = time.perf_counter
        signature = inspect.signature(func)
        needs_args = callable(target.span) or target.count is not None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            bound = None
            if needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            name = target.span(bound) if callable(target.span) else target.span
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat = stats[name]
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - frame[1]
                target_calls[target.path] += 1
                if parent is not None:
                    edges[parent[0], name] += 1
            if target.count is not None:
                try:
                    target.count(self, bound, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    self.counter_errors.add(name)
            if parent is not None:
                # the counter's own cost is charged to neither span's self time
                parent[1] += clock() - start
            return result

        return traced


# --- what is traced, and the per-layer metrics it yields -------------------

DOUBLE_BITS = 53
TRACED_METHODS = ("residue", "laplace", "jordan", "ode", "mc")


def _count_terms(tracer, bound, result):
    tracer.counts["residues.terms"] += len(result)


def _count_term_evals(tracer, bound, result):
    """Terms x grid points over the rows evaluated in mpf."""
    rows, grid = bound.arguments["rows_terms"], bound.arguments["grid"]
    terms = sum(len(row) for row in rows
                if row and max(t.bits for t in row) > DOUBLE_BITS)
    tracer.counts["residues.term_evals"] += terms * len(grid)


def _max_bits(key):
    def count(tracer, bound, result):
        bits = result[0] if isinstance(result, tuple) else result.bits
        tracer.maxima[key] = max(tracer.maxima[key], bits)
    return count


def _count_nfev(tracer, bound, result):
    tracer.counts["oracles.nfev"] += result.meta["nfev"]


def _count_traj(tracer, bound, result):
    tracer.counts["trajectories.n_traj"] += result.n_traj


def _method_span(bound):
    return f"methods.solve_populations.{bound.arguments.get('method', 'unknown')}"


RESIDUE_USERS = ("residue_ladder", "cross_check_n64")
ALL_WORKLOADS = ("residue_ladder", "cross_check_n64", "mc_cascade")

TARGETS = [
    Target("dicke.cli", "main", "cli.main", ("cli.self_s",), ALL_WORKLOADS),
    Target("dicke.methods", "solve_populations", _method_span,
           tuple(f"methods.solve_populations.{m}.s" for m in TRACED_METHODS), ALL_WORKLOADS),
    Target("dicke.residues", "exact_terms", "residues.exact_terms",
           ("residues.exact_terms.calls", "residues.exact_terms.self_s", "residues.terms"),
           RESIDUE_USERS, _count_terms),
    Target("dicke.residues", "assemble_table", "residues.assemble_table",
           ("residues.assemble_table.self_s", "residues.assemble_table.term_evals",
            "residues.assemble_table.ns_per_term_eval"), RESIDUE_USERS, _count_term_evals),
    Target("dicke.precision", "resolve_bits", "precision.resolve_bits",
           ("precision.resolve_bits.total_s", "precision.widths_per_row",
            "precision.bits_max"), RESIDUE_USERS, _max_bits("precision.bits")),
    Target("dicke.precision", "rounding_defect", "precision.rounding_defect",
           ("precision.rounding_defect.calls", "precision.widths_per_row"), RESIDUE_USERS),
    Target("dicke.spectral", "jordan_decompose", "spectral.jordan_decompose",
           ("spectral.jordan_decompose.self_s", "spectral.bits"), ("cross_check_n64",),
           _max_bits("spectral.bits")),
    Target("dicke.spectral", "propagate", "spectral.propagate",
           ("spectral.propagate.calls", "spectral.propagate.self_s"), ("cross_check_n64",)),
    Target("dicke.spectral", "invert_laplace", "spectral.invert_laplace",
           ("spectral.invert_laplace.self_s",), ("cross_check_n64",)),
    Target("dicke.oracles", "integrate_rate_equations", "oracles.integrate_rate_equations",
           ("oracles.integrate_rate_equations.self_s", "oracles.nfev"), ("cross_check_n64",), _count_nfev),
    Target("dicke.trajectories", "estimate", "trajectories.estimate",
           ("trajectories.estimate.self_s", "trajectories.traj_per_s"), ("mc_cascade",), _count_traj),
    Target("dicke.trajectories", "sample_trajectory", "trajectories.sample_trajectory",
           ("trajectories.sample_trajectory.calls", "trajectories.sample_trajectory.self_s"),
           ("mc_cascade",)),
    Target("dicke.trajectories", "bin_trajectory", "trajectories.bin_trajectory",
           ("trajectories.bin_trajectory.self_s",), ("mc_cascade",)),
    Target("dicke.io", "write_json", "io.write", ("io.write.self_s",),
           ("residue_ladder", "mc_cascade")),
]

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "residues.exact_terms.calls": ("count", "lower", "wall_ref on residue_ladder"),
    "residues.exact_terms.self_s": ("s", "lower", "wall_ref on residue_ladder"),
    "residues.terms": ("count", "lower", "wall_ref on residue_ladder"),
    "residues.assemble_table.self_s": ("s", "lower", "wall_ref on residue_ladder, cross_check_n64"),
    "residues.assemble_table.term_evals": ("count", "lower", "wall_ref on residue_ladder, cross_check_n64"),
    "residues.assemble_table.ns_per_term_eval": ("ns", "lower", "wall_ref on residue_ladder, cross_check_n64"),
    "precision.resolve_bits.total_s": ("s", "lower", "wall_ref, max_trace_defect on residue_ladder"),
    "precision.rounding_defect.calls": ("count", "lower", "wall_ref on residue_ladder"),
    "precision.widths_per_row": ("widths/row", "lower", "wall_ref on residue_ladder"),
    "precision.bits_max": ("bits", "lower", "wall_ref, max_trace_defect on residue_ladder"),
    "spectral.jordan_decompose.self_s": ("s", "lower", "wall_ref on cross_check_n64"),
    "spectral.propagate.calls": ("count", "lower", "wall_ref on cross_check_n64"),
    "spectral.propagate.self_s": ("s", "lower", "wall_ref on cross_check_n64"),
    "spectral.invert_laplace.self_s": ("s", "lower", "wall_ref on cross_check_n64"),
    "spectral.bits": ("bits", "lower", "wall_ref on cross_check_n64"),
    "oracles.integrate_rate_equations.self_s": ("s", "lower", "wall_ref on cross_check_n64"),
    "oracles.nfev": ("count", "lower", "wall_ref on cross_check_n64"),
    "trajectories.estimate.self_s": ("s", "lower", "wall_ref, cpu_ref on mc_cascade"),
    "trajectories.sample_trajectory.calls": ("count", "lower", "wall_ref, cpu_ref on mc_cascade"),
    "trajectories.sample_trajectory.self_s": ("s", "lower", "wall_ref, cpu_ref on mc_cascade"),
    "trajectories.bin_trajectory.self_s": ("s", "lower", "wall_ref, cpu_ref on mc_cascade"),
    "trajectories.traj_per_s": ("1/s", "higher", "wall_ref, cpu_ref on mc_cascade"),
    **{f"methods.solve_populations.{m}.s": ("s", "lower", "shows which solver dominates")
       for m in TRACED_METHODS},
    "io.write.self_s": ("s", "lower", "flat on every workload"),
    "io.bytes_written": ("B", "lower", "flat on every workload"),
    "cli.self_s": ("s", "lower", "flat on every workload"),
    "trace.overhead_s": ("s", "lower", "cost of this tracing, traced minus untraced wall_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (io.bytes_written and
    trace.overhead_s come from the runner)."""
    term_evals = t.counts["residues.term_evals"]
    values = {
        "residues.exact_terms.calls": t.calls("residues.exact_terms"),
        "residues.exact_terms.self_s": t.self_s("residues.exact_terms"),
        "residues.terms": t.counts["residues.terms"],
        "residues.assemble_table.self_s": t.self_s("residues.assemble_table"),
        "residues.assemble_table.term_evals": term_evals,
        "residues.assemble_table.ns_per_term_eval":
            _ratio(1e9 * t.self_s("residues.assemble_table"), term_evals),
        "precision.resolve_bits.total_s": t.total_s("precision.resolve_bits"),
        "precision.rounding_defect.calls": t.calls("precision.rounding_defect"),
        "precision.widths_per_row": _ratio(
            t.edges["precision.resolve_bits", "precision.rounding_defect"],
            t.calls("precision.resolve_bits")),
        "precision.bits_max": t.maxima["precision.bits"],
        "spectral.jordan_decompose.self_s": t.self_s("spectral.jordan_decompose"),
        "spectral.propagate.calls": t.calls("spectral.propagate"),
        "spectral.propagate.self_s": t.self_s("spectral.propagate"),
        "spectral.invert_laplace.self_s": t.self_s("spectral.invert_laplace"),
        "spectral.bits": t.maxima["spectral.bits"],
        "oracles.integrate_rate_equations.self_s": t.self_s("oracles.integrate_rate_equations"),
        "oracles.nfev": t.counts["oracles.nfev"],
        "trajectories.estimate.self_s": t.self_s("trajectories.estimate"),
        "trajectories.sample_trajectory.calls": t.calls("trajectories.sample_trajectory"),
        "trajectories.sample_trajectory.self_s": t.self_s("trajectories.sample_trajectory"),
        "trajectories.bin_trajectory.self_s": t.self_s("trajectories.bin_trajectory"),
        "trajectories.traj_per_s": _ratio(t.counts["trajectories.n_traj"],
                                          t.total_s("trajectories.estimate")),
        **{f"methods.solve_populations.{m}.s": t.total_s(f"methods.solve_populations.{m}")
           for m in TRACED_METHODS},
        "io.write.self_s": t.self_s("io.write"),
        "cli.self_s": t.self_s("cli.main"),
    }
    for target in t.targets:
        if target.path in t.missing:
            values.update(dict.fromkeys(target.feeds, MISSING))
    return values
