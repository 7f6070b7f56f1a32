#!/usr/bin/env python3
"""Benchmark of the dicke CLI: named workloads, end-to-end metrics, and a
traced run that splits the same requests into per-layer numbers.

    python3 perfbench/run.py --workload residue_ladder --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35   # every workload in turn
    python3 perfbench/run.py --smoke                       # toy sizes, same checks

Run it from the repository root; the package is imported from ./src.  One
client sends the workload's requests through `dicke.cli.main` in a closed
loop, one pass after another, until the next pass would end past
--seconds (at least one pass).  Every output is checked.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Exit code 0 means the run completed; `correct` says
whether every output passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import LAYER_METRICS, MISSING, TARGETS, Rebinder, Tracer, layer_values
from workloads import WORKLOADS, Outcome, check, load_references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_RUNS = 5
KERNEL_SCALE = 0.25       # one sample runs a quarter of the reference kernel
SAMPLE_INTERVAL_S = 0.25  # wall time between samples while a request runs

END_TO_END = {   # name -> unit; bounds and directions live in BENCHMARK.json
    "setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mib": "MiB",
    "max_trace_defect": "1", "max_ref_err": "1", "ok_frac": "1",
}


def import_dicke():
    """Import the package from this checkout's src/, or stop."""
    if not (SRC / "dicke" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dicke package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dicke.cli
    if Path(dicke.__file__).resolve().parent != (SRC / "dicke").resolve():
        raise SystemExit(f"perfbench: imported dicke from {dicke.__file__}, not {SRC}")
    return dicke


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What a timing depends on besides the code; compare.py flags any
    difference in these between two results."""
    import hashlib

    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dicke").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def measure_setup(runs: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to `import dicke.cli` done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import time\nimport dicke.cli\nprint(repr(time.time()))"
    out = []
    for _ in range(runs):
        spawned = time.time()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import dicke.cli failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - spawned)
    return out


class Capture:
    """Keeps the tables `solve_populations` returns during a request, so
    the checks can compare them with what the CLI wrote."""

    def __init__(self):
        self.tables: list = []
        self._rebinder = Rebinder()
        self.installed = self._rebinder.replace("dicke.methods", "solve_populations", self._wrap)

    def _wrap(self, func):
        @functools.wraps(func)
        def capture(*args, **kwargs):
            table = func(*args, **kwargs)
            self.tables.append(table)
            return table
        return capture


def reference_kernel(scale: float = 1.0) -> int:
    """Fixed pure-Python work (big-integer products and quotients, Fractions,
    dict and float updates, the operations the solvers spend their time
    in).  It shares no code with dicke, so no change to the package moves it.
    `scale` shortens it in proportion."""
    acc = 0
    x = (1 << 700) + 12345
    for i in range(1, int(3000 * scale)):
        acc ^= (x * (x + i) // (i * 7919 + 1)) & 0xFFFFFFFF
        acc += (Fraction(i, i + 3) + Fraction(3, i + 7)).numerator % 97
    table: dict[int, float] = {}
    for i in range(int(60000 * scale)):
        table[i % 1013] = table.get(i % 1013, 0.0) + i * 0.5
    return acc + len(table)


class KernelSampler:
    """Times a slice of the reference kernel every SAMPLE_INTERVAL_S while a
    request runs, so a pass's reference time covers the whole pass.

    On a shared 2-core VM the speed drifts by 20-40% over minutes, also
    within one long request; kernels timed only between requests missed
    that and scattered `wall_ref` as much as the raw seconds.  The samples come from a SIGALRM
    handler, which Python runs on the main thread between bytecodes, so no
    thread or process is started.  Their time is subtracted from the
    request's wall and CPU time.
    """

    def __init__(self):
        self.samples: list[float] = []   # seconds, scaled to the whole kernel
        self.stolen_wall = 0.0
        self.stolen_cpu = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:   # a tick that arrives during a sample is dropped
            return
        self._busy = True
        try:
            cpu0 = time.process_time()
            start = time.perf_counter()
            reference_kernel(KERNEL_SCALE)
            took = time.perf_counter() - start
            self.samples.append(took / KERNEL_SCALE)
            self.stolen_wall += took
            self.stolen_cpu += time.process_time() - cpu0
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0        # mean reference kernel time during this pass
    bytes_written: int = 0
    outcomes: list[tuple[str, float, Outcome]] = field(default_factory=list)
    layers: dict[str, float] | None = None

    @property
    def failed(self) -> int:
        return sum(not o.ok for _, _, o in self.outcomes)

    @property
    def trace_defect(self) -> float:
        return max(o.trace_defect for _, _, o in self.outcomes)

    @property
    def ref_err(self) -> float:
        return max(o.ref_err for _, _, o in self.outcomes)


def corrupt_output(path: Path) -> None:
    """Shift one population of a written table by 1e-3."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["populations"][-1][-1] += 1e-3
    path.write_text(json.dumps(doc), encoding="utf-8")


class Runner:
    def __init__(self, workload, seed: int, smoke: bool, references, capture: Capture):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.references = references
        self.capture = capture
        self.passes_sent = 0
        self.sampler = KernelSampler()

    def send(self, argv: list[str]):
        import dicke.cli  # looked up per call: the tracer may have rebound main
        try:
            return dicke.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed request, not a dead benchmark
            traceback.print_exc(file=sys.stderr)
            return f"raised {type(exc).__name__}"

    def run_pass(self, corrupt: bool = False, traced: bool = False) -> Pass:
        """One pass of the workload's requests.  A traced pass takes no
        samples during its requests, so they add nothing to its spans."""
        index = self.passes_sent
        self.passes_sent += 1
        result = Pass()
        first = len(self.sampler.samples)
        self.sampler.sample()   # at least one, however short the pass
        for k, request in enumerate(self.workload.requests(self.seed, index, self.smoke)):
            path = WORK_DIR / f"{self.workload.name}-{index}-{k}.json"
            self.capture.tables.clear()
            stolen_wall, stolen_cpu = self.sampler.stolen_wall, self.sampler.stolen_cpu
            cpu0 = _cpu_seconds()
            start = time.perf_counter()
            with contextlib.nullcontext() if traced else self.sampler:
                code = self.send([*request.argv, "--out", str(path)])
            wall = time.perf_counter() - start - (self.sampler.stolen_wall - stolen_wall)
            result.cpu_s += _cpu_seconds() - cpu0 - (self.sampler.stolen_cpu - stolen_cpu)
            result.wall_s += wall
            if corrupt and k == 0:
                corrupt_output(path)
            if path.is_file():
                result.bytes_written += path.stat().st_size
            produced = list(self.capture.tables) if self.capture.installed else None
            try:
                outcome = check(request, code, path, produced, self.references)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                outcome = Outcome(problems=[f"check failed: {exc!r}"])
            for problem in outcome.problems:
                print(f"FAILED {self.workload.name} pass {index} {request.label}: {problem}",
                      file=sys.stderr)
            result.outcomes.append((request.label, wall, outcome))
            self.capture.tables.clear()
            path.unlink(missing_ok=True)
        # the mean, not the median: a sample stalled by another tenant stands
        # for the same stall in the requests around it
        result.ref_s = statistics.fmean(self.sampler.samples[first:])
        return result


def run_workload(runner: Runner, seconds: float, tracer: Tracer | None):
    """Untraced passes, or untraced/traced pairs when tracing, until the
    next round would end past `seconds` (always at least one)."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                p = runner.run_pass(traced=True)
            finally:
                tracer.uninstall()
            p.layers = layer_values(tracer)
            traced.append(p)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(rounds) > seconds:
            return plain, traced


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": statistics.median(setup),
        # ratios of totals: a single pass's reference time is a few short
        # kernel runs, too jittery to divide by on its own
        "wall_ref": sum(p.wall_s for p in passes) / sum(p.ref_s for p in passes),
        "cpu_ref": sum(p.cpu_s for p in passes) / sum(p.ref_s for p in passes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # means: over a few passes the mean of the Monte Carlo table's
        # per-pass worst error scatters less from seed to seed than the median
        "max_trace_defect": statistics.fmean(p.trace_defect for p in passes),
        "max_ref_err": statistics.fmean(p.ref_err for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    values = {name: statistics.median(p.layers[name] for p in traced)
              for name in traced[0].layers}
    values["io.bytes_written"] = statistics.median(p.bytes_written for p in traced)
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                  - statistics.median(p.wall_s for p in plain))
    return {name: values[name] for name in LAYER_METRICS}


def report_line(workload: str, name: str, value: float, unit: str, note: str) -> str:
    return f"  {workload:<16} {name:<42} {value:>14.6g} {unit:<10} {note}"


def report_trace_gaps(tracer: Tracer, workload: str) -> bool:
    """Name every traced function a refactor removed, renamed or stopped
    calling, so its metrics are never read as a silent 0.  True if none."""
    gaps = [(f"gone, metrics read {MISSING:g}", tracer.missing),
            ("not called by this workload", tracer.uncalled(workload)),
            ("counter failed", sorted(tracer.counter_errors))]
    for what, names in gaps:
        if names:
            line = f"trace: {workload}: {what}: {', '.join(names)}"
            print("  " + line)
            print("perfbench: " + line, file=sys.stderr)
    return not any(names for _, names in gaps)


def run_one(args) -> int:
    import_dicke()
    workload = WORKLOADS[args.workload]
    env = environment()
    references = load_references()
    capture = Capture()
    runner = Runner(workload, args.seed, False, references, capture)
    tracer = Tracer(TARGETS) if args.trace else None
    setup = [] if args.trace else measure_setup(SETUP_RUNS)

    plain, traced = run_workload(runner, args.seconds, tracer)
    everything = plain + traced
    attempted = sum(len(p.outcomes) for p in everything)
    failed = sum(p.failed for p in everything)

    print(f"perfbench {workload.name}: seed {args.seed}, trace {args.trace}, "
          f"{len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} requests, {failed} failed (failed_frac {failed / attempted:.4g})")
    for label, wall, outcome in everything[0].outcomes:
        extra = "" if outcome.z_share_all is None else \
            f", criterion-7 share over all entries {outcome.z_share_all:.4f}"
        print(f"  request {label}: {wall:.3f} s{extra}")
    if not capture.installed:
        print("  note: dicke.methods.solve_populations not found; tables produced "
              "inside requests were not captured", file=sys.stderr)

    print(f"  raw times: wall_s {statistics.median(p.wall_s for p in plain):.6g} s, "
          f"cpu_s {statistics.median(p.cpu_s for p in plain):.6g} s, reference kernel "
          f"{statistics.median(p.ref_s for p in plain):.6g} s (medians over passes, "
          f"{len(runner.sampler.samples)} kernel samples)")
    if tracer is None:
        metrics = end_to_end(plain, setup)
        for name, value in metrics.items():
            note = {"setup_s": f"median of {len(setup)} interpreters",
                    "wall_ref": f"total over {len(plain)} passes / their reference time",
                    "cpu_ref": f"total over {len(plain)} passes / their reference time",
                    "peak_rss_mib": "", "ok_frac": ""}.get(name, f"mean of {len(plain)} passes")
            print(report_line(workload.name, name, value, END_TO_END[name], note))
        units = END_TO_END
    else:
        metrics = per_layer(plain, traced)
        for name, value in metrics.items():
            unit, _, moves = LAYER_METRICS[name]
            print(report_line(workload.name, name, value, unit, f"target: {moves}"))
        report_trace_gaps(tracer, workload.name)
        units = {name: LAYER_METRICS[name][0] for name in metrics}

    print("environment " + json.dumps(env, sort_keys=True))
    # a broken table can make an accuracy figure inf or nan, which JSON cannot carry
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value if math.isfinite(value) else sys.float_info.max,
                                 "unit": units[name]}
                          for name, value in metrics.items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "environment": env, "setup_runs": setup,
             "pass_wall_s": [p.wall_s for p in plain], "pass_cpu_s": [p.cpu_s for p in plain],
             "pass_ref_s": [p.ref_s for p in plain], **result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def run_smoke(args) -> int:
    """Every workload at toy size through the same checks and tracing, plus
    one pass whose first output is corrupted on purpose: it must fail."""
    import_dicke()
    references = load_references()
    capture = Capture()
    tracer = Tracer(TARGETS)
    attempted = failed = 0
    metrics = {}
    ok = True
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, args.seed, True, references, capture)
        plain, traced = run_workload(runner, 0.0, tracer)
        layers = per_layer(plain, traced)
        n = sum(len(p.outcomes) for p in plain + traced)
        bad = sum(p.failed for p in plain + traced)
        attempted += n
        failed += bad
        traced_fully = report_trace_gaps(tracer, name)
        ok &= bad == 0 and traced_fully
        print(f"smoke {name}: {n} requests, failed_frac {bad / n:.4g}, "
              f"wall_s {plain[0].wall_s:.3f} s, "
              f"{sum(1 for v in layers.values() if v > 0)} per-layer metrics above 0, "
              f"tracing {'complete' if traced_fully else 'INCOMPLETE'}")
        metrics[f"{name}.failed_frac"] = bad / n
    runner = Runner(WORKLOADS["residue_ladder"], args.seed, True, references, capture)
    corrupted = runner.run_pass(corrupt=True)
    n = len(corrupted.outcomes)
    attempted += n
    failed += corrupted.failed
    caught = corrupted.failed == 1 and not corrupted.outcomes[0][2].ok
    ok &= caught
    print(f"smoke residue_ladder with its first output corrupted: failed_frac "
          f"{corrupted.failed / n:.4g} ({'caught' if caught else 'NOT caught'})")
    metrics["corrupted.failed_frac"] = corrupted.failed / n
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": "1"} for k, v in metrics.items()}}),
          flush=True)
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one untraced and one traced pass, plus a "
                             "corrupted output that must be caught")
    parser.add_argument("--out", help="also write the result with its environment "
                                      "to this file (for compare.py)")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.smoke:
        return run_all(args)
    WORK_DIR.mkdir(exist_ok=True)
    try:
        return run_smoke(args) if args.smoke else run_one(args)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
