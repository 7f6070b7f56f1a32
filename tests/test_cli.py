import dataclasses
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dicke
from dicke import cli, spectral, trajectories
from dicke.cli import build_parser, main
from dicke.io import read_json, write_json
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.observables import scaling_scan
from dicke.precision import PrecisionPolicy
from dicke.residues import ResidueTerm


def run(argv):
    return main(argv)


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    # the second request must not see the first one's flags
    for extra, seed in ((["--seed", "5"], 5), ([], 0)):
        assert run(["trajectories", "--n", "2", "--ntraj", "10", "--points", "3", *extra]) == 0
        assert strict_json(capsys.readouterr().out)["config"]["mc"]["seed"] == seed
    assert len(builds) == 1


def test_solve_csv_contract(tmp_path):
    out = tmp_path / "table.csv"
    code = run(["solve", "--n", "4", "--gamma", "1", "--t-max", "3",
                "--points", "300", "--method", "residue", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,rho_0,rho_1,rho_2,rho_3,rho_4,rate"
    assert len(lines) == 301
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[5]) == 1.0
    assert float(first[6]) == 4.0  # initial rate g*h_N


def test_csv_values_clamped(tmp_path):
    out = tmp_path / "t.csv"
    run(["solve", "--n", "20", "--t-max", "4", "--points", "40",
         "--method", "residue", "--out", str(out)])
    rows = [list(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
    values = np.array(rows)[:, 1:-1]
    assert values.min() >= 0.0
    assert values.max() <= 1.0


def test_mc_solve_byte_identical(tmp_path):
    args = ["solve", "--n", "4", "--method", "mc", "--ntraj", "2000", "--seed", "42",
            "--t-max", "2", "--points", "10", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_worker_count_does_not_change_output(tmp_path, cores, monkeypatch):
    # chunks of 512 streams, so that 2000 trajectories split over the workers
    monkeypatch.setattr(trajectories, "CHUNK_ENTRIES", 1 << 11)
    base = ["solve", "--n", "4", "--method", "mc", "--ntraj", "2000", "--seed", "7",
            "--t-max", "2", "--points", "10", "--format", "json"]
    a, b = tmp_path / "w1.json", tmp_path / "w4.json"
    cores(1)
    assert run(base + ["--out", str(a)]) == 0
    cores(4)
    assert run(base + ["--out", str(b)]) == 0
    # the process count is recorded nowhere, so the files are the same
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("subcommand", ["solve", "trajectories", "compare"])
def test_workers_flag_is_a_usage_error(subcommand, capsys):
    # the usable cores set the process count; there is no flag for it
    argv = [subcommand, "--n", "4", "--points", "3", "--ntraj", "100", "--workers", "2"]
    if subcommand == "compare":
        argv += ["--methods", "residue,mc"]
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --workers 2" in captured.err


def test_partial_inversion_solve(tmp_path):
    out = tmp_path / "partial.json"
    run(["solve", "--n", "4", "--initial", "2", "--t-max", "2", "--points", "20",
         "--method", "residue", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    populations = np.array(doc["populations"])
    assert populations[2, 0] == 1.0
    assert np.array_equal(populations[3:], np.zeros((2, 20)))


def test_json_round_trip_bit_exact(tmp_path):
    ladder = build_ladder(6, 1.0)
    table = solve_populations(ladder, times=np.linspace(0, 3, 25), method="residue")
    path = tmp_path / "table.json"
    write_json(table, ladder, path)
    loaded, loaded_ladder = read_json(path)
    assert np.array_equal(loaded.populations, table.populations)
    assert np.array_equal(loaded.times, table.times)
    assert loaded_ladder.h == ladder.h
    assert loaded.initial_m0 == table.initial_m0


def test_json_document_schema(tmp_path):
    out = tmp_path / "doc.json"
    run(["solve", "--n", "3", "--t-max", "1", "--points", "5", "--method", "ode",
         "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert set(doc) == {"schema", "config", "grid", "populations", "rate",
                        "errors", "metadata"}
    assert doc["errors"] is None
    assert doc["metadata"]["method"] == "ode"
    assert "trace_defect" in doc["metadata"]
    assert "tool_version" in doc["metadata"]


def test_trajectories_command_includes_errors(tmp_path):
    out = tmp_path / "mc.json"
    code = run(["trajectories", "--n", "5", "--ntraj", "1000", "--seed", "3",
                "--t-max", "1", "--points", "8", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    errors = np.array(doc["errors"])
    assert errors.shape == (6, 8)
    assert (errors <= 0.5 / np.sqrt(1000) + 1e-12).all()


def test_compare_agreeing_methods(tmp_path, capsys):
    code = run(["compare", "--n", "6", "--methods", "residue,jordan,ode",
                "--t-max", "2", "--points", "15"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["pairs"]) == 3
    for pair in report["pairs"]:
        assert pair["max_abs_diff"] <= 1e-8


def test_compare_includes_mc_z_scores(capsys):
    code = run(["compare", "--n", "4", "--methods", "residue,mc", "--ntraj", "20000",
                "--seed", "12", "--t-min", "0.05", "--t-max", "1.2", "--points", "8"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mc"]["reference"] == "residue"
    assert report["mc"]["fraction_abs_z_above_3"] < 0.01


def test_compare_single_method_usage_error(capsys):
    code = run(["compare", "--n", "4", "--methods", "residue"])
    assert code == 2


def test_compare_repeated_methods_usage_error(capsys):
    # residue against itself would report 0.0 and pass: refused before any solve
    code = run(["compare", "--n", "4", "--methods", "residue,residue"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)["error"]
    assert error["kind"] == "usage" and "distinct" in error["message"]
    assert run(["compare", "--n", "4", "--methods", "residue,jordan,residue"]) == 2


def test_compare_without_an_exact_method_usage_error(capsys):
    # no exact table: no gated pair and no z-scores, so the report proved
    # nothing and exited 0; refused before any solve
    code = run(["compare", "--n", "4", "--points", "5", "--methods", "discrete,mc"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)["error"]
    assert error["kind"] == "usage" and "exact method" in error["message"]


def test_compare_tolerance_breach_exit_code(capsys):
    code = run(["compare", "--n", "6", "--methods", "residue,ode",
                "--t-max", "2", "--points", "15", "--tol", "1e-30"])
    assert code == 4


def with_non_finite(monkeypatch, method, edit):
    """Make the CLI's `method` tables pass through `edit(table)` first."""
    def solve(ladder, *args, **kwargs):
        table = solve_populations(ladder, *args, **kwargs)
        if table.method == method:
            edit(table)
        return table

    monkeypatch.setattr(cli, "solve_populations", solve)


def test_compare_nan_difference_fails(monkeypatch, capsys):
    def nan_entry(table):
        table.populations[1, 2] = np.nan
    with_non_finite(monkeypatch, "jordan", nan_entry)
    code = run(["compare", "--n", "4", "--methods", "residue,jordan,ode",
                "--t-max", "2", "--points", "5"])
    assert code == 4
    captured = capsys.readouterr()
    pairs = {(p["a"], p["b"]): p["max_abs_diff"] for p in strict_json(captured.out)["pairs"]}
    assert pairs[("residue", "jordan")] is None and pairs[("jordan", "ode")] is None
    assert pairs[("residue", "ode")] < 1e-8
    error = strict_json(captured.err)["error"]
    assert error["kind"] == "comparison" and error["max_abs_diff"] is None


def test_compare_rejects_nan_tolerance(capsys):
    assert run(["compare", "--n", "4", "--methods", "residue,ode", "--tol", "nan"]) == 2


def test_solve_non_finite_table_exit_code(tmp_path, capsys):
    # the first fully inverted float64 residue table with non-finite populations
    out = tmp_path / "t.json"
    code = run(["solve", "--n", "453", "--precision", "double", "--points", "3",
                "--format", "json", "--out", str(out)])
    assert code == 3
    assert not out.exists()
    error = strict_json(capsys.readouterr().err)["error"]
    assert error["kind"] == "FloatingPointError"
    assert "populations" in error["message"]


@pytest.mark.parametrize("out_format", ["json", "csv", None])
def test_solve_non_finite_metadata_exit_code(monkeypatch, tmp_path, capsys, out_format):
    def infinite_bound(table):
        table.meta["error_bound"][0] = float("inf")
    with_non_finite(monkeypatch, "residue", infinite_bound)
    out = tmp_path / "table.out"
    argv = ["solve", "--n", "4", "--points", "3"]
    if out_format:
        argv += ["--format", out_format, "--out", str(out)]
    assert run(argv) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error_bound" in strict_json(captured.err)["error"]["message"]


def test_usage_error_on_bad_config(capsys):
    assert run(["solve", "--n", "0"]) == 2
    assert run(["solve", "--n", "4", "--initial", "9"]) == 2
    assert run(["solve", "--n", "4", "--points", "1"]) == 2


def test_numerical_error_exit_code(capsys):
    # series method far outside its certified window
    code = run(["solve", "--n", "8", "--method", "series", "--t-max", "50",
                "--points", "10", "--series-order", "10"])
    assert code == 3
    error = strict_json(capsys.readouterr().err)["error"]
    assert error["kind"] == "TruncationError"
    assert error["bound"] is None  # the tail bound is infinite this far out


def test_precision_cap_exit_code(capsys):
    code = run(["solve", "--n", "40", "--method", "residue", "--t-max", "1",
                "--points", "5", "--max-bits", "60", "--target-defect", "1e-30"])
    assert code == 3
    assert strict_json(capsys.readouterr().err)["error"]["bits"] == 60


def test_jordan_precision_cap_error_is_strict_json(capsys):
    # both paths report the cap and the error bound there, above the target
    assert run(["solve", "--n", "20", "--points", "5", "--max-bits", "60",
                "--method", "jordan"]) == 3
    error = strict_json(capsys.readouterr().err)["error"]
    assert error["kind"] == "PrecisionError"
    assert error["bits"] == 60
    assert error["defect"] > 1e-12


def test_scan_command(tmp_path):
    out = tmp_path / "scan.json"
    code = run(["scan", "--n-list", "8,16,32", "--method", "ode",
                "--points", "250", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [s["n_emitters"] for s in doc["summaries"]] == [8, 16, 32]
    assert 1.5 < doc["rate_exponent"] < 2.5


def test_bench_command(tmp_path):
    out = tmp_path / "bench.json"
    code = run(["bench", "--n-list", "4,8", "--methods", "residue,ode",
                "--points", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["bench"]) == 4
    for row in doc["bench"]:
        assert row["seconds"] >= 0.0
        assert row["trace_defect"] < 1e-9


def test_bench_non_finite_defect_is_null(tmp_path, capsys):
    # the float64 residue table at N = 455 overflows to inf - inf
    out = tmp_path / "bench.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["bench", "--n-list", "455", "--methods", "residue",
                    "--precision", "double", "--points", "3", "--out", str(out)])
    assert code == 0
    (row,) = strict_json(out.read_text())["bench"]
    assert row["trace_defect"] is None and row["bits"] == 53
    assert capsys.readouterr().err == ""


def test_scan_non_finite_fit_is_null(monkeypatch, capsys):
    # a fit the scan could not make is written as null, not as a bare NaN
    def scan(n_list, *args, **kwargs):
        return dataclasses.replace(scaling_scan(n_list, *args, **kwargs),
                                   time_correlation=float("nan"))
    monkeypatch.setattr(cli, "scaling_scan", scan)
    assert run(["scan", "--n-list", "8,16", "--method", "residue", "--points", "60"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["time_correlation"] is None
    assert [s["n_emitters"] for s in report["summaries"]] == [8, 16]


def test_scan_repeated_sizes_usage_error(capsys):
    # two equal sizes leave the scaling fits degenerate: refused before any solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["scan", "--n-list", "16,16", "--method", "ode", "--points", "60"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert strict_json(captured.err)["error"]["kind"] == "config"


def test_ode_tolerance_below_scipy_floor_usage_error(capsys):
    # scipy would raise such an rtol silently and the table would record the wrong one
    assert run(["solve", "--n", "4", "--method", "ode", "--points", "5",
                "--rel-tol", "1e-15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)["error"]
    assert error["kind"] == "config" and "rel_tol" in error["message"]


def test_requests_load_only_what_they_use(tmp_path):
    # a fresh interpreter: float64 residue and Monte Carlo requests need
    # neither scipy nor mpmath; the ODE oracle loads scipy
    table = tmp_path / "residue.json"
    code = f"""
import sys
import dicke.cli
def loaded():
    return sorted({{"scipy", "mpmath"}} & set(sys.modules))
print(loaded())
assert dicke.cli.main(["solve", "--n", "4", "--method", "residue", "--points", "5",
                       "--format", "json", "--out", {str(table)!r}]) == 0
assert dicke.cli.main(["trajectories", "--n", "4", "--ntraj", "200", "--points", "5",
                       "--format", "json", "--out", {str(tmp_path / "mc.json")!r}]) == 0
print(loaded())
assert dicke.cli.main(["solve", "--n", "4", "--method", "ode", "--points", "5",
                       "--format", "json", "--out", {str(tmp_path / "ode.json")!r}]) == 0
print(loaded())
"""
    src = str(Path(dicke.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "[]", "['scipy']"]
    assert max(read_json(table)[0].meta["bits"]) == 53


def test_log_grid_solve(tmp_path):
    out = tmp_path / "log.csv"
    code = run(["solve", "--n", "32", "--grid", "log", "--t-min", "0.001",
                "--t-max", "2", "--points", "50", "--method", "ode", "--out", str(out)])
    assert code == 0
    times = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert times[0] == pytest.approx(0.001)
    ratios = np.diff(np.log(times))
    assert np.allclose(ratios, ratios[0])


def test_auto_grid_spacing_by_size(tmp_path):
    small = tmp_path / "small.csv"
    run(["solve", "--n", "4", "--t-max", "2", "--points", "20", "--method", "ode",
         "--out", str(small)])
    times = [float(line.split(",")[0]) for line in small.read_text().splitlines()[1:]]
    assert times[0] == 0.0
    assert np.allclose(np.diff(times), times[1] - times[0])

    large = tmp_path / "large.csv"
    run(["solve", "--n", "64", "--t-max", "2", "--points", "20", "--method", "ode",
         "--out", str(large)])
    times = [float(line.split(",")[0]) for line in large.read_text().splitlines()[1:]]
    assert times[0] > 0.0
    ratios = np.diff(np.log(times))
    assert np.allclose(ratios, ratios[0])


@pytest.mark.parametrize("gamma", ["inf", "nan"])
def test_non_finite_gamma_usage_error(gamma, capsys):
    assert run(["solve", "--n", "4", "--gamma", gamma, "--points", "5"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


@pytest.mark.parametrize("flags", [["--t-max", "inf"], ["--t-max", "nan"], ["--t-min", "nan"],
                                   ["--t-min", "inf", "--grid", "log"],
                                   ["--t-min=-inf", "--grid", "linear"]])
def test_non_finite_times_usage_error(flags, capsys):
    # refused before numpy builds the grid: pytest makes its RuntimeWarnings
    # errors, and nan used to be reported as a grid that is not increasing
    assert run(["solve", "--n", "8", "--points", "5"] + flags) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and "must be finite" in error["message"]


@pytest.mark.parametrize("delta_t", ["0", "-0.01", "nan", "inf"])
@pytest.mark.parametrize("subcommand", [["solve", "--method", "discrete"],
                                        ["compare", "--methods", "residue,discrete"]])
def test_bad_delta_t_usage_error(subcommand, delta_t, capsys):
    # refused before any division, naming delta_t: 0 exited 3 with a
    # ZeroDivisionError and inf with a FloatingPointError, and -0.01 and nan
    # failed later on the step counts they gave
    assert run(subcommand + ["--n", "4", "--points", "5", f"--delta-t={delta_t}"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "config" and "delta_t" in error["message"]


@pytest.mark.parametrize("flags", [
    ["--target-defect", "-1"], ["--target-defect", "nan"], ["--target-defect", "inf"],
    ["--max-bits", "-5"], ["--max-bits", "-5", "--method", "jordan"],
    ["--precision", "bits", "--bits", "80", "--max-bits", "-5"],
    ["--max-bits", "10"], ["--max-bits", "10", "--method", "jordan"],
    ["--precision", "double", "--max-bits", "10"]])
def test_bad_precision_flags_usage_error(flags, capsys):
    # refused before any work: without the check these escalate to the cap and exit 3
    # (or, for inf and for double, accept 53 bits everywhere and exit 0); no path
    # evaluates below 53 bits, so a cap under 53 can never be met
    assert run(["solve", "--n", "20", "--points", "5"] + flags) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_negative_env_bit_cap_usage_error(monkeypatch, capsys):
    for cap in ("-3", "32"):
        monkeypatch.setenv("DICKE_MAX_BITS", cap)
        assert run(["solve", "--n", "20", "--points", "5"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"


def test_low_fixed_width_shows_cancellation_loss(tmp_path):
    out = tmp_path / "b60.json"
    assert run(["solve", "--n", "40", "--precision", "bits", "--bits", "60",
                "--t-max", "2", "--points", "9", "--format", "json", "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["metadata"]
    assert set(meta["bits"]) == {60}
    assert meta["trace_defect"] > 1e-3
    # the recorded bounds own up to the loss: their sum bounds the trace defect
    assert sum(meta["error_bound"]) >= meta["trace_defect"]


def test_auto_partial_start_matches_wide_table(tmp_path):
    # this request's auto table once had trace defect 2.1e-7 (perfbench/README.md)
    out = tmp_path / "m64.json"
    assert run(["solve", "--method", "residue", "--precision", "auto", "--points", "50",
                "--format", "json", "--n", "128", "--initial", "64", "--out", str(out)]) == 0
    table, _ = read_json(out)
    wide = solve_populations(build_ladder(128, 1.0), 64, table.times, "residue",
                             PrecisionPolicy.bits(4 * 128 + 200))
    assert np.abs(table.populations - wide.populations).max() <= 1e-9


@pytest.mark.parametrize("method", ["residue", "jordan"])
def test_width_below_double_reported_as_used(method, tmp_path):
    out = tmp_path / f"{method}.json"
    assert run(["solve", "--n", "8", "--method", method, "--precision", "bits",
                "--bits", "2", "--t-max", "2", "--points", "5", "--format", "json",
                "--out", str(out)]) == 0
    bits = json.loads(out.read_text())["metadata"]["bits"]
    assert bits == [53] * 9


def solve_config(capsys, *flags):
    """The `config` block that `solve` prints for these flags."""
    assert run(["solve", *flags, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["config"]


REQUEST_DEFAULTS = {
    "gamma": 1.0, "t_max": 5.0, "t_min": None, "rel_tol": 1e-13, "abs_tol": 1e-15,
    "mc": {"n_traj": 100_000, "seed": 0},
}


def test_solve_config_block_auto_log_grid(monkeypatch, capsys):
    monkeypatch.delenv("DICKE_MAX_BITS", raising=False)
    assert solve_config(capsys, "--n", "70", "--points", "20") == {
        **REQUEST_DEFAULTS, "n_emitters": 70, "initial_m0": 70, "grid_points": 20,
        "grid_spacing": "log", "method": "residue",
        "precision": {"mode": "auto", "mantissa_bits": 53, "target_defect": 1e-12,
                      "max_bits": 16384}}


def test_solve_config_block_double_precision(monkeypatch, capsys):
    monkeypatch.delenv("DICKE_MAX_BITS", raising=False)
    assert solve_config(capsys, "--n", "6", "--initial", "4", "--points", "5",
                        "--precision", "double", "--max-bits", "200", "--seed", "3") == {
        **REQUEST_DEFAULTS, "n_emitters": 6, "initial_m0": 4, "grid_points": 5,
        "grid_spacing": "linear", "method": "residue",
        "precision": {"mode": "double", "mantissa_bits": 53, "target_defect": 1e-12,
                      "max_bits": 200},
        "mc": {"n_traj": 100_000, "seed": 3}}


def test_solve_config_block_log_grid_t_min(monkeypatch, capsys):
    monkeypatch.setenv("DICKE_MAX_BITS", "4096")
    assert solve_config(capsys, "--n", "10", "--grid", "log", "--t-min", "0.01",
                        "--points", "7", "--method", "laplace", "--precision", "bits",
                        "--bits", "90", "--rel-tol", "1e-10") == {
        **REQUEST_DEFAULTS, "n_emitters": 10, "initial_m0": 10, "t_min": 0.01,
        "grid_points": 7, "grid_spacing": "log", "method": "laplace", "rel_tol": 1e-10,
        "precision": {"mode": "bits", "mantissa_bits": 90, "target_defect": 1e-12,
                      "max_bits": 4096}}


def test_compare_config_is_first_methods(capsys):
    flags = ["--n", "6", "--points", "5", "--t-max", "2", "--ntraj", "500"]
    assert run(["compare", *flags, "--methods", "jordan,residue"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == solve_config(capsys, *flags, "--method", "jordan")
    assert report["config"]["method"] == "jordan"


def test_bench_row_solves_the_auto_log_grid(capsys):
    assert run(["bench", "--n-list", "64", "--methods", "residue", "--points", "20"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["bench"]
    table = solve_populations(build_ladder(64, 1.0), times=np.geomspace(5e-3, 5, 20))
    assert row["trace_defect"] == table.trace_defect()
    assert row["bits"] == max(table.meta["bits"])


@pytest.mark.parametrize("argv", [
    ["trajectories", "--n", "4", "--method", "ode"],
    ["compare", "--n", "4", "--methods", "residue,ode", "--format", "csv"],
    ["compare", "--n", "4", "--methods", "residue,ode", "--digits", "3"],
    # a prefix of a flag is not that flag
    ["solve", "--n", "4", "--prec", "double"],
    # settings Monte Carlo never reads
    *[["trajectories", "--n", "4", "--ntraj", "100", "--points", "3", flag, value]
      for flag, value in [("--series-order", "5"), ("--delta-t", "7"),
                          ("--precision", "double"), ("--bits", "90"),
                          ("--target-defect", "1e-9"), ("--max-bits", "200"),
                          ("--rel-tol", "1e-3"), ("--abs-tol", "1e-9")]]])
def test_flags_a_subcommand_ignores_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_flag_prefix_does_not_stand_for_the_flag(capsys):
    # with prefix matching, --method parsed as --methods and this request ran
    with pytest.raises(SystemExit) as exit_info:
        run(["compare", "--n", "4", "--points", "3", "--method", "residue,ode"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "required: --methods" in captured.err


def test_trajectories_config_block(monkeypatch, capsys):
    # the exact-method settings keep their defaults though trajectories has no flags for them
    monkeypatch.delenv("DICKE_MAX_BITS", raising=False)
    assert run(["trajectories", "--n", "8", "--ntraj", "3000", "--seed", "5",
                "--points", "11", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "n_emitters": 8, "gamma": 1.0, "initial_m0": 8, "t_max": 5.0, "t_min": None,
        "grid_points": 11, "grid_spacing": "linear", "method": "mc",
        "precision": {"mode": "auto", "mantissa_bits": 53, "target_defect": 1e-12,
                      "max_bits": 16384},
        "rel_tol": 1e-13, "abs_tol": 1e-15,
        "mc": {"n_traj": 3000, "seed": 5}}


def test_bench_without_methods_usage_error(capsys):
    assert run(["bench", "--n-list", "4", "--methods", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)["error"]
    assert error == {"kind": "usage", "message": "bench needs at least one method"}


EXACT_COMPARE = ["compare", "--n", "40", "--points", "20",
                 "--methods", "residue,laplace,jordan", "--tol", "0"]


def test_compare_evaluates_equal_expansions_once(fixed_point_passes, capsys):
    assert run(EXACT_COMPARE) == 0
    assert len(fixed_point_passes) == 1
    report = strict_json(capsys.readouterr().out)
    assert [p["max_abs_diff"] for p in report["pairs"]] == [0.0, 0.0, 0.0]


def test_compare_evaluates_a_disagreeing_expansion_on_its_own(monkeypatch, fixed_point_passes,
                                                              capsys):
    # the memo must never hide a difference: one laplace coefficient off by 2^-30
    invert = spectral.invert_laplace

    def perturbed(ladder, target_m, initial_m0, column=None):
        terms = invert(ladder, target_m, initial_m0, column=column)
        if target_m:
            return terms
        first, *rest = terms
        num, den = first.const_pair
        nudged = ResidueTerm(first.pole, first.multiplicity,
                             ((num << 30) + den, den << 30), first.linear_pair)
        return [nudged, *rest]

    monkeypatch.setattr(spectral, "invert_laplace", perturbed)
    assert run(EXACT_COMPARE) == 4
    assert len(fixed_point_passes) == 2
    captured = capsys.readouterr()
    pairs = {(p["a"], p["b"]): p["max_abs_diff"] for p in strict_json(captured.out)["pairs"]}
    assert pairs[("residue", "jordan")] == 0.0
    assert pairs[("residue", "laplace")] > 0 and pairs[("laplace", "jordan")] > 0
    assert strict_json(captured.err)["error"]["kind"] == "comparison"


def test_bench_evaluates_every_method(fixed_point_passes, capsys):
    # bench reports seconds per method, so no method may reuse another's pass
    assert run(["bench", "--n-list", "40", "--methods", "residue,laplace,jordan",
                "--points", "20"]) == 0
    assert len(json.loads(capsys.readouterr().out)["bench"]) == 3
    assert len(fixed_point_passes) == 3


def test_write_json_writes_non_finite_as_null(tmp_path):
    ladder = build_ladder(3, 1.0)
    table = solve_populations(ladder, times=np.linspace(0, 1, 4))
    table.populations[1, 2] = np.nan
    path = tmp_path / "nan.json"
    write_json(table, ladder, path)
    doc = strict_json(path.read_text())
    assert doc["populations"][1][2] is None
    assert doc["populations"][1][1] == table.populations[1, 1]


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "4", "--points", "3"],
    ["solve", "--n", "4", "--points", "3", "--format", "json"],
    ["compare", "--n", "4", "--points", "3", "--methods", "residue,jordan"]])
def test_unwritable_out_is_an_io_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "report"
    assert run([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = strict_json(captured.err)["error"]
    assert error["kind"] == "io" and error["path"] == str(out)


def readme_cli_examples():
    """The `dicke ...` lines of the sh block under `## CLI` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dicke ")]


def test_readme_cli_examples_run(tmp_path, capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 5
    for argv in examples:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        assert run(argv) == 0, argv
