"""The residue row derivation, the fixed-point pass and the Monte Carlo
chunks split over forked workers: the same bits and errors for any worker
count, and no process left behind."""

import json
import os
import pickle
import time

import numpy as np
import pytest

from dicke import residues, trajectories, workers
from dicke.cli import _time_grid, main
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.precision import PrecisionError, PrecisionPolicy
from dicke.residues import RoundedRow, evaluate_rows, exact_terms
from dicke.trajectories import chunk_size, estimate
from dicke.workers import WorkerError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the passes fork on POSIX only")


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


ROWS = [RoundedRow(exact_terms(build_ladder(30, 1.0), m, 30), PrecisionPolicy.bits(120))
        for m in range(31)]
GRIDS = {1: np.array([0.4]), 2: np.array([0.0, 0.7]),
         9: np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 7), [1e4]])}


@pytest.mark.parametrize("points", sorted(GRIDS))
@pytest.mark.parametrize("count", [2, 3, 12])
def test_forked_pass_equals_one_process_pass(cores, forks, count, points):
    grid = GRIDS[points]
    cores(1)
    alone = evaluate_rows(ROWS, 1.0, grid)
    assert forks == []
    cores(count)
    split = evaluate_rows(ROWS, 1.0, grid)
    # the worker count is capped at the grid size
    assert len(forks) == min(count, points) - 1
    assert np.array_equal(split, alone)
    assert no_child_left()


def test_benchmark_n128_request_forks_with_a_spare_core(cores, forks):
    # auto precision on the CLI's grid, at the real work threshold
    ladder, grid = build_ladder(128, 1.0), _time_grid(128, 5.0, 50)
    cores(1, at_threshold=True)
    alone = solve_populations(ladder, times=grid, method="residue")
    cores(2, at_threshold=True)
    split = solve_populations(ladder, times=grid, method="residue")
    assert len(forks) == 2   # one derivation worker, then one pass worker
    assert np.array_equal(split.populations, alone.populations)
    assert split.meta == alone.meta


def test_n64_passes_stay_in_one_process(cores, forks):
    # below the work thresholds: the N = 64 table and the 212-bit start at
    # m0 = 64 cost less than a fork would save, in the derivation and the pass
    cores(2, at_threshold=True)
    solve_populations(build_ladder(64, 1.0), times=_time_grid(64, 5.0, 50), method="residue")
    solve_populations(build_ladder(128, 1.0), initial_m0=64, times=_time_grid(128, 5.0, 50),
                      method="residue", policy=PrecisionPolicy.bits(212))
    assert forks == []


def test_partial_start_at_212_bits_splits_to_the_same_bits(cores, forks):
    ladder, grid = build_ladder(128, 1.0), _time_grid(128, 5.0, 50)
    policy = PrecisionPolicy.bits(212)
    cores(1)
    alone = solve_populations(ladder, initial_m0=64, times=grid, policy=policy)
    cores(3)
    split = solve_populations(ladder, initial_m0=64, times=grid, policy=policy)
    assert len(forks) == 2
    assert np.array_equal(split.populations, alone.populations)


def test_laplace_and_jordan_rows_split_inside_shared_evaluation(cores, forks):
    ladder, grid = build_ladder(40, 1.0), np.linspace(0.0, 3.0, 11)
    policy = PrecisionPolicy.bits(150)
    cores(1)
    alone = solve_populations(ladder, times=grid, policy=policy).populations
    cores(3)
    for method in ("laplace", "jordan"):
        # a fresh memo each, so each method's own rows make a forked pass
        with residues.shared_evaluation():
            split = solve_populations(ladder, times=grid, method=method, policy=policy)
        assert np.array_equal(split.populations, alone), method
    assert len(forks) == 4
    with residues.shared_evaluation():
        tables = [solve_populations(ladder, times=grid, method=m, policy=policy)
                  for m in ("residue", "laplace", "jordan")]
    assert len(forks) == 6   # one pass, shared by the three
    assert all(np.array_equal(t.populations, alone) for t in tables)
    assert no_child_left()


def test_failed_fork_leaves_the_share_to_this_process(cores, monkeypatch):
    grid = GRIDS[9]
    cores(1)
    alone = evaluate_rows(ROWS, 1.0, grid)

    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    cores(3)
    assert np.array_equal(evaluate_rows(ROWS, 1.0, grid), alone)


# --- process hygiene --------------------------------------------------------

def test_error_in_own_share_kills_and_reaps_the_workers(cores, forks, monkeypatch):
    parent = os.getpid()
    exponentials = residues._ladder_exponentials

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)   # a worker that would outlive the test if not killed
        elif args[2] > 0:
            raise ZeroDivisionError("the parent's own share fails")
        return exponentials(*args)

    monkeypatch.setattr(residues, "_ladder_exponentials", stalled)
    cores(3)
    start = time.perf_counter()
    with pytest.raises(ZeroDivisionError, match="own share"):
        evaluate_rows(ROWS, 1.0, GRIDS[9])
    assert time.perf_counter() - start < 30
    assert len(forks) == 2
    assert no_child_left()
    for pid in forks:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def dying_worker(monkeypatch):
    """Make every forked worker exit with status 1 before it sends anything."""
    parent = os.getpid()
    exponentials = residues._ladder_exponentials

    def die(*args):
        if os.getpid() != parent:
            os._exit(1)
        return exponentials(*args)

    monkeypatch.setattr(residues, "_ladder_exponentials", die)


def test_dead_worker_fails_the_pass(cores, forks, monkeypatch):
    dying_worker(monkeypatch)
    cores(2)
    with pytest.raises(WorkerError, match="fixed-point pass worker 1 sent a broken share"):
        evaluate_rows(ROWS, 1.0, GRIDS[9])
    assert len(forks) == 1
    assert no_child_left()


def test_short_data_fails_the_pass(cores, monkeypatch):
    def short(share, w, pipe):
        os.write(pipe, b"\0" * 8)
        os._exit(0)

    monkeypatch.setattr(workers, "_worker", short)
    cores(2)
    with pytest.raises(WorkerError, match="fixed-point pass worker 1 sent a broken share"):
        evaluate_rows(ROWS, 1.0, GRIDS[9])
    assert no_child_left()


def test_dead_worker_makes_solve_exit_3_without_output(cores, forks, monkeypatch,
                                                       tmp_path, capsys):
    dying_worker(monkeypatch)
    cores(2)
    out = tmp_path / "table.json"
    code = main(["solve", "--n", "30", "--points", "9", "--precision", "bits", "--bits", "120",
                 "--format", "json", "--out", str(out)])
    assert code == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "WorkerError" and "worker 1" in error["message"]
    assert not out.exists()
    assert len(forks) == 1
    assert no_child_left()


# --- row derivation ---------------------------------------------------------

def residue_solve(monkeypatch, ladder, grid, **kwargs):
    """A residue table and the rounded rows it was evaluated from."""
    captured = []
    assemble = residues.assemble_table

    def capture(ladder, m0, grid, rows, method, policy):
        captured.append(rows)
        return assemble(ladder, m0, grid, rows, method, policy)

    monkeypatch.setattr(residues, "assemble_table", capture)
    table = solve_populations(ladder, times=grid, method="residue", **kwargs)
    return table, captured.pop()


@pytest.mark.parametrize("count", [1, 2, 3, 12])
def test_split_derivation_equals_one_process_rows(cores, forks, monkeypatch, count):
    # widths 53 to 109 bits, rows above m0 = 24 zero, and one grid time, so
    # that only the derivation forks
    ladder, grid = build_ladder(30, 1.0), np.array([0.3])
    cores(1, derive=True)
    alone, alone_rows = residue_solve(monkeypatch, ladder, grid, initial_m0=24)
    assert forks == []
    cores(count, derive=True)
    split, split_rows = residue_solve(monkeypatch, ladder, grid, initial_m0=24)
    assert len(forks) == count - 1
    assert len({row.bits for row in alone_rows if row}) > 10
    assert [row is None for row in split_rows] == [row is None for row in alone_rows]
    for a, b in zip(alone_rows[:25], split_rows[:25]):
        assert (a.key(), a.bits, a.bound) == (b.key(), b.bits, b.bound)
    assert np.array_equal(split.populations, alone.populations)
    assert split.meta == alone.meta
    assert no_child_left()


def test_failed_fork_leaves_the_rows_to_this_process(cores, monkeypatch):
    ladder, grid = build_ladder(30, 1.0), np.array([0.3])
    cores(1)
    alone = solve_populations(ladder, times=grid)

    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    cores(3, derive=True)
    split = solve_populations(ladder, times=grid)
    assert np.array_equal(split.populations, alone.populations)
    assert split.meta == alone.meta


def test_precision_cap_error_is_the_same_for_any_core_count(cores, forks, monkeypatch,
                                                            tmp_path, capsys):
    # at a 297-bit cap rows 1, 2, 3, ... of N = 128 fail and row 0 does not.
    # With two workers row 1 fails in the child and row 2 in this process;
    # the error is row 1's, the one a single process meets first.
    ladder, policy = build_ladder(128, 1.0), PrecisionPolicy(max_bits=297)
    with pytest.raises(PrecisionError) as row_1:
        RoundedRow(exact_terms(ladder, 1, 128), policy)
    with pytest.raises(PrecisionError):
        RoundedRow(exact_terms(ladder, 2, 128), policy)
    monkeypatch.setenv("DICKE_MAX_BITS", "297")
    out = tmp_path / "table.json"
    argv = ["solve", "--n", "128", "--points", "50", "--format", "json", "--out", str(out)]
    reports = []
    for count in (1, 2, 3):
        cores(count, at_threshold=True)
        reports.append((main(argv), capsys.readouterr().err))
    assert reports == [reports[0]] * 3
    code, err = reports[0]
    assert code == 3
    error = json.loads(err)["error"]
    assert error == {"kind": "PrecisionError", "message": str(row_1.value),
                     "defect": row_1.value.defect, "bits": 297}
    assert not out.exists()
    assert len(forks) == 1 + 2   # derivation workers only: no pass starts
    assert no_child_left()


def dying_derivation(monkeypatch):
    """Make every forked worker exit with status 1 when it derives a row."""
    parent = os.getpid()
    derive = residues.exact_terms

    def die(*args):
        if os.getpid() != parent:
            os._exit(1)
        return derive(*args)

    monkeypatch.setattr(residues, "exact_terms", die)


def test_dead_derivation_worker_makes_solve_exit_3_without_output(cores, forks, monkeypatch,
                                                                 tmp_path, capsys):
    dying_derivation(monkeypatch)
    cores(2, derive=True)
    out = tmp_path / "table.json"
    code = main(["solve", "--n", "30", "--points", "9", "--format", "json", "--out", str(out)])
    assert code == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "WorkerError"
    assert "row derivation worker 1 sent a broken share" in error["message"]
    assert not out.exists()
    assert len(forks) == 1   # no pass starts
    assert no_child_left()


def test_truncated_share_fails_the_derivation(cores, monkeypatch):
    def truncated(share, w, pipe):
        data = pickle.dumps(share(w), pickle.HIGHEST_PROTOCOL)
        os.write(pipe, data[:len(data) // 2])
        os._exit(0)

    monkeypatch.setattr(workers, "_worker", truncated)
    cores(2, derive=True)
    with pytest.raises(WorkerError, match="row derivation worker 1 sent a broken share"):
        solve_populations(build_ladder(30, 1.0), times=np.array([0.3]))
    assert no_child_left()


def test_error_in_own_derivation_kills_and_reaps_the_workers(cores, forks, monkeypatch):
    parent = os.getpid()
    derive = residues.exact_terms

    def stalled(ladder, m, m0):
        if os.getpid() != parent:
            time.sleep(60)   # a worker that would outlive the test if not killed
        elif m > 0:
            raise ZeroDivisionError("the parent's own share fails")
        return derive(ladder, m, m0)

    monkeypatch.setattr(residues, "exact_terms", stalled)
    cores(3, derive=True)
    start = time.perf_counter()
    with pytest.raises(ZeroDivisionError, match="own share"):
        solve_populations(build_ladder(30, 1.0), times=np.array([0.3]))
    assert time.perf_counter() - start < 30
    assert len(forks) == 2
    assert no_child_left()


# --- Monte Carlo chunks -----------------------------------------------------

MC_GRID = np.linspace(0.0, 2.0, 9)
CHUNK = chunk_size(8)
# one trajectory, exactly one chunk, a partial last chunk, and more
# chunks than workers (12 workers on any host: more than its cores)
MC_SIZES = {"one trajectory": 1, "one chunk": CHUNK, "partial last chunk": 2 * CHUNK + 1,
            "many chunks": 12 * CHUNK + 5}


def mc_pair(cores, count: int, ladder, m0: int, n_traj: int, seed: int = 11):
    """One-process and forked estimates of the same request."""
    cores(1)
    alone = estimate(ladder, m0, MC_GRID, n_traj=n_traj, root_seed=seed)
    cores(count)
    return alone, estimate(ladder, m0, MC_GRID, n_traj=n_traj, root_seed=seed)


@pytest.mark.parametrize("size", sorted(MC_SIZES))
@pytest.mark.parametrize("count", [2, 3, 12])
def test_forked_mc_counts_equal_one_process_counts(cores, forks, count, size):
    n_traj = MC_SIZES[size]
    alone, split = mc_pair(cores, count, build_ladder(8, 1.0), 8, n_traj)
    # worker w takes the chunks c = w (mod W), W capped at the chunk count
    assert split.chunks == alone.chunks == -(-n_traj // CHUNK)
    assert len(forks) == min(count, split.chunks) - 1
    assert np.array_equal(split.counts, alone.counts)
    assert (split.counts.sum(axis=0) == n_traj).all()
    assert split.library_streams == alone.library_streams == 0
    assert no_child_left()


def test_library_streams_are_summed_over_the_workers(cores, forks):
    # m0 = 160 is past _VECTOR_DRAWS: every stream is a library generator
    assert 160 > trajectories._VECTOR_DRAWS
    alone, split = mc_pair(cores, 3, build_ladder(160, 1.0), 160, 300)
    assert split.chunks == 2 and len(forks) == 1
    assert split.library_streams == alone.library_streams == 300
    assert np.array_equal(split.counts, alone.counts)


def test_benchmark_mc_request_forks_with_a_spare_core(cores, forks):
    # the mc_cascade request, at the real threshold: 1e5 x 8 draws
    cores(2, at_threshold=True)
    estimate(build_ladder(8, 1.0), 8, np.linspace(0, 2, 50), n_traj=100_000, root_seed=7000)
    assert len(forks) == 1
    assert no_child_left()


def test_small_mc_request_stays_in_one_process(cores, forks, tmp_path):
    # the CLI tests' 2000 x 4 draws are below the threshold
    cores(2, at_threshold=True)
    assert main(["solve", "--n", "4", "--method", "mc", "--ntraj", "2000", "--seed", "42",
                 "--t-max", "2", "--points", "10", "--format", "json",
                 "--out", str(tmp_path / "mc.json")]) == 0
    assert forks == []


def test_failed_fork_leaves_the_mc_share_to_this_process(cores, monkeypatch):
    ladder, n_traj = build_ladder(8, 1.0), 3 * CHUNK
    cores(1)
    alone = estimate(ladder, 8, MC_GRID, n_traj=n_traj, root_seed=5)

    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    cores(3)
    split = estimate(ladder, 8, MC_GRID, n_traj=n_traj, root_seed=5)
    assert np.array_equal(split.counts, alone.counts)
    assert split.library_streams == alone.library_streams


def dying_mc_worker(monkeypatch):
    """Make every forked Monte Carlo worker exit with status 1 before it sends anything."""
    parent = os.getpid()
    binning = trajectories.bin_trajectory

    def die(*args):
        if os.getpid() != parent:
            os._exit(1)
        return binning(*args)

    monkeypatch.setattr(trajectories, "bin_trajectory", die)


def test_dead_mc_worker_fails_the_estimate(cores, forks, monkeypatch):
    dying_mc_worker(monkeypatch)
    cores(2)
    with pytest.raises(WorkerError, match="Monte Carlo pass worker 1 sent a broken share"):
        estimate(build_ladder(8, 1.0), 8, MC_GRID, n_traj=2 * CHUNK, root_seed=1)
    assert len(forks) == 1
    assert no_child_left()


def test_dead_mc_worker_makes_trajectories_exit_3_without_output(cores, forks, monkeypatch,
                                                                 tmp_path, capsys):
    dying_mc_worker(monkeypatch)
    cores(2)
    out = tmp_path / "mc.json"
    code = main(["trajectories", "--n", "8", "--ntraj", str(2 * CHUNK), "--points", "9",
                 "--format", "json", "--out", str(out)])
    assert code == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "WorkerError" and "worker 1" in error["message"]
    assert not out.exists()
    assert len(forks) == 1
    assert no_child_left()
