"""The fixed-point pass split over forked workers: the same bits for any
worker count, and no process left behind."""

import json
import os
import time

import numpy as np
import pytest

from dicke import residues
from dicke.cli import _time_grid, main
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.precision import PrecisionPolicy
from dicke.residues import RoundedRow, WorkerError, evaluate_rows, exact_terms

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pass forks on POSIX only")


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pids of the workers forked during a test."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def workers(monkeypatch):
    """Force the pass's worker count: `workers(w)` reports w usable cores,
    and `workers(w, threshold)` sets the work below which it does not fork
    (0 by default, so every pass forks)."""
    def force(count: int, threshold: int = 0) -> None:
        monkeypatch.setattr(residues, "_usable_cores", lambda: count)
        monkeypatch.setattr(residues, "FORK_MIN_WORK", threshold)
    return force


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
def test_forked_pass_equals_one_process_pass(workers, forks, count, points):
    grid = GRIDS[points]
    workers(1)
    alone = evaluate_rows(ROWS, 1.0, grid)
    assert forks == []
    workers(count)
    split = evaluate_rows(ROWS, 1.0, grid)
    # the worker count is capped at the grid size
    assert len(forks) == min(count, points) - 1
    assert np.array_equal(split, alone)
    assert no_child_left()


def test_benchmark_n128_request_forks_with_a_spare_core(workers, forks):
    # auto precision on the CLI's grid, at the real work threshold
    ladder, grid = build_ladder(128, 1.0), _time_grid(128, 5.0, 50)
    workers(1, residues.FORK_MIN_WORK)
    alone = solve_populations(ladder, times=grid, method="residue")
    workers(2, residues.FORK_MIN_WORK)
    split = solve_populations(ladder, times=grid, method="residue")
    assert len(forks) == 1
    assert np.array_equal(split.populations, alone.populations)
    assert split.meta == alone.meta


def test_n64_passes_stay_in_one_process(workers, forks):
    # below the work threshold: the N = 64 table and the 212-bit start at
    # m0 = 64 cost less than the fork would save
    workers(2, residues.FORK_MIN_WORK)
    solve_populations(build_ladder(64, 1.0), times=_time_grid(64, 5.0, 50), method="residue")
    solve_populations(build_ladder(128, 1.0), initial_m0=64, times=_time_grid(128, 5.0, 50),
                      method="residue", policy=PrecisionPolicy.bits(212))
    assert forks == []


def test_partial_start_at_212_bits_splits_to_the_same_bits(workers, forks):
    ladder, grid = build_ladder(128, 1.0), _time_grid(128, 5.0, 50)
    policy = PrecisionPolicy.bits(212)
    workers(1)
    alone = solve_populations(ladder, initial_m0=64, times=grid, policy=policy)
    workers(3)
    split = solve_populations(ladder, initial_m0=64, times=grid, policy=policy)
    assert len(forks) == 2
    assert np.array_equal(split.populations, alone.populations)


def test_laplace_and_jordan_rows_split_inside_shared_evaluation(workers, forks):
    ladder, grid = build_ladder(40, 1.0), np.linspace(0.0, 3.0, 11)
    policy = PrecisionPolicy.bits(150)
    workers(1)
    alone = solve_populations(ladder, times=grid, policy=policy).populations
    workers(3)
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


def test_failed_fork_leaves_the_share_to_this_process(workers, monkeypatch):
    grid = GRIDS[9]
    workers(1)
    alone = evaluate_rows(ROWS, 1.0, grid)

    def refuse():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", refuse)
    workers(3)
    assert np.array_equal(evaluate_rows(ROWS, 1.0, grid), alone)


# --- process hygiene --------------------------------------------------------

def test_error_in_own_share_kills_and_reaps_the_workers(workers, forks, monkeypatch):
    parent = os.getpid()
    exponentials = residues._ladder_exponentials

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)   # a worker that would outlive the test if not killed
        elif args[2] > 0:
            raise ZeroDivisionError("the parent's own share fails")
        return exponentials(*args)

    monkeypatch.setattr(residues, "_ladder_exponentials", stalled)
    workers(3)
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


def test_dead_worker_fails_the_pass(workers, forks, monkeypatch):
    dying_worker(monkeypatch)
    workers(2)
    with pytest.raises(WorkerError, match="worker 1 sent 0 of"):
        evaluate_rows(ROWS, 1.0, GRIDS[9])
    assert len(forks) == 1
    assert no_child_left()


def test_short_data_fails_the_pass(workers, monkeypatch):
    def short(column, columns, pipe):
        os.write(pipe, b"\0" * 8)
        os._exit(0)

    monkeypatch.setattr(residues, "_worker", short)
    workers(2)
    with pytest.raises(WorkerError, match="sent 8 of"):
        evaluate_rows(ROWS, 1.0, GRIDS[9])
    assert no_child_left()


def test_dead_worker_makes_solve_exit_3_without_output(workers, forks, monkeypatch,
                                                       tmp_path, capsys):
    dying_worker(monkeypatch)
    workers(2)
    out = tmp_path / "table.json"
    code = main(["solve", "--n", "30", "--points", "9", "--precision", "bits", "--bits", "120",
                 "--format", "json", "--out", str(out)])
    assert code == 3
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "WorkerError" and "worker 1" in error["message"]
    assert not out.exists()
    assert len(forks) == 1
    assert no_child_left()
