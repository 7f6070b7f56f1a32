import os

import hypothesis
import pytest

from dicke import residues, trajectories, workers

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


@pytest.fixture
def fixed_point_passes(monkeypatch) -> list:
    """The rows of every fixed-point evaluation pass made during a test."""
    passes = []
    evaluate = residues._fixed_point_rows

    def counted(rows, gamma, grid):
        passes.append(rows)
        return evaluate(rows, gamma, grid)

    monkeypatch.setattr(residues, "_fixed_point_rows", counted)
    return passes


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
def cores(monkeypatch):
    """Force the worker count of the split passes: `cores(w)` reports w
    usable cores and drops the thresholds of the fixed-point pass and the
    Monte Carlo chunks to 0, so each of those passes of more than one share
    forks; `derive=True` drops the residue rows' threshold too.
    `cores(w, at_threshold=True)` keeps every real threshold."""
    work, draws, terms = residues.FORK_MIN_WORK, trajectories.FORK_MIN_DRAWS, residues.FORK_MIN_TERMS

    def force(count: int, at_threshold: bool = False, derive: bool = False) -> None:
        monkeypatch.setattr(workers, "usable_cores", lambda: count)
        monkeypatch.setattr(residues, "FORK_MIN_WORK", work if at_threshold else 0)
        monkeypatch.setattr(trajectories, "FORK_MIN_DRAWS", draws if at_threshold else 0)
        monkeypatch.setattr(residues, "FORK_MIN_TERMS", 0 if derive else terms)
    return force
