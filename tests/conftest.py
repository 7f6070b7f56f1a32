import hypothesis
import pytest

from dicke import residues

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
