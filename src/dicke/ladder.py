"""Problem definition for the collective-decay ladder.

An ensemble of N identical two-level emitters decaying through the shared
channel stays on the ladder of symmetric states |m>, m = 0..N.  The jump
m -> m-1 happens at rate gamma*h_m with h_m = m*(N+1-m), so everything any
solver needs is the integer ladder h_0..h_N, the bidiagonal rate generator
built from it.  The symmetry h_m = h_{N+1-m} makes ladder values
coincide in pairs, and those coincidences are what produce double poles /
size-2 Jordan blocks downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MAX_EMITTERS = 4096


@dataclass(frozen=True)
class DickeLadder:
    """Immutable problem instance: emitter count, decay rate, h ladder."""

    n_emitters: int
    gamma: float
    h: tuple[int, ...]

    @property
    def h_max(self) -> int:
        return max(self.h)

    def h_array(self) -> np.ndarray:
        return np.asarray(self.h, dtype=float)


@dataclass(frozen=True)
class RateMatrix:
    """Lower-bidiagonal generator in the top-down ordering: row/column i
    corresponds to state m = N - i, diagonal -h_m, subdiagonal feeds m-1."""

    n_emitters: int
    diagonal: tuple[int, ...]     # (-h_N, ..., -h_0)
    subdiagonal: tuple[int, ...]  # (h_N, ..., h_1)

    def to_dense(self, dtype=float) -> np.ndarray:
        dim = self.n_emitters + 1
        mat = np.zeros((dim, dim), dtype=dtype)
        mat[np.diag_indices(dim)] = self.diagonal
        mat[np.arange(1, dim), np.arange(dim - 1)] = self.subdiagonal
        return mat


def build_ladder(n_emitters: int, gamma: float,
                 max_emitters: int = DEFAULT_MAX_EMITTERS) -> DickeLadder:
    """Create the problem instance with exact integer h_m = m*(N+1-m)."""
    if not isinstance(n_emitters, (int, np.integer)) or n_emitters < 1:
        raise ValueError(f"n_emitters must be a positive integer, got {n_emitters!r}")
    if n_emitters > max_emitters:
        raise ValueError(f"n_emitters={n_emitters} exceeds the configured maximum {max_emitters}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    n = int(n_emitters)
    h = tuple(m * (n + 1 - m) for m in range(n + 1))
    return DickeLadder(n_emitters=n, gamma=float(gamma), h=h)


def build_rate_matrix(ladder: DickeLadder) -> RateMatrix:
    n = ladder.n_emitters
    diagonal = tuple(-ladder.h[m] for m in range(n, -1, -1))
    subdiagonal = tuple(ladder.h[m] for m in range(n, 0, -1))
    return RateMatrix(n_emitters=n, diagonal=diagonal, subdiagonal=subdiagonal)
