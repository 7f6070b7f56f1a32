"""Pole census of a ladder range, kept as a test reference.

The solvers find their poles on their own: `residues.exact_terms` from the
closed-form index ranges and `spectral.ResolventColumn` while stepping a
resolvent column.  This plain count of the distinct values among
h_m..h_m0 is what the tests check both against.
"""

from __future__ import annotations

from dataclasses import dataclass

from dicke.ladder import DickeLadder


@dataclass(frozen=True)
class Pole:
    """One distinct denominator root: ladder value, how often it occurs
    inside the consumed index range, and the lowest index attaining it."""

    value: int
    multiplicity: int
    index: int


@dataclass(frozen=True)
class PoleSet:
    target_m: int
    initial_m0: int
    poles: tuple[Pole, ...]

    def values(self) -> tuple[int, ...]:
        return tuple(p.value for p in self.poles)

    def total_multiplicity(self) -> int:
        return sum(p.multiplicity for p in self.poles)


def classify_poles(ladder: DickeLadder, target_m: int, initial_m0: int) -> PoleSet:
    """Distinct ladder values among h_target..h_m0 with their occurrence
    count inside [target_m, m0] (the ladder structure caps the count at 2)."""
    n = ladder.n_emitters
    if not (0 <= target_m <= initial_m0 <= n):
        raise ValueError(
            f"need 0 <= target_m <= initial_m0 <= N, got m={target_m}, m0={initial_m0}, N={n}")
    first_index: dict[int, int] = {}
    counts: dict[int, int] = {}
    for k in range(target_m, initial_m0 + 1):
        v = ladder.h[k]
        counts[v] = counts.get(v, 0) + 1
        first_index.setdefault(v, k)
    poles = tuple(sorted(
        (Pole(value=v, multiplicity=c, index=first_index[v]) for v, c in counts.items()),
        key=lambda p: p.value))
    return PoleSet(target_m=target_m, initial_m0=initial_m0, poles=poles)
