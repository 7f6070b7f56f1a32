"""Brute-force constrained monomial sums, kept as a test reference.

`oracles.constrained_sum_residue` evaluates these sums by the residue
formula, the paper's combinatorial route.  This plain enumeration over
every exponent composition is the authority the tests check it against.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dicke.oracles import ConstrainedSumQuery


def constrained_sum_bruteforce(query: ConstrainedSumQuery,
                               enumeration_cap: int = 10 ** 7) -> Fraction:
    """Exact nested enumeration over all exponent compositions."""
    n_t = len(query.terms)
    size = math.comb(query.total_degree + n_t - 1, n_t - 1)
    if size > enumeration_cap:
        raise ValueError(f"enumeration size {size} exceeds cap {enumeration_cap}")

    def rec(idx: int, remaining: int) -> Fraction:
        if idx == n_t - 1:
            return query.terms[idx] ** remaining
        total = Fraction(0)
        for e in range(remaining + 1):
            total += query.terms[idx] ** e * rec(idx + 1, remaining - e)
        return total

    return rec(0, query.total_degree)
