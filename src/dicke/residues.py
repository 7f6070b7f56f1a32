"""Closed-form populations as finite sums of (A + B*g*t) * exp(-h*g*t).

For a start state m0 and a target m <= m0 the population is the sum of
residues of

    (-1)^(m0-m) * (h_m0 ... h_{m+1}) * exp(-z*g*t) / ((z - h_m0)...(z - h_m))

over the distinct ladder values h_p with p in [m, m0].  A value occurring
twice in the range is a double pole and contributes the non-exponential
g*t * exp(-h*g*t) piece.  Coefficients are exact rationals in closed form:
with p' = N+1-p every pole gap factors as h_p - h_k = (p-k)(p'-k), so the
denominators are signed ratios of factorials and the double-pole
logarithmic derivative is a difference of harmonic numbers.  Evaluation
rounds each coefficient once, at the width chosen per `PrecisionPolicy`,
and sums the rounded values exactly in integer fixed point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import mpmath
import numpy as np

from .ladder import DickeLadder, classify_poles
from .precision import (DOUBLE_BITS, GUARD_BITS, PrecisionPolicy, error_bound,
                        fraction_to_float, resolve_bits, round_to_bits,
                        rounding_defect, scaled_to_float)
from .states import EvolutionTable, check_time_grid

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ResidueTerm:
    """One pole's contribution (const + linear*g*t) * exp(-pole*g*t).

    `const`/`linear` are exact rationals; `bits` is the width the policy
    resolved, to which both are rounded before the sum is evaluated (not
    part of equality: two derivations of the same expansion compare equal
    regardless of the precision they were requested at).
    """

    pole: int
    multiplicity: int
    const: Fraction
    linear: Fraction
    bits: int = field(default=DOUBLE_BITS, compare=False)


@functools.lru_cache(maxsize=4)
def _prefix_tables(n_emitters: int) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Factorials 0!..(N+1)! and harmonic numbers H_0..H_{N+1}."""
    fact, harm = [1], [_ZERO]
    for k in range(1, n_emitters + 2):
        fact.append(fact[-1] * k)
        harm.append(harm[-1] + Fraction(1, k))
    return tuple(fact), tuple(harm)


def _gap_product(fact, x: int, m: int, m0: int) -> int:
    """Product of (x - k) over k in [m, m0] with k != x."""
    if x > m0:
        return fact[x - m] // fact[x - m0 - 1]
    if x < m:
        sign = -1 if (m0 - m + 1) % 2 else 1
        return sign * (fact[m0 - x] // fact[m - x - 1])
    sign = -1 if (m0 - x) % 2 else 1
    return sign * fact[x - m] * fact[m0 - x]


def exact_terms(ladder: DickeLadder, target_m: int, initial_m0: int
                ) -> list[tuple[int, int, Fraction, Fraction]]:
    """Exact (pole, multiplicity, const, linear) tuples, poles ascending."""
    n = ladder.n_emitters
    m, m0 = target_m, initial_m0
    pole_set = classify_poles(ladder, m, m0)
    fact, harm = _prefix_tables(n)
    sign = -1 if (m0 - m) % 2 else 1
    # h_{m+1} ... h_m0 = (m0!/m!) * ((N-m)!/(N-m0)!)
    signed_num = sign * (fact[m0] // fact[m]) * (fact[n - m] // fact[n - m0])

    out = []
    for pole in pole_set.poles:
        # p is the lowest index in [m, m0] with h_p = pole.value; its partner
        # p' may lie outside the range (a simple pole) or coincide with p
        # (odd-N middle)
        p = pole.index
        q = n + 1 - p
        run_p = _gap_product(fact, p, m, m0)
        if q == p:
            den = run_p * run_p
        else:
            # the gaps skip k = p and k = q in both runs
            if pole.multiplicity == 2:
                run_p //= p - q
            den = run_p * (_gap_product(fact, q, m, m0) // (q - p))
        c = Fraction(signed_num, den)
        if pole.multiplicity == 1:
            out.append((pole.value, 1, c, _ZERO))
            continue
        # double pole: with c(z) = signed_num / prod(z - h_k) over the
        # non-degenerate factors, the residue is [c'(v) - g*t*c(v)] *
        # exp(-v*g*t) and c'(v) = -c(v) * s, s = sum_k 1/((p-k)(q-k)) =
        # (S_p - S_q)/(q-p) by partial fractions, S_x = sum_k 1/(x-k)
        s = (harm[p - m] - harm[m0 - p] - harm[q - m] + harm[m0 - q]
             + Fraction(2, q - p)) / (q - p)
        out.append((pole.value, 2, -c * s, -c))
    return out


def residue_terms(ladder: DickeLadder, target_m: int, initial_m0: int,
                  policy: PrecisionPolicy | None = None) -> list[ResidueTerm]:
    """Term list for rho_m(t) from start state m0, rounded to the width
    `resolve_bits` picks for it."""
    raw = exact_terms(ladder, target_m, initial_m0)
    bits, _ = resolve_bits(raw, policy or PrecisionPolicy())
    return [ResidueTerm(*term, bits=bits) for term in raw]


def above_equator_closed_form(ladder: DickeLadder, target_m: int) -> list[ResidueTerm]:
    """All-simple-pole expansion for a fully inverted start, valid only in
    the upper half of the ladder where the consumed h values are distinct."""
    n = ladder.n_emitters
    if n % 2 == 0:
        valid = target_m >= n // 2 + 1
    else:
        valid = target_m >= (n + 1) // 2
    if not (0 <= target_m <= n) or not valid:
        raise ValueError(
            f"closed form only holds above the equator; m={target_m} is outside "
            f"its domain for N={n}")
    h = ladder.h
    sign = -1 if (n - target_m) % 2 else 1
    numerator = 1
    for k in range(target_m + 1, n + 1):
        numerator *= h[k]
    signed_num = sign * numerator
    out = []
    for j in range(target_m, n + 1):
        den = 1
        for jp in range(target_m, n + 1):
            if jp != j:
                den *= h[j] - h[jp]
        out.append(ResidueTerm(pole=h[j], multiplicity=1,
                               const=Fraction(signed_num, den), linear=_ZERO))
    out.sort(key=lambda t: t.pole)
    return out


def evaluate_population(terms: list[ResidueTerm], gamma: float, t: float) -> float:
    """Sum the expansion at one time; result downgraded to float64."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return float(evaluate_rows([terms], gamma, np.array([float(t)]))[0, 0])


def _row_eval_double(terms: list[ResidueTerm], gamma: float, grid: np.ndarray) -> np.ndarray:
    poles = np.array([t.pole for t in terms], dtype=float)
    consts = np.array([fraction_to_float(t.const) for t in terms])
    linears = np.array([fraction_to_float(t.linear) for t in terms])
    gt = gamma * grid
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        weights = consts[:, None] + linears[:, None] * gt[None, :]
        return (weights * np.exp(-poles[:, None] * gt[None, :])).sum(axis=0)


def _to_fixed(mant: int, exp: int, frac_bits: int) -> int:
    """mant * 2**exp as an int scaled by 2**frac_bits, rounded to nearest."""
    shift = exp + frac_bits
    if shift >= 0:
        return mant << shift
    if mant.bit_length() < -shift:
        # below half a unit; also keeps exp(-h*g*t) at huge g*t from
        # building a rounding constant of -shift bits
        return 0
    return (mant + (1 << (-shift - 1))) >> -shift


def _fixed_point_rows(rows: list[list[ResidueTerm]], gamma: float,
                      grid: np.ndarray) -> np.ndarray:
    """Evaluate term lists wider than float64 in integer fixed point.

    Each coefficient is rounded once to its row's width b (round-half-even)
    and stored as an int scaled by 2**F, F = widest width + GUARD_BITS; a
    coefficient below 2**(b-F) also loses the bits under 2**-F.
    exp(-h*g*t) and g*t*exp(-h*g*t) are ints at the same scale, computed
    once per distinct pole and time, so every entry is an exact integer dot
    product rounded to float64 once.
    """
    widths = [max(t.bits for t in row) for row in rows]
    frac_bits = max(widths) + GUARD_BITS
    poles = sorted({t.pole for row in rows for t in row})
    index = {v: i for i, v in enumerate(poles)}
    doubled = {index[t.pole] for row in rows for t in row if t.linear}
    fixed = []
    for row, bits in zip(rows, widths):
        consts = [_to_fixed(*round_to_bits(t.const, bits), frac_bits) for t in row]
        linear = [t for t in row if t.linear]
        fixed.append(([index[t.pole] for t in row], consts,
                      [index[t.pole] for t in linear],
                      [_to_fixed(*round_to_bits(t.linear, bits), frac_bits) for t in linear]))

    out = np.empty((len(rows), grid.size))
    # g*t is exact at this width (a product of two doubles), and exp's
    # error stays far below 2**-F
    with mpmath.workprec(frac_bits + 32):
        gamma_mp = mpmath.mpf(gamma)
        for j, t in enumerate(grid):
            gt = gamma_mp * mpmath.mpf(float(t))
            expo = [mpmath.exp(-v * gt) for v in poles]
            # both factors are nonnegative, so man_exp (unsigned) is exact
            e_fix = [_to_fixed(*x.man_exp, frac_bits) for x in expo]
            g_fix = {i: _to_fixed(*(gt * expo[i]).man_exp, frac_bits) for i in doubled}
            for r, (idx, consts, lin_idx, linears) in enumerate(fixed):
                acc = sum(map(mul, consts, map(e_fix.__getitem__, idx)))
                if linears:
                    acc += sum(map(mul, linears, map(g_fix.__getitem__, lin_idx)))
                out[r, j] = scaled_to_float(acc, 2 * frac_bits)
    return out


def evaluate_rows(rows: list[list[ResidueTerm] | None], gamma: float,
                  grid: np.ndarray) -> np.ndarray:
    """(len(rows), |grid|) values of per-row term lists: rows at float64
    width in numpy, wider rows together in one fixed-point pass, empty rows
    zero."""
    out = np.zeros((len(rows), grid.size))
    wide = []
    for r, row in enumerate(rows):
        if not row:
            continue
        if max(t.bits for t in row) <= DOUBLE_BITS:
            out[r] = _row_eval_double(row, gamma, grid)
        else:
            wide.append(r)
    if wide:
        out[wide] = _fixed_point_rows([rows[r] for r in wide], gamma, grid)
    return out


def rows_meta(rows_terms: list[list[ResidueTerm] | None], initial_m0: int, method: str,
              policy: PrecisionPolicy) -> dict:
    """Provenance of a table evaluated from per-row term lists: the width of
    every row, its a-priori error bound at that width and its t=0
    reconstruction defect."""
    bits_per_row = [max(t.bits for t in row) if row else DOUBLE_BITS for row in rows_terms]
    return {
        "method": method,
        "precision_mode": policy.mode,
        "bits": bits_per_row,
        "error_bound": [error_bound([(t.pole, t.multiplicity, t.const, t.linear) for t in row],
                                    bits) if row else 0.0
                        for row, bits in zip(rows_terms, bits_per_row)],
        "t0_defect": [rounding_defect([t.const for t in row], int(m == initial_m0),
                                      bits_per_row[m]) if row else 0.0
                      for m, row in enumerate(rows_terms)],
    }


def assemble_table(ladder: DickeLadder, initial_m0: int, grid: np.ndarray,
                   rows_terms: list[list[ResidueTerm] | None], method: str,
                   policy: PrecisionPolicy) -> EvolutionTable:
    """Evaluate per-row term lists over a grid into a table with
    `rows_meta` provenance."""
    populations = evaluate_rows(rows_terms, ladder.gamma, grid)
    return EvolutionTable(n_emitters=ladder.n_emitters, gamma=ladder.gamma,
                          initial_m0=initial_m0, times=grid, populations=populations,
                          method=method,
                          meta=rows_meta(rows_terms, initial_m0, method, policy))


def evaluate_distribution(ladder: DickeLadder, initial_m0: int,
                          policy: PrecisionPolicy | None = None,
                          time_grid=None) -> EvolutionTable:
    """Full (N+1) x |grid| population table from start state m0.

    Rows above m0 are exactly zero (decay only lowers the excitation
    number).  Per-row metadata is that of `rows_meta`.
    """
    policy = policy or PrecisionPolicy()
    grid = check_time_grid(time_grid)
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")

    rows_terms = [residue_terms(ladder, m, initial_m0, policy) if m <= initial_m0 else None
                  for m in range(n + 1)]
    return assemble_table(ladder, initial_m0, grid, rows_terms, "residue", policy)
