"""Closed-form populations as finite sums of (A + B*g*t) * exp(-h*g*t).

For a start state m0 and a target m <= m0 the population is the sum of
residues of

    (-1)^(m0-m) * (h_m0 ... h_{m+1}) * exp(-z*g*t) / ((z - h_m0)...(z - h_m))

over the distinct ladder values h_p with p in [m, m0].  A value occurring
twice in the range is a double pole and contributes the non-exponential
g*t * exp(-h*g*t) piece.  Coefficients are exact rationals in closed form,
each carried as a reduced (numerator, denominator) pair of plain ints: one
gcd when it is derived, then its bound reads the pair's bit lengths and its
rounding is one integer division, so no `Fraction` is built on the way
(`ResidueTerm.const` and `.linear` build one on access, for inspection).
With q = N+1-p every pole gap factors as h_p - h_k = (p-k)(q-k), and the
factorial quotients this gives collapse into binomials C(a,b) of about the
size of the reduced coefficient.  Indexing each pole by the lowest p in
[m, m0] with h_p = p*q, and writing B = C(m0,p) C(p,m):

    double pole, p < q <= m0   linear -c, c = (-1)^(m0-m+N) (q-p)^2 B
                               C(N-m,p-1) C(p-1,m0-q) (an integer);
                               const -c * s, s a difference of harmonic
                               numbers over (q-p)
    odd-N middle, p = q        (-1)^(m0-m) B C(N-m,p-1) C(p-1,m0-p)
    simple, q > m0             (-1)^(p-m) (q-p) B C(N-m,p-1) / (p C(N-m0,p)),
                               and 1 for the pole 0
    simple, q < m              (-1)^(m0-p) (p-q) B C(p-1,m0-q)
                               / ((m-q) C(p-1,m-q))

Exact terms carry no width.  `RoundedRow(terms, policy)` resolves a row's
width b and bound under its `PrecisionPolicy` and rounds each coefficient
once, keeping no exact pair: every row, whatever b, holds its
coefficients in one form, `round_to_bits` (mantissa, exponent) pairs.  A
53-bit row is evaluated in float64, its pairs converted (exactly) when it
is; a wider row is summed exactly in integer fixed point, against
exponentials built per time from two `mpmath.exp` calls and a product
recurrence along the ladder.  Two passes split over the usable cores
(`workers.split`): `evaluate_distribution` derives and rounds the rows of
target states m = w (mod W) in worker w, and the fixed-point pass
evaluates the grid times j = w (mod W) there.  Each worker rounds each row
before it derives the next, so only one row's exact pairs are alive per
process at a time.
"""

from __future__ import annotations

import contextlib
import functools
import math
from array import array
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter, lshift, mul, neg
from typing import NamedTuple

import numpy as np

from .ladder import DickeLadder
from .precision import (DOUBLE_BITS, GUARD_BITS, PrecisionError, PrecisionPolicy,
                        fraction_to_float, reduced, resolve_bits, round_to_bits,
                        rounding_defect)
from .states import EvolutionTable, check_time_grid, check_times
from .workers import split, worker_count

_ZERO = (0, 1)   # reduced (numerator, denominator) pairs
_ONE = (1, 1)


class ResidueTerm(NamedTuple):
    """One pole's contribution (const + linear*g*t) * exp(-pole*g*t).

    The coefficients are held as reduced (numerator, denominator) pairs,
    `const_pair` and `linear_pair`; `const`/`linear` give them as exact
    `Fraction`s.  A term is exact and carries no width: it equals the plain
    tuple `exact_terms` makes for it, and `RoundedRow` rounds it.
    """

    pole: int
    multiplicity: int
    const_pair: tuple[int, int]
    linear_pair: tuple[int, int]

    @property
    def const(self) -> Fraction:
        return Fraction(*self.const_pair)

    @property
    def linear(self) -> Fraction:
        return Fraction(*self.linear_pair)


def _mantissas(pairs, bits: int) -> tuple[list[int], array]:
    """`round_to_bits` mantissas and exponents of exact pairs, flat (a wide
    row holds one big mantissa per term); zero stays (0, 0) unrounded."""
    mants, exps = [], []
    for num, den in pairs:
        mant, exp = round_to_bits(num, den, bits) if num else (0, 0)
        mants.append(mant)
        exps.append(exp)
    return mants, array("q", exps)


class RoundedTerm(NamedTuple):
    """One term of a `RoundedRow`: each coefficient a `round_to_bits`
    (mantissa, exponent) pair at the row's width `bits`."""

    pole: int
    const: tuple[int, int]
    linear: tuple[int, int]
    bits: int


class RoundedRow:
    """One row as evaluation reads it, and the one place a row gets its
    width: `resolve_bits` picks the width `bits` for the row's exact terms
    under `policy`, with the a-priori `bound` there, and each coefficient
    is rounded once to it.  No exact pair is kept.

    `terms` is the row's exact (pole, multiplicity, const, linear) terms,
    at least one, read here and not kept.  `consts` and `linears` hold the
    coefficients in one form at every width: the `round_to_bits` mantissas
    (a list) and exponents (an int64 array), zero as (0, 0), with the terms
    sorted by pole, the order both evaluation paths read.  A 53-bit
    mantissa is exact in float64, so a row at 53 bits gets its float64
    values when it is evaluated.  Iterating gives the terms as
    `RoundedTerm`s.
    """

    __slots__ = ("poles", "bits", "bound", "consts", "linears")

    def __init__(self, terms, policy: PrecisionPolicy):
        self.bits, self.bound = resolve_bits(terms, policy)
        terms = sorted(terms, key=itemgetter(0))
        self.poles = [term[0] for term in terms]
        self.consts = _mantissas((term[2] for term in terms), self.bits)
        self.linears = _mantissas((term[3] for term in terms), self.bits)

    def __len__(self) -> int:
        return len(self.poles)

    def __iter__(self):
        for pole, const, linear in zip(self.poles, zip(*self.consts), zip(*self.linears)):
            yield RoundedTerm(pole, const, linear, self.bits)

    def key(self) -> tuple:
        """The width and the rounded operands, which together fix the values."""
        return (self.bits, tuple(self.poles), *map(tuple, (*self.consts, *self.linears)))


@functools.lru_cache(maxsize=4)
def _prefix_tables(n_emitters: int) -> tuple[tuple[int, ...], int]:
    """Harmonic numbers H_0..H_{N+1} as integers over their common
    denominator L = lcm(1..N+1), with L."""
    lcm = math.lcm(*range(1, n_emitters + 2))
    harm = [0]
    for k in range(1, n_emitters + 2):
        harm.append(harm[-1] + lcm // k)
    return tuple(harm), lcm


def exact_terms(ladder: DickeLadder, target_m: int, initial_m0: int
                ) -> list[tuple[int, int, tuple[int, int], tuple[int, int]]]:
    """Exact (pole, multiplicity, const, linear) tuples, poles ascending,
    each coefficient a reduced (numerator, denominator) pair.

    Each pole takes one of the four binomial forms of the module
    docstring.  h_p = p*q grows with min(p, q), so the poles whose partner
    lies below the range (q < m, so min(p, q) < m) come first, in
    descending p, then p = m, m+1, ... up to the middle of the ladder.
    Along each run a form's numerator and denominator are running exact
    integers, each updated by one multiplication and one exact division
    per pole, and each coefficient is reduced by one gcd.
    """
    n = ladder.n_emitters
    m, m0 = target_m, initial_m0
    if not (0 <= m <= m0 <= n):
        raise ValueError(
            f"need 0 <= target_m <= initial_m0 <= N, got m={m}, m0={m0}, N={n}")
    h = ladder.h   # pole values shared with the ladder, not one int per term
    harm, lcm = _prefix_tables(n)
    half = (n + 1) // 2
    out = []

    # q < m, p from m0 down: num = C(m0,p) C(p,m) C(p-1,m0-q), den = C(p-1,m-q)
    low = max(m, half + 1, n + 2 - m)
    if m0 >= low:
        q = n + 1 - m0
        num = math.comb(m0, m) * math.comb(m0 - 1, m0 - q)
        den = math.comb(m0 - 1, m - q)
        sign = 1
        for p in range(m0, low - 1, -1):
            out.append((h[p], 1, reduced(sign * (p - q) * num, (m - q) * den), _ZERO))
            num = num * (p - m) * (m0 - q) // ((m0 - p + 1) * (p - 1))
            den = den * (m - q) // (p - 1)
            q += 1
            sign = -sign

    # q > m0, p up: num = C(m0,p) C(p,m) C(N-m,p-1), den = p C(N-m0,p)
    first = m
    if m == 0:
        out.append((0, 1, _ONE, _ZERO))
        first = 1
    last = min(m0, half, n - m0)
    if first <= last:
        q = n + 1 - first
        num = math.comb(m0, first) * math.comb(first, m) * math.comb(n - m, first - 1)
        den = first * math.comb(n - m0, first)
        sign = -1 if (first - m) % 2 else 1
        for p in range(first, last + 1):
            out.append((h[p], 1, reduced(sign * (q - p) * num, den), _ZERO))
            num = num * (m0 - p) * (n - m - p + 1) // ((p + 1 - m) * p)
            den = den * (n - m0 - p) // p
            q -= 1
            sign = -sign

    # p <= q <= m0, p up: num = C(m0,p) C(p,m) C(N-m,p-1) C(p-1,m0-q)
    first, last = max(m, n + 1 - m0), min(m0, half)
    if first <= last:
        q = n + 1 - first
        num = (math.comb(m0, first) * math.comb(first, m) * math.comb(n - m, first - 1)
               * math.comb(first - 1, m0 - q))
        sign = -1 if (m0 - m + n) % 2 else 1
        for p in range(first, last + 1):
            if p == q:   # odd N: (-1)^(m0-m) = -sign
                out.append((h[p], 1, (-sign * num, 1), _ZERO))
                break
            # the residue is [c'(v) - g*t*c(v)] * exp(-v*g*t), c(z) = the
            # numerator over the non-degenerate factors of the denominator;
            # c'(v) = -c(v) * s with s = sum_k 1/((p-k)(q-k)) = (S_p - S_q)/(q-p)
            # by partial fractions, S_x = sum_k 1/(x-k), and the harmonic
            # numbers are integers over L, so -c*s is one reduced pair
            gap = q - p
            c = sign * gap * gap * num
            s_num = (harm[p - m] - harm[m0 - p] - harm[q - m] + harm[m0 - q]
                     + 2 * (lcm // gap))
            out.append((h[p], 2, reduced(-c * s_num, lcm * gap), (-c, 1)))
            num = num * (m0 - p) * (n - m - p + 1) // ((p + 1 - m) * (m0 - q + 1))
            q -= 1
    return out


def residue_terms(ladder: DickeLadder, target_m: int, initial_m0: int) -> list[ResidueTerm]:
    """Exact term list for rho_m(t) from start state m0, poles ascending."""
    return [ResidueTerm(*term) for term in exact_terms(ladder, target_m, initial_m0)]


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
        out.append(ResidueTerm(h[j], 1, reduced(signed_num, den), _ZERO))
    out.sort(key=lambda t: t.pole)
    return out


def evaluate_population(terms: list[ResidueTerm], gamma: float, t,
                        policy: PrecisionPolicy | None = None) -> float | np.ndarray:
    """Sum the expansion, its `RoundedRow` under `policy` (default auto)
    rounded once, at one time `t` (a float) or over a 1-d grid (an array)."""
    times = check_times(t)
    row = RoundedRow(terms, policy or PrecisionPolicy()) if terms else None
    out = evaluate_rows([row], gamma, times.reshape(-1))[0]
    return out if times.ndim else float(out[0])


def _row_eval_double(row: RoundedRow, gamma: float, grid: np.ndarray) -> np.ndarray:
    """A row at 53 bits in float64: each (mantissa, exponent) pair is exact
    there, and one of 2**1024 or more becomes +-inf.  Each time's terms are
    added in pole order from 0.0, as numpy's `sum(axis=0)` adds them over
    two or more times; over one time it adds them pairwise, so a time's
    value would depend on the grid's size."""
    poles = np.array(row.poles, dtype=float)
    gt = gamma * grid
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        consts, linears = (np.ldexp(np.array(mants, dtype=float), np.asarray(exps))
                           for mants, exps in (row.consts, row.linears))
        terms = ((consts[:, None] + linears[:, None] * gt[None, :])
                 * np.exp(-poles[:, None] * gt[None, :]))
        return np.add.accumulate(terms, axis=0, out=terms)[-1] + 0.0


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


def _ladder_exponentials(poles: list[int], doubled: list[int], gt: mpmath.mpf,
                         frac_bits: int) -> list[int]:
    """exp(-v*g*t) for ascending integer poles v, then g*t*exp(-v*g*t) for
    the poles at the indices `doubled`, as ints scaled by 2**F (F =
    `frac_bits`), each within 1/2 + 2**-64 units of 2**-F; `gt` is exact.

    Two `mpmath.exp` calls give q = exp(-g*t) and the first pole's value,
    each within a unit of 2**-W for a width W > F; every other value is a
    product of two values <= 1 truncated to 2**-W, whose error is below the
    sum of its factors' errors plus a unit.  The ratio exp(-d*g*t) of each
    distinct gap d between neighbouring poles is the next smaller gap's
    ratio times a power of q (on the Dicke ladder the gaps are N - 2p, so
    that power is q**2), and each pole's value is its lower neighbour's
    times its gap's ratio.  So every factor is at most 1, the value for v
    is a product of v - poles[0] copies of q and the first value, and its
    error is below 2*(v - poles[0]) + 1 units; W adds the bit length of
    that and of g*t (the second list multiplies the error by g*t) to
    F + GUARD_BITS, and each value is rounded to 2**-F.  Truncated
    products of factors <= 1 and monotone rounding leave each of the two
    lists non-increasing, which `_fixed_point_rows` relies on.
    """
    import mpmath

    # g*t = man * 2**exp < 2**(bit_length(man) + exp)
    man, exp = gt.man_exp
    width = (frac_bits + GUARD_BITS + (2 * poles[-1] + 1).bit_length()
             + max(0, man.bit_length() + exp))
    one = 1 << width

    def times(a: int, b: int) -> int:
        return a * b >> width

    with mpmath.workprec(width + 10):
        powers = {1: _to_fixed(*mpmath.exp(-gt).man_exp, width)}
        first = _to_fixed(*mpmath.exp(-poles[0] * gt).man_exp, width)

    def power(s: int) -> int:   # q**s by squaring
        if s not in powers:
            half = power(s // 2)
            powers[s] = times(times(half, half), powers[1]) if s % 2 else times(half, half)
        return powers[s]

    ratios, ratio, below = {}, one, 0
    for gap in sorted({b - a for a, b in zip(poles, poles[1:])}):
        ratio = ratios[gap] = times(ratio, power(gap - below))
        below = gap
    wide = [first]
    for a, b in zip(poles, poles[1:]):
        wide.append(times(wide[-1], ratios[b - a]))

    drop = width - frac_bits
    shift = drop - exp   # > GUARD_BITS
    return ([(x + (1 << (drop - 1))) >> drop for x in wide]
            + [(man * wide[i] + (1 << (shift - 1))) >> shift for i in doubled])


def _shifted_products(indices, mants: list[int], exps, frac_bits: int,
                      shift_ints: dict) -> tuple[list[int], list[int], list[int]]:
    """(value index, multiplier, left shift) of each nonzero coefficient of
    a row in an F-scaled dot product, in the row's order: the b-bit
    mantissa and shift e + F, or where e + F < 0 the coefficient rounded to
    2**-F and no shift.  `indices` is parallel to the mantissas; each shift
    is the int kept for its value in `shift_ints`, so that rows share it.
    Where no coefficient is zero or below 2**-F the multipliers are the
    row's own mantissa list, not a copy."""
    idx, mults, shifts = [], [], []
    for i, mant, exp in zip(indices, mants, exps):
        if mant:
            shift = exp + frac_bits
            if shift < 0:
                mant, shift = _to_fixed(mant, exp, frac_bits), 0
            idx.append(i)
            mults.append(mant)
            shifts.append(shift_ints.setdefault(shift, shift))
    # equal lists hold the same int objects, so this compares pointers
    return idx, (mants if mults == mants else mults), shifts


# A fork and reap cost about 4 ms of CPU at 40 MiB resident and 8 ms at
# 84 MiB, and one product at one time about 0.4 us (2-core Xeon).  A pass
# of fewer products x times than this, about 0.1 s, runs in one process,
# so that a fork adds at most 5-8% to the CPU time of a pass it splits.
FORK_MIN_WORK = 250_000


def _fixed_point_rows(rows: list[RoundedRow], gamma: float, grid: np.ndarray) -> np.ndarray:
    """Evaluate rows wider than float64 in integer fixed point.

    Each coefficient is its row's `round_to_bits` pair at width b, a value
    taken at the scale 2**F, F = widest width + GUARD_BITS (one below
    2**(b-F) also loses the bits under 2**-F).  exp(-h*g*t) and
    g*t*exp(-h*g*t) are ints at the same scale, computed once per distinct
    pole and time by `_ladder_exponentials`.  Every entry is one exact
    integer dot product rounded to float64 once.  In it each b-bit
    mantissa multiplies its exponential and the product is shifted left by
    e + F: the same integer as the scaled coefficient times the
    exponential, with a b-bit factor in place of an (a+F)-bit one.

    The dot product runs only over the operands whose exponential is
    nonzero.  Both groups of exponentials are non-increasing in the value
    index, so per time a bisection finds where each group reaches zero,
    and a row, whose operands are sorted by pole and so by value index,
    sums the prefix before that point; the products left out are exactly
    zero.

    A time's column depends only on the rows and that time, so the columns
    are split over the usable cores (`workers.split`, worker w taking the
    times j = w (mod W)) once the pass holds `FORK_MIN_WORK` products x
    times; each entry is the same integer sum,
    so the values do not depend on how many cores there are.
    """
    import mpmath

    frac_bits = max(row.bits for row in rows) + GUARD_BITS
    poles = sorted({v for row in rows for v in row.poles})
    index = {v: i for i, v in enumerate(poles)}
    doubled = sorted({index[v] for row in rows
                      for v, mant in zip(row.poles, row.linears[0]) if mant})
    # the g*t*exp(-h*g*t) values follow the exp(-h*g*t) values in one list;
    # a pole with no linear term in a row has a zero mantissa there
    g_index = {poles[i]: len(poles) + k for k, i in enumerate(doubled)}
    shift_ints = {}
    fixed = [(_shifted_products(map(index.__getitem__, row.poles), *row.consts, frac_bits,
                                shift_ints),
              _shifted_products(map(g_index.get, row.poles), *row.linears, frac_bits,
                                shift_ints))
             for row in rows]
    # g*t is exact at 106 bits (a product of two doubles)
    with mpmath.workprec(2 * DOUBLE_BITS):
        gamma_mp = mpmath.mpf(gamma)
        gts = [gamma_mp * mpmath.mpf(float(t)) for t in grid]
    scale = 1 << 2 * frac_bits

    work = grid.size * sum(len(idx) for groups in fixed for idx, _, _ in groups)
    workers = worker_count(grid.size, work, FORK_MIN_WORK)

    def share(w: int) -> array:
        # the columns of times j = w (mod W), in Python int and float
        # arithmetic only: no numpy, no BLAS
        data = array("d")
        for gt in gts[w::workers]:
            values = _ladder_exponentials(poles, doubled, gt, frac_bits)
            # first zero of each group: key=neg makes the values ascending
            ends = (bisect_left(values, 0, 0, len(poles), key=neg),
                    bisect_left(values, 0, len(poles), len(values), key=neg))
            for groups in fixed:
                acc = 0
                for (idx, mants, shifts), end in zip(groups, ends):
                    live = map(values.__getitem__, idx[:bisect_left(idx, end)])
                    acc += sum(map(lshift, map(mul, mants, live), shifts))
                data.append(fraction_to_float(acc, scale))
        return data

    out = np.empty((grid.size, len(rows)))
    for w, data in enumerate(split(share, workers, "fixed-point pass")):
        out[w::workers] = np.frombuffer(data).reshape(-1, len(rows))
    return out.T


_shared = None   # the memo of the innermost open `shared_evaluation`, else None


@contextlib.contextmanager
def shared_evaluation():
    """Within this scope `evaluate_rows` evaluates each distinct row list
    once: a call whose rows, as `RoundedRow.key` gives them (widths and
    rounded operands), grid and gamma equal an earlier call's gets a copy of
    that call's values.  Derivations that agree exactly (residue, Laplace
    and Jordan) then share one pass, while any difference in a rounded
    coefficient or a width is evaluated on its own.  Nothing is kept after
    the scope closes."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def evaluate_rows(rows: list[RoundedRow | None], gamma: float,
                  grid: np.ndarray) -> np.ndarray:
    """(len(rows), |grid|) values of rounded rows: rows at float64 width in
    numpy, wider rows together in one fixed-point pass, None rows zero;
    inside `shared_evaluation`, once per distinct row list."""
    memo = _shared
    if memo is not None:
        key = (gamma, grid.tobytes(),
               tuple(None if row is None else row.key() for row in rows))
        seen = memo.get(key)
        if seen is not None:
            return seen.copy()
    out = np.zeros((len(rows), grid.size))
    wide, wide_rows = [], []
    for r, row in enumerate(rows):
        if row is None:
            continue
        if row.bits <= DOUBLE_BITS:
            out[r] = _row_eval_double(row, gamma, grid)
        else:
            wide.append(r)
            wide_rows.append(row)
    if wide:
        out[wide] = _fixed_point_rows(wide_rows, gamma, grid)
    if memo is not None:
        memo[key] = out.copy()   # each caller owns its array
    return out


def rows_meta(rows: list[RoundedRow | None], initial_m0: int, method: str,
              policy: PrecisionPolicy) -> dict:
    """Provenance of a table evaluated from rounded rows: the width of every
    row, its a-priori error bound at that width and the t=0 reconstruction
    defect of its coefficients as evaluated."""
    return {
        "method": method,
        "precision_mode": policy.mode,
        "bits": [row.bits if row else DOUBLE_BITS for row in rows],
        "error_bound": [row.bound if row else 0.0 for row in rows],
        "t0_defect": [rounding_defect(*row.consts, int(m == initial_m0), row.bits)
                      if row else 0.0 for m, row in enumerate(rows)],
    }


def assemble_table(ladder: DickeLadder, initial_m0: int, grid: np.ndarray,
                   rows_terms: list[RoundedRow | None], method: str,
                   policy: PrecisionPolicy) -> EvolutionTable:
    """Evaluate rounded rows over a grid into a table with `rows_meta`
    provenance."""
    populations = evaluate_rows(rows_terms, ladder.gamma, grid)
    return EvolutionTable(n_emitters=ladder.n_emitters, gamma=ladder.gamma,
                          initial_m0=initial_m0, times=grid, populations=populations,
                          method=method,
                          meta=rows_meta(rows_terms, initial_m0, method, policy))


# Deriving and rounding the rows costs 5-7 us per pole index p in [m, m0],
# summed over the rows, at N = 64-256, and a fork and reap 3.5 ms of CPU at
# 34 MiB resident and 5 ms at 47 MiB (2-core Xeon).  The pickled share and
# the pages copied on write after the fork add about as much again: split
# two ways, N = 128 took 45 -> 32 ms of wall time and 45 -> 58 ms of CPU.
# Rows over fewer pole indices than this, about 30 ms of derivation, derive
# in one process: N = 64 and the m0 = 64 start (2,145 each) stay there, and
# N = 128 (8,385) splits.
FORK_MIN_TERMS = 5_000


def evaluate_distribution(ladder: DickeLadder, initial_m0: int,
                          policy: PrecisionPolicy | None = None,
                          time_grid=None) -> EvolutionTable:
    """Full (N+1) x |grid| population table from start state m0.

    Rows above m0 are exactly zero (decay only lowers the excitation
    number).  Each row is derived, resolved and rounded before the next, and
    only its `RoundedRow` is kept.  Per-row metadata is that of `rows_meta`.

    Rows are independent, so they split over the usable cores
    (`workers.split`, worker w deriving the rows m = w (mod W) in ascending
    m) once the rows run over `FORK_MIN_TERMS` pole indices p in [m, m0],
    a bound on their terms; a child sends its rows pickled.  A worker stops
    at its first row whose width fails, and the `PrecisionError` of the
    lowest such m is raised, the one a single process meets first.
    """
    policy = policy or PrecisionPolicy()
    grid = check_time_grid(time_grid)
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")

    shares = initial_m0 + 1
    workers = worker_count(shares, shares * (shares + 1) // 2, FORK_MIN_TERMS)

    def derive(w: int) -> tuple[list[RoundedRow], PrecisionError | None]:
        # the rows m = w (mod W), up to the first that fails
        derived = []
        for m in range(w, shares, workers):
            try:
                derived.append(RoundedRow(exact_terms(ladder, m, initial_m0), policy))
            except PrecisionError as exc:
                return derived, exc
        return derived, None

    rows: list[RoundedRow | None] = [None] * (n + 1)
    failures = {}
    for w, (derived, failure) in enumerate(split(derive, workers, "row derivation")):
        rows[w:w + workers * len(derived):workers] = derived
        if failure is not None:
            failures[w + workers * len(derived)] = failure
    if failures:
        raise failures[min(failures)]
    return assemble_table(ladder, initial_m0, grid, rows, "residue", policy)
