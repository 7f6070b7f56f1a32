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
once to a (mantissa, exponent) pair.  A 53-bit row is evaluated in
float64; a wider row, at the row's one unit 2**-F', is summed exactly in
integer fixed point against exponentials built per time from one integer
exp(-g*t) and a product recurrence along the ladder, in plain ints.

A residue table splits over the usable cores by rows
(`evaluate_distribution`, `workers.split`): each worker derives, rounds
and evaluates its own rows, and only a summary of them, the pass's common
scale and the finished values cross between processes, so no process
holds another's rows.  A table it does not split, and the rows of
Laplace's and Jordan's derivations, are evaluated in one fixed-point
pass that splits by grid time instead.  Each row is rounded before the
next is derived, so only one row's exact pairs are alive per process at
a time, except inside `shared_evaluation`: there each distinct exact row
is rounded once for all the derivations of a `compare`, and its exact
terms are kept, as the memo's key, until the last derivation has rounded
its rows.
"""

from __future__ import annotations

import contextlib
import functools
import math
from array import array
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter, mul, neg
from typing import NamedTuple

import numpy as np

from .ladder import DickeLadder
from .precision import (DOUBLE_BITS, GUARD_BITS, PrecisionError, PrecisionPolicy,
                        fraction_to_float, reduced, resolve_bits, round_to_bits,
                        round_to_scale, rounding_defect)
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


def _mantissas(pairs, bits: int, scale: int) -> tuple[list[int], array]:
    """Mantissas and exponents of exact pairs, flat (a wide row holds one
    big mantissa per term): at 53 bits `round_to_bits`, zero (0, 0); wider,
    `round_to_scale` at 2**scale, exponent -scale.  Zero is not rounded."""
    if bits > DOUBLE_BITS:
        mants = [round_to_scale(num, den, scale) if num else 0 for num, den in pairs]
        return mants, array("q", [-scale]) * len(mants)
    pairs = [round_to_bits(num, den, bits) if num else (0, 0) for num, den in pairs]
    return [mant for mant, _ in pairs], array("q", [exp for _, exp in pairs])


class RoundedTerm(NamedTuple):
    """One term of a `RoundedRow`: each coefficient a (mantissa, exponent)
    pair as the row of width `bits` rounded it."""

    pole: int
    const: tuple[int, int]
    linear: tuple[int, int]
    bits: int


class RoundedRow:
    """One row as evaluation reads it, and the one place a row gets its
    width: `resolve_bits` picks the width `bits` for the row's exact terms
    under `policy`, with the a-priori `bound` there, and each coefficient
    is rounded once.  No exact pair is kept.

    `terms` is the row's exact (pole, multiplicity, const, linear) terms,
    at least one, read here and not kept.  `consts` and `linears` hold the
    coefficients in one form at every width: mantissas (a list) and
    exponents (an int64 array), with the terms sorted by pole, the order
    both evaluation paths read.  At 53 bits they are `round_to_bits`
    pairs, zero as (0, 0), exact in float64, so the row gets its float64
    values when it is evaluated.  Wider, each is rounded to the row's one
    unit 2**-F' (`resolve_bits`' scale), every exponent -F', so the pass
    has no per-term exponent to shift by.  Iterating gives the terms as
    `RoundedTerm`s.
    """

    __slots__ = ("poles", "bits", "bound", "consts", "linears")

    def __init__(self, terms, policy: PrecisionPolicy):
        self.bits, self.bound, scale = resolve_bits(terms, policy)
        terms = sorted(terms, key=itemgetter(0))
        self.poles = [term[0] for term in terms]
        self.consts = _mantissas((term[2] for term in terms), self.bits, scale)
        self.linears = _mantissas((term[3] for term in terms), self.bits, scale)

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
    if not n // 2 < target_m <= n:
        raise ValueError(
            f"closed form only holds above the equator; m={target_m} is outside "
            f"its domain for N={n}")
    h = ladder.h
    signed_num = (-1) ** (n - target_m) * math.prod(h[target_m + 1:])
    out = []
    for j in range(target_m, n + 1):
        den = math.prod(h[j] - h[k] for k in range(target_m, n + 1) if k != j)
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


def _gt_pairs(gamma: float, grid: np.ndarray) -> list[tuple[int, int]]:
    """Each g*t exactly, as (man, exp <= 0) with g*t = man * 2**exp."""
    g_man, g_den = float(gamma).as_integer_ratio()
    return [(g_man * t_man, 1 - (g_den * t_den).bit_length())
            for t_man, t_den in map(float.as_integer_ratio, grid.tolist())]


def _exp_fixed(man: int, exp: int, width: int) -> int:
    """exp(-x), x = man * 2**exp >= 0 (exp <= 0), scaled by 2**W (W =
    `width` > 53), within 1/2 + 2**-13 units of 2**-W.

    For x < 2**k, k = bit_length(man) + exp: at k > bit_length(W), x > W
    and exp(-x) < 2**-(W+1), so 0.  Else y = x / 2**r < 2**-d, r = max(0,
    k + isqrt(W)) and d = r - k >= isqrt(W), and the Taylor series of
    exp(-y) to the power P // d, P = W + r + 16, is summed by Horner's rule
    in units of 2**-P: s = 1 - y*s/n for n down to 1, each product with
    the exact y truncated.  A step is within e/n + 1 units if s was
    within e, so the sum is within 3, and the terms left out are below
    one.  A truncated square of a value <= 1 within E < 2**(P-W) units is
    within (2 + 2**-W) E + 1, so r squarings give exp(-x) within 2**(r+3)
    units of 2**-P, 2**-13 units of 2**-W.
    """
    k = man.bit_length() + exp
    if k > width.bit_length():
        return 0
    r = max(0, k + math.isqrt(width))
    prec = width + r + 16
    total = one = 1 << prec
    for n in range(prec // (r - k), 0, -1):
        total = one - (total * man >> (r - exp)) // n
    for _ in range(r):
        total = total * total >> prec
    return (total + (1 << (r + 15))) >> (r + 16)


def _ladder_exponentials(poles: list[int], doubled: list[int], gt: tuple[int, int],
                         frac_bits: int) -> list[int]:
    """exp(-v*g*t) for ascending integer poles v, then g*t*exp(-v*g*t) for
    the poles at the indices `doubled`, as ints scaled by 2**F (F =
    `frac_bits`), each within 1/2 + 2**-64 units of 2**-F; `gt` is one of
    `_gt_pairs`.

    All come at a width W > F from q = exp(-g*t) (`_exp_fixed`), within a
    unit of 2**-W, by products of two values <= 1 truncated to 2**-W, each
    within the sum of its factors' errors plus a unit: q**s by squaring
    (q**0 = 2**W), the ratio exp(-d*g*t) of each distinct gap d between
    neighbouring poles as the next smaller gap's ratio times a power of q
    (q**2 on the Dicke ladder, whose gaps are N - 2p), and each pole's
    value as its lower neighbour's (the first is q**poles[0]) times its
    gap's ratio.  So the value for v is a product of v copies of q, within
    2*v + 1 units; W adds the bit length of that and of g*t (the second
    list multiplies the error by g*t) to F + GUARD_BITS, and each value is
    rounded to 2**-F.  Truncated products of factors <= 1 and monotone
    rounding leave each list non-increasing, which `_fixed_point_rows`
    relies on.
    """
    # g*t = man * 2**exp < 2**(bit_length(man) + exp)
    man, exp = gt
    width = (frac_bits + GUARD_BITS + (2 * poles[-1] + 1).bit_length()
             + max(0, man.bit_length() + exp))

    def times(a: int, b: int) -> int:
        return a * b >> width

    powers = {0: 1 << width, 1: _exp_fixed(man, exp, width)}

    def power(s: int) -> int:   # q**s by squaring
        if s not in powers:
            half = power(s // 2)
            powers[s] = times(times(half, half), powers[1]) if s % 2 else times(half, half)
        return powers[s]

    ratios, ratio, below = {}, powers[0], 0
    for gap in sorted({b - a for a, b in zip(poles, poles[1:])}):
        ratio = ratios[gap] = times(ratio, power(gap - below))
        below = gap
    wide = [power(poles[0])]
    for a, b in zip(poles, poles[1:]):
        wide.append(times(wide[-1], ratios[b - a]))

    drop = width - frac_bits
    shift = drop - exp   # > GUARD_BITS
    return ([(x + (1 << (drop - 1))) >> drop for x in wide]
            + [(man * wide[i] + (1 << (shift - 1))) >> shift for i in doubled])


def _run(indices, mants: list[int]) -> tuple[int, int, list[int]]:
    """A row's nonzero coefficients as one contiguous run of value indices:
    (first index, end index, multipliers), a zero multiplier at each index
    inside the run where the row has no operand; (0, 0, []) for none.
    `indices` is parallel to the mantissas and ascending where they are
    nonzero."""
    pairs = [(i, mant) for i, mant in zip(indices, mants) if mant]
    if not pairs:
        return 0, 0, []
    lo, hi = pairs[0][0], pairs[-1][0] + 1
    mults = [0] * (hi - lo)
    for i, mant in pairs:
        mults[i - lo] = mant
    return lo, hi, mults


# A fork and reap cost about 4 ms of CPU at 40 MiB resident and 8 ms at
# 84 MiB, and one product at one time 0.13-0.17 us on the CLI grid at
# N = 64-256 (2-core Xeon).  A pass of fewer products x times than this,
# about 40 ms, runs in one process, so that a fork adds at most 10-20% to
# the CPU time of a pass it splits; N = 64 (106,000) stays there and
# N = 128 (418,000) splits.
FORK_MIN_WORK = 250_000


def _pass_summary(rows: list[RoundedRow]) -> tuple[int, set[int], set[int]]:
    """What a fixed-point pass over rows wider than float64 takes from
    them: the widest width, the poles, and the poles with a nonzero linear
    coefficient.  Rows split into sets give the summary of all of them as
    the max and unions of their sets' summaries (`_pass_inputs`)."""
    return (max((row.bits for row in rows), default=0),
            {v for row in rows for v in row.poles},
            {v for row in rows for v, mant in zip(row.poles, row.linears[0]) if mant})


def _pass_inputs(summaries) -> tuple[int, list[int], list[int]]:
    """The inputs every entry of a fixed-point pass shares, from the
    `_pass_summary` of each set of its rows: the scale F = widest width +
    GUARD_BITS, the ascending poles and the indices of the poles with a
    linear term.  They depend on the union of the sets alone, so each set
    can be evaluated on its own to the same bits."""
    widest, poles, doubled = zip(*summaries)
    poles, doubled = sorted(set().union(*poles)), set().union(*doubled)
    return max(widest) + GUARD_BITS, poles, [i for i, v in enumerate(poles) if v in doubled]


def _operand_runs(rows: list[RoundedRow], inputs) -> list[tuple]:
    """Each row's operands as `_fixed_point_columns` reads them: its
    constants' and linear coefficients' runs over the pass's value list,
    and the (left shift, divisor) that takes its sum from 2**-(F+F') to 1,
    F' = -exponent."""
    frac_bits, poles, doubled = inputs
    index = {v: i for i, v in enumerate(poles)}
    # the g*t*exp(-h*g*t) values follow the exp(-h*g*t) values in one list;
    # a pole with no linear term in a row has a zero mantissa there
    g_index = {poles[i]: len(poles) + k for k, i in enumerate(doubled)}
    runs = []
    for row in rows:
        scale = frac_bits - row.consts[1][0]
        runs.append((*_run(map(index.__getitem__, row.poles), row.consts[0]),
                     *_run(map(g_index.get, row.poles), row.linears[0]),
                     max(0, -scale), 1 << max(0, scale)))
    return runs


def _fixed_point_columns(runs: list[tuple], inputs, gts) -> array:
    """The entries of rows wider than float64 (`_operand_runs`) at the
    times `gts` (`_gt_pairs`), time by time, in this process and in Python
    int and float arithmetic only: no fork, no numpy, no BLAS."""
    frac_bits, poles, doubled = inputs
    data = array("d")
    for gt in gts:
        values = _ladder_exponentials(poles, doubled, gt, frac_bits)
        # first zero of each group: key=neg makes the values ascending
        cut = bisect_left(values, 0, 0, len(poles), key=neg)
        g_cut = bisect_left(values, 0, len(poles), len(values), key=neg)
        for lo, hi, mults, g_lo, g_hi, g_mults, up, den in runs:
            acc = (sum(map(mul, mults, values[lo:min(hi, cut)]))
                   + sum(map(mul, g_mults, values[g_lo:min(g_hi, g_cut)])))
            data.append(fraction_to_float(acc << up, den))
    return data


def _fixed_point_rows(rows: list[RoundedRow], gamma: float, grid: np.ndarray) -> np.ndarray:
    """Evaluate rows wider than float64 in integer fixed point.

    Each row's coefficients are integers at its own unit 2**-F' (see
    `RoundedRow`), and exp(-h*g*t) and g*t*exp(-h*g*t) ints at the scale
    2**F, F = widest width + GUARD_BITS, computed once per distinct pole
    and time by `_ladder_exponentials` (`_pass_inputs`).  Every entry is
    one exact integer dot product of the two, divided by 2**(F+F') (where
    F + F' < 0, shifted up) and rounded to float64 once.

    A row's constants, sorted by pole and so by value index, are one
    contiguous run over the exp(-h*g*t) values, and its linear
    coefficients one over the g*t*exp(-h*g*t) values, with a zero
    multiplier, an exact zero, in each hole (`_run`).  Both groups of
    values are non-increasing in the value index, so per time one
    bisection per group finds where it reaches zero, and each entry sums
    each run over its slice of values before that cut, with no search per
    row; the products left out are exactly zero.

    A time's column depends only on the rows and that time, so the columns
    are split over the usable cores (`workers.split`, worker w taking the
    times j = w (mod W)) once the pass holds `FORK_MIN_WORK` nonzero
    operands x times; each entry is the same integer sum, whatever the
    core count.
    """
    inputs = _pass_inputs([_pass_summary(rows)])
    runs = _operand_runs(rows, inputs)
    gts = _gt_pairs(gamma, grid)
    work = grid.size * sum(sum(map(bool, mants)) for row in rows
                           for mants in (row.consts[0], row.linears[0]))
    workers = worker_count(grid.size, work, FORK_MIN_WORK)
    shares = split(lambda w: _fixed_point_columns(runs, inputs, gts[w::workers]),
                   workers, "fixed-point pass")
    out = np.empty((grid.size, len(rows)))
    for w, data in enumerate(shares):
        out[w::workers] = np.frombuffer(data).reshape(-1, len(rows))
    return out.T


_shared = None   # the innermost open `shared_evaluation`'s (row, pass) memos, else None


@contextlib.contextmanager
def shared_evaluation():
    """Within this scope each distinct exact row is rounded once and each
    distinct row list evaluated once.  `rounded_row` keys a row on its
    policy and exact term tuple, compared with `==`, and `evaluate_rows`
    a call on its rows' `RoundedRow.key` (widths and rounded operands),
    grid and gamma, returning a copy of the earlier values.  Derivations
    that agree exactly (residue, Laplace and Jordan) then round and
    evaluate once, and any difference in a coefficient or a width is
    rounded and evaluated on its own.  Rows a forked residue worker rounds
    and evaluates never reach this process's memos.

    The scope gives a callable that empties the row memo, for the caller
    to call once its last derivation has rounded its rows: the memo's keys
    hold every distinct row's exact terms, which nothing reads after that.
    Nothing is kept after the scope closes."""
    global _shared
    outer, _shared = _shared, ({}, {})
    try:
        yield _shared[0].clear
    finally:
        _shared = outer


def rounded_row(terms, policy: PrecisionPolicy) -> RoundedRow:
    """`RoundedRow(terms, policy)`, rounded once per distinct (policy,
    exact term tuple) inside `shared_evaluation`; every caller gets the
    same object, which must not be mutated."""
    if _shared is None:
        return RoundedRow(terms, policy)
    memo, key = _shared[0], (policy, tuple(terms))
    row = memo.get(key)
    if row is None:
        row = memo[key] = RoundedRow(terms, policy)
    return row


def evaluate_rows(rows: list[RoundedRow | None], gamma: float,
                  grid: np.ndarray) -> np.ndarray:
    """(len(rows), |grid|) values of rounded rows: rows at float64 width in
    numpy, wider rows together in one fixed-point pass, None rows zero;
    inside `shared_evaluation`, once per distinct row list."""
    memo = None if _shared is None else _shared[1]
    if memo is not None:
        key = (gamma, grid.tobytes(),
               tuple(None if row is None else row.key() for row in rows))
        seen = memo.get(key)
        if seen is not None:
            return seen.copy()
    out = np.zeros((len(rows), grid.size))
    wide = _double_rows(out, rows, gamma, grid)
    if wide:
        out[wide] = _fixed_point_rows([rows[r] for r in wide], gamma, grid)
    if memo is not None:
        memo[key] = out.copy()   # each caller owns its array
    return out


def _double_rows(out: np.ndarray, rows: list[RoundedRow | None], gamma: float,
                 grid: np.ndarray) -> list[int]:
    """out[r] for each row r at float64 width; the indices of the wider rows."""
    wide = []
    for r, row in enumerate(rows):
        if row is None:
            continue
        if row.bits <= DOUBLE_BITS:
            out[r] = _row_eval_double(row, gamma, grid)
        else:
            wide.append(r)
    return wide


def _provenance(row: RoundedRow | None, start: bool) -> tuple[int, float, float]:
    """A row's width, a-priori error bound and t=0 reconstruction defect of
    its coefficients as evaluated; `start` for the row of the start state."""
    if not row:
        return DOUBLE_BITS, 0.0, 0.0
    return row.bits, row.bound, rounding_defect(*row.consts, int(start), row.bits)


def _meta(method: str, policy: PrecisionPolicy, provenance) -> dict:
    bits, bounds, defects = map(list, zip(*provenance))
    return {"method": method, "precision_mode": policy.mode,
            "bits": bits, "error_bound": bounds, "t0_defect": defects}


def rows_meta(rows: list[RoundedRow | None], initial_m0: int, method: str,
              policy: PrecisionPolicy) -> dict:
    """Provenance of a table evaluated from rounded rows: the width of every
    row, its a-priori error bound at that width and the t=0 reconstruction
    defect of its coefficients as evaluated."""
    return _meta(method, policy,
                 [_provenance(row, m == initial_m0) for m, row in enumerate(rows)])


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


# Deriving and rounding the rows costs 1.8-3.1 us per pole index p in
# [m, m0], summed over the rows, rising with N from 64 to 256, and a fork
# and reap 2 ms of CPU at 34 MiB resident (2-core Xeon; sets of 12 runs
# alternating one and two processes).  The pickled share and the pages
# copied on write after the fork add several times that: split two ways,
# N = 128 took 19-20 -> 15-27 ms of wall time and 19-20 -> 26-31 ms of
# CPU, N = 256 97-104 -> 59-116 ms and 96-104 -> 114-125 ms.  Rows over
# fewer pole indices than this, about 10-15 ms of derivation, derive in
# one process: N = 64 and the m0 = 64 start (2,145 each) stay there, and
# N = 128 (8,385) splits.
FORK_MIN_TERMS = 5_000


def evaluate_distribution(ladder: DickeLadder, initial_m0: int,
                          policy: PrecisionPolicy | None = None,
                          time_grid=None) -> EvolutionTable:
    """Full (N+1) x |grid| population table from start state m0.

    Rows above m0 are exactly zero (decay only lowers the excitation
    number).  Each row is derived, resolved and rounded (`rounded_row`)
    before the next, and only its `RoundedRow` is kept.  Per-row metadata
    is that of `rows_meta`.

    Rows are independent, so they split over the usable cores
    (`workers.split`, worker w taking the rows m = w (mod W) in ascending
    m) once the rows run over `FORK_MIN_TERMS` pole indices p in [m, m0],
    a bound on their terms.  Each worker then evaluates the rows it
    derived, so no row leaves the process that rounds it, in one exchange:
    a worker derives its rows up to the first whose width fails and sends
    home that `PrecisionError` and the `_pass_summary` of its rows wider
    than float64; this process raises the error of the lowest failing m,
    the one a single process meets first, or replies with the pass's
    common inputs (`_pass_inputs`); and each worker evaluates its rows at
    every grid time with them, with no further fork, and sends home its
    values and provenance.  Each entry is the integer sum that one process
    makes, so the table is the same for any W.
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
                derived.append(rounded_row(exact_terms(ladder, m, initial_m0), policy))
            except PrecisionError as exc:
                return derived, exc
        return derived, None

    if workers == 1:
        rows, failure = derive(0)
        if failure is not None:
            raise failure
        return assemble_table(ladder, initial_m0, grid, rows + [None] * (n - initial_m0),
                              "residue", policy)

    def share(w: int):
        rows, failure = derive(w)
        values = np.empty((len(rows), grid.size))
        wide = _double_rows(values, rows, ladder.gamma, grid)
        wide_rows = [rows[r] for r in wide]
        inputs = yield ((w + workers * len(rows), failure) if failure else None,
                        _pass_summary(wide_rows))
        if wide_rows:
            runs = _operand_runs(wide_rows, inputs)
            columns = _fixed_point_columns(runs, inputs, _gt_pairs(ladder.gamma, grid))
            values[wide] = np.frombuffer(columns).reshape(grid.size, len(wide)).T
        return values, [_provenance(row, m == initial_m0)
                        for m, row in zip(range(w, shares, workers), rows)]

    def reply(firsts) -> tuple:
        failures = [failure for failure, _ in firsts if failure]
        if failures:
            raise min(failures, key=itemgetter(0))[1]
        return _pass_inputs([summary for _, summary in firsts])

    populations = np.zeros((n + 1, grid.size))
    provenance = [_provenance(None, False)] * (n + 1)
    for w, (values, rows_provenance) in enumerate(
            split(share, workers, "residue rows", reply)):
        populations[w:shares:workers] = values
        provenance[w:shares:workers] = rows_provenance
    return EvolutionTable(n_emitters=n, gamma=ladder.gamma, initial_m0=initial_m0,
                          times=grid, populations=populations, method="residue",
                          meta=_meta("residue", policy, provenance))
