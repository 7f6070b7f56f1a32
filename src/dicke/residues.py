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

Evaluation rounds each coefficient once, at the width chosen per
`PrecisionPolicy`, into a `RoundedRow` that keeps no exact pair, and sums
the rounded values exactly in integer fixed point, against exponentials
built per time from two `mpmath.exp` calls and a product recurrence along
the ladder.  `evaluate_distribution` rounds each row before it derives the
next, so only one row's exact pairs are alive at a time.
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
from .precision import (DOUBLE_BITS, GUARD_BITS, PrecisionPolicy, error_bound,
                        fraction_to_float, reduced, resolve_bits, round_to_bits,
                        rounding_defect, scaled_to_float)
from .states import EvolutionTable, check_time_grid

_ZERO = (0, 1)   # reduced (numerator, denominator) pairs
_ONE = (1, 1)


class ResidueTerm:
    """One pole's contribution (const + linear*g*t) * exp(-pole*g*t).

    The coefficients are held as reduced (numerator, denominator) pairs,
    `const_pair` and `linear_pair`; `const`/`linear` give them as exact
    `Fraction`s.  `bits` is the width the policy resolved, to which both
    are rounded before the sum is evaluated (not part of equality: two
    derivations of the same expansion compare equal regardless of the
    precision they were requested at).
    """

    __slots__ = ("pole", "multiplicity", "const_pair", "linear_pair", "bits")

    def __init__(self, pole: int, multiplicity: int, const_pair: tuple[int, int],
                 linear_pair: tuple[int, int], bits: int = DOUBLE_BITS):
        self.pole = pole
        self.multiplicity = multiplicity
        self.const_pair = const_pair
        self.linear_pair = linear_pair
        self.bits = bits

    @property
    def const(self) -> Fraction:
        return Fraction(*self.const_pair)

    @property
    def linear(self) -> Fraction:
        return Fraction(*self.linear_pair)

    def _key(self) -> tuple:
        return self.pole, self.multiplicity, self.const_pair, self.linear_pair

    def __eq__(self, other):
        if not isinstance(other, ResidueTerm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ResidueTerm(pole={self.pole}, multiplicity={self.multiplicity}, "
                f"const={self.const}, linear={self.linear}, bits={self.bits})")


class TermRow(list):
    """One row's `ResidueTerm`s with the width and a-priori bound they were
    resolved to.  `rounded` is the row as evaluation reads it, built once:
    the evaluation, `rows_meta` and the later times of a propagation all
    read it, so a row must not be mutated.  `doubles` and `mantissas` give
    the float64 and the `bits`-wide roundings of the terms for inspection.
    """

    def __init__(self, terms, bits: int, bound: float | None = None):
        super().__init__(terms)
        self.bits = bits
        if bound is not None:   # else `error_bound`, on first use
            self.bound = bound

    @functools.cached_property
    def bound(self) -> float:
        """`error_bound` at the row's width."""
        return error_bound([t._key() for t in self], self.bits)

    @property
    def doubles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Poles, constants and linear coefficients in float64."""
        return (np.array([t.pole for t in self], dtype=float),
                _doubles(t.const_pair for t in self), _doubles(t.linear_pair for t in self))

    @property
    def mantissas(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Mantissas and exponents of the constants, then of the linear
        coefficients, rounded to the row's width: four lists parallel to
        the terms."""
        return (*_mantissas((t.const_pair for t in self), self.bits),
                *_mantissas((t.linear_pair for t in self), self.bits))

    @functools.cached_property
    def rounded(self) -> RoundedRow:
        return RoundedRow([t._key() for t in self], self.bits, self.bound)


def _doubles(pairs) -> np.ndarray:
    return np.array([fraction_to_float(*pair) for pair in pairs], dtype=float)


def _mantissas(pairs, bits: int) -> tuple[list[int], list[int]]:
    """`round_to_bits` mantissas and exponents of exact pairs, flat (a wide
    row holds one big mantissa per term); zero stays (0, 0) unrounded."""
    mants, exps = [], []
    for num, den in pairs:
        mant, exp = round_to_bits(num, den, bits) if num else (0, 0)
        mants.append(mant)
        exps.append(exp)
    return mants, exps


class RoundedTerm(NamedTuple):
    """One term of a `RoundedRow`: each coefficient a float64 value at 53
    bits or fewer, else a `round_to_bits` (mantissa, exponent) pair."""

    pole: int
    const: float | tuple[int, int]
    linear: float | tuple[int, int]
    bits: int


class RoundedRow:
    """One row as evaluation reads it: the poles, each coefficient rounded
    once to the row's width `bits`, and the a-priori `bound` there; no
    exact pair is kept.

    `raw` is the row's exact (pole, multiplicity, const, linear) tuples,
    read here and not kept.  At 53 bits or fewer `consts` and `linears` are
    float64 arrays and the terms keep their order, which the float sum
    depends on.  A wider row holds each as the `round_to_bits` mantissas (a
    list) and exponents (an int64 array), zero as (0, 0), with the terms
    sorted by pole, the order the fixed-point pass reads.  Iterating gives
    the terms as `RoundedTerm`s.
    """

    __slots__ = ("poles", "bits", "bound", "consts", "linears")

    def __init__(self, raw, bits: int, bound: float):
        self.bits = bits
        self.bound = bound
        if bits <= DOUBLE_BITS:
            self.consts = _doubles(term[2] for term in raw)
            self.linears = _doubles(term[3] for term in raw)
        else:
            raw = sorted(raw, key=itemgetter(0))
            mants, exps = _mantissas((term[2] for term in raw), bits)
            self.consts = mants, array("q", exps)
            mants, exps = _mantissas((term[3] for term in raw), bits)
            self.linears = mants, array("q", exps)
        self.poles = [term[0] for term in raw]

    def __len__(self) -> int:
        return len(self.poles)

    def __iter__(self):
        if self.bits <= DOUBLE_BITS:
            consts, linears = self.consts.tolist(), self.linears.tolist()
        else:
            consts, linears = zip(*self.consts), zip(*self.linears)
        for pole, const, linear in zip(self.poles, consts, linears):
            yield RoundedTerm(pole, const, linear, self.bits)

    def rounded_consts(self) -> list:
        """The constants as `rounding_defect` takes them: float64 values at
        53 bits, else (mantissa, exponent) pairs."""
        if self.bits <= DOUBLE_BITS:
            return self.consts.tolist()
        return list(zip(*self.consts))

    def key(self) -> tuple:
        """The width and the rounded operands, which together fix the values."""
        if self.bits <= DOUBLE_BITS:
            operands = (self.consts.tobytes(), self.linears.tobytes())
        else:
            operands = tuple(map(tuple, (*self.consts, *self.linears)))
        return (self.bits, tuple(self.poles), *operands)


def bounded_row(raw, policy: PrecisionPolicy) -> TermRow:
    """Exact (pole, multiplicity, const pair, linear pair) tuples as a row
    at the width `resolve_bits` picks, keeping the bound it computed there."""
    bits, bound = resolve_bits(raw, policy)
    return TermRow([ResidueTerm(pole, mult, const, linear, bits)
                    for pole, mult, const, linear in raw], bits, bound)


def _rounded(row) -> RoundedRow:
    """A row as evaluated: a `RoundedRow` as it is, a term list through its
    `TermRow` (at its widest term's width)."""
    if isinstance(row, RoundedRow):
        return row
    if not isinstance(row, TermRow):
        row = TermRow(row, max(t.bits for t in row))
    return row.rounded


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


def residue_terms(ladder: DickeLadder, target_m: int, initial_m0: int,
                  policy: PrecisionPolicy | None = None) -> TermRow:
    """Term list for rho_m(t) from start state m0, rounded to the width
    `resolve_bits` picks for it."""
    return bounded_row(exact_terms(ladder, target_m, initial_m0), policy or PrecisionPolicy())


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


def evaluate_population(terms: list[ResidueTerm], gamma: float, t: float) -> float:
    """Sum the expansion at one time; result downgraded to float64."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return float(evaluate_rows([terms], gamma, np.array([float(t)]))[0, 0])


def _row_eval_double(row: RoundedRow, gamma: float, grid: np.ndarray) -> np.ndarray:
    poles = np.array(row.poles, dtype=float)
    gt = gamma * grid
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        weights = row.consts[:, None] + row.linears[:, None] * gt[None, :]
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
    is the int kept for its value in `shift_ints`, so that rows share it."""
    idx, mults, shifts = [], [], []
    for i, mant, exp in zip(indices, mants, exps):
        if mant:
            shift = exp + frac_bits
            if shift < 0:
                mant, shift = _to_fixed(mant, exp, frac_bits), 0
            idx.append(i)
            mults.append(mant)
            shifts.append(shift_ints.setdefault(shift, shift))
    return idx, mults, shifts


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

    out = np.empty((len(rows), grid.size))
    # g*t is exact at 106 bits (a product of two doubles)
    with mpmath.workprec(2 * DOUBLE_BITS):
        gamma_mp = mpmath.mpf(gamma)
        gts = [gamma_mp * mpmath.mpf(float(t)) for t in grid]
    for j, gt in enumerate(gts):
        values = _ladder_exponentials(poles, doubled, gt, frac_bits)
        # first zero of each group: key=neg makes the values ascending
        ends = (bisect_left(values, 0, 0, len(poles), key=neg),
                bisect_left(values, 0, len(poles), len(values), key=neg))
        for r, groups in enumerate(fixed):
            acc = 0
            for (idx, mants, shifts), end in zip(groups, ends):
                live = map(values.__getitem__, idx[:bisect_left(idx, end)])
                acc += sum(map(lshift, map(mul, mants, live), shifts))
            out[r, j] = scaled_to_float(acc, 2 * frac_bits)
    return out


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


def evaluate_rows(rows: list[RoundedRow | list[ResidueTerm] | None], gamma: float,
                  grid: np.ndarray) -> np.ndarray:
    """(len(rows), |grid|) values of per-row term lists, each as its
    `RoundedRow`: rows at float64 width in numpy, wider rows together in one
    fixed-point pass, empty rows zero; inside `shared_evaluation`, once per
    distinct row list."""
    rows = [_rounded(row) if row else None for row in rows]
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


def rows_meta(rows_terms: list[RoundedRow | list[ResidueTerm] | None], initial_m0: int,
              method: str, policy: PrecisionPolicy) -> dict:
    """Provenance of a table evaluated from per-row term lists: the width of
    every row, its a-priori error bound at that width and the t=0
    reconstruction defect of its coefficients as evaluated."""
    rows = [_rounded(row) if row else None for row in rows_terms]
    return {
        "method": method,
        "precision_mode": policy.mode,
        "bits": [row.bits if row else DOUBLE_BITS for row in rows],
        "error_bound": [row.bound if row else 0.0 for row in rows],
        "t0_defect": [rounding_defect(None, int(m == initial_m0), row.bits,
                                      row.rounded_consts()) if row else 0.0
                      for m, row in enumerate(rows)],
    }


def assemble_table(ladder: DickeLadder, initial_m0: int, grid: np.ndarray,
                   rows_terms: list[RoundedRow | list[ResidueTerm] | None], method: str,
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
    number).  Each row is derived, resolved and rounded before the next, and
    only its `RoundedRow` is kept.  Per-row metadata is that of `rows_meta`.
    """
    policy = policy or PrecisionPolicy()
    grid = check_time_grid(time_grid)
    n = ladder.n_emitters
    if not (0 <= initial_m0 <= n):
        raise ValueError(f"initial_m0 must lie in [0, N], got {initial_m0}")

    rows: list[RoundedRow | None] = [None] * (n + 1)
    for m in range(initial_m0 + 1):
        raw = exact_terms(ladder, m, initial_m0)
        rows[m] = RoundedRow(raw, *resolve_bits(raw, policy))
    return assemble_table(ladder, initial_m0, grid, rows, "residue", policy)
