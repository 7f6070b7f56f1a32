"""The coefficient pipeline on `Fraction`s, as the package ran it before it
carried coefficients as integer pairs: a test reference only.

`dicke.precision` reads the bound's exponents and rounds each coefficient
from (numerator, positive denominator) pairs, reduced or not.  These are
the same computations written against `Fraction`, which reduces on
construction, so on equal values the two must give equal gains, widths,
bounds and mantissas.  A row wider than float64 rounds every coefficient
to its one unit 2**-scale (`fraction_round_to_scale`), a 53-bit row to 53
significant bits (`fraction_round_to_bits`); `fraction_round_row` is
`RoundedRow`'s choice between the two.

Nothing here is imported from the package: the constants, the log-sum and
each coefficient's exponent are stated again, so that a change to the
package's shows as a difference, and a test in `test_precision.py` checks
that the constants still agree.
"""

from __future__ import annotations

import math
from fractions import Fraction

DOUBLE_BITS = 53        # float64 significand
GUARD_BITS = 64         # fixed-point fraction bits beyond the widest row width
FLOAT_EVAL_UNITS = 20   # float64 error per term beyond the sum's, in 2**-53 * S


def _log2_sum(exponents: list[float]) -> float:
    """log2 of the sum of 2**e over a nonempty list."""
    top = max(exponents)
    return top + math.log2(math.fsum(2.0 ** (e - top) for e in exponents))


def fraction_exponent(value: Fraction) -> int:
    """The e with 2**(e-1) <= |value| < 2**e, for a nonzero `Fraction`:
    the bit-length difference of its reduced numerator and denominator plus
    one, lowered by one where 2**(e-1) is still above |value|."""
    mag = abs(value)
    e = mag.numerator.bit_length() - mag.denominator.bit_length() + 1
    if Fraction(2) ** (e - 1) > mag:
        e -= 1
    return e


def fraction_terms(terms):
    """(pole, multiplicity, const, linear) tuples with each pair as a
    `Fraction`, so that two lists compare equal with `==` exactly when they
    hold the same poles and the same rational values, however each pair is
    written."""
    return [(pole, mult, Fraction(*const), Fraction(*linear))
            for pole, mult, const, linear in terms]


def pair(value) -> tuple[int, int]:
    """A rational as its reduced (numerator, denominator) pair."""
    value = Fraction(value)
    return value.numerator, value.denominator


def pair_terms(terms):
    """(pole, multiplicity, const, linear) tuples of rationals with each
    coefficient as its reduced pair."""
    return [(pole, mult, pair(const), pair(linear)) for pole, mult, const, linear in terms]


def fraction_log2_gains(terms) -> tuple[float, float, float, int]:
    """`precision._log2_gains` for (pole, multiplicity, const, linear)
    tuples of `Fraction`s: the two gains, log2 S and the count of nonzero
    coefficients."""
    s_exp, t_exp = [], []
    for pole, _, const, linear in terms:
        # A multiplies exp(-h*g*t) <= 1, B multiplies g*t*exp(-h*g*t) <= 1/(e*h)
        for value, log2_sup in ((const, 0.0), (linear, -math.log2(math.e * max(pole, 1)))):
            if value:   # |value| < 2**e
                t_exp.append(fraction_exponent(value))
                s_exp.append(t_exp[-1] + log2_sup)
    log2_s, k = _log2_sum(s_exp), len(terms)
    return (log2_s + math.log2(k + FLOAT_EVAL_UNITS),
            _log2_sum([log2_s, _log2_sum(t_exp) - GUARD_BITS, math.log2(2 * k) - GUARD_BITS]),
            log2_s, len(t_exp))


def fraction_round_to_bits(value: Fraction, bits: int) -> tuple[int, int]:
    """(mantissa, exponent) with mantissa * 2**exponent equal to `value`
    rounded to `bits` significant bits, round-half-even; (0, 0) for zero."""
    num, den = value.numerator, value.denominator
    if num == 0:
        return 0, 0
    mag = abs(num)
    # 2**lead <= mag/den < 2**(lead+1)
    lead = mag.bit_length() - den.bit_length()
    if (mag << max(0, -lead)) < (den << max(0, lead)):
        lead -= 1
    shift = bits - 1 - lead
    if shift >= 0:
        mag <<= shift
    else:
        den <<= -shift
    mant, rem = divmod(mag, den)
    if 2 * rem > den or (2 * rem == den and mant & 1):
        mant += 1
    return (-mant if num < 0 else mant), -shift


def fraction_round_to_scale(value: Fraction, scale: int) -> int:
    """The integer nearest value * 2**scale, round-half-even; `scale` may
    be negative."""
    scaled = value * Fraction(2) ** scale
    low = math.floor(scaled)
    rest = scaled - low
    return low + (rest > Fraction(1, 2) or (rest == Fraction(1, 2) and low % 2 == 1))


def fraction_round_row(value: Fraction, bits: int, scale: int) -> tuple[int, int]:
    """One coefficient as `RoundedRow` holds it for a row of width `bits`
    and unit 2**-scale: at 53 bits `fraction_round_to_bits`, zero (0, 0);
    wider (`fraction_round_to_scale`, -scale)."""
    if bits <= DOUBLE_BITS:
        return fraction_round_to_bits(value, bits)
    return fraction_round_to_scale(value, scale), -scale
