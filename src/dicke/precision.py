"""Working-precision policy for cancellation-prone exponential sums.

A row sum_p (A_p + B_p*g*t) * exp(-h_p*g*t) has exact rational
coefficients far larger than the row.  Each is rounded once, to a width
chosen per row from an a-priori bound on the resulting error (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, ch. 4) that needs
no grid and no trial evaluation.  Coefficients arrive as (numerator,
positive denominator) int pairs, reduced or not: the bound reads each
value's `exponent` and the rounding is one integer division.  As the bound
charges a row an absolute 2**-b * S, a wider row rounds to one unit 2**-F'
for the row (Brent & Zimmermann, *Modern Computer Arithmetic*, ch. 1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

DOUBLE_BITS = 53
GUARD_BITS = 64   # fixed-point fraction bits beyond the widest row width
UNIT_GUARD_BITS = 8   # a wide row's unit 2**-F' below 2**-b * S / k (README)
FLOAT_EVAL_UNITS = 20   # float64 error per term beyond the sum's, in 2**-53 * S
OUTPUT_ROUNDING = 2.0 ** -52   # rounding of an entry <= 1 + bound, and of its exact value
_ENV_CAP = "DICKE_MAX_BITS"


def default_max_bits() -> int:
    return int(os.environ.get(_ENV_CAP, "16384"))


class PrecisionError(ArithmeticError):
    """Raised when the precision cap cannot reach the target defect."""

    def __init__(self, message: str, defect: float, bits: int):
        super().__init__(message)
        self.defect = defect
        self.bits = bits

    def __reduce__(self):
        # pickles whole, as a forked worker sends it
        return type(self), (str(self), self.defect, self.bits)


@dataclass(frozen=True)
class PrecisionPolicy:
    mode: str = "auto"               # "double" | "bits" | "auto"
    mantissa_bits: int = DOUBLE_BITS
    target_defect: float = 1e-12
    max_bits: int = 0                # 0 -> environment default

    def __post_init__(self):
        if self.mode not in ("double", "bits", "auto"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mantissa_bits < 2:
            raise ValueError("mantissa_bits must be at least 2")
        if not (math.isfinite(self.target_defect) and self.target_defect >= 0):
            raise ValueError(f"target_defect must be finite and nonnegative, "
                             f"got {self.target_defect}")
        if self.max_bits == 0:
            object.__setattr__(self, "max_bits", default_max_bits())
        if self.max_bits < DOUBLE_BITS:
            # no path evaluates below float64, so a lower cap could never be met
            raise ValueError(f"max_bits (or {_ENV_CAP}) must be at least {DOUBLE_BITS}, "
                             f"or 0 for the default; got {self.max_bits}")

    @classmethod
    def double(cls) -> "PrecisionPolicy":
        return cls(mode="double", mantissa_bits=DOUBLE_BITS)

    @classmethod
    def bits(cls, mantissa_bits: int) -> "PrecisionPolicy":
        return cls(mode="bits", mantissa_bits=mantissa_bits)

    @classmethod
    def auto(cls, target_defect: float = 1e-12, max_bits: int = 0) -> "PrecisionPolicy":
        return cls(mode="auto", target_defect=target_defect, max_bits=max_bits)


def reduced(num: int, den: int) -> tuple[int, int]:
    """num/den as its reduced pair: a positive denominator, no common
    factor, and (0, 1) for zero."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def fraction_to_float(num: int, den: int) -> float:
    """num/den (den > 0) correctly rounded to float64; overflow maps to
    signed inf."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def round_to_scale(num: int, den: int, scale: int) -> int:
    """The integer nearest num/den * 2**scale (den > 0), round-half-even;
    `scale` may be negative."""
    if scale >= 0:
        num <<= scale
    else:
        den <<= -scale
    quo, rem = divmod(num, den)   # floor, so rem >= 0 whatever the sign
    if 2 * rem > den or (2 * rem == den and quo & 1):
        quo += 1
    return quo


def exponent(num: int, den: int) -> int:
    """The e with 2**(e-1) <= |num|/den < 2**e (num != 0, den > 0), the
    same for every pair that writes one value: the bit-length difference d,
    plus one unless one shift and one compare find |num|/den < 2**d."""
    mag = abs(num)
    lead = mag.bit_length() - den.bit_length()
    return lead + 1 - ((mag >> lead if lead >= 0 else mag << -lead) < den)


def round_to_bits(num: int, den: int, bits: int) -> tuple[int, int]:
    """(mantissa, exponent) with mantissa * 2**exponent equal to num/den
    (den > 0) rounded to `bits` significant bits, round-half-even; (0, 0)
    for zero.  With e = `exponent(num, den)` that is `round_to_scale` at
    2**(bits-e), a mantissa that may round up to 2**bits."""
    if not num:
        return 0, 0
    e = exponent(num, den)
    return round_to_scale(num, den, bits - e), e - bits


def rounding_defect(mants: list[int], exps, delta: int, bits: int) -> float:
    """|sum of a row's rounded constants - delta|, the sum taken exactly.

    The constants are the (mantissa, exponent) pairs the evaluation sums,
    so the defect is that of the evaluated coefficients; at 53 bits or
    fewer a constant of 2**1024 or more is inf in float64, and so is the
    defect.

    Summing the rounded values in working precision can absorb the
    residual entirely (the largest near-cancelling pair may round to the
    same representable number), so the defect is accumulated exactly to
    stay a faithful gauge of the per-coefficient rounding loss.
    """
    if bits <= DOUBLE_BITS and any(mant.bit_length() + e > 1024
                                   for mant, e in zip(mants, exps)):
        return math.inf
    low = min(0, *exps)
    total = sum(mant << (e - low) for mant, e in zip(mants, exps)) - (delta << -low)
    return abs(fraction_to_float(total, 1 << -low))


def _log2_sum(exponents: list[float]) -> float:
    """log2 of the sum of 2**e over a nonempty list, without overflow."""
    top = max(exponents)
    return top + math.log2(math.fsum(2.0 ** (e - top) for e in exponents))


def _log2_gains(terms) -> tuple[float, float, float, int]:
    """log2 of the gains G with a row's error at most G * 2**-b at every
    t >= 0 (see the README's precision model): in float64 (b = 53)
    G = (k + FLOAT_EVAL_UNITS) * S for k terms, and in fixed point
    G = S + 2**-GUARD_BITS * (2k + sum|A_p| + sum|B_p|); then log2 S and
    the count of nonzero coefficients."""
    s_exp, t_exp = [], []
    for pole, _, (c_num, c_den), (l_num, l_den) in terms:
        # |A| < 2**e, e from the value whatever pair writes it; A multiplies
        # exp(-h*g*t) <= 1, B multiplies g*t*exp(-h*g*t) <= 1/(e*h)
        if c_num:
            e = exponent(c_num, c_den)
            t_exp.append(e)
            s_exp.append(e)
        if l_num:
            e = exponent(l_num, l_den)
            t_exp.append(e)
            s_exp.append(e - math.log2(math.e * max(pole, 1)))
    log2_s, k = _log2_sum(s_exp), len(terms)
    return (log2_s + math.log2(k + FLOAT_EVAL_UNITS),
            _log2_sum([log2_s, _log2_sum(t_exp) - GUARD_BITS, math.log2(2 * k) - GUARD_BITS]),
            log2_s, len(t_exp))


def _bound(gains: tuple[float, float, float, int], bits: int) -> float:
    """Bound, at every t >= 0, on the distance of a row's entries from the
    float64 rounding of their exact values, its coefficients rounded to
    `bits` (53: evaluated in float64), from the row's `_log2_gains`."""
    log2_err = gains[0] - DOUBLE_BITS if bits <= DOUBLE_BITS else gains[1] - bits
    # inf also where a coefficient is past float64's range and float64 evaluates it
    err = math.inf if log2_err >= 1024 - DOUBLE_BITS else 2.0 ** log2_err
    return err + OUTPUT_ROUNDING * (1.0 + err)


def resolve_bits(terms, policy: PrecisionPolicy) -> tuple[int, float, int]:
    """(bits, the `_bound` there, scale) for a row's nonempty (pole,
    multiplicity, const, linear) terms, coefficients as (numerator,
    positive denominator) pairs, reduced or not; a fixed width below 53 is
    reported as 53.  Auto keeps float64 if its bound meets the target, else
    takes the narrowest wider width that does, and raises `PrecisionError`
    above the cap.
    A wider row's unit is 2**-scale, scale = bits - floor(log2 S) +
    ceil(log2 k) + UNIT_GUARD_BITS for S and the k nonzero coefficients of
    `_log2_gains`, so its roundings add at most 2**-(bits+9) * S; the float
    log2 S is far within 2**-20, so its floor is taken that far below."""
    gains = _log2_gains(terms)
    target = policy.target_defect
    if policy.mode != "auto":
        bits = max(policy.mantissa_bits, DOUBLE_BITS) if policy.mode == "bits" else DOUBLE_BITS
    elif _bound(gains, DOUBLE_BITS) <= target:
        bits = DOUBLE_BITS
    elif target > OUTPUT_ROUNDING:   # solve _bound(gains, bits) <= target for bits
        budget = (target - OUTPUT_ROUNDING) / (1.0 + OUTPUT_ROUNDING)
        bits = max(DOUBLE_BITS + 1, math.ceil(gains[1] - math.log2(budget)))
        bits += _bound(gains, bits) > target   # the float64 rounding of the ceiling
    else:   # no width beats the rounding of the output
        bits = math.inf
    if policy.mode == "auto" and bits > policy.max_bits:
        defect = _bound(gains, policy.max_bits)
        raise PrecisionError(f"error bound {defect:.3e} above target {target:.3e} at the "
                             f"{policy.max_bits}-bit cap", defect=defect, bits=policy.max_bits)
    scale = (bits - math.floor(gains[2] - 2.0 ** -20) + (gains[3] - 1).bit_length()
             + UNIT_GUARD_BITS)
    return bits, _bound(gains, bits), scale
