"""Working-precision policy for cancellation-prone exponential sums.

Residue/Jordan coefficients are exact rationals, but evaluating their sums
destroys up to log2(max|coefficient|) bits through cancellation.  The
policy decides how many mantissa bits the coefficients are rounded to; in
auto mode the requirement is probed with the t=0 reconstruction defect (the
rounded coefficients must sum back to the known Kronecker delta), which is a
cheap and sharp detector because the exact answer is known.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

DOUBLE_BITS = 53
_ENV_CAP = "DICKE_MAX_BITS"


def default_max_bits() -> int:
    return int(os.environ.get(_ENV_CAP, "16384"))


class PrecisionError(ArithmeticError):
    """Raised when the precision cap cannot reach the target defect."""

    def __init__(self, message: str, defect: float, bits: int):
        super().__init__(message)
        self.defect = defect
        self.bits = bits


@dataclass(frozen=True)
class PrecisionPolicy:
    mode: str = "auto"               # "double" | "bits" | "auto"
    mantissa_bits: int = DOUBLE_BITS
    escalation_factor: float = 2.0
    target_defect: float = 1e-12
    max_bits: int = 0                # 0 -> environment default

    def __post_init__(self):
        if self.mode not in ("double", "bits", "auto"):
            raise ValueError(f"unknown precision mode {self.mode!r}")
        if self.mantissa_bits < 2:
            raise ValueError("mantissa_bits must be at least 2")
        if self.escalation_factor <= 1.0:
            raise ValueError("escalation_factor must exceed 1")
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
    def auto(cls, target_defect: float = 1e-12, start_bits: int = DOUBLE_BITS,
             escalation_factor: float = 2.0, max_bits: int = 0) -> "PrecisionPolicy":
        return cls(mode="auto", mantissa_bits=start_bits, target_defect=target_defect,
                   escalation_factor=escalation_factor, max_bits=max_bits)


def fraction_to_float(value: Fraction) -> float:
    """Round an exact rational to float64; overflow maps to signed inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def round_to_bits(value: Fraction, bits: int) -> tuple[int, int]:
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


def scaled_to_float(value: int, frac_bits: int) -> float:
    """value * 2**-frac_bits correctly rounded to float64; overflow maps to
    signed inf."""
    try:
        return value / (1 << frac_bits)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def rounding_defect(consts: list[Fraction], delta: int, bits: int) -> float:
    """|sum of b-bit roundings - delta|, the rational sum taken exactly.

    Above float64 the roundings are `round_to_bits`, the ones the
    evaluation kernel sums, so the defect is that of the evaluated
    coefficients.

    Summing the rounded values in working precision can absorb the
    residual entirely (the largest near-cancelling pair may round to the
    same representable number), so the defect is accumulated exactly to
    stay a faithful gauge of the per-coefficient rounding loss.
    """
    if bits <= DOUBLE_BITS:
        # fsum rounds the exact sum of the doubles once, like a rational sum
        try:
            return abs(math.fsum([fraction_to_float(c) for c in consts] + [-delta]))
        except (OverflowError, ValueError):
            return math.inf
    rounded = [round_to_bits(c, bits) for c in consts]
    low = min([0] + [e for _, e in rounded])
    total = sum(mant << (e - low) for mant, e in rounded) - (delta << -low)
    return abs(scaled_to_float(total, -low))


def resolve_bits(consts: list[Fraction], delta: int, policy: PrecisionPolicy) -> tuple[int, float]:
    """Pick the rounding width for a term list whose constant parts must
    reconstruct `delta` at t=0.  Returns (bits, achieved defect); a fixed
    width below float64 is reported as 53, the width evaluation then uses."""
    if policy.mode == "double":
        return DOUBLE_BITS, rounding_defect(consts, delta, DOUBLE_BITS)
    if policy.mode == "bits":
        bits = max(policy.mantissa_bits, DOUBLE_BITS)
        return bits, rounding_defect(consts, delta, bits)
    bits = min(policy.mantissa_bits, policy.max_bits)
    while True:
        defect = rounding_defect(consts, delta, bits)
        if defect <= policy.target_defect:
            return bits, defect
        if bits >= policy.max_bits:
            raise PrecisionError(
                f"t=0 reconstruction defect {defect:.3e} above target "
                f"{policy.target_defect:.3e} at the {policy.max_bits}-bit cap",
                defect=defect, bits=bits)
        bits = min(policy.max_bits, math.ceil(bits * policy.escalation_factor))
