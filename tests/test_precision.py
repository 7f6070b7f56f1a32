import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from dicke.ladder import build_ladder
from dicke.precision import (DOUBLE_BITS, PrecisionError, PrecisionPolicy, default_max_bits,
                             fraction_to_float, resolve_bits, rounding_defect)
from dicke.residues import residue_terms
from dicke.states import DiagonalState


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(mode="quad")
    with pytest.raises(ValueError):
        PrecisionPolicy(mantissa_bits=1)
    with pytest.raises(ValueError):
        PrecisionPolicy(escalation_factor=1.0)


@pytest.mark.parametrize("target", [-1.0, -1e-30, math.nan, math.inf, -math.inf])
def test_policy_rejects_bad_target_defect(target):
    with pytest.raises(ValueError, match="target_defect"):
        PrecisionPolicy(target_defect=target)
    with pytest.raises(ValueError, match="target_defect"):
        PrecisionPolicy.auto(target_defect=target)


def test_policy_rejects_negative_bit_cap(monkeypatch):
    with pytest.raises(ValueError, match="max_bits"):
        PrecisionPolicy(max_bits=-5)
    monkeypatch.setenv("DICKE_MAX_BITS", "-3")
    with pytest.raises(ValueError, match="max_bits"):
        PrecisionPolicy()
    # a zero target stays allowed: exact cancellation can meet it
    monkeypatch.delenv("DICKE_MAX_BITS")
    assert PrecisionPolicy(target_defect=0.0).target_defect == 0.0


@pytest.mark.parametrize("cap", [1, 10, 52])
def test_policy_rejects_cap_below_double(cap, monkeypatch):
    with pytest.raises(ValueError, match="max_bits"):
        PrecisionPolicy(max_bits=cap)
    with pytest.raises(ValueError, match="max_bits"):
        PrecisionPolicy(mode="double", max_bits=cap)
    monkeypatch.setenv("DICKE_MAX_BITS", str(cap))
    with pytest.raises(ValueError, match="max_bits"):
        PrecisionPolicy()
    monkeypatch.setenv("DICKE_MAX_BITS", "53")
    assert PrecisionPolicy().max_bits == 53
    assert PrecisionPolicy(max_bits=53).max_bits == 53


def test_escalation_stops_at_the_cap():
    # roundings of 1/3 + 2**-60 and 2/3 - 2**-60 never sum back to 1 exactly
    consts = [Fraction(1, 3) + Fraction(1, 2 ** 60), Fraction(2, 3) - Fraction(1, 2 ** 60)]
    for start in (53, 113):
        policy = PrecisionPolicy.auto(target_defect=0.0, start_bits=start, max_bits=60)
        with pytest.raises(PrecisionError) as caught:
            resolve_bits(consts, 1, policy)
        assert caught.value.bits == 60


def test_policy_constructors():
    assert PrecisionPolicy.double().mode == "double"
    assert PrecisionPolicy.bits(256).mantissa_bits == 256
    auto = PrecisionPolicy.auto(target_defect=1e-20)
    assert auto.mode == "auto" and auto.target_defect == 1e-20


def test_max_bits_env_override(monkeypatch):
    monkeypatch.setenv("DICKE_MAX_BITS", "512")
    assert default_max_bits() == 512
    assert PrecisionPolicy().max_bits == 512
    monkeypatch.delenv("DICKE_MAX_BITS")
    assert default_max_bits() == 16384


def test_fraction_to_float_overflow_is_signed_inf():
    big = Fraction(10 ** 400)
    assert fraction_to_float(big) == math.inf
    assert fraction_to_float(-big) == -math.inf


def test_rounding_defect_scales_with_bits():
    consts = [a for _, _, a, _ in
              [(t.pole, t.multiplicity, t.const, t.linear)
               for t in residue_terms(build_ladder(30, 1.0), 0, 30,
                                      PrecisionPolicy.bits(300))]]
    d53 = rounding_defect(consts, 0, 53)
    d106 = rounding_defect(consts, 0, 106)
    d212 = rounding_defect(consts, 0, 212)
    assert d53 > d106 > d212
    assert d106 < d53 * 2.0 ** -40  # roughly 2^-bits scaling


def test_working_precision_trace_is_tiny():
    # the expansion itself conserves the trace far below float64 output noise
    ladder = build_ladder(32, 1.0)
    rows = [residue_terms(ladder, m, 32, PrecisionPolicy.bits(192))
            for m in range(33)]
    with mpmath.workprec(192):
        for gt in (0.05, 0.7, 2.0):
            gt_mp = mpmath.mpf(gt)
            total = mpmath.mpf(0)
            for terms in rows:
                for term in terms:
                    const = mpmath.mpf(term.const.numerator) / term.const.denominator
                    linear = mpmath.mpf(term.linear.numerator) / term.linear.denominator
                    total += (const + linear * gt_mp) * mpmath.exp(-term.pole * gt_mp)
            assert abs(float(total - 1)) < 1e-20


def test_diagonal_state_validation():
    good = DiagonalState(populations=np.array([0.25, 0.75]), time=0.0)
    good.validate()
    with pytest.raises(ValueError):
        DiagonalState(populations=np.array([0.5, 0.6]), time=0.0).validate(tol=1e-9)
    with pytest.raises(ValueError):
        DiagonalState(populations=np.array([1.0]), time=-0.5)


def test_evaluate_population_double_bits_constant():
    assert DOUBLE_BITS == 53
