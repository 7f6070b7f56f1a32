import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke import precision
from dicke.ladder import build_ladder
from dicke.methods import solve_populations
from dicke.precision import (DOUBLE_BITS, PrecisionError, PrecisionPolicy, default_max_bits,
                             fraction_to_float, resolve_bits, rounding_defect)
from dicke.residues import RoundedRow, exact_terms, residue_terms
from dicke.states import DiagonalState
from fraction_reference import (fraction_log2_gains, fraction_round_to_bits, fraction_terms,
                                pair_terms)


def test_policy_validation():
    with pytest.raises(ValueError):
        PrecisionPolicy(mode="quad")
    with pytest.raises(ValueError):
        PrecisionPolicy(mantissa_bits=1)


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
    # roundings of 1/3 + 2**-60 and 2/3 - 2**-60 never sum back to 1 exactly,
    # and no finite width certifies a zero error
    terms = pair_terms([(0, 1, Fraction(1, 3) + Fraction(1, 2 ** 60), 0),
                        (2, 1, Fraction(2, 3) - Fraction(1, 2 ** 60), 0)])
    policy = PrecisionPolicy.auto(target_defect=0.0, max_bits=60)
    with pytest.raises(PrecisionError) as caught:
        resolve_bits(terms, policy)
    assert caught.value.bits == 60
    assert caught.value.defect == resolve_bits(terms, PrecisionPolicy.bits(60))[1] > 0


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
    big = 10 ** 400
    assert fraction_to_float(big, 1) == math.inf
    assert fraction_to_float(-big, 3) == -math.inf
    assert fraction_to_float(1, 3) == 1 / 3


def test_rounding_defect_scales_with_bits():
    terms = residue_terms(build_ladder(30, 1.0), 0, 30)
    d53, d106, d212 = (
        rounding_defect(*RoundedRow(terms, PrecisionPolicy.bits(bits)).consts, 0, bits)
        for bits in (53, 106, 212))
    assert d53 > d106 > d212
    assert d106 < d53 * 2.0 ** -40  # roughly 2^-bits scaling


def test_working_precision_trace_is_tiny():
    # the expansion itself conserves the trace far below float64 output noise
    ladder = build_ladder(32, 1.0)
    rows = [residue_terms(ladder, m, 32) for m in range(33)]
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


CLOSED_FORMS = ("residue", "laplace", "jordan")


def wide_reference(ladder, m0, grid):
    return solve_populations(ladder, m0, grid, "residue",
                             PrecisionPolicy.bits(4 * ladder.n_emitters + 200))


@pytest.mark.parametrize("n, m0", [(65, 32), (128, 64)])
def test_auto_partial_start_on_log_grid(n, m0):
    # a row whose roundings cancel at t = 0 but not at t = 1e-3 (trace
    # defects 5.5 and 1.05 under a t = 0 check) must get its width from the bound
    ladder = build_ladder(n, 1.0)
    grid = np.geomspace(1e-3, 5.0, 50)
    wide = wide_reference(ladder, m0, grid)
    residue, laplace, jordan = (solve_populations(ladder, m0, grid, method)
                                for method in CLOSED_FORMS)
    assert np.abs(residue.populations - wide.populations).max() <= 1e-12
    assert max(residue.meta["error_bound"]) <= 1e-12
    for table in (laplace, jordan):
        assert np.array_equal(table.populations, residue.populations)
        assert table.meta["bits"] == residue.meta["bits"]


@pytest.mark.parametrize("policy", [PrecisionPolicy.double(), PrecisionPolicy.bits(80),
                                    PrecisionPolicy.auto()])
def test_closed_forms_share_widths_bounds_and_tables(policy):
    ladder = build_ladder(40, 1.0)
    grid = np.geomspace(1e-3, 5.0, 12)
    for m0 in (40, 21):
        residue, laplace, jordan = (solve_populations(ladder, m0, grid, method, policy)
                                    for method in CLOSED_FORMS)
        for table in (laplace, jordan):
            assert np.array_equal(table.populations, residue.populations)
            assert table.meta["bits"] == residue.meta["bits"]
            assert table.meta["error_bound"] == residue.meta["error_bound"]
        assert len(residue.meta["error_bound"]) == 41
        assert residue.meta["error_bound"][m0 + 1:] == [0.0] * (40 - m0)
        if policy.mode == "auto":
            assert max(residue.meta["bits"]) > 53
            assert max(residue.meta["error_bound"]) <= policy.target_defect


POLICIES = st.one_of(st.just(PrecisionPolicy.double()),
                     st.builds(PrecisionPolicy.bits, st.integers(53, 300)),
                     st.just(PrecisionPolicy.auto()))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closed_forms_equal_under_any_policy(data):
    # three derivations of one exact expansion, each row rounded once by
    # `RoundedRow` under the same policy: equal tables and provenance
    n = data.draw(st.integers(1, 24), label="n")
    m0 = data.draw(st.integers(0, n), label="m0")
    policy = data.draw(POLICIES, label="policy")
    ladder = build_ladder(n, 1.0)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 8), [1e4]])
    residue, laplace, jordan = (solve_populations(ladder, m0, grid, method, policy)
                                for method in CLOSED_FORMS)
    for table in (laplace, jordan):
        assert np.array_equal(table.populations, residue.populations), table.method
        for key in ("bits", "error_bound", "t0_defect"):
            assert table.meta[key] == residue.meta[key], (table.method, key)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_error_bound_covers_measured_error(data):
    n = data.draw(st.integers(1, 40), label="n")
    m0 = data.draw(st.integers(0, n), label="m0")
    bits = data.draw(st.sampled_from([53, 60, 80, 120]), label="bits")
    method = data.draw(st.sampled_from(CLOSED_FORMS), label="method")
    t_max = data.draw(st.floats(0.01, 5.0), label="t_max")
    points = data.draw(st.integers(2, 12), label="points")
    if data.draw(st.booleans(), label="log grid"):
        grid = np.geomspace(1e-3 * t_max, t_max, points)
    else:
        grid = np.linspace(0.0, t_max, points)
    ladder = build_ladder(n, 1.0)
    table = solve_populations(ladder, m0, grid, method, PrecisionPolicy.bits(bits))
    error = np.abs(table.populations - wide_reference(ladder, m0, grid).populations)
    assert np.all(error.max(axis=1) <= table.meta["error_bound"])


def assert_rows_match_fraction_reference(ladder, m0, policy, monkeypatch):
    """Every row from start m0: the integer-pair pipeline gives the width,
    bound and rounded coefficients of the same row run through the
    `Fraction` reference."""
    for m in range(m0 + 1):
        raw = exact_terms(ladder, m, m0)
        row = RoundedRow(raw, policy)
        ref = fraction_terms(raw)
        with monkeypatch.context() as patch:
            patch.setattr(precision, "_log2_gains", fraction_log2_gains)
            bits, bound = resolve_bits(ref, policy)
        where = (ladder.n_emitters, m0, m)
        assert row.bits == bits and row.bound == bound, where
        assert row.poles == [v for v, _, _, _ in ref], where
        consts = [fraction_round_to_bits(c, bits) for _, _, c, _ in ref]
        linears = [fraction_round_to_bits(b, bits) for _, _, _, b in ref]
        assert (row.consts[0], row.consts[1].tolist()) == \
            ([mant for mant, _ in consts], [e for _, e in consts]), where
        assert (row.linears[0], row.linears[1].tolist()) == \
            ([mant for mant, _ in linears], [e for _, e in linears]), where


def test_integer_pipeline_matches_fraction_reference_small_n(monkeypatch):
    for n in range(1, 49):
        ladder = build_ladder(n, 1.0)
        for m0 in range(n + 1):
            assert_rows_match_fraction_reference(ladder, m0, PrecisionPolicy(), monkeypatch)


@pytest.mark.parametrize("n, m0, policy", [
    (64, 64, PrecisionPolicy()), (128, 128, PrecisionPolicy()), (256, 256, PrecisionPolicy()),
    (128, 64, PrecisionPolicy.bits(212))])
def test_integer_pipeline_matches_fraction_reference_benchmark_rows(n, m0, policy, monkeypatch):
    # the residue rows of the benchmark's residue_ladder requests
    assert_rows_match_fraction_reference(build_ladder(n, 1.0), m0, policy, monkeypatch)


@pytest.mark.parametrize("policy", [PrecisionPolicy.auto(), PrecisionPolicy.bits(80)])
@pytest.mark.parametrize("method", CLOSED_FORMS)
def test_closed_forms_build_no_fraction(method, policy, monkeypatch):
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):   # arithmetic bypasses __new__ from 3.12
        coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            built.append(args)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    Fraction(1, 3)
    assert len(built) == 1   # the counter sees a construction
    built.clear()
    ladder = build_ladder(40, 1.0)
    grid = np.geomspace(1e-3, 5.0, 6)
    for m0 in (40, 21):
        table = solve_populations(ladder, m0, grid, method, policy)
        assert max(table.meta["bits"]) > DOUBLE_BITS
    assert built == []
