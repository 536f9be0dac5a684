import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cathub import logreal
from cathub.logreal import LogReal, log_factorials, logreal_sum, logreal_sum_logs

REL = 1e-12

nonzero = st.floats(min_value=1e-6, max_value=1e6).flatmap(
    lambda m: st.sampled_from([m, -m])
)


def test_round_trip():
    for x in (0.0, 1.0, -1.0, 3.5e-200, -2.75e150, 1e-300):
        assert LogReal.from_float(x).to_float() == pytest.approx(x, rel=1e-14)


def test_zero_one_identities():
    one = LogReal(1, 0.0)
    assert LogReal.zero().is_zero()
    assert one.to_float() == 1.0
    x = LogReal.from_float(-7.25)
    assert (x * one).to_float() == pytest.approx(-7.25, rel=1e-15)
    assert (x * LogReal.zero()).is_zero()


@given(nonzero, nonzero)
def test_product_matches_float(a, b):
    got = (LogReal.from_float(a) * LogReal.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=REL)


@given(nonzero, nonzero)
def test_quotient_matches_float(a, b):
    got = (LogReal.from_float(a) / LogReal.from_float(b)).to_float()
    assert got == pytest.approx(a / b, rel=REL)


def test_mixing_with_numbers_is_type_error():
    # LogReal multiplies and divides only LogReals
    x = LogReal.from_float(3.0)
    for other in (2, 2.0, np.float64(2.0), "two"):
        with pytest.raises(TypeError):
            x * other
        with pytest.raises(TypeError):
            other * x
        with pytest.raises(TypeError):
            x / other


def test_overflowing_magnitude_becomes_inf():
    big = LogReal(1, 1e6)
    assert math.isinf(big.to_float())
    assert LogReal(-1, 1e6).to_float() == -math.inf
    # but the log-domain representation stays exact
    assert big.log10() == pytest.approx(1e6 / math.log(10.0), rel=1e-15)


def _check_log_factorials(ns):
    # against exact integer factorials
    got = log_factorials(np.array(ns))
    for n, value in zip(ns, got):
        want = math.log(math.factorial(n)) if n > 1 else 0.0
        assert abs(value - want) <= 1e-13 * max(1.0, want)


def test_log_factorial_small_values_exact(monkeypatch):
    # start from the one-entry table, whatever earlier tests grew it to
    monkeypatch.setattr(logreal, "_LOG_FACTORIALS", np.zeros(1))
    _check_log_factorials(list(range(0, 51)))
    # an argument past the memo table makes it grow; old entries stay put
    size = len(logreal._LOG_FACTORIALS)
    before = log_factorials(np.arange(size))
    _check_log_factorials([size, size + 7, 3 * size])
    assert len(logreal._LOG_FACTORIALS) > 3 * size
    assert np.array_equal(log_factorials(np.arange(size)), before)
    with pytest.raises(ValueError):
        log_factorials([-1])


def test_log_factorial_growth_computes_only_new_entries(monkeypatch):
    monkeypatch.setattr(logreal, "_LOG_FACTORIALS", np.zeros(1))
    log_factorials(np.arange(100))
    before = logreal._LOG_FACTORIALS.copy()
    calls = []
    lgamma = math.lgamma

    def counted(x):
        calls.append(x)
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counted)
    log_factorials([2 * len(before) + 5])
    size = len(logreal._LOG_FACTORIALS)
    assert size >= 2 * len(before)
    assert len(calls) == size - len(before)
    assert logreal._LOG_FACTORIALS[: len(before)].tobytes() == before.tobytes()


def test_log_factorial_ratio_identity():
    ns = np.array([1, 2, 5, 17, 120, 900])
    ratio = np.exp(log_factorials(ns) - log_factorials(ns - 1))
    np.testing.assert_allclose(ratio, ns, rtol=1e-12)


def test_logreal_sum_empty_is_zero():
    assert logreal_sum([]).is_zero()


def test_logreal_sum_cancellation():
    x = LogReal.from_float(1.25)
    s = logreal_sum([x, LogReal(-1, x.log_mag)])
    assert s.is_zero() or abs(s.to_float()) < 1e-15


@example(values=[1.0, -13733.0, 13732.00390625])
@given(st.lists(nonzero, min_size=1, max_size=30))
def test_logreal_sum_matches_fsum(values):
    # Forward-error bound of the representation, with M = max |ln|v|| and
    # eps the float64 machine epsilon.  Storing ln|v| costs up to eps M in
    # the log; shifting it by the largest log (a gap of at most 2M) and
    # exponentiating adds up to eps (M + 1).  Each term thus carries a
    # relative error of at most eps (2M + 1), or eps (2M + 1) sum|v| in
    # all; the running sum of n terms adds (n - 1) eps sum|v|, and taking
    # the log of the total and exponentiating it back adds eps sum|v|.
    # Cancellation magnifies all of it relative to the result, so the bound
    # is absolute, on the scale of sum|v|.
    exact = math.fsum(values)
    got = logreal_sum([LogReal.from_float(v) for v in values]).to_float()
    top = max(abs(math.log(abs(v))) for v in values)
    bound = (len(values) + 2 * (1 + top)) * sys.float_info.epsilon * sum(abs(v) for v in values)
    assert abs(got - exact) <= bound


def test_logreal_sum_logs_matches_fsum():
    logs = np.array([-800.0, -801.5, -799.25])  # each term underflows on its own
    got = logreal_sum_logs(logs)
    want = math.log(math.fsum(math.exp(x + 800.0) for x in logs)) - 800.0
    assert got.sign == 1 and got.log_mag == pytest.approx(want, abs=1e-13)
    assert logreal_sum_logs([]).is_zero()
    assert logreal_sum_logs([-math.inf, -math.inf]).is_zero()
