import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cathub import logreal
from cathub.errors import DomainError
from cathub.logreal import LogReal, log_factorials, logreal_sum_logs

REL = 1e-12

positive = st.floats(min_value=1e-6, max_value=1e6)


def test_one_field():
    assert [f.name for f in dataclasses.fields(LogReal)] == ["log_mag"]


def test_round_trip():
    for x in (0.0, 1.0, 3.5e-200, 2.75e150, 1e-300):
        assert LogReal.from_float(x).to_float() == pytest.approx(x, rel=1e-14)


def test_zero_one_identities():
    one = LogReal(0.0)
    zero = LogReal.zero()
    assert zero.is_zero() and zero.log_mag == -math.inf
    assert LogReal.from_float(0.0) == zero
    assert zero.to_float() == 0.0 and zero.log10() == -math.inf
    assert one.to_float() == 1.0
    x = LogReal.from_float(7.25)
    assert (x * one).to_float() == pytest.approx(7.25, rel=1e-15)
    assert (x * zero).is_zero()
    assert (zero / x).is_zero()


@given(positive, positive)
def test_product_matches_float(a, b):
    got = (LogReal.from_float(a) * LogReal.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=REL)


@given(positive, positive)
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
    big = LogReal(1e6)
    assert big.to_float() == math.inf
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


def test_log_factorial_rejects_non_integers():
    # a float is rejected, not truncated to the factorial below it
    for n in (1.5, [2.7], np.array([2.0]), [True]):
        with pytest.raises(DomainError):
            log_factorials(n)
    assert log_factorials(np.array([3], dtype=np.uint8))[0] == pytest.approx(math.log(6.0), rel=1e-15)


def test_log_factorial_ratio_identity():
    ns = np.array([1, 2, 5, 17, 120, 900])
    ratio = np.exp(log_factorials(ns) - log_factorials(ns - 1))
    np.testing.assert_allclose(ratio, ns, rtol=1e-12)


def test_logreal_sum_logs_matches_fsum():
    logs = np.array([-800.0, -801.5, -799.25])  # each term underflows on its own
    got = logreal_sum_logs(logs)
    want = math.log(math.fsum(math.exp(x + 800.0) for x in logs)) - 800.0
    assert got.log_mag == pytest.approx(want, abs=1e-13)
    assert logreal_sum_logs([]).is_zero()
    assert logreal_sum_logs([-math.inf, -math.inf]).is_zero()
