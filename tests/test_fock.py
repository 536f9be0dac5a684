import functools
import math

import mpmath
import numpy as np
import pytest

from cathub.errors import DomainError, TruncationError
from cathub.fock import (
    FockVector,
    genfunc_derivative,
    inner_product,
    log_genfunc_derivative,
    parity_of,
    photon_offset,
)


def test_parity_helpers():
    assert parity_of(0) == "even"
    assert parity_of(7) == "odd"
    assert photon_offset("even") == 0
    assert photon_offset("odd") == 1
    with pytest.raises(DomainError):
        photon_offset("mixed")


def test_fock_vector_basics():
    v = FockVector("even", [1.0, 0.5, 0.25, 0.0, 0.0])
    assert v.cutoff == 4
    assert list(v.photon_numbers()) == [0, 2, 4, 6, 8]
    assert v.norm() == pytest.approx(math.sqrt(1.0 + 0.25 + 0.0625))
    w = FockVector("odd", [1.0])
    assert list(w.photon_numbers()) == [1]


def test_amps_are_read_only():
    v = FockVector("even", [1.0, 0.0])
    with pytest.raises(ValueError):
        v.amps[0] = 2.0


def test_mean_photon_number():
    # |0> and an equal-weight superposition of |0>,|2>
    assert FockVector("even", [1.0, 0.0]).mean_photon_number() == 0.0
    half = math.sqrt(0.5)
    v = FockVector("even", [half, half])
    assert v.mean_photon_number() == pytest.approx(1.0)
    assert FockVector("odd", [1.0]).mean_photon_number() == pytest.approx(1.0)


def test_check_tail():
    ok = FockVector("even", [1.0, 1e-3, 1e-9])
    ok.check_tail()
    bad = FockVector("even", [1.0, 0.5, 0.2])
    with pytest.raises(TruncationError) as exc:
        bad.check_tail()
    assert exc.value.suggested_cutoff > bad.cutoff


def test_inner_product_across_parities_vanishes():
    a = FockVector("even", [1.0, 0.0])
    b = FockVector("odd", [1.0, 0.0])
    assert inner_product(a, b) == 0.0


def test_inner_product_truncates_to_common_window():
    a = FockVector("even", np.array([0.6, 0.8]))
    b = FockVector("even", np.array([0.6, 0.8, 0.0, 0.0]))
    assert inner_product(a, b) == pytest.approx(1.0)


# closed forms for the first generating-function derivatives:
# g(y) = (1-4y^2)^(-1/2), g' = 4y(1-4y^2)^(-3/2),
# g'' = 4(1-4y^2)^(-3/2) + 48y^2(1-4y^2)^(-5/2)
def _g0(y):
    return (1.0 - 4.0 * y * y) ** -0.5


def _g1(y):
    return 4.0 * y * (1.0 - 4.0 * y * y) ** -1.5


def _g2(y):
    u = 1.0 - 4.0 * y * y
    return 4.0 * u**-1.5 + 48.0 * y * y * u**-2.5


@pytest.mark.parametrize("y", [0.0, 0.05, 0.2, 0.29, 0.31, 0.45, 0.49])
def test_genfunc_low_orders_match_closed_forms(y):
    assert genfunc_derivative(0, y).to_float() == pytest.approx(_g0(y), rel=1e-12)
    assert genfunc_derivative(1, y).to_float() == pytest.approx(_g1(y), rel=1e-12)
    assert genfunc_derivative(2, y).to_float() == pytest.approx(_g2(y), rel=1e-12)


@pytest.mark.parametrize("order", [3, 7, 16])
@pytest.mark.parametrize("y", [0.1, 0.28, 0.41])
def test_genfunc_consistent_with_finite_difference(order, y):
    # the (m+1)-th derivative should match a central difference of the m-th
    h = 1e-6
    upper = genfunc_derivative(order - 1, y + h).to_float()
    lower = genfunc_derivative(order - 1, y - h).to_float()
    fd = (upper - lower) / (2.0 * h)
    got = genfunc_derivative(order, y).to_float()
    assert got == pytest.approx(fd, rel=1e-6)


def test_genfunc_grows_toward_branch_point():
    lo = genfunc_derivative(6, 0.30)
    hi = genfunc_derivative(6, 0.49)
    assert hi.log_mag > lo.log_mag


def test_genfunc_domain_errors():
    with pytest.raises(DomainError):
        genfunc_derivative(0, -0.01)
    with pytest.raises(DomainError):
        genfunc_derivative(0, 0.5)
    with pytest.raises(DomainError):
        genfunc_derivative(-1, 0.1)


def test_genfunc_zero_argument():
    # g(0) = 1; odd derivatives vanish at 0, even ones are (2n)!/n! * ... > 0
    assert genfunc_derivative(0, 0.0).to_float() == 1.0
    assert genfunc_derivative(1, 0.0).is_zero()
    assert genfunc_derivative(2, 0.0).to_float() == pytest.approx(4.0, rel=1e-12)


def test_genfunc_zero_argument_higher_orders():
    # at y = 0 only the w^0 Legendre term survives: C(m, m/2) m! for even m
    for order in (4, 40, 400):
        want = math.log(math.comb(order, order // 2) * math.factorial(order))
        assert genfunc_derivative(order, 0.0).log_mag == pytest.approx(want, rel=1e-14)
    for order in (3, 41, 401):
        assert genfunc_derivative(order, 0.0).is_zero()
        assert log_genfunc_derivative(order, 0.0) == -math.inf


@functools.lru_cache(maxsize=None)
def _mpmath_log_genfunc(order: int, y: float) -> float:
    """ln g^(order)(y) from the exact Leibniz expansion over the branch points.

    g = (1-2y)^(-1/2) (1+2y)^(-1/2), so its m-th derivative is
    sum_j C(m, j) (-1)^(m-j) (2j-1)!! (2(m-j)-1)!! (1-2y)^(-1/2-j) (1+2y)^(-1/2-m+j).
    The signed sum can cancel; the working precision covers the gap between
    the sum of |terms|, at most 2^m m! (1-2y)^(-m-1), and the result, at
    least the first term of the power series of g^(m).
    """
    m = order
    ln_upper = m * math.log(2.0) + math.lgamma(m + 1) - (m + 1) * math.log1p(-2.0 * y)
    k0 = (m + 1) // 2
    p = 2 * k0 - m
    ln_lower = 2 * math.lgamma(2 * k0 + 1) - 2 * math.lgamma(k0 + 1) - math.lgamma(p + 1) + p * math.log(y)
    dps = 30 + max(0, math.ceil((ln_upper - ln_lower) / math.log(10.0)))
    with mpmath.workdps(dps):
        x = mpmath.mpf(y)  # exact: the binary float itself
        u, v = 1 - 2 * x, 1 + 2 * x
        # a[j] = (2j-1)!! u^(-j), b[j] = (2j-1)!! v^(-j)
        a, b = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for j in range(m):
            a.append(a[-1] * (2 * j + 1) / u)
            b.append(b[-1] * (2 * j + 1) / v)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            term = math.comb(m, j) * a[j] * b[m - j]
            total += term if (m - j) % 2 == 0 else -term
        return float(mpmath.log(total / mpmath.sqrt(u * v)))


@pytest.mark.parametrize("y", [1e-6, 0.01, 0.2, 0.2999, 0.3001, 0.45, 0.499])
@pytest.mark.parametrize("order", [0, 1, 2, 7, 40, 90, 91, 200, 400])
def test_genfunc_matches_mpmath(order, y):
    ref = _mpmath_log_genfunc(order, y)
    got = log_genfunc_derivative(order, y)
    assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
    assert genfunc_derivative(order, y).log_mag == got


def test_mpmath_reference_matches_closed_forms():
    y = 0.21
    assert _mpmath_log_genfunc(0, y) == pytest.approx(math.log(_g0(y)), abs=1e-15)
    assert _mpmath_log_genfunc(1, y) == pytest.approx(math.log(_g1(y)), abs=1e-15)
    assert _mpmath_log_genfunc(2, y) == pytest.approx(math.log(_g2(y)), abs=1e-15)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 90, 91, 400])
def test_genfunc_array_form_equals_scalar_form(order):
    ys = np.concatenate([[0.0], np.linspace(1e-6, 0.5 - 1e-6, 97)])
    got = log_genfunc_derivative(order, ys)
    assert got.shape == ys.shape
    want = [log_genfunc_derivative(order, float(y)) for y in ys]
    np.testing.assert_array_equal(got, want)
    grid = log_genfunc_derivative(order, ys.reshape(7, 14))
    np.testing.assert_array_equal(grid.ravel(), want)


def test_genfunc_array_domain_errors():
    with pytest.raises(DomainError):
        log_genfunc_derivative(3, np.array([0.1, 0.5]))
    with pytest.raises(DomainError):
        log_genfunc_derivative(3, np.array([0.1, math.nan]))
