import math

import numpy as np
import pytest

from cathub.cats import _SCAN_POINTS, _Y_HI, _Y_LO, cat_state, fidelity, mean_photon, optimal_y
from cathub.errors import DomainError
from cathub.fock import FockVector
from cathub.hub import heralded_amps, heralded_state

# frozen optimizer outputs, used as regression anchors
Y_STAR_20_3 = 0.15220189
Y_STAR_10_25 = 0.18575965
Y_STAR_90_5 = 0.10817972


def test_cat_state_is_normalised():
    # at beta = 1e-9, 1 - exp(-2 beta^2) in plain subtraction cancels to 0
    for beta in (1e-9, 1e-8, 0.3, 1.0, 2.5, 6.0):
        for parity in ("even", "odd"):
            assert cat_state(beta, parity).norm() == pytest.approx(1.0, abs=1e-12)


def test_even_cat_zero_amplitude_is_vacuum():
    v = cat_state(0.0, "even")
    assert v.amps[0] == pytest.approx(1.0)
    assert float(abs(v.amps[1:]).max() if v.cutoff > 0 else 0.0) == 0.0


def test_cat_window_is_capped():
    # (beta^2 + 12 beta + 30) / 2 entries: 21,215 at beta = 200, past the cap
    with pytest.raises(DomainError):
        cat_state(200.0, "even")
    with pytest.raises(DomainError):
        cat_state(1e308, "odd")
    assert cat_state(175.0, "even").cutoff == 16378


def test_odd_cat_needs_positive_amplitude():
    with pytest.raises(DomainError):
        cat_state(0.0, "odd")
    with pytest.raises(DomainError):
        cat_state(-1.0, "odd")
    # beta^2 = 1e-320 is subnormal; the normalisation 1 - exp(-2 beta^2) is lost
    with pytest.raises(DomainError):
        cat_state(1e-160, "odd")
    with pytest.raises(DomainError):
        cat_state(1.0, "even", cutoff=-1)


def test_cat_mean_photget_matches_closed_form():
    # even: b^2 tanh(b^2); odd: b^2 coth(b^2)
    for beta in (0.8, 1.7, 3.0):
        b2 = beta * beta
        even = cat_state(beta, "even").mean_photon_number()
        odd = cat_state(beta, "odd").mean_photon_number()
        assert even == pytest.approx(b2 * math.tanh(b2), rel=1e-10)
        assert odd == pytest.approx(b2 / math.tanh(b2), rel=1e-10)


def test_fidelity_bounds_and_symmetry():
    a = cat_state(2.0, "even")
    b = heralded_state("even", 10, 0.18)
    f = fidelity(a, b)
    assert 0.0 < f <= 1.0
    assert fidelity(b, a) == pytest.approx(f, rel=1e-14)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_across_parity_is_zero():
    assert fidelity(cat_state(2.0, "even"), cat_state(2.0, "odd")) == 0.0


def test_mean_photon_closed_form_matches_direct_moment():
    for parity, n, y in (("even", 20, 0.15), ("odd", 91, 0.107), ("even", 0, 0.3)):
        state = heralded_state(parity, n // 2, y)
        assert mean_photon(parity, n, y) == pytest.approx(
            state.mean_photon_number(), rel=1e-11
        )


def test_optimal_y_frozen_anchors():
    res = optimal_y("even", 20, 3.0)
    assert res.y_star == pytest.approx(Y_STAR_20_3, abs=2e-7)
    assert res.fidelity == pytest.approx(0.98396099, abs=1e-6)
    res = optimal_y("even", 10, 2.5)
    assert res.y_star == pytest.approx(Y_STAR_10_25, abs=2e-7)
    res = optimal_y("even", 90, 5.0)
    assert res.y_star == pytest.approx(Y_STAR_90_5, abs=2e-7)
    assert res.fidelity > 0.99


def test_optimal_y_bracket_and_evaluations():
    res = optimal_y("odd", 7, 1.5)
    lo, hi = res.bracket
    assert lo <= res.y_star <= hi
    assert res.evaluations > 0
    assert 0.0 < res.y_star < 0.5


def test_optimal_y_counts_scan_and_refinement():
    # 256 scan points plus the golden-section calls down to a 1e-10 bracket
    assert optimal_y("even", 20, 3.0).evaluations == 296
    assert optimal_y("odd", 91, 6.0).evaluations == 296


@pytest.mark.parametrize("parity,n,beta", [("even", 20, 3.0), ("odd", 91, 6.0), ("even", 0, 0.5)])
def test_batched_scan_matches_scalar_objective(parity, n, beta):
    target = cat_state(beta, parity)
    ys = np.linspace(_Y_LO, _Y_HI, _SCAN_POINTS)
    batched = (heralded_amps(parity, n // 2, ys, target.cutoff) @ target.amps) ** 2
    scalar = [float(np.dot(heralded_amps(parity, n // 2, y, target.cutoff), target.amps)) ** 2 for y in ys]
    assert batched.shape == (_SCAN_POINTS,)
    np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=0.0)


def test_more_subtraction_needs_smaller_y():
    # at fixed target, deeper subtraction moves the optimum down
    y20 = optimal_y("even", 20, 3.0).y_star
    y40 = optimal_y("even", 40, 3.0).y_star
    assert y40 < y20


def test_vacuum_limit():
    res = optimal_y("even", 0, 0.01)
    assert res.fidelity == pytest.approx(1.0, abs=1e-6)


def test_small_amplitude_beats_large_at_zero_subtraction():
    assert optimal_y("even", 0, 0.5).fidelity > optimal_y("even", 0, 2.0).fidelity


def test_optimal_y_rejects_bad_requests():
    with pytest.raises(DomainError):
        optimal_y("even", 21, 3.0)  # parity mismatch
    with pytest.raises(DomainError):
        optimal_y("odd", 7, 0.0)


def test_heralded_overlap_peaks_near_reported_optimum():
    # scan overlap by hand around the frozen anchor
    target = cat_state(3.0, "even")
    best = optimal_y("even", 20, 3.0)
    for delta in (-0.01, 0.01):
        shifted = fidelity(target, heralded_state("even", 10, best.y_star + delta))
        assert shifted < best.fidelity
