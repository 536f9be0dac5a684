import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathub import detector
from cathub.cats import optimal_y
from cathub.detector import (
    lossy_fidelity_exact,
    lossy_fidelity_firstorder,
    lossy_prob,
    lossy_prob_firstorder,
    povm_element,
    reduction_factor,
    tradeoff_product,
)
from cathub.errors import DomainError, TruncationError
from cathub.hub import HubConfig, Outcome
from cathub.logreal import logreal_sum_logs
from cathub.probabilities import joint_success_prob


def test_povm_weight_example():
    el = povm_element(2, 0.98, cutoff=10)
    assert el.weight(4) == pytest.approx(6.0 * 0.98**2 * 0.02**2, rel=1e-12)
    assert el.weight(4) == pytest.approx(0.00230496, rel=1e-9)
    assert el.weight(1) == 0.0
    assert el.weight(2) == pytest.approx(0.98**2, rel=1e-12)
    assert el.weight(11) == 0.0  # past the cutoff


def test_povm_lossless_is_projector():
    el = povm_element(3, 1.0, cutoff=8)
    for j in range(9):
        assert el.weight(j) == (1.0 if j == 3 else 0.0)


@settings(max_examples=50, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=40),
    eta=st.floats(min_value=0.05, max_value=1.0),
)
def test_povm_completeness(j, eta):
    total = sum(povm_element(m, eta, cutoff=41).weight(j) for m in range(j + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_povm_validation():
    with pytest.raises(DomainError):
        povm_element(-1, 0.9, cutoff=5)
    with pytest.raises(DomainError):
        povm_element(2, 0.0, cutoff=5)
    with pytest.raises(DomainError):
        povm_element(6, 0.9, cutoff=5)
    # a true count is gated like every other count, not clamped or indexed
    for true_count in (-1, 1.5):
        with pytest.raises(DomainError):
            povm_element(2, 0.9, cutoff=5).weight(true_count)


def test_reduction_factor_reference_values():
    # pinned mean photon number of 35
    assert reduction_factor(0.9**2, 35.0) == pytest.approx(8.21, rel=5e-3)
    assert reduction_factor(0.95**2, 35.0) == pytest.approx(3.78, rel=5e-3)
    assert reduction_factor(0.98**2, 35.0) == pytest.approx(1.44, rel=5e-3)
    assert reduction_factor(0.9**4, 35.0) == pytest.approx(18.35, rel=5e-3)
    assert reduction_factor(0.95**4, 35.0) == pytest.approx(7.97, rel=5e-3)
    assert reduction_factor(0.98**4, 35.0) == pytest.approx(2.94, rel=5e-3)


def test_firstorder_multiplier_reference_values():
    eta = 0.98
    assert 1.0 - (1.0 - eta) * reduction_factor(0.9**2, 35.0) == pytest.approx(
        0.8358, abs=1e-3
    )
    assert 1.0 - (1.0 - eta) * reduction_factor(0.95**4, 35.0) == pytest.approx(
        0.8406, abs=1e-3
    )


def test_lossless_limits():
    res = optimal_y("even", 10, 2.5)
    cfg = HubConfig.from_target_y(res.y_star, (0.9,))
    assert lossy_prob(cfg, 5, "even", 1.0).to_float() == pytest.approx(
        joint_success_prob(cfg, Outcome((10,))).to_float(), rel=1e-13
    )
    assert lossy_fidelity_exact(cfg, 10, 1.0, 2.5) == pytest.approx(
        res.fidelity, rel=1e-10
    )
    assert lossy_fidelity_firstorder(0.81, 10, "even", 1.0, res.y_star) == 1.0


def test_lossy_fidelity_multiplier_below_one_prob_above():
    res = optimal_y("even", 10, 2.5)
    cfg = HubConfig.from_target_y(res.y_star, (0.9,))
    for eta in (0.9, 0.95, 0.99):
        fid_mult = lossy_fidelity_exact(cfg, 10, eta, 2.5) / res.fidelity
        prob_mult = (
            lossy_prob(cfg, 5, "even", eta) / joint_success_prob(cfg, Outcome((10,)))
        ).to_float() / eta**10
        assert fid_mult < 1.0
        assert prob_mult > 1.0


def test_prob_firstorder_gain_value():
    # 1 + (1-eta) * reduction factor at the pinned mean
    gain = 1.0 + 0.02 * reduction_factor(0.81, 35.0)
    assert gain == pytest.approx(1.1642, abs=1e-3)


def test_prob_firstorder_tracks_exact():
    res = optimal_y("even", 10, 2.5)
    eta = 0.99
    # one tap, and a two-tap chain with the same transmittance product
    for taps in ((0.95,), (0.97, 0.95 / 0.97)):
        cfg = HubConfig.from_target_y(res.y_star, taps)
        exact = lossy_prob(cfg, 5, "even", eta).to_float()
        first = lossy_prob_firstorder(cfg, 5, "even", eta).to_float()
        assert first == pytest.approx(exact, rel=5e-4)


def test_gap_shrinks_quadratically():
    res = optimal_y("even", 20, 3.0)
    cfg = HubConfig.from_target_y(res.y_star, (0.95,))
    gaps = []
    for eta in (0.95, 0.975):
        exact = lossy_fidelity_exact(cfg, 20, eta, 3.0) / res.fidelity
        first = lossy_fidelity_firstorder(0.95**2, 20, "even", eta, res.y_star)
        gaps.append(abs(exact - first))
    # halving (1-eta) should shrink the gap by about 4
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.6)


def test_hub_penalty_monotonicity():
    t1 = 0.9
    base = (1.0 - t1**2) / t1**2
    for rest in ((0.95,), (0.9, 0.8), (1.0,)):
        t_prod_sq = t1**2
        for t in rest:
            t_prod_sq *= t * t
        chained = (1.0 - t_prod_sq) / t_prod_sq
        if all(t == 1.0 for t in rest):
            assert chained == pytest.approx(base, rel=1e-14)
        else:
            assert chained > base


def test_htbs_limit():
    # nearly transparent tap: fidelity unharmed by detector loss, success
    # probability collapsing
    res = optimal_y("even", 10, 2.5)
    cfg = HubConfig.from_target_y(res.y_star, (0.9999,))
    exact = lossy_fidelity_exact(cfg, 10, 0.95, 2.5)
    assert exact >= res.fidelity * (1.0 - 1e-3)
    assert lossy_prob(cfg, 5, "even", 0.95).log10() < -30.0


def test_tradeoff_identity_and_k_invariance():
    res = optimal_y("even", 20, 3.0)
    eta = 0.98
    cfg1 = HubConfig.from_target_y(res.y_star, (0.9,))
    trade1 = tradeoff_product(cfg1, Outcome((20,)), eta, 3.0)
    rel = (trade1.from_multipliers / trade1.closed_form).to_float() - 1.0
    assert abs(rel) <= 1e-12

    # same squared-transmittance product through two taps
    cfg2 = HubConfig.from_target_y(res.y_star, (math.sqrt(0.9), math.sqrt(0.9)))
    trade2 = tradeoff_product(cfg2, Outcome((10, 10)), eta, 3.0)
    assert trade2.penalty == pytest.approx(trade1.penalty, rel=1e-12)

    lossless = tradeoff_product(cfg1, Outcome((20,)), 1.0, 3.0)
    assert lossless.penalty == 0.0
    assert lossless.closed_form.is_zero()


def test_lossy_fidelity_exact_needs_reachable_count():
    # nothing reflects off a transparent splitter, so a nonzero count has
    # no probability to condition on
    cfg = HubConfig(0.8, (1.0,))
    with pytest.raises(DomainError):
        lossy_fidelity_exact(cfg, 4, 0.9, 2.0)
    assert lossy_prob(cfg, 2, "even", 0.9).is_zero()


def _counting_joint(monkeypatch) -> list:
    """Record the counts of every joint_success_prob call made by detector."""
    calls = []
    real = detector.joint_success_prob

    def counted(cfg, outcome):
        calls.append(outcome.counts)
        return real(cfg, outcome)

    monkeypatch.setattr(detector, "joint_success_prob", counted)
    return calls


def test_loss_walk_stops_at_first_zero_on_transparent_tap(monkeypatch):
    # at t = 1 every count above zero has no probability, so the walk needs
    # one joint-probability call, not one per branch up to the cap
    calls = _counting_joint(monkeypatch)
    cfg = HubConfig(0.8, (1.0,))
    with pytest.raises(DomainError, match="carries no probability"):
        lossy_fidelity_exact(cfg, 45, 0.98, 2.0)
    assert calls == [(45,)]
    calls.clear()
    # count 0 is certain and count 1 already has no probability, so the
    # mixture is the lossless vacuum-heralded state
    lossy = lossy_fidelity_exact(cfg, 0, 0.98, 2.0)
    assert calls == [(0,), (1,)]
    assert lossy == lossy_fidelity_exact(cfg, 0, 1.0, 2.0)


def test_loss_walk_raises_at_its_cap():
    # at eta = 0.001 the branch masses peak near j = 1500 and are still
    # close to that peak at the cap of 2000 branches
    with pytest.raises(TruncationError, match="hit its cap of 2000 at j = 2002"):
        lossy_fidelity_exact(HubConfig(8.0, (0.9,)), 2, 0.001, 1.0)


def _walked_prob(cfg, reported, eta):
    _, log_masses = detector._loss_branches(detector._equivalent_tap(cfg, 1.0), reported, eta)
    return logreal_sum_logs(log_masses)


def test_lossy_prob_matches_loss_walk():
    # the equivalent tap t_eff^2 = T + (1 - eta)(1 - T) against the sum over
    # true counts of retention weight times ideal probability
    rng = random.Random(20221216)
    for _ in range(24):
        taps = tuple(rng.uniform(0.75, 0.99) for _ in range(rng.randint(1, 3)))
        cfg = HubConfig(math.atanh(2.0 * rng.uniform(0.05, 0.48)), taps)  # y0 = tanh(s)/2
        reported = rng.randrange(120)
        eta = rng.uniform(0.5, 1.0)
        got = lossy_prob(cfg, reported // 2, "odd" if reported % 2 else "even", eta)
        assert got.log_mag == pytest.approx(_walked_prob(cfg, reported, eta).log_mag, abs=1e-11)


def test_lossy_prob_needs_no_branch_cap(monkeypatch):
    # at eta = 0.005 the walk needs about 3,000 branches, past its cap
    cfg = HubConfig(3.5, (0.9,))
    with pytest.raises(TruncationError):
        _walked_prob(cfg, 2, 0.005)
    monkeypatch.setattr(detector, "_BRANCH_CAP", 20_000)
    walked = _walked_prob(cfg, 2, 0.005)
    assert lossy_prob(cfg, 1, "even", 0.005).log_mag == pytest.approx(walked.log_mag, abs=1e-11)


def test_lossy_prob_is_one_joint_call(monkeypatch):
    calls = _counting_joint(monkeypatch)
    cfg = HubConfig(0.9, (0.9, 0.95))
    for eta in (0.01, 0.5, 0.98, 1.0):
        calls.clear()
        lossy_prob(cfg, 7, "odd", eta)
        assert calls == [(15,)]


def test_equivalent_tap_is_the_chain_product_when_lossless():
    # sqrt(t * t) == t, so the lossless equivalent tap is exactly prod t_i
    rng = random.Random(7)
    for _ in range(200):
        taps = tuple(rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 3)))
        cfg = HubConfig(0.7, taps)
        assert detector._equivalent_tap(cfg, 1.0).transmittances == (math.prod(taps),)


def test_fractional_counts_are_domain_errors():
    cfg = HubConfig(0.8, (0.9,))
    with pytest.raises(DomainError, match="must be an integer"):
        lossy_prob(cfg, 1.5, "even", 0.9)
    with pytest.raises(DomainError, match="must be an integer"):
        lossy_fidelity_exact(cfg, 2.5, 0.9, 1.0)
    with pytest.raises(DomainError, match="must be an integer"):
        povm_element(1.5, 0.9, cutoff=5)
    # numpy integers pass
    assert lossy_prob(cfg, np.int64(1), "even", 0.9) == lossy_prob(cfg, 1, "even", 0.9)


def test_non_finite_reduction_factor_is_domain_error():
    # (1 - T)/T overflows at T = 1e-320, and times <n> = 0 it is nan
    with pytest.raises(DomainError):
        reduction_factor(1e-320, 35.0)
    cfg = HubConfig(0.5, (1e-160,))
    with pytest.raises(DomainError):
        lossy_prob_firstorder(cfg, 2, "even", 0.9)
    with pytest.raises(DomainError):
        tradeoff_product(cfg, Outcome((4,)), 0.9, 2.0)


def test_eta_validation():
    cfg = HubConfig(0.8, (0.9,))
    with pytest.raises(DomainError):
        lossy_prob(cfg, 2, "even", 0.0)
    with pytest.raises(DomainError):
        lossy_prob(cfg, 2, "even", 1.1)
