import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathub import detector
from cathub.cats import mean_photon, optimal_y
from cathub.detector import (
    lossy_fidelity_exact,
    lossy_fidelity_firstorder,
    lossy_prob,
    lossy_prob_firstorder,
    reduction_factor,
    tradeoff_product,
)
from cathub.errors import DomainError, TruncationError
from cathub.hub import HubConfig, Outcome
from cathub.logreal import logreal_sum_logs
from cathub.oracle import simulate_lossy
from cathub.probabilities import joint_success_prob


def _povm_weights(m: int, eta: float, cutoff: int) -> np.ndarray:
    """P(report m | true count j) for j = 0..cutoff, from the one statement of the loss law."""
    w = np.zeros(cutoff + 1)
    w[m:] = np.exp(detector._branch_weight_log(m, np.arange(m, cutoff + 1), eta))
    return w


def test_povm_weight_example():
    w = _povm_weights(2, 0.98, cutoff=10)
    assert w[4] == pytest.approx(6.0 * 0.98**2 * 0.02**2, rel=1e-12)
    assert w[4] == pytest.approx(0.00230496, rel=1e-9)
    assert w[1] == 0.0
    assert w[2] == pytest.approx(0.98**2, rel=1e-12)


def test_povm_lossless_is_projector():
    assert list(_povm_weights(3, 1.0, cutoff=8)) == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@settings(max_examples=50, deadline=None)
@given(
    j=st.integers(min_value=0, max_value=40),
    eta=st.floats(min_value=0.05, max_value=1.0),
)
def test_povm_completeness(j, eta):
    # a true count j is reported as some m in 0..j
    total = float(np.exp(detector._branch_weight_log(np.arange(j + 1), j, eta)).sum())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_povm_validation():
    # every entry point of the loss law gates the reported count and the efficiency
    cfg = HubConfig(0.8, (0.9,))
    entries = (
        lambda m, eta: lossy_prob(cfg, m, "even", eta),
        lambda m, eta: lossy_fidelity_exact(cfg, m, eta, 1.0),
        lambda m, eta: simulate_lossy(cfg, Outcome((m,)), eta, 10),
    )
    for call in entries:
        for m, eta in ((-1, 0.9), (1.5, 0.9), (2, 0.0), (2, 1.1)):
            with pytest.raises(DomainError):
                call(m, eta)


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


def test_prob_firstorder_carries_eta_power_as_a_log():
    # 0.01^600 underflows as a float, not as a log
    cfg = HubConfig(0.5, (0.9,))
    got = lossy_prob_firstorder(cfg, 300, "even", 0.01)
    ideal = joint_success_prob(cfg, Outcome((600,)))
    gain = 1.0 + 0.99 * reduction_factor(0.81, mean_photon("even", 600, cfg.y_out))
    assert not got.is_zero()
    assert got.log_mag == pytest.approx(ideal.log_mag + 600 * math.log(0.01) + math.log(gain), rel=1e-12)


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


def _mp_lossy_fidelity(s: float, t: float, n: int, eta: float, beta: float, tol: int = 16) -> float:
    """Lossy fidelity on one tap from the source's Fock amplitudes, in mpmath.

    The source has |c_q|^2 = C(q, q/2) y0^q / cosh s on even q, with the
    positive amplitudes of hub.py's convention.  Tapping true count j leaves
    phi_j = sum_q c_q sqrt(C(q, j)) t^(q-j) r^j |q - j>, unnormalised, and a
    detector of efficiency eta reports n from it with B_j = C(j, n) eta^n
    (1-eta)^(j-n).  So F = sum_j B_j <cat|phi_j>^2 / sum_j B_j |phi_j|^2,
    with the cat built from its definition, (|beta> +- |-beta>) normalised.

    Both windows stop on an explicit tail bound, at 10^-tol of the sum so far:
    - in q for one j, the q + 2 term over the q term is
      4 (q+1)/(q+2) y0^2 (q+2)(q+1)/((q+2-j)(q+1-j)) t^4, below
      rho = 4 y0^2 t^4 (q+2)(q+1)/((q+2-j)(q+1-j)), which only falls as q
      grows, so the rest is at most term * rho / (1 - rho); by
      Cauchy-Schwarz it bounds the overlap's tail as well;
    - in j, every later branch takes its photons from some q > j, and
      summed over j <= q the branches of q carry
      |c_q|^2 C(q, n) (eta r^2)^n (1 - eta r^2)^(q-n), a series in q with
      the same kind of ratio bound.
    """
    with mpmath.workdps(tol + 10):
        eps = mpmath.mpf(10) ** -tol
        y0 = mpmath.tanh(mpmath.mpf(s)) / 2
        cosh_s = mpmath.cosh(mpmath.mpf(s))
        t_sq = mpmath.mpf(t) ** 2  # exact: the binary float itself
        r_sq = 1 - t_sq
        eta = mpmath.mpf(eta)
        b_sq = mpmath.mpf(beta) ** 2
        sign = 1 if n % 2 == 0 else -1
        cat0 = 2 * mpmath.exp(-b_sq / 2) / mpmath.sqrt(2 * (1 + sign * mpmath.exp(-2 * b_sq)))

        def source_sq(q):
            return math.comb(q, q // 2) * y0**q / cosh_s

        def rho(q, j, keep_sq):
            return 4 * y0**2 * keep_sq**2 * mpmath.mpf((q + 2) * (q + 1)) / ((q + 2 - j) * (q + 1 - j))

        num = den = mpmath.mpf(0)
        j = n
        while True:
            q = j + j % 2
            a_sq = source_sq(q) * math.comb(q, j) * t_sq ** (q - j) * r_sq**j
            norm_sq = a_sq
            # only true counts of the cat's parity overlap it; x = cat_m a_m
            same = j % 2 == n % 2
            x = cat0 * mpmath.sqrt(b_sq ** (q - j) / math.factorial(q - j) * a_sq) if same else 0
            overlap = x
            while not ((bound := rho(q, j, t_sq)) < 1 and a_sq * bound / (1 - bound) < norm_sq * eps):
                step = mpmath.mpf((q + 2) * (q + 1)) ** 2 / ((q // 2 + 1) ** 2 * (q + 2 - j) * (q + 1 - j)) * y0**2 * t_sq**2
                a_sq *= step
                norm_sq += a_sq
                if same:
                    m = q - j
                    x *= mpmath.sqrt(step * b_sq**2 / ((m + 1) * (m + 2)))
                    overlap += x
                q += 2
            weight = math.comb(j, n) * eta**n * (1 - eta) ** (j - n)
            num += weight * overlap**2
            den += weight * norm_sq
            q = j + 1 + (j + 1) % 2
            keep = 1 - eta * r_sq
            tail = source_sq(q) * math.comb(q, n) * (eta * r_sq) ** n * keep ** (q - n)
            bound = rho(q, n, keep)
            if bound < 1 and tail / (1 - bound) < den * eps:
                return float(num / den)
            j += 1


@pytest.mark.parametrize(
    "s, t, n, eta, beta",
    [
        # squeezings put the tap's y near the lossless optimum of (n, beta)
        (0.68, 0.9, 2, 0.9, 1.5),
        (0.60, 0.8, 7, 0.6, 2.0),
        (0.53, 0.85, 11, 0.99, 2.5),
        (0.52, 0.8, 20, 0.99, 3.0),
        (0.96, 0.6, 33, 0.6, 3.5),
        (0.66, 0.7, 40, 0.6, 4.0),
    ],
)
def test_lossy_fidelity_matches_mpmath_branch_mixture(s, t, n, eta, beta):
    got = lossy_fidelity_exact(HubConfig(s, (t,)), n, eta, beta)
    assert got == pytest.approx(_mp_lossy_fidelity(s, t, n, eta, beta), rel=1e-10)


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
        lossy_prob_firstorder(cfg, 1.5, "even", 0.9)
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
