import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from cathub.errors import DomainError
from cathub.fock import genfunc_derivative
from cathub.hub import HubConfig, Outcome
from cathub.probabilities import (
    conditional_prob,
    demux_ratio,
    joint_success_prob,
    multinomial_factor,
)


def _single(n: int, t: float, s: float):
    return joint_success_prob(HubConfig(s, (t,)), Outcome((n,)))


def _single_tap_brute(n: int, t: float, s: float, span: int = 260) -> float:
    """Independent route: send each squeezed-vacuum Fock component through a
    binomial photon splitter and collect the intensity on the tap count n."""
    y0 = math.tanh(s) / 2.0
    r_sq = 1.0 - t * t
    total = 0.0
    for pairs in range(span // 2):
        q = 2 * pairs
        if q < n:
            continue
        log_amp_sq = (
            2.0 * pairs * math.log(y0)
            + gammaln(q + 1)
            - 2.0 * gammaln(pairs + 1)
            - math.log(math.cosh(s))
        )
        log_split = (
            gammaln(q + 1)
            - gammaln(n + 1)
            - gammaln(q - n + 1)
            + n * math.log(r_sq)
            + (q - n) * math.log(t * t)
        )
        total += math.exp(log_amp_sq + log_split)
    return total


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_single_tap_matches_brute_force(n):
    t, s = 0.9, 0.8
    got = _single(n, t, s).to_float()
    assert got == pytest.approx(_single_tap_brute(n, t, s), rel=1e-10)


def test_single_tap_transparent_splitter():
    assert _single(0, 1.0, 0.5).to_float() == pytest.approx(1.0)
    assert _single(2, 1.0, 0.5).is_zero()
    assert _single(1, 1.0, 0.5).is_zero()


def test_single_tap_decays_in_count():
    t, s = 0.9, 0.6
    previous = _single(0, t, s)
    for m in range(1, 6):
        current = _single(2 * m, t, s)
        assert (current / previous).to_float() < 1.0
        previous = current


def test_joint_validates_shape():
    cfg = HubConfig(0.8, (0.9, 0.9))
    with pytest.raises(DomainError):
        joint_success_prob(cfg, Outcome((1,)))


def test_joint_transparent_tap_kills_nonzero_counts():
    cfg = HubConfig(0.8, (1.0, 0.9))
    assert joint_success_prob(cfg, Outcome((1, 2))).is_zero()
    assert joint_success_prob(cfg, Outcome((0, 2))).to_float() > 0.0


def test_two_tap_closed_form():
    # for two identical taps and even counts the joint probability collapses
    # to sqrt(1-4 y0^2) eps^N t^(-2 n1) y2^N / (n1! n2!) * Z_N(y2)
    t, s = 0.9, 0.9
    cfg = HubConfig(s, (t, t))
    y2 = cfg.y_out
    y0 = cfg.y0
    eps = (1.0 - t * t) / (t * t)
    for n1, n2 in ((0, 0), (2, 4), (0, 6), (4, 4), (10, 10)):
        big_n = n1 + n2
        closed = (
            math.sqrt(1.0 - 4.0 * y0 * y0)
            * eps**big_n
            * (t * t) ** (-n1)
            * math.exp(
                big_n * math.log(y2)
                - gammaln(n1 + 1)
                - gammaln(n2 + 1)
                + genfunc_derivative(big_n, y2).log_mag
            )
        )
        got = joint_success_prob(cfg, Outcome((n1, n2))).to_float()
        assert got == pytest.approx(closed, rel=1e-12)
    # the vacuum record: g(y2) = (1 - 4 y2^2)^(-1/2) over the source's cosh s
    vacuum = joint_success_prob(cfg, Outcome((0, 0))).to_float()
    assert vacuum == pytest.approx((1.0 - 4.0 * y2 * y2) ** -0.5 / math.cosh(s), rel=1e-12)


def test_conditional_normalisation():
    cfg = HubConfig(1.0, (0.8, 0.9, 0.85))
    total = sum(conditional_prob(cfg, 1, n) for n in range(80))
    assert total >= 1.0 - 1e-8
    total = sum(conditional_prob(cfg, 3, n, prior=(2, 1)) for n in range(80))
    assert total >= 1.0 - 1e-8


def test_conditional_chain_reproduces_joint():
    cfg = HubConfig(0.9, (0.8, 0.95, 0.9))
    for counts in ((1, 0, 2), (3, 2, 1), (0, 0, 4)):
        chain = 1.0
        for i, n in enumerate(counts, start=1):
            chain *= conditional_prob(cfg, i, n, prior=counts[: i - 1])
        joint = joint_success_prob(cfg, Outcome(counts)).to_float()
        assert chain == pytest.approx(joint, rel=1e-12)


def test_conditional_validates_arguments():
    cfg = HubConfig(0.9, (0.8, 0.9))
    with pytest.raises(DomainError):
        conditional_prob(cfg, 0, 1)
    with pytest.raises(DomainError):
        conditional_prob(cfg, 3, 1, prior=(1, 1))
    with pytest.raises(DomainError):
        conditional_prob(cfg, 2, 1, prior=())
    with pytest.raises(DomainError):
        conditional_prob(cfg, 1, -1)
    for count, prior in ((1.5, ()), (1, (0.5,))):
        with pytest.raises(DomainError, match="must be an integer"):
            conditional_prob(cfg, len(prior) + 1, count, prior)
    # no photon reflects off a transparent tap, so the prior (3,) cannot happen
    with pytest.raises(DomainError, match="probability zero"):
        conditional_prob(HubConfig(0.8, (1.0, 0.9)), 2, 1, (3,))


def _mp_log_joint(s: float, taps, counts, dps: int = 50) -> float:
    """ln P(counts) from the chain law's defining sum, at dps digits.

    Each of the source's 2q photons leaves at tap i with probability
    p_i = (1 - t_i^2) prod_(j<i) t_j^2 or stays with T = prod t_j^2, and the
    source emits 2q photons with probability C(2q, q) (tanh s / 2)^(2q) / cosh s,
    so P = sum_q P(2q) multinomial(2q; counts, r) prod p_i^(n_i) T^r with
    r = 2q - N.  The ratio of the q + 1 term to the q term is
    2(2q+1)/(q+1) y0^2 (2q+2)(2q+1)/((r+2)(r+1)) T^2, below
    rho = 4 y0^2 T^2 (2q+2)(2q+1)/((r+2)(r+1)), which only falls as q grows;
    so once rho < 1 the rest of the sum is at most term * rho / (1 - rho).
    """
    with mpmath.workdps(dps):
        y0 = mpmath.tanh(mpmath.mpf(s)) / 2
        stay = mpmath.mpf(1)
        record = mpmath.mpf(1)
        for t, n in zip(taps, counts):
            t_sq = mpmath.mpf(t) ** 2  # exact: the binary float itself
            record *= ((1 - t_sq) * stay) ** n
            stay *= t_sq
        big_n = sum(counts)
        ways = math.prod(math.factorial(n) for n in counts)
        total = mpmath.mpf(0)
        q = (big_n + 1) // 2
        while True:
            r = 2 * q - big_n
            multinomial = math.factorial(2 * q) // (ways * math.factorial(r))
            term = math.comb(2 * q, q) * y0 ** (2 * q) * multinomial * record * stay**r
            total += term
            rho = 4 * y0**2 * stay**2 * mpmath.mpf((2 * q + 2) * (2 * q + 1)) / ((r + 2) * (r + 1))
            if rho < 1 and term * rho / (1 - rho) < total * mpmath.mpf(10) ** (-dps):
                break
            q += 1
        return float(mpmath.log(total) - mpmath.log(mpmath.cosh(mpmath.mpf(s))))


@pytest.mark.parametrize(
    "s, taps, counts",
    [
        (0.8, (0.9,), (0,)),
        (0.8, (0.9,), (7,)),
        (1.4, (0.95,), (60,)),
        (1.1, (0.8, 0.95), (3, 5)),
        (1.6, (0.93, 0.97), (30, 30)),
        (0.9, (0.9, 0.7, 0.95), (0, 0, 0)),
        (1.2, (0.9, 0.7, 0.95), (2, 1, 4)),
        (1.7, (0.97, 0.92, 0.99), (20, 25, 15)),
    ],
)
def test_joint_matches_mpmath_chain_law(s, taps, counts):
    got = joint_success_prob(HubConfig(s, taps), Outcome(counts)).log_mag
    assert abs(got - _mp_log_joint(s, taps, counts)) <= 1e-11


def test_conditional_transparent_first_tap():
    cfg = HubConfig(0.9, (1.0, 0.9))
    assert conditional_prob(cfg, 1, 0) == pytest.approx(1.0)
    assert conditional_prob(cfg, 1, 3) == 0.0


def test_demux_examples():
    assert demux_ratio(Outcome((4,)), 0.9).to_float() == pytest.approx(1.0)
    got = demux_ratio(Outcome((1, 1)), 0.9).to_float()
    assert got == pytest.approx(2.0 / 0.81, rel=1e-12)
    # multinomial factor alone at t = 1
    assert demux_ratio(Outcome((10, 10)), 1.0).to_float() == pytest.approx(
        184756.0, rel=1e-12
    )
    with_t = demux_ratio(Outcome((10, 10)), 0.8).to_float()
    assert with_t == pytest.approx(184756.0 * 0.8 ** (-20), rel=1e-12)
    for t in (0.0, 1.5):
        with pytest.raises(DomainError):
            demux_ratio(Outcome((1, 1)), t)


def test_multinomial_factor_exact_integers():
    assert multinomial_factor(Outcome((10, 10))) == 184756
    assert multinomial_factor(Outcome((0, 0, 7))) == 1
    assert multinomial_factor(Outcome((2, 3, 5))) == 2520
    assert multinomial_factor(Outcome((1, 1))) == 2
    # large case stays exact where floats would round
    big = multinomial_factor(Outcome((30, 30)))
    assert big == math.factorial(60) // (math.factorial(30) ** 2)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    t=st.floats(min_value=0.55, max_value=0.99),
)
def test_demux_matches_joint_ratio_within_one_config(counts, t):
    # moving every detected photon to the last tap is the reference event;
    # the closed-form gain is exactly the joint-probability ratio
    counts = tuple(counts)
    total = sum(counts)
    cfg = HubConfig(0.7, (t,) * len(counts))
    reference = [0] * (len(counts) - 1) + [total]
    p_split = joint_success_prob(cfg, Outcome(counts))
    p_ref = joint_success_prob(cfg, Outcome(tuple(reference)))
    got = (p_split / p_ref).to_float()
    assert got == pytest.approx(demux_ratio(Outcome(counts), t).to_float(), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=3),
    t=st.floats(min_value=0.5, max_value=1.0),
)
def test_demux_gain_at_least_one(counts, t):
    ratio = demux_ratio(Outcome(tuple(counts)), t).to_float()
    assert ratio >= 1.0 - 1e-12
    if sum(counts[:-1]) > 0 and t < 1.0:
        assert ratio > 1.0


def test_outcome_sum_reaches_unity():
    # all detection records up to a cap account for almost all probability
    cfg = HubConfig(0.8, (0.85, 0.9))
    cap = 40
    total = 0.0
    for n1 in range(cap + 1):
        for n2 in range(cap + 1 - n1):
            total += joint_success_prob(cfg, Outcome((n1, n2))).to_float()
    assert total >= 1.0 - 1e-8
    assert total <= 1.0 + 1e-12
