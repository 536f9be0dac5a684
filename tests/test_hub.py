import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cathub import logreal
from cathub.errors import DomainError
from cathub.fock import _TAIL_RATIO, FockVector, inner_product
from cathub.hub import (
    HubConfig,
    Outcome,
    _smsv_amps,
    chain_transmission,
    heralded_amps,
    heralded_state,
)

NORM_TOL = 1e-10


def test_hub_config_chain():
    cfg = HubConfig(0.8, (0.9, 0.95))
    assert cfg.k == 2
    assert cfg.y0 == pytest.approx(math.tanh(0.8) / 2.0)
    assert cfg.y_chain[0] == pytest.approx(0.81 * cfg.y0)
    assert cfg.y_out == pytest.approx(0.81 * 0.9025 * cfg.y0)


def test_hub_config_validation():
    with pytest.raises(DomainError):
        HubConfig(0.0, (0.9,))
    with pytest.raises(DomainError):
        HubConfig(0.5, (1.2,))
    with pytest.raises(DomainError):
        HubConfig(0.5, ())
    # tanh(s) rounds to 1, so y0 would sit on the singular point 1/2
    for s in (20.0, 1e308, math.inf, math.nan):
        with pytest.raises(DomainError):
            HubConfig(s, (0.9,))
    # T = t^2 underflows to 0, so y_k = T y0 would be 0; from_target_y
    # would divide by T
    with pytest.raises(DomainError):
        HubConfig(0.5, (1e-200,))
    for ts in ((1e-200,), (1e-160, 1e-160)):
        with pytest.raises(DomainError):
            HubConfig.from_target_y(0.3, ts)


def test_from_target_y_round_trip():
    cfg = HubConfig.from_target_y(0.15, (0.9, 0.9))
    assert cfg.y_out == pytest.approx(0.15, rel=1e-12)
    with pytest.raises(DomainError):
        HubConfig.from_target_y(0.4, (0.7, 0.7))  # needs tanh(s) > 1


def test_outcome_properties():
    out = Outcome((3, 1))
    assert out.total == 4
    assert out.parity == "even"
    assert out.pairs == 2
    assert out.k == 2
    assert Outcome((5,)).parity == "odd"
    assert Outcome((5,)).pairs == 2
    with pytest.raises(DomainError):
        Outcome((-1, 2))
    with pytest.raises(DomainError):
        Outcome(())


def test_counts_must_be_integers():
    # a fractional count is rejected, not truncated to its integer part
    for counts in ((1.7,), (2.9,), (2, 0.5)):
        with pytest.raises(DomainError, match="must be an integer"):
            Outcome(counts)
    with pytest.raises(DomainError, match="must be an integer"):
        heralded_state("even", 1.5, 0.3)
    # Python and numpy integers pass and are stored as int
    out = Outcome((np.int64(3), np.int32(1), 2))
    assert out.counts == (3, 1, 2) and all(type(n) is int for n in out.counts)
    assert heralded_state("even", np.int64(1), 0.3).norm() == pytest.approx(1.0, abs=NORM_TOL)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=30),
    y=st.floats(min_value=1e-4, max_value=0.44),
    parity=st.sampled_from(["even", "odd"]),
)
def test_heralded_norm_is_one(parity, m, y):
    state = heralded_state(parity, m, y)
    assert abs(state.norm() - 1.0) <= NORM_TOL


def test_heralded_norm_corner_cases():
    for parity, m, y in (
        ("odd", 45, 0.449),
        ("even", 45, 0.449),
        ("even", 5, 0.49),
        ("even", 0, 1e-8),
    ):
        state = heralded_state(parity, m, y)
        assert abs(state.norm() - 1.0) <= NORM_TOL


def test_zero_subtraction_reproduces_squeezed_vacuum():
    s = 0.7
    y0 = math.tanh(s) / 2.0
    zero = heralded_state("even", 0, y0)
    sv = FockVector("even", _smsv_amps(s, zero.cutoff))
    assert inner_product(sv, zero) == pytest.approx(1.0, abs=1e-12)


def test_heralded_amps_window_is_prefix_of_longer_window():
    short = heralded_amps("even", 4, 0.3, 10)
    longer = heralded_amps("even", 4, 0.3, 50)
    assert np.allclose(short, longer[:11], rtol=0, atol=1e-15)
    # analytic normalisation: window norm can only undershoot
    assert float(np.dot(short, short)) <= 1.0 + 1e-12


def test_amplitude_ratios_match_exact_factorials():
    # adjacent-amplitude ratios are normalisation-free, so they can be
    # checked against exact integer factorials
    m, y = 3, 0.2
    even = heralded_amps("even", m, y, 8)
    odd = heralded_amps("odd", m, y, 8)
    for n in range(8):
        want_even = (
            y
            * math.factorial(2 * (n + 1 + m))
            / math.factorial(2 * (n + m))
            * math.factorial(n + m)
            / math.factorial(n + 1 + m)
            * math.sqrt(math.factorial(2 * n) / math.factorial(2 * n + 2))
        )
        assert even[n + 1] / even[n] == pytest.approx(want_even, rel=1e-12)
        want_odd = (
            y
            * math.factorial(2 * (n + 1 + m) + 1)
            / math.factorial(2 * (n + m) + 1)
            * math.factorial(n + m)
            / math.factorial(n + 1 + m)
            * math.sqrt(math.factorial(2 * n + 1) / math.factorial(2 * n + 3))
        )
        assert odd[n + 1] / odd[n] == pytest.approx(want_odd, rel=1e-12)


def test_herald_amplitude_vacuum_outcome():
    # the vacuum herald amplitude is (1-4 y_out^2)^(-1/4); its square over
    # cosh s is the probability that no tap clicks
    from cathub.probabilities import joint_success_prob

    cfg = HubConfig(0.8, (0.9, 0.9))
    prob = joint_success_prob(cfg, Outcome((0, 0))).to_float()
    want = (1.0 - 4.0 * cfg.y_out**2) ** -0.5 / math.cosh(cfg.squeezing)
    assert prob == pytest.approx(want, rel=1e-12)


def test_transparent_chain_keeps_source_parameter():
    cfg = HubConfig(0.8, (1.0, 1.0))
    assert cfg.y_out == pytest.approx(cfg.y0)


def test_chain_transmission_links_source_and_herald_point():
    ts = (0.9, 0.95, 0.8)
    assert chain_transmission(ts) == pytest.approx(0.81 * 0.9025 * 0.64, rel=1e-15)
    assert HubConfig(0.8, ts).y_out == pytest.approx(chain_transmission(ts) * math.tanh(0.8) / 2.0, rel=1e-14)
    cfg = HubConfig.from_target_y(0.2, ts)
    assert cfg.y_out == pytest.approx(0.2, rel=1e-14)
    with pytest.raises(DomainError):
        HubConfig.from_target_y(0.5 * chain_transmission(ts), ts)  # needs tanh(s) = 1


def test_heralded_state_rejects_bad_inputs():
    with pytest.raises(DomainError):
        heralded_state("even", -1, 0.2)
    with pytest.raises(DomainError):
        heralded_state("even", 2, 0.5)
    with pytest.raises(DomainError):
        heralded_state("sideways", 2, 0.2)
    with pytest.raises(DomainError):
        heralded_state("even", 2, 0.3, cutoff=-1)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_heralded_state_rejects_zero_herald_parameter(parity):
    # y = 0 has no photon-subtracted state to normalise; it is a domain
    # error like every other y outside (0, 0.5), not a bare math error
    with pytest.raises(DomainError):
        heralded_state(parity, 3, 0.0)
    with pytest.raises(DomainError):
        heralded_state(parity, 3, 0.0, cutoff=20)
    with pytest.raises(DomainError):
        heralded_amps(parity, 3, np.array([0.1, 0.0]), 20)


def _window_bound(parity, m, y):
    # the tail bound, written out: past n1 each amplitude ratio is <= sqrt(2y)
    off = 1 if parity == "odd" else 0
    q = math.sqrt(2.0 * y)
    n1 = max(0, math.ceil(((2 * m + off) * q / (1.0 - q) - off - 1) / 2.0))
    return n1 + math.ceil(math.log(_TAIL_RATIO) / math.log(2.0 * y))


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("m", [0, 5, 45])
@pytest.mark.parametrize("y", [1e-8, 0.3, 0.49, 0.4995, 0.4999])
def test_automatic_window_is_the_tail_bound(parity, m, y, monkeypatch):
    # windows reach 616,096 levels; start from the one-entry ln n! table and
    # keep the grown one out of later tests
    monkeypatch.setattr(logreal, "_LOG_FACTORIALS", np.zeros(1))
    state = heralded_state(parity, m, y)
    assert state.cutoff == _window_bound(parity, m, y)
    state.check_tail()


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("y", [0.4999999, math.nextafter(0.5, 0.0)])
def test_window_near_half_is_domain_error(parity, y):
    # 1.6e8 levels at the first y; at the second sqrt(2y) rounds to 1
    with pytest.raises(DomainError, match="window above"):
        heralded_state(parity, 0, y)


def test_heralded_amps_rows_follow_y_array():
    ys = np.array([0.05, 0.2, 0.33, 0.49])
    grid = heralded_amps("odd", 7, ys, 30)
    assert grid.shape == (4, 31)
    for row, y in zip(grid, ys):
        np.testing.assert_allclose(row, heralded_amps("odd", 7, y, 30), rtol=1e-14, atol=0.0)
