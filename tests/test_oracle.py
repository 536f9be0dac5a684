import functools
import math

import numpy as np
import pytest

from cathub import oracle
from cathub.cats import cat_state, optimal_y
from cathub.detector import lossy_fidelity_exact, lossy_prob
from cathub.errors import DomainError, TruncationError
from cathub.fock import parity_of
from cathub.hub import HubConfig, Outcome, heralded_amps
from cathub.logreal import logreal_sum_logs
from cathub.oracle import (
    TwoModeState,
    apply_splitter,
    bs_matrix_element,
    equivalence_grid,
    lossy_fidelity_mixture,
    simulate_hub,
    simulate_lossy,
)
from cathub.oracle import _compositions, _project_splitter, _smsv_true_basis
from cathub.probabilities import joint_success_prob, success_prob_single


def test_single_photon_amplitudes():
    t = 0.8
    r = math.sqrt(1.0 - t * t)
    assert bs_matrix_element(t, 1, 0, 1, 0) == pytest.approx(t)
    assert bs_matrix_element(t, 1, 0, 0, 1) == pytest.approx(-r)
    assert bs_matrix_element(t, 0, 1, 1, 0) == pytest.approx(r)
    assert bs_matrix_element(t, 0, 1, 0, 1) == pytest.approx(t)


def test_photon_conservation_and_identity():
    assert bs_matrix_element(0.8, 2, 1, 1, 1) == 0.0
    assert bs_matrix_element(1.0, 3, 2, 3, 2) == 1.0
    assert bs_matrix_element(1.0, 3, 2, 2, 3) == 0.0


def test_hong_ou_mandel_dip():
    # two photons meeting on a balanced splitter never split one each way
    t = math.sqrt(0.5)
    assert bs_matrix_element(t, 1, 1, 1, 1) == pytest.approx(0.0, abs=1e-14)
    assert abs(bs_matrix_element(t, 1, 1, 2, 0)) == pytest.approx(
        math.sqrt(0.5), rel=1e-12
    )


@pytest.mark.parametrize("t", [0.7, 0.9, 1.0])
def test_unitarity_per_total_photon_block(t):
    for total in range(0, 13):
        u = np.array(
            [
                [
                    bs_matrix_element(t, n0, total - n0, m0, total - m0)
                    for n0 in range(total + 1)
                ]
                for m0 in range(total + 1)
            ]
        )
        assert np.max(np.abs(u.T @ u - np.eye(total + 1))) < 1e-12


def test_transmittance_validation():
    with pytest.raises(DomainError):
        bs_matrix_element(0.0, 1, 0, 1, 0)
    with pytest.raises(DomainError):
        bs_matrix_element(1.1, 1, 0, 1, 0)


def test_full_two_mode_action_matches_projection_shortcut():
    s, t = 0.7, 0.85
    span = 16
    signal = _smsv_true_basis(s, span)
    grid = np.zeros((span + 1, span + 1))
    grid[:, 0] = signal
    moved = apply_splitter(TwoModeState(grid), t)
    for n_tap in (0, 1, 2, 3):
        shortcut = _project_splitter(signal, t, n_tap)
        column = moved.amps[: len(shortcut), n_tap]
        assert np.allclose(column, shortcut, rtol=0, atol=1e-14)


def test_two_mode_state_norm_preserved_by_splitter():
    grid = np.zeros((12, 12))
    grid[:, 0] = _smsv_true_basis(0.5, 11)
    before = TwoModeState(grid)
    after = apply_splitter(before, 0.8)
    assert after.norm_sq() == pytest.approx(before.norm_sq(), rel=1e-12)
    assert after.signal_span == 11 and after.ancilla_span == 11


def test_single_splitter_probabilities_match_analytic():
    cfg = HubConfig(0.8, (0.9,))
    for n in range(5):
        parity = "even" if n % 2 == 0 else "odd"
        _, prob = simulate_hub(cfg, Outcome((n,)), cutoff=40)
        want = success_prob_single(n // 2, parity, 0.9, 0.8)
        assert (prob / want).to_float() == pytest.approx(1.0, rel=1e-10)


def test_three_splitter_state_matches_analytic():
    cfg = HubConfig(1.0, (0.7, 0.8, 0.9))
    state, prob = simulate_hub(cfg, Outcome((1, 2, 1)), cutoff=40)
    ref = heralded_amps("even", 2, cfg.y_out, state.cutoff)
    ref /= math.sqrt(float(np.dot(ref, ref)))
    overlap = float(np.dot(state.amps, ref))
    assert abs(1.0 - overlap * overlap) <= 1e-9
    want = joint_success_prob(cfg, Outcome((1, 2, 1)))
    assert (prob / want).to_float() == pytest.approx(1.0, rel=1e-9)


def test_state_depends_only_on_total():
    cfg = HubConfig(0.9, (0.85, 0.9))
    states = {}
    for counts in ((4, 0), (2, 2), (0, 4), (1, 3)):
        state, _ = simulate_hub(cfg, Outcome(counts), cutoff=30)
        states[counts] = state.amps
    base = states[(4, 0)]
    for counts, amps in states.items():
        assert np.allclose(amps, base, rtol=0, atol=1e-12)


def test_simulate_validates_shape():
    cfg = HubConfig(0.8, (0.9,))
    with pytest.raises(DomainError):
        simulate_hub(cfg, Outcome((1, 1)), cutoff=20)
    with pytest.raises(DomainError):
        simulate_hub(cfg, Outcome((0,)), cutoff=-1)


def test_probability_conservation_single_tap():
    cfg = HubConfig(0.8, (0.9,))
    total = 0.0
    for n in range(40):
        _, prob = simulate_hub(cfg, Outcome((n,)), cutoff=50)
        total += prob.to_float()
    assert total == pytest.approx(1.0, abs=1e-8)


def test_lossy_branches_sum_to_total():
    cfg = HubConfig(0.8, (0.9, 0.95))
    branches, total = simulate_lossy(cfg, Outcome((1, 1)), 0.95, cutoff=30)
    assert sum(w for w, _ in branches) == pytest.approx(total.to_float(), rel=1e-12)
    assert all(w >= 0.0 for w, _ in branches)


# (taps, reported total, eta, cutoff) for chains of lossy detectors; the
# analytic route reduces each chain to its one-tap equivalent
_LOSSY_CHAINS = [
    ((0.9, 0.9), 2, 0.95, 30),
    ((0.8, 0.95), 3, 0.97, 30),
    ((0.7, 0.9, 0.85), 1, 0.98, 20),
]


@functools.cache
def _lossy_every_split(taps, total, eta, cutoff):
    """simulate_lossy at s = 0.8 for every split of `total` across the taps."""
    cfg = HubConfig(0.8, taps)
    return [
        simulate_lossy(cfg, Outcome(counts), eta, cutoff)
        for counts in _compositions(total, len(taps))
    ]


def test_lossy_total_matches_analytic():
    cfg = HubConfig(0.8, (0.9,))
    _, total = simulate_lossy(cfg, Outcome((2,)), 0.9, cutoff=40)
    want = lossy_prob(cfg, 1, "even", 0.9)
    assert (total / want).to_float() == pytest.approx(1.0, rel=1e-10)
    # on a chain, lossy_prob is the probability that the counts sum to the total
    for taps, n, eta, cutoff in _LOSSY_CHAINS:
        splits = _lossy_every_split(taps, n, eta, cutoff)
        got = logreal_sum_logs(np.array([total.log_mag for _, total in splits]))
        want = lossy_prob(HubConfig(0.8, taps), n // 2, parity_of(n), eta)
        assert (got / want).to_float() == pytest.approx(1.0, rel=1e-12)


def test_lossy_mixture_fidelity_matches_analytic():
    res = optimal_y("even", 2, 1.2)
    cfg = HubConfig.from_target_y(res.y_star, (0.9,))
    branches, _ = simulate_lossy(cfg, Outcome((2,)), 0.9, cutoff=40)
    target = cat_state(1.2, "even")
    got = lossy_fidelity_mixture(branches, target)
    want = lossy_fidelity_exact(cfg, 2, 0.9, 1.2)
    assert got == pytest.approx(want, rel=1e-12)
    # on a chain, every split of the reported total gives the same fidelity
    for taps, n, eta, cutoff in _LOSSY_CHAINS:
        target = cat_state(1.2, parity_of(n))
        want = lossy_fidelity_exact(HubConfig(0.8, taps), n, eta, 1.2)
        for branches, _ in _lossy_every_split(taps, n, eta, cutoff):
            assert lossy_fidelity_mixture(branches, target) == pytest.approx(want, rel=1e-12)


def test_lossy_walk_raises_at_its_cap(monkeypatch):
    # no natural case reaches the 400-level cap; a lower cap stands in
    monkeypatch.setattr(oracle, "_LOSSY_LEVEL_CAP", 3)
    with pytest.raises(TruncationError, match="level 3"):
        simulate_lossy(HubConfig(0.8, (0.9,)), Outcome((2,)), 0.5, cutoff=20)


def test_lossy_walk_stops_at_once_on_transparent_tap():
    # nothing reflects at t = 1, so no true count carries probability
    branches, total = simulate_lossy(HubConfig(0.8, (1.0,)), Outcome((2,)), 0.9)
    assert branches == [] and total.is_zero()


def test_lossless_detector_keeps_single_branch():
    cfg = HubConfig(0.8, (0.9,))
    branches, total = simulate_lossy(cfg, Outcome((2,)), 1.0, cutoff=40)
    assert len(branches) == 1
    want = joint_success_prob(cfg, Outcome((2,)))
    assert (total / want).to_float() == pytest.approx(1.0, rel=1e-12)


def test_equivalence_grid_small():
    report = equivalence_grid(
        k_max=2, total_max=3, transmittances=(0.8,), squeezings=(0.8,), cutoff=40
    )
    assert report.cases == (4 + 10)
    assert report.passed(1e-9)
    assert report.worst_fidelity_deficit <= 1e-11
    assert report.worst_prob_rel_error <= 1e-11
