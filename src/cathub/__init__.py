"""Heralded photon-subtracted cat-state toolkit.

Squeezed light enters a chain of weakly reflecting taps, photon counters
watch the tapped modes, and conditioning on a total count steers the kept
mode toward an even or odd cat state.  The package computes the heralded
states, their overlap with ideal cats, heralding probabilities, detector
loss effects, and a brute-force cross-check of all of it.
"""

from .cats import OptResult, cat_state, fidelity, mean_photon, optimal_y
from .detector import (
    PovmElement,
    TradeoffProduct,
    lossy_fidelity_exact,
    lossy_fidelity_firstorder,
    lossy_prob,
    lossy_prob_firstorder,
    povm_element,
    reduction_factor,
    tradeoff_product,
)
from .errors import DomainError, TruncationError
from .fock import FockVector, genfunc_derivative, inner_product, parity_of
from .hub import (
    HubConfig,
    Outcome,
    chain_transmission,
    heralded_amps,
    heralded_state,
)
from .logreal import LogReal, logreal_sum, logreal_sum_logs
from .oracle import (
    EquivalenceReport,
    TwoModeState,
    apply_splitter,
    bs_matrix_element,
    equivalence_grid,
    lossy_fidelity_mixture,
    simulate_hub,
    simulate_lossy,
)
from .probabilities import (
    conditional_prob,
    demux_ratio,
    joint_success_prob,
    multinomial_factor,
    success_prob_single,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EquivalenceReport",
    "FockVector",
    "HubConfig",
    "LogReal",
    "OptResult",
    "Outcome",
    "PovmElement",
    "TradeoffProduct",
    "TruncationError",
    "TwoModeState",
    "apply_splitter",
    "bs_matrix_element",
    "cat_state",
    "chain_transmission",
    "conditional_prob",
    "demux_ratio",
    "equivalence_grid",
    "fidelity",
    "genfunc_derivative",
    "heralded_amps",
    "heralded_state",
    "inner_product",
    "joint_success_prob",
    "logreal_sum",
    "logreal_sum_logs",
    "lossy_fidelity_exact",
    "lossy_fidelity_firstorder",
    "lossy_fidelity_mixture",
    "lossy_prob",
    "lossy_prob_firstorder",
    "mean_photon",
    "multinomial_factor",
    "optimal_y",
    "parity_of",
    "povm_element",
    "reduction_factor",
    "simulate_hub",
    "simulate_lossy",
    "success_prob_single",
    "tradeoff_product",
]
