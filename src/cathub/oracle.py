"""Brute-force reference implementation over the explicit two-mode basis.

Everything here is deliberately independent of the analytic machinery: the
splitter acts through the matrix elements of its explicit unitary on
truncated photon-number amplitudes, ancillas are projected one at a time, and lossy detection enumerates true
counts against binomial retention weights.  Agreement with the closed-form
states and probabilities is the package's primary self-check.  It shares
only inputs with them: the squeezed-vacuum source and the binomial weight.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .detector import _branch_weight_log
from .errors import DomainError, TruncationError, _check_count, _check_unit
from .fock import FockVector, inner_product
from .hub import HubConfig, Outcome, _check_taps, _smsv_amps, heralded_amps
from .logreal import LogReal, logreal_sum_logs

_LOSSY_LEVEL_EPS = 1e-16
_LOSSY_LEVEL_CAP = 400


def bs_matrix_element(t: float, n_in0: int, n_in1: int, n_out0: int, n_out1: int) -> float:
    """<n_out0, n_out1|U|n_in0, n_in1> for the splitter map
    a0+ -> t a0+ - r a1+,  a1+ -> r a0+ + t a1+.

    Expands both transformed creation-operator powers binomially; photon
    number is conserved, so mismatched totals give 0.  The powers t^p r^q
    that every term of the alternating sum shares are one float factor.
    The float t and r are dyadic rationals, so the rest of the sum is one
    exact integer over a power of two, and the
    sqrt(n_out0! n_out1! / (n_in0! n_in1!)) prefactor joins it through an
    exact integer square root: only t^p r^q and the final scaling round.
    Raises DomainError unless every photon number is an integer >= 0.
    """
    _check_unit(t, "transmittance")
    n_in0, n_in1, n_out0, n_out1 = [_check_count(n, "photon number") for n in (n_in0, n_in1, n_out0, n_out1)]
    if n_in0 + n_in1 != n_out0 + n_out1:
        return 0.0
    r = math.sqrt(1.0 - t * t)
    a, den_t = t.as_integer_ratio()
    b, den_r = r.as_integer_ratio()
    den = max(den_t, den_r)  # both are powers of two
    t2, r2 = (a * (den // den_t)) ** 2, (b * (den // den_r)) ** 2  # t^2 and r^2 times den^2
    # in term i, i photons of mode 0 pass and n_out0 - i of mode 1 cross
    # over; beyond the shared t^p r^q it carries t^(2 (i - lo)) r^(2 (hi - i))
    lo, hi = max(0, n_out0 - n_in1), min(n_in0, n_out0)
    total = 0
    for i in range(lo, hi + 1):
        term = math.comb(n_in0, i) * math.comb(n_in1, n_out0 - i) * t2 ** (i - lo) * r2 ** (hi - i)
        total += -term if (n_in0 - i) % 2 else term
    least = t ** (2 * lo + n_in1 - n_out0) * r ** (n_in0 + n_out0 - 2 * hi)
    # root = |total| sqrt(n_out0! n_out1! / (n_in0! n_in1!)) 2^shift, a 64-bit integer
    num = total * total * math.factorial(n_out0) * math.factorial(n_out1)
    fact_in = math.factorial(n_in0) * math.factorial(n_in1)
    shift = 64 - (num.bit_length() - fact_in.bit_length()) // 2
    root = math.isqrt((num << max(2 * shift, 0)) // (fact_in << max(-2 * shift, 0)))
    value = math.ldexp(root * least, -shift - 2 * (den.bit_length() - 1) * (hi - lo))
    return -value if total < 0 else value


def _smsv_true_basis(s: float, span: int) -> np.ndarray:
    """SMSV amplitudes over true photon numbers 0..span."""
    amps = np.zeros(span + 1)
    amps[::2] = _smsv_amps(s, span // 2)
    return amps


def _project_splitter(signal: np.ndarray, t: float, n_tap: int) -> np.ndarray:
    """Send the signal through one splitter and keep the |n_tap> ancilla slice.

    The ancilla enters in vacuum, so each true input count q feeds exactly
    one retained output count q - n_tap.
    """
    span = len(signal) - 1
    out = np.zeros(max(span - n_tap, 0) + 1)
    for p in range(len(out)):
        q = p + n_tap
        out[p] = signal[q] * bs_matrix_element(t, q, 0, p, n_tap)
    return out


def simulate_hub(cfg: HubConfig, outcome: Outcome, cutoff: int = 40):
    """Run the cascade explicitly and herald the given outcome.

    cutoff counts stored amplitudes of the final parity-compressed state;
    the internal true-photon span is 2*cutoff + total + 1 so the result is
    comparable to heralded_state(..., cutoff) at matching resolution.
    Returns (FockVector, probability as LogReal).
    """
    _check_taps(cfg, outcome)
    span = 2 * _check_count(cutoff, "cutoff") + outcome.total + 1
    signal = _smsv_true_basis(cfg.squeezing, span)
    log_prob = 0.0
    for t_i, n_i in zip(cfg.transmittances, outcome.counts):
        signal = _project_splitter(signal, t_i, n_i)
        block = float(np.dot(signal, signal))
        if block <= 0.0:
            return None, LogReal.zero()
        # renormalize per stage so deep chains cannot underflow
        signal = signal / math.sqrt(block)
        log_prob += math.log(block)

    parity = outcome.parity
    offset = 0 if parity == "even" else 1
    compressed = signal[offset::2].copy()
    dropped = signal[1 - offset :: 2]
    residue = float(np.dot(dropped, dropped))
    if residue > 1e-20:
        raise DomainError(
            f"projected state leaks {residue:.3e} into the wrong parity sector"
        )
    norm = math.sqrt(float(np.dot(compressed, compressed)))
    compressed /= norm
    state = FockVector(parity, compressed)
    return state, LogReal(log_prob)


def simulate_lossy(cfg: HubConfig, reported: Outcome, eta: float, cutoff: int = 40):
    """Conditional branch ensemble for lossy detectors reporting `reported`.

    Enumerates true outcomes level by level (level = total photons lost),
    weighting each by its binomial retention probability times the ideal
    heralding probability from simulate_hub.  Returns (branches, total)
    where branches is a list of (weight, FockVector) and total is the lossy
    heralding probability as LogReal.  The walk stops once a level's mass
    falls below _LOSSY_LEVEL_EPS of the largest level, or at a level with
    no mass; raises TruncationError when _LOSSY_LEVEL_CAP levels pass
    without a stop.
    """
    _check_unit(eta, "detector efficiency")
    reported_counts = np.array(reported.counts)
    branches = []
    log_masses = []
    best_level = -math.inf
    for level in range(_LOSSY_LEVEL_CAP + 1):
        level_mass = 0.0
        for extra in _compositions(level, reported.k):
            true_counts = reported_counts + extra
            state, prob = simulate_hub(cfg, Outcome(tuple(true_counts)), cutoff)
            if state is None:
                continue
            log_w = float(_branch_weight_log(reported_counts, true_counts, eta).sum())
            log_masses.append(log_w + prob.log_mag)
            mass = math.exp(log_masses[-1])
            branches.append((mass, state))
            level_mass += mass
        if eta == 1.0:
            break
        if level_mass == 0.0:
            # the masses have fallen off, or, at level 0, a transparent tap
            # reports photons and so does every larger true count
            break
        best_level = max(best_level, math.log(level_mass))
        if math.log(level_mass) < best_level + math.log(_LOSSY_LEVEL_EPS):
            break
    else:
        raise TruncationError(f"lossy level walk hit its cap of {_LOSSY_LEVEL_CAP} at level {level}")
    return branches, logreal_sum_logs(log_masses)


def lossy_fidelity_mixture(branches, target: FockVector) -> float:
    """Fidelity of a (weight, FockVector) branch ensemble against a pure target.

    Weighted average of branch fidelities over the total weight; applied
    to simulate_lossy's branches it is the brute-force reference for
    detector.lossy_fidelity_exact.
    """
    weights = np.array([weight for weight, _ in branches], dtype=np.float64)
    top = weights.max(initial=0.0)
    if not (np.all(weights >= 0.0) and 0.0 < top < math.inf):
        raise DomainError("branch weights must be finite and >= 0, with a positive total")
    weights /= top  # so that neither sum below can overflow
    overlaps = np.array([inner_product(state, target) for _, state in branches])
    return float(weights @ np.square(overlaps) / weights.sum())


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True, slots=True)
class EquivalenceReport:
    """Worst-case deviations of the brute-force route from the analytic one."""

    cases: int
    worst_fidelity_deficit: float
    worst_fidelity_case: tuple
    worst_prob_rel_error: float
    worst_prob_case: tuple

    def passed(self, tolerance: float) -> bool:
        return (
            self.worst_fidelity_deficit <= tolerance
            and self.worst_prob_rel_error <= tolerance
        )


def equivalence_grid(
    k_max: int = 3,
    total_max: int = 6,
    transmittances: tuple = (0.7, 0.8, 0.9),
    squeezings: tuple = (0.5, 1.0),
    cutoff: int = 40,
) -> EquivalenceReport:
    """Compare simulate_hub against the analytic states and probabilities.

    Sweeps every chain assignment and every outcome partition within the
    caps and tracks the worst fidelity deficit and probability error.
    Raises DomainError when the grid holds no case.
    """
    from .probabilities import joint_success_prob

    k_max = _check_count(k_max, "k_max")
    total_max = _check_count(total_max, "total_max")
    worst_f = 0.0
    worst_f_case = ()
    worst_p = 0.0
    worst_p_case = ()
    cases = 0
    for k in range(1, k_max + 1):
        for ts in itertools.product(transmittances, repeat=k):
            for s in squeezings:
                cfg = HubConfig(s, ts)
                for total in range(0, total_max + 1):
                    for counts in _compositions(total, k):
                        outcome = Outcome(counts)
                        state, prob = simulate_hub(cfg, outcome, cutoff)
                        p_ref = joint_success_prob(cfg, outcome)
                        cases += 1
                        if state is not None:
                            # compare on the window the oracle stores: the
                            # analytic amplitudes are exact coefficients, so
                            # renormalizing over the window matches the
                            # truncated-and-renormalized brute-force state
                            ref = heralded_amps(
                                outcome.parity, outcome.pairs, cfg.y_out, state.cutoff
                            )
                            ref = ref / math.sqrt(float(np.dot(ref, ref)))
                            ov = float(np.dot(state.amps, ref))
                            deficit = abs(1.0 - ov * ov)
                            if deficit > worst_f:
                                worst_f, worst_f_case = deficit, (s, ts, counts)
                        # at t = 1 nothing reflects and both routes give 0;
                        # a zero on one route only is the worst mismatch
                        if prob.is_zero() or p_ref.is_zero():
                            rel = 0.0 if prob.is_zero() and p_ref.is_zero() else math.inf
                        else:
                            rel = abs((prob / p_ref).to_float() - 1.0)
                        if rel > worst_p:
                            worst_p, worst_p_case = rel, (s, ts, counts)
    if cases == 0:
        raise DomainError("the equivalence grid holds no case")
    return EquivalenceReport(cases, worst_f, worst_f_case, worst_p, worst_p_case)
