"""Domain property of the library: every public callable in cathub.__all__,
given numbers of the documented shape, returns or raises DomainError or
TruncationError, and nothing it returns is nan.

Each numeric argument is drawn from valid values or from _BAD.  Inputs stay
cheap: one-tap simulate_lossy, counts <= 20, cutoffs <= 20 and
equivalence_grid with k_max <= 1.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cathub
from cathub import (
    DomainError,
    FockVector,
    HubConfig,
    LogReal,
    Outcome,
    TruncationError,
)

_BAD = [math.nan, math.inf, -math.inf, -1, 0, 1.5, 1e308, 1e-320]


def _or_bad(valid):
    return st.one_of(valid, st.sampled_from(_BAD))


_counts = _or_bad(st.integers(0, 20))
_cutoffs = _or_bad(st.integers(0, 20))
_units = _or_bad(st.floats(0.05, 1.0))
_ys = _or_bad(st.floats(0.0, 0.49))
_betas = _or_bad(st.floats(0.0, 6.0))
_squeezings = _or_bad(st.floats(0.1, 1.5))
_reals = _or_bad(st.floats(-1e3, 1e3))
_parities = st.sampled_from(["even", "odd"])
_amps = st.lists(_or_bad(st.floats(-1.0, 1.0)), min_size=1, max_size=4)


def _hub(s, t):
    return HubConfig(s, (t,))


_STATE = cathub.heralded_state("even", 1, 0.2)
_CAT = cathub.cat_state(1.0, "even")

# name -> (call, argument strategies); a name with a dot is a classmethod
_CASES = {
    "FockVector": (FockVector, (_parities, _amps)),
    "HubConfig": (HubConfig, (_squeezings, st.lists(_units, max_size=2))),
    "HubConfig.from_target_y": (HubConfig.from_target_y, (_ys, st.lists(_units, max_size=2))),
    "LogReal": (LogReal, (_reals,)),
    "LogReal.from_float": (LogReal.from_float, (_reals,)),
    "Outcome": (Outcome, (st.lists(_counts, max_size=2),)),
    "bs_matrix_element": (cathub.bs_matrix_element, (_units, _counts, _counts, _counts, _counts)),
    "cat_state": (cathub.cat_state, (_betas, _parities)),
    "chain_transmission": (cathub.chain_transmission, (st.lists(_units, max_size=2),)),
    "conditional_prob": (
        lambda s, t, index, count, prior: cathub.conditional_prob(HubConfig(s, (t, t)), index, count, prior),
        (_squeezings, _units, _counts, _counts, st.lists(_counts, max_size=1).map(tuple)),
    ),
    "demux_ratio": (lambda counts, t: cathub.demux_ratio(Outcome(counts), t), (st.lists(_counts, min_size=1, max_size=2), _units)),
    "equivalence_grid": (
        cathub.equivalence_grid,
        (
            _or_bad(st.integers(0, 1)),
            _or_bad(st.integers(0, 3)),
            st.lists(_units, max_size=2).map(tuple),
            st.lists(_squeezings, max_size=2).map(tuple),
            _cutoffs,
        ),
    ),
    "fidelity": (lambda p, a, b: cathub.fidelity(FockVector(p, a), FockVector(p, b)), (_parities, _amps, _amps)),
    "genfunc_derivative": (cathub.genfunc_derivative, (_counts, _ys)),
    "heralded_amps": (cathub.heralded_amps, (_parities, _counts, _ys, _cutoffs)),
    "heralded_state": (cathub.heralded_state, (_parities, _counts, _ys, st.one_of(st.none(), _cutoffs))),
    "inner_product": (lambda p, a, b: cathub.inner_product(FockVector(p, a), FockVector(p, b)), (_parities, _amps, _amps)),
    "joint_success_prob": (lambda s, t, n: cathub.joint_success_prob(_hub(s, t), Outcome((n,))), (_squeezings, _units, _counts)),
    "logreal_sum_logs": (cathub.logreal_sum_logs, (st.lists(_reals, max_size=3),)),
    "lossy_fidelity_exact": (
        lambda s, t, m, eta, beta: cathub.lossy_fidelity_exact(_hub(s, t), m, eta, beta),
        (_squeezings, _units, _counts, _units, _betas),
    ),
    "lossy_fidelity_firstorder": (cathub.lossy_fidelity_firstorder, (_units, _counts, _parities, _units, _ys)),
    "lossy_fidelity_mixture": (
        lambda weights: cathub.lossy_fidelity_mixture([(w, _STATE) for w in weights], _CAT),
        (st.lists(_reals, max_size=3),),
    ),
    "lossy_prob": (lambda s, t, m, p, eta: cathub.lossy_prob(_hub(s, t), m, p, eta), (_squeezings, _units, _counts, _parities, _units)),
    "lossy_prob_firstorder": (
        lambda s, t, m, p, eta: cathub.lossy_prob_firstorder(_hub(s, t), m, p, eta),
        (_squeezings, _units, _counts, _parities, _units),
    ),
    "mean_photon": (cathub.mean_photon, (_parities, _counts, _ys)),
    "multinomial_factor": (lambda counts: cathub.multinomial_factor(Outcome(counts)), (st.lists(_counts, min_size=1, max_size=2),)),
    "optimal_y": (cathub.optimal_y, (_parities, _counts, _betas)),
    "parity_of": (cathub.parity_of, (_counts,)),
    "reduction_factor": (cathub.reduction_factor, (_units, _reals)),
    "simulate_hub": (lambda s, t, n, cutoff: cathub.simulate_hub(_hub(s, t), Outcome((n,)), cutoff), (_squeezings, _units, _counts, _cutoffs)),
    "simulate_lossy": (
        lambda s, t, n, eta, cutoff: cathub.simulate_lossy(_hub(s, t), Outcome((n,)), eta, cutoff),
        (_squeezings, _units, _counts, _units, _cutoffs),
    ),
    "tradeoff_product": (
        lambda s, t, n, eta, beta: cathub.tradeoff_product(_hub(s, t), Outcome((n,)), eta, beta),
        (_squeezings, _units, _counts, _units, _betas),
    ),
}

# result records, reached through the call that builds them; _floats
# checks their fields
_RECORDS = {
    "EquivalenceReport": "equivalence_grid",
    "OptResult": "optimal_y",
    "TradeoffProduct": "tradeoff_product",
}


def _floats(value):
    """Every float that a returned value carries, LogReal.to_float() included."""
    if isinstance(value, LogReal):
        yield value.to_float()
    elif isinstance(value, (float, np.floating)):
        yield float(value)
    elif isinstance(value, np.ndarray):
        yield from value.ravel().tolist()
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))


def test_cases_cover_every_public_callable():
    covered = {name.split(".")[0] for name in _CASES} | set(_RECORDS)
    assert covered == set(cathub.__all__) - {"DomainError", "TruncationError"}
    assert set(_RECORDS.values()) <= set(_CASES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_call_returns_or_raises_a_domain_error(name):
    call, strategies = _CASES[name]

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.tuples(*strategies))
    def check(args):
        try:
            out = call(*args)
        except (DomainError, TruncationError):
            return
        nans = [x for x in _floats(out) if math.isnan(x)]
        assert not nans, f"{name}{args!r} returned nan"

    check()


# calls that once returned a number, an empty array or a vacuous PASS, or
# raised a bare TypeError or ValueError, an OverflowError or a misleading
# TruncationError
_ONE_TAP = HubConfig(1.0, (0.9,))
_BAD_CALLS = {
    "fractional derivative order": lambda: cathub.genfunc_derivative(1.5, 0.3),
    "fractional oracle cutoff": lambda: cathub.simulate_hub(_ONE_TAP, Outcome((1,)), 2.5),
    "fractional herald cutoff": lambda: cathub.heralded_state("even", 2, 0.3, 2.5),
    "infinite herald pair count": lambda: cathub.heralded_state("even", math.inf, 0.25),
    "negative amplitude window": lambda: cathub.heralded_amps("even", 2, 0.3, -1),
    "fractional photon number": lambda: cathub.bs_matrix_element(0.5, 1.5, 0, 1.5, 0),
    "negative photon number": lambda: cathub.bs_matrix_element(0.5, -1, 1, 0, 0),
    "empty grid, k_max = 0": lambda: cathub.equivalence_grid(k_max=0),
    "empty grid, total_max = -1": lambda: cathub.equivalence_grid(total_max=-1),
    "empty grid, no squeezing": lambda: cathub.equivalence_grid(squeezings=()),
    "fractional parity": lambda: cathub.parity_of(1.5),
    "nan parity": lambda: cathub.parity_of(math.nan),
    "negative parity": lambda: cathub.parity_of(-1),
    "float splitter index": lambda: cathub.conditional_prob(_ONE_TAP, 1.0, 0),
    "nan chain transmittance": lambda: cathub.chain_transmission((math.nan,)),
    "negative LogReal": lambda: LogReal.from_float(-1.0),
    "LogReal of nan": lambda: LogReal.from_float(math.nan),
    "LogReal with nan log": lambda: LogReal(math.nan),
    "LogReal with +inf log": lambda: LogReal(math.inf),
    "LogReal division by zero": lambda: LogReal(0.0) / LogReal.zero(),
    "negative factorial": lambda: cathub.logreal.log_factorials(-1),
    "fractional factorial": lambda: cathub.logreal.log_factorials(1.5),
    "negative mean photon number": lambda: cathub.reduction_factor(0.81, -1.0),
    "log-sum of +inf": lambda: cathub.logreal_sum_logs([math.inf]),
    "nan amplitude": lambda: FockVector("even", [math.nan]),
    "amplitude norm overflows": lambda: FockVector("even", [1e308]),
    "nan branch weight": lambda: cathub.lossy_fidelity_mixture([(math.nan, _CAT)], _CAT),
}


@pytest.mark.parametrize("call", _BAD_CALLS.values(), ids=_BAD_CALLS.keys())
def test_bad_number_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()
