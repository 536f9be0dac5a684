"""The value types are slotted: callers keep results, so their size matters."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from cathub import (
    EquivalenceReport,
    FockVector,
    HubConfig,
    LogReal,
    OptResult,
    Outcome,
    tradeoff_product,
)

_CFG = HubConfig.from_target_y(0.3, (0.9,))

VALUES = {
    "LogReal": LogReal(2.5),
    "TradeoffProduct": tradeoff_product(_CFG, Outcome((4,)), 0.98, 1.5),
    "FockVector": FockVector("odd", [0.6, 0.8]),
    "HubConfig": HubConfig(0.8, (0.9, 0.95)),
    "Outcome": Outcome((2, 3)),
    "OptResult": OptResult(0.31, 0.97, 296, (0.3, 0.32)),
    "EquivalenceReport": EquivalenceReport(12, 1e-15, ("even", 2), 3e-12, ("odd", 1)),
}


def _same(a, b) -> bool:
    # field by field, so that array fields compare by value
    if type(a) is not type(b):
        return False
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_is_slotted(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    assert "__slots__" in vars(type(value))
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_type_survives_pickle_and_deepcopy(name):
    value = VALUES[name]
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert _same(copied, value)
        # array fields stay read-only in the copy too
        for f in dataclasses.fields(copied):
            field_value = getattr(copied, f.name)
            if isinstance(field_value, np.ndarray):
                assert not field_value.flags.writeable


def test_retained_logreal_is_compact():
    # object plus its float; the unslotted class took 112 B and the slotted
    # one with a sign field 72 B
    count = 10_000
    kept = [None] * count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            kept[i] = LogReal(i * 0.5 + 0.25)
        per_object = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert per_object < 72
