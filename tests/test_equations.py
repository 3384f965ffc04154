"""Compute-method contracts, default run semantics, equation invariants."""

from __future__ import annotations

import random

import pytest

from fuseforge.equations import (
    BehavioralEquation,
    ComputeMethodContract,
    StateRef,
    default_run,
    validate_contract,
)
from fuseforge.errors import ContractError
from fuseforge.workloads import gol_contract


def min_op_contract() -> ComputeMethodContract:
    """min(v, 1 + min(messages)): the shortest-path style aggregation."""
    return ComputeMethodContract(
        name="min-op",
        value_type="int64",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: s,
        partial_compute=lambda ms: min(ms) if ms else None,
        update_state=lambda s, m: s if m is None else min(s, 1 + m),
        associative=True,
        commutative=True,
        sample_message=lambda rng: rng.randint(0, 100),
    )


def test_default_run_gol_birth():
    assert default_run(gol_contract(), False, [1, 1, 1]) is True


def test_default_run_gol_survives_with_two():
    assert default_run(gol_contract(), True, [1, 1, 0]) is True


def test_default_run_gol_overpopulation():
    assert default_run(gol_contract(), True, [1, 1, 1, 1]) is False


def test_default_run_gol_empty_messages_keeps_state():
    assert default_run(gol_contract(), True, []) is True
    assert default_run(gol_contract(), False, []) is False


def test_default_run_min_op():
    assert default_run(min_op_contract(), 5, [3, 7, 2]) == 3


def test_default_run_type_mismatch():
    with pytest.raises(ContractError):
        default_run(gol_contract(), False, [1.5])


def test_validate_contract_accepts_honest_flags():
    validate_contract(gol_contract())
    validate_contract(min_op_contract())


def test_validate_contract_catches_false_flags():
    bogus = ComputeMethodContract(
        name="subtract",
        value_type="int64",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: s,
        partial_compute=lambda ms: ms[0] - sum(ms[1:]) if ms else None,
        update_state=lambda s, m: s if m is None else m,
        associative=True,
        commutative=True,
        sample_message=lambda rng: rng.randint(1, 50),
    )
    with pytest.raises(ContractError):
        validate_contract(bogus)


def test_fold_regroup_matches_for_random_groupings():
    contract = min_op_contract()
    rng = random.Random(123)
    for _ in range(200):
        msgs = [rng.randint(0, 1000) for _ in range(rng.randint(1, 12))]
        whole = contract.partial_compute(list(msgs))
        # two random binary groupings of the same multiset
        for _ in range(2):
            rng.shuffle(msgs)
            cut = rng.randint(1, len(msgs)) if len(msgs) > 1 else 1
            parts = [contract.partial_compute(msgs[:cut]), contract.partial_compute(msgs[cut:])]
            folded = contract.partial_compute([p for p in parts if p is not None])
            assert folded == whole


def test_duplicate_references_rejected():
    with pytest.raises(ValueError):
        BehavioralEquation(StateRef(1), "f", (StateRef(2), StateRef(2)), StateRef(3))


def test_recursive_flag():
    assert BehavioralEquation(StateRef(1), "f", (), StateRef(1)).recursive
    assert not BehavioralEquation(StateRef(1), "f", (), StateRef(2)).recursive
