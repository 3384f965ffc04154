"""Compute-method contracts, default run semantics, equation invariants."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from fuseforge.equations import (
    BehavioralEquation,
    ComputeMethodContract,
    StateRef,
    default_run,
    validate_contract,
)
from fuseforge.errors import ContractError
from fuseforge.workloads import economics_contracts, epidemics_contract, gol_contract


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


def test_declared_add_folds_validate():
    for contract in (gol_contract(), epidemics_contract(), *economics_contracts().values()):
        assert contract.fold == "add"
        validate_contract(contract)


def test_validate_contract_rejects_a_false_add_fold():
    """A maximum is no sum, whatever the contract declares."""
    max_fold = replace(gol_contract(), partial_compute=lambda ms: max(ms) if ms else None)
    with pytest.raises(ContractError, match="fold 'add'"):
        validate_contract(max_fold)
    # without a sample generator the check draws wide int64 messages
    with pytest.raises(ContractError, match="fold 'add'"):
        validate_contract(replace(max_fold, sample_message=None))


def test_validate_contract_rejects_an_add_fold_on_floats():
    """Float addition in another order, or from sum's 0 start, may differ."""
    floats = ComputeMethodContract(
        name="float-sum",
        value_type="float64",
        in_message_type="float64",
        out_message_type="float64",
        state_to_message=lambda s: s,
        partial_compute=lambda ms: sum(ms) if ms else None,
        update_state=lambda s, m: s if m is None else m,
        fold="add",
    )
    assert floats.partial_compute([-0.0]) == 0.0  # and is not -0.0 bit for bit
    with pytest.raises(ContractError, match="int64"):
        validate_contract(floats)


def test_validate_contract_rejects_an_unknown_fold():
    with pytest.raises(ContractError, match="unknown fold"):
        validate_contract(replace(gol_contract(), fold="max"))


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


def test_state_ref_hash_is_the_tuple_hash_and_equality_is_by_value():
    for ref in (StateRef(7), StateRef(7, 3), StateRef(-1, 0)):
        assert hash(ref) == hash((ref.agent_id, ref.generation))
        twin = StateRef(ref.agent_id, ref.generation)
        assert twin is not ref and twin == ref and {twin} == {ref}
    assert StateRef(7) != StateRef(7, 0)
    assert repr(StateRef(7, 3)) == "s7g3"
