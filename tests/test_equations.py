"""Compute-method contracts, their run semantics, equation invariants."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fuseforge.equations import (
    BehavioralEquation,
    ComputeMethodContract,
    StateRef,
    rule_from_text,
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


def step(c: ComputeMethodContract, s, ms: list):
    """One superstep of an agent: ``update_state`` of the fold of ``ms``."""
    return c.update_state(s, c.partial_compute(ms))


def test_default_run_gol_birth():
    assert step(gol_contract(), False, [1, 1, 1]) is True


def test_default_run_gol_survives_with_two():
    assert step(gol_contract(), True, [1, 1, 0]) is True


def test_default_run_gol_overpopulation():
    assert step(gol_contract(), True, [1, 1, 1, 1]) is False


def test_default_run_gol_empty_messages_keeps_state():
    assert step(gol_contract(), True, []) is True
    assert step(gol_contract(), False, []) is False


def test_default_run_min_op():
    assert step(min_op_contract(), 5, [3, 7, 2]) == 3


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


GOL_MESSAGE = "1 if s else 0"


@pytest.mark.parametrize("update, message, env", [
    ("f = 1", GOL_MESSAGE, {}),
    ("return s", GOL_MESSAGE, {}),
    ("yield s", GOL_MESSAGE, {}),
    ("global s", GOL_MESSAGE, {}),
    ("s = not s", "s = 1", {}),
    ("s = not s", "(t := s)", {}),
    ("s = not s", "f", {}),
    ("u = 1\ns = u", "u", {"u": 2}),
    ("s = (", GOL_MESSAGE, {}),
    ("if f:\n    last = f\ns = last", GOL_MESSAGE, {}),
    ("for j in range(2):\n    last = j\ns = last", GOL_MESSAGE, {}),
    ("s = _prev", GOL_MESSAGE, {}),
    ("_a = 1", GOL_MESSAGE, {}),
    ("from math import floor as _floor\ns = not s", GOL_MESSAGE, {}),
    ("s = not s", "_x", {}),
    ("s = not s", GOL_MESSAGE, {"_y": 1}),
], ids=["assigns-f", "returns", "yields", "global", "message-statement",
        "message-walrus", "message-reads-f", "message-reads-update-local",
        "update-syntax", "reads-local-unset-on-a-branch", "reads-local-bound-only-in-a-loop",
        "update-reads-underscored", "assigns-underscored", "imports-underscored",
        "message-reads-underscored", "env-names-underscored"])
def test_rule_text_rejected(update, message, env):
    """A text that would compute something else when spliced into a
    kernel, that uses the kernels' own ``_`` namespace, or that is not a
    text of its kind, raises at build time.  Texts that merely share a name
    with a kernel's own, bar ``f``, are accepted: see
    ``test_kernels.py::test_rule_text_the_kernel_cannot_capture_agrees``."""
    with pytest.raises(ContractError):
        rule_from_text(update, message, env)


@pytest.mark.parametrize("update", [
    "if f:\n    last = f\nelse:\n    last = 0\ns = last",
    "if f is None:\n    raise ValueError(f)\nelse:\n    last = f\ns = last",
    "if (last := f) is not None:\n    s = last",
    "last = 0\nfor j in range(2):\n    last += j\ns = last",
    "s = sum([j for j in (f or ())])",
], ids=["both-branches", "other-branch-raises", "walrus", "bound-before-loop", "comprehension"])
def test_rule_text_reading_an_assigned_local_accepted(update):
    """The definite-assignment walk accepts a local every path assigns."""
    rule_from_text(update, GOL_MESSAGE, {})


def test_the_equations_do_not_import_the_runtime():
    """The IR does not depend on the executor: building a rule from text
    leaves ``fuseforge.runtime`` unimported."""
    import fuseforge.equations

    src = str(Path(fuseforge.equations.__file__).parents[1])
    check = ("import sys\n"
             "from fuseforge.equations import rule_from_text\n"
             "rule_from_text('s = not s', 's', {})\n"
             "print(sorted(m for m in sys.modules if m.startswith('fuseforge')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "fuseforge.equations" in out and "fuseforge.runtime" not in out


def test_rule_text_callables_carry_normalized_text():
    up, sm = rule_from_text("""
        if f:  # any neighbor
            s = s + (f,)
        """, "len(s)", {})
    assert up.text == "if f:\n    s = s + (f,)" and sm.text == "len(s)"
    assert up((), None) == () and up((1,), 2) == (1, 2) and sm((1, 2)) == 2


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
