"""Behavioral-equation IR and compute-method contracts.

An equation ``p := f{i_1..i_n}.q`` names a state, the compute method applied
per superstep, the ordered states it reads, and the successor state.  The
reference set is kept ordered so float aggregation is reproducible; the
contract treats it as a multiset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .errors import ContractError


@dataclass(frozen=True, slots=True)
class StateRef:
    """Reference to an agent's state, optionally pinned to a superstep.

    The hash is computed once, at construction.  Workloads share one
    reference per agent, so set and dict lookups of a reference match by
    identity before any ``__eq__`` runs.
    """

    agent_id: int
    generation: int | None = None
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.agent_id, self.generation)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.generation is None:
            return f"s{self.agent_id}"
        return f"s{self.agent_id}g{self.generation}"


@dataclass(frozen=True)
class BehavioralEquation:
    lhs: StateRef
    compute: str
    reference_set: tuple[StateRef, ...]
    rhs: StateRef

    def __post_init__(self):
        if len(set(self.reference_set)) != len(self.reference_set):
            raise ValueError(f"duplicate references in {self.reference_set}")

    @property
    def recursive(self) -> bool:
        return self.lhs == self.rhs

    def __repr__(self) -> str:
        refs = ",".join(map(repr, self.reference_set))
        return f"{self.lhs!r}:={self.compute}{{{refs}}}.{self.rhs!r}"


# Compute-method contracts ---------------------------------------------------

TypeTag = str  # "bool" | "int64" | "float64" | "record:<name>"

_TAG_CHECKS: dict[str, Callable[[object], bool]] = {
    "bool": lambda v: isinstance(v, bool),
    "int64": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float64": lambda v: isinstance(v, float),
}


def check_tag(tag: TypeTag, value) -> bool:
    checker = _TAG_CHECKS.get(tag)
    if checker is not None:
        return checker(value)
    if tag.startswith("record:"):
        return value.__class__.__name__ == tag.split(":", 1)[1]
    return True


@dataclass(frozen=True)
class ComputeMethodContract:
    """Combinator bundle defining one compute method.

    ``state_to_message`` may return None to suppress the send entirely.
    ``partial_compute`` folds a multiset of in-messages (None for empty);
    when ``associative`` and ``commutative`` are both set, any regrouping of
    the fold must agree, which aggregation pushdown relies on.  ``fold="add"``
    declares that ``partial_compute(ms)`` is ``ms[0] + ... + ms[-1]`` on
    int64 messages, so the engine may add the messages inline.
    """

    name: str
    value_type: TypeTag
    in_message_type: TypeTag
    out_message_type: TypeTag
    state_to_message: Callable[[object], object]
    partial_compute: Callable[[list], object | None]
    update_state: Callable[[object, object | None], object]
    associative: bool = False
    commutative: bool = False
    sample_message: Callable[[random.Random], object] | None = None
    fold: str | None = None

    @property
    def pushdown_eligible(self) -> bool:
        return self.associative and self.commutative


def default_run(contract: ComputeMethodContract, state, messages: Iterable) -> object:
    """updateState(state, partialCompute(messages)) with type-tag checks."""
    messages = list(messages)
    for m in messages:
        if not check_tag(contract.in_message_type, m):
            raise ContractError(
                f"{contract.name}: message {m!r} does not match "
                f"in-message type {contract.in_message_type}"
            )
    folded = contract.partial_compute(messages) if messages else contract.partial_compute([])
    return contract.update_state(state, folded)


def validate_contract(contract: ComputeMethodContract, cases: int = 200, seed: int = 0) -> None:
    """Property-test a declared fold against ``partial_compute`` and declared
    algebraic flags against random regroupings.

    A declared ``add`` fold must give exactly ``partial_compute``'s result,
    of the same type, on random multisets of one to nine messages; only int64
    messages qualify, since float ``+`` in another order or from another
    start (``sum([-0.0])`` is ``0.0``) can differ.  Float folds regroup
    within 1e-9 relative (the tolerance the optimizer grants pushdown on
    float states); everything else must match exactly.
    """
    if contract.fold is not None:
        _validate_fold(contract, cases, seed)
    if not contract.pushdown_eligible or contract.sample_message is None:
        return
    floats = contract.in_message_type == "float64"
    rng = random.Random(seed)
    for _ in range(cases):
        size = rng.randint(2, 9)
        msgs = [contract.sample_message(rng) for _ in range(size)]
        whole = contract.partial_compute(list(msgs))
        cut = rng.randint(1, size - 1)
        shuffled = list(msgs)
        rng.shuffle(shuffled)
        left = contract.partial_compute(shuffled[:cut])
        right = contract.partial_compute(shuffled[cut:])
        regrouped = contract.partial_compute([m for m in (left, right) if m is not None])
        if floats:
            agree = math.isclose(regrouped, whole, rel_tol=1e-9, abs_tol=1e-12)
        else:
            agree = regrouped == whole
        if not agree:
            raise ContractError(
                f"{contract.name}: declared associative+commutative but "
                f"fold({msgs}) = {whole} != {regrouped} after regrouping"
            )


def _validate_fold(contract: ComputeMethodContract, cases: int, seed: int) -> None:
    if contract.fold != "add":
        raise ContractError(f"{contract.name}: unknown fold {contract.fold!r}")
    if contract.in_message_type != "int64":
        raise ContractError(
            f"{contract.name}: fold 'add' needs int64 in-messages, "
            f"not {contract.in_message_type}"
        )
    rng = random.Random(seed)
    sample = contract.sample_message or (lambda r: r.randint(-2**62, 2**62))
    for _ in range(cases):
        msgs = [sample(rng) for _ in range(rng.randint(1, 9))]
        chained = msgs[0]
        for m in msgs[1:]:
            chained = chained + m
        folded = contract.partial_compute(list(msgs))
        if folded != chained or type(folded) is not type(chained):
            raise ContractError(
                f"{contract.name}: declared fold 'add' but "
                f"fold({msgs}) = {folded!r} != {chained!r}"
            )
