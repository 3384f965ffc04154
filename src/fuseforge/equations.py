"""Behavioral-equation IR and compute-method contracts.

An equation ``p := f{i_1..i_n}.q`` names a state, the compute method applied
per superstep, the ordered states it reads, and the successor state.  The
reference set is kept ordered so float aggregation is reproducible; the
contract treats it as a multiset.
"""

from __future__ import annotations

import ast
import math
import random
from dataclasses import dataclass, field
from textwrap import dedent, indent
from types import CodeType
from typing import Callable

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


@dataclass(frozen=True)
class ComputeMethodContract:
    """Combinator bundle defining one compute method.

    ``state_to_message`` may return None to suppress the send entirely.
    ``partial_compute`` folds a multiset of in-messages (None for empty);
    when ``associative`` and ``commutative`` are both set, any regrouping of
    the fold must agree, which aggregation pushdown relies on.  ``fold="add"``
    declares that ``partial_compute(ms)`` is ``ms[0] + ... + ms[-1]`` on
    int64 messages, so the engine may add the messages inline.
    ``update_state`` and ``state_to_message`` made together by
    ``rule_from_text`` carry their source text, and the engine splices that
    text into its kernels instead of calling them; any other callables,
    including wrappers of those, are called.
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


def rule_from_text(update: str, message: str, env: dict[str, object]) -> tuple[Callable, Callable]:
    """A contract's ``update_state`` and ``state_to_message`` compiled from
    source text.

    ``update`` is statements over the state ``s`` and the fold ``f`` that
    leave the new state in ``s``; ``message`` is one expression over ``s``.
    Any other name they read comes from ``env`` or the builtins.  Each
    callable carries its text, normalized, as ``text``, and the engine
    splices the two texts into its generated kernels in place of calling
    them, so a text must mean the same there: the update may not
    ``return``, ``yield``, declare a name ``global`` or ``nonlocal``, or bind
    a name a kernel binds or reads other than ``s``; the message may not
    contain ``:=`` or ``yield``; neither may read a name a kernel binds
    other than ``s`` (and the update's ``f``), nor may the message read one
    the update binds; and ``env`` may name nothing a kernel uses.  A text
    that breaks a rule raises ``ContractError``.  Not checked: a local that
    the update reads on a path that has not assigned it raises in the
    callable but, in a kernel, reads the previous agent's value.
    """
    from .runtime import kernel_use  # runtime imports this module

    update_tree = _parse(update, "exec", "update")
    message_tree = _parse(message, "eval", "message")
    for tree, banned, what in ((update_tree, _UPDATE_BANS, "update"),
                               (message_tree, _MESSAGE_BANS, "message")):
        for node in ast.walk(tree):
            if isinstance(node, banned):
                raise ContractError(f"{what} text may not use {type(node).__name__}: "
                                    f"{ast.unparse(node)!r}")
    update, message = ast.unparse(update_tree), ast.unparse(message_tree)
    # the names the update binds, by whatever statement: compiled as the
    # body of a function without parameters, they are exactly its locals
    [probe] = [c for c in _compile(f"def rule():\n{indent(update, '    ')}\n    pass\n",
                                   "update").co_consts if isinstance(c, CodeType)]
    bound = set(probe.co_varnames) | set(probe.co_cellvars)
    clashes = [f"update binds {name!r}" for name in sorted(bound - {"s"}) if kernel_use(name)]
    # in the kernel the message also sees the update's locals
    for tree, own, what in ((update_tree, bound | {"f"}, "update"), (message_tree, set(), "message")):
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        clashes += [f"{what} reads {name!r}" for name in sorted(read - own - {"s"})
                    if kernel_use(name) == "binds" or name in bound]
    clashes += [f"env names {name!r}" for name in sorted(env) if kernel_use(name)]
    if clashes:
        raise ContractError(f"rule text uses names of the generated kernel: {'; '.join(clashes)}")

    made: dict = {}
    exec(_compile(f"def update_state(s, f):\n{indent(update, '    ')}\n    return s\n"
                  f"def state_to_message(s):\n    return ({message})\n", "rule"), dict(env), made)
    update_state, state_to_message = made["update_state"], made["state_to_message"]
    update_state.text, state_to_message.text = update, message
    return update_state, state_to_message


_UPDATE_BANS = (ast.Return, ast.Yield, ast.YieldFrom, ast.Global, ast.Nonlocal)
_MESSAGE_BANS = (ast.NamedExpr, ast.Yield, ast.YieldFrom)


def _parse(text: str, mode: str, what: str) -> ast.AST:
    try:
        return ast.parse(dedent(text), mode=mode)
    except SyntaxError as e:
        kind = "statements" if mode == "exec" else "one expression"
        raise ContractError(f"{what} text is not {kind}: {e.msg}: {text!r}") from e


def _compile(source: str, what: str):
    try:
        return compile(source, f"<fuseforge {what}>", "exec")
    except SyntaxError as e:
        raise ContractError(f"{what} text does not compile: {e.msg}") from e


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
