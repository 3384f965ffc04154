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
from dataclasses import dataclass
from textwrap import dedent, indent
from types import CodeType
from typing import Callable, NamedTuple

from .errors import ContractError


class StateRef(NamedTuple):
    """Reference to an agent's state, optionally pinned to a superstep.

    A tuple, so hashing and equality run in C; a reference equals the
    plain tuple of its fields.
    """

    agent_id: int
    generation: int | None = None

    def __repr__(self) -> str:
        if self.generation is None:
            return f"s{self.agent_id}"
        return f"s{self.agent_id}g{self.generation}"


@dataclass(frozen=True, slots=True)
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
    them, so a text must mean the same there.  A kernel's own names all
    start with ``_``, apart from ``s`` and ``f``, so neither text may use a
    name that starts with ``_``, and ``env`` may not name one.  The update
    may not ``return``, ``yield``, declare a name ``global`` or
    ``nonlocal``, or bind ``f``; the message may not contain ``:=`` or
    ``yield``, or read ``f`` or a name the update binds; and the update may
    not read a local on a path that has not assigned it, which in a kernel
    would hold the value of whichever agent ran before.  A text that breaks
    a rule raises ``ContractError``.

    Not checked: both texts must be deterministic functions of ``s``, ``f``
    and ``env``, and the update must leave a state it changes in a new
    object rather than change ``s`` in place, since the engine skips an
    agent whose state object and inputs did not change (see ``runtime``).
    """
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
    # the kernels own every name that starts with "_", so no text may use one
    names = {"update": bound | _names(update_tree, ast.expr_context),
             "message": _names(message_tree, ast.expr_context), "env": set(env)}
    clashes = [f"{what} uses {name!r}" for what, used in names.items()
               for name in sorted(used) if name.startswith("_")]
    if "f" in bound:
        clashes.append("update binds 'f'")
    # in the kernel the message also sees the fold and the update's locals
    clashes += [f"message reads {name!r}"
                for name in sorted(_names(message_tree, ast.Load) & (bound | {"f"}) - {"s"})]
    if clashes:
        raise ContractError(f"rule text clashes with the generated kernel: {'; '.join(clashes)}")
    walk = _Assigned(bound - {"s"})
    walk.block(update_tree.body, frozenset())
    if walk.unset:
        raise ContractError(f"update text reads {', '.join(map(repr, walk.unset))} on a "
                            f"path that has not assigned it")

    made: dict = {}
    exec(_compile(f"def update_state(s, f):\n{indent(update, '    ')}\n    return s\n"
                  f"def state_to_message(s):\n    return ({message})\n", "rule"), dict(env), made)
    update_state, state_to_message = made["update_state"], made["state_to_message"]
    update_state.text, state_to_message.text = update, message
    return update_state, state_to_message


_UPDATE_BANS = (ast.Return, ast.Yield, ast.YieldFrom, ast.Global, ast.Nonlocal)
_MESSAGE_BANS = (ast.NamedExpr, ast.Yield, ast.YieldFrom)


class _Assigned:
    """A definite-assignment walk over update statements: ``unset`` lists
    the ``local`` names some statement reads where not every path to it
    has assigned them.  A step takes and returns the names assigned on
    every path, None after a statement that no path continues from
    (``raise``, ``break``, ``continue``).  A loop body may run no times, so
    a loop assigns nothing for the code after it.  Any other compound
    statement (``try``, ``with``, ``match``, a nested ``def``) is read
    where it stands and assigns nothing."""

    def __init__(self, local: set[str]):
        self.local = local
        self.unset: list[str] = []

    def block(self, body: list[ast.stmt], done: frozenset | None) -> frozenset | None:
        for node in body:
            if done is None:
                break
            done = self.stmt(node, done)
        return done

    def stmt(self, node: ast.stmt, done: frozenset) -> frozenset | None:
        if isinstance(node, ast.If):
            done = self.expr(node.test, done)
            return _join(self.block(node.body, done), self.block(node.orelse, done))
        if isinstance(node, ast.For):
            done = self.expr(node.iter, done)
            self.block(node.body, self.expr(node.target, done) | _names(node.target))
            self.block(node.orelse, done)
            return done
        if isinstance(node, ast.While):
            done = self.expr(node.test, done)
            self.block(node.body + node.orelse, done)
            return done
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if node.value is None:  # a bare annotation
                return done
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                self.read(node.target.id, done)
            done = self.expr(node.value, done)
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                done = self.expr(target, done) | _names(target)
            return done
        if isinstance(node, (ast.Expr, ast.Assert, ast.Delete, ast.Pass, ast.Raise,
                             ast.Break, ast.Continue)):
            for child in ast.iter_child_nodes(node):
                done = self.expr(child, done)
            if isinstance(node, (ast.Raise, ast.Break, ast.Continue)):
                return None
            return done - _names(node, ast.Del)
        self.other(node, done)
        return done

    def other(self, node: ast.AST, done: frozenset) -> None:
        for _, value in ast.iter_fields(node):
            items = value if isinstance(value, list) else [value]
            if items and all(isinstance(item, ast.stmt) for item in items):
                self.block(items, done)
                continue
            for item in items:
                if isinstance(item, ast.expr):
                    self.expr(item, done)
                elif isinstance(item, ast.AST):
                    self.other(item, done)

    def read(self, name: str, done: frozenset) -> None:
        if name in self.local and name not in done and name not in self.unset:
            self.unset.append(name)

    def expr(self, node: ast.AST, done: frozenset) -> frozenset:
        """Check the reads of ``node`` in evaluation order; returns the names
        assigned on every path through it (by ``:=``)."""
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                self.read(node.id, done)
            return done
        if isinstance(node, ast.NamedExpr):
            return self.expr(node.value, done) | {node.target.id}
        if isinstance(node, ast.BoolOp):  # only the first operand always runs
            done = self.expr(node.values[0], done)
            for value in node.values[1:]:
                self.expr(value, done)
            return done
        if isinstance(node, ast.IfExp):
            done = self.expr(node.test, done)
            return _join(self.expr(node.body, done), self.expr(node.orelse, done))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            inner = done  # the comprehension's own targets are bound before its body
            for gen in node.generators:
                inner = self.expr(gen.iter, inner) | _names(gen.target)
                for cond in gen.ifs:
                    inner = self.expr(cond, inner)
            for part in (node.key, node.value) if isinstance(node, ast.DictComp) else (node.elt,):
                self.expr(part, inner)
            return done
        for child in ast.iter_child_nodes(node):
            done = self.expr(child, done)
        return done


def _join(*paths: frozenset | None) -> frozenset | None:
    """The names assigned on every path that continues."""
    live = [p for p in paths if p is not None]
    return frozenset.intersection(*live) if live else None


def _names(node: ast.AST, ctx: type = ast.Store) -> frozenset:
    """The plain names ``node`` binds (or, with ``ast.Load``, reads, with
    ``ast.Del``, deletes, and with ``ast.expr_context``, uses at all)."""
    return frozenset(n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ctx))


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
