"""Process terms for the polyadic pi-calculus oracle.

Names are interned symbols; a name is either a user-supplied channel/value
symbol, a fresh name minted for alpha-renaming, or a literal carrying a
concrete value (literals let the oracle compute numbers, not just shapes).

Process variants follow the standard grammar: the inactive process, output
and input prefixes over polyadic channels, binary choice, binary parallel
composition, restriction, and replication.  Two artifact extensions:

* ``FunctionApply`` represents a host-function application opaquely; it
  reduces in one step by calling a registered function, instead of expanding
  to a channel-level function encoding.
* ``ProcessId`` is a named process identifier; the definition is substituted
  lazily during reduction.  Definitions must be communication-guarded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from ..errors import StructuralError

_fresh_counter = itertools.count(1)


def _freeze_hash(obj, *parts) -> None:
    object.__setattr__(obj, "_hash", hash(parts))


def _cached_hash(self) -> int:
    return self._hash


@dataclass(frozen=True, slots=True)
class Name:
    """An interned channel or value symbol.

    ``fresh_id`` is set for machine-generated names, which therefore can
    never collide with user symbols of the same text.  ``value`` is set for
    literal names (concrete data travelling over channels).  The hash is
    computed once, at construction, like the process nodes' hashes.
    """

    text: str
    fresh_id: int | None = None
    value: object = None
    is_literal: bool = False
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, self.text, self.fresh_id, self.value, self.is_literal)

    def __repr__(self) -> str:
        if self.is_literal:
            return f"#{self.value!r}"
        if self.fresh_id is not None:
            return f"{self.text}~{self.fresh_id}"
        return self.text


def name(text: str) -> Name:
    return Name(text)


def lit(value) -> Name:
    """Literal name carrying a concrete value."""
    return Name(text=repr(value), value=value, is_literal=True)


def fresh(base: str = "ν") -> Name:
    return Name(text=base, fresh_id=next(_fresh_counter))


class PiProcess:
    """Marker base class; all variants are frozen dataclasses.

    Nodes cache their structural hash at construction, so hashing deep terms
    (interning, memo tables) is O(1) after the initial build.
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Nil(PiProcess):
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "nil")

    def __repr__(self) -> str:
        return "0"


@dataclass(frozen=True, slots=True)
class OutputPrefix(PiProcess):
    channel: Name
    payload: tuple[Name, ...]
    continuation: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "out", self.channel, self.payload, self.continuation)

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.payload))
        return f"'{self.channel!r}<{args}>.{self.continuation!r}"


@dataclass(frozen=True, slots=True)
class InputPrefix(PiProcess):
    channel: Name
    binders: tuple[Name, ...]
    continuation: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        if len(set(self.binders)) != len(self.binders):
            raise StructuralError(f"duplicate binders in input on {self.channel!r}")
        _freeze_hash(self, "in", self.channel, self.binders, self.continuation)

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.binders))
        return f"{self.channel!r}({args}).{self.continuation!r}"


@dataclass(frozen=True, slots=True)
class Choice(PiProcess):
    left: PiProcess
    right: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "+", self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True, slots=True)
class Parallel(PiProcess):
    left: PiProcess
    right: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "|", self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@dataclass(frozen=True, slots=True)
class Restriction(PiProcess):
    name: Name
    body: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "nu", self.name, self.body)

    def __repr__(self) -> str:
        return f"(ν{self.name!r}){self.body!r}"


@dataclass(frozen=True, slots=True)
class Replication(PiProcess):
    body: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "!", self.body)

    def __repr__(self) -> str:
        return f"!{self.body!r}"


@dataclass(frozen=True, slots=True)
class FunctionApply(PiProcess):
    """Opaque ``y = f(args...)`` step; binds ``result`` in the continuation."""

    fn: str
    args: tuple[Name, ...]
    result: Name
    continuation: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "app", self.fn, self.args, self.result, self.continuation)

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.args))
        return f"[{self.result!r}={self.fn}({args})].{self.continuation!r}"


@dataclass(frozen=True, slots=True)
class ProcessId(PiProcess):
    """Reference to a named definition, substituted during reduction."""

    ident: str
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_hash(self, "id", self.ident)

    def __repr__(self) -> str:
        return self.ident


for _cls in (Name, Nil, OutputPrefix, InputPrefix, Choice, Parallel, Restriction, Replication, FunctionApply, ProcessId):
    _cls.__hash__ = _cached_hash

NIL = Nil()


# Convenience constructors -------------------------------------------------

def out(channel: Name, payload, continuation: PiProcess = NIL) -> OutputPrefix:
    if isinstance(payload, Name):
        payload = (payload,)
    return OutputPrefix(channel, tuple(payload), continuation)


def inp(channel: Name, binders, continuation: PiProcess = NIL) -> InputPrefix:
    if isinstance(binders, Name):
        binders = (binders,)
    return InputPrefix(channel, tuple(binders), continuation)


def par(*procs: PiProcess) -> PiProcess:
    """Right-nested parallel composition of any number of processes."""
    if not procs:
        return NIL
    result = procs[-1]
    for p in reversed(procs[:-1]):
        result = Parallel(p, result)
    return result


def choice(*procs: PiProcess) -> PiProcess:
    if not procs:
        return NIL
    result = procs[-1]
    for p in reversed(procs[:-1]):
        result = Choice(p, result)
    return result


def nu(names, body: PiProcess) -> PiProcess:
    """Restriction chain over one or more names."""
    if isinstance(names, Name):
        names = (names,)
    for n in reversed(tuple(names)):
        body = Restriction(n, body)
    return body


def bang(body: PiProcess) -> Replication:
    return Replication(body)


# Free names and substitution ----------------------------------------------

TOP = None  # sentinel: "free names unknown" (process identifiers)


@lru_cache(maxsize=None)
def free_names(p: PiProcess) -> frozenset[Name] | None:
    """Free names of a process, or TOP if a ProcessId makes them unknown."""
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, OutputPrefix):
        sub = free_names(p.continuation)
        if sub is TOP:
            return TOP
        return frozenset(sub | {p.channel} | set(p.payload))
    if isinstance(p, InputPrefix):
        sub = free_names(p.continuation)
        if sub is TOP:
            return TOP
        return frozenset((sub - set(p.binders)) | {p.channel})
    if isinstance(p, (Choice, Parallel)):
        left, right = free_names(p.left), free_names(p.right)
        if left is TOP or right is TOP:
            return TOP
        return frozenset(left | right)
    if isinstance(p, Restriction):
        sub = free_names(p.body)
        if sub is TOP:
            return TOP
        return frozenset(sub - {p.name})
    if isinstance(p, Replication):
        return free_names(p.body)
    if isinstance(p, FunctionApply):
        sub = free_names(p.continuation)
        if sub is TOP:
            return TOP
        return frozenset((sub - {p.result}) | set(p.args))
    if isinstance(p, ProcessId):
        return TOP
    raise StructuralError(f"unknown process node {p!r}")


def name_is_free(n: Name, p: PiProcess) -> bool:
    """Conservative: names are considered free in process identifiers."""
    fns = free_names(p)
    return True if fns is TOP else n in fns


def substitute(p: PiProcess, mapping: dict[Name, Name]) -> PiProcess:
    """Capture-avoiding substitution of names for names.

    Substitution does not descend into ProcessId definitions; recursion
    anchors must not rely on names that communications substitute.
    """
    if not mapping:
        return p

    def walk(q: PiProcess, m: dict[Name, Name]) -> PiProcess:
        if not m or isinstance(q, Nil):
            return q
        if isinstance(q, ProcessId):
            return q
        if isinstance(q, OutputPrefix):
            return OutputPrefix(
                m.get(q.channel, q.channel),
                tuple(m.get(n, n) for n in q.payload),
                walk(q.continuation, m),
            )
        if isinstance(q, InputPrefix):
            binders, cont, m2 = _enter_binders(q.binders, q.continuation, m)
            return InputPrefix(m.get(q.channel, q.channel), binders, walk(cont, m2))
        if isinstance(q, Choice):
            return Choice(walk(q.left, m), walk(q.right, m))
        if isinstance(q, Parallel):
            return Parallel(walk(q.left, m), walk(q.right, m))
        if isinstance(q, Restriction):
            binders, body, m2 = _enter_binders((q.name,), q.body, m)
            return Restriction(binders[0], walk(body, m2))
        if isinstance(q, Replication):
            return Replication(walk(q.body, m))
        if isinstance(q, FunctionApply):
            args = tuple(m.get(n, n) for n in q.args)
            binders, cont, m2 = _enter_binders((q.result,), q.continuation, m)
            return FunctionApply(q.fn, args, binders[0], walk(cont, m2))
        raise StructuralError(f"unknown process node {q!r}")

    return walk(p, dict(mapping))


def _enter_binders(binders, body, mapping):
    """Drop shadowed keys; rename binders that would capture substituted names."""
    m = {k: v for k, v in mapping.items() if k not in binders}
    targets = set(m.values())
    new_binders = []
    renames = {}
    for b in binders:
        if b in targets:
            nb = fresh(b.text)
            renames[b] = nb
            new_binders.append(nb)
        else:
            new_binders.append(b)
    if renames:
        body = substitute(body, renames)
    return tuple(new_binders), body, m


def flatten_parallel(p: PiProcess) -> list[PiProcess]:
    if isinstance(p, Parallel):
        return flatten_parallel(p.left) + flatten_parallel(p.right)
    return [p]


def flatten_choice(p: PiProcess) -> list[PiProcess]:
    if isinstance(p, Choice):
        return flatten_choice(p.left) + flatten_choice(p.right)
    return [p]
