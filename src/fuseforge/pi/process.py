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
from operator import attrgetter

from ..errors import StructuralError

_fresh_counter = itertools.count(1)


def _freeze_hash(obj, *parts) -> None:
    object.__setattr__(obj, "_hash", hash(parts))


# Nodes at least this tall compare by an explicit walk, lower ones by
# recursive field-by-field comparison.
_SHALLOW = 48


def _freeze_node(node, height: int, *parts) -> None:
    """Cache a process node's hash and its height (the number of nodes on
    its longest path to a leaf)."""
    object.__setattr__(node, "_hash", hash(parts))
    object.__setattr__(node, "_height", height)


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
    (interning, memo tables) is O(1) after the initial build.  They also
    cache their height, which lets equality walk tall terms without
    recursion.
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Nil(PiProcess):
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, 1, "nil")

    def __eq__(self, other) -> bool:
        return True if other.__class__ is Nil else NotImplemented

    def __repr__(self) -> str:
        return "0"


@dataclass(frozen=True, slots=True)
class OutputPrefix(PiProcess):
    channel: Name
    payload: tuple[Name, ...]
    continuation: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, self.continuation._height + 1, "out", self.channel, self.payload, self.continuation)

    def __eq__(self, other) -> bool:
        if other.__class__ is not OutputPrefix:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return (self.channel, self.payload, self.continuation) == (
            other.channel, other.payload, other.continuation)

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.payload))
        return f"'{self.channel!r}<{args}>.{self.continuation!r}"


@dataclass(frozen=True, slots=True)
class InputPrefix(PiProcess):
    channel: Name
    binders: tuple[Name, ...]
    continuation: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        if len(set(self.binders)) != len(self.binders):
            raise StructuralError(f"duplicate binders in input on {self.channel!r}")
        _freeze_node(self, self.continuation._height + 1, "in", self.channel, self.binders, self.continuation)

    def __eq__(self, other) -> bool:
        if other.__class__ is not InputPrefix:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return (self.channel, self.binders, self.continuation) == (
            other.channel, other.binders, other.continuation)

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.binders))
        return f"{self.channel!r}({args}).{self.continuation!r}"


@dataclass(frozen=True, slots=True)
class Choice(PiProcess):
    left: PiProcess
    right: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, max(self.left._height, self.right._height) + 1, "+", self.left, self.right)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Choice:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return (self.left, self.right) == (other.left, other.right)

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True, slots=True)
class Parallel(PiProcess):
    left: PiProcess
    right: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, max(self.left._height, self.right._height) + 1, "|", self.left, self.right)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Parallel:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return (self.left, self.right) == (other.left, other.right)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@dataclass(frozen=True, slots=True)
class Restriction(PiProcess):
    name: Name
    body: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, self.body._height + 1, "nu", self.name, self.body)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Restriction:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return (self.name, self.body) == (other.name, other.body)

    def __repr__(self) -> str:
        return f"(ν{self.name!r}){self.body!r}"


@dataclass(frozen=True, slots=True)
class Replication(PiProcess):
    body: PiProcess
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, self.body._height + 1, "!", self.body)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Replication:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return self.body == other.body

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
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, self.continuation._height + 1, "app", self.fn, self.args, self.result, self.continuation)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FunctionApply:
            return NotImplemented
        if self._hash != other._hash or self._height >= _SHALLOW:
            return _walk_eq(self, other)
        return (self.fn, self.args, self.result, self.continuation) == (
            other.fn, other.args, other.result, other.continuation)

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.args))
        return f"[{self.result!r}={self.fn}({args})].{self.continuation!r}"


@dataclass(frozen=True, slots=True)
class ProcessId(PiProcess):
    """Reference to a named definition, substituted during reduction."""

    ident: str
    _hash: int = field(init=False, compare=False, repr=False, default=0)
    _height: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        _freeze_node(self, 1, "id", self.ident)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ProcessId:
            return NotImplemented
        return self.ident == other.ident

    def __repr__(self) -> str:
        return self.ident


def _walk_eq(a: PiProcess, b: PiProcess) -> bool:
    """Equality of two nodes of one class whose hashes differ or that are
    tall: the subterm pairs of tall nodes are walked with an explicit stack,
    so terms nested deeper than the interpreter's recursion limit compare
    safely; low pairs go back to ``==``."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or a._hash != b._hash:
            return False
        if a._height < _SHALLOW:
            if a != b:
                return False
            continue
        leaves, kids = _SHAPES[a.__class__]
        if leaves(a) != leaves(b):
            return False
        stack.extend((kid(a), kid(b)) for kid in kids)
    return True


_PROCESS_CLASSES = (Nil, OutputPrefix, InputPrefix, Choice, Parallel, Restriction, Replication,
                    FunctionApply, ProcessId)
_KID_FIELDS = ("continuation", "left", "right", "body")


def _shape(cls) -> tuple:
    """A getter for the non-process fields of ``cls`` (as one tuple) and one
    getter per subprocess field."""
    fields = [f for f in cls.__dataclass_fields__ if f not in ("_hash", "_height")]
    leaves = tuple(attrgetter(f) for f in fields if f not in _KID_FIELDS)
    return ((lambda node: tuple(get(node) for get in leaves)),
            tuple(attrgetter(f) for f in fields if f in _KID_FIELDS))


_SHAPES = {cls: _shape(cls) for cls in _PROCESS_CLASSES}

for _cls in (Name, *_PROCESS_CLASSES):
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
    # parallel and choice spines and restriction chains are walked in a
    # loop, so long ones do not exhaust the recursion limit
    if isinstance(p, (Choice, Parallel)):
        names: set[Name] = set()
        q = p
        while isinstance(q, p.__class__):
            sub = free_names(q.left)
            if sub is TOP:
                return TOP
            names |= sub
            q = q.right
        sub = free_names(q)
        if sub is TOP:
            return TOP
        return frozenset(names | sub)
    if isinstance(p, Restriction):
        bound = set()
        q = p
        while isinstance(q, Restriction):
            bound.add(q.name)
            q = q.body
        sub = free_names(q)
        if sub is TOP:
            return TOP
        return frozenset(sub - bound)
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


def _flatten(p: PiProcess, cls: type) -> list[PiProcess]:
    """The operands of a tree of binary ``cls`` nodes, left to right."""
    out, stack = [], [p]
    while stack:
        q = stack.pop()
        if isinstance(q, cls):
            stack.append(q.right)
            stack.append(q.left)
        else:
            out.append(q)
    return out


def flatten_parallel(p: PiProcess) -> list[PiProcess]:
    return _flatten(p, Parallel)


def flatten_choice(p: PiProcess) -> list[PiProcess]:
    return _flatten(p, Choice)
