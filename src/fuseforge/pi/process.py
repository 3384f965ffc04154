"""Process terms for the polyadic pi-calculus oracle.

Names are symbols compared by value; a name is either a user-supplied
channel/value symbol, a fresh name minted for alpha-renaming, or a literal
carrying a concrete value (literals let the oracle compute numbers, not
just shapes).

Process variants follow the standard grammar: the inactive process, output
and input prefixes over polyadic channels, binary choice, binary parallel
composition, restriction, and replication.  Two artifact extensions:

* ``FunctionApply`` represents a host-function application opaquely; it
  reduces in one step by calling a registered function, instead of expanding
  to a channel-level function encoding.
* ``ProcessId`` is a named process identifier; the definition is substituted
  lazily during reduction.  Definitions must be communication-guarded.

Process nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): building a node looks up its class and fields in a
table of live nodes and returns the node found there, so structurally equal
terms are one object.  Equality and hashing are therefore the object
defaults, identity and address, and memo tables keyed by terms never walk
them.  The table holds its nodes weakly, so a term nothing else refers to
is freed as usual.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

from ..errors import StructuralError

_fresh_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Name:
    """A channel or value symbol, equal to every name with the same fields.

    ``fresh_id`` is set for machine-generated names, which therefore can
    never collide with user symbols of the same text.  ``value`` is set for
    literal names (concrete data travelling over channels).  The hash is
    computed once, at construction.
    """

    text: str
    fresh_id: int | None = None
    value: object = None
    is_literal: bool = False
    _hash: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.text, self.fresh_id, self.value, self.is_literal)))

    def __hash__(self) -> int:
        return self._hash

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


# (class, *fields) -> weak reference to the live node with them.  A plain
# dict, because WeakValueDictionary's get and __setitem__ run in Python
# (a miss raises and catches KeyError) and most nodes the oracle builds
# are new.
_NODES: dict[tuple, weakref.ref] = {}


def _forget(key, ref) -> None:
    """Drop a freed node's entry (unless a new node already took its key)."""
    if _NODES.get(key) is ref:
        del _NODES[key]


class _HashConsed(type):
    """Builds a process node only when no live node has its class and fields."""

    def __call__(cls, *args, **kwargs):
        if kwargs:
            # keywords to positions, so keyword calls and dataclasses.replace
            # find the same node
            args += tuple(kwargs.pop(f) for f in cls.__match_args__[len(args):] if f in kwargs)
            if kwargs:
                return type.__call__(cls, *args, **kwargs)  # the dataclass's TypeError
        key = (cls, *args)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = type.__call__(cls, *args)
            _NODES[key] = weakref.ref(node, partial(_forget, key))
        return node


class PiProcess(metaclass=_HashConsed):
    """Base class of the process variants, which are frozen dataclasses.

    Nodes are hash-consed: constructing a node whose class and fields match
    a live node returns that node, so two terms are equal exactly when they
    are the same object, and ``==`` and ``hash`` are identity and address.
    Field values are compared by value at construction (names by their
    fields, subprocesses by identity, since they are hash-consed too).
    """

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True, eq=False)
class Nil(PiProcess):
    def __repr__(self) -> str:
        return "0"


@dataclass(frozen=True, slots=True, eq=False)
class OutputPrefix(PiProcess):
    channel: Name
    payload: tuple[Name, ...]
    continuation: PiProcess

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.payload))
        return f"'{self.channel!r}<{args}>.{self.continuation!r}"


@dataclass(frozen=True, slots=True, eq=False)
class InputPrefix(PiProcess):
    channel: Name
    binders: tuple[Name, ...]
    continuation: PiProcess

    def __post_init__(self):
        if len(set(self.binders)) != len(self.binders):
            raise StructuralError(f"duplicate binders in input on {self.channel!r}")

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.binders))
        return f"{self.channel!r}({args}).{self.continuation!r}"


@dataclass(frozen=True, slots=True, eq=False)
class Choice(PiProcess):
    left: PiProcess
    right: PiProcess

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


@dataclass(frozen=True, slots=True, eq=False)
class Parallel(PiProcess):
    left: PiProcess
    right: PiProcess

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@dataclass(frozen=True, slots=True, eq=False)
class Restriction(PiProcess):
    name: Name
    body: PiProcess

    def __repr__(self) -> str:
        return f"(ν{self.name!r}){self.body!r}"


@dataclass(frozen=True, slots=True, eq=False)
class Replication(PiProcess):
    body: PiProcess

    def __repr__(self) -> str:
        return f"!{self.body!r}"


@dataclass(frozen=True, slots=True, eq=False)
class FunctionApply(PiProcess):
    """Opaque ``y = f(args...)`` step; binds ``result`` in the continuation."""

    fn: str
    args: tuple[Name, ...]
    result: Name
    continuation: PiProcess

    def __repr__(self) -> str:
        args = ",".join(map(repr, self.args))
        return f"[{self.result!r}={self.fn}({args})].{self.continuation!r}"


@dataclass(frozen=True, slots=True, eq=False)
class ProcessId(PiProcess):
    """Reference to a named definition, substituted during reduction."""

    ident: str

    def __repr__(self) -> str:
        return self.ident


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

    A binder that a substituted name would be captured by is renamed to a
    fresh name.  Substitution does not descend into ProcessId definitions;
    recursion anchors must not rely on names that communications substitute.
    """
    return rename(p, mapping, _avoid_capture) if mapping else p


def _avoid_capture(b: Name, scope: PiProcess, m: dict[Name, Name]) -> Name:
    return fresh(b.text) if b in m.values() else b


def rename(p: PiProcess, mapping: dict[Name, Name],
           binder: Callable[[Name, PiProcess, dict[Name, Name]], Name]) -> PiProcess:
    """``p`` with its free names mapped through ``mapping`` and each binder
    site renamed by ``binder(b, scope, m)``.

    The walk is pre-order, left before right.  At a site binding ``b`` over
    ``scope``, ``m`` is the mapping in force there less the names the site
    binds, and the scope maps ``b`` to the name ``binder`` returns.  The
    walk does not descend into ProcessId definitions.
    """

    def enter(binders: tuple[Name, ...], scope: PiProcess, m: dict[Name, Name]):
        inner = dict(m)
        for b in binders:
            inner.pop(b, None)
        new = tuple([binder(b, scope, inner) for b in binders])
        inner.update({b: nb for b, nb in zip(binders, new) if nb is not b})
        return new, inner

    def walk(q: PiProcess, m: dict[Name, Name]) -> PiProcess:
        if isinstance(q, (Nil, ProcessId)):
            return q
        if isinstance(q, OutputPrefix):
            return OutputPrefix(
                m.get(q.channel, q.channel),
                tuple(m.get(n, n) for n in q.payload),
                walk(q.continuation, m),
            )
        if isinstance(q, InputPrefix):
            binders, inner = enter(q.binders, q.continuation, m)
            return InputPrefix(m.get(q.channel, q.channel), binders, walk(q.continuation, inner))
        if isinstance(q, Choice):
            return Choice(walk(q.left, m), walk(q.right, m))
        if isinstance(q, Parallel):
            return Parallel(walk(q.left, m), walk(q.right, m))
        if isinstance(q, Restriction):
            (b,), inner = enter((q.name,), q.body, m)
            return Restriction(b, walk(q.body, inner))
        if isinstance(q, Replication):
            return Replication(walk(q.body, m))
        if isinstance(q, FunctionApply):
            (b,), inner = enter((q.result,), q.continuation, m)
            return FunctionApply(q.fn, tuple(m.get(n, n) for n in q.args), b,
                                 walk(q.continuation, inner))
        raise StructuralError(f"unknown process node {q!r}")

    return walk(p, dict(mapping))


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
