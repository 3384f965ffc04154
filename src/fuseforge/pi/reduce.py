"""Reduction semantics: one communication step at a time.

A reduction state carries the process, a value environment mapping names to
the concrete values communication has bound so far, and a step counter.
``reduce_step`` enumerates every one-step successor: each complementary
(output, input) pair of distinct parallel components, plus every enabled
host-function application.  Replication and process identifiers unfold
lazily, only when the unfolding offers a communication.

``reduce_all`` searches for every irreducible state, but runs the
interleavings of tau-confluent steps only once (Groote & van de Pol,
MFCS 2000; Blom & van de Pol, CAV 2002).  A state with such a step runs a
chain of them; any other state is expanded by every step.  The confluent
steps are the deterministic ones of a translated superstep, which computes
the same values in whatever order its receives and function applications
fire:

* a top-level function application whose arguments are all literals,
  when no channel subject is a literal or a name that a communication or
  application could replace by one (the application records its result
  under the result's literal, and a communication on that literal would
  record another value there);
* a communication on channel ``c`` from a top-level ``'c<v..>.P`` or
  ``!'c<v..>.0`` with literal payload to a top-level input ``c(x..).Q``,
  where ``c`` is not a literal, is the subject of exactly one output in the
  whole term and is never sent or passed to a function; an unreplicated
  sender also needs ``c`` to be the subject of exactly one input.

Such a step stays enabled until it fires, disables no other step and is
disabled by none, and writes the same value-env entry in any order, so
firing it first keeps every irreducible state and its step count.  The
non-termination flag is kept only where runs cannot loop: a confluent
receive of a copy that a replicated receiver spawned can return to a state
already visited, leaving the search finite where the full search grows
without bound.  Nothing is prioritised in a state whose process contains a
process identifier (its definitions are not inspected) or binds one name
at two sites.

A chain fires confluent steps one after another on mutable state that
lives only as long as the chain, in the manner of a chemical abstract
machine (Berry & Boudol, POPL 1990): the list of top-level components in
term order, the top restriction chain, the value env, and counters of how
the whole term uses its names (output and input subject counts, the
multisets of object names and of binders, the substitutable names, that is
input binders and function results, and the number of binder sites that
repeat a name).  A step subtracts the uses of the one or two components it
consumes, lifts only the components it creates, in their place, and adds
their uses, so it costs the size of the components it touches, not of the
term.  Lifting flattens nested parallels, drops inactive components and
hoists restrictions into the top chain under fresh names.  That exposes the
next step's components to the rule above, keeps every binder distinct, and
keeps hoisted channels unobservable (a fresh name is never recorded in the
value env, as a canonically renamed one is not).  The term is walked whole
once, at the chain's start, and built once, at its end; only the end is
normalized.  Whether it has a process identifier is also checked once, at
the start, since a confluent step creates none.

A chain always ends, so no cycle proviso is needed: every confluent step
consumes one top-level input prefix or function application, and creates
none (the continuation it exposes was already part of the term; a
replicated sender ``!'c<v..>.0`` leaves only an inactive copy behind).  In
a term without process identifiers, which is where the rule applies, the
number of input prefixes and function applications therefore falls by one
per confluent step.

Replication bodies and identifier definitions must be communication-guarded
(start with a prefix or a choice of prefixes); that holds for every process
this oracle is asked to reduce and is checked at offer-collection time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from ..errors import OracleConfigError, ReductionError, ResourceLimitError, StructuralError
from .congruence import canonical_key, normalize, split_top
from .process import (
    Choice,
    FunctionApply,
    InputPrefix,
    Name,
    Nil,
    OutputPrefix,
    Parallel,
    PiProcess,
    ProcessId,
    Replication,
    Restriction,
    TOP,
    flatten_choice,
    free_names,
    fresh,
    lit,
    nu,
    par,
    substitute,
)

ComputeFn = Callable[..., object]


def _env_tuple(env: dict[Name, object]) -> tuple[tuple[Name, object], ...]:
    return tuple(sorted(env.items(), key=lambda kv: repr(kv[0])))


@dataclass(frozen=True)
class ReductionState:
    """Process plus the concrete values observed so far.

    ``value_env`` maps a name to the value most recently communicated over
    it (or bound to it by a function application); it starts from whatever
    initial seeding the caller provides.  ``defs`` and ``computes`` are
    shared context and excluded from equality.
    """

    process: PiProcess
    value_env: tuple[tuple[Name, object], ...] = ()
    step_count: int = 0
    defs: dict[str, PiProcess] = field(default_factory=dict, compare=False, hash=False)
    computes: dict[str, ComputeFn] = field(default_factory=dict, compare=False, hash=False)

    def env(self) -> dict[Name, object]:
        return dict(self.value_env)

    def with_process(self, p: PiProcess, env: dict[Name, object]) -> "ReductionState":
        return ReductionState(
            process=p,
            value_env=_env_tuple(env),
            step_count=self.step_count + 1,
            defs=self.defs,
            computes=self.computes,
        )


def initial_state(
    process: PiProcess,
    defs: dict[str, PiProcess] | None = None,
    computes: dict[str, ComputeFn] | None = None,
    seed_env: dict[Name, object] | None = None,
) -> ReductionState:
    env = dict(seed_env or {})
    return ReductionState(
        process=normalize(process),
        value_env=_env_tuple(env),
        step_count=0,
        defs=defs or {},
        computes=computes or {},
    )


@dataclass(frozen=True)
class _Offer:
    polarity: str  # "out" | "in"
    channel: Name
    names: tuple[Name, ...]  # payload or binders
    after: PiProcess  # component residue once this offer fires


def _collect_offers(
    p: PiProcess,
    defs: dict[str, PiProcess],
    unfolding: frozenset[str],
    inert_ok: bool = False,
) -> list[_Offer]:
    if isinstance(p, Nil) or isinstance(p, FunctionApply):
        return []
    if isinstance(p, OutputPrefix):
        return [_Offer("out", p.channel, p.payload, p.continuation)]
    if isinstance(p, InputPrefix):
        return [_Offer("in", p.channel, p.binders, p.continuation)]
    if isinstance(p, Choice):
        offers = []
        for branch in flatten_choice(p):
            # a non-prefix alternative can never be selected by the
            # communication axiom; it is inert, not an error
            offers.extend(_collect_offers(branch, defs, unfolding, inert_ok=True))
        return offers
    if isinstance(p, Replication):
        # lazy REPLICATION: firing a body offer spawns the copy next to !P
        inner = _collect_offers(p.body, defs, unfolding)
        return [replace(o, after=Parallel(o.after, p)) for o in inner]
    if isinstance(p, ProcessId):
        if p.ident in unfolding:
            raise StructuralError(f"unguarded recursion through process identifier {p.ident}")
        if p.ident not in defs:
            raise StructuralError(f"undefined process identifier {p.ident}")
        return _collect_offers(defs[p.ident], defs, unfolding | {p.ident}, inert_ok)
    if inert_ok:
        return []
    raise StructuralError(
        f"component is not communication-guarded: {p!r} "
        "(replication bodies and definitions must start with a prefix)"
    )


def _resolve(n: Name, env: dict[Name, object]) -> tuple[bool, object]:
    if n.is_literal:
        return True, n.value
    if n in env:
        return True, env[n]
    return False, None


def _observable(n: Name) -> bool:
    """Channels renamed by canonicalization are private and unobservable;
    recording them would only make equal runs look different."""
    return n.fresh_id is None and not n.text.startswith("%")


def reduce_step(state: ReductionState) -> set[ReductionState]:
    """All states reachable from ``state`` in exactly one reduction.

    Successors are returned in raw positional form (components rebuilt in
    place); distinct communication pairs between interchangeable components
    therefore stay distinct.  ``reduce_all`` deduplicates canonically.
    """
    chain, kids = split_top(state.process)
    env = state.env()
    successors: set[ReductionState] = set()

    def successor(changes: list[tuple[int, PiProcess]], new_env: dict) -> ReductionState:
        new_kids = list(kids)
        for i, kid in changes:
            new_kids[i] = kid
        return state.with_process(nu(chain, par(*new_kids)), new_env)

    offers_per_kid: list[list[_Offer]] = [
        _collect_offers(k, state.defs, frozenset()) for k in kids
    ]

    for i, offers_i in enumerate(offers_per_kid):
        for oi in offers_i:
            if oi.polarity != "out":
                continue
            for j, offers_j in enumerate(offers_per_kid):
                if i == j:
                    continue
                for oj in offers_j:
                    if oj.polarity != "in" or oj.channel != oi.channel:
                        continue
                    new_env = dict(env)
                    receiver = _receive(oi.channel, oi.names, oj.names, oj.after, new_env)
                    successors.add(successor([(i, oi.after), (j, receiver)], new_env))

    for i, kid in enumerate(kids):
        if not isinstance(kid, FunctionApply):
            continue
        new_env = dict(env)
        continuation = _fire(kid, new_env, state.computes)
        if continuation is not None:
            successors.add(successor([(i, continuation)], new_env))

    return successors


def _receive(
    channel: Name,
    payload: tuple[Name, ...],
    binders: tuple[Name, ...],
    after: PiProcess,
    env: dict[Name, object],
) -> PiProcess:
    """The receiver's residue ``after`` once ``payload`` arrives for
    ``binders`` on ``channel``; records the value sent in ``env`` when the
    channel is observable and every payload name has a value."""
    if len(payload) != len(binders):
        raise ReductionError(
            f"arity mismatch on channel {channel!r}: "
            f"output sends {len(payload)}, input binds {len(binders)}"
        )
    if _observable(channel) and payload:
        resolved = [_resolve(n, env) for n in payload]
        if all(ok for ok, _ in resolved):
            values = [v for _, v in resolved]
            env[channel] = values[0] if len(values) == 1 else tuple(values)
    return substitute(after, dict(zip(binders, payload)))


def _fire(
    kid: FunctionApply, env: dict[Name, object], computes: dict[str, ComputeFn]
) -> PiProcess | None:
    """The continuation of application ``kid`` once it fires, recording its
    result in ``env``; None while one of its arguments has no value."""
    resolved = [_resolve(n, env) for n in kid.args]
    if not all(ok for ok, _ in resolved):
        return None
    if kid.fn not in computes:
        raise OracleConfigError(f"no registered compute function named {kid.fn!r}")
    result = computes[kid.fn](*[v for _, v in resolved])
    out_name = lit(result)
    env[out_name] = result
    return substitute(kid.continuation, {kid.result: out_name})


class _Chain:
    """One chain of tau-confluent steps, on mutable state that lives only as
    long as the chain: the lifted top-level components in order, the top
    restriction chain, the value env, and how the whole term uses its names,
    kept up to date by every step (see the module docstring)."""

    def __init__(self, state: ReductionState):
        self.names, kids = split_top(state.process)
        self.env = state.env()
        self.computes = state.computes
        self.outputs: dict[Name, int] = {}  # output subjects
        self.inputs: dict[Name, int] = {}  # input subjects
        self.subjects: dict[Name, int] = {}  # output and input subjects
        self.objects: dict[Name, int] = {}  # payloads and function arguments
        self.binders: dict[Name, int] = {}
        self.substitutable: dict[Name, int] = {}  # input binders, function results
        self.bound_subjects = 0  # subject names that are literals or substitutable
        self.duplicates = 0  # binder sites beyond the first of each name
        # top-level senders ('c<..>.P and !'c<..>.P) by channel
        self.senders: dict[Name, list[PiProcess]] = {}
        for n in self.names:
            self._bind(n)
        self.kids: list[PiProcess] = []
        for kid in kids:
            self.kids.extend(self._expose(kid))

    def _bind(self, n: Name, sign: int = 1) -> None:
        before = self.binders.get(n, 0)
        self.binders[n] = before + sign
        if before >= (1 if sign > 0 else 2):
            self.duplicates += sign

    def _count(self, p: PiProcess, sign: int) -> None:
        """Add (``sign`` 1) or remove (-1) the name uses of component ``p``,
        and index it if it is a sender."""
        body = p.body if isinstance(p, Replication) else p
        if isinstance(body, OutputPrefix):
            group = self.senders.setdefault(body.channel, [])
            if sign > 0:
                group.append(p)
            else:
                group.remove(p)
        objects, subjects, substitutable = self.objects, self.subjects, self.substitutable
        subject_names: list[Name] = []
        bound: list[Name] = []  # input binders and function results
        stack = [p]
        while stack:
            q = stack.pop()
            cls = type(q)
            if cls is OutputPrefix or cls is InputPrefix:
                c = q.channel
                uses = self.outputs if cls is OutputPrefix else self.inputs
                uses[c] = uses.get(c, 0) + sign
                subject_names.append(c)
                if cls is OutputPrefix:
                    for n in q.payload:
                        objects[n] = objects.get(n, 0) + sign
                else:
                    bound.extend(q.binders)
                stack.append(q.continuation)
            elif cls is FunctionApply:
                for n in q.args:
                    objects[n] = objects.get(n, 0) + sign
                bound.append(q.result)
                stack.append(q.continuation)
            elif cls is Restriction:
                self._bind(q.name, sign)
                stack.append(q.body)
            elif cls is Choice or cls is Parallel:
                stack.append(q.right)
                stack.append(q.left)
            elif cls is Replication:
                stack.append(q.body)
        # a name joins or leaves the bound subjects when its count of
        # subject or substitutable uses reaches or leaves zero
        for n in subject_names:
            before = subjects.get(n, 0)
            subjects[n] = before + sign
            if (before == 0 or before + sign == 0) and (n.is_literal or substitutable.get(n)):
                self.bound_subjects += sign
        for n in bound:
            self._bind(n, sign)
            before = substitutable.get(n, 0)
            substitutable[n] = before + sign
            if (before == 0 or before + sign == 0) and subjects.get(n) and not n.is_literal:
                self.bound_subjects += sign

    def _expose(self, p: PiProcess) -> list[PiProcess]:
        """The components ``p`` adds to the top level, counted: nested
        parallels flattened, inactive components dropped, and restrictions
        hoisted into the top chain under fresh names (scope extrusion; a
        fresh name is free nowhere else and bound nowhere else)."""
        parts: list[PiProcess] = []
        todo = [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Parallel):
                todo.append(q.right)
                todo.append(q.left)
            elif isinstance(q, Restriction):
                renames = {}
                while isinstance(q, Restriction):
                    n = fresh(q.name.text)
                    self.names.append(n)
                    self._bind(n)
                    renames[q.name] = n
                    q = q.body
                todo.append(substitute(q, renames))
            elif not isinstance(q, Nil):
                self._count(q, 1)
                parts.append(q)
        return parts

    def _replace(self, changes: list[tuple[int, PiProcess]]) -> None:
        """Replace the component at each position by the lifted components
        of its residue, lifting in component order so that fresh names join
        the top chain in term order."""
        kids = self.kids
        lifted = []
        for i, residue in sorted(changes, key=lambda change: change[0]):
            self._count(kids[i], -1)
            lifted.append((i, self._expose(residue)))
        for i, parts in reversed(lifted):
            kids[i:i + 1] = parts

    def step(self) -> bool:
        """Fire the first confluent step, if there is one."""
        if self.duplicates:
            return False
        kids = self.kids
        if not self.bound_subjects:
            for i, kid in enumerate(kids):
                if isinstance(kid, FunctionApply) and all(n.is_literal for n in kid.args):
                    self._replace([(i, _fire(kid, self.env, self.computes))])
                    return True
        for j, receiver in enumerate(kids):
            if not isinstance(receiver, InputPrefix):
                continue
            c = receiver.channel
            if c.is_literal or self.outputs.get(c) != 1 or self.objects.get(c):
                continue
            senders = self.senders.get(c)
            if not senders:
                continue
            (sender,) = senders
            replicated = isinstance(sender, Replication)
            out_prefix = sender.body if replicated else sender
            if replicated and not isinstance(out_prefix.continuation, Nil):
                continue
            if not replicated and self.inputs[c] != 1:
                continue
            if not all(n.is_literal for n in out_prefix.payload):
                continue
            residue = _receive(c, out_prefix.payload, receiver.binders,
                               receiver.continuation, self.env)
            changes = [(j, residue)]
            # a replicated sender leaves only an inactive copy behind
            if not replicated:
                changes.append((kids.index(sender), sender.continuation))
            self._replace(changes)
            return True
        return False


def _confluent_chain(state: ReductionState, budget: int) -> tuple[ReductionState, int]:
    """Fire confluent steps from ``state``, at most ``budget`` of them, on
    lifted components; return the last state reached (not normalized) and
    the number of steps fired."""
    if free_names(state.process) is TOP:
        return state, 0  # a confluent step creates no process identifier
    chain = _Chain(state)
    fired = 0
    while fired < budget and chain.step():
        fired += 1
    if not fired:
        return state, 0
    return replace(
        state,
        process=nu(chain.names, par(*chain.kids)),
        value_env=_env_tuple(chain.env),
        step_count=state.step_count + fired,
    ), fired


@dataclass
class ReduceAllResult:
    irreducible: list[ReductionState]
    non_terminating: bool
    explored: int
    truncated: bool
    chained: int = 0  # confluent steps fired inside chains

    def final_value_sets(self, names: Iterable[Name]) -> list[dict[Name, object]]:
        wanted = set(names)
        out = []
        for s in self.irreducible:
            values = final_values(s)
            out.append({n: v for n, v in values.items() if n in wanted})
        return out


def reduce_all(
    state: ReductionState,
    max_steps: int,
    max_states: int = 200_000,
) -> ReduceAllResult:
    """Search for every irreducible state within ``max_steps`` steps.

    States are expanded in order of depth (steps from ``state``).  A state
    with a tau-confluent step runs a chain of them: confluent steps fire one
    after another (see the module docstring for the rule; function
    applications first, then communications by receiver, in component
    order) until none is left or the chain reaches depth ``max_steps``, and
    only the chain's end is normalized, keyed and queued, at the depth of
    its last step.  Any other state is expanded by every ``reduce_step``
    successor, one depth further.  A key reached again at a smaller depth
    before it is expanded moves to that depth, so every state keeps the
    least step count the search finds for it.

    Returns every irreducible state reached within the bound and flags
    non-termination when a state at depth ``max_steps`` is left unexpanded.
    ``explored`` counts the states expanded: a chain's intermediate states
    are neither keyed nor counted.  ``chained`` counts the confluent steps
    fired inside chains.  Exceeding ``max_states`` distinct states
    raises ResourceLimitError carrying the partial result; successors are
    expanded in canonical-key order, so the partial result does not depend
    on the hash seed.
    """

    def key_of(s: ReductionState) -> tuple[str, tuple]:
        return canonical_key(s.process), s.value_env

    start = replace(state, process=normalize(state.process))
    levels: dict[int, dict[tuple, ReductionState]] = {0: {key_of(start): start}}
    depth_of: dict[tuple, int] = {key: 0 for key in levels[0]}
    irreducible: dict[tuple, ReductionState] = {}
    explored = chained = 0

    def enqueue(k: tuple, canon: ReductionState, depth: int) -> None:
        seen = depth_of.get(k)
        if seen is not None:
            if seen <= depth:
                return
            # found again, shallower, before its expansion: move it up
            del levels[seen][k]
            if not levels[seen]:
                del levels[seen]
        depth_of[k] = depth
        levels.setdefault(depth, {})[k] = canon
        if len(depth_of) > max_states:
            partial = ReduceAllResult(
                irreducible=list(irreducible.values()),
                non_terminating=True,
                explored=explored,
                truncated=True,
                chained=chained,
            )
            raise ResourceLimitError(f"state space exceeded {max_states} nodes", partial=partial)

    while levels:
        depth = min(levels)
        if depth >= max_steps:
            break
        for s in levels.pop(depth).values():
            explored += 1
            end, fired = _confluent_chain(s, max_steps - depth)
            if fired:
                chained += fired
                canon = replace(end, process=normalize(end.process))
                enqueue(key_of(canon), canon, depth + fired)
                continue
            successors = reduce_step(s)
            if not successors:
                irreducible.setdefault(key_of(s), s)
                continue
            canons = []
            for succ in successors:
                canon = replace(succ, process=normalize(succ.process))
                canons.append((key_of(canon), canon))
            # expand in a fixed order, so a search cut off by max_states
            # explores the same states whatever the set's iteration order
            canons.sort(key=lambda kc: (kc[0][0], repr(kc[0][1])))
            for k, canon in canons:
                enqueue(k, canon, depth + 1)

    return ReduceAllResult(
        irreducible=list(irreducible.values()),
        non_terminating=bool(levels),
        explored=explored,
        truncated=False,
        chained=chained,
    )


def final_values(state: ReductionState) -> dict[Name, object]:
    """Observed channel values: the env plus unconsumed published outputs.

    An output of a literal with no continuation publishes the value of a
    state even when nothing reads it: replicated (``!'q<v>.0``, the
    non-recursive translation) or read-once (``'p<v>.0``, the recursive
    store).  The oracle reports those alongside values actually
    communicated, on observable channels only, as the env records them.
    """
    values = state.env()
    _, kids = split_top(state.process)
    for kid in kids:
        body = kid.body if isinstance(kid, Replication) else kid
        if (
            isinstance(body, OutputPrefix)
            and isinstance(body.continuation, Nil)
            and len(body.payload) == 1
            and body.payload[0].is_literal
            and _observable(body.channel)
        ):
            values[body.channel] = body.payload[0].value
    return values
