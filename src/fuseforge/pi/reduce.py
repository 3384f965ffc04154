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

A chain fires confluent steps one after another on *lifted* terms, not
normalized ones: after each step, nested parallels are flattened, inactive
components dropped and the restrictions of components hoisted into the top
restriction chain under fresh names.  That exposes the next step's
components to the rule above, keeps every binder distinct, and keeps
hoisted channels unobservable (a fresh name is never recorded in the
value env, as a canonically renamed one is not).  Only the chain's end is
normalized.

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

from collections import Counter
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
            value_env=tuple(sorted(env.items(), key=lambda kv: repr(kv[0]))),
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
        value_env=tuple(sorted(env.items(), key=lambda kv: repr(kv[0]))),
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
                    successors.add(_communicate(state, chain, kids, env, i, oi, j, oj))

    for i, kid in enumerate(kids):
        if not isinstance(kid, FunctionApply):
            continue
        succ = _apply(state, chain, kids, env, i)
        if succ is not None:
            successors.add(succ)

    return successors


def _communicate(
    state: ReductionState,
    chain: list[Name],
    kids: list[PiProcess],
    env: dict[Name, object],
    i: int,
    oi: _Offer,
    j: int,
    oj: _Offer,
) -> ReductionState:
    """The successor where output offer ``oi`` of component ``i`` meets input
    offer ``oj`` of component ``j``."""
    if len(oi.names) != len(oj.names):
        raise ReductionError(
            f"arity mismatch on channel {oi.channel!r}: "
            f"output sends {len(oi.names)}, input binds {len(oj.names)}"
        )
    receiver = substitute(oj.after, dict(zip(oj.names, oi.names)))
    new_kids = list(kids)
    new_kids[i] = oi.after
    new_kids[j] = receiver
    new_env = dict(env)
    if _observable(oi.channel):
        values = []
        all_known = True
        for n in oi.names:
            ok, v = _resolve(n, env)
            values.append(v)
            all_known = all_known and ok
        if all_known and values:
            new_env[oi.channel] = values[0] if len(values) == 1 else tuple(values)
    return state.with_process(nu(chain, par(*new_kids)), new_env)


def _apply(
    state: ReductionState,
    chain: list[Name],
    kids: list[PiProcess],
    env: dict[Name, object],
    i: int,
) -> ReductionState | None:
    """The successor where the function application ``kids[i]`` fires, or
    None while one of its arguments has no value."""
    kid = kids[i]
    resolved = [_resolve(n, env) for n in kid.args]
    if not all(ok for ok, _ in resolved):
        return None
    if kid.fn not in state.computes:
        raise OracleConfigError(f"no registered compute function named {kid.fn!r}")
    result = state.computes[kid.fn](*[v for _, v in resolved])
    out_name = lit(result)
    new_kids = list(kids)
    new_kids[i] = substitute(kid.continuation, {kid.result: out_name})
    new_env = dict(env)
    new_env[out_name] = result
    return state.with_process(nu(chain, par(*new_kids)), new_env)


@dataclass(frozen=True)
class _ChannelUses:
    """How a term uses its names: subject counts, the names in object
    positions, and whether a received or computed name can be a subject."""

    outputs: Counter
    inputs: Counter
    objects: frozenset[Name]
    bound_subjects: bool


def _channel_uses(p: PiProcess) -> _ChannelUses | None:
    """Name uses across the whole of ``p``, or None if some name is bound at
    two binder sites (then a syntactic count could conflate two channels)."""
    outputs: Counter = Counter()
    inputs: Counter = Counter()
    objects: set[Name] = set()
    binders: set[Name] = set()
    substitutable: set[Name] = set()  # input binders and function results
    subjects: set[Name] = set()
    stack = [p]
    while stack:
        q = stack.pop()
        bound: tuple[Name, ...] = ()
        if isinstance(q, OutputPrefix):
            outputs[q.channel] += 1
            subjects.add(q.channel)
            objects.update(q.payload)
            stack.append(q.continuation)
        elif isinstance(q, InputPrefix):
            inputs[q.channel] += 1
            subjects.add(q.channel)
            bound = q.binders
            substitutable.update(bound)
            stack.append(q.continuation)
        elif isinstance(q, FunctionApply):
            objects.update(q.args)
            bound = (q.result,)
            substitutable.add(q.result)
            stack.append(q.continuation)
        elif isinstance(q, Restriction):
            bound = (q.name,)
            stack.append(q.body)
        elif isinstance(q, (Choice, Parallel)):
            stack.extend((q.left, q.right))
        elif isinstance(q, Replication):
            stack.append(q.body)
        for b in bound:
            if b in binders:
                return None
            binders.add(b)
    bound_subjects = any(n.is_literal or n in substitutable for n in subjects)
    return _ChannelUses(outputs, inputs, frozenset(objects), bound_subjects)


def _confluent_step(state: ReductionState) -> ReductionState | None:
    """The successor by the first tau-confluent step of ``state`` (see the
    module docstring), or None if it has none."""
    p = state.process
    if free_names(p) is TOP:
        return None
    uses = _channel_uses(p)
    if uses is None:
        return None
    chain, kids = split_top(p)
    env = state.env()
    if not uses.bound_subjects:
        for i, kid in enumerate(kids):
            if isinstance(kid, FunctionApply) and all(n.is_literal for n in kid.args):
                return _apply(state, chain, kids, env, i)
    for j, receiver in enumerate(kids):
        if not isinstance(receiver, InputPrefix):
            continue
        c = receiver.channel
        if c.is_literal or uses.outputs[c] != 1 or c in uses.objects:
            continue
        for i, sender in enumerate(kids):
            replicated = isinstance(sender, Replication)
            out_prefix = sender.body if replicated else sender
            if not isinstance(out_prefix, OutputPrefix) or out_prefix.channel != c:
                continue
            if replicated and not isinstance(out_prefix.continuation, Nil):
                break
            if not replicated and uses.inputs[c] != 1:
                break
            if not all(n.is_literal for n in out_prefix.payload):
                break
            (oi,) = _collect_offers(sender, state.defs, frozenset())
            (oj,) = _collect_offers(receiver, state.defs, frozenset())
            return _communicate(state, chain, kids, env, i, oi, j, oj)
    return None


@dataclass
class ReduceAllResult:
    irreducible: list[ReductionState]
    non_terminating: bool
    explored: int
    truncated: bool

    def final_value_sets(self, names: Iterable[Name]) -> list[dict[Name, object]]:
        wanted = set(names)
        out = []
        for s in self.irreducible:
            values = final_values(s)
            out.append({n: v for n, v in values.items() if n in wanted})
        return out


def _lift(p: PiProcess) -> PiProcess:
    """``p`` with its top-level components exposed for the next confluent
    step: nested parallels flattened, inactive components dropped, and the
    restrictions of components hoisted into the top chain under fresh names
    (scope extrusion; a fresh name is free nowhere else and bound nowhere
    else).  Nothing is sorted or renamed canonically."""
    chain, todo = split_top(p)
    kids: list[PiProcess] = []
    todo.reverse()
    while todo:
        q = todo.pop()
        if isinstance(q, Parallel):
            todo.append(q.right)
            todo.append(q.left)
        elif isinstance(q, Restriction):
            n = fresh(q.name.text)
            chain.append(n)
            todo.append(substitute(q.body, {q.name: n}))
        elif not isinstance(q, Nil):
            kids.append(q)
    return nu(chain, par(*kids))


def _confluent_chain(state: ReductionState, budget: int) -> tuple[ReductionState, int]:
    """Fire confluent steps from ``state``, at most ``budget`` of them, on
    lifted terms; return the last state reached (not normalized) and the
    number of steps fired."""
    fired = 0
    while fired < budget:
        step = _confluent_step(state)
        if step is None:
            break
        state = replace(step, process=_lift(step.process))
        fired += 1
    return state, fired


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
    are neither keyed nor counted.  Exceeding ``max_states`` distinct states
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
    explored = 0

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
    )


def final_values(state: ReductionState) -> dict[Name, object]:
    """Observed channel values: the env plus unconsumed published outputs.

    An output of a literal with no continuation publishes the value of a
    state even when nothing reads it: replicated (``!'q<v>.0``, the
    non-recursive translation) or read-once (``'p<v>.0``, the recursive
    store).  The oracle reports those alongside values actually
    communicated.
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
        ):
            values[body.channel] = body.payload[0].value
    return values
