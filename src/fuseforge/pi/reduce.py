"""Reduction semantics: one communication step at a time.

A reduction state carries the process, a value environment mapping names to
the concrete values communication has bound so far, and a step counter.
``reduce_step`` enumerates every one-step successor: each complementary
(output, input) pair of distinct parallel components, plus every enabled
host-function application.  Replication and process identifiers unfold
lazily, only when the unfolding offers a communication.

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
    flatten_choice,
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
                    successors.add(state.with_process(nu(chain, par(*new_kids)), new_env))

    for i, kid in enumerate(kids):
        if not isinstance(kid, FunctionApply):
            continue
        resolved = [_resolve(n, env) for n in kid.args]
        if not all(ok for ok, _ in resolved):
            continue
        if kid.fn not in state.computes:
            raise OracleConfigError(f"no registered compute function named {kid.fn!r}")
        result = state.computes[kid.fn](*[v for _, v in resolved])
        out_name = lit(result)
        new_kids = list(kids)
        new_kids[i] = substitute(kid.continuation, {kid.result: out_name})
        new_env = dict(env)
        new_env[out_name] = result
        successors.add(state.with_process(nu(chain, par(*new_kids)), new_env))

    return successors


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


def reduce_all(
    state: ReductionState,
    max_steps: int,
    max_states: int = 200_000,
) -> ReduceAllResult:
    """Exhaustive BFS over ``reduce_step`` up to ``max_steps`` levels.

    Returns every irreducible state reached within the bound and flags
    non-termination when the frontier is still nonempty at the bound.
    Exceeding ``max_states`` distinct states raises ResourceLimitError
    carrying the partial result; successors are expanded in canonical-key
    order, so the partial result does not depend on the hash seed.
    """

    def key_of(s: ReductionState) -> tuple[str, tuple]:
        return canonical_key(s.process), s.value_env

    start = replace(
        state.with_process(normalize(state.process), state.env()),
        step_count=state.step_count,
    )
    frontier: dict[tuple, ReductionState] = {key_of(start): start}
    visited: set[tuple] = set(frontier)
    irreducible: dict[tuple, ReductionState] = {}
    explored = 0

    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier: dict[tuple, ReductionState] = {}
        for s in frontier.values():
            successors = reduce_step(s)
            explored += 1
            if not successors:
                irreducible.setdefault(key_of(s), s)
                continue
            canons = []
            for succ in successors:
                canon = succ.with_process(normalize(succ.process), succ.env())
                canon = replace(canon, step_count=succ.step_count)
                canons.append((key_of(canon), canon))
            # expand in a fixed order, so a search cut off by max_states
            # explores the same states whatever the set's iteration order
            canons.sort(key=lambda kc: (kc[0][0], repr(kc[0][1])))
            for k, canon in canons:
                if k in visited:
                    continue
                visited.add(k)
                next_frontier[k] = canon
                if len(visited) > max_states:
                    partial = ReduceAllResult(
                        irreducible=list(irreducible.values()),
                        non_terminating=True,
                        explored=explored,
                        truncated=True,
                    )
                    raise ResourceLimitError(
                        f"state space exceeded {max_states} nodes", partial=partial
                    )
        frontier = next_frontier

    return ReduceAllResult(
        irreducible=list(irreducible.values()),
        non_terminating=bool(frontier),
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
