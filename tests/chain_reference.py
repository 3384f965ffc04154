"""Test-only reference chain: the chain of tau-confluent steps that
``reduce_all`` ran before it kept one indexed component list per chain.

``reference_chain`` rebuilds and rescans the whole term at every step: it
counts the channel uses of the whole term, rebuilds the parallel spine with
the step's new components, and lifts every component again.  It fires the
same steps in the same order as ``fuseforge.pi.reduce``'s chain, so the two
must reach the same end state, step count and value env.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from fuseforge.pi import ReductionState, split_top
from fuseforge.pi.process import (
    Choice,
    FunctionApply,
    InputPrefix,
    Name,
    Nil,
    OutputPrefix,
    Parallel,
    PiProcess,
    Replication,
    Restriction,
    TOP,
    free_names,
    fresh,
    nu,
    par,
    substitute,
)
from fuseforge.pi.reduce import _collect_offers, _fire, _receive


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


def _rebuilt(state: ReductionState, chain, kids, env, changes) -> ReductionState:
    new_kids = list(kids)
    for i, kid in changes:
        new_kids[i] = kid
    return state.with_process(nu(chain, par(*new_kids)), env)


def _confluent_step(state: ReductionState) -> ReductionState | None:
    """The successor by the first tau-confluent step of ``state``, or None
    if it has none."""
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
                return _rebuilt(state, chain, kids, env, [(i, _fire(kid, env, state.computes))])
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
            residue = _receive(oi.channel, oi.names, oj.names, oj.after, env)
            return _rebuilt(state, chain, kids, env, [(i, oi.after), (j, residue)])
    return None


def _lift(p: PiProcess) -> PiProcess:
    """``p`` with its top-level components exposed for the next confluent
    step: nested parallels flattened, inactive components dropped, and the
    restrictions of components hoisted into the top chain under fresh names.
    Nothing is sorted or renamed canonically."""
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


def reference_chain(state: ReductionState, budget: int) -> tuple[ReductionState, int]:
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
