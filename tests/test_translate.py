"""Shape and semantics of the equation-to-process translations."""

from __future__ import annotations

import random

import pytest

from fuseforge.equations import BehavioralEquation, StateRef
from fuseforge.errors import WrongCaseError
from fuseforge.pi import (
    FunctionApply,
    InputPrefix,
    OutputPrefix,
    Parallel,
    ProcessId,
    Replication,
    Restriction,
    final_values,
    initial_state,
    initializer,
    inp,
    lit,
    name,
    out,
    par,
    recursive_process_ident,
    reduce_all,
    translate_nonrecursive,
    translate_recursive,
)


def _strip_restrictions(p):
    while isinstance(p, Restriction):
        p = p.body
    return p


def _flatten_par(p):
    if isinstance(p, Parallel):
        return _flatten_par(p.left) + _flatten_par(p.right)
    return [p]


def _shape_of_nonrecursive(proc, n_refs: int):
    """Root input, nu d / nu m, n parallel receivers, sequential collector."""
    assert isinstance(proc, InputPrefix)
    assert len(proc.binders) == 1
    body = proc.continuation
    restrictions = 0
    while isinstance(body, Restriction):
        restrictions += 1
        body = body.body
    assert restrictions == 2  # nu d, nu m
    components = _flatten_par(body)
    receivers = [
        c for c in components
        if isinstance(c, InputPrefix)
        and isinstance(c.continuation, OutputPrefix)
        and isinstance(c.continuation.continuation.__class__.__name__, str)
        and c.continuation.continuation.__class__.__name__ == "Nil"
    ]
    collectors = [c for c in components if c not in receivers]
    assert len(collectors) == 1
    collector = collectors[0]
    reads = 0
    while isinstance(collector, InputPrefix):
        reads += 1
        collector = collector.continuation
    assert reads == n_refs
    assert isinstance(collector, FunctionApply)
    assert isinstance(collector.continuation, Replication)
    assert isinstance(collector.continuation.body, OutputPrefix)
    return receivers, collector


def test_nonrecursive_three_refs_structure():
    eq = BehavioralEquation(
        StateRef(1), "op", (StateRef(2), StateRef(3), StateRef(4)), StateRef(1, 1)
    )
    proc = translate_nonrecursive(eq)
    receivers, collector = _shape_of_nonrecursive(proc, 3)
    assert len(receivers) == 3
    assert proc.channel == name("s1")
    assert collector.continuation.body.channel == name("s1g1")
    # f is applied to (m1, m2, m3, x)
    assert len(collector.args) == 4


def test_nonrecursive_empty_reference_set():
    eq = BehavioralEquation(StateRef(7), "f", (), StateRef(7, 1))
    proc = translate_nonrecursive(eq)
    receivers, collector = _shape_of_nonrecursive(proc, 0)
    assert receivers == []
    assert len(collector.args) == 1  # x alone


def test_receiver_count_matches_reference_set_size():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(0, 6)
        refs = tuple(StateRef(10 + j) for j in range(n))
        eq = BehavioralEquation(StateRef(1), "f", refs, StateRef(1, 1))
        receivers, _ = _shape_of_nonrecursive(translate_nonrecursive(eq), n)
        assert len(receivers) == n


def test_nonrecursive_rejects_recursive_equation():
    eq = BehavioralEquation(StateRef(1), "f", (), StateRef(1))
    with pytest.raises(WrongCaseError):
        translate_nonrecursive(eq)


def test_recursive_rejects_nonrecursive_equation():
    eq = BehavioralEquation(StateRef(1), "f", (), StateRef(1, 1))
    with pytest.raises(WrongCaseError):
        translate_recursive(eq)


def test_recursive_two_refs_shape():
    eq = BehavioralEquation(StateRef(1), "f", (StateRef(2), StateRef(3)), StateRef(1))
    proc = translate_recursive(eq)
    assert isinstance(proc, InputPrefix)
    assert proc.channel == name("resume")
    assert len(proc.binders) == 2
    inner = proc.continuation
    assert isinstance(inner, InputPrefix) and inner.channel == name("s1")
    apply_node = inner.continuation
    assert isinstance(apply_node, FunctionApply)
    branches = _flatten_par(apply_node.continuation)
    yields = [b for b in branches if isinstance(b, OutputPrefix) and b.channel == name("yield")]
    stores = [b for b in branches if isinstance(b, OutputPrefix) and b.channel == name("s1")]
    assert len(yields) == 1 and len(stores) == 1
    # yield carries (p, y, i_1, i_2)
    assert yields[0].payload == (name("s1"), apply_node.result, name("s2"), name("s3"))
    assert isinstance(yields[0].continuation, ProcessId)


def test_recursive_empty_reference_set_shape():
    eq = BehavioralEquation(StateRef(4), "f", (), StateRef(4))
    proc = translate_recursive(eq)
    assert proc.channel == name("resume")
    assert len(proc.binders) == 0
    apply_node = proc.continuation.continuation
    yields = [
        b for b in _flatten_par(apply_node.continuation)
        if isinstance(b, OutputPrefix) and b.channel == name("yield")
    ]
    assert yields[0].payload == (name("s4"), apply_node.result)


COMPUTES = {"f": lambda m, x: x + m}


def scheduler_state():
    """p := f{i}.p translated recursively, with a scheduler feeding the
    i-values 3 then 4 over resume/yield."""
    p, i = StateRef(1), StateRef(9)
    eq = BehavioralEquation(p, "f", (i,), p)
    body = translate_recursive(eq)
    ident = recursive_process_ident(eq)
    ych, p_chan = name("yield"), name("s1")
    b1 = tuple(name(f"b{k}") for k in range(3))
    scheduler = out(
        name("resume"), (lit(3),),
        inp(ych, b1, out(name("resume"), (lit(4),), inp(ych, b1))),
    )
    system = par(body, out(p_chan, lit(5)), scheduler)
    return initial_state(system, defs={ident: body}, computes=COMPUTES)


def chained_state():
    """The same function chained non-recursively: p := f{i0}.p',
    p' := f{i1}.p''."""
    q0, q1, q2 = StateRef(1, 0), StateRef(1, 1), StateRef(1, 2)
    i0, i1 = StateRef(90), StateRef(91)
    chain = par(
        translate_nonrecursive(BehavioralEquation(q0, "f", (i0,), q1)),
        translate_nonrecursive(BehavioralEquation(q1, "f", (i1,), q2)),
        initializer(q0, 5),
        initializer(i0, 3),
        initializer(i1, 4),
    )
    return initial_state(chain, computes=COMPUTES)


def test_recursive_against_scheduler_matches_chained_nonrecursive():
    """Driving the recursive process through two supersteps over resume/yield
    reproduces the chained non-recursive translation of the same function."""
    result = reduce_all(scheduler_state(), max_steps=60)
    assert not result.non_terminating
    recursive_finals = {final_values(s).get(name("s1")) for s in result.irreducible}

    result2 = reduce_all(chained_state(), max_steps=60)
    assert not result2.non_terminating
    chained_finals = {final_values(s).get(name("s1g2")) for s in result2.irreducible}

    assert recursive_finals == chained_finals == {12}
