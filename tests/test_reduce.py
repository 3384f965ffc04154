"""Reduction semantics: memory-cell trace, translated systems, bounds."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import fuseforge
from fuseforge.equations import BehavioralEquation, StateRef
from fuseforge.errors import OracleConfigError, ReductionError, ResourceLimitError
from fuseforge.pi import (
    FUNCTION_ENCODING_EXTRA_STEPS,
    FunctionApply,
    NIL,
    ProcessId,
    ReductionState,
    choice,
    final_values,
    initial_state,
    initializer,
    inp,
    lit,
    naive_recursive_composition,
    name,
    normalize,
    nu,
    out,
    par,
    reduce_all,
    reduce_step,
    state_channel,
    translate_nonrecursive,
)

from full_search import full_search

i, o, x = name("i"), name("o"), name("x")


def renorm(state: ReductionState) -> ReductionState:
    return ReductionState(
        normalize(state.process), state.value_env, state.step_count,
        state.defs, state.computes,
    )


def memory_cell_defs():
    # one-slot cell: reading is destructive (the read branch re-arms empty)
    body = inp(i, x, choice(out(o, x, ProcessId("B")), ProcessId("B")))
    return {"B": body}


def test_memory_cell_trace_step_for_step():
    defs = memory_cell_defs()
    user = out(i, lit(5), out(i, lit(6), inp(o, x)))
    state = initial_state(nu((i, o), par(ProcessId("B"), user)), defs=defs)

    expected = [
        nu((i, o), par(choice(out(o, lit(5), ProcessId("B")), ProcessId("B")),
                       out(i, lit(6), inp(o, x)))),
        nu((i, o), par(choice(out(o, lit(6), ProcessId("B")), ProcessId("B")),
                       inp(o, x))),
        nu((i, o), ProcessId("B")),
    ]
    for step, want in enumerate(expected, start=1):
        successors = reduce_step(state)
        assert len(successors) == 1, f"step {step}: expected a single successor"
        state = renorm(next(iter(successors)))
        assert state.process == normalize(want), f"step {step} diverged"
        assert state.step_count == step
    # destructive read observed the second write
    assert state.env()[o] == 6
    assert reduce_step(state) == set()


def test_nil_has_no_successors():
    assert reduce_step(initial_state(NIL)) == set()


def test_two_cells_receive_one_write_two_successors():
    # two cells in parallel, one write: the receiver choice is visible as two
    # distinct raw successors (they collapse to one canonical state)
    defs = memory_cell_defs()
    state = initial_state(
        par(ProcessId("B"), ProcessId("B"), out(i, lit(5))), defs=defs
    )
    successors = reduce_step(state)
    assert len(successors) == 2
    canonical = {normalize(s.process) for s in successors}
    assert len(canonical) == 1


def test_reduce_all_fixed_point_on_irreducible():
    state = initial_state(inp(i, x))
    result = reduce_all(state, max_steps=10)
    assert not result.non_terminating
    assert [s.process for s in result.irreducible] == [state.process]


def test_arity_mismatch_raises():
    state = initial_state(par(out(i, (lit(1), lit(2))), inp(i, x)))
    with pytest.raises(ReductionError):
        reduce_step(state)


def test_unregistered_compute_raises():
    state = initial_state(FunctionApply("nope", (lit(1),), name("y"), NIL))
    with pytest.raises(OracleConfigError):
        reduce_step(state)


def n_reference_system(n: int):
    """One translated equation over ``n`` references, with initializers for
    its lhs (10) and references (1..n)."""
    lhs = StateRef(0)
    rhs = StateRef(0, generation=1)
    refs = tuple(StateRef(j + 1) for j in range(n))
    eq = BehavioralEquation(lhs, "acc", refs, rhs)
    system = par(
        translate_nonrecursive(eq),
        initializer(lhs, 10),
        *[initializer(r, j + 1) for j, r in enumerate(refs)],
    )
    return system, {"acc": lambda *args: sum(args)}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_translated_equation_step_count(n):
    """Composed with initializers, a translated equation reaches irreducible
    form in exactly 2n + 2 + k steps (k = function-encoding extra steps)."""
    system, computes = n_reference_system(n)
    result = reduce_all(initial_state(system, computes=computes), max_steps=50)
    assert not result.non_terminating
    assert result.irreducible
    want = 2 * n + 2 + FUNCTION_ENCODING_EXTRA_STEPS
    assert {s.step_count for s in result.irreducible} == {want}
    # the rhs channel publishes sum(refs) + lhs value
    rhs_chan = name("s0g1")
    for s in result.irreducible:
        assert final_values(s)[rhs_chan] == 10 + sum(range(1, n + 1))


def two_core_example():
    """Two cores, values 5 and 6, two supersteps of f/g exchanges."""
    p = {k: StateRef(k) for k in range(1, 7)}
    name_of = lambda r: f"p{r.agent_id}"
    eqs = [
        BehavioralEquation(p[1], "f", (p[2],), p[3]),
        BehavioralEquation(p[2], "g", (p[1],), p[4]),
        BehavioralEquation(p[3], "f", (p[4],), p[5]),
        BehavioralEquation(p[4], "g", (p[3],), p[6]),
    ]
    computes = {"f": lambda m, x: x + m, "g": lambda m, x: x - m}
    inner = par(
        initializer(p[1], 5, name_of),
        initializer(p[2], 6, name_of),
        translate_nonrecursive(eqs[0], name_of),
        translate_nonrecursive(eqs[1], name_of),
    )
    # terminal channels p5/p6 stay free so their values are observable
    system = nu(
        (name("p3"), name("p4")),
        par(
            nu((name("p1"), name("p2")), inner),
            translate_nonrecursive(eqs[2], name_of),
            translate_nonrecursive(eqs[3], name_of),
        ),
    )
    return system, computes


def test_two_core_two_superstep_oracle():
    system, computes = two_core_example()
    result = reduce_all(initial_state(system, computes=computes), max_steps=100)
    assert not result.non_terminating
    assert result.irreducible
    finals = result.final_value_sets([name("p5"), name("p6")])
    assert all(fv == {name("p5"): 12, name("p6"): -10} for fv in finals)
    assert {s.step_count for s in result.irreducible} == {16}
    # every step of the exchange is tau-confluent: one chain from the start
    # to the end state
    assert result.explored == 2
    # one state per congruence class: no class keeps two representatives
    assert full_search(initial_state(system, computes=computes), max_steps=100).explored == 57


def three_equation_system():
    """A three-agent superstep with the order-sensitive f(m, x) = 10x + m."""
    a0, a1, a2 = StateRef(0), StateRef(1), StateRef(2)
    b0, b1, b2 = StateRef(0, 1), StateRef(1, 1), StateRef(2, 1)
    eqs = [
        BehavioralEquation(a0, "f", (a1,), b0),
        BehavioralEquation(a1, "f", (a2,), b1),
        BehavioralEquation(a2, "f", (a0,), b2),
    ]
    system = par(
        *[translate_nonrecursive(eq) for eq in eqs],
        initializer(a0, 1), initializer(a1, 2), initializer(a2, 3),
    )
    return system, {"f": lambda m, x: 10 * x + m}


def test_three_equation_superstep_deterministic():
    """Every maximal reduction sequence of a composed three-equation
    superstep reaches the same terminal values."""
    system, computes = three_equation_system()
    result = reduce_all(initial_state(system, computes=computes), max_steps=100)
    assert not result.non_terminating
    finals = result.final_value_sets([name("s0g1"), name("s1g1"), name("s2g1")])
    assert all(
        fv == {name("s0g1"): 12, name("s1g1"): 23, name("s2g1"): 31}
        for fv in finals
    )


def test_naive_recursive_composition_never_terminates():
    p1, p2 = StateRef(1), StateRef(2)
    name_of = lambda r: f"p{r.agent_id}"
    ref1, defs1 = naive_recursive_composition(
        BehavioralEquation(p1, "f", (p2,), p1), name_of
    )
    ref2, defs2 = naive_recursive_composition(
        BehavioralEquation(p2, "g", (p1,), p2), name_of
    )
    system = par(ref1, ref2, initializer(p1, 5, name_of), initializer(p2, 6, name_of))
    computes = {"f": lambda m, x: x + m, "g": lambda m, x: x - m}
    state = initial_state(system, defs={**defs1, **defs2}, computes=computes)
    try:
        result = reduce_all(state, max_steps=10_000, max_states=4_000)
    except ResourceLimitError as exc:
        result = exc.partial
    assert result.non_terminating


def sprime_state() -> ReductionState:
    """Criterion 2's S': the two-core exchange composed recursively without
    yield/resume, whose reduction never terminates."""
    p1, p2 = StateRef(1), StateRef(2)
    name_of = lambda r: f"p{r.agent_id}"
    ref1, defs1 = naive_recursive_composition(
        BehavioralEquation(p1, "f", (p2,), p1), name_of
    )
    ref2, defs2 = naive_recursive_composition(
        BehavioralEquation(p2, "g", (p1,), p2), name_of
    )
    system = par(ref1, ref2, initializer(p1, 5, name_of), initializer(p2, 6, name_of))
    computes = {"f": lambda m, x: x + m, "g": lambda m, x: x - m}
    return initial_state(system, defs={**defs1, **defs2}, computes=computes)


def superstep_state(refs: dict, compute: dict, values: list, steps: int,
                    computes: dict) -> ReductionState:
    """Agents 0..k-1 over ``steps`` supersteps: agent a reads the agents
    ``refs[a]`` and applies ``compute[a]``.  Each superstep's input states
    are restricted around it; the last superstep's results stay free, on
    the channels ``s{a}g{steps}``."""
    k = len(values)

    def ref(step, a):
        return StateRef(a, generation=step)

    def superstep(step):
        return [translate_nonrecursive(BehavioralEquation(
            ref(step, a), compute[a], tuple(ref(step, b) for b in refs[a]), ref(step + 1, a)))
            for a in range(k)]

    def inputs(step):
        return tuple(state_channel(ref(step, a)) for a in range(k))

    system = nu(inputs(0), par(*[initializer(ref(0, a), v) for a, v in enumerate(values)],
                               *superstep(0)))
    for step in range(1, steps):
        system = nu(inputs(step), par(system, *superstep(step)))
    return initial_state(system, computes=computes)


def ring_state(values: list[int], steps: int) -> ReductionState:
    """A ring: agent a reads agent a-1; even agents add what they read, odd
    ones subtract it."""
    k = len(values)
    return superstep_state({a: ((a - 1) % k,) for a in range(k)},
                           {a: "f" if a % 2 == 0 else "g" for a in range(k)},
                           values, steps,
                           {"f": lambda m, x: x + m, "g": lambda m, x: x - m})


def ring_arithmetic(values: list[int], steps: int) -> list[int]:
    """The ring's values after ``steps`` supersteps, computed directly."""
    for _ in range(steps):
        values = [v + values[a - 1] if a % 2 == 0 else v - values[a - 1]
                  for a, v in enumerate(values)]
    return values


@pytest.mark.parametrize("agents,steps", [(100, 1), (20, 2)])
def test_large_rings_reduce_in_one_chain(agents, steps):
    """Every step of a ring is confluent, so the start runs one chain of
    4 steps per agent and superstep to the final state, at the default
    recursion limit."""
    values = [3 * a + 1 for a in range(agents)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = reduce_all(ring_state(values, steps), max_steps=10_000)
    finally:
        sys.setrecursionlimit(limit)
    assert result.explored == 2 and not result.non_terminating
    assert result.chained == 4 * agents * steps
    (end,) = result.irreducible
    assert end.step_count == 4 * agents * steps
    finals = final_values(end)
    assert [finals[name(f"s{a}g{steps}")] for a in range(agents)] == \
        ring_arithmetic(values, steps)


TRUNCATED_SEARCH = """
from fuseforge.errors import ResourceLimitError
from fuseforge.pi import canonical_key, reduce_all
from test_reduce import ring_state, sprime_state
try:
    result = reduce_all(sprime_state(), max_steps=10_000, max_states=300)
except ResourceLimitError as exc:
    result = exc.partial
print(result.explored, len(result.irreducible), result.truncated)
ring = reduce_all(ring_state([5, 6, 7], 2), max_steps=100)
print(ring.explored, sorted(repr((canonical_key(s.process), s.value_env))
                            for s in ring.irreducible))
"""


def test_truncated_search_does_not_depend_on_hash_seed():
    """A search cut off by max_states, and one that prioritises confluent
    steps (the ring), explore the same states in processes whose string
    hashes, and so set iteration orders, differ."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fuseforge.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    outputs = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", TRUNCATED_SEARCH], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
    assert outputs.pop().split()[2] == "True"


def test_value_env_step_count_increments():
    state = initial_state(par(out(i, lit(1)), inp(i, x)))
    succ = next(iter(reduce_step(state)))
    assert succ.step_count == state.step_count + 1
