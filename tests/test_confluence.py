"""``reduce_all`` runs interleavings of tau-confluent steps once; it must
find what the search over every interleaving finds.

Each system is reduced by ``reduce_all`` and by ``full_search`` at equal
bounds, and the two must agree on the irreducible states (canonical key and
value env), their step counts and the non-termination flag.  The corpus is
every oracle system of the other test modules, generated processes (which
never offer a confluent step, so they test the fallback), small rings,
seeded translated systems (where several references make message order
observable through an order-sensitive compute, or not through ``add``),
step budgets that cut a chain of confluent steps, and hand-made systems at
the edges of the rule.  On the same corpus, the chain that ``reduce_all``
runs must match ``chain_reference``, which rebuilds and rescans the whole
term at every step.  A last test checks the oracle against the runtime on
generated workloads.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from fuseforge.equations import BehavioralEquation, ComputeMethodContract, StateRef
from fuseforge.errors import ResourceLimitError
from fuseforge.graphgen import Graph, build_partitions
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.pi import (
    NIL,
    FunctionApply,
    ProcessId,
    bang,
    canonical_key,
    choice,
    final_values,
    initial_state,
    initializer,
    inp,
    lit,
    name,
    normalize,
    nu,
    out,
    par,
    reduce_all,
    reduce_step,
    translate_nonrecursive,
)
from fuseforge.pi.reduce import _confluent_chain
from fuseforge.runtime import execute
from fuseforge.workloads import Workload

from chain_reference import reference_chain
from full_search import full_search, key_of
from procgen import gen_process
from test_reduce import (
    memory_cell_defs,
    n_reference_system,
    ring_state,
    sprime_state,
    superstep_state,
    three_equation_system,
    two_core_example,
)
from test_translate import chained_state, scheduler_state

COMPUTES = {
    "add": lambda *args: sum(args),
    "sub": lambda m, x: x - m,
    # weighs each message by its position, so the order of the messages on
    # an equation's collector channel shows in the result
    "lin": lambda *args: args[-1] + sum(10 ** (k + 1) * m for k, m in enumerate(args[:-1])),
}


def translated_system(seed: int, agents: int, steps: int, wide: int,
                      multi: tuple[str, ...], self_refs: bool = False):
    """A seeded superstep system: each of the first ``wide`` agents reads
    one to three agents, each other agent reads one (an agent reads itself
    only if ``self_refs``), and an agent with several references uses a
    compute from ``multi``.  Returns the initial state, the per-agent
    references and computes, the initial values and the channels of the
    last superstep's results."""
    rng = random.Random(seed)
    refs, compute = {}, {}
    for a in range(agents):
        others = [b for b in range(agents) if b != a or self_refs]
        count = rng.randint(1, min(3, len(others))) if a < wide else 1
        refs[a] = tuple(sorted(rng.sample(others, count)))
        compute[a] = rng.choice(multi if count > 1 else ("add", "sub"))
    values = [rng.randint(1, 9) for _ in range(agents)]
    state = superstep_state(refs, compute, values, steps, COMPUTES)
    finals = [name(f"s{a}g{steps}") for a in range(agents)]
    return state, refs, compute, values, finals


def search(fn, state, max_steps, max_states):
    try:
        return fn(state, max_steps=max_steps, max_states=max_states)
    except ResourceLimitError as exc:
        return exc.partial


def assert_same(state, max_steps=200, max_states=20_000):
    """Run both searches; return (reduce_all's, full_search's) explored counts."""
    reduced = search(reduce_all, state, max_steps, max_states)
    full = search(full_search, state, max_steps, max_states)
    assert {key_of(s): s.step_count for s in reduced.irreducible} == \
        {key_of(s): s.step_count for s in full.irreducible}
    assert reduced.non_terminating == full.non_terminating
    assert reduced.truncated == full.truncated
    return reduced.explored, full.explored


def _with(system_and_computes):
    system, computes = system_and_computes
    return initial_state(system, computes=computes)


def _lin_three_references():
    """One equation over three references with the order-sensitive ``lin``:
    three senders on its collector channel, six results."""
    eq = BehavioralEquation(StateRef(0), "lin", tuple(StateRef(j) for j in (1, 2, 3)),
                            StateRef(0, 1))
    system = par(translate_nonrecursive(eq),
                 *[initializer(StateRef(j), j + 1) for j in range(4)])
    return initial_state(system, computes=COMPUTES)


c, o, p, a, x, y, z = (name(t) for t in "copaxyz")
ADD_ONE = {"inc": lambda v: v + 1}

ORACLE_SYSTEMS = {
    "memory-cell": lambda: initial_state(
        nu((name("i"), o), par(ProcessId("B"), out(name("i"), lit(5),
                                                   out(name("i"), lit(6), inp(o, x))))),
        defs=memory_cell_defs()),
    "two-cells-one-write": lambda: initial_state(
        par(ProcessId("B"), ProcessId("B"), out(name("i"), lit(5))), defs=memory_cell_defs()),
    "two-core": lambda: _with(two_core_example()),
    "three-equation": lambda: _with(three_equation_system()),
    **{f"n-reference-{n}": (lambda n=n: _with(n_reference_system(n))) for n in range(4)},
    "scheduler": scheduler_state,
    "chained": chained_state,
    "lin-three-references": _lin_three_references,
}

# Systems at the edges of the rule: each names the condition that keeps (or
# lets) a step be prioritised.
EDGE_SYSTEMS = {
    # a replicated sender serves every receiver the same value: confluent
    "replicated-sender-two-receivers": lambda: par(
        bang(out(c, lit(1))), inp(c, x, out(o, x)), inp(c, y, out(p, y))),
    # one sender, two receivers: which receiver gets the value matters
    "unreplicated-sender-two-receivers": lambda: par(
        out(c, lit(1)), inp(c, x, out(o, x)), inp(c, y, out(p, y))),
    # the sender is one branch of a choice, not a top-level component
    "sender-under-choice": lambda: par(
        choice(out(c, lit(1)), out(c, lit(2))), inp(c, x, out(o, x))),
    # a second sender on c appears after a step on another channel
    "later-second-sender": lambda: par(
        out(c, lit(1)), inp(c, x, out(o, x)), inp(a, z, out(c, z)), out(a, lit(2))),
    # c is sent, so a received name becomes a second sender on it
    "channel-sent-as-payload": lambda: par(
        out(c, lit(1)), inp(c, x, out(o, x)), out(a, c), inp(a, y, out(y, lit(2)))),
    # the sender's payload is a name, not a literal
    "name-payload": lambda: par(
        out(c, a), inp(c, x, out(x, lit(3))), inp(a, y, out(o, y))),
    # the result literal #2 is also a channel, whose value the env records:
    # the application must not be run before the communication on it
    "result-literal-is-a-channel": lambda: par(
        FunctionApply("inc", (lit(1),), y, NIL), out(lit(2), lit(7)), inp(lit(2), z)),
    # ... nor before a communication that makes #2 a channel
    "result-literal-becomes-a-channel": lambda: par(
        FunctionApply("inc", (lit(1),), y, NIL), out(a, lit(2)),
        inp(a, z, par(out(z, lit(7)), inp(z, x)))),
}


@pytest.mark.parametrize("system", sorted(ORACLE_SYSTEMS))
def test_oracle_systems_match_full_search(system):
    assert_same(ORACLE_SYSTEMS[system]())


@pytest.mark.parametrize("system", sorted(EDGE_SYSTEMS))
def test_edge_systems_match_full_search(system):
    assert_same(initial_state(EDGE_SYSTEMS[system](), computes=ADD_ONE))


def test_sprime_matches_full_search_when_cut_off():
    assert_same(sprime_state(), max_steps=10_000, max_states=300)


def test_generated_processes_match_full_search():
    rng = random.Random(20261018)
    for _ in range(400):
        explored, full = assert_same(initial_state(gen_process(rng, 4)), max_steps=12,
                                     max_states=300)
        assert explored == full


@pytest.mark.parametrize("agents,steps", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_rings_match_full_search(agents, steps):
    explored, full = assert_same(ring_state(list(range(5, 5 + agents)), steps))
    # every step is confluent: the start runs one chain to the end state
    assert explored == 2 < full


@pytest.mark.parametrize("max_steps", [10, 24, 25])
def test_ring_cut_by_the_step_budget_matches_full_search(max_steps):
    """Ring 3 x 2 takes 24 steps, all in one chain: a budget that ends
    inside the chain (10) or at its last step (24) leaves it
    non-terminating; 25 reaches the irreducible state."""
    assert_same(ring_state([5, 6, 7], 2), max_steps=max_steps)


@pytest.mark.parametrize("max_steps", [5, 8, 11, 12, 13])
def test_multi_reference_system_cut_by_the_step_budget_matches_full_search(max_steps):
    """Two agents that each read both (12 steps): the budget cuts the first
    chain (5), the chains after the first full expansion (8), the last
    chains (11), ends at the last step (12) or cuts nothing (13)."""
    state, refs, *_ = translated_system(0, 2, 1, 2, ("add",), self_refs=True)
    assert refs == {0: (0, 1), 1: (0, 1)}
    assert_same(state, max_steps=max_steps)


def test_translated_systems_match_full_search():
    """Two agents that read themselves or each other; with several
    references, ``lin`` makes the order of the collector's messages show,
    and ``add`` makes every order give one value."""
    for multi in ("lin", "add"):
        several = 0
        for seed in range(6):
            state, refs, compute, *_ = translated_system(seed, 2, 1, 2, (multi,),
                                                         self_refs=True)
            explored, full = assert_same(state)
            assert explored < full
            several += multi in compute.values()
        assert several >= 3


def corpus() -> list:
    """The start states of the tests above."""
    starts = [make() for make in ORACLE_SYSTEMS.values()]
    starts += [initial_state(make(), computes=ADD_ONE) for make in EDGE_SYSTEMS.values()]
    starts.append(sprime_state())
    rng = random.Random(20261018)
    starts += [initial_state(gen_process(rng, 4)) for _ in range(400)]
    starts += [ring_state(list(range(5, 5 + agents)), steps)
               for agents, steps in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]]
    for multi in ("lin", "add"):
        starts += [translated_system(seed, 2, 1, 2, (multi,), self_refs=True)[0]
                   for seed in range(6)]
    for seed in range(8):
        rng = random.Random(seed)
        agents, steps = rng.randint(2, 4), rng.randint(1, 2)
        starts.append(translated_system(seed, agents, steps, agents, ("add",))[0])
    return starts


@pytest.mark.parametrize("budget", [1, 3, 7, 10_000])
def test_chain_matches_reference_chain(budget):
    """From every start of the corpus, and from every normalized successor
    of one (a chain that starts mid-search), the chain fires as many steps
    as the reference and reaches the same canonical state and value env."""
    fired_somewhere = 0
    for start in corpus():
        start = replace(start, process=normalize(start.process))
        successors = [replace(s, process=normalize(s.process)) for s in reduce_step(start)]
        for state in [start, *successors]:
            end, fired = _confluent_chain(state, budget)
            want, want_fired = reference_chain(state, budget)
            assert fired == want_fired, state.process
            assert canonical_key(normalize(end.process)) == canonical_key(normalize(want.process))
            assert end.value_env == want.value_env
            assert end.step_count == want.step_count == state.step_count + fired
            fired_somewhere += fired > 0
    assert fired_somewhere > 100


def runtime_workload(refs, compute, values) -> Workload:
    """The generated system as a runtime workload: agent a reads ``refs[a]``."""
    agents = len(values)
    neighbours = [set() for _ in range(agents)]
    for a, rs in refs.items():
        for b in rs:
            neighbours[a].add(b)
            neighbours[b].add(a)
    fold = {"add": sum, "sub": lambda ms: ms[0]}
    update = {"add": lambda s, m: s + m, "sub": lambda s, m: s - m}

    def contract(kind):
        return ComputeMethodContract(
            name=kind, value_type="int64", in_message_type="int64",
            out_message_type="int64", state_to_message=lambda s: s,
            partial_compute=lambda ms, f=fold[kind]: f(ms) if ms else None,
            update_state=lambda s, m, u=update[kind]: s if m is None else u(s, m),
        )

    eqs = {a: BehavioralEquation(StateRef(a), compute[a], tuple(StateRef(b) for b in refs[a]),
                                 StateRef(a)) for a in range(agents)}
    return Workload(
        name="generated", graph=Graph(agents, tuple(tuple(sorted(n)) for n in neighbours)),
        equations=eqs, contracts={k: contract(k) for k in ("add", "sub")},
        initial_values=dict(enumerate(values)),
        static_marks={a: set(eq.reference_set) for a, eq in eqs.items()},
        pushdown_targets=(),
        encode_value=lambda v: v.to_bytes(8, "little", signed=True),
    )


def test_oracle_agrees_with_runtime_on_generated_workloads():
    """Translated and reduced, a generated workload of up to four agents and
    two supersteps, each agent reading up to three others, gives the
    runtime's values in every irreducible state.  Agents with several
    references add them, so the runtime's message order cannot matter."""
    for seed in range(8):
        rng = random.Random(seed)
        agents, steps = rng.randint(2, 4), rng.randint(1, 2)
        state, refs, compute, values, finals = translated_system(seed, agents, steps, agents,
                                                                 ("add",))
        result = reduce_all(state, max_steps=200)
        assert not result.non_terminating and result.irreducible

        wl = runtime_workload(refs, compute, values)
        parts = build_partitions(wl.graph, [a % 2 for a in range(agents)], 2)
        mode = rng.choice(["unopt", "full"])
        plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES[mode],
                                 contracts=wl.contracts)
        runtime, _ = execute(wl, plans, rounds=steps)
        want = [runtime.agent_values[a] for a in range(agents)]
        for s in result.irreducible:
            assert [final_values(s)[n] for n in finals] == want, (seed, refs, compute)
