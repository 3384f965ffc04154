"""Generated partition kernels, which gather each receiver's mail from its
senders' entries of the message array, against the interpreted per-agent
loop over mailbox lists they replaced (``interpreter.py``): the same final
state and the same per-round logical, wire, header and tracked-inbound
counts on every valid pass subset and partitioner of the differential
suite.

The matrix reaches every kernel variant: ``unopt`` runs every agent at read
arity 0 with mail in and out; PageRank sends None and folds floats in
ascending sender order; tolerance-mode PageRank folds floats in mail arrival
order, so a gather out of arrival order would change its sums; the
declared ``add`` folds of gol, epidemics and economics run inline, with and
without mail; economics' market reads more sources than there are agents of
its shape, so its rows keep their reads as one tuple.
"""

from __future__ import annotations

import dataclasses
import dis
from collections import Counter
from itertools import product
from types import CodeType

import pytest

from fuseforge.equations import rule_from_text
from fuseforge.graphgen import erm, partition_greedy
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import Engine, _make_kernel
from fuseforge.workloads import (
    build_economics,
    build_epidemics,
    build_gol,
    build_pagerank,
    state_checksum,
)
from interpreter import Interpreter, resolve
from test_differential import WORKLOADS as DIFFERENTIAL_WORKLOADS
from test_differential import drop_a_third_of_marks, partitionings, valid_pass_subsets

ROUNDS = 6

WORKLOADS = {
    **DIFFERENTIAL_WORKLOADS,
    "pagerank-tolerance": lambda: build_pagerank(erm(40, 0.15, 0), allow_regroup=True),
}


def observe(wl, result):
    state, m = result
    return (state_checksum(wl, state.agent_values), m.logical_messages_per_round,
            m.wire_units_per_round, m.header_units_per_round,
            m.inbound_wire_by_agent, m.inbound_total_by_agent)


def group_keys(engine, wl, plans) -> set[tuple]:
    """The (contract, read arity, receives mail) keys of the agents,
    resolved from the plans apart from the engine."""
    per_agent = resolve(plans, wl.contracts, engine.partition_of)
    receivers = {r for _, _, local, cross in per_agent for r in (*local, *cross)}
    receivers |= {agg.target_agent for agg in engine.aggregators}
    return {(c.name, len(reads), a in receivers)
            for a, (c, reads, _, _) in enumerate(per_agent)}


def check_structure(engine, wl, plans) -> None:
    """Every agent runs in exactly one table row, and the kernels share code
    by group: no more code objects than group keys."""
    ran = sorted(row[0] for program in engine.programs
                 for _, table, *_ in program for row in table)
    assert ran == list(range(wl.graph.vertex_count))
    codes = {kernel.__code__ for program in engine.programs for kernel, *_ in program}
    assert len(codes) <= len(group_keys(engine, wl, plans))


@pytest.mark.parametrize("dynamic", [False, True], ids=["marked", "dynamic"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_kernels_match_the_interpreted_loop(workload, dynamic):
    wl = WORKLOADS[workload]()
    if dynamic:
        wl = drop_a_third_of_marks(wl)
    track = (0, wl.graph.vertex_count - 1)
    for partitioner, parts in partitionings(wl).items():
        for passes in valid_pass_subsets():
            plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                                     contracts=wl.contracts,
                                     pushdown_targets=wl.pushdown_targets)
            engine = Engine(wl, plans, track)
            check_structure(engine, wl, plans)
            want = observe(wl, Interpreter(wl, plans, track).run(ROUNDS))
            got = observe(wl, engine.run(ROUNDS))
            assert got == want, (partitioner, sorted(passes))


def calls_made(engine) -> set[str]:
    """Which of the contract callables ``_up`` and ``_sm`` the engine's
    kernels load: a fused kernel runs their texts instead."""
    return {ins.argval for program in engine.programs for kernel, *_ in program
            for ins in dis.get_instructions(kernel) if ins.argval in ("_up", "_sm")}


def test_gol_full_compiles_one_kernel_per_group_key():
    """Kernels are generated per group, never unrolled per agent: on gol
    100x100 in full mode every agent has the same key, so the ten partitions
    share one code object, and it runs the rule's text, not its callables."""
    wl = build_gol(100, 100, seed=0)
    parts = partition_greedy(wl.graph, 1000, 0)
    plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES["full"],
                             contracts=wl.contracts)
    assert len(plans) == 10
    engine = Engine(wl, plans)
    assert group_keys(engine, wl, plans) == {("gol", 8, False)}
    check_structure(engine, wl, plans)
    assert calls_made(engine) == set()


@pytest.mark.parametrize("build", [
    lambda: build_gol(12, 12, seed=1),
    lambda: build_epidemics(150, seed=1, p=0.04, beta=0.3, initial_infected=(0, 1, 2)),
], ids=["gol", "epidemics"])
@pytest.mark.parametrize("mode", ["unopt", "full"])
def test_wrapped_callables_are_not_bypassed(build, mode):
    """Callables swapped for counting wrappers through ``dataclasses.replace``,
    as the benchmark's traced runs count them, carry no text: the engine
    calls them, the update once per agent and round, and the run observes
    what the fused run does."""
    wl = build()
    calls: Counter = Counter()

    def counting(name, fn):
        return lambda *args: (calls.update((name,)), fn(*args))[1]

    wrapped = dataclasses.replace(wl, contracts={
        key: dataclasses.replace(c, update_state=counting("update", c.update_state),
                                 state_to_message=counting("message", c.state_to_message))
        for key, c in wl.contracts.items()})
    plans = default_pipeline(partition_greedy(wl.graph, 50, 0), wl.equations, wl.static_marks,
                             MODE_PASSES[mode], contracts=wl.contracts)
    track = (0, wl.graph.vertex_count - 1)
    fused, called = Engine(wl, plans, track), Engine(wrapped, plans, track)
    assert calls_made(fused) == set() and calls_made(called) == {"_up", "_sm"}
    want = observe(wl, fused.run(ROUNDS))
    calls.clear()
    got = observe(wl, called.run(ROUNDS))
    n = wl.graph.vertex_count
    assert calls == {"update": n * ROUNDS, "message": n * (ROUNDS + 1)}  # superstep 0 seeds
    assert got == want


def test_kernels_own_the_underscored_names():
    """Every kernel shape the generator emits, fused or calling its
    contract's callables, binds and reads only ``s``, ``f`` and names that
    start with ``_``, which ``rule_from_text`` keeps out of rule texts and
    their environments, so no accepted text can capture or shadow a
    kernel's name."""
    shapes = list(product((None, 0, 1, 2), (False, True), (False, True)))
    assert len(shapes) == 16
    for shape, texts in product(shapes, (("s = f", "s"), None)):
        codes = [_make_kernel(shape, texts)]
        for code in codes:  # the kernel and the comprehensions nested in it
            codes += [c for c in code.co_consts if isinstance(c, CodeType)]
        names = {name for code in codes for name in
                 (*code.co_varnames, *code.co_cellvars, *code.co_freevars, *code.co_names)}
        # a comprehension's iterator ``.0`` is no identifier a text could use
        assert {name for name in names
                if name.isidentifier() and not name.startswith("_")} <= {"s", "f"}, (shape, texts)


# texts that bind or read names the kernels used before they took the ``_``
# namespace, or whose environment shadows a builtin a kernel calls
CAPTURE_FREE_RULES = {
    **{f"assigns-{name}": (f"{name} = f\nif {name} is not None:\n"
                           f"    s = {name} == 3 or (s and {name} == 2)", {})
       for name in ("a", "prev", "nxt", "values", "ms", "k", "i3")},
    "assigns-tracked-kernel-local": ("if f is not None:\n"
                                     "    s = f == 3 or (s and f == 2)\nwas = s", {}),
    "loops-over-x": ("for x in range(2):\n    s = x", {}),
    "update-reads-ms": ("s = ms", {"ms": False}),
    "env-shadows-sum": (None, {"sum": len}),
}


@pytest.mark.parametrize("case", sorted(CAPTURE_FREE_RULES))
def test_rule_text_the_kernel_cannot_capture_agrees(case):
    """A gol rule whose text shares a name with the code the kernels used
    to bind or call builds, and its fused kernels, tracked without mail in
    ``full`` and with mail in ``unopt``, observe what the interpreted loop does."""
    update, env = CAPTURE_FREE_RULES[case]
    gol = build_gol(10, 10, seed=4)
    c = gol.contracts["gol"]
    up, sm = rule_from_text(update or c.update_state.text, c.state_to_message.text, env)
    wl = dataclasses.replace(gol, contracts={
        "gol": dataclasses.replace(c, update_state=up, state_to_message=sm)})
    track = (0, wl.graph.vertex_count - 1)
    for mode in ("full", "unopt"):
        plans = default_pipeline(partition_greedy(wl.graph, 25, 0), wl.equations,
                                 wl.static_marks, MODE_PASSES[mode], contracts=wl.contracts)
        engine = Engine(wl, plans, track)
        assert calls_made(engine) == set()
        assert engine.tracked_rows == wl.graph.vertex_count
        assert observe(wl, engine.run(ROUNDS)) == observe(wl, Interpreter(wl, plans, track).run(ROUNDS))


def test_engines_share_compiled_kernels():
    """A kernel shape is compiled once per process: a second engine over the
    same shapes runs the first engine's code objects."""
    wl = build_gol(12, 12, seed=0)
    plans = default_pipeline(partition_greedy(wl.graph, 36, 0), wl.equations,
                             wl.static_marks, MODE_PASSES["unopt"])
    first, second = ([kernel.__code__ for program in Engine(wl, plans).programs
                      for kernel, *_ in program] for _ in range(2))
    assert first and all(a is b for a, b in zip(first, second, strict=True))


def full_plans(wl, agents_per_partition):
    return default_pipeline(partition_greedy(wl.graph, agents_per_partition, 0), wl.equations,
                            wl.static_marks, MODE_PASSES["full"], contracts=wl.contracts,
                            pushdown_targets=wl.pushdown_targets)


@pytest.mark.parametrize("mode", ["full", "unopt", "merge+cache", "full+pushdown"])
def test_glider_runs_only_its_neighbourhood(mode):
    """A glider on a 16x16 torus changes five cells a round, so after round
    0 the tracked group runs only the rows around it, whether its cells
    read their neighbours or get their mail, and the run observes what the
    interpreted loop does, traffic and inbound counts included.  Under
    pushdown, cell 0 folds an aggregator's partial, whose changes nothing
    records, so its row runs every round."""
    side, rounds = 16, 60
    glider = {1, side + 2, 2 * side, 2 * side + 1, 2 * side + 2}
    wl = dataclasses.replace(build_gol(side, side, initial_alive=glider), pushdown_targets=(0,))
    plans = default_pipeline(partition_greedy(wl.graph, 64, 0), wl.equations, wl.static_marks,
                             MODE_PASSES[mode], contracts=wl.contracts,
                             pushdown_targets=wl.pushdown_targets)
    track = (0, wl.graph.vertex_count - 1)
    engine = Engine(wl, plans, track)
    assert engine.tracked_rows == wl.graph.vertex_count
    assert sum(engine._always) == (mode == "full+pushdown")
    result = engine.run(rounds)
    assert observe(wl, result) == observe(wl, Interpreter(wl, plans, track).run(rounds))
    active = result[1].active_per_round
    assert len(active) == rounds and active[0] == side * side
    assert sum(active) / rounds / (side * side) < 0.2
    # a glider returns to its shape, moved one cell diagonally, every 4 rounds
    moved = {(a // side + rounds // 4) % side * side + (a % side + rounds // 4) % side
             for a in glider}
    assert {a for a, v in result[0].agent_values.items() if v} == moved


def test_a_state_that_never_settles_runs_every_row():
    """A gol whose state also counts its steps changes every agent every
    round, so each round's changes would mark more entries than there are
    tracked rows: every round runs every row, and the run observes what
    the interpreted loop does."""
    update, message = rule_from_text("""
        if f is not None:
            s = (s[0] + 1, f == 3 or (s[1] and f == 2))
        """, "1 if s[1] else 0", {})
    gol = build_gol(10, 10, seed=4)
    wl = dataclasses.replace(
        gol, contracts={"gol": dataclasses.replace(gol.contracts["gol"], value_type="tuple",
                                                   update_state=update,
                                                   state_to_message=message)},
        initial_values={a: (0, v) for a, v in gol.initial_values.items()})
    plans = full_plans(wl, 25)
    engine = Engine(wl, plans)
    assert engine.tracked_rows == 100
    (state, metrics), (want, want_metrics) = engine.run(ROUNDS), Interpreter(wl, plans).run(ROUNDS)
    assert state.agent_values == want.agent_values
    assert metrics.wire_units_per_round == want_metrics.wire_units_per_round
    assert metrics.active_per_round == [100] * ROUNDS
    assert {a for a, (_, alive) in state.agent_values.items() if alive} == {
        a for a, alive in Engine(gol, plans).run(ROUNDS)[0].agent_values.items() if alive}


@pytest.mark.parametrize("build", [
    lambda: build_economics(33, seed=5),
    lambda: build_pagerank(erm(40, 0.15, 0)),
], ids=["economics", "pagerank"])
def test_untracked_engines_build_no_active_set(build):
    """Contracts whose callables carry no text are never tracked: the engine
    builds no mask or wake lists and runs every agent every round."""
    wl = build()
    engine = Engine(wl, full_plans(wl, 10))
    assert engine.tracked_rows == 0 and not engine._wake and not engine._pos
    assert all(step[-1] is None for program in engine.programs for step in program)
    n = wl.graph.vertex_count
    assert engine.run(ROUNDS)[1].active_per_round == [n] * ROUNDS
