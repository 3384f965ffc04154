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

import pytest

from fuseforge.graphgen import erm, partition_greedy
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import Engine
from fuseforge.workloads import build_gol, build_pagerank, state_checksum
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
    """The (contract, read arity, receives mail, sends mail) keys of the
    agents, resolved from the plans apart from the engine."""
    per_agent = resolve(plans, wl.contracts, engine.partition_of)
    receivers = {r for _, _, local, cross in per_agent for r in (*local, *cross)}
    receivers |= {agg.target_agent for agg in engine.aggregators}
    return {(c.name, len(reads), a in receivers, bool(local or cross))
            for a, (c, reads, local, cross) in enumerate(per_agent)}


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


def test_gol_full_compiles_one_kernel_per_group_key():
    """Kernels are generated per group, never unrolled per agent: on gol
    100x100 in full mode every agent has the same key, so the ten partitions
    share one code object."""
    wl = build_gol(100, 100, seed=0)
    parts = partition_greedy(wl.graph, 1000, 0)
    plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES["full"],
                             contracts=wl.contracts)
    assert len(plans) == 10
    engine = Engine(wl, plans)
    assert group_keys(engine, wl, plans) == {("gol", 8, False, False)}
    check_structure(engine, wl, plans)


def test_engines_share_compiled_kernels():
    """A kernel shape is compiled once per process: a second engine over the
    same shapes runs the first engine's code objects."""
    wl = build_gol(12, 12, seed=0)
    plans = default_pipeline(partition_greedy(wl.graph, 36, 0), wl.equations,
                             wl.static_marks, MODE_PASSES["unopt"])
    first, second = ([kernel.__code__ for program in Engine(wl, plans).programs
                      for kernel, *_ in program] for _ in range(2))
    assert first and all(a is b for a, b in zip(first, second, strict=True))
