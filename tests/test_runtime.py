"""BSP executor: superstep semantics, delivery, determinism, counters."""

from __future__ import annotations

from dataclasses import replace

import pytest

from fuseforge.equations import BehavioralEquation, ComputeMethodContract, StateRef
from fuseforge.errors import ContractError, CoverageError
from fuseforge.graphgen import Graph, build_partitions, partition_greedy
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import Engine, deliver, execute
from fuseforge.workloads import Workload, build_gol, gol_contract, state_checksum


def gol_plans(wl, parts, mode="unopt"):
    return default_pipeline(parts, wl.equations, wl.static_marks,
                            MODE_PASSES[mode], contracts=wl.contracts)


def test_zero_rounds_returns_initial_state():
    wl = build_gol(5, 5, seed=1)
    parts = partition_greedy(wl.graph, 25, seed=1)
    state, metrics = execute(wl, gol_plans(wl, parts), rounds=0)
    assert state.superstep == 0
    assert state.agent_values == wl.initial_values
    assert metrics.wall_seconds_per_round == []


BLINKER = {7, 12, 17}  # vertical triple on a 5x5 torus (row-major ids)


def test_blinker_oscillates_with_period_two():
    wl = build_gol(5, 5, seed=0, initial_alive=BLINKER)
    parts = partition_greedy(wl.graph, 25, seed=0)
    plans = gol_plans(wl, parts)
    after1, _ = execute(wl, plans, rounds=1)
    alive1 = {a for a, v in after1.agent_values.items() if v}
    assert alive1 == {11, 12, 13}  # horizontal triple
    after2, _ = execute(wl, plans, rounds=2)
    alive2 = {a for a, v in after2.agent_values.items() if v}
    assert alive2 == BLINKER


def test_deliver_identity_payloads_sorted():
    raw = [(5, 1), (2, 0), (9, 1)]
    assert deliver(gol_contract(), raw) == [0, 1, 1]


def test_deliver_empty():
    assert deliver(gol_contract(), []) == []


def test_deliver_type_mismatch_names_parties():
    with pytest.raises(ContractError) as err:
        deliver(gol_contract(), [(4, "x")], receiver=17)
    assert "sender 4" in str(err.value)
    assert "receiver 17" in str(err.value)


def two_core_workload():
    """The two-core f/g exchange realized as a 2-agent workload."""
    graph = Graph(2, ((1,), (0,)))

    def contract(name, fn):
        return ComputeMethodContract(
            name=name,
            value_type="int64",
            in_message_type="int64",
            out_message_type="int64",
            state_to_message=lambda s: s,
            partial_compute=lambda ms: ms[0] if ms else None,
            update_state=lambda s, m: s if m is None else fn(m, s),
        )

    eqs = {
        0: BehavioralEquation(StateRef(0), "f", (StateRef(1),), StateRef(0)),
        1: BehavioralEquation(StateRef(1), "g", (StateRef(0),), StateRef(1)),
    }
    return Workload(
        name="twocore",
        graph=graph,
        equations=eqs,
        contracts={
            "f": contract("f", lambda m, x: x + m),
            "g": contract("g", lambda m, x: x - m),
        },
        initial_values={0: 5, 1: 6},
        static_marks={a: set(eq.reference_set) for a, eq in eqs.items()},
        pushdown_targets=(),
        encode_value=lambda v: v.to_bytes(8, "little", signed=True),
    )


def test_two_core_two_supersteps_matches_oracle_values():
    wl = two_core_workload()
    parts = build_partitions(wl.graph, [0, 0], 1)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    state, _ = execute(wl, plans, rounds=2)
    assert state.agent_values == {0: 12, 1: -10}


def test_schedule_independence_across_thread_counts():
    wl = build_gol(16, 16, seed=3)
    parts = partition_greedy(wl.graph, 32, seed=3)
    plans = gol_plans(wl, parts, "full")
    reference = None
    for threads in (1, 2, 8):
        state, _ = execute(wl, plans, rounds=8, threads=threads)
        checksum = state_checksum(wl, state.agent_values)
        if reference is None:
            reference = checksum
        assert checksum == reference


def test_merged_order_permutation_insensitive():
    import random

    wl = build_gol(10, 10, seed=5)
    parts = partition_greedy(wl.graph, 25, seed=5)
    plans = gol_plans(wl, parts, "full")
    base, _ = execute(wl, plans, rounds=10)
    rng = random.Random(1)
    for _ in range(2):
        shuffled = []
        for p in plans:
            order = list(p.merged_order)
            rng.shuffle(order)
            shuffled.append(replace(p, merged_order=tuple(order)))
        state, _ = execute(wl, shuffled, rounds=10)
        assert state.agent_values == base.agent_values


def test_single_partition_zero_wire_units():
    wl = build_gol(6, 6, seed=2)
    parts = partition_greedy(wl.graph, 36, seed=2)
    for mode in ("unopt", "full"):
        _, metrics = execute(wl, gol_plans(wl, parts, mode), rounds=3)
        assert metrics.wire_units_per_round == [0, 0, 0]


def test_one_cache_is_one_wire_unit_per_round():
    """Two partitions, all static references flowing rightward: one synthesized
    cache means exactly one wire unit per round in full mode."""
    graph = Graph(4, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)))

    contract = ComputeMethodContract(
        name="minop",
        value_type="int64",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: s,
        partial_compute=lambda ms: min(ms) if ms else None,
        update_state=lambda s, m: s if m is None else min(s, 1 + m),
        associative=True,
        commutative=True,
    )
    eqs = {
        0: BehavioralEquation(StateRef(0), "minop", (StateRef(1), StateRef(2), StateRef(3)), StateRef(0)),
        1: BehavioralEquation(StateRef(1), "minop", (StateRef(2), StateRef(3)), StateRef(1)),
        2: BehavioralEquation(StateRef(2), "minop", (), StateRef(2)),
        3: BehavioralEquation(StateRef(3), "minop", (), StateRef(3)),
    }
    wl = Workload(
        name="fig3", graph=graph, equations=eqs, contracts={"minop": contract},
        initial_values={0: 9, 1: 9, 2: 1, 3: 4},
        static_marks={a: set(eq.reference_set) for a, eq in eqs.items()},
        pushdown_targets=(), encode_value=lambda v: v.to_bytes(8, "little", signed=True),
    )
    parts = build_partitions(graph, [0, 0, 1, 1], 2)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["full"], contracts=wl.contracts)
    _, metrics = execute(wl, plans, rounds=4)
    assert metrics.wire_units_per_round == [1, 1, 1, 1]


def test_unopt_logical_messages_constant():
    wl = build_gol(10, 10, seed=4)
    parts = partition_greedy(wl.graph, 50, seed=4)
    _, metrics = execute(wl, gol_plans(wl, parts, "unopt"), rounds=5)
    assert metrics.logical_messages_per_round == [800] * 5  # 100 agents x 8


def test_cached_wire_never_exceeds_unopt_wire():
    wl = build_gol(12, 12, seed=6)
    parts = partition_greedy(wl.graph, 36, seed=6)
    _, unopt = execute(wl, gol_plans(wl, parts, "unopt"), rounds=4)
    _, cached = execute(wl, gol_plans(wl, parts, "merge+cache"), rounds=4)
    for u, c in zip(unopt.wire_units_per_round, cached.wire_units_per_round):
        assert c <= u


def test_merge_only_mode_counts_headers():
    wl = build_gol(12, 12, seed=6)
    parts = partition_greedy(wl.graph, 36, seed=6)
    _, plain = execute(wl, gol_plans(wl, parts, "unopt"), rounds=2)
    _, merged = execute(wl, gol_plans(wl, parts, "merge"), rounds=2)
    assert all(h == 0 for h in plain.header_units_per_round)
    # merged cross-partition messages carry a partition-id header
    assert merged.header_units_per_round == merged.wire_units_per_round
    assert all(h > 0 for h in merged.header_units_per_round)


def test_coverage_errors():
    wl = build_gol(5, 5, seed=1)
    parts = partition_greedy(wl.graph, 25, seed=1)
    plans = gol_plans(wl, parts)
    with pytest.raises(CoverageError):
        Engine(wl, plans + plans)  # duplicated coverage
    with pytest.raises(CoverageError):
        Engine(wl, [])  # nobody covered


def test_stochastic_trajectory_invariant_across_partitionings():
    """Per-agent RNG streams derive from (seed, agent) only, so epidemics
    trajectories match under every partitioning and partition count."""
    from fuseforge.graphgen import partition_hash, partition_random
    from fuseforge.workloads import build_epidemics

    wl = build_epidemics(200, seed=4, p=0.03, beta=0.4)
    reference = None
    partitionings = [
        partition_greedy(wl.graph, 200, seed=4),  # single partition
        partition_greedy(wl.graph, 40, seed=4),
        partition_random(wl.graph, 25, seed=9),
        partition_hash(wl.graph, 66, "mod"),
    ]
    for parts in partitionings:
        plans = default_pipeline(parts, wl.equations, wl.static_marks,
                                 MODE_PASSES["full"], contracts=wl.contracts)
        state, _ = execute(wl, plans, rounds=12)
        checksum = state_checksum(wl, state.agent_values)
        if reference is None:
            reference = checksum
        assert checksum == reference


def test_mailbox_conservation_in_unopt_mode():
    """Messages an agent consumes at superstep t are exactly the messages its
    neighbors sent at t-1: on the torus every agent reads degree-many each
    round, and the aggregate count matches senders x readers."""
    wl = build_gol(8, 8, seed=11)
    parts = partition_greedy(wl.graph, 16, seed=11)
    tracked = (0, 17, 63)
    _, metrics = execute(wl, gol_plans(wl, parts, "unopt"), rounds=4,
                         track_inbound=tracked)
    for agent in tracked:
        assert metrics.inbound_total_by_agent[agent] == [8] * 4
    assert metrics.logical_messages_per_round == [64 * 8] * 4
