"""Workload rules: game-of-life goldens, SIR transitions, market dynamics,
accumulative PageRank against a power-iteration oracle."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from collections.abc import Mapping

import pytest

from fuseforge.errors import ParameterError
from fuseforge.graphgen import Graph, erm, partition_greedy
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import execute
from fuseforge.workloads import (
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    EpidemicState,
    MarketState,
    PageRankState,
    TraderState,
    build_economics,
    build_epidemics,
    build_gol,
    build_pagerank,
    economics_contracts,
    epidemics_contract,
    gol_contract,
    pagerank_contract,
    state_checksum,
)


def run_modes(wl, parts, rounds, modes=None, pushdown=False):
    checks = {}
    for mode, passes in MODE_PASSES.items():
        if modes and mode not in modes:
            continue
        targets = wl.pushdown_targets if ("pushdown" in passes and pushdown) else ()
        if "pushdown" in passes and not pushdown:
            continue
        plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                                 contracts=wl.contracts, pushdown_targets=targets)
        state, metrics = execute(wl, plans, rounds=rounds)
        checks[mode] = (state, metrics)
    return checks


BUILDERS = pytest.mark.parametrize("build", [
    lambda: build_gol(6, 5, seed=1),
    lambda: build_epidemics(40, seed=2, p=0.1),
    lambda: build_economics(17, seed=3),
    lambda: build_pagerank(erm(30, 0.2, 4)),
], ids=["gol", "epidemics", "economics", "pagerank"])


@BUILDERS
def test_every_reference_to_an_agent_is_one_shared_state_ref(build):
    wl = build()
    ref_of = {a: eq.lhs for a, eq in wl.equations.items()}
    assert sorted(ref_of) == list(range(wl.graph.vertex_count))
    for a, eq in wl.equations.items():
        assert ref_of[a].agent_id == a and eq.rhs is ref_of[a]
        assert len(eq.reference_set) == wl.graph.degree(a)
        for ref in eq.reference_set:
            assert ref is ref_of[ref.agent_id]
        for ref in wl.static_marks[a]:
            assert ref is ref_of[ref.agent_id]
        assert not hasattr(eq, "__dict__")


@BUILDERS
def test_static_marks_are_a_view_that_plans_like_a_dict_of_sets(build):
    """The builders' static marks are a read-only mapping that marks every
    reference; a plain dict of the same sets gives the same plans."""
    wl = build()
    marks = {a: set(eq.reference_set) for a, eq in wl.equations.items()}
    assert isinstance(wl.static_marks, Mapping) and not isinstance(wl.static_marks, dict)
    assert dict(wl.static_marks) == marks
    as_dict = dataclasses.replace(wl, static_marks=marks)
    parts = partition_greedy(wl.graph, max(2, wl.graph.vertex_count // 3), 0)
    for mode in ("unopt", "full", "full+pushdown"):
        keys = []
        for w in (wl, as_dict):
            targets = w.pushdown_targets if "pushdown" in MODE_PASSES[mode] else ()
            plans = default_pipeline(parts, w.equations, w.static_marks, MODE_PASSES[mode],
                                     contracts=w.contracts, pushdown_targets=targets)
            keys.append([p.plan_key() for p in plans])
        assert keys[0] == keys[1], mode


# State records ----------------------------------------------------------------

RECORDS = {
    "epidemics": EpidemicState(INFECTED, 3, 2**64 - 5),
    "trader": TraderState((100_00, 100_07), -1, 250, -2, 12345),
    "market": MarketState(100_00, -3),
    "pagerank": PageRankState(0.25, 0.125, 3, 2),
}


def is_record(cls) -> bool:
    """A frozen, slotted dataclass whose ``__init__`` sets each field
    through its slot's member descriptor, as ``_record`` makes it."""
    if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
            and "__slots__" in vars(cls)):
        return False
    setters = {getattr(cls, f.name).__set__ for f in dataclasses.fields(cls)}
    return {c.cell_contents for c in cls.__init__.__closure__ or ()} == setters


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_state_records_are_frozen_slotted_dataclasses(name):
    value = RECORDS[name]
    cls = type(value)
    assert is_record(cls)
    assert not hasattr(value, "__dict__")
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
    positional = [getattr(value, f.name) for f in dataclasses.fields(cls)]
    keyword = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}
    assert cls(*positional) == cls(**keyword) == value
    assert hash(cls(*positional)) == hash(cls(**keyword)) == hash(value)
    assert dataclasses.replace(value) == value
    assert dataclasses.replace(value, **{first: positional[1]}) != value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert repr(value).startswith(f"{cls.__name__}({first}=")


@pytest.mark.parametrize("build", [
    lambda: build_gol(4, 4, seed=1),
    lambda: build_epidemics(20, seed=2, p=0.2),
    lambda: build_epidemics(20, seed=2, model="sbm", p=0.3, blocks=2),
    lambda: build_economics(9, seed=3),
    lambda: build_pagerank(erm(20, 0.3, 4)),
], ids=["gol", "epidemics-erm", "epidemics-sbm", "economics", "pagerank"])
def test_agent_states_are_bools_ints_or_records(build):
    """Every agent builds one state per superstep, so a state type that is
    not a ``_record`` would bring back the slow frozen-dataclass
    constructor."""
    for value in build().initial_values.values():
        assert type(value) in (bool, int) or is_record(type(value))


# One result per branch of each update_state, as computed before records
# were slotted and before the draw inlined its mix.
STREAM_A, STREAM_B, STREAM_C = 1311325525161987955, 3730570728744530773, 15706867311918570300
STREAM_A1, STREAM_B1, STREAM_C1 = 12712040344485186440, 15131285548067729258, 8660838057532217169


@pytest.mark.parametrize("state, price, want", [
    (TraderState((100, 110), 0, 500, 2, STREAM_A), 90,
     TraderState((100, 110, 90), 1, 410, 3, STREAM_A1)),
    (TraderState((100, 110), 0, 500, 2, STREAM_A), 120,
     TraderState((100, 110, 120), -1, 620, 1, STREAM_A1)),
    (TraderState((100, 100), 0, 500, 2, STREAM_A), 100,
     TraderState((100, 100, 100), 0, 500, 2, STREAM_A1)),
    (TraderState((100, 110), 0, 500, 2, STREAM_B), 90,
     TraderState((100, 110, 90), -1, 590, 1, STREAM_B1)),
], ids=["buy", "sell", "hold", "jitter-flip"])
def test_trader_update_pinned(state, price, want):
    update = economics_contracts(window=3, jitter=0.05)["econ.trader"].update_state
    assert update(state, price) == want


@pytest.mark.parametrize("state, k, want", [
    (EpidemicState(SUSCEPTIBLE, 0, STREAM_A), 3, EpidemicState(INFECTED, 4, STREAM_A1)),
    (EpidemicState(SUSCEPTIBLE, 0, STREAM_C), 1, EpidemicState(SUSCEPTIBLE, 0, STREAM_C1)),
    (EpidemicState(INFECTED, 1, STREAM_A), 2, EpidemicState(RECOVERED, 0, STREAM_A)),
    (EpidemicState(INFECTED, 3, STREAM_A), 0, EpidemicState(INFECTED, 2, STREAM_A)),
], ids=["S-to-I", "S-stays", "I-to-R", "I-counts-down"])
def test_epidemics_update_pinned(state, k, want):
    assert epidemics_contract(beta=0.5, recovery_rounds=4).update_state(state, k) == want


@pytest.mark.parametrize("state, incoming, want", [
    (PageRankState(0.0, 0.0, 4, 0), None, PageRankState(0.15, 0.15, 4, 1)),
    (PageRankState(0.5, 0.1, 4, 3), 0.25, PageRankState(0.75, 0.25, 4, 4)),
    (PageRankState(0.5, 0.1, 4, 6), 0.25, PageRankState(0.5, 0.0, 4, 7)),
], ids=["step-0", "delta", "past-max-iteration"])
def test_pagerank_update_pinned(state, incoming, want):
    assert pagerank_contract(max_iteration=5).update_state(state, incoming) == want


@pytest.mark.parametrize("build, named", [
    (lambda: build_economics(5, window=0), "window"),
    (lambda: build_economics(5, window=-3), "window"),
    (lambda: build_economics(5, jitter=-0.01), "jitter"),
    (lambda: build_economics(5, jitter=2.5), "jitter"),
    (lambda: build_economics(5, jitter=math.nan), "jitter"),
    (lambda: build_economics(5, initial_price=0), "initial_price"),
    (lambda: build_epidemics(10, recovery_rounds=0), "recovery_rounds"),
    (lambda: build_epidemics(10, recovery_rounds=-2), "recovery_rounds"),
], ids=["window0", "window-3", "jitter-0.01", "jitter2.5", "jitter-nan", "price0",
        "recovery0", "recovery-2"])
def test_out_of_range_constants_rejected(build, named):
    with pytest.raises(ParameterError, match=named):
        build()


# Game of Life ---------------------------------------------------------------


# B3/S23 written out: the next state for neighbor counts None, 0, 1, ..., 8.
# The rule is source text that the kernels splice in, so a slip in it would
# change the kernels and the interpreter alike; only this table catches it.
GOL_TABLE = {
    False: (False, False, False, False, True, False, False, False, False, False),
    True: (True, False, False, True, True, False, False, False, False, False),
}


def test_gol_rules_match_reference():
    c = gol_contract()
    pc, up = c.partial_compute, c.update_state
    assert up(False, pc([1, 1, 1])) is True  # birth on exactly 3
    assert up(True, pc([1, 1])) is True  # survival on 2
    assert up(True, pc([1, 1, 1, 1])) is False  # overpopulation
    assert up(True, pc([1])) is False  # underpopulation
    for s, row in GOL_TABLE.items():
        assert [up(s, n) for n in (None, *range(9))] == list(row), s
        assert all(type(up(s, n)) is bool for n in (None, *range(9)))
    assert [c.state_to_message(s) for s in (False, True)] == [0, 1]
    assert all(type(c.state_to_message(s)) is int for s in (False, True))


def test_gol_block_still_life_fixed_point():
    block = {0, 1, 5, 6}  # 2x2 block on a 5x5 torus
    wl = build_gol(5, 5, seed=0, initial_alive=block)
    parts = partition_greedy(wl.graph, 25, seed=0)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    for rounds in range(1, 11):
        state, _ = execute(wl, plans, rounds=rounds)
        assert {a for a, v in state.agent_values.items() if v} == block


def test_gol_blinker_period_two_for_ten_rounds():
    blinker = {7, 12, 17}
    wl = build_gol(5, 5, seed=0, initial_alive=blinker)
    parts = partition_greedy(wl.graph, 25, seed=0)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["full"], contracts=wl.contracts)
    horizontal = {11, 12, 13}
    for rounds in range(1, 11):
        state, _ = execute(wl, plans, rounds=rounds)
        alive = {a for a, v in state.agent_values.items() if v}
        assert alive == (blinker if rounds % 2 == 0 else horizontal)


# Epidemics -------------------------------------------------------------------


def test_epidemics_susceptible_with_no_infected_neighbors_stays():
    c = epidemics_contract(beta=0.5)
    s = EpidemicState(SUSCEPTIBLE, 0, rng=123)
    assert c.update_state(s, 0) == s  # k = 0: probability 0, no draw


def test_epidemics_beta_one_always_infects():
    c = epidemics_contract(beta=1.0, recovery_rounds=3)
    s = EpidemicState(SUSCEPTIBLE, 0, rng=9)
    out = c.update_state(s, 3)
    assert out.status == INFECTED
    assert out.rounds_to_recover == 3


def test_epidemics_recovery_countdown():
    c = epidemics_contract(beta=0.0, recovery_rounds=2)
    s = EpidemicState(INFECTED, 2, rng=1)
    s1 = c.update_state(s, 0)
    assert s1.status == INFECTED and s1.rounds_to_recover == 1
    s2 = c.update_state(s1, 0)
    assert s2.status == RECOVERED


def test_epidemics_recovered_absorbing_and_none_is_identity():
    c = epidemics_contract()
    r = EpidemicState(RECOVERED, 0, rng=4)
    assert c.update_state(r, 5) == r
    i = EpidemicState(INFECTED, 3, rng=4)
    assert c.update_state(i, None) == i


def test_epidemics_trajectory_monotone_and_sir_ordered():
    wl = build_epidemics(300, seed=8, p=0.02, beta=0.3)
    parts = partition_greedy(wl.graph, 60, seed=8)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    prev_status = {a: v.status for a, v in wl.initial_values.items()}
    recovered_counts = [sum(1 for s in prev_status.values() if s == RECOVERED)]
    for rounds in range(1, 16):
        state, _ = execute(wl, plans, rounds=rounds)
        status = {a: v.status for a, v in state.agent_values.items()}
        for a in status:
            assert status[a] >= prev_status[a]  # S(0) -> I(1) -> R(2) only
        recovered_counts.append(sum(1 for s in status.values() if s == RECOVERED))
        prev_status = status
    assert recovered_counts == sorted(recovered_counts)


def test_epidemics_identical_under_every_mode():
    wl = build_epidemics(200, seed=21, p=0.02, beta=0.2)
    parts = partition_greedy(wl.graph, 40, seed=21)
    results = run_modes(wl, parts, rounds=12)
    checksums = {state_checksum(wl, s.agent_values) for s, _ in results.values()}
    assert len(checksums) == 1


# Economics --------------------------------------------------------------------


def test_market_zero_actions_leaves_price():
    c = economics_contracts()["econ.market"]
    s = MarketState(100_00, 0)
    assert c.update_state(s, 0).price == 100_00
    assert c.update_state(s, None).price == 100_00


def test_market_action_sum_moves_price_by_cents():
    c = economics_contracts()["econ.market"]
    s = MarketState(100_00, 0)
    assert c.update_state(s, 1).price == 100_01  # {+1, +1, -1} folds to +1
    assert c.partial_compute([1, 1, -1]) == 1


def test_market_price_floored_at_one_cent():
    c = economics_contracts()["econ.market"]
    assert c.update_state(MarketState(3, 0), -10).price == 1


def test_trader_moving_average_rule():
    c = economics_contracts(window=10, jitter=0.0)["econ.trader"]
    t = TraderState((), 0, 0, 0, rng=5)
    t = c.update_state(t, 100)  # first price: no average yet, hold
    assert t.last_action == 0
    t = c.update_state(t, 90)  # below the running average: buy
    assert t.last_action == 1
    assert t.holdings == 1 and t.cash == -90
    t = c.update_state(t, 120)  # above: sell
    assert t.last_action == -1


def test_economics_pushdown_identical_trajectory():
    wl = build_economics(501, seed=2)
    parts = partition_greedy(wl.graph, 51, seed=2)
    results = run_modes(wl, parts, rounds=30, pushdown=True)
    checksums = {state_checksum(wl, s.agent_values) for s, _ in results.values()}
    assert len(checksums) == 1


def test_economics_market_wire_counts_with_and_without_pushdown():
    wl = build_economics(501, seed=2)
    parts = partition_greedy(wl.graph, 51, seed=2)
    partition_of = {a: p.id for p in parts for a in p.member_ids}
    co_located = sum(
        1 for a in range(1, 501) if partition_of[a] == partition_of[0]
    )
    non_owner_partitions = len(
        {partition_of[a] for a in range(1, 501)} - {partition_of[0]}
    )

    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    _, metrics = execute(wl, plans, rounds=3, track_inbound=(0,))
    assert metrics.inbound_total_by_agent[0] == [500] * 3
    assert metrics.inbound_wire_by_agent[0] == [500 - co_located] * 3

    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["full+pushdown"], contracts=wl.contracts,
                             pushdown_targets=wl.pushdown_targets)
    _, metrics = execute(wl, plans, rounds=3, track_inbound=(0,))
    assert metrics.inbound_wire_by_agent[0] == [non_owner_partitions] * 3


# PageRank ----------------------------------------------------------------------


def test_pagerank_superstep_zero_injects_mass():
    c = pagerank_contract()
    v = PageRankState(0.0, 0.0, out_degree=4, step=0)
    v1 = c.update_state(v, None)
    assert v1.pr == pytest.approx(0.15)
    assert c.state_to_message(v1) == pytest.approx(0.85 * 0.15 / 4)


def test_pagerank_zero_delta_sends_nothing():
    c = pagerank_contract()
    v = PageRankState(0.5, 0.0, out_degree=3, step=4)
    assert c.state_to_message(v) is None
    v1 = c.update_state(v, None)  # no incoming deltas after step 0
    assert v1.pr == 0.5 and c.state_to_message(v1) is None


def test_pagerank_max_iteration_stops_updates():
    c = pagerank_contract(max_iteration=0)
    v = PageRankState(0.15, 0.15, out_degree=1, step=1)
    v1 = c.update_state(v, 0.4)
    assert v1.pr == v.pr and c.state_to_message(v1) is None


def test_pagerank_rejects_dangling_vertices():
    with pytest.raises(ParameterError):
        build_pagerank(Graph(2, ((), ())))


def _power_iteration_oracle(graph: Graph, rounds: int) -> list[float]:
    """Dense reference for the accumulative-delta scheme."""
    n = graph.vertex_count
    pr = [0.0] * n
    delta = [0.15] * n
    for _ in range(rounds):
        pr = [pr[v] + delta[v] for v in range(n)]
        nxt = [0.0] * n
        for u in range(n):
            if delta[u] > 0:
                share = 0.85 * delta[u] / graph.degree(u)
                for v in graph.neighbors(u):
                    nxt[v] += share
        delta = nxt
    return pr


def test_pagerank_three_cycle_converges_to_one():
    """The residual after t rounds is 0.85^t, so agreement with the oracle is
    asserted at 30 rounds and the 1e-6 convergence to 1.0 at 90 rounds
    (0.85^30 is only ~8e-3; no scheme reaches 1e-6 that early)."""
    cycle = Graph(3, ((1, 2), (0, 2), (0, 1)))
    wl = build_pagerank(cycle)
    parts = partition_greedy(cycle, 3, seed=0)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    state30, _ = execute(wl, plans, rounds=30)
    oracle30 = _power_iteration_oracle(cycle, 30)
    for v in range(3):
        assert state30.agent_values[v].pr == pytest.approx(oracle30[v], abs=1e-12)
    state90, _ = execute(wl, plans, rounds=90)
    oracle90 = _power_iteration_oracle(cycle, 90)
    for v in range(3):
        assert state90.agent_values[v].pr == pytest.approx(oracle90[v], abs=1e-12)
        assert state90.agent_values[v].pr == pytest.approx(1.0, abs=1e-6)


def test_pagerank_deltas_nonnegative_and_mass_injected():
    from fuseforge.graphgen import erm

    g = erm(60, 0.1, seed=3)
    wl = build_pagerank(g)
    parts = partition_greedy(g, 20, seed=3)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    state, _ = execute(wl, plans, rounds=1)
    total = sum(v.pr for v in state.agent_values.values())
    assert total == pytest.approx(0.15 * 60)
    for rounds in range(1, 6):
        state, _ = execute(wl, plans, rounds=rounds)
        assert all(v.delta_out >= 0 for v in state.agent_values.values())


def test_pagerank_bit_exact_across_structural_modes():
    from fuseforge.graphgen import erm

    g = erm(100, 0.08, seed=5)
    wl = build_pagerank(g)
    parts = partition_greedy(g, 25, seed=5)
    results = run_modes(wl, parts, rounds=10)
    checksums = {state_checksum(wl, s.agent_values) for s, _ in results.values()}
    assert len(checksums) == 1
