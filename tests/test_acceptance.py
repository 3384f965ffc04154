"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from fuseforge.equations import BehavioralEquation, StateRef
from fuseforge.errors import ResourceLimitError
from fuseforge.graphgen import erm, partition_greedy
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.pi import (
    ProcessId,
    choice,
    final_values,
    initial_state,
    initializer,
    inp,
    lit,
    name,
    naive_recursive_composition,
    normalize,
    nu,
    out,
    par,
    reduce_all,
    reduce_step,
    translate_nonrecursive,
)
from fuseforge.pi.congruence import clear_caches
from fuseforge.runtime import execute
from fuseforge.workloads import (
    build_economics,
    build_epidemics,
    build_gol,
    build_pagerank,
    state_checksum,
)

from procgen import gen_process


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def plans_for(wl, parts, mode: str):
    passes = MODE_PASSES[mode]
    targets = wl.pushdown_targets if "pushdown" in passes else ()
    return default_pipeline(parts, wl.equations, wl.static_marks, passes,
                            contracts=wl.contracts, pushdown_targets=targets)


# Criterion 1 ------------------------------------------------------------------


def test_criterion_1_cross_mode_equivalence():
    """All 7 optimizer modes produce identical final states at desk scale;
    PageRank under the regroup-tolerance flag stays within 1e-9 relative."""
    t0 = time.perf_counter()
    desk = [
        (build_gol(20, 20, seed=7), 100, 20),
        (build_epidemics(500, seed=7, p=0.01), 50, 20),
        (build_economics(1001, seed=7), 101, 50),
        (build_pagerank(erm(200, 0.05, seed=7)), 20, 20),
    ]
    for wl, target, rounds in desk:
        parts = partition_greedy(wl.graph, target, seed=7)
        checksums = {}
        for mode in MODE_PASSES:
            state, _ = execute(wl, plans_for(wl, parts, mode), rounds=rounds)
            checksums[mode] = state_checksum(wl, state.agent_values)
        assert len(set(checksums.values())) == 1, (wl.name, checksums)

    # PageRank tolerance mode: regrouped float folds within 1e-9 relative
    exact = build_pagerank(erm(200, 0.05, seed=7))
    loose = build_pagerank(erm(200, 0.05, seed=7), allow_regroup=True)
    parts = partition_greedy(exact.graph, 20, seed=7)
    ref, _ = execute(exact, plans_for(exact, parts, "unopt"), rounds=20)
    worst = 0.0
    for mode in MODE_PASSES:
        state, _ = execute(loose, plans_for(loose, parts, mode), rounds=20)
        for v, value in state.agent_values.items():
            expected = ref.agent_values[v].pr
            rel = abs(value.pr - expected) / max(abs(expected), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-9, (mode, v, rel)

    elapsed = time.perf_counter() - t0
    report(
        "1. cross-mode equivalence (4 workloads x 7 modes; pagerank regroup <= 1e-9)",
        elapsed < 30.0,
        f"worst pagerank rel err {worst:.2e}, {elapsed:.1f}s < 30s",
    )


# Criterion 2 ------------------------------------------------------------------


def _two_core_system():
    p = {k: StateRef(k) for k in range(1, 7)}
    name_of = lambda r: f"p{r.agent_id}"
    eqs = [
        BehavioralEquation(p[1], "f", (p[2],), p[3]),
        BehavioralEquation(p[2], "g", (p[1],), p[4]),
        BehavioralEquation(p[3], "f", (p[4],), p[5]),
        BehavioralEquation(p[4], "g", (p[3],), p[6]),
    ]
    inner = par(
        initializer(p[1], 5, name_of),
        initializer(p[2], 6, name_of),
        translate_nonrecursive(eqs[0], name_of),
        translate_nonrecursive(eqs[1], name_of),
    )
    system = nu(
        (name("p3"), name("p4")),
        par(
            nu((name("p1"), name("p2")), inner),
            translate_nonrecursive(eqs[2], name_of),
            translate_nonrecursive(eqs[3], name_of),
        ),
    )
    return system, {"f": lambda m, x: x + m, "g": lambda m, x: x - m}


def test_criterion_2_oracle_agreement():
    """Translated-and-reduced two-core system agrees with runtime execution
    on every maximal sequence; the naive recursive composition never ends."""
    clear_caches()  # time a cold oracle whatever ran before
    t0 = time.perf_counter()
    system, computes = _two_core_system()
    result = reduce_all(initial_state(system, computes=computes), max_steps=200)
    values = result.final_value_sets([name("p5"), name("p6")])
    oracle_ok = (
        not result.non_terminating
        and len(result.irreducible) >= 1
        and all(fv == {name("p5"): 12, name("p6"): -10} for fv in values)
    )
    oracle_time = time.perf_counter() - t0

    # the same system executed by the BSP runtime
    from test_runtime import two_core_workload
    from fuseforge.graphgen import build_partitions

    wl = two_core_workload()
    parts = build_partitions(wl.graph, [0, 0], 1)
    plans = default_pipeline(parts, wl.equations, wl.static_marks,
                             MODE_PASSES["unopt"], contracts=wl.contracts)
    state, _ = execute(wl, plans, rounds=2)
    runtime_ok = state.agent_values == {0: 12, 1: -10}

    # S': recursive composition without yield/resume
    p1, p2 = StateRef(1), StateRef(2)
    name_of = lambda r: f"p{r.agent_id}"
    ref1, defs1 = naive_recursive_composition(
        BehavioralEquation(p1, "f", (p2,), p1), name_of)
    ref2, defs2 = naive_recursive_composition(
        BehavioralEquation(p2, "g", (p1,), p2), name_of)
    sprime = par(ref1, ref2, initializer(p1, 5, name_of), initializer(p2, 6, name_of))
    try:
        sres = reduce_all(
            initial_state(sprime, defs={**defs1, **defs2}, computes=computes),
            max_steps=10_000, max_states=4_000,
        )
    except ResourceLimitError as exc:
        sres = exc.partial
    nonterm_ok = sres.non_terminating

    # name each failed conjunct, so a semantic failure never reads as a slow run
    failures = [msg for ok, msg in (
        (oracle_ok, f"oracle values {values} ({len(result.irreducible)} irreducible, "
                    f"non-terminating={result.non_terminating}), want p5=12, p6=-10"),
        (runtime_ok, f"runtime values {state.agent_values}, want {{0: 12, 1: -10}}"),
        (nonterm_ok, f"S' terminated after {sres.explored} explored states"),
        (oracle_time < 1.0, f"oracle {oracle_time:.2f}s, want < 1s"),
    ) if not ok]
    report(
        "2. pi-oracle agreement (p5=12, p6=-10, exhaustive; S' non-terminating)",
        not failures,
        "; ".join(failures)
        or f"oracle {oracle_time:.2f}s < 1s, {len(result.irreducible)} irreducible",
    )


# Criterion 3 ------------------------------------------------------------------


def test_criterion_3_memory_cell_trace():
    """The four-line reduction sequence of the destructive-read cell."""
    i, o, x = name("i"), name("o"), name("x")
    defs = {"B": inp(i, x, choice(out(o, x, ProcessId("B")), ProcessId("B")))}
    state = initial_state(
        nu((i, o), par(ProcessId("B"), out(i, lit(5), out(i, lit(6), inp(o, x))))),
        defs=defs,
    )
    expected = [
        nu((i, o), par(choice(out(o, lit(5), ProcessId("B")), ProcessId("B")),
                       out(i, lit(6), inp(o, x)))),
        nu((i, o), par(choice(out(o, lit(6), ProcessId("B")), ProcessId("B")),
                       inp(o, x))),
        nu((i, o), ProcessId("B")),
    ]
    ok = True
    for want in expected:
        succ = reduce_step(state)
        ok = ok and len(succ) == 1
        nxt = next(iter(succ))
        state = replace(nxt, process=normalize(nxt.process))
        ok = ok and state.process == normalize(want)
    ok = ok and state.env()[o] == 6 and reduce_step(state) == set()
    report("3. memory-cell trace reproduced step-for-step, ending at B", ok,
           "3 steps, final read = 6")


# Criterion 4 ------------------------------------------------------------------


def test_criterion_4_message_count_reductions():
    t0 = time.perf_counter()
    # epidemics on erm(1000, 0.01), 10 greedy partitions
    wl = build_epidemics(1000, seed=5, p=0.01)
    parts = partition_greedy(wl.graph, 100, seed=5)
    cross_edges = cross_partition_edge_count_local(parts)
    _, unopt = execute(wl, plans_for(wl, parts, "unopt"), rounds=3)
    wire_matches = unopt.wire_units_per_round == [cross_edges] * 3
    _, cached = execute(wl, plans_for(wl, parts, "merge+cache"), rounds=3)
    cached_ok = all(w <= 90 for w in cached.wire_units_per_round)

    # economics on star(10001), 10 partitions
    econ = build_economics(10_001, seed=5)
    eparts = partition_greedy(econ.graph, 1001, seed=5)
    _, plain = execute(econ, plans_for(econ, eparts, "unopt"), rounds=3,
                       track_inbound=(0,))
    market_unopt = plain.inbound_total_by_agent[0]
    _, pushed = execute(econ, plans_for(econ, eparts, "full+pushdown"), rounds=3,
                        track_inbound=(0,))
    market_pushdown = pushed.inbound_wire_by_agent[0]
    econ_ok = market_unopt == [10_000] * 3 and all(m <= 10 for m in market_pushdown)

    report(
        "4. message-count reductions (cache pairs and pushdown)",
        wire_matches and cached_ok and econ_ok,
        f"unopt wire {unopt.wire_units_per_round[0]} == cross edges {cross_edges}; "
        f"cached {cached.wire_units_per_round[0]} <= 90; market 10000 -> "
        f"{market_pushdown[0]}; {time.perf_counter() - t0:.1f}s",
    )


def cross_partition_edge_count_local(parts) -> int:
    return sum(len(p.cross_edges) for p in parts)


# Criterion 5 ------------------------------------------------------------------


def test_criterion_5_performance_sanity():
    """Desk-scale stand-in for the reported speedups: full mode must beat
    unoptimized by more than 1.3x (2x expected) on the 100x100 grid."""
    t0 = time.perf_counter()
    wl = build_gol(100, 100, seed=1)
    parts = partition_greedy(wl.graph, 1000, seed=1)
    timings = {}
    checks = {}
    for mode in ("unopt", "full"):
        plans = plans_for(wl, parts, mode)
        state, metrics = execute(wl, plans, rounds=200)
        timings[mode] = metrics.mean_wall_seconds_per_round
        checks[mode] = state_checksum(wl, state.agent_values)
    ratio = timings["unopt"] / timings["full"]
    elapsed = time.perf_counter() - t0
    report(
        "5. performance sanity (full vs unopt on gol 100x100, 200 rounds)",
        ratio > 1.3 and checks["unopt"] == checks["full"] and elapsed < 120.0,
        f"speedup {ratio:.2f}x (need > 1.3x, 2x expected), {elapsed:.1f}s < 120s",
    )


# Criterion 6 ------------------------------------------------------------------


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    # congruence: idempotence over 200 random processes of depth <= 5
    rng = random.Random(6)
    for _ in range(200):
        p = gen_process(rng, 5)
        n1 = normalize(p)
        clear_caches()  # the memo must not hand back its own output
        assert normalize(n1) == n1

    # partitioner disjoint cover on 50 random graphs
    from fuseforge.graphgen import partition_random

    for trial in range(50):
        n = rng.randint(8, 100)
        g = erm(n, 0.05, seed=trial)
        for parts in (partition_random(g, 7, trial), partition_greedy(g, 7, trial)):
            seen = set()
            for part in parts:
                assert not (seen & part.member_set)
                seen |= part.member_set
            assert seen == set(range(n))

    # pushdown fold regrouping on 500 random integer multisets
    fold = lambda ms: sum(ms) if ms else None
    for _ in range(500):
        msgs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 20))]
        cut = rng.randint(1, len(msgs)) if len(msgs) > 1 else 1
        parts_ = [fold(msgs[:cut]), fold(msgs[cut:])]
        assert fold([p for p in parts_ if p is not None]) == fold(msgs)

    # double-buffer order insensitivity: two random merged orders, gol 10 rounds
    wl = build_gol(10, 10, seed=9)
    gparts = partition_greedy(wl.graph, 25, seed=9)
    plans = plans_for(wl, gparts, "full")
    base, _ = execute(wl, plans, rounds=10)
    for _ in range(2):
        shuffled = []
        for p in plans:
            order = list(p.merged_order)
            rng.shuffle(order)
            shuffled.append(replace(p, merged_order=tuple(order)))
        state, _ = execute(wl, shuffled, rounds=10)
        assert state.agent_values == base.agent_values

    # golden patterns
    block = {0, 1, 5, 6}
    wblock = build_gol(5, 5, seed=0, initial_alive=block)
    bparts = partition_greedy(wblock.graph, 25, seed=0)
    bplans = plans_for(wblock, bparts, "unopt")
    state, _ = execute(wblock, bplans, rounds=10)
    assert {a for a, v in state.agent_values.items() if v} == block
    blinker = {7, 12, 17}
    wblink = build_gol(5, 5, seed=0, initial_alive=blinker)
    kplans = plans_for(wblink, bparts, "unopt")
    state, _ = execute(wblink, kplans, rounds=10)
    assert {a for a, v in state.agent_values.items() if v} == blinker

    # pagerank three-cycle against the power-iteration oracle
    from fuseforge.graphgen import Graph
    from test_workloads import _power_iteration_oracle

    cycle = Graph(3, ((1, 2), (0, 2), (0, 1)))
    wpr = build_pagerank(cycle)
    cparts = partition_greedy(cycle, 3, seed=0)
    state, _ = execute(wpr, plans_for(wpr, cparts, "unopt"), rounds=90)
    oracle = _power_iteration_oracle(cycle, 90)
    for v in range(3):
        assert state.agent_values[v].pr == pytest.approx(oracle[v], abs=1e-12)
        assert state.agent_values[v].pr == pytest.approx(1.0, abs=1e-6)

    report("6. property suites (congruence, cover, regroup, buffering, goldens, pagerank)",
           True, f"{time.perf_counter() - t0:.1f}s")
