"""Golden runtime outputs: for each workload, a digest of the final-state
checksum and the per-round logical, wire, header and tracked-inbound counts
over three partitioners and every CLI mode.  A rewrite of the plan
representation or of the executor's read path must reproduce the traffic as
well as the state."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from fuseforge.graphgen import erm, partition_greedy, partition_hash, partition_random
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import execute
from fuseforge.workloads import (
    MARKET_AGENT,
    build_economics,
    build_epidemics,
    build_gol,
    build_pagerank,
    state_checksum,
)

ROUNDS = 8
TARGET_SIZE = 12


def gol_with_dynamic_references():
    """Game of Life with a third of its static marks dropped, so unmarked
    references reach the receiver through its mailbox."""
    wl = build_gol(10, 10, seed=4)
    marks = {a: {r for r in refs if (a + 2 * r.agent_id) % 3}
             for a, refs in wl.static_marks.items()}
    return replace(wl, static_marks=marks)


WORKLOADS = {
    "gol": lambda: build_gol(12, 12, seed=3),
    "gol-dynamic": gol_with_dynamic_references,
    "economics": lambda: build_economics(61, seed=5),
    "pagerank": lambda: build_pagerank(erm(60, 0.1, 2)),
    "pagerank-tolerance": lambda: build_pagerank(erm(60, 0.1, 2), allow_regroup=True),
    "epidemics": lambda: build_epidemics(60, seed=2, p=0.1, beta=0.4),
}

GOLDENS = {
    "economics": "37f291918b306df4aa699ca686080b42",
    "epidemics": "0ee1bd66a01fca8aba485758fa1a54c2",
    "gol": "5c0886d59594892a94d31d4b476d6ff7",
    "gol-dynamic": "eb221055143f596307fd9bbae8efcb56",
    "pagerank": "725d3950debd0a9baddec1d2450e134a",
    "pagerank-tolerance": "f07c5a4ac8dafbfd2f44813d0c73a4d6",
}


def partitionings(graph):
    return {
        "greedy": partition_greedy(graph, TARGET_SIZE, 7),
        "random": partition_random(graph, TARGET_SIZE, 7),
        "hash-mod": partition_hash(graph, TARGET_SIZE, "mod"),
    }


def run_digest(wl) -> str:
    track = (MARKET_AGENT, wl.graph.vertex_count - 1)
    h = hashlib.blake2b(digest_size=16)
    for partitioner, parts in partitionings(wl.graph).items():
        for mode, passes in MODE_PASSES.items():
            plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                                     contracts=wl.contracts,
                                     pushdown_targets=wl.pushdown_targets)
            state, m = execute(wl, plans, rounds=ROUNDS, track_inbound=track)
            record = (partitioner, mode, state_checksum(wl, state.agent_values),
                      m.logical_messages_per_round, m.wire_units_per_round,
                      m.header_units_per_round, m.inbound_wire_by_agent,
                      m.inbound_total_by_agent)
            h.update(repr(record).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_runtime_outputs_match_goldens(workload):
    assert run_digest(WORKLOADS[workload]()) == GOLDENS[workload]
