"""Differential test of the executor's read path: every valid pass subset on
every partitioner gives the checksum of plain message passing, with all
references statically marked and with a third of the marks dropped, so that
unmarked (dynamic) references travel through the runtime's mailboxes."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from fuseforge.errors import PipelineOrderError
from fuseforge.graphgen import erm, partition_greedy, partition_hash, partition_random
from fuseforge.optimizer import MODE_PASSES, PASS_NAMES, default_pipeline, validate_options
from fuseforge.runtime import execute
from fuseforge.workloads import (
    build_economics,
    build_epidemics,
    build_gol,
    build_pagerank,
    state_checksum,
)

ROUNDS = 6


def valid_pass_subsets() -> list[frozenset[str]]:
    subsets = []
    for k in range(len(PASS_NAMES) + 1):
        for combo in itertools.combinations(PASS_NAMES, k):
            try:
                validate_options(frozenset(combo))
            except PipelineOrderError:
                continue
            subsets.append(frozenset(combo))
    return subsets


def partitionings(wl):
    graph = wl.graph
    target = -(-graph.vertex_count // 4)
    return {
        "random": partition_random(graph, target, 7),
        "hash-div": partition_hash(graph, target, "div"),
        "hash-mod": partition_hash(graph, target, "mod"),
        "greedy": partition_greedy(graph, target, 7),
    }


def drop_a_third_of_marks(wl):
    marks = {a: {r for r in refs if (a + 2 * r.agent_id) % 3}
             for a, refs in wl.static_marks.items()}
    return replace(wl, static_marks=marks)


WORKLOADS = {
    "gol": lambda: build_gol(8, 8, seed=3),
    "epidemics": lambda: build_epidemics(48, seed=2, p=0.1, beta=0.4),
    "economics": lambda: build_economics(33, seed=5),
    "pagerank": lambda: build_pagerank(erm(40, 0.15, 0)),
}


def run_checksum(wl, parts, passes) -> str:
    plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                             contracts=wl.contracts, pushdown_targets=wl.pushdown_targets)
    state, _ = execute(wl, plans, rounds=ROUNDS)
    return state_checksum(wl, state.agent_values)


def test_there_are_24_valid_pass_subsets():
    subsets = valid_pass_subsets()
    assert len(subsets) == 24
    assert set(MODE_PASSES.values()) <= set(subsets)


@pytest.mark.parametrize("dynamic", [False, True], ids=["marked", "dynamic"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pass_subset_and_partitioner_matches_unopt(workload, dynamic):
    wl = WORKLOADS[workload]()
    parts_by_name = partitionings(wl)
    reference = run_checksum(wl, parts_by_name["greedy"], MODE_PASSES["unopt"])
    if dynamic:
        wl = drop_a_third_of_marks(wl)
        unmarked = sum(len(eq.reference_set) - len(wl.static_marks[a])
                       for a, eq in wl.equations.items())
        assert unmarked > 0
    for partitioner, parts in parts_by_name.items():
        assert len(parts) > 1
        for passes in valid_pass_subsets():
            got = run_checksum(wl, parts, passes)
            assert got == reference, (partitioner, sorted(passes))
