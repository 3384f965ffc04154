"""Generated inputs for the cross-mode contract: small erm, star and torus
workloads, partitioned by every partitioner at a drawn size, must give the
checksum of unoptimized message passing on one partition in every CLI mode,
with every reference statically marked or with a third of the marks
dropped.  Random gol boards and SIR erm graphs, run until they settle,
must give that checksum in ``full`` mode, where active sets skip the agents
at a fixed point.  Examples are derandomized and nothing is stored between
runs."""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from fuseforge.graphgen import partition_greedy, partition_hash, partition_random
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import execute
from fuseforge.workloads import build_economics, build_epidemics, build_gol, state_checksum

from test_differential import drop_a_third_of_marks

ROUNDS = 4

# While pytest collects this module, Hypothesis caches the literals of local
# modules under its storage directory, ``.hypothesis/`` by default; keep them
# in a temporary directory that is removed at exit.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)


@st.composite
def workloads(draw):
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["erm", "star", "torus"]))
    if kind == "torus":
        wl = build_gol(draw(st.integers(3, 7)), draw(st.integers(3, 7)), seed=seed)
    elif kind == "star":
        wl = build_economics(draw(st.integers(2, 40)), seed=seed)
    else:
        wl = build_epidemics(draw(st.integers(2, 40)), seed=seed,
                             p=draw(st.sampled_from([0.05, 0.1, 0.3])), beta=0.4)
    return drop_a_third_of_marks(wl) if draw(st.booleans()) else wl


def checksum(wl, parts, passes, rounds: int = ROUNDS) -> str:
    plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                             contracts=wl.contracts, pushdown_targets=wl.pushdown_targets)
    state, _ = execute(wl, plans, rounds=rounds)
    return state_checksum(wl, state.agent_values)


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=workloads(), size=st.floats(0.0, 1.0), part_seed=st.integers(0, 2**16))
def test_generated_workloads_match_unopt_under_every_partitioner_and_mode(wl, size, part_seed):
    graph = wl.graph
    n = graph.vertex_count
    target = max(1, round(size * n))
    reference = checksum(wl, partition_hash(graph, n, "div"), MODE_PASSES["unopt"])
    partitionings = {
        "random": partition_random(graph, target, part_seed),
        "hash-div": partition_hash(graph, target, "div"),
        "hash-mod": partition_hash(graph, target, "mod"),
        "greedy": partition_greedy(graph, target, part_seed),
    }
    for partitioner, parts in partitionings.items():
        for mode, passes in MODE_PASSES.items():
            assert checksum(wl, parts, passes) == reference, (partitioner, mode)


SETTLE_ROUNDS = 30


@st.composite
def settling_workloads(draw):
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return build_gol(draw(st.integers(3, 12)), draw(st.integers(3, 12)), seed=seed)
    return build_epidemics(draw(st.integers(2, 60)), seed=seed,
                           p=draw(st.sampled_from([0.03, 0.1, 0.3])),
                           beta=draw(st.sampled_from([0.2, 0.6])),
                           recovery_rounds=draw(st.integers(1, 4)))


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wl=settling_workloads(), size=st.floats(0.0, 1.0), part_seed=st.integers(0, 2**16))
def test_active_sets_match_unopt_until_settled(wl, size, part_seed):
    n = wl.graph.vertex_count
    reference = checksum(wl, partition_hash(wl.graph, n, "div"), MODE_PASSES["unopt"],
                         SETTLE_ROUNDS)
    parts = partition_greedy(wl.graph, max(1, round(size * n)), part_seed)
    assert checksum(wl, parts, MODE_PASSES["full"], SETTLE_ROUNDS) == reference
