"""Set-up memory: the bytes each agent keeps alive after set-up.

Each bound is the figure measured when set-up stopped keeping a second copy
of each agent's references (static-marks sets, per-edge ints, per-member
pair and staged tuples), plus 15%.  Before that change the same set-ups
kept 2,444 (gol) and 5,483 (pagerank) bytes per agent.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from fuseforge.graphgen import erm, partition_greedy
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import Engine
from fuseforge.workloads import build_gol, build_pagerank


def set_up(make, mode: str, parts: int):
    wl = make()
    partitions = partition_greedy(wl.graph, wl.graph.vertex_count // parts, 0)
    plans = default_pipeline(partitions, wl.equations, wl.static_marks, MODE_PASSES[mode],
                             contracts=wl.contracts, pushdown_targets=wl.pushdown_targets)
    return wl, partitions, plans, Engine(wl, plans)


def retained_bytes_per_agent(make, mode: str, parts: int) -> float:
    """Bytes that one set-up (build, greedy partitioning, the pipeline and
    ``Engine``) still holds once it is done, per agent, under tracemalloc.
    A first set-up fills the module caches (compiled kernels), so they are
    not counted."""
    set_up(make, mode, parts)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = set_up(make, mode, parts)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / kept[0].graph.vertex_count


@pytest.mark.parametrize("make,mode,bound", [
    (lambda: build_gol(40, 40), "full", 1_337 * 1.15),
    (lambda: build_pagerank(erm(400, 0.05, seed=0)), "unopt", 2_817 * 1.15),
], ids=["gol-40x40-full", "pagerank-erm400-unopt"])
def test_setup_retains_a_bounded_number_of_bytes_per_agent(make, mode, bound):
    per_agent = retained_bytes_per_agent(make, mode, parts=4)
    assert per_agent <= bound, f"{per_agent:.0f} bytes per agent, bound {bound:.0f}"
