"""Graph generators and partitioners: shapes, statistics, determinism."""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import replace

import pytest

from fuseforge.errors import ParameterError
from fuseforge.graphgen import (
    Graph,
    Partition,
    cross_partition_edge_count,
    erm,
    load_graph,
    partition_greedy,
    partition_hash,
    partition_random,
    save_graph,
    sbm,
    star,
    torus2d,
)
from fuseforge.rng import SplitMix64


def test_torus_every_vertex_degree_eight():
    g = torus2d(3, 3)
    assert all(g.degree(v) == 8 for v in range(g.vertex_count))


def test_torus_50x100_counts():
    g = torus2d(50, 100)
    assert g.vertex_count == 5000
    assert g.edge_count == 20000


def test_torus_corner_wraparound():
    g = torus2d(4, 4)
    assert set(g.neighbors(0)) == {15, 12, 13, 3, 1, 7, 4, 5}


def test_torus_rejects_tiny_dimensions():
    with pytest.raises(ParameterError):
        torus2d(2, 5)


def test_erm_extremes():
    assert erm(40, 0.0, 1).edge_count == 0
    assert erm(40, 1.0, 1).edge_count == 40 * 39 // 2


def test_erm_edge_count_within_three_sigma():
    mean = math.comb(1000, 2) * 0.01
    sigma = math.sqrt(mean * 0.99)
    for seed in range(20):
        count = erm(1000, 0.01, seed).edge_count
        assert abs(count - mean) <= 3 * sigma, (seed, count)


def test_erm_deterministic_per_seed():
    assert erm(300, 0.02, 5).adjacency == erm(300, 0.02, 5).adjacency


def test_sbm_no_cross_block_edges():
    g = sbm(1000, 5, 0.01, 0.0, seed=7)
    size = 200
    for u in range(1000):
        assert all(v // size == u // size for v in g.neighbors(u))


def test_sbm_per_block_edge_count_within_three_sigma():
    mean = math.comb(200, 2) * 0.01
    sigma = math.sqrt(mean * 0.99)
    g = sbm(1000, 5, 0.01, 0.0, seed=11)
    size = 200
    per_block = [0] * 5
    for u in range(1000):
        for v in g.neighbors(u):
            if u < v:
                per_block[u // size] += 1
    for count in per_block:
        assert abs(count - mean) <= 3 * sigma


def test_sbm_rejects_unbalanced_blocks():
    with pytest.raises(ParameterError):
        sbm(1001, 5, 0.01, 0.0, seed=0)


def test_star_shapes():
    g = star(2)
    assert g.edge_count == 1 and g.neighbors(0) == (1,)
    g = star(10001)
    assert g.edge_count == 10000
    assert g.degree(0) == 10000
    assert all(g.degree(v) == 1 for v in range(1, 101))


ALL_PARTITIONERS = [
    lambda g, t, s: partition_random(g, t, s),
    lambda g, t, s: partition_hash(g, t, "div"),
    lambda g, t, s: partition_hash(g, t, "mod"),
    lambda g, t, s: partition_greedy(g, t, s),
]


def test_partitioners_disjoint_cover_on_random_graphs():
    rng = random.Random(31)
    for trial in range(50):
        n = rng.randint(10, 120)
        g = erm(n, rng.choice([0.02, 0.05, 0.1]), seed=trial)
        target = rng.randint(1, n)
        for part_fn in ALL_PARTITIONERS:
            parts = part_fn(g, target, trial)
            seen: set[int] = set()
            for p in parts:
                assert not (seen & p.member_set)
                seen |= p.member_set
            assert seen == set(range(n))
            assert len(parts) == (n + target - 1) // target


def test_partition_member_set_is_built_once_and_not_compared():
    p = Partition(2, (1, 4, 5), ((1, 0, 0),))
    assert p.member_set == frozenset({1, 4, 5})
    assert p.member_set is p.member_set
    assert p == Partition(2, (1, 4, 5), ((1, 0, 0),))
    assert hash(p) == hash(Partition(2, (1, 4, 5), ((1, 0, 0),)))
    assert repr(p) == "Partition(id=2, member_ids=(1, 4, 5), cross_edges=((1, 0, 0),))"
    assert replace(p, member_ids=(1, 4)).member_set == frozenset({1, 4})


def test_cross_edges_consistent_both_directions():
    g = torus2d(6, 6)
    parts = partition_greedy(g, 9, seed=2)
    assignment = {}
    for p in parts:
        for v in p.member_ids:
            assignment[v] = p.id
    by_pid = {p.id: p for p in parts}
    for p in parts:
        for (u, v, pid) in p.cross_edges:
            assert assignment[v] == pid
            assert (v, u, p.id) in by_pid[pid].cross_edges


def test_partition_random_reproducible():
    g = erm(200, 0.03, seed=1)
    a = partition_random(g, 20, seed=9)
    b = partition_random(g, 20, seed=9)
    assert [p.member_ids for p in a] == [p.member_ids for p in b]


def test_hash_div_example():
    g = erm(16, 0.0, seed=0)
    parts = partition_hash(g, 4, "div")
    assignment = {v: p.id for p in parts for v in p.member_ids}
    assert assignment[7] == 1  # 7 // 4


def test_hash_mod_round_robin():
    g = erm(10, 0.0, seed=0)
    parts = partition_hash(g, 5, "mod")  # K = 2
    assignment = {v: p.id for p in parts for v in p.member_ids}
    assert assignment[7] == 1  # 7 % 2


def test_hash_div_row_stripes_on_torus():
    g = torus2d(10, 10)
    parts = partition_hash(g, 10, "div")
    for p in parts:
        rows = {v // 10 for v in p.member_ids}
        assert len(rows) == 1  # row-major ids make div a row stripe


def test_greedy_path_graph_bfs_growth():
    from fuseforge.graphgen import Graph

    path = Graph(4, ((1,), (0, 2), (1, 3), (2,)))
    # find a seed whose first start vertex is 0
    for seed in range(50):
        parts = partition_greedy(path, 2, seed=seed)
        members = sorted(tuple(p.member_ids) for p in parts)
        if 0 in parts[0].member_ids and parts[0].member_ids[0] == 0:
            assert members == [(0, 1), (2, 3)]
            break
    else:
        pytest.fail("no seed started the first partition at vertex 0")


def test_greedy_complete_graph_single_partition():
    g = erm(12, 1.0, seed=0)
    parts = partition_greedy(g, 12, seed=0)
    assert len(parts) == 1
    assert parts[0].member_ids == tuple(range(12))


def test_greedy_cut_beats_random_on_torus():
    g = torus2d(100, 100)
    for seed in range(5):
        greedy_cut = cross_partition_edge_count(partition_greedy(g, 1000, seed))
        random_cut = cross_partition_edge_count(partition_random(g, 1000, seed))
        assert greedy_cut < random_cut


def test_edge_list_roundtrip(tmp_path):
    g = erm(80, 0.05, seed=4)
    path = str(tmp_path / "g.edges")
    save_graph(g, path)
    assert load_graph(path).adjacency == g.adjacency


# Goldens: digests of the generators' and the greedy partitioner's outputs,
# pinned from the quadratic implementations these replaced.  Graphs and
# partitions are part of the reproducibility contract, so any change to the
# random streams or the walk order shows up here.


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


ERM_GOLDENS = [
    ((4000, 0.005, 0), "5588b71e3f619dbe71272dfaf39ba244"),
    ((4000, 0.005, 1), "ac26c11e4dba2758a2823f419fcd8e00"),
    ((4000, 0.005, 2), "265bddd90b2d1c20786ab02e554af080"),
    ((300, 0.3, 4), "de27eba07b8a7b1f867f2f1db3652093"),
    ((1000, 0.01, 3), "868c45873510ecfc5c8b7da549aa6cd4"),
    ((2, 0.5, 0), "2c2a7c64679df0597cd166c5971c02a6"),
    ((2, 0.5, 2), "32ad1ccdd78417c1f7b68ca41ea3e13c"),
    ((5, 0.5, 9), "3483bb306ad11299f837fad7310dfefa"),
    ((1, 0.5, 0), "cd335fbef0f0397cbd3874b4f2c6b710"),
    ((0, 0.5, 0), "de75f5edfabdb0477e652512e4287161"),
]


@pytest.mark.parametrize("args,want", ERM_GOLDENS)
def test_erm_adjacency_golden(args, want):
    assert _digest(erm(*args).adjacency) == want


SBM_GOLDENS = [
    ((1000, 5, 0.01, 0.0, 7), "e8d9ac324679c776c47b13fbcbe46d08"),
    ((600, 3, 0.02, 0.002, 3), "809a3f088ef349158c813c694c14bcd3"),
    ((90, 3, 0.2, 0.0, 1), "65718890939c0479659b40dc7a04e05f"),
]


@pytest.mark.parametrize("args,want", SBM_GOLDENS)
def test_sbm_adjacency_golden(args, want):
    assert _digest(sbm(*args).adjacency) == want


GREEDY_GOLDENS = [
    ("star", lambda: star(10001), 1001, 0, "75cadcd58fc36913c18a3692cb292eda"),
    ("torus", lambda: torus2d(100, 100), 1000, 0, "eb490f48242b404e06b625658cb8e5e5"),
    ("torus", lambda: torus2d(100, 100), 1000, 3, "b3db9aac9270b968ece9cee11868ed6f"),
    # 775 of the 2000 vertices are isolated, so most partitions reseed often
    ("erm", lambda: erm(2000, 0.0005, 5), 150, 1, "f3786f6259e8b8a5d883b9a392d45992"),
    ("sbm", lambda: sbm(1000, 5, 0.01, 0.0, 7), 130, 2, "99f0e783f5774f5d1ca2a92449d91755"),
    ("small-star", lambda: star(7), 2, 4, "ecca4c967dcfbeed7c5d87e8403972bb"),
]


@pytest.mark.parametrize("name,make,target,seed,want", GREEDY_GOLDENS,
                         ids=[f"{g[0]}-{g[2]}-{g[3]}" for g in GREEDY_GOLDENS])
def test_greedy_partition_golden(name, make, target, seed, want):
    parts = partition_greedy(make(), target, seed)
    assert _digest([(p.id, p.member_ids) for p in parts]) == want


def _erm_reference(n: int, p: float, seed: int) -> Graph:
    """The quadratic walk: every edge's row is found by scanning from row 0."""
    rng = SplitMix64(seed, stream_id=1)
    log_q = math.log1p(-p)
    total = n * (n - 1) // 2
    adj: list[list[int]] = [[] for _ in range(n)]
    idx = -1
    while True:
        r = rng.random()
        idx += (int(math.log(1.0 - r) / log_q) if r > 0.0 else 0) + 1
        if idx >= total:
            break
        u, col, row = 0, idx, n - 1
        while col >= row:
            col -= row
            u += 1
            row -= 1
        adj[u].append(u + 1 + col)
        adj[u + 1 + col].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


def _greedy_reference(graph: Graph, target_size: int, seed: int) -> list[int]:
    """Greedy assignment that re-filters a sorted unplaced list on reseed."""
    n = graph.vertex_count
    rng = SplitMix64(seed, stream_id=4)
    unplaced = list(range(n))
    assignment = [-1] * n
    pid = 0
    remaining = n
    while remaining > 0:
        size = 0
        queue: list[int] = []
        head = 0
        while size < target_size and remaining > 0:
            if head >= len(queue):
                unplaced = [v for v in unplaced if assignment[v] < 0]
                queue.append(unplaced[rng.below(len(unplaced))])
                assignment[queue[-1]] = pid
                size += 1
                remaining -= 1
            else:
                u = queue[head]
                head += 1
                for v in graph.adjacency[u]:
                    if size >= target_size:
                        break
                    if assignment[v] < 0:
                        assignment[v] = pid
                        queue.append(v)
                        size += 1
                        remaining -= 1
        pid += 1
    return assignment


def test_erm_and_greedy_match_quadratic_references():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(0, 90)
        p = rng.choice([0.01, 0.03, 0.1, 0.5, 0.9])
        g = erm(n, p, trial)
        assert g.adjacency == _erm_reference(n, p, trial).adjacency, (n, p, trial)
        if n == 0:
            continue
        target = rng.randint(1, n)
        got = [0] * n
        for part in partition_greedy(g, target, trial):
            for v in part.member_ids:
                got[v] = part.id
        assert got == _greedy_reference(g, target, trial), (n, p, trial, target)


def test_setup_scales_linearly():
    """A quadratic walk in either function would take minutes here."""
    t0 = time.perf_counter()
    g = erm(20_000, 10 / 20_000, 0)
    erm_s = time.perf_counter() - t0
    assert g.vertex_count == 20_000
    assert erm_s < 3.0, f"erm(20000, 0.0005) took {erm_s:.2f} s"
    hub = star(20_001)
    t0 = time.perf_counter()
    parts = partition_greedy(hub, 2_001, 0)
    greedy_s = time.perf_counter() - t0
    assert len(parts) == 10
    assert greedy_s < 3.0, f"greedy partitioning of star(20001) took {greedy_s:.2f} s"
