"""Input-graph generators and partitioning strategies.

All generators are deterministic under a fixed seed (SplitMix64, see rng.py)
so adjacency is bit-identical across platforms and runs.  Graphs are
undirected; adjacency stores both directions with neighbor lists sorted
ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .rng import SplitMix64


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]  # index = vertex id

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _from_edge_set(n: int, edges) -> Graph:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


def torus2d(width: int, height: int) -> Graph:
    """Moore-neighborhood torus: every cell has exactly 8 neighbors.

    Vertex ids are row-major: id = row * width + col.
    """
    if width < 3 or height < 3:
        raise ParameterError("torus dimensions must be >= 3 for distinct wraparound")
    adj = []
    for r in range(height):
        for c in range(width):
            cell = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    cell.append(((r + dr) % height) * width + (c + dc) % width)
            adj.append(tuple(sorted(cell)))
    return Graph(width * height, tuple(adj))


def erm(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) via geometric edge skipping."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability {p} outside [0, 1]")
    if p == 0.0:
        return Graph(n, tuple(() for _ in range(n)))
    if p == 1.0:
        return _from_edge_set(n, ((u, v) for u in range(n) for v in range(u + 1, n)))
    rng = SplitMix64(seed, stream_id=1)
    edges = []
    log_q = math.log1p(-p)
    total = n * (n - 1) // 2
    idx = -1
    while True:
        u = rng.random()
        skip = int(math.log(1.0 - u) / log_q) if u > 0.0 else 0
        idx += skip + 1
        if idx >= total:
            break
        # linear index -> (row u, col v) in the strict upper triangle
        a = _pair_from_index(idx, n)
        edges.append(a)
    return _from_edge_set(n, edges)


def _pair_from_index(idx: int, n: int) -> tuple[int, int]:
    u = 0
    row = n - 1
    while idx >= row:
        idx -= row
        u += 1
        row -= 1
    return u, u + 1 + idx


def sbm(n: int, blocks: int = 5, p_in: float = 0.01, p_out: float = 0.0, seed: int = 0) -> Graph:
    """Stochastic block model with balanced blocks.

    Cross-block edges appear with probability ``p_out`` (0 reproduces fully
    disconnected blocks).
    """
    if blocks < 1 or n % blocks != 0:
        raise ParameterError(f"blocks={blocks} must divide n={n} for balanced blocks")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ParameterError("block probabilities outside [0, 1]")
    size = n // blocks
    rng = SplitMix64(seed, stream_id=2)
    edges = []
    for u in range(n):
        bu = u // size
        for v in range(u + 1, n):
            p = p_in if v // size == bu else p_out
            if p > 0.0 and rng.random() < p:
                edges.append((u, v))
    return _from_edge_set(n, edges)


def star(n: int) -> Graph:
    """Hub-and-spokes: vertex 0 adjacent to all others, no spoke-spoke edges."""
    if n < 2:
        raise ParameterError("star graph needs at least 2 vertices")
    adj = [tuple(range(1, n))] + [(0,) for _ in range(n - 1)]
    return Graph(n, tuple(adj))


def save_graph(graph: Graph, path: str) -> None:
    """Edge-list text format: header ``n m``, then one ``u v`` line per edge."""
    with open(path, "w") as fh:
        fh.write(f"{graph.vertex_count} {graph.edge_count}\n")
        for u in range(graph.vertex_count):
            for v in graph.adjacency[u]:
                if u < v:
                    fh.write(f"{u} {v}\n")


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            if not line.strip():
                continue
            u, v = map(int, line.split())
            edges.append((u, v))
    if len(edges) != m:
        raise ParameterError(f"{path}: header declares {m} edges, found {len(edges)}")
    return _from_edge_set(n, edges)


# Partitioning ---------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A set of agents with explicit cross edges."""

    id: int
    member_ids: tuple[int, ...]  # sorted
    cross_edges: tuple[tuple[int, int, int], ...]  # (local, remote, remote partition)

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.member_ids)


def build_partitions(graph: Graph, assignment: list[int], count: int) -> list[Partition]:
    """Assemble Partition structures from a vertex -> partition map."""
    members: list[list[int]] = [[] for _ in range(count)]
    for v, pid in enumerate(assignment):
        members[pid].append(v)
    parts = []
    for pid in range(count):
        mine = sorted(members[pid])
        cross = []
        for u in mine:
            for v in graph.adjacency[u]:
                if assignment[v] != pid:
                    cross.append((u, v, assignment[v]))
        parts.append(Partition(pid, tuple(mine), tuple(sorted(cross))))
    return parts


def partition_count(n: int, target_size: int) -> int:
    return (n + target_size - 1) // target_size


def partition_random(graph: Graph, target_size: int, seed: int) -> list[Partition]:
    """Seeded shuffle, then chunk into consecutive groups of target size."""
    if target_size < 1:
        raise ParameterError("target size must be >= 1")
    n = graph.vertex_count
    order = list(range(n))
    SplitMix64(seed, stream_id=3).shuffle(order)
    count = partition_count(n, target_size)
    assignment = [0] * n
    for i, v in enumerate(order):
        assignment[v] = i // target_size
    return build_partitions(graph, assignment, count)


def partition_hash(graph: Graph, target_size: int, mode: str) -> list[Partition]:
    """Hash partitioning: ``div`` assigns id // targetSize; ``mod`` assigns
    id % K with K = ceil(n / targetSize) (round-robin at the target size)."""
    if target_size < 1:
        raise ParameterError("target size must be >= 1")
    n = graph.vertex_count
    count = partition_count(n, target_size)
    if mode == "div":
        assignment = [v // target_size for v in range(n)]
    elif mode == "mod":
        assignment = [v % count for v in range(n)]
    else:
        raise ParameterError(f"unknown hash mode {mode!r} (expected 'div' or 'mod')")
    return build_partitions(graph, assignment, count)


def partition_greedy(graph: Graph, target_size: int, seed: int) -> list[Partition]:
    """Grow each partition by BFS from a randomly chosen unplaced agent.

    Unplaced neighbors are enqueued in ascending id; when a component is
    exhausted before the partition reaches its target size, a new start
    vertex is seeded into the same partition to keep partitions balanced.
    """
    if target_size < 1:
        raise ParameterError("target size must be >= 1")
    n = graph.vertex_count
    rng = SplitMix64(seed, stream_id=4)
    unplaced = sorted(range(n))
    placed = [False] * n
    assignment = [0] * n
    pid = 0
    remaining = n
    while remaining > 0:
        size = 0
        queue: list[int] = []
        head = 0
        while size < target_size and remaining > 0:
            if head >= len(queue):
                # seed (or re-seed) from the lowest-id-first unplaced pool
                unplaced = [v for v in unplaced if not placed[v]]
                start = unplaced[rng.below(len(unplaced))]
                queue.append(start)
                placed[start] = True
                assignment[start] = pid
                size += 1
                remaining -= 1
            else:
                u = queue[head]
                head += 1
                for v in graph.adjacency[u]:
                    if size >= target_size:
                        break
                    if not placed[v]:
                        placed[v] = True
                        assignment[v] = pid
                        queue.append(v)
                        size += 1
                        remaining -= 1
        pid += 1
    return build_partitions(graph, assignment, pid)


def cross_partition_edge_count(parts: list[Partition]) -> int:
    """Directed cross-partition edges summed over all partitions."""
    return sum(len(p.cross_edges) for p in parts)
