"""Test-only reference search: the breadth-first search over every
interleaving that ``reduce_all`` ran before it prioritised tau-confluent
steps.

``full_search`` expands every successor ``reduce_step`` returns at every
state, with the same canonical deduplication, bounds, expansion order and
result as ``reduce_all``, so a difference between the two is a difference
made by the prioritisation.
"""

from __future__ import annotations

from dataclasses import replace

from fuseforge.errors import ResourceLimitError
from fuseforge.pi import ReduceAllResult, ReductionState, canonical_key, normalize, reduce_step


def key_of(s: ReductionState) -> tuple[str, tuple]:
    return canonical_key(s.process), s.value_env


def full_search(
    state: ReductionState, max_steps: int, max_states: int = 200_000
) -> ReduceAllResult:
    start = replace(state, process=normalize(state.process))
    frontier = {key_of(start): start}
    visited = set(frontier)
    irreducible: dict[tuple, ReductionState] = {}
    explored = 0

    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier = {}
        for s in frontier.values():
            successors = reduce_step(s)
            explored += 1
            if not successors:
                irreducible.setdefault(key_of(s), s)
                continue
            canons = []
            for succ in successors:
                canon = replace(succ, process=normalize(succ.process))
                canons.append((key_of(canon), canon))
            canons.sort(key=lambda kc: (kc[0][0], repr(kc[0][1])))
            for k, canon in canons:
                if k in visited:
                    continue
                visited.add(k)
                next_frontier[k] = canon
                if len(visited) > max_states:
                    partial = ReduceAllResult(list(irreducible.values()), True, explored, True)
                    raise ResourceLimitError(
                        f"state space exceeded {max_states} nodes", partial=partial
                    )
        frontier = next_frontier

    return ReduceAllResult(list(irreducible.values()), bool(frontier), explored, False)
