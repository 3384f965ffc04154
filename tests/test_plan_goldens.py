"""Golden partition plans: for each small differential workload and every
CLI mode, a digest of every plan's ``plan_key()`` over the four partitioners,
with all references statically marked and with a third of the marks dropped.
A change to how the passes build plans must reproduce them exactly."""

from __future__ import annotations

import hashlib

import pytest

from fuseforge.optimizer import MODE_PASSES, default_pipeline

from test_differential import WORKLOADS, drop_a_third_of_marks, partitionings


def plan_digest(plans) -> str:
    """blake2b of each plan key's repr, with ``passes`` sorted, since a
    frozenset's iteration order depends on the string hash seed."""
    h = hashlib.blake2b(digest_size=16)
    for plan in plans:
        key = plan.plan_key()
        h.update(repr(key[:2] + (tuple(sorted(key[2])),) + key[3:]).encode())
    return h.hexdigest()


def mode_digest(workload: str, mode: str) -> str:
    h = hashlib.blake2b(digest_size=16)
    wl = WORKLOADS[workload]()
    for marks in (wl, drop_a_third_of_marks(wl)):
        for partitioner, parts in sorted(partitionings(wl).items()):
            plans = default_pipeline(parts, marks.equations, marks.static_marks,
                                     MODE_PASSES[mode], contracts=wl.contracts,
                                     pushdown_targets=wl.pushdown_targets)
            h.update(f"{partitioner}:{plan_digest(plans)}".encode())
    return h.hexdigest()


GOLDENS: dict[tuple[str, str], str] = {
    ('economics', '+local'): 'bc1d7b535cdb06ab98e5b47f354f0ad9',
    ('economics', '+remote'): '5ffda69266af1eb0672b862975ef0b52',
    ('economics', 'full'): '5ffda69266af1eb0672b862975ef0b52',
    ('economics', 'full+pushdown'): '22cd793d3255735d472f2f042bc598fc',
    ('economics', 'merge'): '4086744f66a35d0a5d663c8fff0738a7',
    ('economics', 'merge+cache'): '35fd501f54b93f08313515266965c512',
    ('economics', 'unopt'): '047cca62c669fb9f7e75b6baf41e5996',
    ('epidemics', '+local'): 'e57e567b97f575f0ccc2656096bc4498',
    ('epidemics', '+remote'): '20a663fa8c41091ce4cb623bc0ca741b',
    ('epidemics', 'full'): '20a663fa8c41091ce4cb623bc0ca741b',
    ('epidemics', 'full+pushdown'): '20a663fa8c41091ce4cb623bc0ca741b',
    ('epidemics', 'merge'): 'bf95d432d5c7b485e79e41c4c2d6dd33',
    ('epidemics', 'merge+cache'): '534e957365403c621266b4a3149c7e2d',
    ('epidemics', 'unopt'): '2a9145e15277898e87a0c8a623753b5c',
    ('gol', '+local'): '93010ae14f050e6d00e3080c63867b8b',
    ('gol', '+remote'): 'd4758e7f357d87216bb0cb0e6f20d56c',
    ('gol', 'full'): 'd4758e7f357d87216bb0cb0e6f20d56c',
    ('gol', 'full+pushdown'): 'd4758e7f357d87216bb0cb0e6f20d56c',
    ('gol', 'merge'): '39d496cdd381873f40ba5d4f96b40e78',
    ('gol', 'merge+cache'): '53bd67b2d2d66abbffdce14aa48c0ca8',
    ('gol', 'unopt'): 'b14f221ac1376636238cec3df6bacc9b',
    ('pagerank', '+local'): '33123cfdd7bc5b073f962694fef02de5',
    ('pagerank', '+remote'): 'd4a0645c0ef5152e8f5072ae38bed0a9',
    ('pagerank', 'full'): 'd4a0645c0ef5152e8f5072ae38bed0a9',
    ('pagerank', 'full+pushdown'): 'd4a0645c0ef5152e8f5072ae38bed0a9',
    ('pagerank', 'merge'): '960d7f8a459c08db236179c6a5250a91',
    ('pagerank', 'merge+cache'): '8e3ea6534d51526fb688f9ce02884cd0',
    ('pagerank', 'unopt'): '0e28e3818e1a073f52da66a0fbd3b43a',
}


@pytest.mark.parametrize("mode", sorted(MODE_PASSES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plans_match_goldens(workload, mode):
    assert mode_digest(workload, mode) == GOLDENS[workload, mode]
