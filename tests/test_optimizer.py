"""Pass pipeline: refinement, cache synthesis, rewrites, merge, pushdown."""

from __future__ import annotations

import pytest

from fuseforge.equations import BehavioralEquation, StateRef, to_computation_tree
from fuseforge.errors import AlgebraicPreconditionError, PipelineOrderError
from fuseforge.graphgen import Graph, build_partitions, erm, partition_greedy
from fuseforge.optimizer import (
    MODE_PASSES,
    CacheRead,
    LocalRead,
    aggregation_pushdown,
    apply_refinement,
    default_pipeline,
    initial_plan,
    merge_plan,
    merge_trees,
    refine_communication,
    register_caches,
    rewrite_local,
    rewrite_remote,
    synthesize_caches,
    validate_options,
)
from fuseforge.workloads import build_gol, state_checksum
from fuseforge.runtime import execute


def min_contract():
    from fuseforge.equations import ComputeMethodContract

    return ComputeMethodContract(
        name="min",
        value_type="int64",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: s,
        partial_compute=lambda ms: min(ms) if ms else None,
        update_state=lambda s, m: s if m is None else min(s, 1 + m),
        associative=True,
        commutative=True,
    )


def fig3_setup():
    """Agents x1..x4 as ids 0..3; partition 0 = {x1, x2}, partition 1 = {x3, x4}.

    x1 aggregates {x2, x3, x4}; x2 aggregates {x3, x4}; x3/x4 reference each
    other so every agent has an equation.
    """
    graph = Graph(4, (
        (1, 2, 3),
        (0, 2, 3),
        (0, 1, 3),
        (0, 1, 2),
    ))
    eqs = {
        0: BehavioralEquation(StateRef(0), "min", (StateRef(1), StateRef(2), StateRef(3)), StateRef(0)),
        1: BehavioralEquation(StateRef(1), "min", (StateRef(2), StateRef(3)), StateRef(1)),
        2: BehavioralEquation(StateRef(2), "min", (StateRef(3),), StateRef(2)),
        3: BehavioralEquation(StateRef(3), "min", (StateRef(2),), StateRef(3)),
    }
    marks = {a: set(eq.reference_set) for a, eq in eqs.items()}
    parts = build_partitions(graph, [0, 0, 1, 1], 2)
    return parts, eqs, marks


def test_refine_fig3_classification():
    parts, eqs, marks = fig3_setup()
    refined = refine_communication(parts[0], eqs, marks)
    rn = refined[0]
    assert rn.local_static == (StateRef(1),)
    assert rn.remote_static == ((StateRef(2), 1), (StateRef(3), 1))
    assert rn.dynamic == ()


def test_refine_single_partition_no_remote():
    parts, eqs, marks = fig3_setup()
    whole = build_partitions(
        Graph(4, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))), [0, 0, 0, 0], 1
    )
    refined = refine_communication(whole[0], eqs, marks)
    assert all(rn.remote_static == () for rn in refined.values())


def test_refine_unmarked_references_are_dynamic():
    parts, eqs, _ = fig3_setup()
    refined = refine_communication(parts[0], eqs, {})
    assert all(rn.local_static == () and rn.remote_static == () for rn in refined.values())
    assert refined[0].dynamic == eqs[0].reference_set


def test_synthesize_fig3_cache_schema_and_offsets():
    parts, eqs, marks = fig3_setup()
    refined = {p.id: refine_communication(p, eqs, marks) for p in parts}
    caches = synthesize_caches(refined)
    cache = caches[(1, 0)]  # partition 1's boundary agents read by partition 0
    assert cache.schema == (StateRef(2), StateRef(3))
    assert cache.offset_of[StateRef(2)] == 0
    assert cache.offset_of[StateRef(3)] == 1


def test_synthesize_no_cross_references_no_caches():
    parts, eqs, marks = fig3_setup()
    whole = build_partitions(
        Graph(4, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))), [0, 0, 0, 0], 1
    )
    refined = {0: refine_communication(whole[0], eqs, marks)}
    assert synthesize_caches(refined) == {}


def test_cache_resolution_total_and_injective_on_erm():
    g = erm(1000, 0.01, seed=3)
    parts = partition_greedy(g, 100, seed=3)
    eqs = {
        a: BehavioralEquation(
            StateRef(a), "min", tuple(StateRef(v) for v in g.neighbors(a)), StateRef(a)
        )
        for a in range(1000)
    }
    marks = {a: set(eq.reference_set) for a, eq in eqs.items()}
    refined = {p.id: refine_communication(p, eqs, marks) for p in parts}
    caches = synthesize_caches(refined)
    assert len(caches) <= 90  # at most 10 * 9 directed pairs
    for pid, agent_map in refined.items():
        for agent, rn in agent_map.items():
            offsets = set()
            for ref, src in rn.remote_static:
                cache = caches[(src, pid)]
                off = cache.offset_of[ref]  # total
                assert (src, off) not in offsets  # injective per reader
                offsets.add((src, off))


def _refined_plans():
    parts, eqs, marks = fig3_setup()
    refined = {p.id: refine_communication(p, eqs, marks) for p in parts}
    caches = synthesize_caches(refined)
    plans = [
        register_caches(apply_refinement(initial_plan(p, eqs), refined[p.id]), caches)
        for p in parts
    ]
    return plans


def test_rewrite_remote_fig3_offsets():
    plans = _refined_plans()
    plan0 = rewrite_remote(plans[0])
    staged = plan0.per_agent[0].staged
    cache_reads = [e for e in staged if isinstance(e, CacheRead)]
    assert [(e.cache, e.offset) for e in cache_reads] == [((1, 0), 0), ((1, 0), 1)]


def test_rewrite_remote_without_caches_fails():
    parts, eqs, marks = fig3_setup()
    refined = {p.id: refine_communication(p, eqs, marks) for p in parts}
    plan = apply_refinement(initial_plan(parts[0], eqs), refined[0])
    with pytest.raises(PipelineOrderError):
        rewrite_remote(plan)


def test_rewrite_remote_identity_with_zero_caches():
    parts, eqs, marks = fig3_setup()
    whole = build_partitions(
        Graph(4, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))), [0, 0, 0, 0], 1
    )
    refined = {0: refine_communication(whole[0], eqs, marks)}
    plan = register_caches(apply_refinement(initial_plan(whole[0], eqs), refined[0]), {})
    rewritten = rewrite_remote(plan)
    assert all(ap.staged == () for ap in rewritten.per_agent.values())


def test_rewrite_remote_covers_every_static_remote():
    for plan in map(rewrite_remote, _refined_plans()):
        for ap in plan.per_agent.values():
            staged_sources = {e.source_agent for e in ap.staged if isinstance(e, CacheRead)}
            assert staged_sources == {r.agent_id for r, _ in ap.refined.remote_static}


def test_rewrite_local_fig3():
    plans = _refined_plans()
    plan0 = rewrite_local(plans[0])
    assert "local" in plan0.passes
    staged = plan0.per_agent[0].staged
    local_reads = [e for e in staged if isinstance(e, LocalRead)]
    assert local_reads == [LocalRead(StateRef(1))]
    # agent 1 has no local static refs: unchanged program, plan-wide flag set
    assert all(not isinstance(e, LocalRead) for e in plan0.per_agent[1].staged)


def test_pass_idempotence():
    plans = _refined_plans()
    once = rewrite_remote(plans[0])
    assert rewrite_remote(once).plan_key() == once.plan_key()
    local_once = rewrite_local(plans[0])
    assert rewrite_local(local_once).plan_key() == local_once.plan_key()


def test_merge_orders_ascending_and_shares_leaves():
    plans = _refined_plans()
    merged = merge_plan(plans[0])
    assert merged.merged_order == (0, 1)
    # x1 tree: 1 root + 4 leaves; x2 tree: 1 root + 3 leaves; 3 shared leaves
    assert merged.merged_forest.node_count == 5 + 4 - 3


def test_merge_singleton_partition_structurally_unchanged():
    g = Graph(1, ((),))
    eqs = {0: BehavioralEquation(StateRef(0), "min", (), StateRef(0))}
    parts = build_partitions(g, [0], 1)
    plan = apply_refinement(initial_plan(parts[0], eqs),
                            refine_communication(parts[0], eqs, {0: set()}))
    merged = merge_plan(plan)
    assert merged.merged_order == (0,)
    assert merged.merged_forest.node_count == 2  # root + own-state leaf


def test_merge_tree_node_count_formula():
    import random

    rng = random.Random(77)
    for _ in range(25):
        n1 = rng.randint(0, 6)
        n2 = rng.randint(0, 6)
        shared = tuple(StateRef(100 + j) for j in range(rng.randint(0, min(n1, n2))))
        refs1 = shared + tuple(StateRef(200 + j) for j in range(n1 - len(shared)))
        refs2 = shared + tuple(StateRef(300 + j) for j in range(n2 - len(shared)))
        eq1 = BehavioralEquation(StateRef(1), "f", refs1, StateRef(1, 1))
        eq2 = BehavioralEquation(StateRef(2), "f", refs2, StateRef(2, 1))
        placement = {ref: 0 for ref in (StateRef(1), StateRef(2)) + refs1 + refs2}
        t1 = to_computation_tree(eq1, placement)
        t2 = to_computation_tree(eq2, placement)
        forest = merge_trees([t1, t2])
        assert forest.node_count == t1.node_count + t2.node_count - len(shared)


def test_pushdown_fig3_creates_dynamic_state():
    plans = _refined_plans()
    contracts = {"min": min_contract()}
    updated = aggregation_pushdown(plans, 0, contracts)
    p2 = next(p for p in updated if p.partition.id == 1)
    assert len(p2.aggregators) == 1
    agg = p2.aggregators[0]
    assert agg.target_agent == 0
    assert agg.senders == (2, 3)
    assert agg.ref.synthetic_id < 0
    assert agg.ref.fold_op == "min"
    owner = next(p for p in updated if p.partition.id == 0)
    assert owner.pushdown_replaced[0] == frozenset({2, 3})


def test_pushdown_all_senders_local_no_dynamic_state():
    parts, eqs, marks = fig3_setup()
    whole = build_partitions(
        Graph(4, ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))), [0, 0, 0, 0], 1
    )
    refined = {0: refine_communication(whole[0], eqs, marks)}
    plans = [apply_refinement(initial_plan(whole[0], eqs), refined[0])]
    updated = aggregation_pushdown(plans, 0, {"min": min_contract()})
    assert updated[0].aggregators == ()


def test_pushdown_requires_algebraic_flags():
    from dataclasses import replace

    plans = _refined_plans()
    contract = replace(min_contract(), associative=False)
    with pytest.raises(AlgebraicPreconditionError):
        aggregation_pushdown(plans, 0, {"min": contract})


def test_validate_options_dependencies():
    validate_options(frozenset({"merge", "cache", "remote"}))
    with pytest.raises(PipelineOrderError):
        validate_options(frozenset({"remote"}))
    with pytest.raises(PipelineOrderError):
        validate_options(frozenset({"bogus"}))


def test_mode_table_covers_spec_strings():
    assert set(MODE_PASSES) == {
        "unopt", "merge", "merge+cache", "+local", "+remote", "full", "full+pushdown",
    }
    assert MODE_PASSES["unopt"] == frozenset()
    assert MODE_PASSES["full+pushdown"] >= MODE_PASSES["full"]


def test_every_ablation_mode_gives_identical_gol_states():
    wl = build_gol(20, 20, seed=13)
    parts = partition_greedy(wl.graph, 100, seed=13)
    checksums = set()
    for mode, passes in MODE_PASSES.items():
        plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                                 contracts=wl.contracts)
        state, _ = execute(wl, plans, rounds=10)
        checksums.add(state_checksum(wl, state.agent_values))
    assert len(checksums) == 1


def test_rewritten_forest_has_no_remote_accessors():
    """With every reference static and caches rewritten, the merged trees
    interact only with local state and local cache offsets."""
    from fuseforge.equations import CacheOffset

    plans = [merge_plan(rewrite_local(rewrite_remote(p))) for p in _refined_plans()]
    for plan in plans:
        assert all(accessor == "local" for _, accessor in plan.merged_forest.leaves)
    plan0 = next(p for p in plans if p.partition.id == 0)
    offsets = [
        src for src, _ in plan0.merged_forest.leaves if isinstance(src, CacheOffset)
    ]
    assert CacheOffset((1, 0), 0) in offsets
    assert CacheOffset((1, 0), 1) in offsets


def test_aggregator_staged_fold_expression():
    from fuseforge.optimizer import PartialFold

    plans = _refined_plans()
    updated = aggregation_pushdown(plans, 0, {"min": min_contract()})
    agg = next(p for p in updated if p.partition.id == 1).aggregators[0]
    staged = agg.staged
    assert isinstance(staged, PartialFold)
    assert staged.via == "min"
    assert tuple(e.target.agent_id for e in staged.inputs) == (2, 3)
