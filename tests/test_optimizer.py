"""Pass pipeline: refinement, cache synthesis, rewrites, merge, pushdown."""

from __future__ import annotations

import pytest

from fuseforge.equations import BehavioralEquation, StateRef
from fuseforge.errors import (
    AlgebraicPreconditionError,
    DanglingReferenceError,
    PipelineOrderError,
)
from fuseforge.graphgen import Graph, build_partitions, erm, partition_greedy
from fuseforge.optimizer import (
    MODE_PASSES,
    MessageCache,
    aggregation_pushdown,
    apply_refinement,
    default_pipeline,
    initial_plan,
    merge_plan,
    refine_communication,
    register_caches,
    rewrite_local,
    rewrite_remote,
    synthesize_caches,
    validate_options,
)
from fuseforge.workloads import build_economics, build_gol, build_pagerank, state_checksum
from fuseforge.runtime import Engine, execute


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
    assert rn.local_static == (1,)
    assert rn.remote_static == ((2, 1), (3, 1))
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
    assert refined[0].dynamic == tuple(r.agent_id for r in eqs[0].reference_set)


def test_synthesize_fig3_cache_schema_and_offsets():
    parts, eqs, marks = fig3_setup()
    refined = {p.id: refine_communication(p, eqs, marks) for p in parts}
    caches = synthesize_caches(refined)
    cache = caches[(1, 0)]  # partition 1's boundary agents read by partition 0
    assert cache.schema == (2, 3)
    assert cache.schema.index(2) == 0
    assert cache.schema.index(3) == 1


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
    for cache in caches.values():
        assert list(cache.schema) == sorted(set(cache.schema))
    for pid, agent_map in refined.items():
        for agent, rn in agent_map.items():
            offsets = set()
            for source, src in rn.remote_static:
                cache = caches[(src, pid)]
                off = cache.schema.index(source)  # total
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
    cache_reads = [s for s in staged if s not in plan0.partition.member_set]
    assert cache_reads == [2, 3]
    schema = plan0.inbound_caches[(1, 0)].schema
    assert [schema.index(s) for s in cache_reads] == [0, 1]


@pytest.mark.parametrize("schema", [None, (3,), (2,)], ids=["no-cache", "lacks-2", "lacks-3"])
def test_rewrite_remote_needs_a_slot_for_every_static_remote(schema):
    from dataclasses import replace

    plan0 = _refined_plans()[0]
    inbound = {} if schema is None else {(1, 0): MessageCache(1, 0, schema)}
    with pytest.raises(PipelineOrderError):
        rewrite_remote(replace(plan0, inbound_caches=inbound))


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
            staged_sources = {s for s in ap.staged if s not in plan.partition.member_set}
            assert staged_sources == {src for src, _ in ap.refined.remote_static}


def test_rewrite_local_fig3():
    plans = _refined_plans()
    plan0 = rewrite_local(plans[0])
    assert "local" in plan0.passes
    members = plan0.partition.member_set
    staged = plan0.per_agent[0].staged
    local_reads = [s for s in staged if s in members]
    assert local_reads == [1]
    # agent 1 has no local static refs: unchanged program, plan-wide flag set
    assert all(s not in members for s in plan0.per_agent[1].staged)


def test_pass_idempotence():
    plans = _refined_plans()
    once = rewrite_remote(plans[0])
    assert rewrite_remote(once).plan_key() == once.plan_key()
    local_once = rewrite_local(plans[0])
    assert rewrite_local(local_once).plan_key() == local_once.plan_key()
    both = rewrite_remote(local_once)
    assert rewrite_local(both).plan_key() == both.plan_key()


def test_merge_orders_ascending():
    plans = _refined_plans()
    merged = merge_plan(plans[0])
    assert merged.merged_order == (0, 1)


def test_merge_singleton_partition_structurally_unchanged():
    g = Graph(1, ((),))
    eqs = {0: BehavioralEquation(StateRef(0), "min", (), StateRef(0))}
    parts = build_partitions(g, [0], 1)
    plan = apply_refinement(initial_plan(parts[0], eqs),
                            refine_communication(parts[0], eqs, {0: set()}))
    merged = merge_plan(plan)
    assert merged.merged_order == (0,)


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


def test_pushdown_drops_replaced_senders_from_dynamic_references():
    """With no static marks every reference is dynamic; the senders an
    aggregator replaces must leave the target's dynamic references too, so
    the executor mails none of them."""
    parts, eqs, _ = fig3_setup()
    plans = [
        apply_refinement(initial_plan(p, eqs), refine_communication(p, eqs, {}))
        for p in parts
    ]
    updated = aggregation_pushdown(plans, 0, {"min": min_contract()})
    owner = next(p for p in updated if p.partition.id == 0)
    assert owner.per_agent[0].refined.dynamic == (1,)
    assert owner.pushdown_replaced[0] == frozenset({2, 3})


def test_pushdown_requires_refinement():
    parts, eqs, _ = fig3_setup()
    plans = [initial_plan(p, eqs) for p in parts]
    with pytest.raises(PipelineOrderError):
        aggregation_pushdown(plans, 0, {"min": min_contract()})


def test_pushdown_to_an_unknown_target_names_it():
    wl = build_economics(33)
    parts = partition_greedy(wl.graph, 9, 0)
    with pytest.raises(DanglingReferenceError, match="999"):
        default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES["full+pushdown"],
                         contracts=wl.contracts, pushdown_targets=(999,))


def test_passes_reuse_the_plans_of_agents_they_leave_unchanged():
    """gol 8x8 in four partitions: an interior agent has no remote reads,
    so rewrite_remote hands back its plan object."""
    wl = build_gol(8, 8)
    parts = partition_greedy(wl.graph, 16, 0)
    plans = [apply_refinement(initial_plan(p, wl.equations),
                              refine_communication(p, wl.equations, wl.static_marks))
             for p in parts]
    caches = synthesize_caches({p.partition.id: {a: ap.refined for a, ap in p.per_agent.items()}
                                for p in plans})
    plans = [register_caches(p, caches) for p in plans]
    remote = [rewrite_remote(p) for p in plans]
    assert any(not ap.refined.remote_static for p in plans for ap in p.per_agent.values())
    for before, after in zip(plans, remote):
        for a, ap in before.per_agent.items():
            assert (after.per_agent[a] is ap) == (not ap.refined.remote_static)


@pytest.mark.parametrize("build", [lambda: build_gol(20, 20),
                                   lambda: build_pagerank(erm(300, 0.05, seed=2))],
                         ids=["gol", "pagerank"])
def test_full_plans_share_their_tuples(build):
    """A staged tuple equal to the agent's ``local_static`` is that tuple,
    and each ``(source, partition)`` pair is one object per partition."""
    wl = build()
    plans = default_pipeline(partition_greedy(wl.graph, 100, 0), wl.equations, wl.static_marks,
                             MODE_PASSES["full"], contracts=wl.contracts)
    shared = 0
    for plan in plans:
        pairs = [sp for ap in plan.per_agent.values() for sp in ap.refined.remote_static]
        assert len(pairs) > len(set(pairs))
        assert len({id(sp) for sp in pairs}) == len(set(pairs))
        for ap in plan.per_agent.values():
            if ap.staged == ap.refined.local_static:
                assert ap.staged is ap.refined.local_static
                shared += bool(ap.staged)
    assert shared > 0


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


def test_rewritten_program_reads_only_local_state():
    """With every reference static, each mode that stages local reads leaves
    the compiled program no mail route: no logical messages, and one wire
    unit per directed cache per round."""
    wl = build_gol(12, 12, seed=5)
    parts = partition_greedy(wl.graph, 36, seed=5)
    rounds = 4
    for mode in ("+local", "full", "full+pushdown"):
        plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES[mode],
                                 contracts=wl.contracts)
        engine = Engine(wl, plans)
        assert engine.routes == 0, mode
        _, metrics = engine.run(rounds)
        assert metrics.logical_messages_per_round == [0] * rounds, mode
        assert metrics.wire_units_per_round == [engine.cache_count] * rounds, mode
    plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES["unopt"])
    _, metrics = Engine(wl, plans).run(rounds)
    assert min(metrics.logical_messages_per_round) > 0
