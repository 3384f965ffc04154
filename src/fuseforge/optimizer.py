"""Pass pipeline: from per-agent equations to specialized partition plans.

Stages, in default order: refine communication (classify each reference as
local/remote and static/dynamic), synthesize per-directed-partition-pair
message caches, rewrite remote reads into cache lookups, rewrite local reads
into direct reads of the previous round's messages, merge members into one schedulable unit,
and aggregation pushdown for assoc+comm targets.  Every pass is a pure
function plan -> plan, so ablation subsets run as first-class modes.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable

from .equations import BehavioralEquation, ComputeMethodContract, StateRef
from .errors import (
    AlgebraicPreconditionError,
    DanglingReferenceError,
    PipelineOrderError,
)
from .graphgen import Partition

PASS_NAMES = ("merge", "cache", "local", "remote", "pushdown")

# CLI mode strings; "+local"/"+remote" are the cumulative ablation stages, so
# "+remote" and "full" coincide (all four structural passes).
MODE_PASSES: dict[str, frozenset[str]] = {
    "unopt": frozenset(),
    "merge": frozenset({"merge"}),
    "merge+cache": frozenset({"merge", "cache"}),
    "+local": frozenset({"merge", "cache", "local"}),
    "+remote": frozenset({"merge", "cache", "local", "remote"}),
    "full": frozenset({"merge", "cache", "local", "remote"}),
    "full+pushdown": frozenset({"merge", "cache", "local", "remote", "pushdown"}),
}


@dataclass(frozen=True, slots=True)
class RefinedNeighbors:
    """One agent's references by source agent id."""

    local_static: tuple[int, ...]  # ascending
    remote_static: tuple[tuple[int, int], ...]  # (source, its partition), ascending
    dynamic: tuple[int, ...]  # in equation order


@dataclass(frozen=True)
class MessageCache:
    """Slot buffer standing in for one partition's boundary agents as read
    by one other partition: slot k holds the message of agent ``schema[k]``."""

    source_partition: int
    dest_partition: int
    schema: tuple[int, ...]  # ascending agent ids

    def __len__(self) -> int:
        return len(self.schema)


@dataclass(frozen=True)
class DynamicStateRef:
    """System-created aggregation state; ids are negative and disjoint from
    agent ids."""

    synthetic_id: int
    fold_op: str


@dataclass(frozen=True)
class Aggregator:
    ref: DynamicStateRef
    target_agent: int
    senders: tuple[int, ...]  # local senders, ascending


# Partition plans ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AgentPlan:
    equation: BehavioralEquation
    refined: RefinedNeighbors | None = None
    # sources read from the previous round's messages, ascending; members
    # were staged by rewrite_local, non-members by rewrite_remote
    staged: tuple[int, ...] = ()


@dataclass(frozen=True)
class PartitionPlan:
    partition: Partition
    per_agent: dict[int, AgentPlan] = field(compare=False)
    passes: frozenset[str] = frozenset()
    inbound_caches: dict[tuple[int, int], MessageCache] = field(default_factory=dict, compare=False)
    outbound_caches: dict[tuple[int, int], MessageCache] = field(default_factory=dict, compare=False)
    aggregators: tuple[Aggregator, ...] = ()
    pushdown_replaced: dict[int, frozenset[int]] = field(default_factory=dict, compare=False)
    merged_order: tuple[int, ...] | None = None

    @property
    def agent_ids(self) -> tuple[int, ...]:
        return self.partition.member_ids

    def plan_key(self) -> tuple:
        """Equality surrogate including the non-compared dict fields."""
        return (
            self.partition.id,
            tuple(sorted(self.per_agent.items())),
            self.passes,
            tuple(sorted(self.inbound_caches)),
            tuple(sorted(self.outbound_caches)),
            self.aggregators,
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.pushdown_replaced.items())),
            self.merged_order,
        )


def initial_plan(part: Partition, eqs: dict[int, BehavioralEquation]) -> PartitionPlan:
    per_agent = {a: AgentPlan(eqs[a]) for a in part.member_ids}
    return PartitionPlan(partition=part, per_agent=per_agent)


# Passes -------------------------------------------------------------------------


def refine_communication(
    part: Partition,
    eqs: dict[int, BehavioralEquation],
    static_marks: dict[int, set[StateRef]],
) -> dict[int, RefinedNeighbors]:
    """Classify each member's references as local/remote and static/dynamic."""
    remote_pid = {(u, v): pid for (u, v, pid) in part.cross_edges}
    members = part.member_set
    refined = {}
    for agent in part.member_ids:
        eq = eqs.get(agent)
        if eq is None:
            raise DanglingReferenceError(f"no equation for agent {agent}")
        marks = static_marks.get(agent, set())
        local_static: list[int] = []
        remote_static: list[tuple[int, int]] = []
        dynamic: list[int] = []
        for ref in eq.reference_set:
            src = ref.agent_id
            if ref not in marks:
                dynamic.append(src)
            elif src in members:
                local_static.append(src)
            else:
                pid = remote_pid.get((agent, src))
                if pid is None:
                    raise DanglingReferenceError(
                        f"agent {agent} statically references {ref!r}, which is "
                        f"neither local nor a known cross-partition neighbor"
                    )
                remote_static.append((src, pid))
        refined[agent] = RefinedNeighbors(
            tuple(sorted(local_static)), tuple(sorted(remote_static)), tuple(dynamic)
        )
    return refined


def apply_refinement(plan: PartitionPlan, refined: dict[int, RefinedNeighbors]) -> PartitionPlan:
    per_agent = {
        a: AgentPlan(ap.equation, refined[a], ap.staged) for a, ap in plan.per_agent.items()
    }
    return replace(plan, per_agent=per_agent)


def synthesize_caches(
    refined_by_partition: dict[int, dict[int, RefinedNeighbors]],
) -> dict[tuple[int, int], MessageCache]:
    """One cache per directed partition pair with at least one static remote
    reference; its schema holds each referenced source once, ascending."""
    wanted: dict[tuple[int, int], set[int]] = {}
    for dst_pid, refined in refined_by_partition.items():
        for rn in refined.values():
            for src, src_pid in rn.remote_static:
                wanted.setdefault((src_pid, dst_pid), set()).add(src)
    return {
        (src_pid, dst_pid): MessageCache(src_pid, dst_pid, tuple(sorted(sources)))
        for (src_pid, dst_pid), sources in sorted(wanted.items())
    }


def register_caches(
    plan: PartitionPlan, caches: dict[tuple[int, int], MessageCache]
) -> PartitionPlan:
    pid = plan.partition.id
    inbound = {k: c for k, c in caches.items() if c.dest_partition == pid}
    outbound = {k: c for k, c in caches.items() if c.source_partition == pid}
    return replace(plan, inbound_caches=inbound, outbound_caches=outbound,
                   passes=plan.passes | {"cache"})


def rewrite_remote(plan: PartitionPlan) -> PartitionPlan:
    """Turn static remote references into cache reads (remote -> local)."""
    if "cache" not in plan.passes:
        raise PipelineOrderError("rewrite_remote requires synthesize_caches first")
    pid = plan.partition.id
    members = plan.partition.member_set
    per_agent = {}
    for agent, ap in plan.per_agent.items():
        if ap.refined is None:
            raise PipelineOrderError("rewrite_remote requires refine_communication first")
        reads = [s for s in ap.staged if s in members]
        for src, src_pid in ap.refined.remote_static:
            cache = plan.inbound_caches.get((src_pid, pid))
            schema = cache.schema if cache is not None else ()
            slot = bisect_left(schema, src)
            if slot == len(schema) or schema[slot] != src:
                raise PipelineOrderError(
                    f"no cache slot for agent {agent}'s static remote reference "
                    f"to agent {src} of partition {src_pid}"
                )
            reads.append(src)
        per_agent[agent] = _with_staged(ap, reads)
    return replace(plan, per_agent=per_agent, passes=plan.passes | {"remote"})


def rewrite_local(plan: PartitionPlan) -> PartitionPlan:
    """Turn static local references into direct reads of the previous
    round's messages; no mailbox messages are materialized for them."""
    members = plan.partition.member_set
    per_agent = {}
    for agent, ap in plan.per_agent.items():
        if ap.refined is None:
            raise PipelineOrderError("rewrite_local requires refine_communication first")
        reads = [s for s in ap.staged if s not in members]
        reads.extend(ap.refined.local_static)
        per_agent[agent] = _with_staged(ap, reads)
    return replace(plan, per_agent=per_agent, passes=plan.passes | {"local"})


def _with_staged(ap: AgentPlan, reads: list[int]) -> AgentPlan:
    """``ap`` staging ``reads``; ``ap`` itself when that changes nothing."""
    staged = tuple(sorted(reads))
    if staged == ap.staged:
        return ap
    return AgentPlan(ap.equation, ap.refined, staged)


def merge_plan(plan: PartitionPlan) -> PartitionPlan:
    """Consolidate members into one schedulable unit with a fixed execution
    order (ascending agent id)."""
    return replace(plan, merged_order=tuple(sorted(plan.per_agent)),
                   passes=plan.passes | {"merge"})


def aggregation_pushdown(
    plans: list[PartitionPlan],
    target: int,
    contracts: dict[str, ComputeMethodContract],
) -> list[PartitionPlan]:
    """Fold messages bound for ``target`` inside each non-owner partition and
    ship one partial result instead.

    This pass alone decides which senders an aggregator replaces.  They leave
    the target's static remote references, its dynamic references and any
    already-staged cache reads, so later cache synthesis carries only
    references that are still read directly and the executor mails none of
    them.
    """
    owner = next((p for p in plans if target in p.per_agent), None)
    if owner is None:
        raise DanglingReferenceError(f"pushdown target {target} is in no partition")
    ap = owner.per_agent[target]
    if ap.refined is None:
        raise PipelineOrderError("aggregation_pushdown requires refine_communication first")
    if target in owner.pushdown_replaced:
        return list(plans)
    eq = ap.equation
    contract = contracts[eq.compute]
    if not contract.pushdown_eligible:
        raise AlgebraicPreconditionError(
            f"pushdown for agent {target} needs an associative+commutative "
            f"partialCompute; contract {contract.name!r} is not declared so"
        )
    sender_ids = {r.agent_id for r in eq.reference_set}
    counter = sum(len(p.aggregators) for p in plans)
    replaced: set[int] = set()
    aggs_by_pid: dict[int, Aggregator] = {}
    for plan in sorted(plans, key=lambda p: p.partition.id):
        if plan is owner:
            continue
        local_senders = tuple(sorted(sender_ids & plan.partition.member_set))
        if not local_senders:
            continue
        counter += 1
        ref = DynamicStateRef(-counter, eq.compute)
        aggs_by_pid[plan.partition.id] = Aggregator(ref, target, local_senders)
        replaced.update(local_senders)
    new_plans = []
    for plan in plans:
        agg = aggs_by_pid.get(plan.partition.id)
        if agg is not None:
            plan = replace(plan, aggregators=plan.aggregators + (agg,))
        elif plan is owner and replaced:
            refined = RefinedNeighbors(
                ap.refined.local_static,
                tuple(sp for sp in ap.refined.remote_static if sp[0] not in replaced),
                tuple(s for s in ap.refined.dynamic if s not in replaced),
            )
            staged = tuple(s for s in ap.staged if s not in replaced)
            per_agent = {**plan.per_agent, target: AgentPlan(eq, refined, staged)}
            plan = replace(plan, per_agent=per_agent,
                           pushdown_replaced={**plan.pushdown_replaced,
                                              target: frozenset(replaced)},
                           passes=plan.passes | {"pushdown"})
        new_plans.append(plan)
    return new_plans


def validate_options(options: frozenset[str]) -> None:
    unknown = options - set(PASS_NAMES)
    if unknown:
        raise PipelineOrderError(f"unknown passes {sorted(unknown)}")
    if "remote" in options and "cache" not in options:
        raise PipelineOrderError("rewrite_remote requires the cache synthesis pass")


def default_pipeline(
    partitions: list[Partition],
    eqs: dict[int, BehavioralEquation],
    static_marks: dict[int, set[StateRef]],
    options: frozenset[str] = MODE_PASSES["full"],
    contracts: dict[str, ComputeMethodContract] | None = None,
    pushdown_targets: tuple[int, ...] = (),
    on_pass: Callable[[str, float], None] | None = None,
) -> list[PartitionPlan]:
    """Apply the enabled passes in default order across all partitions.

    Cache synthesis is the single global barrier: it needs every partition's
    refined map; all other passes run per partition.  ``on_pass``, when
    given, receives each pass name and the seconds that pass took.
    """
    validate_options(options)

    def done(name: str, t0: float) -> None:
        if on_pass is not None:
            on_pass(name, time.perf_counter() - t0)

    t0 = time.perf_counter()
    plans = [
        PartitionPlan(part, {a: AgentPlan(eqs[a], rn) for a, rn
                             in refine_communication(part, eqs, static_marks).items()})
        for part in partitions
    ]
    done("refine", t0)
    if "pushdown" in options:
        # replacement analysis runs before cache synthesis so replaced senders
        # never become cached remote references of the target
        t0 = time.perf_counter()
        if contracts is None:
            raise PipelineOrderError("pushdown needs the contract registry")
        for target in pushdown_targets:
            plans = aggregation_pushdown(plans, target, contracts)
        done("pushdown", t0)
    if "cache" in options:
        t0 = time.perf_counter()
        refined_now = {
            p.partition.id: {a: ap.refined for a, ap in p.per_agent.items()}
            for p in plans
        }
        caches = synthesize_caches(refined_now)
        plans = [register_caches(p, caches) for p in plans]
        done("cache", t0)
    if "remote" in options:
        t0 = time.perf_counter()
        plans = [rewrite_remote(p) for p in plans]
        done("remote", t0)
    if "local" in options:
        t0 = time.perf_counter()
        plans = [rewrite_local(p) for p in plans]
        done("local", t0)
    if "merge" in options:
        t0 = time.perf_counter()
        plans = [merge_plan(p) for p in plans]
        done("merge", t0)
    return plans
