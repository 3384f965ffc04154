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
from dataclasses import dataclass, field, replace
from typing import Callable

from .equations import (
    BehavioralEquation,
    ComputeMethodContract,
    StateRef,
)
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


@dataclass(frozen=True)
class RefinedNeighbors:
    local_static: tuple[StateRef, ...]
    remote_static: tuple[tuple[StateRef, int], ...]  # (ref, partition)
    dynamic: tuple[StateRef, ...]


@dataclass(frozen=True)
class MessageCache:
    """Id-ordered slot buffer standing in for one partition's boundary agents
    as read by one other partition; the executor lays the slots out in its
    message buffer."""

    source_partition: int
    dest_partition: int
    schema: tuple[StateRef, ...]  # sorted ascending by agent id
    offset_of: dict[StateRef, int] = field(compare=False)

    @property
    def key(self) -> tuple[int, int]:
        return (self.source_partition, self.dest_partition)

    def __len__(self) -> int:
        return len(self.schema)


def _make_cache(src: int, dst: int, refs) -> MessageCache:
    schema = tuple(sorted(set(refs), key=lambda r: r.agent_id))
    return MessageCache(src, dst, schema, {r: i for i, r in enumerate(schema)})


# Staged expressions ----------------------------------------------------------


@dataclass(frozen=True)
class CacheRead:
    cache: tuple[int, int]
    offset: int
    source_agent: int


@dataclass(frozen=True)
class LocalRead:
    """Read of a same-partition agent's previous-round message."""

    target: StateRef


@dataclass(frozen=True)
class PartialFold:
    inputs: tuple
    via: str


StagedExpr = object  # CacheRead | LocalRead | PartialFold


@dataclass(frozen=True)
class DynamicStateRef:
    """System-created aggregation state; ids are negative and disjoint from
    agent ids."""

    synthetic_id: int
    host_partition: int
    fold_op: str


@dataclass(frozen=True)
class Aggregator:
    ref: DynamicStateRef
    target_agent: int
    target_partition: int
    senders: tuple[int, ...]  # local senders, ascending

    @property
    def staged(self) -> PartialFold:
        """The aggregation as a staged expression over sender reads."""
        return PartialFold(
            tuple(LocalRead(StateRef(s)) for s in self.senders),
            self.ref.fold_op,
        )


# Merged computation forest ----------------------------------------------------


@dataclass(frozen=True)
class MergedForest:
    """Member computation trees with duplicate leaves unified.

    Leaves are keyed on (source, accessor); roots reference leaf indexes.
    """

    roots: tuple[tuple[StateRef, str], ...]
    leaves: tuple[tuple[object, str], ...]
    edges: tuple[tuple[int, ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.roots) + len(self.leaves)


def merge_trees(trees) -> MergedForest:
    leaf_index: dict[tuple[object, str], int] = {}
    roots = []
    edges = []
    for tree in trees:
        roots.append((tree.result, tree.op))
        row = []
        for leaf in tree.leaves:
            key = (leaf.source, leaf.accessor)
            if key not in leaf_index:
                leaf_index[key] = len(leaf_index)
            row.append(leaf_index[key])
        edges.append(tuple(row))
    return MergedForest(tuple(roots), tuple(leaf_index), tuple(edges))


# Partition plans ---------------------------------------------------------------


@dataclass(frozen=True)
class AgentPlan:
    equation: BehavioralEquation
    refined: RefinedNeighbors | None = None
    staged: tuple[StagedExpr, ...] = ()


@dataclass(frozen=True)
class PartitionPlan:
    partition: Partition
    per_agent: dict[int, AgentPlan] = field(compare=False)
    passes: frozenset[str] = frozenset()
    inbound_caches: dict[tuple[int, int], MessageCache] = field(default_factory=dict, compare=False)
    outbound_caches: dict[tuple[int, int], MessageCache] = field(default_factory=dict, compare=False)
    aggregators: tuple[Aggregator, ...] = ()
    pushdown_replaced: dict[int, frozenset[int]] = field(default_factory=dict, compare=False)
    inbound_aggregates: dict[int, tuple[DynamicStateRef, ...]] = field(default_factory=dict, compare=False)
    merged_order: tuple[int, ...] | None = None
    merged_forest: MergedForest | None = None

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
        local_static: list[StateRef] = []
        remote_static: list[tuple[StateRef, int]] = []
        dynamic: list[StateRef] = []
        for ref in eq.reference_set:
            if ref not in marks:
                dynamic.append(ref)
            elif ref.agent_id in members:
                local_static.append(ref)
            else:
                pid = remote_pid.get((agent, ref.agent_id))
                if pid is None:
                    raise DanglingReferenceError(
                        f"agent {agent} statically references {ref!r}, which is "
                        f"neither local nor a known cross-partition neighbor"
                    )
                remote_static.append((ref, pid))
        refined[agent] = RefinedNeighbors(
            tuple(sorted(local_static, key=lambda r: r.agent_id)),
            tuple(sorted(remote_static, key=lambda rp: rp[0].agent_id)),
            tuple(dynamic),
        )
    return refined


def apply_refinement(plan: PartitionPlan, refined: dict[int, RefinedNeighbors]) -> PartitionPlan:
    per_agent = {
        a: replace(ap, refined=refined[a]) for a, ap in plan.per_agent.items()
    }
    return replace(plan, per_agent=per_agent)


def synthesize_caches(
    refined_by_partition: dict[int, dict[int, RefinedNeighbors]],
) -> dict[tuple[int, int], MessageCache]:
    """One cache per directed partition pair with at least one static remote
    reference; schemas sorted by agent id for offset lookups."""
    wanted: dict[tuple[int, int], set[StateRef]] = {}
    for dst_pid, refined in refined_by_partition.items():
        for rn in refined.values():
            for ref, src_pid in rn.remote_static:
                wanted.setdefault((src_pid, dst_pid), set()).add(ref)
    return {key: _make_cache(key[0], key[1], refs) for key, refs in sorted(wanted.items())}


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
    per_agent = {}
    for agent, ap in plan.per_agent.items():
        if ap.refined is None:
            raise PipelineOrderError("rewrite_remote requires refine_communication first")
        reads = [e for e in ap.staged if not isinstance(e, CacheRead)]
        for ref, src_pid in ap.refined.remote_static:
            cache = plan.inbound_caches.get((src_pid, pid))
            if cache is None:
                raise PipelineOrderError(
                    f"no cache for static remote reference {ref!r} from partition {src_pid}"
                )
            reads.append(CacheRead((src_pid, pid), cache.offset_of[ref], ref.agent_id))
        per_agent[agent] = replace(ap, staged=_sort_reads(reads))
    return replace(plan, per_agent=per_agent, passes=plan.passes | {"remote"})


def rewrite_local(plan: PartitionPlan) -> PartitionPlan:
    """Turn static local references into direct reads of the previous
    round's messages; no mailbox messages are materialized for them."""
    per_agent = {}
    for agent, ap in plan.per_agent.items():
        if ap.refined is None:
            raise PipelineOrderError("rewrite_local requires refine_communication first")
        reads = [e for e in ap.staged if not isinstance(e, LocalRead)]
        reads.extend(LocalRead(ref) for ref in ap.refined.local_static)
        per_agent[agent] = replace(ap, staged=_sort_reads(reads))
    return replace(plan, per_agent=per_agent, passes=plan.passes | {"local"})


def _read_source(e) -> int:
    if isinstance(e, CacheRead):
        return e.source_agent
    if isinstance(e, LocalRead):
        return e.target.agent_id
    return -1


def _sort_reads(reads) -> tuple:
    return tuple(sorted(reads, key=_read_source))


def merge_plan(plan: PartitionPlan) -> PartitionPlan:
    """Consolidate members into one schedulable unit with a fixed execution
    order; shared computation-tree leaves are deduplicated.

    Trees are built from the refined classification, so an agent replaced by
    aggregation pushdown reads the dynamic states instead of the senders, and
    a cached remote reference appears as a local read of its cache offset.
    """
    from .equations import CacheOffset, ComputationTree, TreeLeaf

    order = tuple(sorted(plan.per_agent))
    forest = None
    if all(ap.refined is not None for ap in plan.per_agent.values()):
        pid = plan.partition.id
        members = plan.partition.member_set
        rewritten = "remote" in plan.passes
        trees = []
        for agent in order:
            ap = plan.per_agent[agent]
            leaves = [TreeLeaf(ap.equation.lhs, "local", pid)]
            for ref in ap.refined.local_static:
                leaves.append(TreeLeaf(ref, "local", pid))
            for ref, src in ap.refined.remote_static:
                cache = plan.inbound_caches.get((src, pid))
                if rewritten and cache is not None:
                    offset = CacheOffset((src, pid), cache.offset_of[ref])
                    leaves.append(TreeLeaf(offset, "local", pid))
                else:
                    leaves.append(TreeLeaf(ref, "remote", src))
            for ref in ap.refined.dynamic:
                local = ref.agent_id in members
                leaves.append(TreeLeaf(ref, "local" if local else "remote",
                                       pid if local else None))
            for dyn in plan.inbound_aggregates.get(agent, ()):
                leaves.append(TreeLeaf(dyn, "remote", dyn.host_partition))
            trees.append(ComputationTree(ap.equation.rhs, ap.equation.compute,
                                         tuple(leaves), pid))
        forest = merge_trees(trees)
    return replace(plan, merged_order=order, merged_forest=forest,
                   passes=plan.passes | {"merge"})


def aggregation_pushdown(
    plans: list[PartitionPlan],
    target: int,
    contracts: dict[str, ComputeMethodContract],
) -> list[PartitionPlan]:
    """Fold messages bound for ``target`` inside each non-owner partition and
    ship one partial result instead.

    The replaced senders disappear from the target's static remote references
    (and any already-staged cache reads), so later cache synthesis carries
    only references that are still read directly.
    """
    owner = next(p for p in plans if target in p.per_agent)
    if target in owner.pushdown_replaced:
        return list(plans)
    eq = owner.per_agent[target].equation
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
        if plan.partition.id == owner.partition.id:
            continue
        local_senders = tuple(sorted(sender_ids & plan.partition.member_set))
        if not local_senders:
            continue
        counter += 1
        ref = DynamicStateRef(-counter, plan.partition.id, eq.compute)
        aggs_by_pid[plan.partition.id] = Aggregator(
            ref, target, owner.partition.id, local_senders
        )
        replaced.update(local_senders)
    new_plans = []
    for plan in plans:
        agg = aggs_by_pid.get(plan.partition.id)
        updated = plan
        if agg is not None:
            updated = replace(updated, aggregators=plan.aggregators + (agg,))
        if plan.partition.id == owner.partition.id and replaced:
            ap = updated.per_agent[target]
            refined = ap.refined
            if refined is not None:
                refined = replace(
                    refined,
                    remote_static=tuple(
                        (r, pid) for r, pid in refined.remote_static
                        if r.agent_id not in replaced
                    ),
                )
            staged = tuple(
                e for e in ap.staged
                if not (isinstance(e, CacheRead) and e.source_agent in replaced)
            )
            per_agent = dict(updated.per_agent)
            per_agent[target] = replace(ap, refined=refined, staged=staged)
            marks = dict(updated.pushdown_replaced)
            marks[target] = frozenset(replaced)
            inbound = dict(updated.inbound_aggregates)
            inbound[target] = tuple(
                aggs_by_pid[pid].ref for pid in sorted(aggs_by_pid)
            )
            updated = replace(updated, per_agent=per_agent, pushdown_replaced=marks,
                              inbound_aggregates=inbound,
                              passes=updated.passes | {"pushdown"})
        new_plans.append(updated)
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
    plans = [initial_plan(part, eqs) for part in partitions]

    def done(name: str, t0: float) -> None:
        if on_pass is not None:
            on_pass(name, time.perf_counter() - t0)

    t0 = time.perf_counter()
    refined_by_pid = {
        part.id: refine_communication(part, eqs, static_marks) for part in partitions
    }
    plans = [apply_refinement(p, refined_by_pid[p.partition.id]) for p in plans]
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
