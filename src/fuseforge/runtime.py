"""BSP executor: superstep loop, mailbox delivery, partition workers.

Execution follows the synchronous BSP contract: messages sent in superstep t
are readable only in t+1.  Every agent's out-message of the previous round
lives in one flat message buffer: entries 0..n-1 hold each agent's message,
and the slots of every partition-pair message cache follow them.  A staged
read (local read, cache read, or a cache slot the receiver reads without the
remote pass) is an index into that buffer, and an agent's inputs are one
gather over its indices plus its mailbox.  Agents write the next round's
buffer, which swaps with the previous one at the barrier; agent values are
updated in place, since no agent reads another's value directly.  The
buffer and the mailboxes are seeded with each agent's initial-value
message, so staged reads at superstep 0 match message-passing mode exactly.

Determinism: order-sensitive contracts consume their inputs in ascending
sender order, per-agent RNG streams live inside agent values, and
worker-local cross-partition outboxes are merged at the barrier in partition
order, so the final state is bit-identical for any thread count and any
merged-order permutation.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter

from .equations import ComputeMethodContract, check_tag, identity
from .errors import ContractError, CoverageError
from .optimizer import CacheRead, LocalRead, PartitionPlan, RefinedNeighbors

_sender = itemgetter(0)


@dataclass
class Metrics:
    rounds: int
    threads: int
    seed: int
    wall_seconds_per_round: list[float] = field(default_factory=list)
    logical_messages_per_round: list[int] = field(default_factory=list)
    wire_units_per_round: list[int] = field(default_factory=list)
    header_units_per_round: list[int] = field(default_factory=list)
    inbound_wire_by_agent: dict[int, list[int]] = field(default_factory=dict)
    inbound_total_by_agent: dict[int, list[int]] = field(default_factory=dict)

    @property
    def mean_wall_seconds_per_round(self) -> float | None:
        if not self.wall_seconds_per_round:
            return None
        return sum(self.wall_seconds_per_round) / len(self.wall_seconds_per_round)


def wire_message_count(metrics: Metrics) -> tuple[list[int], list[int]]:
    """(logical agent-to-agent messages, cross-partition wire units) per round."""
    return metrics.logical_messages_per_round, metrics.wire_units_per_round


@dataclass
class SimulationState:
    superstep: int
    agent_values: dict[int, object]


def deliver(
    contract: ComputeMethodContract,
    raw: list[tuple[int, object]],
    receiver: int | None = None,
) -> list[object]:
    """Deserialize a mailbox batch in ascending-sender order.

    Payloads from negative (system) senders are already in-messages.
    """
    msgs = []
    for sender, payload in sorted(raw, key=lambda sp: sp[0]):
        value = payload if sender < 0 else contract.deserialize(payload)
        if not check_tag(contract.in_message_type, value):
            raise ContractError(
                f"message {value!r} from sender {sender} to receiver {receiver} "
                f"does not match in-message type {contract.in_message_type}"
            )
        msgs.append(value)
    return msgs


class Engine:
    """Compiled program: plans resolved into flat per-agent index tables."""

    def __init__(self, workload, plans: list[PartitionPlan], track_inbound: tuple[int, ...] = ()):
        self.workload = workload
        self.plans = plans
        self.track_inbound = tuple(track_inbound)
        n = workload.graph.vertex_count
        self.n = n

        covered: dict[int, int] = {}
        for plan in plans:
            for a in plan.agent_ids:
                if a in covered:
                    raise CoverageError(f"agent {a} appears in partitions {covered[a]} and {plan.partition.id}")
                covered[a] = plan.partition.id
        if len(covered) != n:
            missing = [a for a in range(n) if a not in covered]
            raise CoverageError(f"agents not covered by any plan: {missing[:10]}")
        self.partition_of = [covered[a] for a in range(n)]

        # message buffer layout: agents 0..n-1, then each cache's slots in key
        # order; source_of maps every buffer index to the agent that writes it
        caches = {key: c for plan in plans for key, c in plan.outbound_caches.items()}
        self.cache_count = len(caches)
        self.source_of = list(range(n))
        base: dict[tuple[int, int], int] = {}
        for key in sorted(caches):
            base[key] = len(self.source_of)
            self.source_of.extend(ref.agent_id for ref in caches[key].schema)
        publish: list[list[int]] = [[a] for a in range(n)]
        for i in range(n, len(self.source_of)):
            publish[self.source_of[i]].append(i)
        self.publish = [tuple(p) for p in publish]

        # per reader: buffer indices sorted by source, and the senders that
        # reach it by mailbox (whatever no staged read or cache slot covers,
        # minus senders folded by an aggregator)
        self.contract_of: list[ComputeMethodContract] = [None] * n  # type: ignore
        self.reads: list[tuple[int, ...]] = [()] * n
        self.local_to: list[list[int]] = [[] for _ in range(n)]
        self.cross_to: list[list[int]] = [[] for _ in range(n)]
        for plan in plans:
            pid = plan.partition.id
            for a, ap in plan.per_agent.items():
                self.contract_of[a] = workload.contracts[ap.equation.compute]
                rn = ap.refined or RefinedNeighbors((), (), ap.equation.reference_set)
                gather: list[tuple[int, int]] = []  # (source, buffer index)
                for e in ap.staged:
                    if isinstance(e, LocalRead):
                        gather.append((e.target.agent_id, e.target.agent_id))
                    elif isinstance(e, CacheRead):
                        gather.append((e.source_agent, base[e.cache] + e.offset))
                staged = {src for src, _ in gather}
                mail = [r.agent_id for r in rn.local_static if r.agent_id not in staged]
                for ref, src_pid in rn.remote_static:
                    if ref.agent_id in staged:
                        continue
                    key = (src_pid, pid)
                    if key in base:  # cached but not rewritten: read the slot
                        gather.append((ref.agent_id, base[key] + caches[key].offset_of[ref]))
                    else:
                        mail.append(ref.agent_id)
                replaced = plan.pushdown_replaced.get(a, ())
                mail.extend(r.agent_id for r in rn.dynamic if r.agent_id not in replaced)
                gather.sort()
                self.reads[a] = tuple(i for _, i in gather)
                for s in mail:
                    (self.local_to if self.partition_of[s] == pid else self.cross_to)[s].append(a)

        self.aggregators = [agg for plan in plans for agg in plan.aggregators]
        self.exec_order: list[list[int]] = []
        for plan in plans:
            order = plan.merged_order if plan.merged_order is not None else plan.agent_ids
            self.exec_order.append(list(order))

        # merged but uncached partitions tag each cross message with a header
        passes = plans[0].passes if plans else frozenset()
        self.cross_header = "merge" in passes and "cache" not in passes

    # -- execution ------------------------------------------------------------

    def run(self, rounds: int, threads: int = 1, seed: int = 0) -> tuple[SimulationState, Metrics]:
        n = self.n
        wl = self.workload
        metrics = Metrics(rounds=rounds, threads=threads, seed=seed)
        for a in self.track_inbound:
            metrics.inbound_wire_by_agent[a] = []
            metrics.inbound_total_by_agent[a] = []

        values: list = [wl.initial_values[a] for a in range(n)]
        # superstep-0 seeding: initial-value sends arrive at round 0
        prev: list = [None] * len(self.source_of)
        nxt: list = [None] * len(self.source_of)
        mailbox: list[list] = [[] for _ in range(n)]
        for a in range(n):
            out = self.contract_of[a].state_to_message(values[a])
            for i in self.publish[a]:
                prev[i] = out
            if out is not None:
                for r in self.local_to[a] + self.cross_to[a]:
                    mailbox[r].append((a, out))
        self._fold_aggregates(prev, mailbox)
        # consumers empty their mailbox lists, so the two sets alternate
        mail_next: list[list] = [[] for _ in range(n)]

        pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        try:
            for _ in range(rounds):
                t0 = time.perf_counter()
                shards = [[] for _ in self.plans]  # per worker: (reader, sender, payload)
                counters = [[0, 0] for _ in self.plans]  # logical, cross-partition

                def work(idx: int) -> None:
                    self._run_partition(idx, values, prev, nxt, mailbox, mail_next,
                                        shards[idx], counters[idx])

                if pool is None:
                    for i in range(len(self.plans)):
                        work(i)
                else:
                    list(pool.map(work, range(len(self.plans))))

                # barrier: merge cross-partition shards in partition order
                for shard in shards:
                    for reader, sender, payload in shard:
                        mail_next[reader].append((sender, payload))
                folded = self._fold_aggregates(nxt, mail_next)

                # one wire unit per directed cache per round, plus one per
                # dynamic/aggregated cross-partition message
                cross = sum(c[1] for c in counters)
                logical = sum(c[0] for c in counters) + folded
                wire = cross + folded + self.cache_count
                header = cross if self.cross_header else 0

                mailbox, mail_next = mail_next, mailbox
                prev, nxt = nxt, prev

                metrics.wall_seconds_per_round.append(time.perf_counter() - t0)
                metrics.logical_messages_per_round.append(logical)
                metrics.wire_units_per_round.append(wire)
                metrics.header_units_per_round.append(header)
                for a in self.track_inbound:
                    home = self.partition_of[a]
                    metrics.inbound_wire_by_agent[a].append(sum(
                        1 for s, _ in mailbox[a] if s < 0 or self.partition_of[s] != home))
                    metrics.inbound_total_by_agent[a].append(len(mailbox[a]))
        finally:
            if pool is not None:
                pool.shutdown()

        state = SimulationState(superstep=rounds, agent_values={a: values[a] for a in range(n)})
        return state, metrics

    def _fold_aggregates(self, outs: list, mailbox: list[list]) -> int:
        """Ship each aggregator's fold of its senders' messages in ``outs`` to
        its target's mailbox; returns the number of partials shipped."""
        shipped = 0
        for agg in self.aggregators:
            target = agg.target_agent
            c = self.contract_of[target]
            batch = [c.deserialize(outs[s]) for s in agg.senders if outs[s] is not None]
            partial = c.partial_compute(batch) if batch else None
            if partial is not None:
                mailbox[target].append((agg.ref.synthetic_id, partial))
                shipped += 1
        return shipped

    def _run_partition(self, idx, values, prev, nxt, mailbox, mail_next, shard, counter) -> None:
        contract_of = self.contract_of
        reads = self.reads
        source_of = self.source_of
        publish = self.publish
        local_to = self.local_to
        cross_to = self.cross_to
        logical = crossed = 0

        for agent in self.exec_order[idx]:
            c = contract_of[agent]
            deser = c.deserialize
            indices = reads[agent]
            msgs = [prev[i] for i in indices]
            inbox = mailbox[agent]
            if inbox and not c.pushdown_eligible:
                # order-sensitive fold: merge the reads into the mailbox by
                # sender (such contracts never receive aggregated partials)
                if indices:
                    inbox.extend([(source_of[i], m) for i, m in zip(indices, msgs)
                                  if m is not None])
                inbox.sort(key=_sender)
                msgs = [p for _, p in inbox]
                inbox.clear()
            elif None in msgs:
                msgs = [m for m in msgs if m is not None]
            if deser is not identity:
                msgs = [deser(m) for m in msgs]
            if inbox:
                # commutative fold: mail is consumed in arrival order
                if deser is identity:
                    msgs.extend([p for _, p in inbox])
                else:
                    msgs.extend([p if s < 0 else deser(p) for s, p in inbox])
                inbox.clear()

            folded = c.partial_compute(msgs) if msgs else None
            new_value = c.update_state(values[agent], folded)
            values[agent] = new_value

            out = c.state_to_message(new_value)
            for i in publish[agent]:
                nxt[i] = out
            if out is not None:
                local = local_to[agent]
                if local:
                    logical += len(local)
                    item = (agent, out)
                    for r in local:
                        mail_next[r].append(item)
                cross = cross_to[agent]
                if cross:
                    logical += len(cross)
                    crossed += len(cross)
                    for r in cross:
                        shard.append((r, agent, out))
        counter[0] = logical
        counter[1] = crossed


def execute(
    workload,
    plans: list[PartitionPlan],
    rounds: int,
    threads: int = 1,
    seed: int = 0,
    track_inbound: tuple[int, ...] = (),
) -> tuple[SimulationState, Metrics]:
    """Compile the plans and run ``rounds`` supersteps."""
    engine = Engine(workload, plans, track_inbound)
    return engine.run(rounds, threads=threads, seed=seed)
