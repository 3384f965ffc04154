"""BSP executor: superstep loop, mailbox delivery, partition workers.

Execution follows the synchronous BSP contract: messages sent in superstep t
are readable only in t+1.  Every agent's out-message of the previous round
lives in one flat message buffer of n entries, indexed by agent id.  A
staged read, and a cache slot the receiver reads without the remote pass,
is the id of its source agent: a cache slot holds exactly its source's
message, so it aliases that entry, and caches remain only the wire-unit
model.  An agent's inputs are one gather over its indices plus its mailbox.
Agents write the next round's buffer, which swaps with the previous one at
the barrier; agent values are updated in place, since no agent reads
another's value directly.  The buffer and the mailboxes are seeded with each
agent's initial-value message, so staged reads at superstep 0 match
message-passing mode exactly.

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

from .equations import ComputeMethodContract, check_tag
from .errors import ContractError, CoverageError
from .optimizer import PartitionPlan, RefinedNeighbors

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


@dataclass
class SimulationState:
    superstep: int
    agent_values: dict[int, object]


def deliver(
    contract: ComputeMethodContract,
    raw: list[tuple[int, object]],
    receiver: int | None = None,
) -> list[object]:
    """A mailbox batch's payloads in ascending-sender order, each checked
    against the contract's in-message type."""
    msgs = []
    for sender, payload in sorted(raw, key=_sender):
        if not check_tag(contract.in_message_type, payload):
            raise ContractError(
                f"message {payload!r} from sender {sender} to receiver {receiver} "
                f"does not match in-message type {contract.in_message_type}"
            )
        msgs.append(payload)
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

        caches = {key for plan in plans for key in plan.outbound_caches}
        self.cache_count = len(caches)

        # per reader: the sources it reads from the buffer, ascending, and the
        # senders that reach it by mailbox (whatever no staged read or cache
        # slot covers; aggregation pushdown has already dropped the senders
        # its aggregators fold)
        self.contract_of: list[ComputeMethodContract] = [None] * n  # type: ignore
        self.reads: list[tuple[int, ...]] = [()] * n
        self.local_to: list[list[int]] = [[] for _ in range(n)]
        self.cross_to: list[list[int]] = [[] for _ in range(n)]
        for plan in plans:
            pid = plan.partition.id
            for a, ap in plan.per_agent.items():
                self.contract_of[a] = workload.contracts[ap.equation.compute]
                rn = ap.refined or RefinedNeighbors(
                    (), (), tuple(r.agent_id for r in ap.equation.reference_set))
                gather = list(ap.staged)
                staged = set(gather)
                mail = [s for s in rn.local_static if s not in staged]
                for src, src_pid in rn.remote_static:
                    if src in staged:
                        continue
                    if (src_pid, pid) in caches:  # cached but not rewritten: read the slot
                        gather.append(src)
                    else:
                        mail.append(src)
                mail.extend(rn.dynamic)
                self.reads[a] = tuple(sorted(gather))
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
        prev: list = [None] * n
        nxt: list = [None] * n
        mailbox: list[list] = [[] for _ in range(n)]
        for a in range(n):
            out = self.contract_of[a].state_to_message(values[a])
            prev[a] = out
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
            batch = [outs[s] for s in agg.senders if outs[s] is not None]
            partial = c.partial_compute(batch) if batch else None
            if partial is not None:
                mailbox[target].append((agg.ref.synthetic_id, partial))
                shipped += 1
        return shipped

    def _run_partition(self, idx, values, prev, nxt, mailbox, mail_next, shard, counter) -> None:
        contract_of = self.contract_of
        reads = self.reads
        local_to = self.local_to
        cross_to = self.cross_to
        logical = crossed = 0

        for agent in self.exec_order[idx]:
            c = contract_of[agent]
            indices = reads[agent]
            msgs = [prev[i] for i in indices]
            inbox = mailbox[agent]
            if inbox and not c.pushdown_eligible:
                # order-sensitive fold: merge the reads into the mailbox by
                # sender (such contracts never receive aggregated partials)
                if indices:
                    inbox.extend([(i, m) for i, m in zip(indices, msgs)
                                  if m is not None])
                inbox.sort(key=_sender)
                msgs = [p for _, p in inbox]
                inbox.clear()
            elif None in msgs:
                msgs = [m for m in msgs if m is not None]
            if inbox:
                # commutative fold: mail is consumed in arrival order
                msgs.extend([p for _, p in inbox])
                inbox.clear()

            folded = c.partial_compute(msgs) if msgs else None
            new_value = c.update_state(values[agent], folded)
            values[agent] = new_value

            out = c.state_to_message(new_value)
            nxt[agent] = out
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
