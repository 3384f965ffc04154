"""Test-only reference executor: the per-agent interpreted loop over
``(sender, payload)`` mailbox lists that the engine's generated kernels,
which gather mail from the message array, replaced.

``Interpreter(workload, plans, track_inbound)`` resolves each agent's
buffer reads and mail routes from the plans on its own, apart from the
engine, and runs every partition agent by agent in execution order: gather
the reads, merge the mailbox, fold, update, send.  A sender appends its
message to each local receiver's mailbox as it runs and leaves one outbox
entry for its cross-partition receivers; the barrier fans the outboxes out
in partition order and then appends each aggregator's partial.  An
order-sensitive receiver sorts its mailbox and reads by sender; a
commutative one takes its reads, then its mail as it arrived.  Superstep
0's seeded mail is delivered the same way, so every round sees one mail
order.
"""

from __future__ import annotations

from operator import itemgetter

from fuseforge.optimizer import RefinedNeighbors
from fuseforge.runtime import Metrics, SimulationState

_sender = itemgetter(0)


def resolve(plans, contracts, partition_of):
    """Per agent: (contract, ascending buffer reads, local mail receivers,
    cross-partition mail receivers), by agent id."""
    caches = {key for plan in plans for key in plan.outbound_caches}
    n = len(partition_of)
    contract_of = [None] * n
    reads = [()] * n
    local_to = [[] for _ in range(n)]
    cross_to = [[] for _ in range(n)]
    for plan in plans:
        pid = plan.partition.id
        for a, ap in plan.per_agent.items():
            contract_of[a] = contracts[ap.equation.compute]
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
            reads[a] = tuple(sorted(gather))
            for s in mail:
                (local_to if partition_of[s] == pid else cross_to)[s].append(a)
    return [(contract_of[a], reads[a], local_to[a], cross_to[a]) for a in range(n)]


class Interpreter:
    """The plans run agent by agent over mailbox lists; ``run`` returns
    what ``Engine.run`` returns."""

    def __init__(self, workload, plans, track_inbound=()):
        self.workload = workload
        self.track_inbound = tuple(track_inbound)
        n = workload.graph.vertex_count
        self.partition_of = [0] * n
        for plan in plans:
            for a in plan.agent_ids:
                self.partition_of[a] = plan.partition.id
        self.per_agent = resolve(plans, workload.contracts, self.partition_of)
        self.orders = [plan.merged_order if plan.merged_order is not None else plan.agent_ids
                       for plan in plans]
        self.aggregators = [agg for plan in plans for agg in plan.aggregators]
        self.cache_count = len({key for plan in plans for key in plan.outbound_caches})
        passes = plans[0].passes if plans else frozenset()
        self.cross_header = "merge" in passes and "cache" not in passes

    def _send(self, a, out, mailbox, outbox) -> tuple[int, int]:
        """Mail ``a``'s message ``out``; returns (logical, cross-partition)."""
        if out is None:
            return 0, 0
        _, _, local, cross = self.per_agent[a]
        for r in local:
            mailbox[r].append((a, out))
        if cross:
            outbox.append((cross, (a, out)))
        return len(local) + len(cross), len(cross)

    def _barrier(self, outboxes, outs, mailbox) -> int:
        """Fan the outboxes out in partition order, then append each
        aggregator's partial; returns the number of partials."""
        for outbox in outboxes:
            for receivers, item in outbox:
                for r in receivers:
                    mailbox[r].append(item)
        shipped = 0
        for agg in self.aggregators:
            c = self.per_agent[agg.target_agent][0]
            batch = [outs[s] for s in agg.senders if outs[s] is not None]
            if batch:
                partial = c.partial_compute(batch)
                if partial is not None:
                    mailbox[agg.target_agent].append((agg.ref.synthetic_id, partial))
                    shipped += 1
        return shipped

    def run(self, rounds: int) -> tuple[SimulationState, Metrics]:
        n = len(self.per_agent)
        metrics = Metrics(rounds=rounds)
        for a in self.track_inbound:
            metrics.inbound_wire_by_agent[a] = []
            metrics.inbound_total_by_agent[a] = []
        values = [self.workload.initial_values[a] for a in range(n)]
        prev = [self.per_agent[a][0].state_to_message(values[a]) for a in range(n)]
        mailbox = [[] for _ in range(n)]
        outboxes = [[] for _ in self.orders]
        for order, outbox in zip(self.orders, outboxes):
            for a in order:
                self._send(a, prev[a], mailbox, outbox)
        self._barrier(outboxes, prev, mailbox)

        for _ in range(rounds):
            nxt = [None] * n
            mail_next = [[] for _ in range(n)]
            outboxes = [[] for _ in self.orders]
            logical = crossed = 0
            for order, outbox in zip(self.orders, outboxes):
                for a in order:
                    c, reads, _, _ = self.per_agent[a]
                    if c.pushdown_eligible:
                        msgs = [prev[i] for i in reads] + [p for _, p in mailbox[a]]
                    else:
                        merged = sorted([*mailbox[a], *((i, prev[i]) for i in reads)],
                                        key=_sender)
                        msgs = [p for _, p in merged]
                    msgs = [m for m in msgs if m is not None]
                    folded = c.partial_compute(msgs) if msgs else None
                    values[a] = c.update_state(values[a], folded)
                    nxt[a] = c.state_to_message(values[a])
                    sent, cross = self._send(a, nxt[a], mail_next, outbox)
                    logical += sent
                    crossed += cross
            folded = self._barrier(outboxes, nxt, mail_next)
            mailbox, prev = mail_next, nxt

            metrics.logical_messages_per_round.append(logical + folded)
            metrics.wire_units_per_round.append(crossed + folded + self.cache_count)
            metrics.header_units_per_round.append(crossed if self.cross_header else 0)
            for a in self.track_inbound:
                home = self.partition_of[a]
                metrics.inbound_wire_by_agent[a].append(sum(
                    1 for s, _ in mailbox[a] if s < 0 or self.partition_of[s] != home))
                metrics.inbound_total_by_agent[a].append(len(mailbox[a]))

        state = SimulationState(superstep=rounds, agent_values=dict(enumerate(values)))
        return state, metrics
