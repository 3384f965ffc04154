"""Test-only reference executor: the per-agent interpreted loop that the
engine's generated kernels replaced.

``interpreted(engine)`` resolves each agent's buffer reads and mail routes
from the plans on its own, then runs every partition as one step whose
"kernel" interprets the plan agent by agent in execution order: gather the
reads, merge the mailbox, fold, update, send.  It shares the engine's
seeding, barrier, aggregator folds and metrics, so a difference from the
engine is a difference in the kernels or their tables.
"""

from __future__ import annotations

import copy
from operator import itemgetter

from fuseforge.optimizer import RefinedNeighbors
from fuseforge.runtime import Engine

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


def interpret(T, prev, nxt, values, mailbox, mail_next, shard, counter, *_):
    """Run one partition's agents in execution order, one at a time; ``T``
    holds ``(agent, contract, reads, local receivers, cross receivers)``."""
    logical = crossed = 0
    for agent, c, indices, local, cross in T:
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
            item = (agent, out)
            if local:
                logical += len(local)
                for r in local:
                    mail_next[r].append(item)
            if cross:
                logical += len(cross)
                crossed += len(cross)
                shard.append((cross, item))
    counter[0] += logical
    counter[1] += crossed


def interpreted(engine: Engine) -> Engine:
    """A copy of ``engine`` whose every partition runs ``interpret`` over
    its agents in execution order, in place of the engine's kernels."""
    plans = engine.plans
    per_agent = resolve(plans, engine.workload.contracts, engine.partition_of)
    reference = copy.copy(engine)
    reference.programs = []
    for plan in plans:
        order = plan.merged_order if plan.merged_order is not None else plan.agent_ids
        table = tuple((a, *per_agent[a]) for a in order)
        reference.programs.append([(interpret, table, None, None, None)])
    return reference
