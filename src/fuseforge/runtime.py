"""BSP executor: per-partition kernels, mailbox delivery, partition workers.

Execution follows the synchronous BSP contract: messages sent in superstep t
are readable only in t+1.  Every agent's out-message of the previous round
lives in one flat message buffer of n entries, indexed by agent id.  A
staged read, and a cache slot the receiver reads without the remote pass,
is the id of its source agent: a cache slot holds exactly its source's
message, so it aliases that entry, and caches remain only the wire-unit
model.  An agent's inputs are its reads from that buffer plus its mailbox.
Agents write the next round's buffer, which swaps with the previous one at
the barrier; agent values are updated in place, since no agent reads
another's value directly.  The buffer and the mailboxes are seeded with each
agent's initial-value message, so staged reads at superstep 0 match
message-passing mode exactly.

Kernels: the engine does not interpret plans per agent.  At compile time it
groups each partition's agents by (contract, read arity, mail shape), the
mail shape saying whether the agent receives mail and whether it sends mail,
and runs each group with one generated Python function over a constant
table.  A row of the table is ``(a, i0, .., ik)``: the agent and the buffer
indices of its reads, in ascending source order, followed by its local and
cross-partition receivers when it sends mail.  The kernel's loop is
``f = fold(prev[i0], .., prev[ik]); s = update(values[a], f); values[a] = s;
nxt[a] = state_to_message(s)``.  A contract that declares ``fold="add"``
folds with an inline ``+`` expression, falling back to ``partial_compute``
over the messages actually sent when one of them is None; every other
contract calls ``partial_compute`` on a list literal.  Generated code depends
only on the group's shape, so groups of one shape share one code object.  A
key whose read arity exceeds the number of agents sharing it (a hub) keeps
each row's reads as one tuple instead of unpacking them, so the generated
code stays linear in the number of agents.

Mail order: a mailbox sees the order in which its senders ran, and a
commutative float fold consumes mail in that order.  Agents that send mail
therefore run in execution order: consecutive senders of one group share a
table, and those tables run in execution order.  Agents that send no mail
write only their own value and buffer entry, which nothing reads before the
barrier, so they run grouped in any order.

Determinism: order-sensitive contracts consume their inputs in ascending
sender order, per-agent RNG streams live inside agent values, and
worker-local cross-partition outboxes are merged at the barrier in partition
order, so the final state is bit-identical for any thread count and any
merged-order permutation.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Sequence
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


# Kernels ------------------------------------------------------------------------


def _present(ms, pc):
    """``pc`` over the messages that were sent; None when none was."""
    ms = [m for m in ms if m is not None]
    return pc(ms) if ms else None


def _add_tree(terms: list[str]) -> str:
    """``terms`` summed in ascending order as a balanced expression: int
    addition is exact, so the grouping does not change the sum, and the
    compiler's recursion depth stays logarithmic in the arity."""
    if len(terms) == 1:
        return terms[0]
    mid = len(terms) // 2
    return f"({_add_tree(terms[:mid])} + {_add_tree(terms[mid:])})"


def _kernel_source(arity: int | None, add: bool, receive: str | None, sends: bool) -> str:
    """Python source of the kernel for one group shape.

    ``arity`` None means each row holds its reads as one tuple ``I``.
    ``receive`` is None (no mail ever arrives), ``"merged"`` (an
    order-sensitive fold: reads and mail merged by sender) or
    ``"arrival"`` (a commutative fold: reads, then mail in arrival order).
    """
    if arity is None:
        row = ["a", "I"]
        index = "I"
        listed = "[prev[i] for i in I]"
    else:
        idx = [f"i{j}" for j in range(arity)]
        row = ["a", *idx]
        index = "(" + "".join(f"{i}, " for i in idx) + ")"
        listed = "[" + ", ".join(f"prev[{i}]" for i in idx) + "]"
    if sends:
        row += ["L", "X"]

    # the fold of the reads alone, into f
    if arity == 0:
        fold = ["f = None"]
    elif add and arity == 1:
        fold = ["f = prev[i0]"]
    elif add and arity is not None:
        fold = ["try:",
                f"    f = {_add_tree([f'prev[{i}]' for i in idx])}",
                "except TypeError:",
                f"    f = _present({listed}, pc)"]
    else:
        fold = [f"ms = {listed}",
                "f = pc(ms) if None not in ms else _present(ms, pc)"]

    if receive is None:
        body = fold
    elif add:
        # int addition is exact, so mail joins the sum in any order
        body = [*fold,
                "inbox = mb[a]",
                "if inbox:",
                "    t = sum([p for _, p in inbox])",
                "    f = t if f is None else f + t",
                "    inbox.clear()"]
    elif receive == "merged":
        merge = [] if arity == 0 else [
            f"    inbox += [(i, prev[i]) for i in {index} if prev[i] is not None]"]
        body = ["inbox = mb[a]",
                "if inbox:",
                *merge,
                "    inbox.sort(key=_sender)",
                "    f = pc([p for _, p in inbox])",
                "    inbox.clear()",
                "else:",
                *("    " + line for line in fold)]
    else:
        body = [f"ms = {listed}",
                "if None in ms:",
                "    ms = [m for m in ms if m is not None]",
                "inbox = mb[a]",
                "if inbox:",
                "    ms += [p for _, p in inbox]",
                "    inbox.clear()",
                "f = pc(ms) if ms else None"]

    body += ["s = up(values[a], f)", "values[a] = s"]
    if sends:
        body += ["out = sm(s)",
                 "nxt[a] = out",
                 "if out is not None:",
                 "    item = (a, out)",
                 "    if L:",
                 "        logical += len(L)",
                 "        for r in L:",
                 "            mn[r].append(item)",
                 "    if X:",
                 "        crossed += len(X)",
                 "        shard.append((X, item))"]
    else:
        body += ["nxt[a] = sm(s)"]

    lines = ["def kernel(T, prev, nxt, values, mb, mn, shard, counter, pc, up, sm):"]
    if sends:
        lines.append("    logical = crossed = 0")
    lines.append(f"    for {', '.join(row)}{',' if len(row) == 1 else ''} in T:")
    lines += ["        " + line for line in body]
    if sends:
        lines += ["    counter[0] += logical + crossed", "    counter[1] += crossed"]
    return "\n".join(lines) + "\n"


def _make_kernel(shape: tuple):
    namespace: dict = {}
    exec(compile(_kernel_source(*shape), f"<fuseforge kernel {shape}>", "exec"),
         globals(), namespace)
    return namespace["kernel"]


class Engine:
    """Compiled program: each partition is a list of kernel steps.

    ``programs[p]`` holds partition p's steps in the order they run, each
    ``(kernel, table, partial_compute, update_state, state_to_message)``.
    One step covers one group of agents with the same contract, read arity
    and mail shape; a step of mail senders covers a run of consecutive
    senders in execution order, so every mailbox receives its mail in the
    order the plan's execution order implies.  Every agent the partition
    runs is in exactly one row of one table.  Kernels are generated once per
    group shape for this engine and shared by every group of that shape.
    """

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
        compute_of: list[str] = [""] * n
        row_of: list[tuple[int, ...]] = [()] * n  # (agent, *its reads)
        receives = [False] * n
        local_to: defaultdict[int, list[int]] = defaultdict(list)
        cross_to: defaultdict[int, list[int]] = defaultdict(list)
        for plan in plans:
            pid = plan.partition.id
            for a, ap in plan.per_agent.items():
                compute_of[a] = ap.equation.compute
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
                row_of[a] = (a, *sorted(gather))
                receives[a] = bool(mail)
                for s in mail:
                    (local_to if self.partition_of[s] == pid else cross_to)[s].append(a)

        # per sender: its mail readers in its own partition and in others;
        # agents that send no mail share one empty tuple
        self.local_to: list[Sequence[int]] = [local_to.get(a, ()) for a in range(n)]
        self.cross_to: list[Sequence[int]] = [cross_to.get(a, ()) for a in range(n)]
        self.aggregators = [agg for plan in plans for agg in plan.aggregators]

        for agg in self.aggregators:
            receives[agg.target_agent] = True
        sends = [bool(local or cross) for local, cross in zip(self.local_to, self.cross_to)]
        # one shared tuple per distinct key: n live key tuples would add work
        # for the cyclic collector during set-up
        interned: dict[tuple, tuple] = {}
        key_of = [interned.setdefault(key, key) for key in
                  zip(compute_of, (len(row) - 1 for row in row_of), receives, sends)]
        # a key with more reads than agents keeps each row's reads as one tuple
        unrolled = {key: key[1] <= count for key, count in Counter(key_of).items()}

        kernels: dict[tuple, object] = {}
        self.programs: list[list[tuple]] = []
        for plan in plans:
            order = plan.merged_order if plan.merged_order is not None else plan.agent_ids
            quiet: dict[tuple, list] = {}  # agents that send no mail, by key
            senders: list[tuple[tuple, list]] = []  # runs of one key, in order
            for a in order:
                key = key_of[a]
                row = row_of[a] if unrolled[key] else (a, row_of[a][1:])
                if key[3]:
                    if not senders or senders[-1][0] != key:
                        senders.append((key, []))
                    senders[-1][1].append((*row, self.local_to[a], self.cross_to[a]))
                else:
                    quiet.setdefault(key, []).append(row)
            program = []
            for key, rows in (*quiet.items(), *senders):
                _, arity, receiving, sending = key
                c = self.contract_of[rows[0][0]]
                receive = ("arrival" if c.pushdown_eligible else "merged") if receiving else None
                shape = (arity if unrolled[key] else None, c.fold == "add", receive, sending)
                if shape not in kernels:
                    kernels[shape] = _make_kernel(shape)
                program.append((kernels[shape], tuple(rows), c.partial_compute, c.update_state,
                                c.state_to_message))
            self.programs.append(program)

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
                for r in (*self.local_to[a], *self.cross_to[a]):
                    mailbox[r].append((a, out))
        self._fold_aggregates(prev, mailbox)
        # consumers empty their mailbox lists, so the two sets alternate
        mail_next: list[list] = [[] for _ in range(n)]

        programs = self.programs
        pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
        try:
            for _ in range(rounds):
                t0 = time.perf_counter()
                shards = [[] for _ in programs]  # per worker: (readers, (sender, payload))
                counters = [[0, 0] for _ in programs]  # logical, cross-partition

                def work(idx: int) -> None:
                    shard, counter = shards[idx], counters[idx]
                    for kernel, table, pc, up, sm in programs[idx]:
                        kernel(table, prev, nxt, values, mailbox, mail_next, shard, counter,
                               pc, up, sm)

                if pool is None:
                    for i in range(len(programs)):
                        work(i)
                else:
                    list(pool.map(work, range(len(programs))))

                # barrier: merge cross-partition shards in partition order
                for shard in shards:
                    for readers, item in shard:
                        for r in readers:
                            mail_next[r].append(item)
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
