"""BSP executor: per-partition kernels over one message array.

Execution follows the synchronous BSP contract: messages sent in superstep t
are readable only in t+1.  Every message of the previous round lives in one
flat message array: entry a < n is agent a's out-message, and entry n + k is
aggregator k's partial.  A staged read, and a cache slot the receiver reads
without the remote pass, is the id of its source agent: a cache slot holds
exactly its source's message, so it aliases that entry, and caches remain
only the wire-unit model.  Agents write the next round's array, which swaps
with the previous one at the barrier; agent values are updated in place,
since no agent reads another's value directly.

Mail: a mail edge (a sender the receiver reaches by mail rather than by a
read) owns no storage either.  The message it carries is its sender's entry,
None included, which is exactly what a per-edge copy written every round
would hold, so each receiver gathers its mail from its senders' entries, and
from its aggregators' partials, through one ``operator.itemgetter`` built at
compile time.  A sender only counts its mail for the traffic metrics, from
its mail-edge count and how many of those edges cross partitions.  The
barrier folds the aggregator partials into their entries and then, where
the mail routes number at least the array's entries, checks the whole array
for None once, in C: in a round whose array holds none, the kernels do not
scan their gathered lists for None.  With fewer routes the kernels' own
scans cost less than the barrier's, so they always scan.  The array is
seeded with each agent's initial-value message and the partials folded from
them, so staged reads and mail at superstep 0 match message-passing mode
exactly.

Mail order: a receiver's gather lists its sources in the order it folds
them, the same in every round, superstep 0 included.  An order-sensitive
contract folds in ascending sender order; a receiver of such a contract
that also has reads gathers reads and mail through one ascending-sender
getter.  A commutative contract, and any contract that declares
``fold="add"`` (int addition is exact in any order), folds its reads, then
its mail in arrival order: the senders of its own partition in execution
order, then each other partition's senders in partition order, each in
execution order, then the aggregator partials in aggregator order
(aggregation pushdown only targets commutative folds).  That is the order a
message-passing runtime that delivers local mail as it is sent and fans out
each partition's cross-partition mail at the barrier would give.  Since the
order is fixed at compile time, and an agent writes only its own value and
array entry, which nothing reads before the barrier, a partition's agents
run grouped in any order.

Kernels: the engine does not interpret plans per agent.  At compile time it
groups each partition's agents by (contract, read arity, mail shape), the
mail shape saying whether the agent receives mail and whether it sends mail,
and runs each group with one generated Python function over a constant
table.  A row of the table is ``(a, i0, .., ik)``: the agent and the array
indices of its reads, in ascending source order, followed by its gather
``g`` when it receives mail and by its mail-edge and cross-partition edge
counts when it sends mail.  The kernel's loop is ``f = fold(prev[i0], ..,
prev[ik], *g(prev)); s = update(values[a], f); values[a] = s; nxt[a] =
state_to_message(s)``.  A contract that declares ``fold="add"`` folds its
reads with an inline ``+`` expression, falling back to ``partial_compute``
over the messages actually sent when one of them is None, and adds the
``sum`` of its mail; every other contract calls ``partial_compute`` on one
list.  Generated code depends only on the group's shape, so groups of one
shape share one code object, compiled once per process.  A key whose read
arity exceeds the number of agents sharing it (a hub) keeps each row's
reads as one tuple instead of unpacking them, so the generated code stays
linear in the number of agents; an order-sensitive fold of reads and mail
has read arity 0, since its getter holds both.

Determinism: every fold consumes its inputs in an order fixed at compile
time, per-agent RNG streams live inside agent values, and each partition
writes only its own agents' entries, so the final state is bit-identical
for any merged-order permutation.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .equations import ComputeMethodContract
from .errors import CoverageError, UnsupportedThreadsError
from .optimizer import PartitionPlan, RefinedNeighbors

@dataclass
class Metrics:
    rounds: int
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


def _gather(indices: list[int]) -> itemgetter:
    """A getter of the array's entries at ``indices`` that returns a
    sequence even for one index, where ``itemgetter(i)`` returns the entry."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


def _kernel_source(arity: int | None, add: bool, mail: bool, sends: bool) -> str:
    """Python source of the kernel for one group shape.

    ``arity`` None means each row holds its reads as one tuple ``I``.
    ``mail`` means each row also has a gather ``g``, whose messages
    ``g(prev)`` are folded after the reads in gather order; the kernel scans
    them for None unless ``clean`` says the array holds none.  ``sends``
    means each row also has its mail-edge count ``k`` and the count ``x`` of
    those edges that cross partitions.
    """
    if arity is None:
        row = ["a", "I"]
        listed = "[prev[i] for i in I]"
    else:
        idx = [f"i{j}" for j in range(arity)]
        row = ["a", *idx]
        listed = "[" + ", ".join(f"prev[{i}]" for i in idx) + "]"
    if mail:
        row.append("g")
    if sends:
        row += ["k", "x"]

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

    present = ["if not clean and None in ms:",
               "    ms = [m for m in ms if m is not None]"]
    if not mail:
        body = fold
    elif add:
        # int addition is exact, so mail joins the sum in any order
        body = [*fold,
                "ms = g(prev)",
                *present,
                "if ms:",
                "    t = sum(ms)",
                "    f = t if f is None else f + t"]
    else:
        gather = ["ms = g(prev)"] if arity == 0 else [f"ms = {listed}", "ms += g(prev)"]
        body = [*gather, *present, "f = pc(ms) if ms else None"]

    body += ["s = up(values[a], f)", "values[a] = s"]
    if sends:
        body += ["out = sm(s)",
                 "nxt[a] = out",
                 "if out is not None:",
                 "    logical += k",
                 "    crossed += x"]
    else:
        body += ["nxt[a] = sm(s)"]

    lines = ["def kernel(T, prev, nxt, values, counter, pc, up, sm, clean):"]
    if sends:
        lines.append("    logical = crossed = 0")
    lines.append(f"    for {', '.join(row)}{',' if len(row) == 1 else ''} in T:")
    lines += ["        " + line for line in body]
    if sends:
        lines += ["    counter[0] += logical", "    counter[1] += crossed"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _make_kernel(shape: tuple):
    """The kernel of one group shape; shapes recur across engines, and each
    compile costs about half a millisecond."""
    namespace: dict = {}
    exec(compile(_kernel_source(*shape), f"<fuseforge kernel {shape}>", "exec"),
         globals(), namespace)
    return namespace["kernel"]


class Engine:
    """Compiled program: each partition is a list of kernel steps.

    ``programs[p]`` holds partition p's steps in the order they run, each
    ``(kernel, table, partial_compute, update_state, state_to_message)``.
    One step covers the partition's agents of one contract, read arity and
    mail shape.  Every agent the partition runs is in exactly one row of one
    table.  The message array has ``n + len(aggregators)`` entries:
    aggregator k's partial is entry ``n + k``.  ``routes`` counts the mail
    routes, mail edges and aggregator partials; none of them has an entry
    of its own, since each receiver gathers its mail from the entries of
    its senders and aggregators.
    """

    def __init__(self, workload, plans: list[PartitionPlan], track_inbound: tuple[int, ...] = ()):
        self.workload = workload
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

        orders = [plan.merged_order if plan.merged_order is not None else plan.agent_ids
                  for plan in plans]
        # seq: position in the order every partition's agents run, partition
        # after partition; mail arrival follows it
        seq = [0] * n
        for k, a in enumerate(a for order in orders for a in order):
            seq[a] = k
        self.aggregators = [agg for plan in plans for agg in plan.aggregators]
        aggs_of: defaultdict[int, list[int]] = defaultdict(list)  # by target: array indices
        for k, agg in enumerate(self.aggregators, n):
            aggs_of[agg.target_agent].append(k)

        # per reader: the sources it reads from the array, ascending, and its
        # mail sources: whatever no staged read or cache slot covers, plus
        # the aggregators folding into it (aggregation pushdown has already
        # dropped the senders they fold), gathered in the order it folds them
        self.contract_of: list[ComputeMethodContract] = [None] * n  # type: ignore
        compute_of: list[str] = [""] * n
        row_of: list[tuple] = [()] * n  # (agent, *its reads[, its gather])
        arity_of = [0] * n
        receives = [False] * n
        # a fold that mail order cannot change: a commutative one, or an
        # inline int addition, which is exact in any order
        arrival = {name: c.pushdown_eligible or c.fold == "add"
                   for name, c in workload.contracts.items()}
        tracked = set(self.track_inbound)
        # per tracked agent: (sender, array index) per mail route, an
        # aggregator's synthetic id as the sender of its partial
        self._senders: dict[int, tuple[tuple[int, int], ...]] = {}
        partition_of = self.partition_of
        mailed: list[int] = []  # the sender of every mail edge
        crossed: list[int] = []  # the sender of every cross-partition mail edge
        for plan in plans:
            pid = plan.partition.id

            def arrived(s: int) -> int:  # this partition's senders first
                return seq[s] if partition_of[s] == pid else seq[s] + n

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
                mail += rn.dynamic
                gather.sort()
                in_arrival = arrival[compute_of[a]]
                mail.sort(key=arrived if in_arrival else None)
                mailed += mail
                crossed += [s for s in mail if partition_of[s] != pid]
                aggs = aggs_of.get(a, [])
                sources = mail + aggs
                if a in tracked:
                    ids = [self.aggregators[k - n].ref.synthetic_id for k in aggs]
                    self._senders[a] = tuple(zip(mail + ids, sources))
                if sources:
                    receives[a] = True
                    if gather and not in_arrival:
                        # an order-sensitive fold of reads and mail gathers
                        # both in ascending sender order
                        sources, gather = sorted(gather + sources), []
                    row_of[a] = (a, *gather, _gather(sources))
                else:
                    row_of[a] = (a, *gather)
                arity_of[a] = len(gather)
        self.routes = len(mailed) + len(self.aggregators)
        edges, crossing = Counter(mailed), Counter(crossed)
        # the barrier's None check scans the whole array to spare the kernels
        # their scans of gathered mail: it pays only where they gather at
        # least as many entries as the array holds
        self._scans = self.routes >= n + len(self.aggregators)

        # one shared tuple per distinct key: n live key tuples would add work
        # for the cyclic collector during set-up
        interned: dict[tuple, tuple] = {}
        key_of = [interned.setdefault(key, key) for key in zip(
            compute_of, arity_of, receives, (a in edges for a in range(n)))]
        shape_of = {}  # per key: its kernel shape, and whether rows pack their reads
        for key, count in Counter(key_of).items():
            compute, arity, receiving, sending = key
            # a key with more reads than agents keeps each row's reads as one tuple
            pack = arity > count
            shape_of[key] = (None if pack else arity, workload.contracts[compute].fold == "add",
                             receiving, sending), pack

        self.programs: list[list[tuple]] = []
        for order in orders:
            groups: dict[tuple, list] = {}
            for a in order:
                key = key_of[a]
                row = row_of[a]
                if shape_of[key][1]:
                    k = key[1] + 1
                    row = (a, row[1:k], *row[k:])
                if key[3]:
                    row += (edges[a], crossing[a])
                groups.setdefault(key, []).append(row)
            program = []
            for key, rows in groups.items():
                c = self.contract_of[rows[0][0]]
                program.append((_make_kernel(shape_of[key][0]), tuple(rows), c.partial_compute,
                                c.update_state, c.state_to_message))
            self.programs.append(program)

        # merged but uncached partitions tag each cross message with a header
        passes = plans[0].passes if plans else frozenset()
        self.cross_header = "merge" in passes and "cache" not in passes

    # -- execution ------------------------------------------------------------

    def run(self, rounds: int, threads: int = 1) -> tuple[SimulationState, Metrics]:
        # perfbench/cases.py is the only caller that passes ``threads``
        if threads != 1:
            raise UnsupportedThreadsError(f"threads={threads}: the engine runs on one thread")
        n = self.n
        wl = self.workload
        metrics = Metrics(rounds=rounds)
        for a in self.track_inbound:
            metrics.inbound_wire_by_agent[a] = []
            metrics.inbound_total_by_agent[a] = []

        values: list = [wl.initial_values[a] for a in range(n)]
        # superstep-0 seeding: initial-value sends arrive at round 0
        prev: list = [c.state_to_message(v) for c, v in zip(self.contract_of, values)]
        prev += [None] * len(self.aggregators)
        self._fold_aggregates(prev)
        nxt: list = [None] * len(prev)
        clean = self._scans and None not in prev

        steps = [step for program in self.programs for step in program]
        for _ in range(rounds):
            t0 = time.perf_counter()
            counter = [0, 0]  # logical, cross-partition
            for kernel, table, pc, up, sm in steps:
                kernel(table, prev, nxt, values, counter, pc, up, sm, clean)

            # barrier: aggregator partials into their entries; an array
            # without None spares the next round's kernels their None scans
            folded = self._fold_aggregates(nxt)
            clean = self._scans and None not in nxt

            # one wire unit per directed cache per round, plus one per
            # dynamic/aggregated cross-partition message
            cross = counter[1]
            logical = counter[0] + folded
            wire = cross + folded + self.cache_count
            header = cross if self.cross_header else 0

            prev, nxt = nxt, prev

            metrics.wall_seconds_per_round.append(time.perf_counter() - t0)
            metrics.logical_messages_per_round.append(logical)
            metrics.wire_units_per_round.append(wire)
            metrics.header_units_per_round.append(header)
            for a in self.track_inbound:
                home = self.partition_of[a]
                sent = [s for s, i in self._senders[a] if prev[i] is not None]
                metrics.inbound_wire_by_agent[a].append(sum(
                    1 for s in sent if s < 0 or self.partition_of[s] != home))
                metrics.inbound_total_by_agent[a].append(len(sent))

        state = SimulationState(superstep=rounds, agent_values={a: values[a] for a in range(n)})
        return state, metrics

    def _fold_aggregates(self, outs: list) -> int:
        """Write each aggregator's fold of its senders' messages in ``outs``
        into its entry of ``outs``, None when none sent; returns the number
        of partials shipped."""
        shipped = 0
        for k, agg in enumerate(self.aggregators, self.n):
            c = self.contract_of[agg.target_agent]
            batch = [outs[s] for s in agg.senders if outs[s] is not None]
            out = c.partial_compute(batch) if batch else None
            outs[k] = out
            if out is not None:
                shipped += 1
        return shipped


def execute(
    workload,
    plans: list[PartitionPlan],
    rounds: int,
    track_inbound: tuple[int, ...] = (),
) -> tuple[SimulationState, Metrics]:
    """Compile the plans and run ``rounds`` supersteps."""
    engine = Engine(workload, plans, track_inbound)
    return engine.run(rounds)
