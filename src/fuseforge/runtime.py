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
compile time.  The barrier counts the traffic off the array too: each
sender whose entry is not None ships all its mail edges, so a skipped
sender (see Active sets), whose entry still holds its message, counts as
if it had run.  The barrier folds the aggregator partials into their
entries and then, where the mail routes number at least the array's
entries, checks the whole array for None once, in C: in a round whose
array holds none, every mail edge ships, and the kernels do not scan their
gathered lists for None.  With fewer routes the kernels' own scans cost
less than the barrier's, so they always scan.  The array is seeded with
each agent's initial-value message and the partials folded from them, so
staged reads and mail at superstep 0 match message-passing mode exactly.

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
groups each partition's agents by (contract, read arity, whether the agent
receives mail) and runs each group with one generated Python function over
a constant table.  A row of the table is ``(a, i0, .., ik)``: the agent and
the array indices of its reads, in ascending source order, followed by its
gather ``g`` when it receives mail.  A contract that declares ``fold="add"``
folds its reads with an inline ``+`` expression, falling back to
``partial_compute`` over the messages actually sent when one of them is
None, and adds the ``sum`` of its mail; every other contract calls
``partial_compute`` on one list.  Where a contract's ``update_state`` and
``state_to_message`` were compiled from text by ``rule_from_text`` (gol and
epidemics), the kernel is fused: its loop, written here without the ``_``
that starts each of its own names, is ``f = fold(prev[i0], .., prev[ik],
*g(prev)); s = was = values[a]; <update text>; if s is not was: values[a]
= s; mark(a)``, then ``nxt[a] = (<message text>)``, in the callables'
scope.  Otherwise (trader, market, PageRank, or any callable replaced, say
by a counting wrapper) it calls them: ``s = values[a] = up(values[a], f);
nxt[a] = sm(s)``.  Rule texts may not use the ``_`` names, so a text cannot
capture or shadow them.  Groups of one shape and texts share one code
object, compiled once per process.  A key whose read arity exceeds the
number of agents sharing it (a hub) keeps each row's reads as one tuple
instead of unpacking them, so the generated code stays linear in the
number of agents; an order-sensitive fold of reads and mail has read arity
0, since its getter holds both.

Active sets: every fused group is tracked.  Every update is a deterministic
function of the state and the fold, so an agent whose state did not change
in round t-1, and none of whose sources (reads and mail senders alike)
changed, keeps its state in round t: it is skipped.  A tracked kernel runs
only the rows of its table marked in a byte mask kept in run order
(``itertools.compress`` over the table and its slice of the mask), and
records the agents whose update returned another state object.  At the
barrier each of them marks its own row and the tracked rows that read it
or gather its mail; a row with a source whose changes nothing records (an
untracked agent or an aggregator partial) is marked every round.  A
skipped agent writes nothing: both message arrays already hold its
message, since it ran, and wrote it, in the round after its last change,
so partials, gathered mail, traffic and inbound counts read what a run
without skipping would.  Round 0 runs every row, and so does any round
after one whose changed agents would mark at least as many entries as
there are tracked rows.

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
from itertools import compress, repeat
from operator import is_not, itemgetter
from types import CodeType, FunctionType

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
    active_per_round: list[int] = field(default_factory=list)  # rows run
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


def _kernel_source(arity: int | None, add: bool, mail: bool,
                   texts: tuple[str, str] | None) -> str:
    """Python source of the kernel for one group shape.

    Each name the kernel binds or reads starts with ``_``, bar ``s`` and
    ``f``.  ``arity`` None means each row holds its reads as one tuple
    ``_I``.  ``mail`` means each row also has a gather ``_g``, whose
    messages ``_g(_prev)`` are folded after the reads in gather order; the
    kernel scans them for None unless ``_clean`` says the array holds none.
    ``texts`` are a contract's update and message texts (see
    ``equations.rule_from_text``): the kernel runs them, stores an agent's
    value only when its state object changed, and passes each such agent to
    ``_mark``.  ``texts`` None means the kernel calls ``_up`` and ``_sm``.
    """
    if arity is None:
        row = ["_a", "_I"]
        listed = "[_prev[_i] for _i in _I]"
    else:
        idx = [f"_i{j}" for j in range(arity)]
        row = ["_a", *idx]
        listed = "[" + ", ".join(f"_prev[{i}]" for i in idx) + "]"
    if mail:
        row.append("_g")

    # the fold of the reads alone, into f
    if arity == 0:
        fold = ["f = None"]
    elif add and arity == 1:
        fold = ["f = _prev[_i0]"]
    elif add and arity is not None:
        fold = ["try:",
                f"    f = {_add_tree([f'_prev[{i}]' for i in idx])}",
                "except _TypeError:",
                f"    f = _present({listed}, _pc)"]
    else:
        fold = [f"_ms = {listed}",
                "f = _pc(_ms) if None not in _ms else _present(_ms, _pc)"]

    present = ["if not _clean and None in _ms:",
               "    _ms = [_m for _m in _ms if _m is not None]"]
    if not mail:
        body = fold
    elif add:
        # int addition is exact, so mail joins the sum in any order
        body = [*fold,
                "_ms = _g(_prev)",
                *present,
                "if _ms:",
                "    _t = _sum(_ms)",
                "    f = _t if f is None else f + _t"]
    else:
        gather = ["_ms = _g(_prev)"] if arity == 0 else [f"_ms = {listed}", "_ms += _g(_prev)"]
        body = [*gather, *present, "f = _pc(_ms) if _ms else None"]

    if texts is None:
        body += ["s = _values[_a] = _up(_values[_a], f)", "_nxt[_a] = _sm(s)"]
    else:
        update, message = texts
        body += ["s = _was = _values[_a]", *update.splitlines(),
                 "if s is not _was:",
                 "    _values[_a] = s",
                 "    _mark(_a)",
                 f"_nxt[_a] = ({message})"]

    lines = ["def kernel(_T, _prev, _nxt, _values, _mark, _clean, _pc, _up, _sm):",
             f"    for {', '.join(row)}{',' if len(row) == 1 else ''} in _T:"]
    lines += ["        " + line for line in body]
    return "\n".join(lines) + "\n"


# the globals a kernel reads, beside the texts' own
_GLOBALS = {"_present": _present, "_sum": sum, "_TypeError": TypeError}


@lru_cache(maxsize=64)
def _make_kernel(shape: tuple, texts: tuple[str, str] | None) -> CodeType:
    """The kernel code of one group shape and pair of texts; they recur
    across engines, and each compile costs about half a millisecond."""
    source = _kernel_source(*shape, texts)
    [code] = [c for c in compile(source, f"<fuseforge kernel {shape}>", "exec").co_consts
              if isinstance(c, CodeType)]
    return code


def _kernel_texts(c: ComputeMethodContract) -> tuple[str, str] | None:
    """The contract's update and message texts where both callables carry
    them from one scope; a contract whose callables were replaced, for
    instance by counting wrappers, keeps its calls."""
    up, sm = c.update_state, c.state_to_message
    update, message = getattr(up, "text", None), getattr(sm, "text", None)
    if update is None or message is None or up.__globals__ is not sm.__globals__:
        return None
    return update, message


class Engine:
    """Compiled program: each partition is a list of kernel steps.

    ``programs[p]`` holds partition p's steps in the order they run, each
    ``(kernel, table, span)``.  One step covers the partition's agents of
    one contract and read arity that all receive mail, or all do not; its
    kernel holds the contract's callables as argument defaults, so every
    kernel takes the same arguments.  Every agent the partition runs is in exactly one row
    of one table.  A group is tracked exactly when its kernel is fused:
    ``span`` is its slice of the active-set mask, which has
    ``tracked_rows`` entries, or None for a kernel that calls its
    contract's callables.  The message array has ``n + len(aggregators)``
    entries: aggregator k's partial is entry ``n + k``.  ``routes`` counts
    the mail edges and aggregator partials, none of which has an entry of
    its own.
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
        texts_of = {name: _kernel_texts(c) for name, c in workload.contracts.items()}

        # per reader: the sources it reads from the array, ascending, and its
        # mail sources: whatever no staged read or cache slot covers, plus
        # the aggregators folding into it (aggregation pushdown has already
        # dropped the senders they fold), gathered in the order it folds them
        self.contract_of: list[ComputeMethodContract] = [None] * n  # type: ignore
        compute_of: list[str] = [""] * n
        row_of: list[tuple] = [()] * n  # (agent, *its reads[, its gather])
        mail_of: dict[int, list[int]] = {}  # per fused receiver: the indices it gathers
        arity_of = [0] * n
        receives = [False] * n
        # a fold that mail order cannot change: a commutative one, or an
        # inline int addition, which is exact in any order
        arrival = {name: c.pushdown_eligible or c.fold == "add"
                   for name, c in workload.contracts.items()}
        inbound = set(self.track_inbound)
        # per agent whose inbound mail is counted: (sender, array index) per
        # mail route, an aggregator's synthetic id as the sender of its partial
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
                if a in inbound:
                    ids = [self.aggregators[k - n].ref.synthetic_id for k in aggs]
                    self._senders[a] = tuple(zip(mail + ids, sources))
                if sources:
                    receives[a] = True
                    if gather and not in_arrival:
                        # an order-sensitive fold of reads and mail gathers
                        # both in ascending sender order
                        sources, gather = sorted(gather + sources), []
                    row_of[a] = (a, *gather, _gather(sources))
                    if texts_of[compute_of[a]]:
                        mail_of[a] = sources
                else:
                    row_of[a] = (a, *gather)
                arity_of[a] = len(gather)
        self.routes = len(mailed) + len(self.aggregators)
        # the barrier's None check scans the whole array to spare the kernels
        # their scans of gathered mail: it pays only where they gather at
        # least as many entries as the array holds
        self._scans = self.routes >= n + len(self.aggregators)
        # the barrier's traffic count: each mail sender's entry, its mail
        # edges and how many of them cross partitions, and the totals
        edges, crossing = Counter(mailed), Counter(crossed)
        self._mailers = _gather(list(edges)) if edges else None
        self._edges = list(edges.values())
        self._crossing = [crossing[s] for s in edges]
        self._all_mail = len(mailed), len(crossed)

        # one shared tuple per distinct key: n live key tuples would add work
        # for the cyclic collector during set-up
        interned: dict[tuple, tuple] = {}
        key_of = [interned.setdefault(key, key) for key in zip(compute_of, arity_of, receives)]
        shape_of = {}  # per key: its kernel shape, and whether rows pack their reads
        for key, count in Counter(key_of).items():
            compute, arity, receiving = key
            # a key with more reads than agents keeps each row's reads as one tuple
            pack = arity > count
            shape_of[key] = (None if pack else arity, workload.contracts[compute].fold == "add",
                             receiving), pack

        # the active set: tracked rows hold positions in one mask, in run
        # order; a tracked agent a has its row at position pos[a], and
        # wake[a] lists the positions of the tracked rows that read it or
        # gather its mail (None for untracked agents and aggregator partials)
        self.tracked_rows = 0
        self._pos: list[int] = []
        self._wake: list[list[int] | None] = []
        if any(texts_of[compute] for compute, *_ in shape_of):
            self._pos = [0] * n
            self._wake = [[] if texts_of[compute] else None for compute in compute_of]
            self._wake += [None] * len(self.aggregators)
        always = bytearray()  # the rows with an untracked source run every round
        self.programs: list[list[tuple]] = []
        for order in orders:
            groups: dict[tuple, list] = {}
            for a in order:
                key = key_of[a]
                row = row_of[a]
                if shape_of[key][1]:
                    k = key[1] + 1
                    row = (a, row[1:k], *row[k:])
                groups.setdefault(key, []).append(row)
            program = []
            for key, rows in groups.items():
                c = workload.contracts[key[0]]
                texts = texts_of[key[0]]
                # a fused kernel runs its texts in the scope of the contract's callables
                scope = {**c.update_state.__globals__, **_GLOBALS} if texts else _GLOBALS
                kernel = FunctionType(_make_kernel(shape_of[key][0], texts), scope, None,
                                      (c.partial_compute, c.update_state, c.state_to_message))
                span = None
                if texts:
                    span = slice(self.tracked_rows, self.tracked_rows + len(rows))
                    self._track(rows, row_of, mail_of, always)
                program.append((kernel, tuple(rows), span))
            self.programs.append(program)
        self._always = bytes(always)

        # merged but uncached partitions tag each cross message with a header
        passes = plans[0].passes if plans else frozenset()
        self.cross_header = "merge" in passes and "cache" not in passes

    def _track(self, rows: list[tuple], row_of: list[tuple], mail_of: dict[int, list[int]],
               always: bytearray) -> None:
        """Give a tracked group's rows the next mask positions, each in the
        wake lists of the agents it reads or gathers mail from; a row with
        a source whose changes nothing records, an untracked agent or an
        aggregator partial, runs every round."""
        pos, wake = self._pos, self._wake
        for p, row in enumerate(rows, self.tracked_rows):
            a = row[0]
            pos[a] = p
            sources = row_of[a][1:]
            if a in mail_of:  # the reads, then the gathered indices for the getter
                sources = (*sources[:-1], *mail_of[a])
            untracked = False
            for src in sources:
                readers = wake[src]
                if readers is None:
                    untracked = True
                else:
                    readers.append(p)
            always.append(untracked)
        self.tracked_rows += len(rows)

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
        pos, wake, tracked_rows = self._pos, self._wake, self.tracked_rows
        mailers, edges, crossing = self._mailers, self._edges, self._crossing
        # the positions a change of agent a marks: its own and its readers'
        fan = [1 + len(readers) if readers is not None else 0 for readers in wake]
        untracked = n - tracked_rows
        mask = None  # the tracked rows that run; None: all of them
        changed: list[int] = []  # the tracked agents whose state changed
        mark = changed.append
        for _ in range(rounds):
            t0 = time.perf_counter()
            for kernel, table, span in steps:
                if span is not None and mask is not None:
                    table = compress(table, mask[span])
                kernel(table, prev, nxt, values, mark, clean)
            metrics.active_per_round.append(
                n if mask is None else untracked + mask.count(1))

            # barrier: aggregator partials into their entries; an array
            # without None spares the next round's kernels their None scans
            folded = self._fold_aggregates(nxt)
            clean = self._scans and None not in nxt
            # a changed agent wakes itself and the tracked rows that read it
            # or gather its mail; a skipped agent's message is already in both
            # arrays.  Where the wakes number at least the tracked rows, every
            # row runs
            if tracked_rows:
                if sum(map(fan.__getitem__, changed)) >= tracked_rows:
                    mask = None
                else:
                    mask = bytearray(self._always)
                    for a in changed:
                        mask[pos[a]] = 1
                        for p in wake[a]:
                            mask[p] = 1
                changed.clear()

            # each sender whose entry holds a message ships its mail edges,
            # all of them where the array holds no None; one wire unit per
            # directed cache per round, plus one per dynamic/aggregated
            # cross-partition message
            logical, cross = self._all_mail
            if mailers is not None and not clean:
                live = list(map(is_not, mailers(nxt), repeat(None)))
                logical, cross = sum(compress(edges, live)), sum(compress(crossing, live))
            logical += folded
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
