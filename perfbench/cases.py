"""The benchmark's four workloads.

A case makes its inputs from the seed.  One operation is a set-up, a solve
and a check; ``run.py`` times the first two and repeats operations on the
same inputs.  With a ``Tracer`` the set-up and solve record spans around
every call into the program's layers (graphgen, workloads, optimizer,
runtime, pi); without one they call the same public functions directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import statistics
import time

import fuseforge.pi.reduce as pi_reduce
import fuseforge.workloads as workloads_module
from fuseforge.equations import BehavioralEquation, ComputeMethodContract, StateRef
from fuseforge.graphgen import (
    Graph,
    build_partitions,
    cross_partition_edge_count,
    erm,
    partition_greedy,
)
from fuseforge.optimizer import (
    MODE_PASSES,
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
from fuseforge.pi import congruence, final_values, initial_state, initializer, name, nu, par
from fuseforge.pi import translate_nonrecursive
from fuseforge.runtime import Engine
from fuseforge.workloads import Workload, build_economics, build_gol, build_pagerank

from reference import gol_reference, market_reference, pagerank_reference, ring_reference
from tracing import NoTrace, patched

# The partitioning is part of each workload's definition; the seed varies
# only the inputs (initial values, random graph), so a traffic count is a
# property of the inputs and repeats exactly for a seed.
PARTITION_SEED = 0

COMPUTE_FIELDS = ("state_to_message", "partial_compute", "update_state")

# Counters the traced operations keep, with the clock each one reads.  The
# runtime calls compute methods from its partition threads, where a
# wall-clock interval would also cover the other thread's turn.
COUNTERS = {
    "workloads.compute": time.thread_time,
    "pi.reduce_step": time.perf_counter,
    "pi.normalize": time.perf_counter,
    "pi.canonical_key": time.perf_counter,
}

LAYER_METRICS = {
    "graphgen.generate_s": "s",
    "graphgen.partition_s": "s",
    "graphgen.cross_edges": "count",
    "workloads.build_s": "s",
    "workloads.compute_s": "s",
    "workloads.compute_calls": "count",
    "optimizer.pipeline_s": "s",
    "optimizer.refine_s": "s",
    "optimizer.pushdown_s": "s",
    "optimizer.cache_s": "s",
    "optimizer.remote_s": "s",
    "optimizer.local_s": "s",
    "optimizer.merge_s": "s",
    "optimizer.caches": "count",
    "optimizer.cache_slots": "count",
    "optimizer.staged_reads": "count",
    "optimizer.aggregators": "count",
    "runtime.compile_s": "s",
    "runtime.self_s": "s",
    "runtime.round_ms.p50": "ms",
    "runtime.round_ms.p90": "ms",
    "runtime.mailbox_messages_per_round": "count",
    "runtime.wire_units_per_round": "count",
    "pi.setup_normalize_s": "s",
    "pi.reduce_step_s": "s",
    "pi.reduce_step_calls": "count",
    "pi.normalize_s": "s",
    "pi.normalize_calls": "count",
    "pi.canonical_key_s": "s",
    "pi.canonical_key_calls": "count",
    "pi.memo_entries": "count",
    "pi.irreducible": "count",
    "pi.explored": "count",
    "trace.setup_overhead_s": "s",
    "trace.solve_overhead_s": "s",
}

NO_TRACE = NoTrace()


@dataclasses.dataclass
class SimSetup:
    workload: Workload
    parts: list
    plans: list
    engine: Engine


class Simulation:
    """Build the workload, partition it greedily, run the optimizer for
    ``mode`` and compile the engine; the solve runs ``rounds`` supersteps."""

    partitions: int
    mode: str
    rounds: int
    threads = 1
    solve_layer = "runtime"
    # graphgen function that the workload builder calls itself, traced by
    # replacing it in ``fuseforge.workloads``
    inner_generator: str | None = None

    def __init__(self, seed: int):
        self.seed = seed
        self._expected = None

    def generate(self, tr) -> Graph | None:
        return None

    def build(self, graph: Graph | None) -> Workload:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work done before each set-up timer starts."""

    @contextlib.contextmanager
    def instrument(self, tracer):
        """Trace the generator the builder calls, for one traced operation."""
        if self.inner_generator is None:
            yield
            return
        with patched(workloads_module, self.inner_generator,
                     lambda fn: tracer.spanned("graphgen.generate", fn)):
            yield

    def setup(self, tracer=None) -> SimSetup:
        tr = tracer or NO_TRACE
        graph = self.generate(tr)
        with tr.span("workloads.build"):
            wl = self.build(graph)
        if tracer is not None:
            wl = counted_workload(tracer, wl)
        n = wl.graph.vertex_count
        with tr.span("graphgen.partition"):
            parts = partition_greedy(wl.graph, -(-n // self.partitions), PARTITION_SEED)
        options = MODE_PASSES[self.mode]
        with tr.span("optimizer.pipeline"):
            if tracer is None:
                plans = default_pipeline(parts, wl.equations, wl.static_marks, options,
                                         contracts=wl.contracts,
                                         pushdown_targets=wl.pushdown_targets)
            else:
                plans = pipeline_by_pass(tracer, parts, wl, options)
        with tr.span("runtime.compile"):
            engine = Engine(wl, plans)
        return SimSetup(wl, parts, plans, engine)

    def solve(self, s: SimSetup, tracer=None):
        with (tracer or NO_TRACE).span("runtime.solve"):
            return s.engine.run(self.rounds, threads=self.threads)

    def expected(self, s: SimSetup):
        raise NotImplementedError

    def observed(self, s: SimSetup, result):
        """The part of the final state the reference predicts."""
        raise NotImplementedError

    def check(self, s: SimSetup, result) -> list[str]:
        if self._expected is None:
            self._expected = self.expected(s)
        state, _ = result
        if len(state.agent_values) != s.workload.graph.vertex_count:
            return [f"{len(state.agent_values)} final values for "
                    f"{s.workload.graph.vertex_count} agents"]
        got = self.observed(s, result)
        if got == self._expected:
            return []
        return [f"{self.name}: final state differs from the reference "
                f"({describe_difference(got, self._expected)})"]

    def exact_count(self, s: SimSetup, result) -> float:
        """Cross-partition wire units per superstep."""
        wire = result[1].wire_units_per_round
        return sum(wire) / len(wire)

    def layer_counts(self, s: SimSetup, result) -> dict[str, float]:
        metrics = result[1]
        caches = {key: len(c) for p in s.plans for key, c in p.outbound_caches.items()}
        rounds_ms = [1000.0 * t for t in metrics.wall_seconds_per_round]
        return {
            "graphgen.cross_edges": cross_partition_edge_count(s.parts),
            "optimizer.caches": len(caches),
            "optimizer.cache_slots": sum(caches.values()),
            "optimizer.staged_reads": sum(len(ap.staged) for p in s.plans
                                          for ap in p.per_agent.values()),
            "optimizer.aggregators": sum(len(p.aggregators) for p in s.plans),
            "runtime.round_ms.p50": statistics.median(rounds_ms),
            "runtime.round_ms.p90": statistics.quantiles(rounds_ms, n=10)[-1],
            "runtime.mailbox_messages_per_round":
                sum(metrics.logical_messages_per_round) / len(rounds_ms),
            "runtime.wire_units_per_round": self.exact_count(s, result),
        }

    def trace_check(self, s: SimSetup) -> list[str]:
        """The traced set-up runs the passes one by one; its plans must be
        the ones ``default_pipeline`` makes."""
        wl = s.workload
        plain = default_pipeline(s.parts, wl.equations, wl.static_marks,
                                 MODE_PASSES[self.mode], contracts=wl.contracts,
                                 pushdown_targets=wl.pushdown_targets)
        if [p.plan_key() for p in plain] != [p.plan_key() for p in s.plans]:
            return ["pass-by-pass plans differ from default_pipeline's"]
        return []


def describe_difference(got, want) -> str:
    if isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        if len(got) != len(want):
            return f"{len(got)} entries vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return f"first at index {i}: {g!r} vs {w!r}"
    if isinstance(got, set) and isinstance(want, set):
        return f"{len(got ^ want)} cells differ, e.g. {min(got ^ want)}"
    return f"{got!r} vs {want!r}"


def counted_workload(tracer, wl: Workload) -> Workload:
    """``wl`` with every compute method counted under ``workloads.compute``."""
    contracts = {
        key: dataclasses.replace(c, **{
            f: tracer.counted("workloads.compute", getattr(c, f),
                              COUNTERS["workloads.compute"])
            for f in COMPUTE_FIELDS
        })
        for key, c in wl.contracts.items()
    }
    return dataclasses.replace(wl, contracts=contracts)


def pipeline_by_pass(tracer, parts, wl: Workload, options: frozenset[str]) -> list:
    """``default_pipeline``'s passes, in its order, one span per pass."""
    validate_options(options)
    plans = [initial_plan(part, wl.equations) for part in parts]
    with tracer.span("optimizer.refine"):
        refined = {part.id: refine_communication(part, wl.equations, wl.static_marks)
                   for part in parts}
        plans = [apply_refinement(p, refined[p.partition.id]) for p in plans]
    if "pushdown" in options:
        with tracer.span("optimizer.pushdown"):
            for target in wl.pushdown_targets:
                plans = aggregation_pushdown(plans, target, wl.contracts)
    if "cache" in options:
        with tracer.span("optimizer.cache"):
            refined_now = {p.partition.id: {a: ap.refined for a, ap in p.per_agent.items()}
                           for p in plans}
            caches = synthesize_caches(refined_now)
            plans = [register_caches(p, caches) for p in plans]
    if "remote" in options:
        with tracer.span("optimizer.remote"):
            plans = [rewrite_remote(p) for p in plans]
    if "local" in options:
        with tracer.span("optimizer.local"):
            plans = [rewrite_local(p) for p in plans]
    if "merge" in options:
        with tracer.span("optimizer.merge"):
            plans = [merge_plan(p) for p in plans]
    return plans


class GolFull(Simulation):
    name = "gol-full"
    partitions = 10
    mode = "full"
    rounds = 120
    threads = 1
    inner_generator = "torus2d"

    def __init__(self, seed: int, side: int = 100, rounds: int | None = None):
        super().__init__(seed)
        self.side = side
        self.rounds = rounds or self.rounds
        rng = random.Random(seed)
        self.alive = {a for a in range(side * side) if rng.random() < 0.5}

    def build(self, graph):
        return build_gol(self.side, self.side, initial_alive=self.alive)

    def expected(self, s):
        return gol_reference(self.side, self.side, self.alive, self.rounds)

    def observed(self, s, result):
        return {a for a, v in result[0].agent_values.items() if v}


class EconPushdown(Simulation):
    name = "econ-pushdown"
    partitions = 10
    mode = "full+pushdown"
    rounds = 30
    inner_generator = "star"
    initial_price = 100_00
    window = 10
    jitter = 0.05

    def __init__(self, seed: int, agents: int = 10001, rounds: int | None = None):
        super().__init__(seed)
        self.agents = agents
        self.rounds = rounds or self.rounds

    def build(self, graph):
        return build_economics(self.agents, seed=self.seed, initial_price=self.initial_price,
                               window=self.window, jitter=self.jitter)

    def expected(self, s):
        market, traders = market_reference(self.agents, self.seed, self.rounds,
                                           self.initial_price, self.window, self.jitter)
        return [market] + traders[1:]

    def observed(self, s, result):
        values = result[0].agent_values
        market = values[0]
        return [(market.price, market.action_sum)] + [
            (t.window, t.last_action, t.cash, t.holdings, t.rng)
            for t in (values[a] for a in range(1, self.agents))
        ]


class PagerankUnopt(Simulation):
    name = "pagerank-unopt"
    partitions = 4
    mode = "unopt"
    rounds = 30
    edge_probability = 0.005

    def __init__(self, seed: int, vertices: int = 4000, rounds: int | None = None,
                 edge_probability: float | None = None):
        super().__init__(seed)
        self.vertices = vertices
        self.rounds = rounds or self.rounds
        self.edge_probability = edge_probability or self.edge_probability

    def generate(self, tr):
        with tr.span("graphgen.generate"):
            return erm(self.vertices, self.edge_probability, self.seed)

    def build(self, graph):
        return build_pagerank(graph)

    def expected(self, s):
        return pagerank_reference(s.workload.graph.adjacency, self.rounds)

    def observed(self, s, result):
        values = result[0].agent_values
        return [values[v].pr for v in range(self.vertices)]


# The pi oracle -------------------------------------------------------------------

RING_COMPUTES = {"f": lambda m, x: x + m, "g": lambda m, x: x - m}


def ring_ref(agents: int, step: int, i: int) -> StateRef:
    return StateRef(step * agents + i + 1)


def ring_name_of(ref: StateRef) -> str:
    return f"p{ref.agent_id}"


def ring_equation(agents: int, step: int, i: int) -> BehavioralEquation:
    """Agent i at ``step`` reads agent i-1; even agents use f, odd ones g."""
    return BehavioralEquation(ring_ref(agents, step, i), "f" if i % 2 == 0 else "g",
                              (ring_ref(agents, step, (i - 1) % agents),),
                              ring_ref(agents, step + 1, i))


def ring_system(values: list[int], steps: int):
    """The ring translated superstep by superstep, each step's input states
    restricted around it (the shape of the two-core example)."""
    k = len(values)

    def restrict(step):
        return tuple(name(ring_name_of(ring_ref(k, step, i))) for i in range(k))

    inits = [initializer(ring_ref(k, 0, i), v, ring_name_of) for i, v in enumerate(values)]
    system = nu(restrict(0), par(*inits, *(
        translate_nonrecursive(ring_equation(k, 0, i), ring_name_of) for i in range(k))))
    for step in range(1, steps):
        system = nu(restrict(step), par(system, *(
            translate_nonrecursive(ring_equation(k, step, i), ring_name_of)
            for i in range(k))))
    return system


def ring_workload(values: list[int]) -> Workload:
    """The same ring as a runtime workload."""
    k = len(values)
    graph = Graph(k, tuple(tuple(sorted({(i - 1) % k, (i + 1) % k} - {i}))
                           for i in range(k)))

    def contract(compute):
        fn = RING_COMPUTES[compute]
        return ComputeMethodContract(
            name=compute, value_type="int64", in_message_type="int64",
            out_message_type="int64", state_to_message=lambda s: s,
            partial_compute=lambda ms: ms[0] if ms else None,
            update_state=lambda s, m: s if m is None else fn(m, s),
        )

    eqs = {i: BehavioralEquation(StateRef(i), "f" if i % 2 == 0 else "g",
                                 (StateRef((i - 1) % k),), StateRef(i))
           for i in range(k)}
    return Workload(
        name=f"ring{k}", graph=graph, equations=eqs,
        contracts={c: contract(c) for c in ("f", "g")},
        initial_values=dict(enumerate(values)),
        static_marks={i: set(eq.reference_set) for i, eq in eqs.items()},
        pushdown_targets=(),
        encode_value=lambda v: v.to_bytes(8, "little", signed=True),
    )


def run_ring(values: list[int], steps: int) -> list[int]:
    """Final values of the ring executed by the runtime, one agent per
    partition, unoptimized."""
    wl = ring_workload(values)
    k = len(values)
    parts = build_partitions(wl.graph, list(range(k)), k)
    plans = default_pipeline(parts, wl.equations, wl.static_marks, MODE_PASSES["unopt"],
                             contracts=wl.contracts)
    state, _ = Engine(wl, plans).run(steps)
    return [state.agent_values[i] for i in range(k)]


def memo_entries() -> int:
    """Entries held by the congruence module's memo caches and tables."""
    total = 0
    for attr, value in vars(congruence).items():
        info = getattr(value, "cache_info", None)
        if callable(info):
            total += info().currsize
        elif isinstance(value, dict) and attr.startswith("_") and not attr.startswith("__"):
            total += len(value)
    return total


class OracleRing:
    """Cold, exhaustive pi-oracle reduction of a ring over ``steps`` supersteps."""

    name = "oracle-ring3"
    solve_layer = "pi"
    max_steps = 1000
    max_states = 200_000

    def __init__(self, seed: int, agents: int = 3, steps: int = 2):
        self.seed = seed
        rng = random.Random(seed)
        self.values = [rng.randint(1, 10**6) for _ in range(agents)]
        self.steps = steps
        self.final_names = [name(ring_name_of(ring_ref(agents, steps, i)))
                            for i in range(agents)]
        self._expected = None

    def prepare(self) -> None:
        congruence.clear_caches()

    @contextlib.contextmanager
    def instrument(self, tracer):
        """Count the oracle's per-state calls, for one traced operation."""
        with contextlib.ExitStack() as stack:
            for attr in ("reduce_step", "normalize", "canonical_key"):
                stack.enter_context(patched(
                    pi_reduce, attr,
                    lambda fn, c=f"pi.{attr}": tracer.counted(c, fn, COUNTERS[c])))
            yield

    def setup(self, tracer=None):
        tr = tracer or NO_TRACE
        system = ring_system(self.values, self.steps)
        with tr.span("pi.initial_state"):
            return initial_state(system, computes=dict(RING_COMPUTES))

    def solve(self, state, tracer=None):
        with (tracer or NO_TRACE).span("pi.reduce_all"):
            return pi_reduce.reduce_all(state, max_steps=self.max_steps,
                                        max_states=self.max_states)

    def expected(self) -> list[int]:
        return ring_reference(self.values, self.steps)

    def observed(self, result) -> list[list[int]]:
        return [[final_values(s).get(n) for n in self.final_names]
                for s in result.irreducible]

    def check(self, state, result) -> list[str]:
        if self._expected is None:
            want = self.expected()
            runtime = run_ring(self.values, self.steps)
            if runtime != want:
                return [f"runtime ring gives {runtime}, ring arithmetic {want}"]
            self._expected = want
        problems = []
        if result.non_terminating or result.truncated:
            problems.append("search did not terminate within its bounds")
        if not result.irreducible:
            problems.append("no irreducible state")
        for got in self.observed(result):
            if got != self._expected:
                problems.append(f"irreducible state gives {got}, want {self._expected}")
                break
        return problems

    def exact_count(self, state, result) -> int:
        """States the exhaustive search explored."""
        return result.explored

    def layer_counts(self, state, result) -> dict[str, float]:
        return {
            "pi.memo_entries": memo_entries(),
            "pi.irreducible": len(result.irreducible),
            "pi.explored": result.explored,
        }

    def trace_check(self, state) -> list[str]:
        return []


CASES = {c.name: c for c in (GolFull, EconPushdown, PagerankUnopt, OracleRing)}
