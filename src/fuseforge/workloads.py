"""Benchmark workloads: population dynamics (game of life), epidemics on
random graphs, an evolutionary stock market, and accumulative-delta PageRank.

Each builder returns a Workload bundle: graph, per-agent equations, contract
registry, initial values, static communication marks, and pushdown targets.
Stochastic workloads keep a SplitMix64 state inside each agent value, derived
from (seed, agent_id) only, so trajectories are identical under every
partitioning and optimizer mode.

The epidemics and market rules are this artifact's stand-ins (the benchmark's
origin defines them elsewhere): SIR with per-contact infection probability,
and moving-average traders against a single market maker.  All constants are
config-exposed defaults, and a builder rejects one outside its range with
``ParameterError``.

Agent states are bools, ints or ``_record`` classes: frozen, slotted
dataclasses whose ``__init__`` stores each field through its slot's member
descriptor.  Every agent builds one new state per superstep, and a plain
frozen dataclass's ``__init__`` makes one ``object.__setattr__`` call per
field, which took over a third of a trader's update.  Slots also keep each
record without an instance dict (80 bytes, not 120, for a trader).
``update_state`` methods construct records positionally rather than through
``dataclasses.replace``, which adds a ``fields()`` walk and a keyword call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Callable

from .equations import (
    BehavioralEquation,
    ComputeMethodContract,
    StateRef,
    validate_contract,
)
from .errors import ParameterError
from .graphgen import Graph, erm, sbm, star, torus2d
from .rng import derive_stream, next_float


@dataclass(frozen=True)
class Workload:
    name: str
    graph: Graph
    equations: dict[int, BehavioralEquation]
    contracts: dict[str, ComputeMethodContract]
    initial_values: dict[int, object]
    static_marks: dict[int, set[StateRef]]
    pushdown_targets: tuple[int, ...]
    encode_value: Callable[[object], bytes]

    def __post_init__(self):
        # declared algebraic flags are property-tested at registration
        for contract in self.contracts.values():
            validate_contract(contract)


def _record(cls):
    """``dataclass(frozen=True, slots=True)`` with a cheaper ``__init__``.

    The generated ``__init__`` has the dataclass's own signature (fields
    without defaults, positional or keyword) and sets each slot through its
    member descriptor, which a frozen class's ``__setattr__`` does not
    intercept; equality, hashing, ``repr``, ``fields()``,
    ``dataclasses.replace`` and pickling are the dataclass's own.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    setters = [f"_set_{name}" for name in names]
    body = "".join(f"        {set_}(self, {name})\n" for set_, name in zip(setters, names))
    source = (f"def make({', '.join(setters)}):\n"
              f"    def __init__(self, {', '.join(names)}):\n{body}"
              f"    return __init__\n")
    namespace: dict = {}
    exec(source, {}, namespace)
    init = namespace["make"](*(getattr(cls, name).__set__ for name in names))
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


def _recursive_equations(graph: Graph, compute_of: Callable[[int], str]) -> dict[int, BehavioralEquation]:
    """One equation per agent; every reference to an agent, in any equation
    or static-marks set, is that agent's single ``StateRef``."""
    refs = [StateRef(a) for a in range(graph.vertex_count)]
    return {
        a: BehavioralEquation(
            ref, compute_of(a), tuple(map(refs.__getitem__, graph.neighbors(a))), ref
        )
        for a, ref in enumerate(refs)
    }


def _all_static(eqs: dict[int, BehavioralEquation]) -> dict[int, set[StateRef]]:
    return {a: set(eq.reference_set) for a, eq in eqs.items()}


def _sum_or_none(ms: list) -> int | None:
    return sum(ms) if ms else None


# Game of Life ----------------------------------------------------------------


def gol_contract() -> ComputeMethodContract:
    """Alive-neighbor counting: exactly 3 revives, <2 or >3 kills, else keep."""

    def update(s: bool, n: int | None) -> bool:
        if n is None:
            return s
        if n == 3:
            return True
        if n < 2 or n > 3:
            return False
        return s

    return ComputeMethodContract(
        name="gol",
        value_type="bool",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: 1 if s else 0,
        partial_compute=_sum_or_none,
        update_state=update,
        associative=True,
        commutative=True,
        sample_message=lambda rng: rng.randint(0, 1),
        fold="add",
    )


def build_gol(width: int, height: int, seed: int = 0,
              initial_alive: set[int] | None = None) -> Workload:
    graph = torus2d(width, height)
    eqs = _recursive_equations(graph, lambda a: "gol")
    if initial_alive is None:
        values = {}
        for a in range(graph.vertex_count):
            _, u = next_float(derive_stream(seed, a))
            values[a] = u < 0.5
    else:
        values = {a: a in initial_alive for a in range(graph.vertex_count)}
    return Workload(
        name="gol",
        graph=graph,
        equations=eqs,
        contracts={"gol": gol_contract()},
        initial_values=values,
        static_marks=_all_static(eqs),
        pushdown_targets=(),
        encode_value=lambda v: b"\x01" if v else b"\x00",
    )


# Epidemics (SIR) ---------------------------------------------------------------

SUSCEPTIBLE, INFECTED, RECOVERED = 0, 1, 2


@_record
class EpidemicState:
    status: int
    rounds_to_recover: int
    rng: int


def epidemics_contract(beta: float = 0.05, recovery_rounds: int = 5) -> ComputeMethodContract:
    """SIR step: infected neighbors send 1; susceptible agents catch the
    infection with probability 1-(1-beta)^k from their own stream."""
    if not 0.0 <= beta <= 1.0:
        raise ParameterError(f"beta={beta} outside [0, 1]")
    if recovery_rounds < 1:
        raise ParameterError(f"recovery_rounds={recovery_rounds} must be >= 1")
    survive = 1.0 - beta

    def update(s: EpidemicState, k: int | None) -> EpidemicState:
        if k is None:
            return s
        if s.status == SUSCEPTIBLE and k > 0:
            rng, u = next_float(s.rng)
            if u < 1.0 - survive**k:
                return EpidemicState(INFECTED, recovery_rounds, rng)
            return EpidemicState(SUSCEPTIBLE, s.rounds_to_recover, rng)
        if s.status == INFECTED:
            left = s.rounds_to_recover - 1
            if left <= 0:
                return EpidemicState(RECOVERED, 0, s.rng)
            return EpidemicState(INFECTED, left, s.rng)
        return s

    return ComputeMethodContract(
        name="epidemics",
        value_type="record:EpidemicState",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: 1 if s.status == INFECTED else 0,
        partial_compute=_sum_or_none,
        update_state=update,
        associative=True,
        commutative=True,
        sample_message=lambda rng: rng.randint(0, 1),
        fold="add",
    )


def build_epidemics(
    n: int,
    seed: int = 0,
    model: str = "erm",
    p: float = 0.01,
    blocks: int = 5,
    beta: float = 0.05,
    recovery_rounds: int = 5,
    initial_infected: tuple[int, ...] = (0,),
) -> Workload:
    if model == "erm":
        graph = erm(n, p, seed)
    elif model == "sbm":
        graph = sbm(n, blocks=blocks, p_in=p, p_out=0.0, seed=seed)
    else:
        raise ParameterError(f"unknown epidemics graph model {model!r}")
    eqs = _recursive_equations(graph, lambda a: "epidemics")
    infected = set(initial_infected)
    values = {
        a: EpidemicState(
            INFECTED if a in infected else SUSCEPTIBLE,
            recovery_rounds if a in infected else 0,
            derive_stream(seed, a),
        )
        for a in range(n)
    }
    return Workload(
        name=f"epidemics-{model}",
        graph=graph,
        equations=eqs,
        contracts={"epidemics": epidemics_contract(beta, recovery_rounds)},
        initial_values=values,
        static_marks=_all_static(eqs),
        pushdown_targets=(),
        encode_value=lambda v: struct.pack("<biQ", v.status, v.rounds_to_recover, v.rng),
    )


# Economics (market + traders) ---------------------------------------------------

MARKET_AGENT = 0


@_record
class TraderState:
    window: tuple[int, ...]  # last prices seen, most recent last
    last_action: int  # +1 buy, -1 sell, 0 hold
    cash: int  # fixed-point cents
    holdings: int
    rng: int


@_record
class MarketState:
    price: int  # fixed-point cents, > 0
    action_sum: int


def economics_contracts(
    window: int = 10, jitter: float = 0.05
) -> dict[str, ComputeMethodContract]:
    """Trader reacts to price vs its moving average (with a small random
    flip); market moves the price by the integer sum of actions (in cents),
    floored at one cent."""
    if window < 1:
        raise ParameterError(f"window={window} must be >= 1")
    if not 0.0 <= jitter <= 1.0:
        raise ParameterError(f"jitter={jitter} outside [0, 1]")

    def trader_update(s: TraderState, price: int | None) -> TraderState:
        if price is None:
            return s
        seen = (s.window + (price,))[-window:]
        if len(seen) > 1:
            avg_num = sum(seen)
            # compare price against mean using exact integer arithmetic
            if price * len(seen) < avg_num:
                action = 1
            elif price * len(seen) > avg_num:
                action = -1
            else:
                action = 0
        else:
            action = 0
        rng, u = next_float(s.rng)
        if u < jitter:
            action = -action
        return TraderState(seen, action, s.cash - action * price, s.holdings + action, rng)

    def market_update(s: MarketState, action_sum: int | None) -> MarketState:
        delta = action_sum or 0
        return MarketState(max(1, s.price + delta), delta)

    trader = ComputeMethodContract(
        name="econ.trader",
        value_type="record:TraderState",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: s.last_action,
        partial_compute=_sum_or_none,  # singleton in practice: the price feed
        update_state=trader_update,
        associative=True,
        commutative=True,
        sample_message=lambda rng: rng.randint(-1, 1),
        fold="add",
    )
    market = ComputeMethodContract(
        name="econ.market",
        value_type="record:MarketState",
        in_message_type="int64",
        out_message_type="int64",
        state_to_message=lambda s: s.price,
        partial_compute=_sum_or_none,
        update_state=market_update,
        associative=True,
        commutative=True,
        sample_message=lambda rng: rng.randint(-1, 1),
        fold="add",
    )
    return {"econ.trader": trader, "econ.market": market}


def build_economics(
    n: int,
    seed: int = 0,
    initial_price: int = 100_00,
    window: int = 10,
    jitter: float = 0.05,
) -> Workload:
    """One market agent (id 0) and n-1 traders on a star topology.

    Each trader's moving-average window is seeded with one random price near
    the initial price, so the first rounds produce a mix of buys and sells
    instead of a unanimous hold.
    """
    if initial_price < 1:
        raise ParameterError(f"initial_price={initial_price} must be >= 1 (cents)")
    graph = star(n)
    eqs = _recursive_equations(
        graph, lambda a: "econ.market" if a == MARKET_AGENT else "econ.trader"
    )
    values: dict[int, object] = {MARKET_AGENT: MarketState(initial_price, 0)}
    spread = max(2, initial_price // 100)
    for a in range(1, n):
        rng = derive_stream(seed, a)
        rng, u = next_float(rng)
        warmup = max(1, initial_price + int(u * 2 * spread) - spread)
        values[a] = TraderState((warmup,), 0, 0, 0, rng)

    def encode(v) -> bytes:
        if isinstance(v, MarketState):
            return struct.pack("<qq", v.price, v.action_sum)
        return struct.pack("<qqqQ", v.cash, v.holdings, v.last_action, v.rng) + struct.pack(
            f"<{len(v.window)}q", *v.window
        )

    return Workload(
        name="economics",
        graph=graph,
        equations=eqs,
        contracts=economics_contracts(window, jitter),
        initial_values=values,
        static_marks=_all_static(eqs),
        pushdown_targets=(MARKET_AGENT,),
        encode_value=encode,
    )


# PageRank with accumulative updates -----------------------------------------------


@_record
class PageRankState:
    pr: float
    delta_out: float  # what this vertex just published (0 = nothing)
    out_degree: int
    step: int


def pagerank_contract(max_iteration: int = 2**30, allow_regroup: bool = False) -> ComputeMethodContract:
    """Accumulative-delta PageRank: at step 0 inject 0.15, add incoming
    deltas, publish 0.85*delta/outDegree only while delta > 0.

    The float sum runs in fixed ascending-sender order; pushdown regrouping
    is only legal with ``allow_regroup`` (tolerance mode).
    """

    def fold(ms: list) -> float | None:
        if not ms:
            return None
        acc = 0.0
        for m in ms:
            acc += m
        return acc

    def update(s: PageRankState, incoming: float | None) -> PageRankState:
        if s.step > max_iteration:
            return PageRankState(s.pr, 0.0, s.out_degree, s.step + 1)
        delta = 0.15 if s.step == 0 else 0.0
        delta += incoming or 0.0
        if delta > 0:
            return PageRankState(s.pr + delta, delta, s.out_degree, s.step + 1)
        return PageRankState(s.pr, 0.0, s.out_degree, s.step + 1)

    return ComputeMethodContract(
        name="pagerank",
        value_type="record:PageRankState",
        in_message_type="float64",
        out_message_type="float64",
        state_to_message=lambda s: (
            0.85 * s.delta_out / s.out_degree if s.delta_out > 0 else None
        ),
        partial_compute=fold,
        update_state=update,
        associative=allow_regroup,
        commutative=allow_regroup,
        sample_message=(lambda rng: rng.random()) if allow_regroup else None,
    )


def build_pagerank(
    graph: Graph, max_iteration: int = 2**30, allow_regroup: bool = False
) -> Workload:
    for v in range(graph.vertex_count):
        if graph.degree(v) == 0:
            raise ParameterError(
                f"vertex {v} has out-degree 0; the update divides by out-degree"
            )
    eqs = _recursive_equations(graph, lambda a: "pagerank")
    values = {
        a: PageRankState(0.0, 0.0, graph.degree(a), 0) for a in range(graph.vertex_count)
    }
    return Workload(
        name="pagerank",
        graph=graph,
        equations=eqs,
        contracts={"pagerank": pagerank_contract(max_iteration, allow_regroup)},
        initial_values=values,
        static_marks=_all_static(eqs),
        pushdown_targets=(),
        encode_value=lambda v: struct.pack("<d", v.pr),
    )


# Shared helpers ------------------------------------------------------------------


def state_checksum(workload: Workload, agent_values: dict[int, object]) -> str:
    """64-bit hex checksum of the final state, stable across runs."""
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    for a in sorted(agent_values):
        h.update(a.to_bytes(8, "little"))
        h.update(workload.encode_value(agent_values[a]))
    return h.hexdigest()
