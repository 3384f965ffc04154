"""The order in which a receiver folds its mail, on small hand-built
workloads whose folds depend on that order: the engine must give the
hand-computed values and agree with the mailbox-list interpreter
(``interpreter.py``) in every round, superstep 0's seeded mail included.
The shapes of a gather are covered too: a single mail source, a hub that
keeps its reads as one tuple next to its mail, and a round whose array
holds a None after rounds that held none, with the barrier's None check
on and off."""

from __future__ import annotations

import pytest

from fuseforge.equations import BehavioralEquation, ComputeMethodContract, StateRef
from fuseforge.graphgen import Graph, build_partitions
from fuseforge.optimizer import MODE_PASSES, default_pipeline
from fuseforge.runtime import Engine
from fuseforge.workloads import Workload
from interpreter import Interpreter

ROUNDS = 3


def _float_sum(ms: list) -> float:
    acc = 0.0
    for m in ms:
        acc += m
    return acc


def _digits(ms: list) -> int:
    acc = 0
    for m in ms:
        acc = acc * 10 + m
    return acc


def constant(payload) -> tuple:
    return (payload,) * (ROUNDS + 1)


def hand_built(receiver_fold, payloads: dict[int, tuple], assignment: list[int],
               dynamic: set[int] = frozenset(), commutative: bool = False,
               pushdown: bool = False, add: bool = False,
               receiver_sends: bool = False, echo: bool = False) -> Workload:
    """Agent 0 reads every other agent and keeps the history of its folds;
    agent k reads nothing and sends ``payloads[k][t]`` in superstep t, so
    agent 0 folds the t-th payloads in round t.  References in ``dynamic``
    are unmarked; ``add`` declares agent 0's fold an int ``fold="add"``.
    Agent 0 sends None unless ``receiver_sends``, which makes it send the
    number of its folds so far.  With ``echo`` every sender also takes agent
    0's message by mail and ignores it, which adds mail routes."""
    n = len(assignment)
    senders = range(1, n)
    refs = tuple(StateRef(s) for s in senders)
    back = (StateRef(0),) if echo else ()
    eqs = {0: BehavioralEquation(StateRef(0), "fold", refs, StateRef(0))}
    eqs.update({s: BehavioralEquation(StateRef(s), "send", back, StateRef(s)) for s in senders})
    contracts = {
        "fold": ComputeMethodContract(
            "fold", "record:tuple", "int64" if add else "any", "any",
            state_to_message=len if receiver_sends else lambda s: None,
            partial_compute=receiver_fold,
            update_state=lambda s, f: (*s, f), associative=commutative,
            commutative=commutative, fold="add" if add else None),
        "send": ComputeMethodContract(
            "send", "any", "any", "any", state_to_message=lambda s: s[0],
            partial_compute=lambda ms: None, update_state=lambda s, f: s[1:]),
    }
    return Workload(
        name="hand-built",
        graph=Graph(n, ((*senders,), *((0,) for _ in senders))),
        equations=eqs,
        contracts=contracts,
        initial_values={0: (), **payloads},
        static_marks={0: {r for r in refs if r.agent_id not in dynamic}},
        pushdown_targets=(0,) if pushdown else (),
        encode_value=repr,
    )


def run_both(wl, assignment, passes):
    parts = build_partitions(wl.graph, assignment, max(assignment) + 1)
    plans = default_pipeline(parts, wl.equations, wl.static_marks, passes,
                             contracts=wl.contracts, pushdown_targets=wl.pushdown_targets)
    engine = Engine(wl, plans, track_inbound=(0,))
    want_state, want = Interpreter(wl, plans, track_inbound=(0,)).run(ROUNDS)
    state, got = engine.run(ROUNDS)
    assert state.agent_values == want_state.agent_values
    assert (got.logical_messages_per_round, got.wire_units_per_round,
            got.inbound_wire_by_agent, got.inbound_total_by_agent) == \
        (want.logical_messages_per_round, want.wire_units_per_round,
         want.inbound_wire_by_agent, want.inbound_total_by_agent)
    return engine, state, got


# Partition 0 holds the receiver and sender 3, partition 1 sender 2 and
# partition 2 sender 1, so arrival order (3, 2, 1) is neither ascending
# sender order nor a sort by partition.  The float payloads do not sum
# associatively: 1.0 + 1e16 rounds back to 1e16.
NON_ASSOCIATIVE = {1: constant(-1e16), 2: constant(1e16), 3: constant(1.0)}
ASSIGNMENT = [0, 2, 1, 0]


@pytest.mark.parametrize("mode", ["unopt", "merge", "pushdown"])
def test_commutative_float_fold_takes_mail_in_arrival_order(mode):
    """Local mail first, then other partitions' mail in partition order, then
    aggregator partials, which stand in for the other partitions' senders
    under pushdown; superstep 0's seeded mail arrives in the same order."""
    passes = frozenset({"pushdown"}) if mode == "pushdown" else MODE_PASSES[mode]
    wl = hand_built(_float_sum, NON_ASSOCIATIVE, ASSIGNMENT, commutative=True,
                    pushdown=mode == "pushdown")
    engine, state, metrics = run_both(wl, ASSIGNMENT, passes)
    # ((0.0 + 1.0) + 1e16) + -1e16; ascending senders would give 1.0
    assert state.agent_values[0] == (0.0,) * ROUNDS
    assert len(engine.aggregators) == (2 if mode == "pushdown" else 0)
    assert metrics.logical_messages_per_round == [3] * ROUNDS
    assert metrics.inbound_wire_by_agent[0] == [2] * ROUNDS


@pytest.mark.parametrize("mode", ["unopt", "+local", "full"])
def test_order_sensitive_fold_merges_reads_and_mail_by_sender(mode):
    """Agent 0 reads its marked local senders 1 and 3 from the buffer (in
    ``+local`` and ``full``) and gets 2, 4 and the cross-partition 5 by mail.
    4 sends None in superstep 2 only, after a message in superstep 0, so
    its slot must not show that older message again."""
    payloads = {1: constant(1), 2: constant(2), 3: constant(3), 4: (4, 4, None, 4),
                5: constant(5)}
    assignment = [0, 0, 0, 0, 0, 1]
    wl = hand_built(_digits, payloads, assignment, dynamic={2, 4, 5})
    engine, state, metrics = run_both(wl, assignment, MODE_PASSES[mode])
    assert state.agent_values[0] == (12345, 12345, 1235)
    assert engine.routes == (5 if mode == "unopt" else 3)
    mailed = 5 if mode == "unopt" else 3
    assert metrics.inbound_total_by_agent[0] == [mailed, mailed - 1, mailed]


@pytest.mark.parametrize("mode", ["unopt", "+local", "full"])
def test_add_fold_without_order_flags_counts_reads_and_mail_once(mode):
    """An int ``fold="add"`` contract that declares neither associative nor
    commutative: agent 0 reads 1 and 3 from the buffer (in ``+local`` and
    ``full``) and gets 2, 4 and the cross-partition 5 by mail.  Each input
    joins the sum once, and a None is skipped whether it is a read (1 in
    superstep 1) or mail (4 in superstep 2)."""
    payloads = {1: (1, None, 1, 1), 2: constant(20), 3: constant(300),
                4: (4000, 4000, None, 4000), 5: constant(50000)}
    assignment = [0, 0, 0, 0, 0, 1]
    wl = hand_built(sum, payloads, assignment, dynamic={2, 4, 5}, add=True)
    assert not wl.contracts["fold"].pushdown_eligible
    engine, state, _ = run_both(wl, assignment, MODE_PASSES[mode])
    assert state.agent_values[0] == (54321, 54320, 50321)
    assert engine.routes == (5 if mode == "unopt" else 3)


# fold kinds: (partial_compute, hand_built flags)
FOLDS = {
    "order-sensitive": (_digits, {}),
    "commutative-float": (_float_sum, {"commutative": True}),
    "add": (sum, {"add": True}),
}


@pytest.mark.parametrize("fold", sorted(FOLDS))
@pytest.mark.parametrize("mode", ["unopt", "+local"])
def test_single_mail_source_gathers_a_sequence(fold, mode):
    """Under ``unopt`` agent 0's one sender, the cross-partition 1, reaches
    it by mail.  Under ``+local`` agent 0 reads 1 from the buffer and gets
    the cross-partition 2 by mail, so an arrival-order fold gathers one
    mail source next to its read."""
    pc, flags = FOLDS[fold]
    if mode == "unopt":
        payloads, assignment, want = {1: constant(7)}, [0, 1], 7
    else:
        payloads, assignment = {1: constant(1), 2: constant(2)}, [0, 0, 1]
        want = 12 if fold == "order-sensitive" else 3
    wl = hand_built(pc, payloads, assignment, dynamic={2}, receiver_sends=True, **flags)
    _, state, _ = run_both(wl, assignment, MODE_PASSES[mode])
    assert state.agent_values[0] == (want,) * ROUNDS


@pytest.mark.parametrize("mode", ["+local", "full"])
def test_packed_hub_folds_reads_then_mail(mode):
    """Agent 0 is the only agent of its shape and reads two sources, so its
    row keeps the reads 1 and 3 as one tuple; it gets 2 and the
    cross-partition 4 by mail and folds reads, then mail in arrival order:
    ((1e16 + 1.0) + -1e16) + 1.0, where ascending senders would give 2.0."""
    payloads = {1: constant(1e16), 2: constant(-1e16), 3: constant(1.0), 4: constant(1.0)}
    assignment = [0, 0, 0, 0, 1]
    wl = hand_built(_float_sum, payloads, assignment, dynamic={2, 4}, commutative=True)
    engine, state, _ = run_both(wl, assignment, MODE_PASSES[mode])
    assert state.agent_values[0] == (1.0,) * ROUNDS
    [hub] = [row for program in engine.programs for _, table, *_ in program
             for row in table if row[0] == 0]
    assert hub[1] == (1, 3)


def none_after_rounds_without_one(fold, mode, echo):
    """Every agent, agent 0 included, sends in supersteps 0 and 1, so those
    rounds' arrays hold no None; mail sender 2 then sends None in superstep
    2 only, and round 2 must drop it from agent 0's fold.  ``echo`` decides
    whether the mail routes number at least the array's 4 entries, and so
    whether the barrier checks the array for None."""
    pc, flags = FOLDS[fold]
    payloads = {1: constant(1), 2: (2, 2, None, 2), 3: constant(3)}
    assignment = [0, 0, 1, 0]
    wl = hand_built(pc, payloads, assignment, dynamic={2}, receiver_sends=True,
                    echo=echo, **flags)
    engine, state, metrics = run_both(wl, assignment, MODE_PASSES[mode])
    assert engine._scans is echo
    want = (123, 123, 13) if fold == "order-sensitive" else (6, 6, 4)
    assert state.agent_values[0] == want
    # counted after each round, from the messages the next round folds
    mailed = 3 if mode == "unopt" else 1
    assert metrics.inbound_total_by_agent[0] == [mailed, mailed - 1, mailed]


@pytest.mark.parametrize("fold", sorted(FOLDS))
@pytest.mark.parametrize("mode", ["unopt", "+local"])
def test_none_after_rounds_without_one(fold, mode):
    """The barrier checks for None: agent 0's 3 or 1 mail routes plus its
    senders' 3 reach the array's 4 entries."""
    none_after_rounds_without_one(fold, mode, echo=True)


@pytest.mark.parametrize("fold", sorted(FOLDS))
@pytest.mark.parametrize("mode", ["unopt", "+local"])
def test_none_after_rounds_without_one_unscanned(fold, mode):
    """No barrier check: agent 0's 3 or 1 mail routes are fewer than the
    array's 4 entries, so every kernel scans its gathered mail itself."""
    none_after_rounds_without_one(fold, mode, echo=False)
