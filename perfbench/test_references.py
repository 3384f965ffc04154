"""Self-tests of the benchmark's references and checks, on small inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import pytest

from cases import EconPushdown, GolFull, OracleRing, PagerankUnopt
from fuseforge.pi import final_values, lit, substitute
from reference import gol_reference, pagerank_reference, ring_reference


def test_gol_keeps_a_block_and_returns_a_blinker():
    side = 8
    block = {2 * side + 2, 2 * side + 3, 3 * side + 2, 3 * side + 3}
    assert gol_reference(side, side, block, 3) == block
    blinker = {3 * side + 2, 3 * side + 3, 3 * side + 4}
    once = gol_reference(side, side, blinker, 1)
    assert once == {2 * side + 3, 3 * side + 3, 4 * side + 3}
    assert gol_reference(side, side, blinker, 2) == blinker


def test_power_iteration_gives_one_on_the_three_cycle():
    pr = pagerank_reference(((1, 2), (0, 2), (0, 1)), rounds=300)
    assert pr == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_ring_arithmetic_of_the_two_core_example():
    assert ring_reference([5, 6], 2) == [12, -10]


SMALL_SIMULATIONS = [
    lambda: GolFull(3, side=12, rounds=6),
    lambda: EconPushdown(3, agents=41, rounds=6),
    lambda: PagerankUnopt(3, vertices=80, rounds=6, edge_probability=0.2),
]


@pytest.mark.parametrize("make", SMALL_SIMULATIONS, ids=["gol", "econ", "pagerank"])
def test_simulation_check_rejects_one_changed_agent(make):
    case = make()
    setup = case.setup()
    state, metrics = case.solve(setup)
    assert case.check(setup, (state, metrics)) == []
    agent = 1
    value = state.agent_values[agent]
    if isinstance(value, bool):
        changed = not value
    elif hasattr(value, "pr"):
        changed = dataclasses.replace(value, pr=value.pr + 1e-12)
    else:
        changed = dataclasses.replace(value, holdings=value.holdings + 1)
    values = dict(state.agent_values)
    values[agent] = changed
    perturbed = dataclasses.replace(state, agent_values=values)
    assert case.check(setup, (perturbed, metrics)) != []


@pytest.mark.parametrize("make", SMALL_SIMULATIONS, ids=["gol", "econ", "pagerank"])
def test_pass_by_pass_plans_match_default_pipeline(make):
    from tracing import Tracer

    case = make()
    tracer = Tracer()
    setup = case.setup(tracer)
    assert case.trace_check(setup) == []
    assert case.check(setup, case.solve(setup, tracer)) == []
    assert tracer.counter("workloads.compute")[1] > 0


def test_oracle_check_rejects_one_changed_agent():
    case = OracleRing(3, agents=2, steps=2)
    case.prepare()
    state = case.setup()
    result = case.solve(state)
    assert case.check(state, result) == []
    assert case.observed(result)[0] == ring_reference(case.values, 2)

    final = result.irreducible[0]
    target = case.final_names[0]
    old = final_values(final)[target]
    process = substitute(final.process, {lit(old): lit(old + 1)})
    env = tuple((n, old + 1 if n == target else v) for n, v in final.value_env)
    changed = dataclasses.replace(final, process=process, value_env=env)
    perturbed = dataclasses.replace(result, irreducible=[changed])
    assert final_values(changed)[target] == old + 1
    assert case.check(state, perturbed) != []
