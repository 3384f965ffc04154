"""Translation of behavioral equations into pi-calculus processes.

A non-recursive equation ``p := f{i_1..i_n}.q`` becomes::

    p(x).(nu d)(nu m)(
        i_1(m).'d<m>.0 | ... | i_n(m).'d<m>.0 |
        d(m_1). ... d(m_n).[y = f(m_1..m_n, x)].!'q<y>.0
    )

A recursive equation ``p := f{i_1..i_n}.p`` becomes a named definition::

    P = resume(m_1..m_n).p(x).[y = f(m_1..m_n, x)].('yield<p,y,i_1..i_n>.P | 'p<y>.0)

where the scheduler drives P through supersteps over the resume/yield pair.
"""

from __future__ import annotations

from typing import Callable

from ..equations import BehavioralEquation, StateRef
from ..errors import WrongCaseError
from .process import (
    NIL,
    FunctionApply,
    InputPrefix,
    Name,
    OutputPrefix,
    PiProcess,
    ProcessId,
    Replication,
    bang,
    inp,
    name,
    nu,
    out,
    par,
)

# Extra reduction steps taken by the function-application encoding beyond the
# one step already budgeted for it: the opaque FunctionApply node fires in a
# single step, so a translated equation composed with initializers for the
# lhs and every reference reaches an irreducible form in exactly
# 2n + 2 + FUNCTION_ENCODING_EXTRA_STEPS reductions.
FUNCTION_ENCODING_EXTRA_STEPS = 0

NameOf = Callable[[StateRef], str]

RESUME = name("resume")
YIELD = name("yield")


def default_state_name(ref: StateRef) -> str:
    return repr(ref)


def state_channel(ref: StateRef, name_of: NameOf = default_state_name) -> Name:
    return name(name_of(ref))


def translation_body(
    lhs: Name,
    compute: str,
    refs: tuple[Name, ...],
    result_sink: PiProcess,
) -> PiProcess:
    """Shared shape of the non-recursive translation.

    ``result_sink`` receives the bound result name ``y``; callers pass the
    replicated output for the rhs state, or a self-referencing residue to
    build the naive recursive composition that never terminates.
    """
    x = name("x")
    d = name("d")
    m = name("m")
    receivers = [inp(ref, m, out(d, m)) for ref in refs]
    collectors = [name(f"m{k + 1}") for k in range(len(refs))]
    tail: PiProcess = FunctionApply(compute, tuple(collectors) + (x,), name("y"), result_sink)
    for mk in reversed(collectors):
        tail = inp(d, mk, tail)
    return inp(lhs, x, nu((d, m), par(*receivers, tail)))


def translate_nonrecursive(
    eq: BehavioralEquation, name_of: NameOf = default_state_name
) -> PiProcess:
    """Translate ``p := f{i_1..i_n}.q`` with ``p != q``."""
    if eq.lhs == eq.rhs:
        raise WrongCaseError(f"{eq} is recursive; use translate_recursive")
    lhs = state_channel(eq.lhs, name_of)
    rhs = state_channel(eq.rhs, name_of)
    refs = tuple(state_channel(r, name_of) for r in eq.reference_set)
    sink = bang(out(rhs, name("y")))
    return translation_body(lhs, eq.compute, refs, sink)


def recursive_process_ident(eq: BehavioralEquation, name_of: NameOf = default_state_name) -> str:
    return f"@{name_of(eq.lhs)}"


def translate_recursive(
    eq: BehavioralEquation, name_of: NameOf = default_state_name
) -> PiProcess:
    """Translate ``p := f{i_1..i_n}.p``; register the result under
    ``recursive_process_ident(eq)`` so the self-reference can unfold."""
    if eq.lhs != eq.rhs:
        raise WrongCaseError(f"{eq} is not recursive; use translate_nonrecursive")
    p = state_channel(eq.lhs, name_of)
    refs = tuple(state_channel(r, name_of) for r in eq.reference_set)
    collectors = tuple(name(f"m{k + 1}") for k in range(len(refs)))
    x = name("x")
    y = name("y")
    self_ref = ProcessId(recursive_process_ident(eq, name_of))
    body = FunctionApply(
        eq.compute,
        collectors + (x,),
        y,
        par(out(YIELD, (p, y) + refs, self_ref), out(p, y)),
    )
    return InputPrefix(RESUME, collectors, inp(p, x, body))


def naive_recursive_composition(
    eq: BehavioralEquation, name_of: NameOf = default_state_name
) -> tuple[PiProcess, dict[str, PiProcess]]:
    """The yield/resume-free translation of a recursive equation.

    Behaves like the non-recursive shape but ends by re-arming itself, so a
    composed system keeps reducing forever and keeps publishing values on
    the same state channel.  Returns (process, definitions).
    """
    if eq.lhs != eq.rhs:
        raise WrongCaseError(f"{eq} is not recursive")
    ident = recursive_process_ident(eq, name_of)
    lhs = state_channel(eq.lhs, name_of)
    refs = tuple(state_channel(r, name_of) for r in eq.reference_set)
    sink = par(bang(out(lhs, name("y"))), ProcessId(ident))
    body = translation_body(lhs, eq.compute, refs, sink)
    return ProcessId(ident), {ident: body}


def initializer(ref: StateRef, value, name_of: NameOf = default_state_name) -> PiProcess:
    """Replicated output seeding a state channel with a literal value."""
    from .process import lit

    return bang(out(state_channel(ref, name_of), lit(value)))
