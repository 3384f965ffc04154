"""The oracle's term walks: canonical keys, renaming and hoisting keep their
own stack, so terms nested deeper than the recursion limit walk, and their
outputs are pinned by digests of the keys, normal forms and irreducible
value sets of a corpus built from ``name`` and ``lit`` only."""

from __future__ import annotations

import hashlib
import random
import sys

from fuseforge.errors import ResourceLimitError
from fuseforge.pi import (
    NIL,
    canonical_key,
    final_values,
    inp,
    lit,
    name,
    normalize,
    nu,
    out,
    par,
    reduce_all,
    substitute,
)
from fuseforge.pi import congruence
from fuseforge.pi.congruence import _gather

from procgen import gen_process
from test_confluence import corpus
from test_reduce import ring_state

DEPTH = 5000

c, x, y, z, a = (name(t) for t in "cxyza")


def test_canonical_key_of_a_deep_prefix_chain():
    assert DEPTH > sys.getrecursionlimit()
    t = NIL
    for i in range(DEPTH):
        t = out(c, lit(i), t)
    assert canonical_key(t) == \
        "".join(f"(o u!c l!{i};" for i in reversed(range(DEPTH))) + "0" + ")" * DEPTH


def binder_chain(v):
    """DEPTH inputs, each binding its own name and sending ``v`` on it."""
    t = NIL
    for i in range(DEPTH):
        b = name(f"b{i}")
        t = inp(c, b, out(b, v, t))
    return t


def test_substitute_of_a_deep_prefix_chain():
    assert substitute(binder_chain(x), {x: y}) is binder_chain(y)
    # b0, the innermost binder, would capture it: it alone is renamed
    captured = substitute(binder_chain(x), {x: name("b0")})
    assert canonical_key(captured) == canonical_key(binder_chain(y)).replace("u!y", "u!b0")


def test_gather_of_a_long_restriction_chain_over_a_wide_parallel():
    names = [name(f"n{i}") for i in range(DEPTH)]
    kids = [out(n, lit(i)) for i, n in enumerate(names)]
    assert _gather(nu(names, par(*kids))) == (names, kids)


def test_gather_renames_names_free_or_hoisted_before():
    """``a`` is free in the first component, so the hoisted ``a`` is
    renamed; the restriction on ``b`` under the prefix is not hoisted, so
    the first hoisted ``b`` keeps its name and the second, which meets it,
    is renamed."""
    b = name("b")
    under_prefix = out(c, x, nu(b, out(b, z)))
    chain, kids = _gather(par(out(a, x), nu(a, out(a, y)), under_prefix,
                              nu(b, out(b, x)), nu(b, out(b, y))))
    renamed_a, kept_b, renamed_b = chain
    assert kept_b is b and renamed_a is not a and renamed_b is not b
    assert (renamed_a.text, renamed_b.text) == ("a", "b")
    assert kids == [out(a, x), out(renamed_a, y), under_prefix, out(b, x), out(renamed_b, y)]


def ring_corpus() -> list:
    return [ring_state(list(range(5, 5 + agents)), steps)
            for agents, steps in [(2, 3), (3, 3), (4, 2), (6, 2), (10, 1)]]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def key_lines() -> list[str]:
    """Keys of the confluence corpus and ring starts, and of generated
    processes before and after normalization."""
    lines = [canonical_key(s.process) for s in corpus() + ring_corpus()]
    rng = random.Random(20261022)
    for _ in range(300):
        p = gen_process(rng, 5)
        lines += [canonical_key(p), canonical_key(normalize(p))]
    return lines


def normal_form_lines() -> list[str]:
    return [repr(s.process) for s in corpus() + ring_corpus()]


def irreducible_lines() -> list[str]:
    """Per start state: the irreducible states' keys, steps and values."""
    lines = []
    for start in corpus() + ring_corpus():
        try:
            result = reduce_all(start, max_steps=200, max_states=2_000)
        except ResourceLimitError as exc:
            result = exc.partial
        lines.append(repr(sorted(
            (canonical_key(s.process), s.step_count,
             sorted((repr(k), repr(v)) for k, v in final_values(s).items()))
            for s in result.irreducible)))
    return lines


# The digests were taken on cold memos: a warm memo may answer with a
# representative another test normalized first.

def test_canonical_keys_match_their_pinned_digest():
    congruence.clear_caches()
    assert digest(key_lines()) == KEYS_DIGEST


def test_normal_forms_match_their_pinned_digest():
    congruence.clear_caches()
    assert digest(normal_form_lines()) == NORMAL_FORMS_DIGEST


def test_irreducible_states_match_their_pinned_digest():
    congruence.clear_caches()
    assert digest(irreducible_lines()) == IRREDUCIBLE_DIGEST


KEYS_DIGEST = "4030ce66acc433c3e03b4e88b217c9ba751e783058e9a4d7e059261d951e840c"
NORMAL_FORMS_DIGEST = "86e37c4acef418879030cc4b3c940d057e121548bc3cbe8770e4446361a918ce"
IRREDUCIBLE_DIGEST = "53729da49f0542aa5992da865bbde39f3b93ee296444ee82002428309661a0ed"
