"""Structural congruence: axiom soundness, idempotence, canonical ordering."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from fuseforge.pi import (
    NIL,
    Choice,
    Parallel,
    Replication,
    Restriction,
    bang,
    canonical_key,
    initial_state,
    inp,
    lit,
    name,
    normalize,
    nu,
    out,
    par,
    reduce_step,
    substitute,
)
from fuseforge.pi import congruence
from procgen import NAME_POOL, gen_prefix, gen_process

a, b, c, x, y = (name(t) for t in "abcxy")


def test_par_identity_drops_nil():
    p = out(x, lit(5))
    assert normalize(Parallel(p, NIL)) == normalize(p)


def test_res_ann_restriction_over_nil_is_nil():
    assert normalize(Restriction(a, NIL)) == NIL


def test_par_comm_same_canonical_form():
    p = out(x, lit(5))
    q = inp(y, a)
    assert normalize(Parallel(p, q)) == normalize(Parallel(q, p))


def test_normalize_idempotent_on_examples():
    p = Restriction(a, Parallel(out(a, lit(1)), inp(a, b, out(x, b))))
    n1 = normalize(p)
    assert normalize(n1) == n1


def _axiom_pairs(rng: random.Random):
    """Instantiate each congruence axiom with random small subprocesses."""
    P = gen_process(rng, 3)
    Q = gen_process(rng, 3)
    R = gen_process(rng, 2)
    yield "CHOICE-COMM", Choice(P, Q), Choice(Q, P)
    yield "CHOICE-ASSOC", Choice(Choice(P, Q), R), Choice(P, Choice(Q, R))
    yield "CHOICE-IDENT", Choice(P, NIL), P
    yield "PAR-COMM", Parallel(P, Q), Parallel(Q, P)
    yield "PAR-ASSOC", Parallel(Parallel(P, Q), R), Parallel(P, Parallel(Q, R))
    yield "PAR-IDENT", Parallel(P, NIL), P
    yield "RES-SWAP", nu((a, b), P), nu((b, a), P)
    # RES-SCOPE needs a not free in the left component
    left = substitute(P, {a: c})
    yield "RES-SCOPE", Restriction(a, Parallel(left, Q)), Parallel(left, Restriction(a, Q))
    yield "RES-ANN", Restriction(a, NIL), NIL
    # replication bodies are communication-guarded throughout this oracle
    guarded = gen_prefix(rng, 2)
    yield "REPLICATION", Replication(guarded), Parallel(guarded, Replication(guarded))
    # ALPHA-CONV: rename one bound name; both binders are chosen outside the
    # generator's name pool so neither capture is possible
    b1, b2 = name("w1"), name("w2")
    yield "ALPHA-CONV", inp(x, b1, out(x, b1, P)), inp(x, b2, out(x, b2, P))


def test_axiom_soundness_random_instances():
    rng = random.Random(20240811)
    for round_ in range(60):
        for axiom, lhs, rhs in _axiom_pairs(rng):
            nl, nr = normalize(lhs), normalize(rhs)
            assert nl == nr, f"{axiom} failed on round {round_}:\n  {lhs!r}\n  {rhs!r}"


def test_normalize_idempotent_random(count=200):
    rng = random.Random(99)
    for _ in range(count):
        p = gen_process(rng, 5)
        n1 = normalize(p)
        congruence.clear_caches()  # the memo must not hand back its own output
        assert normalize(n1) == n1


def _rewrite_once(rng: random.Random, p):
    """Apply one random congruence axiom at a random position."""

    def local(q):
        if isinstance(q, Parallel) and rng.random() < 0.5:
            return Parallel(q.right, q.left)
        if isinstance(q, Choice) and rng.random() < 0.5:
            return Choice(q.right, q.left)
        if isinstance(q, Replication) and rng.random() < 0.5:
            return Parallel(q.body, q)
        if rng.random() < 0.2:
            return Parallel(q, NIL)
        return q

    def walk(q, budget):
        q = local(q)
        if budget <= 0:
            return q
        if isinstance(q, Parallel):
            return Parallel(walk(q.left, budget - 1), walk(q.right, budget - 1))
        if isinstance(q, Choice):
            return Choice(walk(q.left, budget - 1), walk(q.right, budget - 1))
        if isinstance(q, Restriction):
            return Restriction(q.name, walk(q.body, budget - 1))
        return q

    return walk(p, 3)


def test_reduction_closed_under_congruence():
    """Congruent processes have equal multisets of canonical successors."""
    rng = random.Random(4242)
    checked = 0
    for _ in range(80):
        p = gen_process(rng, 4)
        q = _rewrite_once(rng, p)
        sp = initial_state(p)
        sq = initial_state(q)
        assert sp.process == sq.process  # congruent inputs normalize identically
        succ_p = Counter(canonical_key(normalize(s.process)) for s in reduce_step(sp))
        succ_q = Counter(canonical_key(normalize(s.process)) for s in reduce_step(sq))
        assert succ_p == succ_q
        checked += 1
    assert checked == 80


def test_canonical_ordering_is_stable_across_runs():
    rng = random.Random(5)
    kids = [gen_process(rng, 3) for _ in range(6)]
    p1 = normalize(Parallel(kids[0], Parallel(kids[1], Parallel(kids[2], kids[3]))))
    p2 = normalize(Parallel(Parallel(kids[3], kids[2]), Parallel(kids[1], kids[0])))
    assert p1 == p2


def test_duplicate_binders_rejected():
    from fuseforge.errors import StructuralError

    with pytest.raises(StructuralError):
        inp(x, (a, a), NIL)


# Chain orderer against the brute-force reference ----------------------------


def brute_force_order(live, kids):
    """Reference orderer: the permutation of the live chain whose kids
    serialize least, ties broken by the built candidate's key and repr."""

    def score(perm):
        env = {n: f"r!{i}" for i, n in enumerate(perm)}
        built = nu(perm, par(*congruence._sort_kids(kids, env)))
        return sorted(canonical_key(k, env) for k in kids), canonical_key(built), repr(built)

    return min(itertools.permutations(live), key=score)


def _orderer_corpus():
    """Random processes with congruent rewrites of each, RES-SWAP included."""
    rng = random.Random(1789)
    procs = []
    for _ in range(10):
        for _, lhs, rhs in _axiom_pairs(rng):
            procs += [lhs, rhs]
    for _ in range(80):
        p = gen_process(rng, 4)
        procs += [p, _rewrite_once(rng, p)]
    # restriction chains of 2-4 names over shuffled components
    for _ in range(80):
        names = rng.sample(NAME_POOL, rng.randint(2, 4))
        kids = [gen_prefix(rng, rng.randint(0, 2)) for _ in range(rng.randint(2, 4))]
        procs += [nu(names, par(*kids)),
                  nu(rng.sample(names, len(names)), par(*rng.sample(kids, len(kids))))]
    return procs


def _cold_normal_forms(procs, orderer=None):
    """Normalize ``procs`` on empty memos of their own, optionally with
    another chain orderer; the module's shared memos are left untouched, so
    no representative leaks between orderers or into later tests."""
    with pytest.MonkeyPatch.context() as m:
        for memo in ("normalize", "_canon_region", "_canon_node"):
            fn = getattr(congruence, memo).__wrapped__
            m.setattr(congruence, memo, lru_cache(maxsize=None)(fn))
        m.setattr(congruence, "_RENAMED_BY_KEY", {})
        if orderer is not None:
            m.setattr(congruence, "_chain_order", orderer)
        return [congruence.normalize(p) for p in procs]


def _classes(forms):
    by_form: dict = {}
    for i, f in enumerate(forms):
        by_form.setdefault(f, []).append(i)
    return sorted(by_form.values())


def test_refinement_orderer_agrees_with_brute_force():
    """Both orderers split the corpus into the same congruence classes:
    normalize(p) == normalize(q) under one exactly when under the other.
    Their representatives may differ, so those are not compared."""
    procs = _orderer_corpus()
    refined = _cold_normal_forms(procs)
    classes = _classes(refined)
    assert classes == _classes(_cold_normal_forms(procs, brute_force_order))
    # every rewrite joins its original, and distinct processes stay apart
    assert all(refined[i] == refined[i + 1] for i in range(0, len(procs), 2))
    assert len(classes) > len(procs) // 4
    # idempotent without help from the memo that produced the forms
    assert _cold_normal_forms(refined) == refined


def _links(pairs):
    link = name("l")
    return [out(link, pair) for pair in pairs]


def test_refinement_runs_until_classes_stop_growing():
    """The ends of a path differ in one round, the inner names only in the
    next: refinement must run to its fixpoint to order the path."""
    d = name("d")
    kids = _links([(a, b), (b, c), (c, d)])
    assert congruence._chain_order([c, a, d, b], kids) == (a, b, c, d)


def test_refinement_ties_are_broken_canonically():
    """A 2-cycle plus a 3-cycle of links gives every name the same colour
    although no symmetry swaps the cycles; individualization must split the
    tied class into one representative from any chain and component order."""
    d, e = name("d"), name("e")
    kids = _links([(a, b), (b, a), (c, d), (d, e), (e, c)])
    rng = random.Random(3)
    forms = {
        normalize(nu(rng.sample([a, b, c, d, e], 5), par(*rng.sample(kids, 5))))
        for _ in range(12)
    }
    assert len(forms) == 1
    five_cycle = _links([(a, b), (b, c), (c, d), (d, e), (e, a)])
    assert normalize(nu((a, b, c, d, e), par(*five_cycle))) not in forms


def _shuffled_forms(names, kids, shuffles=12):
    rng = random.Random(8)
    return {
        normalize(nu(rng.sample(names, len(names)), par(*rng.sample(kids, len(kids)))))
        for _ in range(shuffles)
    }


def test_long_chains_have_one_normal_form():
    """Chains of eight and seven names normalize to one form from any chain
    and component order: refinement alone orders a directed path, and
    individualization splits the tied classes of two cycles and a path."""
    n = [name(f"n{i}") for i in range(8)]
    path = _links([(n[i], n[i + 1]) for i in range(7)])
    assert len(_shuffled_forms(n, path)) == 1
    mix = _links([(n[0], n[1]), (n[1], n[0]),
                  (n[2], n[3]), (n[3], n[4]), (n[4], n[2]),
                  (n[5], n[6])])
    assert len(_shuffled_forms(n[:7], mix)) == 1


@pytest.mark.parametrize("shape", ["symmetric-12", "complete-10"])
def test_symmetric_chains_normalize_without_factorial_search(shape):
    """Every name ties with every other: ordering them must take
    polynomially many refinements, not a search over permutations."""
    if shape == "symmetric-12":
        n = [name(f"n{i}") for i in range(12)]
        kids = [out(x, m) for m in n]
    else:
        n = [name(f"n{i}") for i in range(10)]
        kids = _links([(u, v) for u in n for v in n if u != v])
    form = normalize(nu(n, par(*kids)))
    congruence.clear_caches()
    assert normalize(form) == form


def test_deep_terms_compare_and_normalize():
    """Equality and normalization survive terms nested deeper than the
    recursion limit: two separately built compositions of 600 replicated
    outputs, and two chains of 600 prefixes."""
    def wide(last):
        return par(*[bang(out(c, lit(i))) for i in range(599)], bang(out(c, lit(last))))

    p, q, other = wide(599), wide(599), wide(-1)
    assert p is not q and p == q and p != other

    def deep(last):
        t = out(c, lit(last))
        for i in range(599):
            t = out(c, lit(i), t)
        return t

    assert deep(0) == deep(0) and deep(0) != deep(1)
    congruence.clear_caches()
    form = normalize(p)
    assert normalize(q) == form and normalize(form) == form
    assert normalize(other) != form
