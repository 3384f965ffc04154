"""Canonical forms under structural congruence.

``normalize`` maps congruent processes to one canonical representative:

* parallel compositions and choices are flattened and sorted by a stable
  structural key (PAR-COMM/ASSOC, CHOICE-COMM/ASSOC);
* inactive branches are dropped (PAR-IDENT, CHOICE-IDENT);
* restrictions are hoisted to the nearest enclosing prefix/choice/replication
  boundary (the "region root", RES-SCOPE), dead ones removed (RES-ANN), and
  chains ordered canonically (RES-SWAP);
* a parallel copy of a replicated body is folded back into the replication
  (REPLICATION);
* bound names are renamed to a canonical numbering scheme (ALPHA-CONV), and
  the renamed term is canonicalized again until it is stable, so the result
  does not depend on the text of bound names.

Restriction chains are ordered by individualization-refinement (McKay &
Piperno, "Practical graph isomorphism, II", 2014): each live chain name is
coloured by the sorted keys of the components it occurs in, with itself
marked and the other chain names shown by their current colours, and colours
are refined until the number of classes stops growing.  While a class still
holds several names, each member of the lowest such class is individualized
in turn and the colouring refined again; the member whose certificate is
least is kept.  Colours come from alpha-insensitive keys, so the order is
canonical, with one limit: names that tie even after individualization are
ordered by their text, so such a class can keep more than one
representative (duplicate states in a search, never wrong ones).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from ..errors import StructuralError
from .process import (
    NIL,
    Choice,
    FunctionApply,
    InputPrefix,
    Name,
    Nil,
    OutputPrefix,
    Parallel,
    PiProcess,
    ProcessId,
    Replication,
    Restriction,
    flatten_choice,
    flatten_parallel,
    free_names,
    fresh,
    name_is_free,
    nu,
    par,
    substitute,
    TOP,
)

_MAX_PASSES = 16


def canonical_key(p: PiProcess, env: dict[Name, str] | None = None) -> str:
    """Alpha-insensitive structural serialization, usable as a sort key.

    Bound names are rendered by binder-site number, free names by their
    interned identity; ``env`` may pre-assign tokens for selected free names.
    """
    if env is None:
        return _canonical_key_cached(p)
    fns = free_names(p)
    if fns is not TOP:
        env = {n: t for n, t in env.items() if n in fns}
        if not env:
            return _canonical_key_cached(p)
    sig = (p, tuple(sorted(env.items(), key=lambda kv: repr(kv[0]))))
    hit = _ENV_KEY_CACHE.get(sig)
    if hit is None:
        hit = _canonical_key_walk(p, env)
        _ENV_KEY_CACHE[sig] = hit
    return hit


_ENV_KEY_CACHE: dict = {}


@lru_cache(maxsize=None)
def _canonical_key_cached(p: PiProcess) -> str:
    return _canonical_key_walk(p, None)


def _canonical_key_walk(p: PiProcess, env: dict[Name, str] | None) -> str:
    parts: list[str] = []
    append = parts.append
    bound: dict[Name, str] = {}  # binder tokens, shadow-restored on scope exit
    site = 0

    def tok(n: Name) -> str:
        t = bound.get(n)
        if t is not None:
            return t
        if env is not None:
            t = env.get(n)
            if t is not None:
                return t
        if n.is_literal:
            return f"l!{n.value!r}"
        if n.fresh_id is not None:
            return f"f!{n.text}~{n.fresh_id}"
        return f"u!{n.text}"

    def enter(names) -> list[tuple[Name, str | None]]:
        nonlocal site
        saved = []
        for n in names:
            saved.append((n, bound.get(n)))
            bound[n] = f"b{site}"
            site += 1
        return saved

    def leave(saved) -> None:
        for n, old in saved:
            if old is None:
                del bound[n]
            else:
                bound[n] = old

    def walk(q: PiProcess) -> None:
        if isinstance(q, Nil):
            append("0")
        elif isinstance(q, OutputPrefix):
            append("(o ")
            append(tok(q.channel))
            for n in q.payload:
                append(" ")
                append(tok(n))
            append(";")
            walk(q.continuation)
            append(")")
        elif isinstance(q, InputPrefix):
            append("(i ")
            append(tok(q.channel))
            append(f" {len(q.binders)};")
            saved = enter(q.binders)
            walk(q.continuation)
            leave(saved)
            append(")")
        elif isinstance(q, Choice):
            append("(+ ")
            walk(q.left)
            append(" ")
            walk(q.right)
            append(")")
        elif isinstance(q, Parallel):
            append("(| ")
            walk(q.left)
            append(" ")
            walk(q.right)
            append(")")
        elif isinstance(q, Restriction):
            append("(nu ")
            saved = enter((q.name,))
            walk(q.body)
            leave(saved)
            append(")")
        elif isinstance(q, Replication):
            append("(! ")
            walk(q.body)
            append(")")
        elif isinstance(q, FunctionApply):
            append(f"(app {q.fn}")
            for n in q.args:
                append(" ")
                append(tok(n))
            append(";")
            saved = enter((q.result,))
            walk(q.continuation)
            leave(saved)
            append(")")
        elif isinstance(q, ProcessId):
            append(f"(id {q.ident})")
        else:
            raise StructuralError(f"unknown process node {q!r}")

    walk(p)
    return "".join(parts)


_RENAMED_BY_KEY: dict[str, PiProcess] = {}


def clear_caches() -> None:
    """Empty every normalization memo, so the next call runs cold."""
    for memo in (normalize, _canon_region, _canon_node, _canonical_key_cached, free_names):
        memo.cache_clear()
    _ENV_KEY_CACHE.clear()
    _RENAMED_BY_KEY.clear()


@lru_cache(maxsize=None)
def normalize(p: PiProcess) -> PiProcess:
    """Canonical representative of ``p`` under structural congruence.

    Canonicalization runs on un-renamed structure, where the order it picks
    for components and branches can depend on the text of names bound
    further out; renaming binders canonically and canonicalizing again
    removes that dependence, so the pair is iterated until the result is
    its own normal form (a cycle settles on its least member).  Results are
    memoized per alpha-insensitive key, so alpha-variants share one
    representative.
    """
    key = canonical_key(p)
    done = _RENAMED_BY_KEY.get(key)
    if done is not None:
        return done
    cur = p
    trail: list[PiProcess] = []
    for _ in range(_MAX_PASSES):
        canon = _canon_region(cur)
        if trail and canonical_key(canon) == canonical_key(cur):
            break  # a renamed form that canonicalization keeps up to alpha
        nxt = _rename_canonical(canon)
        if nxt in trail:
            cur = min(trail[trail.index(nxt):], key=lambda c: (canonical_key(c), repr(c)))
            break
        trail.append(nxt)
        cur = nxt
    _RENAMED_BY_KEY[key] = cur
    _RENAMED_BY_KEY.setdefault(canonical_key(cur), cur)
    return cur


# Region canonicalization ----------------------------------------------------


@lru_cache(maxsize=None)
def _canon_region(p: PiProcess) -> PiProcess:
    chain, kids = _gather(p, _taken_seed(p))
    kids = [k for k in kids if not isinstance(k, Nil)]
    kids = _absorb(kids)
    if not kids:
        return NIL
    live = [n for n in chain if any(name_is_free(n, k) for k in kids)]
    order = _chain_order(live, kids)
    env = {n: f"r!{i}" for i, n in enumerate(order)} if order else None
    return nu(order, par(*_sort_kids(kids, env)))


def _chain_order(live: list[Name], kids: list[PiProcess]) -> tuple[Name, ...]:
    """The canonical order of a chain's live names, by individualization-refinement.

    An individualized name gets its own colour just below the rest of its
    class; its certificate is the sorted kid keys, after refinement, with
    every name rendered as its colour.  A chain can repeat a name
    (restrictions over identifier scopes keep their name); the copies share
    a colour.
    """
    names = list(dict.fromkeys(live))
    if len(names) < 2:
        return tuple(live)
    occurs = {n: [k for k in kids if name_is_free(n, k)] for n in names}
    colour = _refine(names, occurs, dict.fromkeys(names, 0))
    while True:
        counts = Counter(colour.values())
        tied = min((c for c, size in counts.items() if size > 1), default=None)
        if tied is None:
            return tuple(sorted(live, key=colour.__getitem__))
        best = None
        for n in [m for m in names if colour[m] == tied]:
            trial = {m: c if c < tied or m == n else c + 1 for m, c in colour.items()}
            trial = _refine(names, occurs, trial)
            env = {m: f"c!{trial[m]}" for m in names}
            cert = (sorted(canonical_key(k, env) for k in kids), repr(n))
            if best is None or cert < best[0]:
                best = (cert, trial)
        colour = best[1]


def _refine(
    names: list[Name], occurs: dict[Name, list[PiProcess]], colour: dict[Name, int]
) -> dict[Name, int]:
    """Split colour classes until their number stops growing.

    A name's signature is its colour plus the sorted keys of the kids it
    occurs in, rendered with the name itself as ``*`` and every other name
    as its current colour; new colours are the ranks of distinct
    signatures, so classes keep their relative order.
    """
    classes = len(set(colour.values()))
    while classes < len(names):
        sigs = {}
        for n in names:
            env = {m: f"c!{colour[m]}" for m in names}
            env[n] = "*"
            sigs[n] = (colour[n], tuple(sorted(canonical_key(k, env) for k in occurs[n])))
        rank = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        colour = {n: rank[sigs[n]] for n in names}
        if len(rank) == classes:
            break
        classes = len(rank)
    return colour


def _sort_kids(kids: list[PiProcess], env: dict[Name, str] | None) -> list[PiProcess]:
    """Kids by key under ``env``; kids with equal keys by ``repr``."""
    keyed = sorted(((canonical_key(k, env), k) for k in kids), key=lambda t: t[0])
    ordered: list[PiProcess] = []
    for _, run in itertools.groupby(keyed, key=lambda t: t[0]):
        group = [k for _, k in run]
        if len(group) > 1:
            group.sort(key=repr)
        ordered.extend(group)
    return ordered


def _taken_seed(p: PiProcess) -> set[Name]:
    fns = free_names(p)
    return set() if fns is TOP else set(fns)


def _gather(p: PiProcess, taken: set[Name]) -> tuple[list[Name], list[PiProcess]]:
    """Hoist restrictions up through parallel composition within one region."""
    if isinstance(p, Nil):
        return [], []
    if isinstance(p, Restriction):
        n, body = p.name, p.body
        # A name free inside a process identifier's definition cannot be
        # rewritten, so restrictions over identifier-containing scopes keep
        # their name; elsewhere collisions are resolved by renaming.
        if n in taken and free_names(body) is not TOP:
            n2 = fresh(n.text)
            body = substitute(body, {n: n2})
            n = n2
        chain, kids = _gather(body, taken | {n})
        return [n] + chain, kids
    if isinstance(p, Parallel):
        left_chain, left_kids = _gather(p.left, taken)
        right_chain, right_kids = _gather(p.right, taken | set(left_chain))
        return left_chain + right_chain, left_kids + right_kids
    node = _canon_node(p)
    if isinstance(node, (Nil, Parallel, Restriction)):
        # a collapsed choice (P + 0 with P restricted or parallel) re-enters
        # the region so its restrictions hoist like any other component's
        return _gather(node, taken)
    return [], [node]


@lru_cache(maxsize=None)
def _canon_node(p: PiProcess) -> PiProcess:
    """Canonicalize a single parallel component (not Nil/Parallel/Restriction)."""
    if isinstance(p, OutputPrefix):
        return OutputPrefix(p.channel, p.payload, _canon_region(p.continuation))
    if isinstance(p, InputPrefix):
        return InputPrefix(p.channel, p.binders, _canon_region(p.continuation))
    if isinstance(p, FunctionApply):
        return FunctionApply(p.fn, p.args, p.result, _canon_region(p.continuation))
    if isinstance(p, Replication):
        body = _canon_region(p.body)
        if isinstance(body, Nil):
            return NIL
        return Replication(body)
    if isinstance(p, Choice):
        branches: list[PiProcess] = []
        for b in flatten_choice(p):
            cb = _canon_region(b)
            branches.extend(flatten_choice(cb))
        branches = [b for b in branches if not isinstance(b, Nil)]
        if not branches:
            return NIL
        branches.sort(key=canonical_key)
        if len(branches) == 1:
            return branches[0]
        result = branches[-1]
        for b in reversed(branches[:-1]):
            result = Choice(b, result)
        return result
    if isinstance(p, ProcessId):
        return p
    raise StructuralError(f"unexpected parallel component {p!r}")


def _absorb(kids: list[PiProcess]) -> list[PiProcess]:
    """Fold parallel copies of replicated bodies back into the replication."""
    body_keys: dict[str, list[PiProcess]] = {}
    for k in kids:
        if isinstance(k, Replication):
            body_keys.setdefault(canonical_key(k.body), []).append(k)
    if not body_keys:
        return kids
    out = []
    for k in kids:
        owners = body_keys.get(canonical_key(k))
        if owners and any(o is not k for o in owners):
            continue
        out.append(k)
    return out


# Canonical binder renaming --------------------------------------------------


def _rename_canonical(p: PiProcess) -> PiProcess:
    """Rename binder sites to %0, %1, ... in traversal order.

    Binders whose scope contains a process identifier keep their original
    name: the identifier's definition may use it free, and definitions are
    never rewritten.  Canonical keys stay alpha-insensitive regardless.
    """
    counter = itertools.count()

    def next_name() -> Name:
        return Name(f"%{next(counter)}")

    def binder_for(old: Name, scope: PiProcess) -> Name:
        return old if free_names(scope) is TOP else next_name()

    def walk(q: PiProcess, env: dict[Name, Name]) -> PiProcess:
        if isinstance(q, Nil):
            return q
        if isinstance(q, OutputPrefix):
            return OutputPrefix(
                env.get(q.channel, q.channel),
                tuple(env.get(n, n) for n in q.payload),
                walk(q.continuation, env),
            )
        if isinstance(q, InputPrefix):
            new = [binder_for(b, q.continuation) for b in q.binders]
            inner = dict(env)
            inner.update(zip(q.binders, new))
            return InputPrefix(env.get(q.channel, q.channel), tuple(new), walk(q.continuation, inner))
        if isinstance(q, Choice):
            return Choice(walk(q.left, env), walk(q.right, env))
        if isinstance(q, Parallel):
            return Parallel(walk(q.left, env), walk(q.right, env))
        if isinstance(q, Restriction):
            new = binder_for(q.name, q.body)
            inner = dict(env)
            inner[q.name] = new
            return Restriction(new, walk(q.body, inner))
        if isinstance(q, Replication):
            return Replication(walk(q.body, env))
        if isinstance(q, FunctionApply):
            new = binder_for(q.result, q.continuation)
            args = tuple(env.get(n, n) for n in q.args)
            inner = dict(env)
            inner[q.result] = new
            return FunctionApply(q.fn, args, new, walk(q.continuation, inner))
        if isinstance(q, ProcessId):
            return q
        raise StructuralError(f"unknown process node {q!r}")

    return walk(p, {})


def split_top(p: PiProcess) -> tuple[list[Name], list[PiProcess]]:
    """Decompose a normalized process into restriction chain + components."""
    chain = []
    while isinstance(p, Restriction):
        chain.append(p.name)
        p = p.body
    if isinstance(p, Nil):
        return chain, []
    return chain, flatten_parallel(p)
