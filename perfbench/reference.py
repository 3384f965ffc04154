"""Independent reference computations for the benchmark's correctness checks.

Each function restates a workload's rules directly, without the optimizer,
the runtime or the pi oracle, so a check compares the program against a
second computation rather than against stored output.  Only the per-agent
random streams of the market come from ``fuseforge.rng``: they are part of
the market's input, not of its rules.
"""

from __future__ import annotations

from fuseforge.rng import derive_stream, next_float


def gol_reference(width: int, height: int, alive: set[int], rounds: int) -> set[int]:
    """B3/S23 on a ``width`` x ``height`` Moore torus; ids are row-major."""
    for _ in range(rounds):
        counts: dict[int, int] = {}
        for cell in alive:
            r, c = divmod(cell, width)
            for dr in (-1, 0, 1):
                row = ((r + dr) % height) * width
                for dc in (-1, 0, 1):
                    if dr or dc:
                        n = row + (c + dc) % width
                        counts[n] = counts.get(n, 0) + 1
        alive = {
            cell for cell, k in counts.items()
            if k == 3 or (k == 2 and cell in alive)
        }
    return alive


def market_initial(n: int, seed: int, initial_price: int) -> tuple[tuple, list[tuple]]:
    """(market, traders) before round 0.

    Market is ``(price, action_sum)``; trader ``a`` (1 <= a < n) is
    ``(window, last_action, cash, holdings, rng)``, its window seeded with
    one price drawn within 1% of the initial price.
    """
    spread = max(2, initial_price // 100)
    traders = [None]
    for a in range(1, n):
        rng, u = next_float(derive_stream(seed, a))
        warmup = max(1, initial_price + int(u * 2 * spread) - spread)
        traders.append(((warmup,), 0, 0, 0, rng))
    return (initial_price, 0), traders


def market_reference(
    n: int, seed: int, rounds: int, initial_price: int, window: int, jitter: float
) -> tuple[tuple, list[tuple]]:
    """Plain synchronous message passing: each round every trader reads the
    price the market published, and the market reads every trader's last
    action.  A trader buys below its moving average and sells above it,
    flipping its action with probability ``jitter``; the market moves its
    price by the sum of actions, floored at one cent."""
    market, traders = market_initial(n, seed, initial_price)
    for _ in range(rounds):
        price = market[0]
        action_sum = sum(t[1] for t in traders[1:])
        nxt = [None]
        for seen, _, cash, holdings, rng in traders[1:]:
            seen = (seen + (price,))[-window:]
            total, k = sum(seen), len(seen)
            action = 0
            if k > 1:
                action = 1 if price * k < total else -1 if price * k > total else 0
            rng, u = next_float(rng)
            if u < jitter:
                action = -action
            nxt.append((seen, action, cash - action * price, holdings + action, rng))
        traders = nxt
        market = (max(1, market[0] + action_sum), action_sum)
    return market, traders


def pagerank_reference(adjacency, rounds: int) -> list[float]:
    """Accumulative-delta PageRank, every vertex every round.

    Round 0 injects 0.15 into every vertex; afterwards a vertex adds the
    deltas its neighbours published, summed in ascending neighbour order,
    and publishes ``0.85 * delta / degree`` while its delta is positive.
    """
    n = len(adjacency)
    degree = [len(adj) for adj in adjacency]
    pr = [0.0] * n
    published = [None] * n  # message each vertex sent last round
    for step in range(rounds):
        nxt = [None] * n
        for v in range(n):
            incoming = None
            for u in adjacency[v]:
                m = published[u]
                if m is not None:
                    incoming = m if incoming is None else incoming + m
            delta = (0.15 if step == 0 else 0.0) + (incoming or 0.0)
            if delta > 0:
                pr[v] += delta
                nxt[v] = 0.85 * delta / degree[v]
        published = nxt
    return pr


def ring_reference(values: list[int], rounds: int) -> list[int]:
    """Agent i reads agent i-1 (cyclically); even agents add what they read,
    odd agents subtract it."""
    k = len(values)
    for _ in range(rounds):
        values = [
            values[i] + values[i - 1] if i % 2 == 0 else values[i] - values[i - 1]
            for i in range(k)
        ]
    return values
