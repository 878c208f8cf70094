"""Benchmark inputs, built without importing orelab.

A graph here is ``(n, edges)`` with ``edges`` a sorted list of pairs
``(u, v)``, ``u < v``.  The pool file holds every 5-Ore class with at most
17 vertices as graph6, one per line; the named graphs are built from their
textbook definitions.  Everything a workload feeds the program is derived
from the pool, the named graphs and a ``random.Random`` seeded by the
workload name and the benchmark seed.
"""

from __future__ import annotations

import random
from pathlib import Path

POOL = Path(__file__).resolve().parent / "pool.g6"

# 5-Ore classes per vertex count up to 17: a fact of the enumeration, and
# what `pool.py recount` re-derives.
ORE_LEVELS = {5: 1, 9: 2, 13: 23, 17: 549}


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    s = line.strip()
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 order outside 1..62: {line!r}")
    stream = []
    for ch in s[1:]:
        stream += [(ord(ch) - 63) >> k & 1 for k in (5, 4, 3, 2, 1, 0)]
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if stream[i]:
                edges.append((u, v))
            i += 1
    return n, sorted(edges)


def encode_graph6(n: int, edges) -> str:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    flags = [(u, v) in present for v in range(1, n) for u in range(v)]
    flags += [False] * (-len(flags) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(flags), 6):
        val = 0
        for bit in flags[i : i + 6]:
            val = val << 1 | bit
        out.append(chr(val + 63))
    return "".join(out)


def relabel(n: int, edges, perm) -> tuple[int, list[tuple[int, int]]]:
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def load_pool(path: Path = POOL) -> list[tuple[int, list[tuple[int, int]]]]:
    return [decode_graph6(line) for line in path.read_text().split()]


def _cycle(n):
    return n, [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]


def _complete(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def _join(a, b):
    na, ea = a
    nb, eb = b
    edges = list(ea) + [(na + u, na + v) for u, v in eb]
    edges += [(u, na + v) for u in range(na) for v in range(nb)]
    return na + nb, sorted(edges)


def _mycielskian(g):
    # vertices v_i = i, shadows u_i = n + i, apex w = 2n
    n, edges = g
    out = list(edges)
    for u, v in edges:
        out += [(u, n + v), (v, n + u)]
    out += [(n + i, 2 * n) for i in range(n)]
    return 2 * n + 1, sorted((min(u, v), max(u, v)) for u, v in out)


def named_graphs() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    groetzsch = _mycielskian(_cycle(5))
    return {
        "c5_join_k2": _join(_cycle(5), _complete(2)),
        "groetzsch": groetzsch,
        "k1_join_groetzsch": _join(_complete(1), groetzsch),
        "mycielski_groetzsch": _mycielskian(groetzsch),
    }


def seeded_inputs(
    workload: str, seed: int, sample17: int, names: tuple[str, ...], small: bool
) -> list[dict]:
    """The graphs one run adds to its corpus, each relabeled at random.

    ``small`` adds every class with n <= 13; ``sample17`` draws that many of
    the n = 17 classes; ``names`` adds those named graphs.  Each input is a
    dict with ``tag`` (``ore`` or the graph's name), ``n`` and ``edges``.
    """
    rng = random.Random(f"{workload}/{seed}")
    pool = load_pool()
    chosen = [("ore", g) for g in pool if small and g[0] <= 13]
    big = [g for g in pool if g[0] == 17]
    chosen += [("ore", g) for g in rng.sample(big, sample17)]
    named = named_graphs()
    chosen += [(name, named[name]) for name in names]
    out = []
    for tag, (n, edges) in chosen:
        perm = list(range(n))
        rng.shuffle(perm)
        n, edges = relabel(n, edges, perm)
        out.append({"tag": tag, "n": n, "edges": edges})
    return out
