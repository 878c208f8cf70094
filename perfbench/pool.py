"""The benchmark's input pool: every 5-Ore class with at most 17 vertices.

    python3 perfbench/pool.py make      # rewrite pool.g6 from orelab's enumerator
    python3 perfbench/pool.py recount   # recount the classes without orelab

``pool.g6`` holds one graph6 line per class (1 + 2 + 23 + 549 = 575),
ordered as ``enumerate_5_ore(17)`` yields them, so that ``audit17`` and
``extend17`` keep the same inputs when the enumerator changes.

``recount`` composes every site from K5 upward with the composition in
``checks.py``: every edge of the edge side, every split vertex and every
ordered split of its neighborhood, deduplicated by networkx isomorphism.
It checks the counts 1/2/23/549 and that ``pool.g6`` holds one graph of
each class.  It takes several minutes and is not part of a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import ORE_LEVELS, POOL, load_pool  # noqa: E402


def make() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from orelab import enumerate_5_ore, graph_to_graph6

    lines = [graph_to_graph6(G) for G, _ in enumerate_5_ore(max(ORE_LEVELS))]
    POOL.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} classes to {POOL.name}")
    return 0


def _sites(g1, g2):
    _, e1 = g1
    n2, e2 = g2
    for xy in e1:
        for z in range(n2):
            nbrs = sorted(v for e in e2 if z in e for v in e if v != z)
            for pick in range(1, (1 << len(nbrs)) - 1):
                a = tuple(v for i, v in enumerate(nbrs) if pick >> i & 1)
                b = tuple(v for i, v in enumerate(nbrs) if not pick >> i & 1)
                yield xy, z, (a, b)


def recount() -> int:
    import networkx as nx

    from checks import K5, compose_at, iso_classes, nx_graph

    levels = {5: [K5]}
    for n in sorted(ORE_LEVELS)[1:]:
        reps: dict[str, list[nx.Graph]] = {}
        found = []
        raw = set()
        sites = 0
        for n1 in sorted(levels):
            for g1 in levels[n1]:
                for g2 in levels.get(n + 1 - n1, []):
                    for xy, z, split in _sites(g1, g2):
                        sites += 1
                        g = compose_at(g1, xy, g2, z, split)
                        edges = tuple(g[1])
                        if edges in raw:
                            continue
                        raw.add(edges)
                        G = nx_graph(*g)
                        bucket = reps.setdefault(nx.weisfeiler_lehman_graph_hash(G), [])
                        if not any(nx.is_isomorphic(G, H) for H in bucket):
                            bucket.append(G)
                            found.append(g)
        levels[n] = found
        print(f"n={n}: {sites} sites, {len(raw)} distinct labelled graphs, "
              f"{len(found)} classes", flush=True)
    counts = {n: len(gs) for n, gs in levels.items()}
    ok = counts == ORE_LEVELS
    print(f"counts {counts}: {'as expected' if ok else f'expected {ORE_LEVELS}'}")
    pool = load_pool()
    for n in ORE_LEVELS:
        mine = levels[n]
        theirs = [g for g in pool if g[0] == n]
        cls = iso_classes([nx_graph(*g) for g in mine + theirs])
        same = sorted(cls[: len(mine)]) == sorted(cls[len(mine):]) == list(range(len(mine)))
        print(f"n={n}: pool.g6 {'holds' if same else 'does NOT hold'} one graph per class")
        ok = ok and same
    return 0 if ok else 1


if __name__ == "__main__":
    commands = {"make": make, "recount": recount}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]]())
