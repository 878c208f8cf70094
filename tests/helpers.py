"""Brute-force oracles used to cross-check the fast implementations.

Everything here is deliberately naive: small exponential sweeps with no
pruning beyond the obvious, so that a disagreement points at the package
and not at the oracle.
"""

from itertools import combinations, permutations

from orelab import Graph, canonical_key, clusters, compose_graphs, is_k_colorable, without_edge
from orelab.ore import Compose, Leaf, _composition_sites, k5


def brute_colorable(G: Graph, k: int) -> bool:
    """Try every assignment of k colors by straight backtracking."""
    colors = [0] * G.n

    def go(v: int) -> bool:
        if v == G.n:
            return True
        for c in range(1, k + 1):
            if all(colors[u] != c for u in G.neighbors(v) if u < v):
                colors[v] = c
                if go(v + 1):
                    return True
        colors[v] = 0
        return False

    return go(0)


def critical_by_edges(G: Graph) -> bool:
    """5-criticality with one exact 4-coloring search per edge of G."""
    if G.n < 5 or any(G.degree(v) < 4 for v in range(G.n)):
        return False
    if is_k_colorable(G, 4) is not None:
        return False
    return all(
        is_k_colorable(without_edge(G, u, v), 4) is not None for u, v in G.edges()
    )


def extract_by_edges(G: Graph) -> Graph:
    """The edge scan of ``extract_5_critical`` with one exact search per edge,
    before isolated vertices are dropped."""
    cur = G
    for u, v in reversed(G.edges()):
        attempt = without_edge(cur, u, v)
        if is_k_colorable(attempt, 4) is None:
            cur = attempt
    return cur


def brute_isomorphic(G: Graph, H: Graph) -> bool:
    """Backtracking isomorphism test, fine up to n = 8 or so."""
    if G.n != H.n or G.m != H.m:
        return False
    gdeg = [G.degree(v) for v in range(G.n)]
    hdeg = [H.degree(v) for v in range(H.n)]
    if sorted(gdeg) != sorted(hdeg):
        return False

    mapping = [-1] * G.n

    def go(v: int, used: int) -> bool:
        if v == G.n:
            return True
        for w in range(H.n):
            if used >> w & 1 or gdeg[v] != hdeg[w]:
                continue
            if any(G.has_edge(u, v) != H.has_edge(mapping[u], w)
                   for u in range(v)):
                continue
            mapping[v] = w
            if go(v + 1, used | 1 << w):
                return True
            mapping[v] = -1
        return False

    return go(0, 0)


def brute_isomorphic_perm(G: Graph, H: Graph) -> bool:
    """Even dumber check over all permutations; keep n tiny."""
    if G.n != H.n or G.m != H.m:
        return False
    for perm in permutations(range(H.n)):
        if all(H.has_edge(perm[u], perm[v]) for u, v in G.edges()):
            return True
    return False


def brute_mic(G: Graph) -> int:
    """Max degree sum over independent sets by subset sweep."""
    best = 0
    for r in range(1, G.n + 1):
        for sub in combinations(range(G.n), r):
            ss = set(sub)
            if any(u in ss for v in sub for u in G.neighbors(v)):
                continue
            best = max(best, sum(G.degree(v) for v in sub))
    return best


def random_graph(n: int, p: float, rng) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def cluster_size_sequence(G: Graph) -> tuple[int, ...]:
    """Sizes of G's degree-four clusters, largest first."""
    return tuple(sorted((len(c.vertices) for c in clusters(G)), reverse=True))


def enumerate_by_sites(max_n: int):
    """``enumerate_5_ore`` without orbit pruning: every composition site is
    composed and canonically labeled, and each class keeps the first site
    that produced it."""
    if max_n < 5:
        return
    levels = {5: [(Leaf(), k5())]}
    seen = {canonical_key(k5())}
    yield k5(), Leaf()
    for n in range(9, max_n + 1, 4):
        found = {}
        for n1 in sorted(levels):
            n2 = n + 1 - n1
            if n2 not in levels:
                continue
            for r1, g1 in levels[n1]:
                for r2, g2 in levels[n2]:
                    for xy, z, split in _composition_sites(g1, g2):
                        G, _ = compose_graphs(g1, xy, g2, z, split)
                        key = canonical_key(G)
                        if key not in seen and key not in found:
                            found[key] = (Compose(r1, xy, r2, z, split), G)
        levels[n] = [found[key] for key in sorted(found)]
        seen.update(found)
        for r, G in levels[n]:
            yield G, r


def group_order(n: int, generators) -> int:
    """Order of the permutation group on range(n) that ``generators``
    generate, by closing the identity under them; keep the group small."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        grown = []
        for p in frontier:
            for g in generators:
                q = tuple(g[v] for v in p)
                if q not in group:
                    group.add(q)
                    grown.append(q)
        frontier = grown
    return len(group)
