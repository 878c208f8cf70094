"""Graph constructors behind the command line's named graphs.

The named registry holds standing examples: the 5-critical K5, C5 + K2,
the Groetzsch graph with an apex and the Mycielskian of the Groetzsch
graph (the smallest triangle-free one here, 23 vertices), and the
4-critical Groetzsch graph.  K5 is also every Ore recipe's leaf.
"""

from __future__ import annotations

from .graph_core import Graph


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def join(G: Graph, H: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    edges = list(G.edges())
    edges += [(G.n + u, G.n + v) for u, v in H.edges()]
    edges += [(u, G.n + v) for u in range(G.n) for v in range(H.n)]
    return Graph.from_edges(G.n + H.n, edges)


def mycielskian(G: Graph) -> Graph:
    """Twin each vertex with a shadow, wire shadows to a fresh apex.

    Vertices: originals 0..n-1, shadow of v at n+v, apex at 2n.  Shadows
    copy the original neighborhoods but stay independent of each other.
    Raises the chromatic number by one while preserving triangle-freeness.
    """
    n = G.n
    edges = list(G.edges())
    for u, v in G.edges():
        edges.append((u, n + v))
        edges.append((v, n + u))
    edges += [(n + v, 2 * n) for v in range(n)]
    return Graph.from_edges(2 * n + 1, edges)


def grotzsch() -> Graph:
    return mycielskian(cycle_graph(5))


def c5_join_k2() -> Graph:
    return join(cycle_graph(5), complete_graph(2))


def k1_join_grotzsch() -> Graph:
    return join(complete_graph(1), grotzsch())


def mycielski_grotzsch() -> Graph:
    return mycielskian(grotzsch())


NAMED: dict[str, object] = {
    "k5": lambda: complete_graph(5),
    "c5_join_k2": c5_join_k2,
    "groetzsch": grotzsch,
    "k1_join_groetzsch": k1_join_grotzsch,
    "mycielski_groetzsch": mycielski_grotzsch,
}


def named_graph(name: str) -> Graph:
    try:
        factory = NAMED[name]
    except KeyError:
        known = ", ".join(sorted(NAMED))
        raise ValueError(f"unknown named graph {name!r} (known: {known})") from None
    return factory()
