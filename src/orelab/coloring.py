"""Exact k-coloring, 5-criticality, and collapsibility checks.

The solver is a saturation-first backtracking search over bitmask color
domains.  Completeness is the whole point: a ``None`` answer is a proof
that no proper k-coloring exists, and everything downstream (criticality,
collapsibility, critical extensions) leans on that.

Symmetry is broken two ways, both sound for the decision problem: a
greedily found clique is precolored with distinct colors, and a fresh
color may only be introduced as the lowest unused one.  Vertex choice is
smallest remaining domain (equivalently largest saturation), ties to the
lowest index, so runs are deterministic.

Criticality needs a 4-coloring of G - e for every edge e.  Rather than one
exact search per edge, a solved G - uv seeds a witness walk: the coloring
gives u and v one color, and recoloring an endpoint x to a color b that
exactly one neighbor w carries yields a proper coloring of G - xw.  Each
walked coloring is re-checked proper before it certifies its edge, and
only edges the walk never reaches are solved exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph_core import (
    Graph,
    InvariantViolation,
    bits,
    connected_components,
    induced_subgraph,
    mask_of,
    with_edge,
    without_edge,
)


def _greedy_clique(g: Graph) -> list[int]:
    # Seed at a lowest-index vertex of maximum degree, grow by maximum
    # degree inside the common neighborhood.  Any deterministic clique works.
    if g.n == 0:
        return []
    start = max(range(g.n), key=lambda v: (g.degree(v), -v))
    clique = [start]
    cand = g.adj[start]
    while cand:
        u = max(bits(cand), key=lambda v: ((g.adj[v] & cand).bit_count(), -v))
        clique.append(u)
        cand &= g.adj[u]
    return clique


def _solve_component(g: Graph, k: int) -> list[int] | None:
    n = g.n
    clique = _greedy_clique(g)
    if len(clique) > k:
        return None
    full = (1 << k) - 1
    domain = [full] * n
    color = [0] * n
    uncolored = (1 << n) - 1

    def assign(v: int, c: int, touched: list[int]) -> bool:
        nonlocal uncolored
        color[v] = c
        uncolored &= ~(1 << v)
        bit = 1 << (c - 1)
        m = g.adj[v] & uncolored
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            if domain[u] & bit:
                domain[u] &= ~bit
                touched.append(u)
                if not domain[u]:
                    return False
        return True

    def undo(v: int, touched: list[int], c: int):
        nonlocal uncolored
        color[v] = 0
        uncolored |= 1 << v
        bit = 1 << (c - 1)
        for u in touched:
            domain[u] |= bit

    used = 0
    for i, v in enumerate(clique):
        touched: list[int] = []
        if not assign(v, i + 1, touched):
            return None
        used = i + 1

    def dfs(used: int) -> bool:
        if not uncolored:
            return True
        best_v, best_size = -1, k + 1
        m = uncolored
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            size = domain[v].bit_count()
            if size == 0:
                return False
            if size < best_size:
                best_v, best_size = v, size
        cap = (1 << min(used + 1, k)) - 1
        avail = domain[best_v] & cap
        while avail:
            low = avail & -avail
            avail ^= low
            c = low.bit_length()
            touched: list[int] = []
            ok = assign(best_v, c, touched)
            if ok and dfs(max(used, c)):
                return True
            undo(best_v, touched, c)
        return False

    if not dfs(used):
        return None
    return color


def is_k_colorable(G: Graph, k: int) -> tuple[int, ...] | None:
    """A proper k-coloring as a tuple of colors 1..k, or None.

    ``None`` is an exhaustive-search verdict, not a heuristic one.  Every
    returned coloring is re-checked for properness before leaving.
    """
    if k < 1:
        raise ValueError("k must be positive")
    colors = [0] * G.n
    for comp in connected_components(G):
        sub = induced_subgraph(G, comp)
        res = _solve_component(sub, k)
        if res is None:
            return None
        for i, v in enumerate(sorted(comp)):
            colors[v] = res[i]
    out = tuple(colors)
    _check_proper(G, out, k)
    return out


def _check_proper(G: Graph, colors: tuple[int, ...], k: int):
    for v in range(G.n):
        if not 1 <= colors[v] <= k:
            raise InvariantViolation("solver produced an out-of-range color")
        for u in bits(G.adj[v]):
            if colors[u] == colors[v]:
                raise InvariantViolation("solver produced an improper coloring")


def seeded_coloring(G: Graph, k: int, rng: random.Random) -> tuple[int, ...] | None:
    """Some proper k-coloring, chosen by a seeded shuffle of the search.

    Used to sample varied colorings for extension fuzzing; same rng state,
    same answer.  Complete: returns None only when no coloring exists.
    """
    order = list(range(G.n))
    rng.shuffle(order)
    color = [0] * G.n

    def dfs(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        forbidden = {color[u] for u in bits(G.adj[v]) if color[u]}
        cs = [c for c in range(1, k + 1) if c not in forbidden]
        rng.shuffle(cs)
        for c in cs:
            color[v] = c
            if dfs(i + 1):
                return True
        color[v] = 0
        return False

    if not dfs(0):
        return None
    out = tuple(color)
    _check_proper(G, out, k)
    return out


def _recolor(colors: tuple[int, ...], x: int, b: int) -> tuple[int, ...]:
    """One walk step: ``colors`` with vertex x moved to color b."""
    return colors[:x] + (b,) + colors[x + 1 :]


def _certify(G: Graph, colors: tuple[int, ...], x: int, w: int) -> list[int]:
    """Color-class masks of ``colors``, after checking that it is a proper
    4-coloring of G - xw in which x and w share a color.

    One mask test per vertex; a failure is a bug in the walk, not a verdict.
    """
    cls = [0] * 5
    for v in range(G.n):
        c = colors[v]
        if not 1 <= c <= 4:
            raise InvariantViolation("walk produced an out-of-range color")
        cls[c] |= 1 << v
    for v in range(G.n):
        clash = G.adj[v] & cls[colors[v]]
        if clash != (1 << w if v == x else 1 << x if v == w else 0):
            raise InvariantViolation(
                f"walked coloring is not proper on G - ({x},{w})"
            )
    return cls


def _walk(G: Graph, colors: tuple[int, ...], u: int, v: int, done: list[int]):
    """Certify uv, and every edge reachable by recoloring single vertices.

    ``colors`` must be a proper 4-coloring of G - uv with u and v alike,
    which shows G - uv is 4-colorable.  If an endpoint x of the current
    conflict edge has exactly one neighbor w of color b, recoloring x to b
    gives a proper 4-coloring of G - xw, which certifies xw in turn.  The
    walk never revisits an edge already set in ``done`` (``done[x]`` is the
    mask of x's certified neighbors) and marks every edge it certifies.
    """
    adj = G.adj
    stack = [(colors, _certify(G, colors, u, v), u, v)]
    done[u] |= 1 << v
    done[v] |= 1 << u
    while stack:
        colors, cls, p, q = stack.pop()
        for x in (p, q):
            for b in range(1, 5):
                hit = adj[x] & cls[b]
                if not hit or hit & (hit - 1) or hit & done[x]:
                    continue
                w = hit.bit_length() - 1
                walked = _recolor(colors, x, b)
                stack.append((walked, _certify(G, walked, x, w), x, w))
                done[x] |= 1 << w
                done[w] |= 1 << x


def is_5_critical(G: Graph) -> bool:
    """Not 4-colorable, and every single-edge deletion is 4-colorable.

    Together with the absence of isolated vertices this is equivalent to
    "every proper subgraph is 4-colorable": a subgraph missing an edge e
    sits inside G - e, and a subgraph missing only vertices misses an
    isolated vertex.  Vertices of degree 1..3 cannot occur in a 5-critical
    graph (their removal plus greedy extension would 4-color G), so the
    degree prefilter below is a sound fast path.

    Once G is proved not 4-colorable, G - e is solved exactly only for
    edges not yet certified; each solution seeds a witness walk
    (:func:`_walk`) that certifies further edges by single-vertex
    recolorings, each walked coloring re-checked proper.  Most edges of a
    critical graph are certified by the walk, and a ``None`` from any
    exact solve still refutes criticality.
    """
    if G.n < 5:
        return False
    if any(G.degree(v) < 4 for v in range(G.n)):
        return False
    if is_k_colorable(G, 4) is not None:
        return False
    done = [0] * G.n
    for u, v in G.edges():
        if done[u] >> v & 1:
            continue
        colors = is_k_colorable(without_edge(G, u, v), 4)
        if colors is None:
            return False
        _walk(G, colors, u, v, done)
    return True


def extract_5_critical(G: Graph) -> Graph:
    """A 5-critical subgraph of a non-4-colorable graph.

    Scans edges once in descending index order, deleting any edge whose
    removal keeps the graph non-4-colorable; colorability of a subgraph is
    monotone under further deletion, so one pass reaches an edge-minimal
    non-4-colorable graph.  Isolated vertices are dropped at the end.  The
    result's labels point back at G's vertices.

    An edge found necessary by an exact solve seeds the witness walk of
    :func:`is_5_critical`.  A coloring of cur - f stays proper as later
    deletions shrink cur, so every edge the walk certifies is kept without
    a solve of its own, and the result is the one the plain scan gives.
    """
    if is_k_colorable(G, 4) is not None:
        raise ValueError("graph is 4-colorable; nothing to extract")
    cur = G if G.labels is not None else Graph(G.n, G.adj, tuple(range(G.n)))
    done = [0] * cur.n
    for u, v in reversed(cur.edges()):
        if done[u] >> v & 1:
            continue
        attempt = without_edge(cur, u, v)
        colors = is_k_colorable(attempt, 4)
        if colors is None:
            cur = attempt
        else:
            _walk(cur, colors, u, v, done)
    keep = [v for v in range(cur.n) if cur.degree(v) > 0]
    cur = induced_subgraph(cur, keep)
    if not is_5_critical(cur):
        raise InvariantViolation("extraction failed to produce a 5-critical graph")
    return cur


def boundary(G: Graph, R) -> tuple[int, ...]:
    """Vertices of R with at least one neighbor outside R."""
    rmask = mask_of(R)
    return tuple(v for v in sorted(set(R)) if G.adj[v] & ~rmask)


@dataclass(frozen=True)
class CollapseReport:
    collapsible: bool
    boundary: tuple[int, ...]
    splitting_coloring: dict[int, int] | None


def is_collapsible(G: Graph, R) -> CollapseReport:
    """Does every 4-coloring of G[R] color the boundary monochromatically?

    Equivalent formulation, and the one actually checked: the boundary is
    independent and every boundary pair is identifiable in R.  A negative
    answer carries a witness coloring splitting some boundary pair; a
    single-vertex boundary is collapsible by convention.
    """
    R = sorted(set(R))
    if len(R) < 5:
        raise ValueError("R must have at least 5 vertices")
    if len(R) >= G.n:
        raise ValueError("R must be a proper subset of the vertices")
    sub = induced_subgraph(G, R)
    base = is_k_colorable(sub, 4)
    if base is None:
        raise ValueError("G[R] must be 4-colorable")
    bnd = boundary(G, R)
    if not bnd:
        raise ValueError("R has empty boundary")
    pos = {v: i for i, v in enumerate(R)}
    if len(bnd) == 1:
        return CollapseReport(True, bnd, None)
    for i, u in enumerate(bnd):
        for v in bnd[i + 1 :]:
            if G.has_edge(u, v):
                # adjacent boundary vertices always split
                witness = {w: base[pos[w]] for w in R}
                return CollapseReport(False, bnd, witness)
            split = is_k_colorable(with_edge(sub, pos[u], pos[v]), 4)
            if split is not None:
                witness = {w: split[pos[w]] for w in R}
                return CollapseReport(False, bnd, witness)
    return CollapseReport(True, bnd, None)
