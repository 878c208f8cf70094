"""Brute-force oracles used to cross-check the fast implementations, and
the reference constructions the tests compare against.

The oracles are deliberately naive: small exponential sweeps with no
pruning beyond the obvious, so that a disagreement points at the package
and not at the oracle.
"""

import hashlib
import itertools
import sys
from itertools import combinations

from orelab import Graph, InvariantViolation, coloring, is_5_ore, ore_compose
from orelab.coloring import boundary, is_5_critical, is_collapsible, is_k_colorable
from orelab.constructions import complete_graph, cycle_graph, join
from orelab.graph_core import (
    bits,
    canonical_form,
    connected_components,
    induced_subgraph,
    mask_of,
    relabel,
    two_cuts,
    without_edge,
)
from orelab.ore import Compose, Leaf, _is_k5, _nonempty_proper_unions, compose_graphs


def canonical_key(G: Graph) -> bytes:
    return canonical_form(G)[0]


def with_edge(G: Graph, u: int, v: int) -> Graph:
    if G.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    rows = list(G.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(G.n, tuple(rows))


def one_edge_changes(G: Graph) -> list[Graph]:
    """G with each edge deleted, then G with each non-edge added."""
    out = [without_edge(G, u, v) for u, v in G.edges()]
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if not G.has_edge(u, v):
                out.append(with_edge(G, u, v))
    return out


def shuffled_copy(G: Graph, rng) -> tuple[Graph, list[int]]:
    """G with vertex v renamed perm[v], for perm shuffled by rng, and perm."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph.from_edges(G.n, [(perm[u], perm[v]) for u, v in G.edges()]), perm


def corpus_key(G: Graph) -> str:
    """The name a corpus stores G under: the first 16 hex digits of the
    sha256 of its canonical key."""
    return hashlib.sha256(canonical_key(G)).hexdigest()[:16]


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def wheel(rim: int) -> Graph:
    return join(complete_graph(1), cycle_graph(rim))


def brute_colorable(G: Graph, k: int) -> bool:
    """Try every assignment of k colors by straight backtracking."""
    colors = [0] * G.n

    def go(v: int) -> bool:
        if v == G.n:
            return True
        for c in range(1, k + 1):
            if all(colors[u] != c for u in bits(G.adj[v]) if u < v):
                colors[v] = c
                if go(v + 1):
                    return True
        colors[v] = 0
        return False

    return go(0)


def peel_reference(g: Graph, k: int) -> tuple[int, list[int]]:
    """The k-core of g as a mask and the vertices outside it in peel order,
    by ascending sweeps that each delete every vertex with fewer than k
    neighbors left."""
    adj = g.adj
    core = (1 << g.n) - 1
    peeled: list[int] = []
    swept = True
    while swept:
        swept = False
        for v in bits(core):
            if (adj[v] & core).bit_count() < k:
                core ^= 1 << v
                peeled.append(v)
                swept = True
    return core, peeled


def solve_component_reference(g: Graph, k: int) -> list[int] | None:
    """The exact search as it stood before components were searched in
    place, copied from the package: peel g to its k-core, search the core,
    and give the peeled vertices the lowest free color in reverse peel
    order."""
    n, adj = g.n, g.adj
    core, peeled = peel_reference(g, k)
    color = [0] * n
    if core:
        start = max(bits(core), key=lambda v: ((adj[v] & core).bit_count(), -v))
        clique = [start]
        cand = adj[start] & core
        while cand:
            u = max(bits(cand), key=lambda v: ((adj[v] & cand).bit_count(), -v))
            clique.append(u)
            cand &= adj[u]
        if len(clique) > k:
            return None
        full = (1 << k) - 1
        domain = [full] * n
        uncolored = core

        def assign(v: int, c: int, touched: list[int]) -> bool:
            nonlocal uncolored
            color[v] = c
            uncolored &= ~(1 << v)
            bit = 1 << (c - 1)
            m = adj[v] & uncolored
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

        for i, v in enumerate(clique):
            if not assign(v, i + 1, []):
                return None

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

        if not dfs(len(clique)):
            return None
    for v in reversed(peeled):
        taken = 0
        for u in bits(adj[v]):
            taken |= 1 << color[u]
        c = 1
        while taken >> c & 1:
            c += 1
        color[v] = c
    return color


def k_coloring_reference(G: Graph, k: int) -> tuple[int, ...] | None:
    """``is_k_colorable`` as it stood before components were searched in
    place: a graph with at most one component of two or more vertices is
    solved whole, and otherwise each such component is copied out and
    solved on its own, with every other vertex colored 1."""
    parts = [comp for comp in connected_components(G) if comp.bit_count() > 1]
    if len(parts) < 2:
        colors = solve_component_reference(G, k)
        return None if colors is None else tuple(colors)
    colors = [1] * G.n
    for comp in parts:
        res = solve_component_reference(induced_subgraph(G, comp), k)
        if res is None:
            return None
        for i, v in enumerate(bits(comp)):
            colors[v] = res[i]
    return tuple(colors)


def cut_side(G: Graph, mask: int, x: int, y: int, alike: bool) -> tuple[Graph, dict[int, int]]:
    """One side of the 2-cut {x, y}, built as a graph of its own, copied
    from the package as it stood before every side became a mask over
    ``graph_core.paired``'s rows: G[mask] with y identified into x when
    ``alike``, else with the edge xy added if it is missing; and the map
    from mask's vertices to the side's, which keeps their order.  ``mask``
    holds x and y; identifying adjacent x and y is a ValueError.  The side
    passes ``Graph``'s structure check."""
    if alike and G.has_edge(x, y):
        raise ValueError(f"cannot identify adjacent vertices {x} and {y}")
    keep = mask & ~(1 << y) if alike else mask
    at = {v: i for i, v in enumerate(bits(keep))}
    rows = [0] * keep.bit_count()
    if alike:
        at[y] = at[x]
    else:
        rows[at[x]] |= 1 << at[y]
        rows[at[y]] |= 1 << at[x]
    for v in bits(mask):
        for u in bits(G.adj[v] & mask):
            rows[at[v]] |= 1 << at[u]
    return Graph(len(rows), tuple(rows)), at


def by_cuts_reference(G: Graph, k: int) -> tuple[int, ...] | None:
    """``coloring._by_cuts`` as it stood when every 2-cut side was a graph
    of its own, copied from the package: peel G, split its k-core at its
    first 2-cut (:func:`split_reference`) on a copy built by
    ``induced_subgraph`` or search the core in place, color the peeled
    vertices, and check the whole."""
    core, peeled = peel_reference(G, k)
    color = [0] * G.n
    if core:
        inner = G if core == (1 << G.n) - 1 else induced_subgraph(G, core)
        cut = next(two_cuts(inner), None)
        if cut is None:
            if not coloring._search(G, k, core, color):
                return None
        else:
            colors = split_reference(inner, k, cut)
            if colors is None:
                return None
            for v, c in zip(bits(core), colors):
                color[v] = c
    for v in reversed(peeled):
        taken = 0
        for u in bits(G.adj[v]):
            taken |= 1 << color[u]
        c = 1
        while taken >> c & 1:
            c += 1
        color[v] = c
    return _proper_reference(G, color, k)


def split_reference(G: Graph, k: int, cut) -> tuple[int, ...] | None:
    """``coloring._split`` as it stood when every 2-cut side was a graph of
    its own: each side built by ``cut_side``, solved by
    :func:`by_cuts_reference`, and glued back through the side's vertex
    map, the second side's colors permuted to match the first's on x and
    y."""
    x, y, parts = cut
    ends = 1 << x | 1 << y
    sides = sorted((parts[0] | ends, ((1 << G.n) - 1) & ~parts[0]), key=int.bit_count)
    for alike in (False, True):
        if alike and G.has_edge(x, y):
            continue
        solved = []
        for mask in sides:
            side, at = cut_side(G, mask, x, y, alike)
            colors = by_cuts_reference(side, k)
            if colors is None:
                break
            solved.append({v: colors[i] for v, i in at.items()})
        else:
            first, second = solved
            moves = {second[x]: first[x], second[y]: first[y]}
            rest = iter(c for c in range(1, k + 1) if c not in moves.values())
            perm = [0] + [moves[c] if c in moves else next(rest) for c in range(1, k + 1)]
            glued = [0] * G.n
            for v, c in second.items():
                glued[v] = perm[c]
            for v, c in first.items():
                glued[v] = c
            return _proper_reference(G, glued, k)
    return None


def _proper_reference(G: Graph, color: list[int], k: int) -> tuple[int, ...]:
    """``color`` as a tuple, after asserting it is a proper k-coloring of G."""
    assert all(1 <= c <= k for c in color)
    assert all(color[u] != color[v] for u, v in G.edges())
    return tuple(color)


def collapsible_reference(G: Graph, R: int) -> bool:
    """``is_collapsible`` as it stood when each boundary pair test solved
    G[R] plus the pair's edge, built by ``cut_side``, through
    :func:`by_cuts_reference`, and an adjacent pair split without a test;
    G[R] must be 4-colorable, where that shortcut gives the pair rule's
    answer."""
    bnd = bits(boundary(G, R))
    return not any(
        G.has_edge(u, v) or by_cuts_reference(cut_side(G, R, u, v, False)[0], 4) is not None
        for i, u in enumerate(bnd)
        for v in bnd[i + 1 :]
    )


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


def brute_mic(G: Graph) -> int:
    """Max degree sum over independent sets by subset sweep."""
    best = 0
    for r in range(1, G.n + 1):
        for sub in combinations(range(G.n), r):
            ss = set(sub)
            if any(u in ss for v in sub for u in bits(G.adj[v])):
                continue
            best = max(best, sum(G.degree(v) for v in sub))
    return best


def mic_reference(G: Graph) -> int:
    """``packing.mic``'s value as it stood before the clique-cover bound,
    copied from the package: pick the heaviest available vertex, take it or
    leave it, and prune when the weights of all available later vertices
    cannot beat the incumbent."""
    weights = [G.degree(v) for v in range(G.n)]
    order = sorted(range(G.n), key=lambda v: (-weights[v], v))
    best_val = -1

    def rec(idx: int, avail: int, cur: int):
        nonlocal best_val
        best_val = max(best_val, cur)
        rest = sum(weights[v] for v in order[idx:] if avail >> v & 1)
        if cur + rest <= best_val:
            return
        for i in range(idx, len(order)):
            v = order[i]
            if not avail >> v & 1:
                continue
            rec(i + 1, avail & ~(G.adj[v] | 1 << v), cur + weights[v])
            avail &= ~(1 << v)
            rest -= weights[v]
            if cur + rest <= best_val:
                return

    rec(0, (1 << G.n) - 1, 0)
    return best_val


def random_graph(n: int, p: float, rng) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def glued_pair(rng):
    """Two seeded random graphs that share the vertices 0 and 1, which may
    be adjacent: {0, 1} separates the two unless one is only 0 and 1."""
    a, b = rng.randint(2, 7), rng.randint(2, 7)
    left = random_graph(a, 0.2 + 0.7 * rng.random(), rng)
    right = random_graph(b, 0.2 + 0.7 * rng.random(), rng)

    def shift(v):
        return v if v < 2 else v + a - 2

    edges = set(left.edges()) | {(shift(u), shift(v)) for u, v in right.edges()}
    return Graph.from_edges(a + b - 2, sorted(edges))


def cluster_size_sequence(G: Graph) -> tuple[int, ...]:
    """Sizes of G's degree-four clusters, largest first: the maximal sets of
    degree-four vertices sharing one closed neighborhood."""
    groups: dict[int, int] = {}
    for v in range(G.n):
        if G.degree(v) == 4:
            closed = G.adj[v] | 1 << v
            groups[closed] = groups.get(closed, 0) + 1
    return tuple(sorted(groups.values(), reverse=True))


def triangles(G: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u in range(G.n):
        above_u = G.adj[u] >> (u + 1) << (u + 1)
        for v in bits(above_u):
            common = G.adj[u] & G.adj[v] >> (v + 1) << (v + 1)
            for w in bits(common):
                out.append((u, v, w))
    return out


def four_cliques(G: Graph) -> list[tuple[int, int, int, int]]:
    """Every K4 as an ascending 4-tuple, in lexicographic order."""
    out = []
    for u, v, w in triangles(G):
        common = G.adj[u] & G.adj[v] & G.adj[w] >> (w + 1) << (w + 1)
        for x in bits(common):
            out.append((u, v, w, x))
    return out


def t_number_reference(G: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The packing search of ``t_number`` as first written: every piece
    listed under each of its vertices, and the search started from every
    vertex.  Same branching order and tie rule, so the same witness."""
    pieces = [(mask_of(t), 1, t) for t in triangles(G)]
    pieces += [(mask_of(q), 2, q) for q in four_cliques(G)]
    pieces.sort(key=lambda p: p[2])
    by_vertex: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for _ in range(G.n)]
    for p in pieces:
        for v in bits(p[0]):
            by_vertex[v].append(p)
    best_w = 0
    best_pieces: tuple = ()

    def bound(free: int) -> int:
        return 2 * (free // 4) + (1 if free % 4 == 3 else 0)

    def rec(free_mask: int, cur_w: int, chosen: list[tuple[int, ...]]):
        nonlocal best_w, best_pieces
        if cur_w > best_w:
            best_w = cur_w
            best_pieces = tuple(chosen)
        free = free_mask.bit_count()
        if cur_w + bound(free) <= best_w:
            return
        if not free_mask:
            return
        v = (free_mask & -free_mask).bit_length() - 1
        for pmask, w, verts in by_vertex[v]:
            if pmask & ~free_mask:
                continue
            chosen.append(verts)
            rec(free_mask & ~pmask, cur_w + w, chosen)
            chosen.pop()
        rec(free_mask & ~(1 << v), cur_w, chosen)

    rec((1 << G.n) - 1, 0, [])
    return best_w, best_pieces


def t_number_oracle(G: Graph) -> int:
    """Exact packing number by exhaustive recursion.

    No bound, no pruning: for the lowest uncovered vertex, try every piece
    through it and also skipping it, and take the max.  Only for n <= 14.
    """
    if G.n > 14:
        raise ValueError("oracle limited to n <= 14")
    weights = {mask_of(t): 1 for t in triangles(G)}
    weights.update((mask_of(q), 2) for q in four_cliques(G))
    by_vertex: list[list[int]] = [[] for _ in range(G.n)]
    for pmask in weights:
        for v in bits(pmask):
            by_vertex[v].append(pmask)

    def rec(free_mask: int) -> int:
        if not free_mask:
            return 0
        v = (free_mask & -free_mask).bit_length() - 1
        best = rec(free_mask & ~(1 << v))
        for pmask in by_vertex[v]:
            if not pmask & ~free_mask:
                best = max(best, weights[pmask] + rec(free_mask & ~pmask))
        return best

    return rec((1 << G.n) - 1)


def two_cuts_by_pairs(G: Graph):
    """``two_cuts`` by one component scan of G - {x, y} per vertex pair."""
    for x in range(G.n):
        for y in range(x + 1, G.n):
            rest = ((1 << G.n) - 1) & ~(1 << x | 1 << y)
            comps = connected_components(G, within=rest)
            if len(comps) > 1:
                yield x, y, tuple(comps)


def ore_collapsible_subsets(G: Graph) -> list[frozenset[int]]:
    """Proper subsets whose boundary is a nonadjacent pair {u, v} with
    G[R] + uv 5-Ore.

    The boundary condition forces {u, v} to separate R from the rest, so
    scanning nonadjacent separating pairs and unions of components of
    G - {u, v} is exhaustive.
    """
    found = set()
    for x, y, comps in two_cuts_by_pairs(G):
        if G.has_edge(x, y):
            continue
        rest = ((1 << G.n) - 1) & ~(1 << x | 1 << y)
        for pick in range(1, (1 << len(comps)) - 1):
            amask = sum(c for i, c in enumerate(comps) if pick >> i & 1)
            bmask = rest & ~amask
            if amask.bit_count() + 2 < 5 or not (G.adj[x] & bmask) or not (G.adj[y] & bmask):
                continue  # too small, or the boundary is not exactly {x, y}
            R = frozenset(bits(amask) + [x, y])
            order = sorted(R)
            pos = {v: i for i, v in enumerate(order)}
            cand = with_edge(induced_subgraph(G, mask_of(order)), pos[x], pos[y])
            if R not in found and is_5_ore(cand) is not None:
                found.add(R)
    return sorted(found, key=lambda R: (len(R), sorted(R)))


def recognize_reference(G: Graph, table: dict):
    """``is_5_ore`` as it stood when Ore recognition built each side with
    :func:`cut_side` and found a side vertex's place through the side's
    map, copied from the package.  ``table`` plays the part of
    ``ore._CLASSES`` and receives the same entries."""
    found = _side_reference(G, table)
    return None if found is None else found[0]


def _side_reference(G: Graph, table: dict):
    if _is_k5(G):
        return Leaf(), range(5)
    key, order, _ = canonical_form(G)
    if key not in table:
        table[key] = _recognize_reference(relabel(G, order), table)
    recipe, built = table[key]
    if recipe is None:
        return None
    iso = [0] * G.n
    for v, w in zip(order, built):
        iso[v] = w
    return recipe, iso


def _recognize_reference(G: Graph, table: dict):
    n, m = G.n, G.m
    if n < 9 or n % 4 != 1 or 4 * m != 9 * n - 5:
        return None, ()
    if any(G.degree(v) < 4 for v in range(G.n)):
        return None, ()
    for x, y, parts in two_cuts(G):
        if G.has_edge(x, y):
            continue
        common = G.adj[x] & G.adj[y]
        for amask, bmask in _nonempty_proper_unions(parts):
            if amask.bit_count() < 3 or bmask.bit_count() < 4:
                continue
            if common & bmask:
                continue
            if not (G.adj[x] & bmask) or not (G.adj[y] & bmask):
                continue
            found = _try_factor_reference(G, x, y, amask, bmask, table)
            if found is not None:
                return found
    return None, ()


def _try_factor_reference(G: Graph, x: int, y: int, amask: int, bmask: int, table: dict):
    ends = 1 << x | 1 << y
    edge, epos = cut_side(G, amask | ends, x, y, False)
    side1 = _side_reference(edge, table)
    if side1 is None:
        return None
    vertex, vpos = cut_side(G, bmask | ends, x, y, True)
    side2 = _side_reference(vertex, table)
    if side2 is None:
        return None
    (r1, iso1), (r2, iso2) = side1, side2
    split = tuple(mask_of(iso2[vpos[v]] for v in bits(G.adj[end] & bmask)) for end in (x, y))
    recipe = Compose(r1, (iso1[epos[x]], iso1[epos[y]]), r2, iso2[vpos[x]], split)
    rebuilt, out_of = compose_graphs(
        ore_compose(r1), recipe.replaced_edge, ore_compose(r2), recipe.split_vertex, recipe.split
    )
    order = tuple(
        iso1[epos[v]] if v in epos else out_of[iso2[vpos[v]]] for v in range(G.n)
    )
    if sorted(order) != list(range(G.n)) or rebuilt.m != G.m or not all(
        rebuilt.has_edge(order[u], order[v]) for u, v in G.edges()
    ):
        raise InvariantViolation("recognized recipe does not rebuild the input graph")
    return recipe, order


def low_ky_subsets_by_masks(G: Graph) -> list[tuple[int, int]]:
    """Every (mask, p_ky(R)) with 5 <= |R| < n and p_ky(R) < 12, by a plain
    loop over all 2^n masks, in ascending mask order."""
    found = []
    for mask in range(1, (1 << G.n) - 1):
        size = mask.bit_count()
        if size < 5:
            continue
        p = 9 * size - 2 * sum((G.adj[v] & mask).bit_count() for v in bits(mask))
        if p < 12:
            found.append((mask, p))
    return found


def low_ky_subsets_reference(G: Graph):
    """The p_ky < 12 sweep of ``potential._low_ky_subsets`` as first
    written: a generator that sums the bound over every undecided vertex
    at every node.  Yields the same (mask, p_ky) pairs in the same order."""
    n, adj = G.n, G.adj

    def grow(i: int, chosen: int, p: int):
        undecided = ((1 << n) - 1) >> i << i
        if p + sum(
            min(0, 9 - 4 * (adj[v] & chosen).bit_count() - 2 * (adj[v] & undecided).bit_count())
            for v in bits(undecided)
        ) >= 12:
            return
        if i < n:
            yield from grow(i + 1, chosen | 1 << i, p + 9 - 4 * (adj[i] & chosen).bit_count())
            yield from grow(i + 1, chosen, p)
        elif 5 <= chosen.bit_count() < n:
            yield chosen, p

    return grow(0, 0, 0)


def critical_complement(G: Graph, R) -> tuple[Graph, tuple[int, ...]]:
    """Identify a collapsible set's boundary to one vertex, drop the rest.

    Returns W and ``names``, what each vertex of W is in G: the merged
    special vertex sits at index 0, named -1, and G's vertices outside R
    follow in ascending order, each named by itself.  For 5-critical G the
    complement is itself 5-critical, and that is verified here.
    """
    rmask = mask_of(R)
    if not is_collapsible(G, rmask):
        raise ValueError("R is not collapsible")
    outside = tuple(v for v in range(G.n) if not rmask >> v & 1)
    attach = 0
    for v in bits(boundary(G, rmask)):
        attach |= G.adj[v] & ~rmask
    pos = {v: i + 1 for i, v in enumerate(outside)}
    edges = []
    for v in outside:
        if attach >> v & 1:
            edges.append((0, pos[v]))
        for u in bits(G.adj[v] & ~rmask):
            if u > v:
                edges.append((pos[v], pos[u]))
    W = Graph.from_edges(len(outside) + 1, edges)
    if not is_5_critical(W):
        raise InvariantViolation(
            "complement of a collapsible set in a 5-critical graph "
            "must be 5-critical"
        )
    return W, (-1,) + outside


def splitting_coloring(G: Graph, R) -> dict[int, int] | None:
    """A 4-coloring of G[R] that gives two boundary vertices of R different
    colors, as a dict over R, or None when there is none: for the first
    boundary pair u, v that some coloring splits, a coloring of G[R] when
    u and v are adjacent, else one of G[R] plus uv."""
    R = sorted(set(R))
    sub = induced_subgraph(G, mask_of(R))
    bnd = bits(boundary(G, mask_of(R)))
    for i, u in enumerate(bnd):
        for v in bnd[i + 1 :]:
            a, b = R.index(u), R.index(v)
            colors = is_k_colorable(sub if sub.has_edge(a, b) else with_edge(sub, a, b), 4)
            if colors is not None:
                return dict(zip(R, colors))
    return None


def _ordered_splits(g2: Graph, z: int):
    """All ordered (A, B) bipartitions of N(z) into nonempty parts.

    For a K5 vertex side every split of a given first-part size is
    equivalent under automorphisms fixing z, so three representatives
    cover everything; the general case walks all proper submasks.  Ordered
    parts matter: the edge side need not admit an automorphism swapping
    the replaced edge's endpoints.
    """
    nbrs = bits(g2.adj[z])
    if _is_k5(g2):
        for size in (1, 2, 3):
            yield tuple(nbrs[:size]), tuple(nbrs[size:])
        return
    d = len(nbrs)
    for pick in range(1, (1 << d) - 1):
        a = tuple(nbrs[i] for i in range(d) if pick >> i & 1)
        b = tuple(nbrs[i] for i in range(d) if not pick >> i & 1)
        yield a, b


def composition_sites(g1: Graph, g2: Graph):
    """Every composition site (xy, z, split) of the pair, in the order
    ``enumerate_5_ore`` once walked them: each edge x < y, each z, each
    ordered split, with one edge, one z and three splits on a K5 side."""
    edge_list = [(0, 1)] if _is_k5(g1) else g1.edges()
    z_list = [0] if _is_k5(g2) else list(range(g2.n))
    for xy in edge_list:
        for z in z_list:
            for split in _ordered_splits(g2, z):
                yield xy, z, split


def enumerate_by_sites(max_n: int):
    """``enumerate_5_ore`` without orbit pruning: every composition site is
    composed and canonically labeled, and each class keeps the first site
    that produced it."""
    if max_n < 5:
        return
    levels = {5: [(Leaf(), complete_graph(5))]}
    seen = {canonical_key(complete_graph(5))}
    yield complete_graph(5), Leaf()
    for n in range(9, max_n + 1, 4):
        found = {}
        for n1 in sorted(levels):
            n2 = n + 1 - n1
            if n2 not in levels:
                continue
            for r1, g1 in levels[n1]:
                for r2, g2 in levels[n2]:
                    for xy, z, (a, b) in composition_sites(g1, g2):
                        split = (mask_of(a), mask_of(b))  # compose_graphs takes masks
                        G, _ = compose_graphs(g1, xy, g2, z, split)
                        key = canonical_key(G)
                        if key not in seen and key not in found:
                            found[key] = (Compose(r1, xy, r2, z, split), G)
        levels[n] = [found[key] for key in sorted(found)]
        seen.update(found)
        for r, G in levels[n]:
            yield G, r


def group_closure(n: int, generators) -> set[tuple[int, ...]]:
    """Every element of the permutation group on range(n) that
    ``generators`` generate, by closing the identity under them; keep the
    group small."""
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
    return group


def group_order(n: int, generators) -> int:
    """Order of the permutation group on range(n) that ``generators``
    generate."""
    return len(group_closure(n, generators))


def _least_in_orbits(elements, act, group) -> dict:
    """The least element of each element's orbit under every element of
    ``group``, computed once per orbit."""
    least = {}
    for e in elements:
        if e not in least:
            orbit = {act(g, e) for g in group}
            low = min(orbit)
            least.update(dict.fromkeys(orbit, low))
    return least


def first_sites_by_orbits(classes, max_n: int):
    """The composition sites ``enumerate_5_ore(max_n)`` composes, as
    ``compose_graphs`` argument tuples in order, given the classes up to
    max_n - 4 in its order.

    Walks every edge x < y of the edge side, every z and every ordered
    split of N(z), with no K5 shortcut, and keeps each site whose orbit
    under both sides' full automorphism groups (closed from their
    ``canonical_form`` generators) and the swap of (x, y, A) with
    (y, x, B) has not come up before.
    """
    by_n, tables = {}, {}
    for G, _ in classes:
        by_n.setdefault(G.n, []).append(G)
        group = group_closure(G.n, canonical_form(G)[2])
        arcs = [a for u, v in G.edges() for a in ((u, v), (v, u))]
        arc = _least_in_orbits(arcs, lambda g, a: (g[a[0]], g[a[1]]), group)
        splits = []
        for z in range(G.n):
            nbrs = bits(G.adj[z])
            d = len(nbrs)
            for pick in range(1, (1 << d) - 1):
                a = tuple(nbrs[i] for i in range(d) if pick >> i & 1)
                b = tuple(nbrs[i] for i in range(d) if not pick >> i & 1)
                splits.append((z, a, b))
        part = _least_in_orbits(
            [(z, a) for z, a, _ in splits],
            lambda g, s: (g[s[0]], tuple(sorted(g[v] for v in s[1]))),
            group,
        )
        tables[id(G)] = arc, [(z, a, b, part[z, a], part[z, b]) for z, a, b in splits]
    for n in range(9, max_n + 1, 4):
        for n1 in sorted(by_n):
            n2 = n + 1 - n1
            if n2 not in by_n:
                continue
            for g1 in by_n[n1]:
                arc = tables[id(g1)][0]
                for g2 in by_n[n2]:
                    tried = set()
                    for x, y in g1.edges():
                        for z, a, b, low_a, low_b in tables[id(g2)][1]:
                            orbit = min((arc[x, y], low_a), (arc[y, x], low_b))
                            if orbit not in tried:
                                tried.add(orbit)
                                yield g1, (x, y), g2, z, (a, b)


def refine_full(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement that counts into every cell on every pass: the
    reference for ``graph_core._refine``."""
    while True:
        masks = [mask_of(c) for c in cells]
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            by_sig: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj[v] & m).bit_count() for m in masks)
                by_sig.setdefault(sig, []).append(v)
            if len(by_sig) > 1:
                changed = True
            for sig in sorted(by_sig):
                new_cells.append(by_sig[sig])
        cells = new_cells
        if not changed:
            return cells


def _refine_reference(
    adj: tuple[int, ...], cells: list[list[int]], splitters: list[list[int]] | None = None
) -> list[list[int]]:
    """Equitable refinement of an ordered partition, deterministically.

    Cells split by the vector of neighbor counts into every current cell;
    sub-cells are ordered by that vector, so the refined partition depends
    only on the input partition and the graph, never on list order quirks.

    After a pass, two vertices of one cell agree on their counts into each
    cell of the partition before it, so only the cells that pass split can
    tell them apart, and the last piece of each split cell is implied by
    its other pieces.  Those pieces are contiguous and sorted, so a pass
    counts only into the pieces other than the last of each cell the
    previous pass split: the same split in the same order, for less work.
    The first pass counts into ``splitters``, every input cell by default.
    A caller whose input is an equitable partition with one cell split
    into ``[v]`` and the rest passes ``[[v]]``.
    """
    if splitters is None:
        splitters = cells
    while splitters:
        masks = [mask_of(c) for c in splitters]
        single = masks[0] if len(masks) == 1 else None
        new_cells: list[list[int]] = []
        splitters = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            by_sig: dict[object, list[int]] = {}
            if single is not None:
                for v in cell:
                    by_sig.setdefault((adj[v] & single).bit_count(), []).append(v)
            else:
                for v in cell:
                    sig = tuple([(adj[v] & m).bit_count() for m in masks])
                    by_sig.setdefault(sig, []).append(v)
            pieces = [by_sig[sig] for sig in sorted(by_sig)]
            new_cells += pieces
            splitters += pieces[:-1]
        cells = new_cells
    return cells


def _is_homogeneous_reference(adj: tuple[int, ...], cells: list[list[int]]) -> bool:
    # For an equitable partition, per-cell neighbor counts are uniform, so a
    # single representative per cell decides complete-or-empty structure.
    # Singletons are homogeneous with everything.
    cells = [c for c in cells if len(c) > 1]
    masks = [mask_of(c) for c in cells]
    for i, c in enumerate(cells):
        row = adj[c[0]]
        if (row & masks[i]).bit_count() not in (0, len(c) - 1):
            return False
        for j, d in enumerate(cells):
            if i != j and (row & masks[j]).bit_count() not in (0, len(d)):
                return False
    return True


def _cert_rows_reference(
    adj: tuple[int, ...], perm: list[int], done: tuple[int, ...]
) -> tuple[int, ...]:
    """Certificate rows of ``perm``: row i holds the adjacency of
    ``perm[i]`` to ``perm[:i]``.  Row i depends only on ``perm[:i + 1]``,
    so ``done``, the rows of a prefix of ``perm``, is extended, not
    recomputed."""
    rows = list(done)
    for i in range(len(done), len(perm)):
        r = 0
        row = adj[perm[i]]
        for w in perm[:i]:
            r = (r << 1) | (row >> w & 1)
        rows.append(r)
    return tuple(rows)


def _orbit_reference(mask: int, generators) -> int:
    """The union of the orbits of the vertices in ``mask`` under the
    group that ``generators`` generate, as a bitmask."""
    frontier = mask
    while frontier:
        grown = 0
        for v in bits(frontier):
            for g in generators:
                grown |= 1 << g[v]
        frontier = grown & ~mask
        mask |= grown
    return mask


def canonical_form_reference(G: Graph):
    """``graph_core.canonical_form`` as it stood before cells became
    masks, with the refinement, homogeneity test, certificate rows and
    orbit union it called: cells are ascending vertex lists, and each
    refinement pass sorts its cells' pieces by their count vectors."""
    adj = G.adj
    n = G.n
    best: list = [None, None]  # cert rows, perm
    found: list[tuple[int, ...]] = []

    def record(cert, perm, cells):
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, perm
            for c in cells:
                for a, b in zip(c, c[1:]):
                    image = list(range(n))
                    image[a], image[b] = b, a
                    found.append(tuple(image))
        elif cert == best[0]:
            image = [0] * n
            for v, w in zip(best[1], perm):
                image[v] = w
            found.append(tuple(image))

    def search(
        cells: list[list[int]],
        path: tuple[int, ...],
        splitters: list[list[int]] | None,
        done: tuple[int, ...],
    ):
        cells = _refine_reference(adj, cells, splitters)
        prefix: list[int] = []
        for c in cells:
            if len(c) != 1:
                break
            prefix.append(c[0])
        # the singleton prefix extends the parent's, whose rows are done
        pref = _cert_rows_reference(adj, prefix, done)
        if best[0] is not None and pref > best[0][: len(pref)]:
            return
        if len(prefix) == n:
            record(pref, prefix, ())
            return
        if _is_homogeneous_reference(adj, cells):
            perm = list(itertools.chain.from_iterable(cells))
            record(_cert_rows_reference(adj, perm, pref), perm, cells)
            return
        idx = next(i for i, c in enumerate(cells) if len(c) > 1)
        cell = cells[idx]
        explored = 0
        # found only grows, so filter just the generators new since the last look
        fixing: list[tuple[int, ...]] = []
        seen = 0
        for v in cell:
            if explored:
                fixing += [g for g in found[seen:] if all(g[w] == w for w in path)]
                seen = len(found)
                if _orbit_reference(explored, fixing) >> v & 1:
                    continue
            rest = [w for w in cell if w != v]
            search(cells[:idx] + [[v], rest] + cells[idx + 1 :], path + (v,), [[v]], pref)
            explored |= 1 << v

    search([list(range(n))], (), None, ())
    cert, perm = best
    blob = bytearray([n])
    for i, r in enumerate(cert):
        if i:
            blob += r.to_bytes((i + 7) // 8, "big")
    return bytes(blob), tuple(perm), tuple(found)


def compose_by_edges(
    g1: Graph,
    replaced_edge: tuple[int, int],
    g2: Graph,
    split_vertex: int,
    split: tuple[tuple[int, ...], tuple[int, ...]],
) -> tuple[Graph, dict[int, int]]:
    """``ore.compose_graphs`` built from an edge list, on a valid site: the
    reference for the row-shifting build."""
    x, y = replaced_edge
    z = split_vertex
    part_a, part_b = split
    others = [v for v in range(g2.n) if v != z]
    out_of = {v: g1.n + i for i, v in enumerate(others)}
    edges = [e for e in g1.edges() if e != (min(x, y), max(x, y))]
    edges += [(min(x, out_of[a]), max(x, out_of[a])) for a in part_a]
    edges += [(min(y, out_of[b]), max(y, out_of[b])) for b in part_b]
    for u, v in g2.edges():
        if z in (u, v):
            continue
        edges.append((min(out_of[u], out_of[v]), max(out_of[u], out_of[v])))
    return Graph.from_edges(g1.n + g2.n - 1, sorted(edges)), out_of


def identify_vertices(G: Graph, S) -> tuple[Graph, dict[int, int]]:
    """Merge the vertices of ``S`` into one, dropping parallel edges: the
    reference for a 2-cut side over ``graph_core.paired``'s rows with x and
    y alike.

    Identification is only defined for pairwise nonadjacent sets (merging
    adjacent vertices would create a loop); adjacency inside ``S`` is an
    error.  The merged vertex takes the position of ``min(S)``.  Also returns
    the map from G's vertices to the result's.
    """
    S = sorted(set(S))
    if not S:
        raise ValueError("empty vertex set")
    if S[0] < 0 or S[-1] >= G.n:
        raise ValueError("vertex set not contained in the graph")
    smask = mask_of(S)
    for v in S:
        if G.adj[v] & smask:
            raise ValueError("identifying adjacent vertices")
    target = S[0]
    keep = [v for v in range(G.n) if v == target or not smask >> v & 1]
    pos = {v: i for i, v in enumerate(keep)}
    merged = 0
    for v in S:
        merged |= G.adj[v]
    merged &= ~smask
    rows = [0] * len(keep)
    for v in keep:
        row = merged if v == target else G.adj[v]
        for u in bits(row):
            new_u = pos[target] if smask >> u & 1 else pos[u]
            if new_u != pos[v]:
                rows[pos[v]] |= 1 << new_u
                rows[new_u] |= 1 << pos[v]
    mapping = {v: pos[target] if smask >> v & 1 else pos[v] for v in range(G.n)}
    return Graph(len(keep), tuple(rows)), mapping


# --- counting work: the one copy of each counter that work gates use ---------


class CallRecorder:
    """``watch(owner, name)`` wraps ``owner.name`` through ``monkeypatch``
    and returns the list that gets each call's argument tuple; ``log`` gets
    ``(name, outer)`` for every watched call, ``outer`` being the names of
    the watched calls it runs inside, outermost first."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.log: list[tuple[str, tuple[str, ...]]] = []
        self.stack: list[str] = []

    def watch(self, owner, name: str) -> list[tuple]:
        real = getattr(owner, name)
        seen = []

        def wrapped(*args):
            seen.append(args)
            self.log.append((name, tuple(self.stack)))
            self.stack.append(name)
            try:
                return real(*args)
            finally:
                self.stack.pop()

        self.monkeypatch.setattr(owner, name, wrapped)
        return seen


def calls_into(module, name: str, run):
    """run() and how many times it entered a function called ``name`` that
    is defined in ``module``'s file, nested functions included."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_name == name and code.co_filename == module.__file__:
            count += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, count


def row_work(run, G: Graph):
    """run(H), where H is G on adjacency rows that count the ``&`` and the
    ``bit_count`` calls made on them, with those two counts."""
    ands = bit_counts = 0

    class Row(int):
        def __and__(self, other):
            nonlocal ands
            ands += 1
            return int.__and__(self, other)

        def bit_count(self):
            nonlocal bit_counts
            bit_counts += 1
            return int.bit_count(self)

    H = Graph(G.n, tuple(Row(r) for r in G.adj))
    ands = bit_counts = 0  # the structure check on H's rows is not run's work
    out = run(H)
    return out, ands, bit_counts
