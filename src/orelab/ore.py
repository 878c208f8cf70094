"""Ore compositions of K5s: build, enumerate, recognize, and decompose.

An Ore composition takes an edge side G1 with a distinguished edge xy and
a vertex side G2 with a distinguished vertex z whose neighborhood is split
into two nonempty parts (A, B): delete xy, split z into z1 and z2 carrying
A and B, and identify x with z1 and y with z2.  The result has
|V1| + |V2| - 1 vertices and |E1| + |E2| - 1 edges.  A graph is 5-Ore when
it arises from K5s by repeated compositions.

Recipes are explicit composition trees; their text form is an
s-expression whose indices refer to the deterministic labeling each side
gets when materialized (edge side keeps its vertex numbers; vertex-side
vertices other than z follow, in ascending order).

Recognition inverts the construction: scan the 2-cuts {x, y} of G
(:func:`~orelab.graph_core.two_cuts`, one depth-first search per x),
skip adjacent pairs, assign the components of G - {x, y} to the two sides
in every way, copy each side's mask out of the rows the 2-cut coloring
proofs read, :func:`~orelab.graph_core.paired` (the edge side with xy
added, the vertex side with y identified into x), and recurse; a side
vertex is numbered by its rank among its mask's bits.  It runs on the
canonical relabeling of its input, so the recipe it finds is a function
of the isomorphism class alone; a table keyed by canonical key keeps each
class's answer, positive or negative, which saves time and cannot change
an answer.  The input graph and every side take one lookup in that table
(:func:`_side`).
"""

from __future__ import annotations

from .constructions import complete_graph
from .graph_core import (
    MAX_VERTICES,
    Canonical,
    Graph,
    InvariantViolation,
    Record,
    _trusted,
    bits,
    canonical_form,
    check_automorphism,
    induced_subgraph,
    mask_of,
    paired,
    relabel,
    two_cuts,
)


class Leaf(Record):
    """The K5 building block."""

    __slots__ = ()


class Compose(Record):
    """One composition step.

    ``replaced_edge`` is an ordered pair (x, y) in the edge side's
    labeling; x receives ``split[0]`` and y receives ``split[1]``, both
    masks in the vertex side's labeling, parts of N(z).
    """

    __slots__ = ("edge_side", "replaced_edge", "vertex_side", "split_vertex", "split")
    edge_side: "OreRecipe"
    replaced_edge: tuple[int, int]
    vertex_side: "OreRecipe"
    split_vertex: int
    split: tuple[int, int]


OreRecipe = Leaf | Compose

# every Leaf materializes as this one graph, built and checked once
_K5 = complete_graph(5)


def _is_k5(G: Graph) -> bool:
    return G.n == 5 and G.m == 10


def compose_graphs(
    g1: Graph,
    replaced_edge: tuple[int, int],
    g2: Graph,
    split_vertex: int,
    split: tuple[int, int],
) -> tuple[Graph, dict[int, int]]:
    """Materialize one composition, ``split`` the masks (A, B) of N(z);
    returns the graph and the map from vertex-side vertices (other than z)
    to output vertices."""
    x, y = replaced_edge
    if not g1.has_edge(x, y):
        raise ValueError(f"replaced edge ({x},{y}) is not an edge of the edge side")
    z = split_vertex
    if not 0 <= z < g2.n:
        raise ValueError("split vertex out of range")
    a, b = split
    if not a or not b:
        raise ValueError("both sides of the neighbor split must be nonempty")
    if a & b or a | b != g2.adj[z]:
        raise ValueError("split must partition the split vertex's neighborhood")
    n1 = g1.n
    if n1 + g2.n - 1 > MAX_VERTICES:
        raise ValueError(f"a composite of {n1 + g2.n - 1} vertices exceeds {MAX_VERTICES}")
    out_of = {v: n1 + v - (v > z) for v in range(g2.n) if v != z}
    rows = list(g1.adj)
    rows[x] &= ~(1 << y)
    rows[y] &= ~(1 << x)
    # a vertex-side row loses bit z, its higher bits move down one place,
    # and the whole row moves up past the edge side's vertices
    below = (1 << z) - 1
    for v in range(g2.n):
        if v != z:
            row = g2.adj[v]
            rows.append(((row & below) | (row >> (z + 1) << z)) << n1)
    for end, part in ((x, a), (y, b)):
        for v in bits(part):
            rows[end] |= 1 << out_of[v]
            rows[out_of[v]] |= 1 << end
    return _trusted(len(rows), rows), out_of


def ore_compose(recipe: OreRecipe) -> Graph:
    """Materialize a recipe in the labeling its text form refers to."""
    if isinstance(recipe, Leaf):
        return _K5
    if not isinstance(recipe, Compose):
        raise TypeError(f"not a recipe node: {recipe!r}")
    g1 = ore_compose(recipe.edge_side)
    g2 = ore_compose(recipe.vertex_side)
    return compose_graphs(g1, recipe.replaced_edge, g2, recipe.split_vertex, recipe.split)[0]


# ---------------------------------------------------------------------------
# Recipe text format
# ---------------------------------------------------------------------------


def recipe_to_text(recipe: OreRecipe) -> str:
    """S-expression form, e.g. ``(compose (k5) e=0-1 (k5) z=0 split=1|2,3,4)``."""
    if isinstance(recipe, Leaf):
        return "(k5)"
    a, b = (",".join(map(str, bits(part))) for part in recipe.split)
    return (
        f"(compose {recipe_to_text(recipe.edge_side)}"
        f" e={recipe.replaced_edge[0]}-{recipe.replaced_edge[1]}"
        f" {recipe_to_text(recipe.vertex_side)}"
        f" z={recipe.split_vertex}"
        f" split={a}|{b})"
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _least_of_orbits(keys, moves) -> dict[int, int]:
    """The least key of each key's orbit, where each pair (a, b) of
    ``moves`` puts a and b in one orbit: union-find with path halving,
    each root the least key of its tree."""
    parent = {k: k for k in keys}
    for a, b in moves:
        if a != b:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    for k, r in parent.items():
        while parent[r] != r:
            r = parent[r]
        parent[k] = r
    return parent


def _orbit_tables(G: Graph, generators) -> tuple[list, dict, list]:
    """The composition sites of G up to the automorphisms ``generators``,
    each checked before use.

    Returns the edges (x, y, flips), x < y, that come first in edge order
    within their orbit of unordered edges, where ``flips`` says that some
    automorphism maps (x, y) to (y, x); the orbit representative of every
    (z, A) with A a nonempty proper subset of N(z) given as a bitmask; and
    the (z, A) that are the least element of their own orbit, ascending.

    The orbits are found on int keys that sort as the pairs do: x << 6 | y
    for the arc (x, y) and z << n | A for the split (z, A).  The subsets
    of N(z) are listed by doubling, one neighbor w at a time, so listing
    them the same way with g[w] for w gives each one's image under g at
    the same place; a generator that fixes z and N(z) pointwise moves no
    split of z and is skipped.
    """
    for g in generators:
        check_automorphism(G, g)
    n, adj = G.n, G.adj
    arcs = [k for x, y in G.edges() for k in (x << 6 | y, y << 6 | x)]
    arc = _least_of_orbits(
        arcs, ((k, g[k >> 6] << 6 | g[k & 63]) for g in generators for k in arcs)
    )
    nbrs = [bits(row) for row in adj]
    subsets = []
    for z in range(n):
        keys = [z << n]
        for w in nbrs[z]:
            keys += [k | 1 << w for k in keys]
        subsets.append(keys[1:-1])

    def split_moves():
        for g in generators:
            moved = mask_of(v for v in range(n) if g[v] != v)
            for z in range(n):
                if moved & (adj[z] | 1 << z):
                    images = [g[z] << n]
                    for w in nbrs[z]:
                        images += [k | 1 << g[w] for k in images]
                    yield from zip(subsets[z], images[1:-1])

    least = _least_of_orbits([k for keys in subsets for k in keys], split_moves())
    full = (1 << n) - 1
    pair = {k: (k >> n, k & full) for k in least}
    part = {pair[k]: pair[r] for k, r in least.items()}
    # an unordered edge orbit's least arc is its first edge in edge order
    edges = []
    for k in arcs[::2]:
        x, y = k >> 6, k & 63
        there, back = arc[k], arc[y << 6 | x]
        if min(there, back) == k:
            edges.append((x, y, there == back))
    return edges, part, [pair[k] for k in sorted(least) if least[k] == k]


def enumerate_5_ore(max_n: int):
    """All isomorphism classes of 5-Ore graphs on at most max_n vertices.

    Yields (graph, recipe) pairs, sizes ascending, canonical-key order
    within a size; each class appears once with one witnessing recipe.
    Every 5-Ore graph has n = 4k + 1 vertices, so levels run 5, 9, 13, ...

    Sites that an automorphism of either side, or the swap of (x, y, A)
    with (y, x, B), carries onto each other give isomorphic composites, so
    one site per orbit is composed: the first edge x < y of its orbit of
    unordered edges, and the least (z, A) of its orbit, or of the orbit of
    (z, B) when an automorphism reverses xy and that orbit's least element
    is smaller.  Two kept sites never share an orbit, and the first site
    of every orbit in the walk over every edge, vertex and ordered split is
    kept, so the kept sites are exactly those first sites, in the same
    order: each class is found first at the same site as by composing
    every site.

    A max_n below 0 or above MAX_VERTICES is a ValueError, raised before
    anything is composed or yielded.
    """
    if not 0 <= max_n <= MAX_VERTICES:
        raise ValueError(f"max_n {max_n} outside 0..{MAX_VERTICES}")
    if max_n < 5:
        return
    key, _, generators = canonical_form(_K5)
    levels = {5: [(_K5, Leaf(), *_orbit_tables(_K5, generators))]}
    seen = {key}
    yield _K5, Leaf()
    for n in range(9, max_n + 1, 4):
        found: dict[bytes, tuple[Graph, OreRecipe, tuple]] = {}
        raw_seen: set[tuple[int, tuple[int, ...]]] = set()
        # every stored n1 < n leaves n2 = n + 1 - n1 stored too
        for n1 in sorted(levels):
            n2 = n + 1 - n1
            for g1, r1, edges, _, _ in levels[n1]:
                for g2, r2, _, part, splits in levels[n2]:
                    for x, y, flips in edges:
                        for z, a in splits:
                            b = g2.adj[z] & ~a
                            if flips and part[z, b] < (z, a):
                                continue  # the swapped site's orbit comes first
                            G, _ = compose_graphs(g1, (x, y), g2, z, (a, b))
                            fp = (G.n, G.adj)
                            if fp in raw_seen:
                                continue
                            raw_seen.add(fp)
                            key, _, generators = canonical_form(G)
                            if key in seen or key in found:
                                continue
                            found[key] = (G, Compose(r1, (x, y), r2, z, (a, b)), generators)
        seen.update(found)
        level = [found[key] for key in sorted(found)]
        if n + 4 <= max_n:
            # orbit tables only for the classes that later levels compose
            levels[n] = [(G, r, *_orbit_tables(G, gens)) for G, r, gens in level]
        for G, r, _ in level:
            yield G, r


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

_CLASSES: dict[bytes, tuple[OreRecipe | None, tuple[int, ...]]] = {}
"""Recognition results by canonical key: the recipe found on the class's
canonical relabeling (None for a non-member), and the canonical order of
that recipe's materialization (empty for None).  Both are functions of the
isomorphism class, so the table changes how long recognition takes, never
what it returns."""


def _nonempty_proper_unions(parts: tuple[int, ...]):
    """Every split of the component masks ``parts`` into two nonempty
    unions, as (A, B) masks."""
    c = len(parts)
    for pick in range(1, (1 << c) - 1):
        a = b = 0
        for i, p in enumerate(parts):
            if pick >> i & 1:
                a |= p
            else:
                b |= p
        yield a, b


def is_5_ore(
    G: Graph, canonical: Canonical | None = None
) -> OreRecipe | None:
    """A witnessing recipe if G is 5-Ore, else None.

    ``canonical`` is G's :func:`canonical_form`, when the caller already
    holds it.  Recognition runs on the canonical relabeling of G, so the
    recipe depends only on G's isomorphism class, never on its labeling or
    on which graphs were recognized before.

    Every composite has |E| = |V(G1)| + |V(G2)| - 1 edges, which iterates
    to 4|E| = 9|V| - 5 for all 5-Ore graphs; that identity plus degree
    and parity screens reject most non-members before any search.  The
    search itself looks for a nonadjacent separating pair {x, y}: the edge
    side is one union of components plus the edge xy, the vertex side is
    the rest with x and y identified back into the split vertex.
    """
    found = _side(G, canonical)
    return None if found is None else found[0]


def _recognize(G: Graph):
    """The class-table entry of the class whose canonical relabeling is G."""
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
                continue  # split parts of N(z) must be disjoint
            if not (G.adj[x] & bmask) or not (G.adj[y] & bmask):
                continue
            found = _try_factor(G, x, y, amask, bmask)
            if found is not None:
                return found
    return None, ()


def _side(G: Graph, canonical: Canonical | None = None):
    """A recipe for G, recognizing its class on first sight, with a map from
    G's vertices onto the recipe's materialization, or None if G is not
    5-Ore; ``canonical`` is G's :func:`canonical_form`, if known."""
    if _is_k5(G):
        return Leaf(), range(5)
    key, order, _ = canonical or canonical_form(G)
    if key not in _CLASSES:
        _CLASSES[key] = _recognize(relabel(G, order))
    recipe, built = _CLASSES[key]
    if recipe is None:
        return None
    iso = [0] * G.n
    for v, w in zip(order, built):
        iso[v] = w
    return recipe, iso


def _try_factor(G: Graph, x: int, y: int, amask: int, bmask: int):
    emask = amask | 1 << x | 1 << y
    side1 = _side(induced_subgraph(paired(G, x, y, False), emask))
    if side1 is None:
        return None
    vmask = bmask | 1 << x
    side2 = _side(induced_subgraph(paired(G, x, y, True), vmask))
    if side2 is None:
        return None
    (r1, iso1), (r2, iso2) = side1, side2
    # where each vertex of a side's mask lands in the side's materialization
    epos = dict(zip(bits(emask), iso1))
    vpos = dict(zip(bits(vmask), iso2))
    split = tuple(mask_of(vpos[v] for v in bits(G.adj[end] & bmask)) for end in (x, y))
    recipe = Compose(r1, (epos[x], epos[y]), r2, vpos[x], split)
    # Rebuild the recipe and check that the vertex map G -> rebuilt is an
    # isomorphism.  G is its class's canonical relabeling, so the map is
    # also a canonical order of the rebuilt graph.
    rebuilt, out_of = compose_graphs(
        ore_compose(r1), recipe.replaced_edge, ore_compose(r2), recipe.split_vertex, recipe.split
    )
    order = tuple(epos[v] if v in epos else out_of[vpos[v]] for v in range(G.n))
    if sorted(order) != list(range(G.n)) or rebuilt.m != G.m or not all(
        rebuilt.has_edge(order[u], order[v]) for u, v in G.edges()
    ):
        raise InvariantViolation("recognized recipe does not rebuild the input graph")
    return recipe, order
