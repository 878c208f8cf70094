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

Recognition inverts the construction: search nonadjacent separating pairs
{x, y}, assign the components of G - {x, y} to the two sides in every
way, and recurse.  It runs on the canonical relabeling of its input, so
the recipe it finds is a function of the isomorphism class alone; a table
keyed by canonical key keeps each class's answer, positive or negative,
which saves time and cannot change an answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    Graph,
    InvariantViolation,
    bits,
    canonical_form,
    canonical_key,
    connected_components,
    identify_vertices_with_map,
    induced_subgraph,
    mask_of,
    with_edge,
)
from .packing import four_cliques


@dataclass(frozen=True)
class Leaf:
    """The K5 building block."""

    def __repr__(self):
        return "Leaf()"


@dataclass(frozen=True)
class Compose:
    """One composition step.

    ``replaced_edge`` is an ordered pair (x, y) in the edge side's
    labeling; x receives ``split[0]`` and y receives ``split[1]``, both
    expressed in the vertex side's labeling as parts of N(z).
    """

    edge_side: "OreRecipe"
    replaced_edge: tuple[int, int]
    vertex_side: "OreRecipe"
    split_vertex: int
    split: tuple[tuple[int, ...], tuple[int, ...]]


OreRecipe = Leaf | Compose


def k5() -> Graph:
    return Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def _is_k5(G: Graph) -> bool:
    return G.n == 5 and G.m == 10


def compose_graphs(
    g1: Graph,
    replaced_edge: tuple[int, int],
    g2: Graph,
    split_vertex: int,
    split: tuple[tuple[int, ...], tuple[int, ...]],
) -> tuple[Graph, dict[int, int]]:
    """Materialize one composition; returns the graph and the map from
    vertex-side vertices (other than z) to output vertices."""
    x, y = replaced_edge
    if not g1.has_edge(x, y):
        raise ValueError(f"replaced edge ({x},{y}) is not an edge of the edge side")
    z = split_vertex
    if not 0 <= z < g2.n:
        raise ValueError("split vertex out of range")
    part_a, part_b = tuple(split[0]), tuple(split[1])
    if not part_a or not part_b:
        raise ValueError("both sides of the neighbor split must be nonempty")
    nz = set(g2.neighbors(z))
    sa, sb = set(part_a), set(part_b)
    if sa & sb or sa | sb != nz:
        raise ValueError("split must partition the split vertex's neighborhood")
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


def ore_compose(recipe: OreRecipe) -> Graph:
    return ore_compose_traced(recipe)[0]


def ore_compose_traced(recipe: OreRecipe) -> tuple[Graph, tuple[frozenset[int], ...]]:
    """Materialize a recipe, tracking which K5 leaves each vertex came from.

    Leaves are numbered in preorder; the identified vertices x and y carry
    the lineage of both sides they glue.
    """

    def rec(r: OreRecipe, next_leaf: int):
        if isinstance(r, Leaf):
            return k5(), tuple(frozenset([next_leaf]) for _ in range(5)), next_leaf + 1
        if not isinstance(r, Compose):
            raise TypeError(f"not a recipe node: {r!r}")
        g1, prov1, next_leaf = rec(r.edge_side, next_leaf)
        g2, prov2, next_leaf = rec(r.vertex_side, next_leaf)
        G, out_of = compose_graphs(g1, r.replaced_edge, g2, r.split_vertex, r.split)
        x, y = r.replaced_edge
        zprov = prov2[r.split_vertex]
        prov = list(prov1)
        prov[x] = prov[x] | zprov
        prov[y] = prov[y] | zprov
        prov += [frozenset()] * (G.n - g1.n)
        for v, out in out_of.items():
            prov[out] = prov2[v]
        return G, tuple(prov), next_leaf

    G, prov, _ = rec(recipe, 0)
    return G, prov


# ---------------------------------------------------------------------------
# Recipe text format
# ---------------------------------------------------------------------------


def recipe_to_text(recipe: OreRecipe) -> str:
    """S-expression form, e.g. ``(compose (k5) e=0-1 (k5) z=0 split=1|2,3,4)``."""
    if isinstance(recipe, Leaf):
        return "(k5)"
    a = ",".join(str(v) for v in recipe.split[0])
    b = ",".join(str(v) for v in recipe.split[1])
    return (
        f"(compose {recipe_to_text(recipe.edge_side)}"
        f" e={recipe.replaced_edge[0]}-{recipe.replaced_edge[1]}"
        f" {recipe_to_text(recipe.vertex_side)}"
        f" z={recipe.split_vertex}"
        f" split={a}|{b})"
    )


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def recipe_from_text(text: str) -> OreRecipe:
    tokens = _tokenize(text)
    pos = 0

    def expect(tok: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ValueError(f"recipe parse error: expected {tok!r}, got {got!r}")
        pos += 1

    def keyed(prefix: str) -> str:
        nonlocal pos
        if pos >= len(tokens) or not tokens[pos].startswith(prefix):
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ValueError(f"recipe parse error: expected {prefix}..., got {got!r}")
        val = tokens[pos][len(prefix):]
        pos += 1
        return val

    def parse() -> OreRecipe:
        nonlocal pos
        expect("(")
        if pos >= len(tokens):
            raise ValueError("recipe parse error: unexpected end of input")
        head = tokens[pos]
        pos += 1
        if head == "k5":
            expect(")")
            return Leaf()
        if head != "compose":
            raise ValueError(f"recipe parse error: unknown head {head!r}")
        edge_side = parse()
        e = keyed("e=")
        try:
            ex, ey = (int(t) for t in e.split("-"))
        except ValueError:
            raise ValueError(f"recipe parse error: bad edge {e!r}") from None
        vertex_side = parse()
        z = int(keyed("z="))
        sp = keyed("split=")
        halves = sp.split("|")
        if len(halves) != 2 or not halves[0] or not halves[1]:
            raise ValueError(f"recipe parse error: bad split {sp!r}")
        try:
            a = tuple(int(t) for t in halves[0].split(","))
            b = tuple(int(t) for t in halves[1].split(","))
        except ValueError:
            raise ValueError(f"recipe parse error: bad split {sp!r}") from None
        expect(")")
        return Compose(edge_side, (ex, ey), vertex_side, z, (a, b))

    out = parse()
    if pos != len(tokens):
        raise ValueError("recipe parse error: trailing tokens")
    return out


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _ordered_splits(g2: Graph, z: int):
    """All ordered (A, B) bipartitions of N(z) into nonempty parts.

    For a K5 vertex side every split of a given first-part size is
    equivalent under automorphisms fixing z, so three representatives
    cover everything; the general case walks all proper submasks.  Ordered
    parts matter: the edge side need not admit an automorphism swapping
    the replaced edge's endpoints.
    """
    nbrs = g2.neighbors(z)
    if _is_k5(g2):
        for size in (1, 2, 3):
            yield tuple(nbrs[:size]), tuple(nbrs[size:])
        return
    d = len(nbrs)
    for pick in range(1, (1 << d) - 1):
        a = tuple(nbrs[i] for i in range(d) if pick >> i & 1)
        b = tuple(nbrs[i] for i in range(d) if not pick >> i & 1)
        yield a, b


def _composition_sites(g1: Graph, g2: Graph):
    edge_list = [(0, 1)] if _is_k5(g1) else g1.edges()
    z_list = [0] if _is_k5(g2) else list(range(g2.n))
    for xy in edge_list:
        for z in z_list:
            for split in _ordered_splits(g2, z):
                yield xy, z, split


def enumerate_5_ore(max_n: int):
    """All isomorphism classes of 5-Ore graphs on at most max_n vertices.

    Yields (graph, recipe) pairs, sizes ascending, canonical-key order
    within a size; each class appears once with one witnessing recipe.
    Every 5-Ore graph has n = 4k + 1 vertices, so levels run 5, 9, 13, ...
    """
    if max_n < 5:
        return
    levels: dict[int, list[tuple[bytes, Graph, OreRecipe]]] = {}
    base = k5()
    levels[5] = [(canonical_key(base), base, Leaf())]
    seen = {levels[5][0][0]}
    yield base, Leaf()
    n = 9
    while n <= max_n:
        found: dict[bytes, tuple[Graph, OreRecipe]] = {}
        raw_seen: set[tuple[int, tuple[int, ...]]] = set()
        for n1 in sorted(levels):
            n2 = n + 1 - n1
            if n2 not in levels:
                continue
            for _, g1, r1 in levels[n1]:
                for _, g2, r2 in levels[n2]:
                    for xy, z, split in _composition_sites(g1, g2):
                        G, _ = compose_graphs(g1, xy, g2, z, split)
                        fp = (G.n, G.adj)
                        if fp in raw_seen:
                            continue
                        raw_seen.add(fp)
                        key = canonical_key(G)
                        if key in seen or key in found:
                            continue
                        found[key] = (G, Compose(r1, xy, r2, z, split))
        level = [(key, G, r) for key, (G, r) in sorted(found.items())]
        levels[n] = level
        seen.update(found)
        for _, G, r in level:
            yield G, r
        n += 4


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

_CLASSES: dict[bytes, tuple[OreRecipe | None, tuple[int, ...]]] = {}
"""Recognition results by canonical key: the recipe found on the class's
canonical relabeling (None for a non-member), and the canonical order of
that recipe's materialization (empty for None).  Both are functions of the
isomorphism class, so the table changes how long recognition takes, never
what it returns."""


def _nonempty_proper_unions(parts: list[frozenset[int]]):
    c = len(parts)
    for pick in range(1, (1 << c) - 1):
        a: set[int] = set()
        b: set[int] = set()
        for i, p in enumerate(parts):
            (a if pick >> i & 1 else b).update(p)
        yield a, b


def is_5_ore(
    G: Graph, canonical: tuple[bytes, tuple[int, ...]] | None = None
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
    if _is_k5(G):
        return Leaf()
    return _classify(G, canonical or canonical_form(G))[0]


def _classify(G: Graph, canonical: tuple[bytes, tuple[int, ...]]):
    """The class-table entry of G, recognizing its class on first sight."""
    key, order = canonical
    if key not in _CLASSES:
        _CLASSES[key] = _recognize(_relabel(G, order))
    return _CLASSES[key]


def _relabel(G: Graph, order: tuple[int, ...]) -> Graph:
    """G with vertex ``order[i]`` renamed i."""
    pos = [0] * G.n
    for i, v in enumerate(order):
        pos[v] = i
    return Graph(G.n, tuple(mask_of(pos[u] for u in bits(G.adj[v])) for v in order))


def _recognize(G: Graph):
    """The class-table entry of the class whose canonical relabeling is G."""
    n, m = G.n, G.m
    if n < 9 or n % 4 != 1 or 4 * m != 9 * n - 5:
        return None, ()
    if any(G.degree(v) < 4 for v in range(G.n)):
        return None, ()
    for x in range(n):
        for y in range(x + 1, n):
            if G.has_edge(x, y):
                continue
            rest = [v for v in range(n) if v not in (x, y)]
            comps = connected_components(G, within=rest)
            if len(comps) < 2:
                continue
            common = G.adj[x] & G.adj[y]
            for aset, bset in _nonempty_proper_unions(comps):
                if len(aset) < 3 or len(bset) < 4:
                    continue
                bmask = mask_of(bset)
                if common & bmask:
                    continue  # split parts of N(z) must be disjoint
                if not (G.adj[x] & bmask) or not (G.adj[y] & bmask):
                    continue
                found = _try_factor(G, x, y, sorted(aset), sorted(bset))
                if found is not None:
                    return found
    return None, ()


def _side(G: Graph):
    """A recipe for one side of a split, with a map from the side's vertices
    onto the recipe's materialization, or None if the side is not 5-Ore."""
    if _is_k5(G):
        return Leaf(), range(5)
    canonical = canonical_form(G)
    recipe, built = _classify(G, canonical)
    if recipe is None:
        return None
    iso = [0] * G.n
    for v, w in zip(canonical[1], built):
        iso[v] = w
    return recipe, iso


def _try_factor(G: Graph, x: int, y: int, aside: list[int], bside: list[int]):
    edge_vertices = sorted(aside + [x, y])
    epos = {v: i for i, v in enumerate(edge_vertices)}
    side1 = _side(with_edge(induced_subgraph(G, edge_vertices), epos[x], epos[y]))
    if side1 is None:
        return None
    vertex_vertices = sorted(bside + [x, y])
    vpos = {v: i for i, v in enumerate(vertex_vertices)}
    sub2 = induced_subgraph(G, vertex_vertices)
    cand2, merge_map = identify_vertices_with_map(sub2, [vpos[x], vpos[y]])
    side2 = _side(cand2)
    if side2 is None:
        return None
    (r1, iso1), (r2, iso2) = side1, side2
    bmask = mask_of(bside)
    part_a = sorted(iso2[merge_map[vpos[v]]] for v in bits(G.adj[x] & bmask))
    part_b = sorted(iso2[merge_map[vpos[v]]] for v in bits(G.adj[y] & bmask))
    recipe = Compose(
        r1,
        (iso1[epos[x]], iso1[epos[y]]),
        r2,
        iso2[merge_map[vpos[x]]],
        (tuple(part_a), tuple(part_b)),
    )
    # Rebuild the recipe and check that the vertex map G -> rebuilt is an
    # isomorphism.  G is its class's canonical relabeling, so the map is
    # also a canonical order of the rebuilt graph.
    rebuilt, out_of = compose_graphs(
        ore_compose(r1), recipe.replaced_edge, ore_compose(r2), recipe.split_vertex, recipe.split
    )
    order = tuple(
        iso1[epos[v]] if v in epos else out_of[iso2[merge_map[vpos[v]]]] for v in range(G.n)
    )
    if sorted(order) != list(range(G.n)) or rebuilt.m != G.m or not all(
        rebuilt.has_edge(order[u], order[v]) for u, v in G.edges()
    ):
        raise InvariantViolation("recognized recipe does not rebuild the input graph")
    return recipe, order


# ---------------------------------------------------------------------------
# Gems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GemReport:
    diamonds: tuple[frozenset[int], ...]
    emeralds: tuple[frozenset[int], ...]

    @property
    def ungemmed(self) -> bool:
        return not self.diamonds and not self.emeralds


def gems(G: Graph) -> GemReport:
    """Diamonds and emeralds of G.

    A diamond is five vertices inducing K5 minus one edge such that the
    three vertices not on the missing edge have degree four in G.  An
    emerald is an induced K4 whose four vertices all have degree four in
    G.  These are the configurations whose presence the composition
    machinery guarantees and the audits look for.
    """
    diamonds = []
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if G.has_edge(u, v):
                continue
            common = G.adj[u] & G.adj[v]
            cvs = [w for w in bits(common) if G.degree(w) == 4]
            for i, a in enumerate(cvs):
                for j in range(i + 1, len(cvs)):
                    b = cvs[j]
                    if not G.has_edge(a, b):
                        continue
                    for c in cvs[j + 1 :]:
                        if G.has_edge(a, c) and G.has_edge(b, c):
                            diamonds.append(frozenset((u, v, a, b, c)))
    emeralds = [
        frozenset(q)
        for q in four_cliques(G)
        if all(G.degree(v) == 4 for v in q)
    ]
    return GemReport(tuple(diamonds), tuple(emeralds))


# ---------------------------------------------------------------------------
# Ore-collapsible subsets
# ---------------------------------------------------------------------------


def ore_collapsible_subsets(G: Graph) -> list[frozenset[int]]:
    """Proper subsets whose boundary is a nonadjacent pair {u, v} with
    G[R] + uv 5-Ore.

    The boundary condition forces {u, v} to separate R from the rest, so
    scanning nonadjacent separating pairs and unions of components of
    G - {u, v} is exhaustive.
    """
    out = []
    found = set()
    for x in range(G.n):
        for y in range(x + 1, G.n):
            if G.has_edge(x, y):
                continue
            rest = [v for v in range(G.n) if v not in (x, y)]
            comps = connected_components(G, within=rest)
            if len(comps) < 2:
                continue
            for aset, bset in _nonempty_proper_unions(comps):
                if len(aset) + 2 < 5:
                    continue
                R = frozenset(aset | {x, y})
                if R in found:
                    continue
                bmask = mask_of(bset)
                if not (G.adj[x] & bmask) or not (G.adj[y] & bmask):
                    continue  # boundary must be exactly {x, y}
                order = sorted(R)
                pos = {v: i for i, v in enumerate(order)}
                cand = with_edge(induced_subgraph(G, order), pos[x], pos[y])
                if is_5_ore(cand) is not None:
                    found.add(R)
                    out.append(R)
    out.sort(key=lambda R: (len(R), sorted(R)))
    return out
