"""Small simple graphs on at most 64 vertices, with bitset adjacency.

A :class:`Graph` is an immutable value: vertex ``i``'s neighborhood is an
``int`` bitmask, so neighborhood algebra is single-word arithmetic.  Every
vertex set a function takes or returns is such a mask too, bit v for
vertex v; :func:`bits` lists one in ascending order.  All of the higher
machinery (exact coloring, clique packing, composition search, potential
audits) builds on the operations here: induced subgraphs, the 2-cuts that
Ore compositions glue along, the rows of each case of a 2-cut (x and y
different or alike), how many components of the degree-four subgraph
have one and two vertices, and an exact canonical form used to
deduplicate isomorphism classes.

Graphs and the library's other records are immutable :class:`Record`
values: plain ``__slots__`` classes, of which none is generated at import.
Structure is checked where outside data enters, by ``Graph(n, adj)``,
which ``Graph.from_edges``, the codecs and the constructions call.  A graph
derived from one the library holds is well formed by construction, so it
is built unchecked, by :func:`_trusted` or the row builder :func:`_image`.

Canonical forms are computed by equitable partition refinement plus
backtracking over individualization choices, minimizing the lower-triangle
adjacency certificate.  The cells of a partition are vertex masks.  Each
refinement pass counts neighbors only into the cells that the pass before
it split, summing each such cell's rows into bit planes of counts, and
splits every cell plane by plane, which orders the pieces as sorting their
count vectors would; a child node's first pass, by its one individualized
vertex, splits each cell by that vertex's row alone.  Each node of the
search extends its parent's certificate rows instead of recomputing them.
The same search yields generators of the automorphism group, which it uses
to skip subtrees equivalent to ones already searched and the Ore
enumeration uses to compose one site per orbit.  When a terminal node ties
the best one, the search backjumps to the depth where the two nodes' paths
part: the automorphism between them maps a searched subtree onto the whole
subtree that the tied node's path enters there.  Exactness is the
contract; speed only has to be good enough for graphs of desk scale
(n <= 24 or so).
"""

from __future__ import annotations

MAX_VERTICES = 64


class InvariantViolation(RuntimeError):
    """A structural fact that is supposed to be impossible failed to hold.

    This is a panic-level error: it means either corrupted input or an
    implementation bug, never a routine precondition failure.
    """


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> list[int]:
    """Set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Record:
    """An immutable value whose fields are its class's ``__slots__``, each
    declared beside an annotated line.  It is built from its fields by
    position or keyword, compares and hashes as the tuple of its fields,
    and pickles and copies through its constructor.  Records built on hot
    paths define a straight-line ``__init__`` instead of this one.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        # extra, repeated, missing and unknown fields all show in the counts
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names) or 'none'}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()


class Graph(Record):
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of ``v``.

    A graph is its adjacency alone.  Builders whose callers need to know
    where each vertex came from return a vertex map beside the graph
    (``compose_graphs``, ``extract_5_critical``, ``phi_identify``); the
    graphs :func:`induced_subgraph` copies out, 2-cut sides among them,
    number a mask's vertices by their rank among its bits.
    """

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency length differs from vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} references missing vertices")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Each edge listed once; ``__init__`` rejects a loop.  n is
        checked first, as the rows are allocated from it, and each endpoint
        before it indexes a row, where a negative index would wrap silently."""
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for off in bits(row):
                out.append((u, u + 1 + off))
        return out


def _trusted(n: int, rows) -> Graph:
    """``Graph(n, rows)`` without the structure check, for derived rows."""
    G = object.__new__(Graph)
    object.__setattr__(G, "n", n)
    object.__setattr__(G, "adj", tuple(rows))
    return G


def _image(G: Graph, mask: int, at, rows: list[int]) -> Graph:
    """The graph on ``rows`` plus each edge vu of G[mask] as the edge
    at[v]at[u]; ``at`` must send no edge of G[mask] onto a loop."""
    for v in bits(mask):
        row = 0
        for u in bits(G.adj[v] & mask):
            row |= 1 << at[u]
        rows[at[v]] |= row
    return _trusted(len(rows), rows)


def without_edge(G: Graph, u: int, v: int) -> Graph:
    """G minus its edge uv."""
    rows = list(G.adj)
    if not rows[u] >> v & 1:
        raise ValueError(f"edge ({u},{v}) not present")
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return _trusted(G.n, rows)


def induced_subgraph(G: Graph, mask: int) -> Graph:
    """The subgraph induced on the vertices of ``mask``.

    Vertices are renumbered compactly in ascending order of their old
    index, so vertex i of the result is the i-th lowest bit of ``mask``.
    """
    if not mask:
        raise ValueError("empty vertex set")
    if mask < 0 or mask >> G.n:
        raise ValueError("vertex set not contained in the graph")
    return _image(G, mask, {v: i for i, v in enumerate(bits(mask))}, [0] * mask.bit_count())


def relabel(G: Graph, order) -> Graph:
    """G induced on the vertices of ``order``, with ``order[i]`` renamed i;
    ``order`` lists each of them once."""
    at = {v: i for i, v in enumerate(order)}
    return _image(G, mask_of(at), at, [0] * len(at))


def paired(G: Graph, x: int, y: int, alike: bool) -> Graph:
    """G's rows for one case of the 2-cut {x, y}: x and y different, the
    edge xy added, or alike, y's row merged into x's and x added to the
    rows of y's neighbors; identifying adjacent x and y is a ValueError.
    With x and y alike, the rows are read only on masks without y, where
    they are G with y identified into x.  A side of the cut is a mask over
    these rows, which the coloring proofs read in place and Ore
    recognition copies out by :func:`induced_subgraph`."""
    rows = list(G.adj)
    if alike:
        if rows[x] >> y & 1:
            raise ValueError(f"cannot identify adjacent vertices {x} and {y}")
        rows[x] |= rows[y]
        for v in bits(rows[y]):
            rows[v] |= 1 << x
    else:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return _trusted(G.n, rows)


def connected_components(G: Graph, within: int | None = None) -> list[int]:
    """The components of G[within], every vertex by default, as masks
    ordered by their lowest vertex."""
    todo = (1 << G.n) - 1 if within is None else within
    comps = []
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= G.adj[v]
            frontier = grow & todo & ~comp
            comp |= frontier
        comps.append(comp)
        todo &= ~comp
    return comps


def two_cuts(G: Graph, within: int | None = None):
    """Every 2-cut of G[within], every vertex by default, with the
    components it leaves.

    A 2-cut is a pair {x, y}, adjacent or not, whose removal leaves at
    least two components.  Yields ``(x, y, parts)`` with x < y, pairs in
    ascending order, and ``parts`` the components of G[within] - {x, y} as
    bitmasks ordered by their least vertex: what a scan of a copy of
    G[within] with its vertices renumbered in ascending order yields, in
    G's labels.

    One depth-first search of G - x per x finds the cut vertices of
    G - x: a child subtree whose lowpoint does not reach above y is cut
    off from the rest by removing y.  So the components of G - {x, y} are
    the components of G - x that miss y, the subtrees cut off below y,
    and what is left of y's own component, when anything is.
    """
    n, adj = G.n, G.adj
    full = (1 << n) - 1 if within is None else within
    if all(adj[v] & full | 1 << v == full for v in bits(full)):
        return  # a complete graph has no 2-cut
    # the highest vertex has no y above it
    for x in bits(full & ~(1 << full.bit_length() - 1)):
        alive = full & ~(1 << x)
        disc = [-1] * n
        low = [0] * n
        below = [0] * n  # the vertex's DFS subtree, itself included
        cut_off: dict[int, list[int]] = {}
        clock = 0

        def visit(v: int):
            nonlocal clock
            disc[v] = reach = clock
            clock += 1
            subtree = 1 << v
            todo = adj[v] & alive
            while todo:
                bit = todo & -todo
                todo ^= bit
                u = bit.bit_length() - 1
                if disc[u] < 0:
                    visit(u)
                    subtree |= below[u]
                    if low[u] >= disc[v]:
                        cut_off.setdefault(v, []).append(below[u])
                    elif low[u] < reach:
                        reach = low[u]
                elif disc[u] < reach:
                    reach = disc[u]
            low[v], below[v] = reach, subtree

        comps = []
        todo = alive
        while todo:
            root = (todo & -todo).bit_length() - 1
            visit(root)
            comps.append(below[root])
            todo &= ~below[root]
        # visit refers to itself; dropping the name frees the search now
        # instead of at the next garbage collection
        del visit
        # with G - x connected, G - {x, y} is disconnected only for a cut
        # vertex y of G - x
        for y in bits((alive if len(comps) > 1 else mask_of(cut_off)) >> x << x):
            pieces = cut_off.get(y, [])
            home = next(c for c in comps if c >> y & 1)
            parts = [c for c in comps if c != home] + pieces
            rest = home & ~(1 << y)
            for c in pieces:
                rest &= ~c
            if rest:
                parts.append(rest)
            if len(parts) > 1:
                parts.sort(key=lambda c: c & -c)
                yield x, y, tuple(parts)


class D4Report(Record):
    """How many connected components of the subgraph induced by
    degree-four vertices have one vertex (``singles``) and two
    (``pairs``); the discharging arithmetic consumes exactly those two
    numbers.
    """

    __slots__ = ("singles", "pairs")
    singles: int
    pairs: int


def d4_components(G: Graph) -> D4Report:
    d4 = mask_of(v for v in range(G.n) if G.degree(v) == 4)
    comps = connected_components(G, within=d4)
    singles = sum(1 for c in comps if c.bit_count() == 1)
    pairs = sum(1 for c in comps if c.bit_count() == 2)
    return D4Report(singles, pairs)

# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _refine(
    adj: tuple[int, ...], cells: list[int], splitters: list[int] | None = None
) -> list[int]:
    """Equitable refinement of an ordered partition, deterministically.

    Cells are vertex masks.  A cell splits by the vector of its vertices'
    neighbor counts into the splitter cells, and its pieces are ordered by
    that vector, so the refined partition depends only on the input
    partition and the graph.

    After a pass, two vertices of one cell agree on their counts into each
    cell of the partition before it, so only the cells that pass split can
    tell them apart, and the last piece of each split cell is implied by
    its other pieces.  So a pass counts only into the pieces other than the
    last of each cell the previous pass split: the same split in the same
    order, for less work.  The first pass counts into ``splitters``, every
    input cell by default.  A caller whose input is an equitable partition
    with one cell split into vertex v and the rest passes ``[1 << v]``.

    A lone one-vertex splitter v splits each cell into the non-neighbors of
    v, then the neighbors.  Otherwise each splitter's counts are summed as
    bit planes, plane j holding bit j of every vertex's count, by
    bit-sliced addition of the splitter's rows.  Splitting a cell by the
    first splitter's planes from the most significant down orders its
    pieces by that count; splitting each piece further by the next
    splitter's planes, and so on, leaves the pieces in lexicographic order
    of the count vectors, which is the order a sort of the vectors gives.
    """
    if splitters is None:
        splitters = cells
    while splitters:
        first = splitters[0]
        new_cells: list[int] = []
        if len(splitters) == 1 and not first & (first - 1):
            row = adj[first.bit_length() - 1]
            splitters = []
            for cell in cells:
                away = cell & ~row
                if away and away != cell:
                    new_cells += (away, cell ^ away)
                    splitters.append(away)
                else:
                    new_cells.append(cell)
            cells = new_cells
            continue
        planes: list[int] = []  # each splitter's, most significant first
        for s in splitters:
            sums: list[int] = []  # least significant first
            while s:
                low = s & -s
                s ^= low
                carry = adj[low.bit_length() - 1]
                for j, p in enumerate(sums):
                    sums[j] = p ^ carry
                    carry &= p
                    if not carry:
                        break
                else:
                    sums.append(carry)
            planes += reversed(sums)
        splitters = []
        for cell in cells:
            if not cell & (cell - 1):
                new_cells.append(cell)
                continue
            pieces = [cell]
            for p in planes:
                hit = cell & p
                if hit and hit != cell:
                    split: list[int] = []
                    for q in pieces:
                        hit = q & p
                        if hit and hit != q:
                            split += (q ^ hit, hit)
                        else:
                            split.append(q)
                    pieces = split
            new_cells += pieces
            splitters += pieces[:-1]
        cells = new_cells
    return cells


def _is_homogeneous(adj: tuple[int, ...], cells: list[int]) -> bool:
    # For an equitable partition, per-cell neighbor counts are uniform, so a
    # single representative per cell decides complete-or-empty structure.
    # Singletons are homogeneous with everything.
    cells = [c for c in cells if c & (c - 1)]
    for c in cells:
        low = c & -c
        row = adj[low.bit_length() - 1]
        for d in cells:
            hit = row & d
            if hit and hit != d & ~low:
                return False
    return True


def _cert_rows(adj: tuple[int, ...], perm: list[int], done: tuple[int, ...]) -> tuple[int, ...]:
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


Canonical = tuple[bytes, tuple[int, ...], tuple[tuple[int, ...], ...]]
"""What :func:`canonical_form` returns: key, canonical order, generators."""


def _orbit(mask: int, generators) -> int:
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


def canonical_form(G: Graph) -> Canonical:
    """Canonical key, a witnessing vertex order, and generators of Aut(G).

    Returns ``(key, order, generators)`` where ``order[i]`` is the original
    vertex placed at canonical position ``i``.  Keys of two graphs are equal
    exactly when the graphs are isomorphic; composing the orders of two
    graphs with equal keys yields an explicit isomorphism.  Each generator
    is a tuple ``g`` with ``g[v]`` the image of vertex ``v``; together they
    generate the automorphism group (an empty tuple for a rigid graph).

    The search prunes a node whose certificate prefix is strictly worse
    than the best, and keeps every automorphism it finds: the map from the
    best order onto a terminal node that ties it, and, at a homogeneous
    terminal node that becomes the best, the transpositions of consecutive
    vertices in each of its cells.  It skips two kinds of subtree, each the
    image of one already searched, so the first best terminal node, hence
    the key and the order, are those of the full search:

    - Before descending into a child ``v`` of a target cell, it skips ``v``
      when the found automorphisms that fix the individualized vertices
      pointwise map an explored sibling onto ``v``.
    - When a terminal node ties the best, refinement commutes with the
      automorphism between them, so it maps the best node's path onto the
      tied node's vertex by vertex.  It fixes the first d vertices, which
      the paths share, and maps the best path's child of the depth-d node,
      whose subtree the search finished before, onto the tied path's
      child, so all of that child's subtree is an image of a searched one.
      Every node deeper than d returns at once, and the node at depth d
      goes on with its next child.

    The automorphisms found generate the whole group (McKay, "Practical
    graph isomorphism", 1981).  The transpositions of the best terminal
    node generate the stabilizer of its path.  At each node on that path,
    no earlier child lies in the orbit of the path's child under the
    pointwise stabilizer of the path so far, or a tie would have come
    first.  A later child in that orbit is either skipped, as the image of
    an explored one under found automorphisms fixing the path so far, or
    explored.  If explored, its subtree holds an image of the best node, so
    its search records a tie whose automorphism fixes the path so far and
    maps the path's child onto it.  A backjump never cuts a node on the
    path short once the best node is found, because every later tie inside
    that node's subtree shares its path.  So each stabilizer on the path is
    generated by the one below it and found automorphisms covering its
    orbit.

    Cells are vertex masks.  Every cell the search builds lists its
    vertices in ascending order (the unit cell, the pieces of a split, and
    v and the rest of an individualized cell all do), so a mask loses
    nothing: the order of a node is its cells' bits, cell by cell.
    """
    adj = G.adj
    n = G.n
    identity = tuple(range(n))
    best: list = [None, None, None]  # cert rows, perm, path
    found: list[tuple[int, ...]] = []

    def record(cert, perm, cells, path) -> int:
        # the depth the search goes on at: on a tie, where path leaves best's
        if best[0] is None or cert < best[0]:
            best[:] = cert, perm, path
            for c in cells:
                if not c & (c - 1):
                    continue  # a one-vertex cell gives no transposition
                vs = bits(c)
                for a, b in zip(vs, vs[1:]):
                    image = list(identity)
                    image[a], image[b] = b, a
                    found.append(tuple(image))
        elif cert == best[0]:
            image = [0] * n
            for v, w in zip(best[1], perm):
                image[v] = w
            found.append(tuple(image))
            # the two paths have one length and part somewhere
            return next(d for d, (v, w) in enumerate(zip(path, best[2])) if v != w)
        return len(path)

    def search(
        cells: list[int],
        path: tuple[int, ...],
        splitters: list[int] | None,
        done: tuple[int, ...],
    ) -> int:
        cells = _refine(adj, cells, splitters)
        prefix: list[int] = []
        for c in cells:
            if c & (c - 1):
                break
            prefix.append(c.bit_length() - 1)
        # the singleton prefix extends the parent's, whose rows are done
        pref = _cert_rows(adj, prefix, done)
        if best[0] is not None and pref > best[0][: len(pref)]:
            return len(path)
        idx = len(prefix)
        if _is_homogeneous(adj, cells):  # a discrete partition is too
            perm = prefix
            for c in cells[idx:]:
                if c & (c - 1):
                    perm += bits(c)
                else:
                    perm.append(c.bit_length() - 1)
            return record(_cert_rows(adj, perm, pref), perm, cells, path)
        cell = cells[idx]
        explored = 0
        # found only grows, so filter just the generators new since the last look
        fixing: list[tuple[int, ...]] = []
        seen = 0
        for v in bits(cell):
            if explored:
                fixing += [g for g in found[seen:] if all(g[w] == w for w in path)]
                seen = len(found)
                if _orbit(explored, fixing) >> v & 1:
                    continue
            bit = 1 << v
            child = cells[:idx] + [bit, cell ^ bit] + cells[idx + 1 :]
            back = search(child, path + (v,), [bit], pref)
            if back < len(path):  # this node is in a skipped subtree
                return back
            explored |= bit
        return len(path)

    search([(1 << n) - 1], (), None, ())
    # search refers to itself; dropping the name frees the search state now
    # instead of at the next garbage collection
    del search
    cert, perm, _ = best
    blob = bytearray([n])
    for i, r in enumerate(cert):
        if i:
            blob += r.to_bytes((i + 7) // 8, "big")
    return bytes(blob), tuple(perm), tuple(found)


def check_automorphism(G: Graph, image) -> None:
    """Raise :class:`InvariantViolation` unless ``v -> image[v]`` is an
    automorphism of G: a permutation that maps every edge onto an edge."""
    adj = G.adj
    if sorted(image) != list(range(G.n)) or not all(
        adj[image[u]] >> image[v] & 1 for u, v in G.edges()
    ):
        raise InvariantViolation(f"{tuple(image)} is not an automorphism")


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def graph_to_text(G: Graph) -> str:
    """Bit-exact text format: ``n m`` then one ``u v`` line per edge.

    Edges are listed with u < v, ascending lexicographically, so the output
    of a given graph is unique.
    """
    lines = [f"{G.n} {G.m}"]
    lines += [f"{u} {v}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """The graph :func:`graph_to_text` wrote; a ValueError names the line
    at fault, when there is one, numbered as in ``text``.  Blank lines are
    skipped, before the header too."""
    numbered = enumerate(text.splitlines(), start=1)
    lines = [(i, parts) for i, line in numbered if (parts := line.split())]
    if not lines:
        raise ValueError("empty graph text")
    at, head = lines[0]
    if len(head) != 2:
        raise ValueError(f"line {at}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"line {at}: expected two integers") from None
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"line {at}: vertex count {n} outside 1..{MAX_VERTICES}")
    edges = []
    for i, parts in lines[1:]:
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {i}: expected two integers") from None
        if not u < v:
            raise ValueError(f"line {i}: edges must satisfy u < v")
        if u < 0 or v >= n:
            raise ValueError(f"line {i}: edge ({u},{v}) out of range for n={n}")
        if edges and (u, v) == edges[-1]:
            raise ValueError(f"line {i}: duplicate edge ({u},{v})")
        if edges and (u, v) < edges[-1]:
            raise ValueError(f"line {i}: edges out of order")
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"declared {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)


def graph_to_graph6(G: Graph) -> str:
    if G.n <= 62:
        head = chr(G.n + 63)
    else:
        head = "~" + "".join(
            chr(((G.n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    bits_out = []
    for v in range(1, G.n):
        for u in range(v):
            bits_out.append(G.adj[u] >> v & 1)
    while len(bits_out) % 6:
        bits_out.append(0)
    chars = []
    for i in range(0, len(bits_out), 6):
        val = 0
        for b in bits_out[i : i + 6]:
            val = val << 1 | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def graph_from_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4:
            raise ValueError("truncated graph6 header")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 order {n} outside 1..{MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} chars, expected {need}")
    stream = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ValueError(f"invalid graph6 character {ch!r}")
        stream += [(val >> s) & 1 for s in (5, 4, 3, 2, 1, 0)]
    edges = []
    i = 0
    for v in range(1, n):
        for u in range(v):
            if stream[i]:
                edges.append((u, v))
            i += 1
    return Graph.from_edges(n, edges)
