"""Exact k-coloring, 5-criticality, and collapsibility checks.

The solver is a saturation-first backtracking search over bitmask color
domains.  Completeness is the whole point: a ``None`` answer is a proof
that no proper k-coloring exists, and everything downstream (criticality,
collapsibility, critical extensions) leans on that.

Every vertex of a (k+1)-critical graph has degree at least k, so a vertex
with fewer than k neighbors never decides k-colorability: any k-coloring
of the rest leaves it a free color.  The solver peels such vertices in
ascending index sweeps, searches what is left (the k-core) in place, one
component of G at a time, and gives the peeled vertices the lowest free
color in reverse peel order; an empty core needs no search at all.

Symmetry is broken two ways, both sound for the decision problem: a
greedily found clique of the core is precolored with distinct colors, and
a fresh color may only be introduced as the lowest unused one.  Vertex
choice is smallest remaining domain (equivalently largest saturation),
ties to the lowest index, so runs are deterministic.

Criticality proofs and collapsibility tests split G along 2-cuts first
(:func:`_split`).  Take a 2-cut {x, y} of the k-core with sides A and B:
A and B share only x and y, and no edge joins A - B to B - A.  Then G is
k-colorable exactly when x and y can be alike on both sides (x and y
identified) or different on both sides (the edge xy added), and a
coloring of each side glues to one of G after a permutation of the second
side's colors.  The sides split again, and a core with no 2-cut is a leaf
for the search above, so a ``None`` still rests on exhaustive searches,
and every glued coloring is checked proper.  A 5-Ore graph splits down to
its K5 blocks, which its clique refutes without a search node.

No side is copied out as a graph of its own.  A side is a vertex mask
over its parent's rows as :func:`~orelab.graph_core.paired` gives them,
with the bits of xy set, or with y's row merged into x's and y off the
mask; peel, 2-cut scan and search read the rows masked to it and write
its coloring into the caller's color list.  They break ties by lowest
index, as on a copy numbered in ascending order, so a proof reaches the
cuts, leaves and colorings such copies would.

Criticality needs a 4-coloring of G - e for every edge e.  Rather than one
exact search per edge, a solved G - uv seeds a witness walk: the coloring
gives u and v one color, and recoloring an endpoint x to a color b that
exactly one neighbor w carries yields a proper coloring of G - xw.  Each
walked coloring is re-checked proper before it certifies its edge, and
only edges the walk never reaches are solved exactly.

Extracting a 5-critical subgraph is the same edge scan, deleting each
edge whose removal leaves the graph non-4-colorable.  The scan works on
the 4-core: every refuted graph is cut down to its 4-core, which holds
every 5-critical subgraph, and the edges dropped that way are never
solved.  It ends on the certificates it already holds, the 4-core of the
last refutation and one walked or solved coloring per kept edge, rather
than a second criticality proof.

Seeded colorings (:func:`seeded_coloring`) come from the same search: the
exact search's coloring of a seeded relabeling of G[R], with the colors
renamed by a seeded permutation.  The search above is the only one here.
"""

from __future__ import annotations

import random

from .graph_core import (
    Graph,
    InvariantViolation,
    _trusted,
    bits,
    connected_components,
    induced_subgraph,
    mask_of,
    paired,
    relabel,
    two_cuts,
    without_edges,
)


def _peel(g: Graph, k: int, mask: int) -> tuple[int, list[int]]:
    """The k-core of g[mask] as a mask, and the vertices of ``mask``
    outside it in peel order.

    Sweeps the vertices in ascending index order, deleting each one with
    fewer than k neighbors left, until a sweep deletes none.  A peeled
    vertex has fewer than k neighbors among the core and the vertices
    peeled after it.
    """
    adj = g.adj
    core = mask
    order: list[int] = []
    swept = True
    while swept:
        swept = False
        for v in bits(core):
            if (adj[v] & core).bit_count() < k:
                core ^= 1 << v
                order.append(v)
                swept = True
    return core, order


def _search(g: Graph, k: int, mask: int, color: list[int]) -> bool:
    """Exhaustive search for a k-coloring of g[mask], written into ``color``
    in place; False when there is none.  It reads g's rows masked to
    ``mask``, so it makes the choices a search on a copy of g[mask] would."""
    n, adj = g.n, g.adj
    # Seed at a lowest-index vertex of maximum core degree, grow by
    # maximum degree inside the common neighborhood.  Any deterministic
    # clique works.
    start = max(bits(mask), key=lambda v: ((adj[v] & mask).bit_count(), -v))
    clique = [start]
    cand = adj[start] & mask
    while cand:
        u = max(bits(cand), key=lambda v: ((adj[v] & cand).bit_count(), -v))
        clique.append(u)
        cand &= adj[u]
    if len(clique) > k:
        return False
    full = (1 << k) - 1
    domain = [full] * n
    uncolored = mask

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
        assign(v, i + 1, [])  # maximal in mask, so no vertex loses all k colors

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

    found = dfs(len(clique))
    # dfs refers to itself; dropping the name frees the search state now
    # instead of at the next garbage collection
    del dfs
    return found


def _peel_solve_check(G: Graph, mask: int, k: int, solve, color: list[int]) -> bool:
    """Write a k-coloring of G[mask] into ``color``, or return False: peel
    G[mask] once, color its k-core by ``solve(G, k, core, color)`` (False
    when it has none), give the peeled vertices the lowest free color in
    reverse peel order, and check the coloring on ``mask``."""
    core, peeled = _peel(G, k, mask)
    if core and not solve(G, k, core, color):
        return False
    if peeled:
        adj = G.adj
        # color-class masks, with room for a color k + 1, which only a wrong
        # peel gives and the check below refuses
        classes = [0] * (k + 2)
        for v in bits(core):
            classes[color[v]] |= 1 << v
        for v in reversed(peeled):
            c = 1
            while c <= k and classes[c] & adj[v]:
                c += 1
            color[v] = c
            classes[c] |= 1 << v
    _check_proper(G, mask, color, k)
    return True


def is_k_colorable(G: Graph, k: int) -> tuple[int, ...] | None:
    """A proper k-coloring as a tuple of colors 1..k, or None.

    G is k-colorable exactly when its k-core (what is left after repeatedly
    deleting vertices with fewer than k neighbors) is, and only the core is
    searched, in place, one component of G at a time.  ``None`` is an
    exhaustive-search verdict on the core, not a heuristic one.  The peeled
    vertices then take the lowest free color in reverse peel order, and
    every returned coloring is re-checked for properness before leaving.
    """
    if k < 1:
        raise ValueError("k must be positive")
    color = [0] * G.n
    if not _peel_solve_check(G, (1 << G.n) - 1, k, _search_components, color):
        return None
    return tuple(color)


def _search_components(G: Graph, k: int, core: int, color: list[int]) -> bool:
    """:func:`_search` on the core's part in each component of G, which G's
    peel leaves as a peel of that component alone would."""
    for comp in connected_components(G):
        part = core & comp
        if part and not _search(G, k, part, color):
            return False
    return True


def _by_cuts(G: Graph, mask: int, k: int, color: list[int]) -> bool:
    """:func:`is_k_colorable`'s verdict on G[mask], reached through the
    2-cuts of its k-core (:func:`_cut_or_search`); a coloring is written
    into ``color`` on ``mask``."""
    return _peel_solve_check(G, mask, k, _cut_or_search, color)


def _cut_or_search(G: Graph, k: int, core: int, color: list[int]) -> bool:
    """Split G[core] at its first 2-cut (:func:`_split`), or search it in
    place when it has none.  A core with no 2-cut is connected."""
    cut = next(two_cuts(G, core), None)
    if cut is None:
        return _search(G, k, core, color)
    return _split(G, core, k, cut, color)


def _split(G: Graph, mask: int, k: int, cut, color: list[int]) -> bool:
    """Write a k-coloring of G[mask] into ``color`` from the sides of the
    2-cut ``cut``, or return False when there is none.

    ``cut`` is ``(x, y, parts)`` as :func:`two_cuts` yields it for
    ``mask``; side A is x, y and the first part, side B is x, y and the
    other parts.  G[mask] is k-colorable exactly when A + xy and B + xy
    are (x and y different) or, if xy is not an edge, A/xy and B/xy are (x
    and y identified).  Each side, a mask over the rows
    :func:`~orelab.graph_core.paired` gives its case, goes through
    :func:`_by_cuts`, the smaller first, and a side with no k-coloring
    settles its case.  The second side's colors are permuted to match the
    first's on x and y, and the glued coloring is checked on ``mask``.
    """
    x, y, parts = cut
    ends = 1 << x | 1 << y
    sides = sorted((parts[0] | ends, mask & ~parts[0]), key=int.bit_count)
    # x and y different first: over is_5_critical on the 549 n = 17 Ore
    # classes this order makes 2,478 splits and 2,464 leaf solves, the
    # other 3,521 and 3,889
    for alike in (False, True):
        if alike and G.has_edge(x, y):
            continue
        side = paired(G, x, y, alike)
        first, second = (m & ~(1 << y) for m in sides) if alike else sides
        # with x and y alike, y is off both masks and takes x's color
        twin = x if alike else y
        if not _by_cuts(side, first, k, color):
            continue
        cx, cy = color[x], color[twin]
        if not _by_cuts(side, second, k, color):
            continue
        perm = _glue_permutation(k, {color[x]: cx, color[twin]: cy})
        for v in bits(second):
            color[v] = perm[color[v]]
        color[y] = cy
        _check_proper(G, mask, color, k)
        return True
    return False


def _glue_permutation(k: int, moves: dict[int, int]) -> list[int]:
    """A permutation of the colors 1..k, as a list indexed by color, that
    sends each key of ``moves`` to its value; the other colors go to the
    colors left over, in ascending order."""
    rest = iter(c for c in range(1, k + 1) if c not in moves.values())
    return [0] + [moves[c] if c in moves else next(rest) for c in range(1, k + 1)]


def _check_proper(G: Graph, mask: int, colors: list[int] | tuple[int, ...], k: int):
    """Check that ``colors`` gives each vertex of ``mask`` a color 1..k and
    the two ends of no edge of G[mask] one color."""
    # range lists a mask of 0..j-1, such as all of G, faster than bits
    vs = bits(mask) if mask & (mask + 1) else range(mask.bit_length())
    classes = [0] * (k + 1)
    for v in vs:
        c = colors[v]
        if not 1 <= c <= k:
            raise InvariantViolation("solver produced an out-of-range color")
        classes[c] |= 1 << v
    adj = G.adj
    for v in vs:
        if adj[v] & classes[colors[v]]:
            raise InvariantViolation("solver produced an improper coloring")


def seeded_coloring(G: Graph, R: int, k: int, rng: random.Random) -> dict[int, int] | None:
    """Some proper k-coloring of G[R] for the mask R, as a dict from R's
    vertices to colors, chosen by a seeded relabeling of G[R].

    The exact search colors G[R] with its vertices shuffled by ``rng``, and
    the colors are renamed by an ``rng``-drawn permutation of 1..k.  Used
    to sample varied colorings for extension records; same rng state, same
    answer.  Complete: returns None only when no coloring exists.
    """
    order = bits(R)
    rng.shuffle(order)
    H = relabel(G, order)
    solved = is_k_colorable(H, k)
    if solved is None:
        return None
    names = rng.sample(range(1, k + 1), k)
    colors = tuple(names[c - 1] for c in solved)
    _check_proper(H, (1 << H.n) - 1, colors, k)
    return dict(zip(order, colors))


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


def _walk(G: Graph, colors: tuple[int, ...], u: int, v: int, done: list[int],
          certs: dict | None = None):
    """Certify uv, and every edge reachable by recoloring single vertices.

    ``colors`` must be a proper 4-coloring of G - uv with u and v alike,
    which shows G - uv is 4-colorable.  If an endpoint x of the current
    conflict edge has exactly one neighbor w of color b, recoloring x to b
    gives a proper 4-coloring of G - xw, which certifies xw in turn.  The
    walk never revisits an edge already set in ``done`` (``done[x]`` is the
    mask of x's certified neighbors) and marks every edge it certifies.
    With ``certs`` given, each certifying coloring is kept there under its
    edge (lower endpoint first).
    """
    adj = G.adj
    stack = [(colors, _certify(G, colors, u, v), u, v)]
    done[u] |= 1 << v
    done[v] |= 1 << u
    while stack:
        colors, cls, p, q = stack.pop()
        if certs is not None:
            certs[min(p, q), max(p, q)] = colors
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
    degree prefilter below is sound; it rejects every graph with n <= 4.

    Once G is proved not 4-colorable, G - e is solved exactly only for
    edges not yet certified; each solution seeds a witness walk
    (:func:`_walk`) that certifies further edges by single-vertex
    recolorings, each walked coloring re-checked proper.  Most edges of a
    critical graph are certified by the walk, and a ``None`` from any
    exact solve still refutes criticality.

    When G has a 2-cut, the proof of G and every G - e solve split at the
    first one (:func:`_split`): G is its own 4-core, and a 2-cut of G
    separates G - e as well.
    """
    if any(G.degree(v) < 4 for v in range(G.n)):
        return False
    cut = next(two_cuts(G), None)

    def solve(g: Graph):
        if cut is None:
            return is_k_colorable(g, 4)
        color = [0] * g.n
        return tuple(color) if _split(g, (1 << g.n) - 1, 4, cut, color) else None

    if solve(G) is not None:
        return False
    done = [0] * G.n
    for u, v in G.edges():
        if done[u] >> v & 1:
            continue
        colors = solve(without_edges(G, [(u, v)]))
        if colors is None:
            return False
        _walk(G, colors, u, v, done)
    return True


def _four_core(G: Graph) -> Graph:
    """G with every edge outside its 4-core deleted; vertices are kept."""
    core, _ = _peel(G, 4, (1 << G.n) - 1)
    return _trusted(G.n, [row & core if core >> v & 1 else 0 for v, row in enumerate(G.adj)])


def extract_5_critical(G: Graph) -> tuple[Graph, tuple[int, ...]]:
    """A 5-critical subgraph W of a non-4-colorable graph, and ``kept``.

    The plain scan visits edges once in descending index order and deletes
    any edge whose removal keeps the graph non-4-colorable; colorability is
    monotone under further deletion, so one pass reaches an edge-minimal
    non-4-colorable graph.  Isolated vertices are dropped at the end, and
    W is induced on the rest: ``kept[i]`` is W's vertex i in G, ascending.

    The scan here gives the same graph with fewer exact solves.  W has
    minimum degree at least 4 on its non-isolated vertices, so W lies in
    the 4-core core(X) of every graph X the plain scan passes through, and
    X is 4-colorable exactly when core(X) is (see :func:`is_k_colorable`).
    So the scan starts from core(G), and after every refutation cur becomes
    the refuted graph's 4-core.  Throughout, core(X) <= cur <= X: every
    attempt cur - uv sits between core(X - uv) and X - uv and gets the
    plain scan's verdict, and an edge no longer in cur is one the plain
    scan deletes without changing that verdict, so it is skipped unsolved.

    A necessary edge seeds the witness walk of :func:`is_5_critical`.  A
    coloring of cur - f stays proper as later deletions shrink cur, so
    every edge the walk certifies is kept without a solve of its own.

    The scan closes on the certificates it holds instead of re-proving
    criticality: the final graph is the 4-core of the last graph an
    exhaustive search refuted (of G, if nothing went), so it is not
    4-colorable and every kept vertex has degree at least 4, which is
    checked; and every kept edge xw has a stored coloring, re-checked to be
    proper on the final graph minus xw.
    """
    if is_k_colorable(G, 4) is not None:
        raise ValueError("graph is 4-colorable; nothing to extract")
    # cur is only ever replaced by the 4-core of a graph proved not
    # 4-colorable
    cur = _four_core(G)
    done = [0] * cur.n
    certs: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v in G.edges()[::-1]:
        if not (cur.adj[u] & ~done[u]) >> v & 1:
            continue
        attempt = without_edges(cur, [(u, v)])
        colors = is_k_colorable(attempt, 4)
        if colors is None:
            cur = _four_core(attempt)
        else:
            _walk(cur, colors, u, v, done, certs)
    for u, v in cur.edges():
        colors = certs.pop((u, v), None)
        if colors is None:
            raise InvariantViolation(f"extraction kept edge ({u},{v}) with no certificate")
        _certify(cur, colors, u, v)
    if certs:
        raise InvariantViolation("extraction holds a certificate for a deleted edge")
    kept = tuple(v for v in range(cur.n) if cur.degree(v) > 0)
    if any(cur.degree(v) < 4 for v in kept):
        raise InvariantViolation("extraction kept a vertex of degree below 4")
    return induced_subgraph(cur, mask_of(kept)), kept


def boundary(G: Graph, R: int) -> int:
    """The vertices of the mask R with at least one neighbor outside R."""
    return mask_of(v for v in bits(R) if G.adj[v] & ~R)


def is_collapsible(G: Graph, R: int) -> bool:
    """Does every 4-coloring of G[R] color the boundary monochromatically?

    Equivalent formulation, and the one actually checked: the boundary is
    independent and every boundary pair is identifiable in R; a single-vertex
    boundary is collapsible by convention.  Each pair test, G[R] plus the
    pair's edge (the mask R over G's rows with the pair's bits set, by
    :func:`~orelab.graph_core.paired`), is solved through its 2-cuts
    (:func:`_by_cuts`), which checks any coloring that splits the pair
    proper.
    """
    if R.bit_count() < 5:
        raise ValueError("R must have at least 5 vertices")
    if R.bit_count() >= G.n:
        raise ValueError("R must be a proper subset of the vertices")
    if is_k_colorable(induced_subgraph(G, R), 4) is None:
        raise ValueError("G[R] must be 4-colorable")
    bnd = bits(boundary(G, R))
    if not bnd:
        raise ValueError("R has empty boundary")
    # adjacent boundary vertices always split
    color = [0] * G.n
    return not any(
        G.has_edge(u, v) or _by_cuts(paired(G, u, v, False), R, 4, color)
        for i, u in enumerate(bnd)
        for v in bnd[i + 1 :]
    )
