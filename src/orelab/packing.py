"""Weighted clique packings and the maximum independent cover number.

The packing number maximizes, over families of vertex-disjoint triangles
(weight 1) and K4s (weight 2), the total weight.  Solved exactly by branch
and bound: branch on the lowest-index uncovered vertex, try every piece
containing it, then try skipping it.  Every other piece through that
vertex holds a lower vertex, already covered or skipped, so the pieces
are listed once, each under its lowest vertex, in lexicographic order.
The admissible bound uses the best possible rate of 2 per 4 fresh
vertices, plus 1 when exactly 3 remain, and counts only vertices that lie
in some piece: the search starts from those, never from one that no
piece can cover.  A bound that never undercuts a subtree's best weight
prunes only subtrees without a strict improvement, so the incumbent
changes at the same nodes as in the search from every vertex, and the
witness is the same.

The pieces are listed once per graph, in a piece table
(:func:`piece_table`), and :func:`best_packing` searches the graph induced
on any vertex mask from that table.  The pieces of G[S] are exactly the
pieces of G inside S, and relabeling S in ascending order keeps their
lexicographic order.  The search skips a piece that leaves S as it skips
one that meets a covered vertex, and starts from the vertices of S that
lie in a piece inside S, so it visits the nodes a search on a copy of
G[S] would: the same value, and the same witness in G's labels.  So an
extension record prices its subsets of a host, or of its extender, from
that graph's one table.

``mic`` maximizes the degree sum over independent sets; it feeds the edge
lower bound 2|E| >= 3|V| + mic used by the discharging audit.
"""

from __future__ import annotations

from .graph_core import Graph, InvariantViolation, mask_of


def piece_table(G: Graph) -> list[list[tuple[int, int, tuple[int, ...]]]]:
    """G's triangles and K4s, each as (mask, weight, ascending vertices),
    listed under their lowest vertex; a K4 follows the triangle it extends,
    so each list is in lexicographic order."""
    adj = G.adj
    by_low: list[list[tuple[int, int, tuple[int, ...]]]] = []
    for u in range(G.n):
        row: list[tuple[int, int, tuple[int, ...]]] = []
        # each walk consumes its mask upward, so what is left of it after
        # taking a vertex is the part above that vertex
        later = adj[u] >> (u + 1) << (u + 1)
        while later:
            vbit = later & -later
            later ^= vbit
            v = vbit.bit_length() - 1
            common = later & adj[v]
            while common:
                wbit = common & -common
                common ^= wbit
                w = wbit.bit_length() - 1
                tri = 1 << u | vbit | wbit
                row.append((tri, 1, (u, v, w)))
                fourth = common & adj[w]
                while fourth:
                    xbit = fourth & -fourth
                    fourth ^= xbit
                    row.append((tri | xbit, 2, (u, v, w, xbit.bit_length() - 1)))
        by_low.append(row)
    return by_low


def best_packing(
    G: Graph, table: list, mask: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact packing number of G[mask] and a checked witness in G's labels,
    searched over G's ``table`` from :func:`piece_table`.

    Deterministic: pieces are tried in lexicographic order and only strict
    improvements replace the incumbent, so the witness is reproducible.
    """
    cover = 0
    for row in table:
        for pmask, _, _ in row:
            if not pmask & ~mask:
                cover |= pmask
    best: list = [0, ()]
    _pack(cover, 0, [], table, best)
    best_w, best_pieces = best
    _check_packing(G, best_pieces, best_w, mask)
    return best_w, best_pieces


def t_number(G: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact packing number and a checked witness: disjoint triangles and
    K4s, each an ascending vertex tuple, whose weights sum to it."""
    return best_packing(G, piece_table(G), (1 << G.n) - 1)


def _pack(free: int, cur: int, chosen: list, by_low: list, best: list) -> None:
    """The search below one node: ``free`` holds the uncovered vertices
    that still lie in some piece, ``best`` the incumbent [weight, pieces]."""
    if cur > best[0]:
        best[0], best[1] = cur, tuple(chosen)
    size = free.bit_count()
    # at best 2 per 4 fresh vertices, plus 1 when exactly 3 remain
    if cur + 2 * (size // 4) + (size % 4 == 3) <= best[0]:
        return
    low = free & -free
    for pmask, w, verts in by_low[low.bit_length() - 1]:
        if pmask & ~free:
            continue
        chosen.append(verts)
        _pack(free & ~pmask, cur + w, chosen, by_low, best)
        chosen.pop()
    _pack(free & ~low, cur, chosen, by_low, best)


def _check_packing(G: Graph, pieces, weight: int, mask: int):
    used = 0
    total = 0
    for p in pieces:
        pm = mask_of(p)
        if pm & used:
            raise InvariantViolation("packing pieces overlap")
        if pm & ~mask:
            raise InvariantViolation("packing piece leaves the vertex set")
        used |= pm
        for i, u in enumerate(p):
            for v in p[i + 1 :]:
                if not G.has_edge(u, v):
                    raise InvariantViolation("packing piece is not a clique")
        total += {3: 1, 4: 2}[len(p)]
    if total != weight:
        raise InvariantViolation("packing weight mismatch")


def mic(G: Graph) -> tuple[int, tuple[int, ...]]:
    """Maximum total degree over independent sets, and a checked witness:
    an independent set, ascending, whose degrees sum to it.

    Branch and bound over the vertex bitmask: pick the heaviest available
    vertex, take it or leave it, prune when the remaining weight cannot
    beat the incumbent.
    """
    weights = [G.degree(v) for v in range(G.n)]
    order = sorted(range(G.n), key=lambda v: (-weights[v], v))
    best_val = -1
    best_set: tuple[int, ...] = ()

    def rec(idx: int, avail: int, cur: int, chosen: list[int]):
        nonlocal best_val, best_set
        if cur > best_val:
            best_val = cur
            best_set = tuple(sorted(chosen))
        rest = sum(weights[v] for v in order[idx:] if avail >> v & 1)
        if cur + rest <= best_val:
            return
        for i in range(idx, len(order)):
            v = order[i]
            if not avail >> v & 1:
                continue
            chosen.append(v)
            rec(i + 1, avail & ~(G.adj[v] | 1 << v), cur + weights[v], chosen)
            chosen.pop()
            avail &= ~(1 << v)
            rest -= weights[v]
            if cur + rest <= best_val:
                return

    rec(0, (1 << G.n) - 1, 0, [])
    smask = mask_of(best_set)
    for v in best_set:
        if G.adj[v] & smask:
            raise InvariantViolation("mic witness is not independent")
    if sum(weights[v] for v in best_set) != best_val:
        raise InvariantViolation("mic witness value mismatch")
    return best_val, best_set
