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
lower bound 2|E| >= 3|V| + mic used by the discharging audit.  Its search
bounds a subtree by a greedy clique cover of the available vertices, the
weighted complement form of the coloring bound in Tomita and Seki's
maximum-clique search (DMTCS 2003).  Only its value reaches the corpus and
the audit rows; the witness is checked and returned beside it.
"""

from __future__ import annotations

from .graph_core import Graph, InvariantViolation, bits, mask_of, relabel


def piece_table(G: Graph) -> list[list[tuple[int, int]]]:
    """G's triangles and K4s, each as (mask, weight), listed under their
    lowest vertex; a K4 follows the triangle it extends, so each list is in
    lexicographic order."""
    adj = G.adj
    by_low: list[list[tuple[int, int]]] = []
    for u in range(G.n):
        row: list[tuple[int, int]] = []
        # each walk consumes its mask upward, so what is left of it after
        # taking a vertex is the part above that vertex
        later = adj[u] >> (u + 1) << (u + 1)
        while later:
            vbit = later & -later
            later ^= vbit
            common = later & adj[vbit.bit_length() - 1]
            while common:
                wbit = common & -common
                common ^= wbit
                tri = 1 << u | vbit | wbit
                row.append((tri, 1))
                fourth = common & adj[wbit.bit_length() - 1]
                while fourth:
                    xbit = fourth & -fourth
                    fourth ^= xbit
                    row.append((tri | xbit, 2))
        by_low.append(row)
    return by_low


def best_packing(G: Graph, table: list, mask: int) -> tuple[int, tuple[int, ...]]:
    """Exact packing number of G[mask] and a checked witness in G's labels,
    the masks of its pieces, searched over G's ``table`` from
    :func:`piece_table`.

    Deterministic: pieces are tried in lexicographic order and only strict
    improvements replace the incumbent, so the witness is reproducible.
    """
    cover = 0
    for row in table:
        for pmask, _ in row:
            if not pmask & ~mask:
                cover |= pmask
    best: list = [0, ()]
    _pack(cover, 0, [], table, best)
    best_w, best_pieces = best
    _check_packing(G, best_pieces, best_w, mask)
    return best_w, best_pieces


def t_number(G: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact packing number and a checked witness: disjoint triangles and
    K4s, each a vertex mask, whose weights sum to it."""
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
    for pmask, w in by_low[low.bit_length() - 1]:
        if pmask & ~free:
            continue
        chosen.append(pmask)
        _pack(free & ~pmask, cur + w, chosen, by_low, best)
        chosen.pop()
    _pack(free & ~low, cur, chosen, by_low, best)


def _check_packing(G: Graph, pieces, weight: int, mask: int):
    used = 0
    total = 0
    for pm in pieces:
        if pm & used:
            raise InvariantViolation("packing pieces overlap")
        if pm & ~mask:
            raise InvariantViolation("packing piece leaves the vertex set")
        used |= pm
        for u in bits(pm):
            if G.adj[u] & pm != pm & ~(1 << u):
                raise InvariantViolation("packing piece is not a clique")
        size = pm.bit_count()
        if size not in (3, 4):
            raise InvariantViolation("packing piece is neither a triangle nor a K4")
        total += size - 2
    if total != weight:
        raise InvariantViolation("packing weight mismatch")


def mic(G: Graph) -> tuple[int, int]:
    """Maximum total degree over independent sets, and a checked witness:
    the mask of an independent set whose degrees sum to it.

    Branch and bound: take the heaviest available vertex, or leave it.  The
    bound covers the available vertices by cliques, greedily heavy-first,
    and adds each clique's heaviest weight, as an independent set holds at
    most one vertex of a clique.  The search runs on G relabeled
    heavy-first, ties to the lower index, so a mask's lowest bit is its
    heaviest vertex.
    """
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    adj = relabel(G, order).adj
    weights = [row.bit_count() for row in adj]
    best = [-1, 0]

    def rec(avail: int, cur: int, chosen: int):
        if cur > best[0]:
            best[0], best[1] = cur, chosen
        while avail:
            bound, rest = cur, avail
            while rest:
                # one clique of the cover: the heaviest vertex left, then
                # the heaviest one adjacent to all taken, while one is
                v = (rest & -rest).bit_length() - 1
                bound += weights[v]
                rest ^= 1 << v
                cand = rest & adj[v]
                while cand:
                    u = (cand & -cand).bit_length() - 1
                    rest ^= 1 << u
                    cand &= adj[u]
            if bound <= best[0]:
                return
            low = avail & -avail
            v = low.bit_length() - 1
            rec(avail & ~adj[v] ^ low, cur + weights[v], chosen | low)
            avail ^= low

    rec((1 << G.n) - 1, 0, 0)
    best_val, best_set = best[0], mask_of(order[i] for i in bits(best[1]))
    if any(G.adj[v] & best_set for v in bits(best_set)):
        raise InvariantViolation("mic witness is not independent")
    if sum(G.degree(v) for v in bits(best_set)) != best_val:
        raise InvariantViolation("mic witness value mismatch")
    return best_val, best_set
