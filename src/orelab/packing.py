"""Weighted clique packings and the maximum independent cover number.

The packing number maximizes, over families of vertex-disjoint triangles
(weight 1) and K4s (weight 2), the total weight.  Solved exactly by branch
and bound: branch on the lowest-index uncovered vertex, try every piece
containing it, then try skipping it.  The admissible bound uses the best
possible rate of 2 per 4 fresh vertices, plus 1 when exactly 3 remain.

``mic`` maximizes the degree sum over independent sets; it feeds the edge
lower bound 2|E| >= 3|V| + mic used by the discharging audit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import Graph, InvariantViolation, bits, mask_of


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
    out = []
    for u, v, w in triangles(G):
        common = G.adj[u] & G.adj[v] & G.adj[w] >> (w + 1) << (w + 1)
        for x in bits(common):
            out.append((u, v, w, x))
    return out


@dataclass(frozen=True)
class Packing:
    pieces: tuple[tuple[int, ...], ...]
    weight: int


def _pieces(G: Graph) -> list[tuple[int, int, tuple[int, ...]]]:
    ps = [(mask_of(t), 1, t) for t in triangles(G)]
    ps += [(mask_of(q), 2, q) for q in four_cliques(G)]
    ps.sort(key=lambda p: p[2])
    return ps


def t_number(G: Graph) -> tuple[int, Packing]:
    """Exact packing number with a witnessing family.

    Deterministic: pieces are tried in lexicographic order and only strict
    improvements replace the incumbent, so the witness is reproducible.
    """
    pieces = _pieces(G)
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
    _check_packing(G, best_pieces, best_w)
    return best_w, Packing(best_pieces, best_w)


def _check_packing(G: Graph, pieces, weight: int):
    used = 0
    total = 0
    for p in pieces:
        pm = mask_of(p)
        if pm & used:
            raise InvariantViolation("packing pieces overlap")
        used |= pm
        for i, u in enumerate(p):
            for v in p[i + 1 :]:
                if not G.has_edge(u, v):
                    raise InvariantViolation("packing piece is not a clique")
        total += {3: 1, 4: 2}[len(p)]
    if total != weight:
        raise InvariantViolation("packing weight mismatch")


def t_number_oracle(G: Graph) -> int:
    """Independent exact packing number by exhaustive recursion.

    No bound, no pruning: for the lowest uncovered vertex, try every piece
    through it and also skipping it, and take the max.  Only for n <= 14;
    this is the reference the solver is tested against.
    """
    if G.n > 14:
        raise ValueError("oracle limited to n <= 14")
    pieces = _pieces(G)
    by_vertex: list[list[int]] = [[] for _ in range(G.n)]
    weights: dict[int, int] = {}
    for pmask, w, _ in pieces:
        weights[pmask] = max(weights.get(pmask, 0), w)
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


@dataclass(frozen=True)
class MicWitness:
    independent_set: tuple[int, ...]
    value: int


def mic(G: Graph) -> tuple[int, MicWitness]:
    """Maximum total degree over independent sets, with a witness set.

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
    witness = MicWitness(best_set, best_val)
    smask = mask_of(best_set)
    for v in best_set:
        if G.adj[v] & smask:
            raise InvariantViolation("mic witness is not independent")
    if sum(weights[v] for v in best_set) != best_val:
        raise InvariantViolation("mic witness value mismatch")
    return best_val, witness
