"""Exact potential arithmetic and the extension machinery.

Two potentials drive everything.  The classical one is p_ky = 9n - 4m.
The refined one perturbs it by eps = 1/21 per vertex and charges delta =
8/21 per unit of clique-packing weight:

    p = (9 + eps) n - 4 m - delta T.

Every constant in sight is an integer multiple of 1/21, so each refined
potential, core cost and slack is carried as a plain ``int``, its
numerator over a fixed denominator of 21; there is no floating point
anywhere.

The identification construction takes a proper 4-coloring phi of G[R]
for a proper subset R, which it reads from phi's keys, contracts each
color class to a single vertex, adds a K4 on the four class vertices, and
keeps the rest of G.  For a 5-critical G the identified graph is never
4-colorable, so it contains a 5-critical subgraph W; the pair (W, core =
W's class vertices) is a critical extension of R, and the inequalities
relating the potentials of R, W, and the expanded set R' are what the
fuzzing campaigns check.

The theorem-shaped verifiers read a graph's :class:`Facts`: its corpus
key, criticality, Ore recipe, packing number and mic, each computed once
per graph and shared by every check that needs it.
"""

from __future__ import annotations

import hashlib
import random
from math import comb

from . import coloring as col
from . import ore
from . import packing
from .graph_core import (
    Graph,
    InvariantViolation,
    Record,
    _image,
    bits,
    canonical_form,
    mask_of,
)
from .report import Report


# numerators over 21
EPS = 1        # 1/21
DELTA = 8      # 8 * eps
P_GAP = 48     # 6 * delta


def p_ky(G: Graph) -> int:
    """The classical potential 9n - 4m (an integer)."""
    return 9 * G.n - 4 * G.m


def p_ky_set(G: Graph, R: int) -> int:
    """p_ky(G[R]) for the mask R: 9|R| - 4e(R), with 2e(R) the degree sum
    in R."""
    return 9 * R.bit_count() - 2 * sum((G.adj[v] & R).bit_count() for v in bits(R))


def potential(G: Graph, t: int) -> int:
    """(9 + eps) n - 4 m - delta t over 21, exactly, for t = T(G) the
    packing number: 21 p_ky + n - 8 t."""
    return 21 * p_ky(G) + G.n - 8 * t


def potentials_inside(G: Graph, table: list, R: int) -> tuple[int, int]:
    """p_ky(G[R]) and p(G[R]) over 21 for the mask R, with t(G[R]) searched
    over G's piece ``table``: p = 21 p_ky + |R| - 8 t."""
    ky = p_ky_set(G, R)
    t, _ = packing.best_packing(G, table, R)
    return ky, 21 * ky + R.bit_count() - 8 * t


# p_ky of K_x, 9x - 4 C(x,2), charged for a core of size x
KY_CORE_COST = {1: 9, 2: 14, 3: 15, 4: 12}


def f_core(x: int) -> int:
    """Cost charged for a core of size x over 21: p_ky(K_x) + x eps."""
    if not 1 <= x <= 4:
        raise ValueError("core size must be between 1 and 4")
    return 21 * KY_CORE_COST[x] + x


def phi_identify(G: Graph, phi: dict[int, int]) -> tuple[Graph, tuple[int, ...]]:
    """Contract the color classes of phi, a 4-coloring of G[R] for R the
    keys of phi, and add a K4 on them.

    Returns H and ``names``, what each vertex of H is in G: color c's class
    vertex is vertex c - 1, named -c, and G's vertices outside R follow in
    ascending order, named by themselves.  All four class vertices are
    materialized even when a class is empty; an empty class yields a
    degree-3 vertex seeing only the K4 and can never participate in a
    5-critical subgraph.
    """
    if len(phi) < 5:
        raise ValueError("R must have at least 5 vertices")
    if len(phi) >= G.n or min(phi) < 0 or max(phi) >= G.n:
        raise ValueError("R must be a proper subset of the vertices")
    R = mask_of(phi)
    for v in bits(R):
        if phi[v] not in (1, 2, 3, 4):
            raise ValueError(f"color {phi[v]} of vertex {v} outside 1..4")
        for u in bits(G.adj[v] & R):
            if phi[u] == phi[v]:
                raise ValueError(f"phi is not proper on G[R]: edge ({u},{v})")
    outside = bits(((1 << G.n) - 1) & ~R)
    # R onto its class vertices, the rest after them; phi is proper, so no loop
    at = {v: c - 1 for v, c in phi.items()} | {v: 4 + i for i, v in enumerate(outside)}
    rows = [0b1111 & ~(1 << i) for i in range(4)] + [0] * len(outside)
    return _image(G, (1 << G.n) - 1, at, rows), (-1, -2, -3, -4, *outside)


class Facts(Record):
    """What the corpus and the verifiers ask of one graph, each answered once.

    ``key`` is the graph's corpus key, the first 16 hex digits of the
    sha256 of its canonical key; ``recipe`` is an Ore recipe or None, found
    from the same canonical form; ``t`` is the packing number and ``mic``
    the maximum independent cover number.
    """

    __slots__ = ("graph", "key", "critical", "recipe", "t", "mic")
    graph: Graph
    key: str
    critical: bool
    recipe: ore.OreRecipe | None
    t: int
    mic: int

    @staticmethod
    def of(G: Graph) -> "Facts":
        canonical = canonical_form(G)
        return Facts(
            G,
            hashlib.sha256(canonical[0]).hexdigest()[:16],
            col.is_5_critical(G),
            ore.is_5_ore(G, canonical),
            packing.t_number(G)[0],
            packing.mic(G)[0],
        )

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def p(self) -> int:
        """The refined potential over 21, from the stored packing number."""
        return potential(self.graph, self.t)


class ExtensionRecord(Record):
    """One critical extension: who extended, with what, and how cleanly.

    ``extender`` is a 5-critical subgraph of the identified graph, and
    ``labels[i]`` is what its vertex i is in the host: -c for color c's
    class vertex, the host vertex itself otherwise.  ``core_classes``
    lists the colors whose class vertices survived into the extender.
    ``subset`` (R) and ``expanded`` (R') are vertex masks of the host.
    """

    __slots__ = ("host", "subset", "identified", "extender", "labels", "core_classes",
                 "expanded", "complete", "spanning", "empty_classes")
    host: Graph
    subset: int
    identified: Graph
    extender: Graph
    labels: tuple[int, ...]
    core_classes: tuple[int, ...]
    expanded: int
    complete: bool
    spanning: bool
    empty_classes: tuple[int, ...]

    @property
    def core_size(self) -> int:
        return len(self.core_classes)


def critical_extension(G: Graph, phi: dict[int, int]) -> ExtensionRecord:
    """Extract a critical extension of R, the keys of phi, along phi.

    The identified graph of a proper subset of a 5-critical graph is never
    4-colorable; a 4-coloring here would be a structural impossibility and
    raises :class:`InvariantViolation` rather than returning.
    """
    H, names = phi_identify(G, phi)
    R = mask_of(phi)
    try:
        W, kept = col.extract_5_critical(H)
    except ValueError:
        raise InvariantViolation(
            "identified graph of a proper subset is 4-colorable; "
            "the host graph cannot be 5-critical"
        ) from None
    labels = tuple(names[v] for v in kept)
    core_classes = tuple(c for c in range(1, 5) if -c in labels)
    real = [v for v in range(W.n) if labels[v] >= 0]
    expanded = mask_of(labels[v] for v in real) | R
    used = set(phi.values())
    empty = tuple(c for c in range(1, 5) if c not in used)
    core_pos = {-labels[v]: v for v in range(W.n) if labels[v] < 0}
    complete = True
    # a kept vertex must spend one extender-core edge per host neighbor in R
    for v in real:
        orig = labels[v]
        in_r = (G.adj[orig] & R).bit_count()
        in_core = sum(1 for c in core_classes if W.has_edge(v, core_pos[c]))
        if in_r > in_core:
            complete = False
    # no host edge between kept vertices may be dropped by the extender
    for i, v in enumerate(real):
        for u in real[i + 1 :]:
            if G.has_edge(labels[v], labels[u]) and not W.has_edge(v, u):
                complete = False
    # the surviving class vertices must form a clique in the extender
    for i, c in enumerate(core_classes):
        for d in core_classes[i + 1 :]:
            if not W.has_edge(core_pos[c], core_pos[d]):
                complete = False
    spanning = expanded == (1 << G.n) - 1
    return ExtensionRecord(G, R, H, W, labels, core_classes, expanded, complete, spanning, empty)


def verify_extension_inequalities(rec: ExtensionRecord, key: str, table: list) -> Report:
    """Exact slack of the three extension inequalities for one record,
    reported under the host's corpus key ``key``; ``table`` is the host's
    piece table, shared by every record of that host.

    With x = core size, R' = expanded set, W = extender:

      ky-extension:     p_ky(R') <= p_ky(R) + p_ky(W) - {9,14,15,12}[x]
      refined-extension: p(R') <= p(R) + p(W) - f(x) + delta (T(W) - T(W - core))
      coarse-extension:  p(R') <= p(R) + p(W) - 9 - eps + delta
    """
    G = rec.host
    rep = Report()
    x = rec.core_size
    if x == 0:
        raise InvariantViolation("extension with empty core")
    W = rec.extender
    ky_r, p_r = potentials_inside(G, table, rec.subset)
    ky_rp, p_rp = potentials_inside(G, table, rec.expanded)
    ky_w = p_ky(W)
    slack_ky = (ky_r + ky_w - KY_CORE_COST[x]) - ky_rp
    rep.add("ky-extension", key, slack_ky >= 0, 21 * slack_ky)
    real = mask_of(v for v in range(W.n) if rec.labels[v] >= 0)
    if not real:
        raise InvariantViolation("extender contains only class vertices")
    w_table = packing.piece_table(W)
    t_w, _ = packing.best_packing(W, w_table, (1 << W.n) - 1)
    p_w = potential(W, t_w)
    t_wc, _ = packing.best_packing(W, w_table, real)
    slack_ref = p_r + p_w - f_core(x) + DELTA * (t_w - t_wc) - p_rp
    rep.add("refined-extension", key, slack_ref >= 0, slack_ref)
    slack_coarse = p_r + p_w - 21 * 9 - EPS + DELTA - p_rp
    rep.add("coarse-extension", key, slack_coarse >= 0, slack_coarse)
    return rep


def random_extension(G: Graph, rng: random.Random) -> ExtensionRecord:
    """A seeded random extension record of a 5-critical graph.

    Picks a proper subset of size >= 5 and a random proper 4-coloring of it
    (always exists: proper subgraphs of a 5-critical graph are 4-colorable).
    """
    if G.n < 6:
        raise ValueError("graph too small to have a proper subset of size 5")
    size = rng.randint(5, G.n - 1)
    phi = col.seeded_coloring(G, mask_of(rng.sample(range(G.n), size)), 4, rng)
    if phi is None:
        raise InvariantViolation("proper subgraph of a 5-critical graph must be 4-colorable")
    return critical_extension(G, phi)


# ---------------------------------------------------------------------------
# Theorem-shaped verifiers
# ---------------------------------------------------------------------------


def verify_main_theorem(facts: Facts) -> Report:
    """Case analysis of the refined potential of a 5-critical graph.

    K5 attains exactly (105 + 5 - 16)/21 = 94/21.  Other 5-Ore graphs obey
    p <= 5 + n eps - (2 + (n-1)/4) delta.  Everything else falls to
    p <= 5 - 48/21.  Triangle-free graphs, those with t = 0 (one triangle
    is a packing of weight 1), also satisfy 84 m >= 190 n - 105.
    """
    if not facts.critical:
        raise ValueError("main-theorem verifier requires a 5-critical graph")
    G, key = facts.graph, facts.key
    rep = Report()
    p = facts.p
    if G.n == 5:
        rep.add("main-case-k5", key, p == 94, p - 94)
    elif facts.recipe is not None:
        # 5-Ore orders are 1 mod 4, so the bound is a whole numerator
        slack = 105 + G.n - DELTA * (2 + (G.n - 1) // 4) - p
        rep.add("main-case-ore", key, slack >= 0, slack)
    else:
        slack = 21 * 5 - P_GAP - p
        rep.add("main-case-other", key, slack >= 0, slack)
    if facts.t == 0:
        slack84 = 84 * G.m - (190 * G.n - 105)
        rep.add("triangle-free-edges", key, slack84 >= 0, note=f"slack={slack84}/84")
    return rep


def _low_ky_subsets(G: Graph) -> list[tuple[int, int]]:
    """Every R with 5 <= |R| < n and p_ky(R) < 12, as (mask, p_ky(R)).

    Branch and bound deciding vertices 0..n-1 in order, each in, then out;
    the list is in the order the search reaches the sets.  With C chosen
    and U undecided, every completion S = C + A has p_ky(S) >= p_ky(C) +
    sum over v in U of min(0, s(v)), where s(v) = 9 - 4|N(v)&C| - 2|N(v)&U|,
    as e(A) <= 1/2 sum over v in A of |N(v)&U|; a bound of 12 prunes.  The
    search keeps s and the sum incrementally: deciding vertex i changes s
    only at i's later neighbours, by -2 when i goes in and +2 when it goes
    out, and as N(i)&U holds exactly those, p_ky(C + i) = p_ky(C) + s(i) +
    2 deg+(i).
    """
    n = G.n
    later = [bits(G.adj[i] >> (i + 1) << (i + 1)) for i in range(n)]
    s = [9 - 2 * G.degree(v) for v in range(n)]
    out: list[tuple[int, int]] = []
    _grow_low_ky(0, 0, 0, sum(min(0, x) for x in s), n, later, s, out)
    return out


def _grow_low_ky(
    i: int, chosen: int, p: int, low: int, n: int, later: list, s: list, out: list
) -> None:
    """Decide vertex i at a node that the bound keeps (the root always is):
    ``p`` is p_ky of ``chosen``, ``low`` the sum over vertices i.. of
    min(0, s)."""
    if i == n:
        if 5 <= chosen.bit_count() < n:
            out.append((chosen, p))
        return
    si = s[i]
    ups = later[i]
    low -= min(0, si)
    # s is odd, so a step of 2 moves min(0, s) by 2 below 0, by 1 between
    # -1 and 1, and not at all above 0
    low_in = low
    for v in ups:
        x = s[v]
        s[v] = x - 2
        if x < 3:
            low_in -= 1 if x == 1 else 2
    p_in = p + si + 2 * len(ups)
    if p_in + low_in < 12:
        _grow_low_ky(i + 1, chosen | 1 << i, p_in, low_in, n, later, s, out)
    low_out = low
    for v in ups:
        x = s[v] + 2
        s[v] = x + 2
        if x < 0:
            low_out += 1 if x == -1 else 2
    if p + low_out < 12:
        _grow_low_ky(i + 1, chosen, p, low_out, n, later, s, out)
    for v in ups:
        s[v] -= 2


def verify_ore5_bounds(facts: Facts) -> Report:
    """Potential bounds around the 5-Ore class for one 5-critical graph.

    Checks p_ky <= 5, and that p_ky >= 3 exactly for 5-Ore graphs.  For
    5-Ore graphs, additionally checks every proper subset R with |R| >= 5:
    p_ky(R) < 12 must force R collapsible with p_ky(R) = 9.  The note gives
    the subsets covered, out of all of them, and how many have p_ky < 12;
    a failure names the first violating R in the enumeration's order.
    """
    if not facts.critical:
        raise ValueError("ore5 verifier requires a 5-critical graph")
    G, key = facts.graph, facts.key
    rep = Report()
    ky = p_ky(G)
    rep.add("ore5-ky-upper", key, ky <= 5, 21 * (5 - ky))
    is_ore = facts.recipe is not None
    rep.add("ore5-equivalence", key, (ky >= 3) == is_ore, note="ky>=3-iff-5-ore")
    if not is_ore:
        return rep
    low = _low_ky_subsets(G)
    worst = next((R for R, p in low if p != 9 or not col.is_collapsible(G, R)), None)
    total = (1 << G.n) - 1 - sum(comb(G.n, k) for k in range(5))
    note = f"subsets={total} of={total} low={len(low)}"
    if worst is not None:
        note += " violation=" + ",".join(map(str, bits(worst)))
    rep.add("ore5-low-ky-collapsible", key, worst is None, note=note)
    return rep
