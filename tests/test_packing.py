import gc
import random
import sys

import pytest

from orelab import Graph, InvariantViolation, named_graph, packing, t_number
from orelab.constructions import NAMED, complete_graph, cycle_graph
from orelab.coloring import is_5_critical, is_k_colorable
from orelab.graph_core import (
    bits,
    canonical_form,
    induced_subgraph,
    mask_of,
    two_cuts,
    without_edges,
)
from orelab.packing import mic
from orelab.potential import random_extension, verify_extension_inequalities

from helpers import (
    brute_mic,
    four_cliques,
    mic_reference,
    random_graph,
    t_number_oracle,
    t_number_reference,
    triangles,
)


def check_packing(G, t, pieces):
    used = set()
    total = 0
    for piece in map(bits, pieces):
        assert len(piece) in (3, 4)
        assert not used & set(piece)
        used |= set(piece)
        for i, u in enumerate(piece):
            for v in piece[i + 1 :]:
                assert G.has_edge(u, v)
        total += 1 if len(piece) == 3 else 2
    assert total == t


# --- clique listing ----------------------------------------------------------


def test_triangle_and_k4_lists():
    K4 = complete_graph(4)
    assert triangles(K4) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert four_cliques(K4) == [(0, 1, 2, 3)]
    assert triangles(cycle_graph(5)) == []
    assert four_cliques(complete_graph(5)) == [
        (0, 1, 2, 3),
        (0, 1, 2, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
        (1, 2, 3, 4),
    ]


def test_listings_agree_with_definitions():
    rng = random.Random(31)
    for _ in range(30):
        G = random_graph(rng.randint(3, 10), rng.random(), rng)
        for t in triangles(G):
            assert all(
                G.has_edge(u, v) for i, u in enumerate(t) for v in t[i + 1 :]
            )
        assert len(set(triangles(G))) == len(triangles(G))
        for q in four_cliques(G):
            assert all(
                G.has_edge(u, v) for i, u in enumerate(q) for v in q[i + 1 :]
            )


# --- the packing number ------------------------------------------------------


def test_t_is_zero_exactly_on_triangle_free_graphs(ore13):
    """verify_main_theorem reads triangle-freeness from t == 0."""
    rng = random.Random(18)
    sparse = [random_graph(rng.randint(4, 16), rng.uniform(0.05, 0.3), rng) for _ in range(300)]
    graphs = [g for g, _ in ore13] + [named_graph(name) for name in sorted(NAMED)] + sparse
    for G in graphs:
        assert (t_number(G)[0] == 0) == (triangles(G) == [])
    for name in ("groetzsch", "mycielski_groetzsch"):
        assert triangles(named_graph(name)) == []
    assert 0 < sum(triangles(G) == [] for G in sparse) < len(sparse)



def test_t_number_known_values(doubles):
    cases = [
        (complete_graph(3), 1),
        (complete_graph(4), 2),
        (complete_graph(5), 2),
        (without_edges(complete_graph(5), [(0, 1)]), 2),
        (complete_graph(7), 3),
        (cycle_graph(5), 0),
        (named_graph("groetzsch"), 0),
        (named_graph("mycielski_groetzsch"), 0),
        (named_graph("c5_join_k2"), 2),
        (named_graph("k1_join_groetzsch"), 1),
    ]
    for G, want in cases:
        t, pieces = t_number(G)
        assert t == want
        check_packing(G, t, pieces)
    for g, _ in doubles:
        t, pieces = t_number(g)
        assert t == 4
        check_packing(g, t, pieces)
        assert sorted(p.bit_count() for p in pieces) == [4, 4]


def test_two_disjoint_k4s():
    G = Graph.from_edges(
        8,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)],
    )
    t, pieces = t_number(G)
    assert t == 4
    check_packing(G, t, pieces)


def test_t_number_matches_oracle_on_random_graphs():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 11)
        p = 0.25 + 0.55 * rng.random()
        G = random_graph(n, p, rng)
        t, pieces = t_number(G)
        assert t == t_number_oracle(G)
        check_packing(G, t, pieces)


def test_t_number_matches_the_reference_search(ore13):
    # same packing number and same witness, piece for piece
    graphs = [g for g, _ in ore13] + [named_graph(name) for name in NAMED]
    rng = random.Random(15)
    graphs += [random_graph(rng.randint(1, 14), rng.random(), rng) for _ in range(500)]
    for G in graphs:
        assert t_number(G) == as_masks(t_number_reference(G))


def as_masks(packed):
    """A packing with vertex-tuple pieces, each piece as its mask."""
    t, pieces = packed
    return t, tuple(map(mask_of, pieces))


def mapped(kept, packed):
    """A packing of G[kept] in G's labels, where ``kept[i]`` is G[kept]'s vertex i."""
    t, pieces = packed
    return t, tuple(mask_of(kept[v] for v in bits(piece)) for piece in pieces)


def test_t_number_matches_the_reference_on_extension_subgraphs(ore17, monkeypatch):
    # every vertex set whose packing number a seeded extension record asks for
    hosts = random.Random(15).sample([g for g, _ in ore17 if g.n == 17], 4)
    hosts.append(named_graph("mycielski_groetzsch"))
    tables = [packing.piece_table(g) for g in hosts]
    asked = []
    best_packing = packing.best_packing

    def recorded(G, table, mask):
        asked.append((G, mask))
        return best_packing(G, table, mask)

    monkeypatch.setattr(packing, "best_packing", recorded)
    for i in range(200):
        rec = random_extension(hosts[i % len(hosts)], random.Random(7 * 1_000_003 + i))
        verify_extension_inequalities(rec, "host", tables[i % len(hosts)])
    assert len(asked) >= 800
    for G, mask in asked:
        kept = bits(mask)
        want = mapped(kept, as_masks(t_number_reference(induced_subgraph(G, mask))))
        assert best_packing(G, packing.piece_table(G), mask) == want


def test_packing_inside_a_mask_is_the_induced_subgraphs(ore17):
    # same value, and the same witness in G's labels, as on a copy of G[mask]
    rng = random.Random(21)
    graphs = [g for g, _ in ore17] + [named_graph(name) for name in sorted(NAMED)]
    graphs += [random_graph(rng.randint(1, 16), rng.random(), rng) for _ in range(300)]
    for G in graphs:
        table = packing.piece_table(G)
        full = (1 << G.n) - 1
        assert packing.best_packing(G, table, 0) == (0, ())
        for mask in [full] + [rng.getrandbits(G.n) or full for _ in range(3)]:
            kept = bits(mask)
            want = mapped(kept, t_number(induced_subgraph(G, mask)))
            assert packing.best_packing(G, table, mask) == want


def test_a_packing_that_leaves_the_mask_is_caught(monkeypatch):
    # a search that picks {0, 1, 2} of K4 while the mask leaves out vertex 2
    def escaping(free, cur, chosen, by_low, best):
        best[0], best[1] = 1, (0b111,)

    monkeypatch.setattr(packing, "_pack", escaping)
    with pytest.raises(InvariantViolation):
        packing.best_packing(complete_graph(4), packing.piece_table(complete_graph(4)), 0b1011)


def test_a_piece_that_is_no_triangle_or_k4_is_caught(monkeypatch):
    # a search that picks all of K5 as one piece; a KeyError here would
    # reach the CLI as a usage error instead of a panic
    def oversized(free, cur, chosen, by_low, best):
        best[0], best[1] = 3, (0b11111,)

    monkeypatch.setattr(packing, "_pack", oversized)
    with pytest.raises(InvariantViolation, match="neither a triangle nor a K4"):
        t_number(complete_graph(5))


def test_oracle_refuses_large_graphs():
    with pytest.raises(ValueError):
        t_number_oracle(complete_graph(15))


def test_t_number_edge_monotone():
    rng = random.Random(41)
    for _ in range(25):
        G = random_graph(rng.randint(4, 10), 0.6, rng)
        t, _ = t_number(G)
        if G.m == 0:
            continue
        u, v = G.edges()[rng.randrange(G.m)]
        t2, _ = t_number(without_edges(G, [(u, v)]))
        assert t - 1 <= t2 <= t


def test_t_number_vertex_monotone():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(5, 10)
        G = random_graph(n, 0.6, rng)
        t, _ = t_number(G)
        w = rng.randrange(n)
        t2, _ = t_number(induced_subgraph(G, mask_of(v for v in range(n) if v != w)))
        assert t - 2 <= t2 <= t


def test_t_number_superadditive_on_disjoint_union():
    rng = random.Random(47)
    for _ in range(15):
        A = random_graph(rng.randint(3, 6), 0.7, rng)
        B = random_graph(rng.randint(3, 6), 0.7, rng)
        U = Graph.from_edges(
            A.n + B.n,
            A.edges() + [(u + A.n, v + A.n) for u, v in B.edges()],
        )
        assert t_number(U)[0] == t_number(A)[0] + t_number(B)[0]


# --- mic ---------------------------------------------------------------------


def test_mic_known_values():
    assert mic(complete_graph(5))[0] == 4
    assert mic(Graph.from_edges(6, [(u, v + 3) for u in range(3) for v in range(3)]))[0] == 9
    assert mic(named_graph("groetzsch"))[0] == brute_mic(named_graph("groetzsch"))
    assert mic(named_graph("c5_join_k2"))[0] == brute_mic(named_graph("c5_join_k2"))


def test_mic_matches_brute_force():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 11)
        G = random_graph(n, rng.random(), rng)
        value, _ = mic(G)
        assert value == brute_mic(G)


def test_mic_matches_the_reference_search(ore17):
    graphs = [g for g, _ in ore17] + [named_graph(name) for name in sorted(NAMED)]
    for G in graphs:
        assert mic(G)[0] == mic_reference(G)


def mic_nodes(run):
    """run() and the number of nodes the ``mic`` search opened."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == packing.__file__:
            nodes += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, nodes


def test_mic_search_work_is_bounded(ore17):
    # the clique-cover bound opens 4,081 nodes over the 575 classes; the sum
    # of the available weights opened 133,673
    values, nodes = mic_nodes(lambda: [mic(g)[0] for g, _ in ore17])
    assert len(values) == 575
    assert nodes <= 4_081


def test_searches_leave_no_reference_cycles():
    # each recursive search drops its closure when done, so reference
    # counting frees its state and the cyclic collector finds nothing
    groetzsch, c5k2 = named_graph("mycielski_groetzsch"), named_graph("c5_join_k2")
    runs = {
        "is_k_colorable": lambda: is_k_colorable(groetzsch, 4),
        "two_cuts": lambda: list(two_cuts(c5k2)),
        "canonical_form": lambda: canonical_form(groetzsch),
        "t_number": lambda: t_number(groetzsch),
        "mic": lambda: mic(groetzsch),
        "is_5_critical": lambda: is_5_critical(c5k2),
    }
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        for name, run in runs.items():
            run()
            assert gc.collect() == 0, name
    finally:
        gc.set_debug(flags)
        if enabled:
            gc.enable()
        gc.garbage.clear()


def test_mic_witness_is_independent_and_matches():
    rng = random.Random(59)
    for _ in range(40):
        G = random_graph(rng.randint(2, 11), rng.random(), rng)
        value, witness = mic(G)
        assert isinstance(witness, int) and not witness >> G.n
        witness = bits(witness)
        assert value == sum(G.degree(v) for v in witness)
        for i, u in enumerate(witness):
            for v in witness[i + 1 :]:
                assert not G.has_edge(u, v)
