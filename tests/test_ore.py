import hashlib
import os
import random

import pytest

from orelab import (
    Graph,
    InvariantViolation,
    enumerate_5_ore,
    graph_from_graph6,
    graph_to_graph6,
    is_5_ore,
    named_graph,
    ore,
    ore_compose,
    recipe_to_text,
)
from orelab.coloring import boundary
from orelab.constructions import NAMED, complete_graph, cycle_graph
from orelab.graph_core import MAX_VERTICES, bits, canonical_form, induced_subgraph, mask_of
from orelab.ore import Compose, Leaf, _orbit_tables, compose_graphs

from helpers import (
    canonical_key,
    cluster_size_sequence,
    compose_by_edges,
    composition_sites,
    enumerate_by_sites,
    first_sites_by_orbits,
    ore_collapsible_subsets,
    recognize_reference,
    with_edge,
)


def split_kinds(doubles):
    """Return (one_three, two_two) as (graph, recipe) pairs."""
    by_seq = {cluster_size_sequence(g): (g, r) for g, r in doubles}
    return by_seq[(3, 3, 1, 1)], by_seq[(3, 2, 2)]


# --- composition -------------------------------------------------------------


def test_compose_graphs_counts_and_mapping():
    G, out_of = compose_graphs(complete_graph(5), (0, 1), complete_graph(5), 0, (0b10, 0b11100))
    assert G.n == 9 and G.m == 19
    assert not G.has_edge(0, 1)
    assert sorted(out_of) == [1, 2, 3, 4]
    assert sorted(out_of.values()) == [5, 6, 7, 8]
    # vertex-side edges away from z survive under the mapping
    for u, v in complete_graph(5).edges():
        if 0 in (u, v):
            continue
        assert G.has_edge(out_of[u], out_of[v])
    assert G.has_edge(0, out_of[1])
    assert all(G.has_edge(1, out_of[b]) for b in (2, 3, 4))


def test_compose_graphs_rejects_bad_sites():
    with pytest.raises(ValueError, match="not an edge"):
        compose_graphs(cycle_graph(5), (0, 2), complete_graph(5), 0, (0b10, 0b11100))
    with pytest.raises(ValueError, match="nonempty"):
        compose_graphs(complete_graph(5), (0, 1), complete_graph(5), 0, (0, 0b11110))
    with pytest.raises(ValueError, match="partition"):
        compose_graphs(complete_graph(5), (0, 1), complete_graph(5), 0, (0b110, 0b11100))
    with pytest.raises(ValueError, match="partition"):
        compose_graphs(complete_graph(5), (0, 1), complete_graph(5), 0, (0b10, 0b1100))
    with pytest.raises(ValueError, match="out of range"):
        compose_graphs(complete_graph(5), (0, 1), complete_graph(5), 9, (0b10, 0b11100))
    # 61 + 5 - 1 vertices, more than a Graph may have
    with pytest.raises(ValueError, match="65 vertices exceeds 64"):
        compose_graphs(complete_graph(61), (0, 1), complete_graph(5), 0, (0b10, 0b11100))


def test_compose_graphs_matches_the_edge_list_build(ore13):
    by_n = {n: [g for g, _ in ore13 if g.n == n] for n in (5, 9, 13)}
    sites = []
    for n1, n2 in ((5, 9), (9, 5), (9, 9)):
        for g1 in by_n[n1]:
            for g2 in by_n[n2]:
                sites += [(g1, xy, g2, z, split) for xy, z, split in composition_sites(g1, g2)]
    rng = random.Random(13)
    every = [g for g, _ in ore13]
    for _ in range(500):
        g1, g2 = rng.choice(by_n[13]), rng.choice(every)
        if rng.random() < 0.5:
            g1, g2 = g2, g1
        x, y = rng.choice(g1.edges())
        if rng.random() < 0.5:
            x, y = y, x
        z = rng.randrange(g2.n)
        nbrs = bits(g2.adj[z])
        pick = rng.randrange(1, (1 << len(nbrs)) - 1)
        split = tuple(tuple(v for i, v in enumerate(nbrs) if (pick >> i & 1) == side)
                      for side in (1, 0))
        sites.append((g1, (x, y), g2, z, split))
    assert len(sites) > 1000
    for g1, xy, g2, z, (a, b) in sites:
        G, out_of = compose_graphs(g1, xy, g2, z, (mask_of(a), mask_of(b)))
        H, out_of_h = compose_by_edges(g1, xy, g2, z, (a, b))
        assert (G, out_of) == (H, out_of_h)


def test_double_k5_shapes(doubles):
    (g13, _), (g22, _) = split_kinds(doubles)
    assert canonical_key(g13) != canonical_key(g22)
    for g in (g13, g22):
        assert (g.n, g.m) == (9, 19)
        assert 4 * g.m == 9 * g.n - 5
    assert sorted(g13.degree(v) for v in range(9)) == [4] * 8 + [6]
    assert sorted(g22.degree(v) for v in range(9)) == [4] * 7 + [5, 5]


# --- recipe text -------------------------------------------------------------


def test_recipe_text_exact_form():
    recipe = Compose(Leaf(), (0, 1), Leaf(), 0, (0b10, 0b11100))
    text = recipe_to_text(recipe)
    assert text == "(compose (k5) e=0-1 (k5) z=0 split=1|2,3,4)"
    assert recipe_to_text(Leaf()) == "(k5)"


# --- enumeration -------------------------------------------------------------


def test_enumeration_counts(ore13):
    assert [g.n for g, _ in enumerate_5_ore(5)] == [5]
    assert len(list(enumerate_5_ore(8))) == 1
    nine = list(enumerate_5_ore(9))
    assert len(nine) == 3
    assert sorted(g.n for g, _ in nine) == [5, 9, 9]
    assert len(ore13) == 26
    assert sum(1 for g, _ in ore13 if g.n == 13) == 23


def test_enumeration_is_deduplicated_and_consistent(ore13):
    keys = [canonical_key(g) for g, _ in ore13]
    assert len(set(keys)) == len(keys)
    for g, recipe in ore13:
        assert ore_compose(recipe) == g
        assert g.n % 4 == 1
        assert 4 * g.m == 9 * g.n - 5


def test_enumeration_prefix_stability(ore13):
    nine = list(enumerate_5_ore(9))
    assert [canonical_key(g) for g, _ in nine] == [
        canonical_key(g) for g, _ in ore13[: len(nine)]
    ]


ORE17_SHA256 = "dfcb3378046d22fab037bc8aa3d3b19303b0c823da543fef5e4243ad454a09c7"
"""sha256 of the ``<graph6> <recipe text>`` lines of ``enumerate_5_ore(17)``,
one per class in order, as written before orbit pruning."""


def test_enumeration_to_17_is_frozen(ore17):
    assert [sum(1 for g, _ in ore17 if g.n == n) for n in (5, 9, 13, 17)] == [1, 2, 23, 549]
    lines = "".join(f"{graph_to_graph6(g)} {recipe_to_text(r)}\n" for g, r in ore17)
    assert hashlib.sha256(lines.encode()).hexdigest() == ORE17_SHA256


ORE21_SHA256 = "24ea728cc921d0c4d1edb692e6e1d3c6e88ad7108ee29873ee7e876bcf78ca11"
"""The same digest for ``enumerate_5_ore(21)``, written by the unpruned
``enumerate_by_sites`` and the orbit-pruned generator alike."""


@pytest.mark.skipif(os.environ.get("ORELAB_N21") != "1", reason="set ORELAB_N21=1 (about 45 s)")
def test_enumeration_to_21_is_frozen():
    classes = list(enumerate_5_ore(21))
    assert (len(classes), sum(1 for g, _ in classes if g.n == 21)) == (21_603, 21_028)
    lines = "".join(f"{graph_to_graph6(g)} {recipe_to_text(r)}\n" for g, r in classes)
    assert hashlib.sha256(lines.encode()).hexdigest() == ORE21_SHA256


def test_enumeration_refuses_an_impossible_max_n(monkeypatch):
    def no_work(G):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ore, "canonical_form", no_work)
    for max_n in (-3, MAX_VERTICES + 1, 100):
        with pytest.raises(ValueError, match=f"max_n {max_n} outside 0..{MAX_VERTICES}"):
            next(enumerate_5_ore(max_n))
    assert list(enumerate_5_ore(0)) == []


def test_orbit_pruning_keeps_every_first_site(ore13):
    pruned = [(g.adj, recipe_to_text(r)) for g, r in ore13]
    assert pruned == [(g.adj, recipe_to_text(r)) for g, r in enumerate_by_sites(13)]


def test_orbit_pruning_composes_fewer_sites(monkeypatch):
    calls = []
    compose = ore.compose_graphs
    monkeypatch.setattr(ore, "compose_graphs", lambda *a: calls.append(a) or compose(*a))
    assert len(list(enumerate_5_ore(13))) == 26
    # the walk visits 81 sites at n <= 13 (3 at n = 9) and composes one per
    # orbit, 51 (2 at n = 9), of the 6,680 sites that every edge, vertex and
    # ordered split give (700 at n = 9)
    assert len(calls) == 51


def test_orbit_walk_composes_the_first_site_of_every_orbit(ore13, monkeypatch):
    calls = []
    compose = ore.compose_graphs
    monkeypatch.setattr(ore, "compose_graphs", lambda *a: calls.append(a) or compose(*a))
    forms = []
    canonical = ore.canonical_form
    monkeypatch.setattr(ore, "canonical_form", lambda G: forms.append(G) or canonical(G))
    assert len(list(enumerate_5_ore(17))) == 575
    expected = [
        (g1, xy, g2, z, (mask_of(a), mask_of(b)))
        for g1, xy, g2, z, (a, b) in first_sites_by_orbits(ore13, 17)
    ]
    assert len(calls) == len(expected) == 1950
    assert calls == expected
    # K5 and each distinct composite adjacency once; canonizing all 1,950
    # composites, repeated adjacencies included, would make 1,951 calls
    assert len(forms) <= 1876


def test_k5_orbit_table_keeps_the_three_k5_splits():
    edges, part, splits = _orbit_tables(complete_graph(5), canonical_form(complete_graph(5))[2])
    assert edges == [(0, 1, True)]
    assert splits == [(0, 0b10), (0, 0b110), (0, 0b1110)]
    assert len(part) == 5 * 14 and set(part.values()) == set(splits)


def test_enumeration_checks_generators_before_use(monkeypatch):
    canonical = ore.canonical_form

    def corrupted(G):
        key, order, generators = canonical(G)
        # a transposition of vertices of different degrees is no automorphism
        low = min(range(G.n), key=G.degree)
        high = max(range(G.n), key=G.degree)
        swap = list(range(G.n))
        swap[low], swap[high] = high, low
        return key, order, generators + (tuple(swap),)

    monkeypatch.setattr(ore, "canonical_form", corrupted)
    with pytest.raises(InvariantViolation, match="not an automorphism"):
        list(enumerate_5_ore(13))


# --- recognition -------------------------------------------------------------


def test_is_5_ore_known_answers():
    assert is_5_ore(complete_graph(5)) == Leaf()
    assert is_5_ore(named_graph("c5_join_k2")) is None
    assert is_5_ore(named_graph("groetzsch")) is None
    assert is_5_ore(complete_graph(6)) is None
    assert is_5_ore(cycle_graph(9)) is None


# Non-members that pass the n and m screens and have minimum degree 4, from
# one or two degree-preserving double-edge swaps of 5-Ore classes.  Between
# them they reach every way recognition turns down a graph past those
# screens: a side with a vertex of degree below 4 (the second), an adjacent
# 2-cut (the first and the last), a split part that misses x or y (the
# last), a vertex side that is not 5-Ore (the first two), and a scan that
# ends with no factorization (all four).
NON_ORE_PAST_THE_SCREENS = (
    "P^|?ILB_A?_b@FO??CGCB?_[",
    "P^}A?NE@?G_R?f?O?GGAB?G[",
    "Ha]stLp",
    "LvkKHLFOA?gBOF",
)


def test_is_5_ore_rejects_graphs_past_its_screens(ore17, monkeypatch):
    members = {canonical_key(g) for g, _ in ore17}
    monkeypatch.setattr(ore, "_CLASSES", {})
    for text in NON_ORE_PAST_THE_SCREENS:
        G = graph_from_graph6(text)
        assert G.n % 4 == 1 and 4 * G.m == 9 * G.n - 5, text
        assert min(G.degree(v) for v in range(G.n)) == 4, text
        assert is_5_ore(G) is None, text
        assert recognize_reference(G, {}) is None, text
        assert canonical_key(G) not in members, text


def test_is_5_ore_round_trip(ore13):
    for g, _ in ore13:
        recipe = is_5_ore(g)
        assert recipe is not None
        assert canonical_key(ore_compose(recipe)) == canonical_key(g)


def test_is_5_ore_ignores_labeling(doubles):
    g = doubles[0][0]
    perm = list(reversed(range(g.n)))
    relabeled = g.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    recipe = is_5_ore(relabeled)
    assert recipe is not None
    assert canonical_key(ore_compose(recipe)) == canonical_key(g)


def test_is_5_ore_recipe_depends_only_on_the_class(ore13, monkeypatch):
    # each relabeling starts from an empty class table, so a recipe found
    # in the input's own vertex order would show up as differing text
    for g, _ in ore13:
        texts = set()
        for seed in range(5):
            perm = list(range(g.n))
            random.Random(seed).shuffle(perm)
            relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            monkeypatch.setattr(ore, "_CLASSES", {})
            texts.add(recipe_to_text(is_5_ore(relabeled)))
        assert len(texts) == 1, texts


def test_recognition_matches_the_cut_side_reference(ore17, monkeypatch):
    # the library and the reference copy of recognition with sides built
    # by cut_side, each from an empty class table, on every class up to 17
    # vertices, the named graphs and seeded relabelings of every seventh
    # class; a side vertex placed one rank off changes a recipe or fails
    # the rebuild check
    graphs = [g for g, _ in ore17] + [named_graph(name) for name in sorted(NAMED)]
    rng = random.Random(27)
    for g, _ in ore17[::7]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    monkeypatch.setattr(ore, "_CLASSES", {})
    table: dict = {}
    members = 0
    for g in graphs:
        ours, theirs = is_5_ore(g), recognize_reference(g, table)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert recipe_to_text(ours) == recipe_to_text(theirs)
            members += 1
    assert members == len(ore17) + 1 + len(ore17[::7])
    assert ore._CLASSES == table


# --- Ore-collapsible subsets -------------------------------------------------


def test_ore_collapsible_subsets_on_doubles(doubles):
    (g13, _), (g22, _) = split_kinds(doubles)
    subs13 = ore_collapsible_subsets(g13)
    assert sorted(sorted(s) for s in subs13) == [
        [0, 1, 2, 3, 4],
        [1, 5, 6, 7, 8],
    ]
    subs22 = ore_collapsible_subsets(g22)
    assert [sorted(s) for s in subs22] == [[0, 1, 2, 3, 4]]


def test_ore_collapsible_subsets_trivial_cases():
    assert ore_collapsible_subsets(complete_graph(5)) == []
    assert ore_collapsible_subsets(named_graph("c5_join_k2")) == []


def test_ore_collapsible_subsets_satisfy_definition(doubles):
    for g, _ in doubles:
        for R in ore_collapsible_subsets(g):
            bnd = bits(boundary(g, mask_of(R)))
            assert len(bnd) == 2
            u, v = bnd
            assert not g.has_edge(u, v)
            order = sorted(R)
            pos = {w: i for i, w in enumerate(order)}
            filled = with_edge(induced_subgraph(g, mask_of(order)), pos[u], pos[v])
            assert is_5_ore(filled) is not None
