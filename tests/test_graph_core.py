import hashlib
import random

import pytest

from orelab import Graph, InvariantViolation, graph_from_graph6, graph_to_graph6, named_graph
from orelab.constructions import NAMED, complete_graph, cycle_graph
from orelab.graph_core import (
    canonical_form,
    check_automorphism,
    connected_components,
    d4_components,
    graph_from_text,
    graph_to_text,
    identify_vertices,
    induced_subgraph,
    with_edge,
    without_edge,
)

from helpers import (
    brute_isomorphic,
    canonical_key,
    cluster_size_sequence,
    group_order,
    random_graph,
    star_graph,
)


def shuffled_copy(G, rng):
    perm = list(range(G.n))
    rng.shuffle(perm)
    return Graph.from_edges(
        G.n, [(perm[u], perm[v]) for u, v in G.edges()]
    ), perm


# --- construction and basic accessors ---------------------------------------


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_adjacency_must_be_symmetric():
    with pytest.raises(ValueError):
        Graph(2, (2, 0))


def test_handshake_on_random_graphs():
    rng = random.Random(7)
    for _ in range(50):
        G = random_graph(rng.randint(1, 12), rng.random(), rng)
        assert sum(G.degree(v) for v in range(G.n)) == 2 * G.m


def test_edges_sorted_and_consistent():
    G = complete_graph(4)
    assert G.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert all(G.has_edge(u, v) and G.has_edge(v, u) for u, v in G.edges())


def test_with_without_edge():
    C5 = cycle_graph(5)
    G = with_edge(C5, 0, 2)
    assert G.m == 6 and G.has_edge(0, 2)
    assert without_edge(G, 0, 2) == C5
    with pytest.raises(ValueError):
        with_edge(C5, 0, 1)
    with pytest.raises(ValueError):
        without_edge(C5, 0, 2)
    with pytest.raises(ValueError):
        with_edge(C5, 3, 3)


def test_induced_subgraph_labels_point_home():
    G = complete_graph(5)
    H = induced_subgraph(G, [4, 1, 3])
    assert H.n == 3 and H.m == 3
    assert H.labels == (1, 3, 4)
    HH = induced_subgraph(H, [0, 2])
    assert HH.labels == (1, 4)
    with pytest.raises(ValueError):
        induced_subgraph(G, [])
    with pytest.raises(ValueError):
        induced_subgraph(G, [0, 9])


def test_delete_vertices():
    G = complete_graph(5)
    assert induced_subgraph(G, range(1, 5)) == complete_graph(4)
    with pytest.raises(ValueError):
        induced_subgraph(G, [])  # deleting every vertex


def test_identify_pair_on_cycle():
    C4 = cycle_graph(4)
    H, _ = identify_vertices(C4, [0, 2])
    assert H.n == 3 and H.m == 2
    assert sorted(H.degree(v) for v in range(3)) == [1, 1, 2]


def test_identify_rejects_adjacent():
    with pytest.raises(ValueError):
        identify_vertices(cycle_graph(4), [0, 1])


def test_identify_drops_parallel_edges():
    G = without_edge(complete_graph(5), 0, 1)
    H, _ = identify_vertices(G, [0, 1])
    assert H == complete_graph(4)


def test_identify_map_covers_all_vertices():
    G = without_edge(complete_graph(6), 1, 4)
    H, mapping = identify_vertices(G, [1, 4])
    assert mapping[1] == mapping[4]
    assert set(mapping) == set(range(6))
    assert set(mapping.values()) == set(range(H.n))
    for u, v in G.edges():
        if mapping[u] != mapping[v]:
            assert H.has_edge(mapping[u], mapping[v])


def test_components_and_connectivity():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(G)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3, 4], [5]]
    assert len(connected_components(complete_graph(3))) == 1
    assert connected_components(G, within=[0, 2, 3, 4]) == [
        frozenset({0}),
        frozenset({2}),
        frozenset({3, 4}),
    ]


# --- degree-four structure ---------------------------------------------------


def test_d4_components_counts():
    rep = d4_components(complete_graph(5))
    assert len(rep.components) == 1 and len(rep.components[0]) == 5
    assert rep.singles == 0 and rep.pairs == 0

    rep = d4_components(star_graph(4))
    assert rep.components == (frozenset({0}),)
    assert rep.singles == 1 and rep.pairs == 0

    rep = d4_components(cycle_graph(5))
    assert rep.components == () and rep.singles == 0


def test_clusters_on_k5_and_c5():
    assert cluster_size_sequence(complete_graph(5)) == (5,)
    # no degree-four vertices means no clusters at all
    assert cluster_size_sequence(cycle_graph(5)) == ()


def test_clusters_on_double_k5(doubles):
    seqs = sorted(cluster_size_sequence(g) for g, _ in doubles)
    assert seqs == [(3, 2, 2), (3, 3, 1, 1)]


# --- canonical form ----------------------------------------------------------


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(11)
    for base in (complete_graph(5), cycle_graph(7), named_graph("groetzsch")):
        key = canonical_key(base)
        for _ in range(5):
            H, _ = shuffled_copy(base, rng)
            assert canonical_key(H) == key


def test_canonical_key_agrees_with_brute_isomorphism():
    rng = random.Random(23)
    agree_used = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        G = random_graph(n, rng.random(), rng)
        if rng.random() < 0.5:
            H, _ = shuffled_copy(G, rng)
            if rng.random() < 0.4 and G.m and G.m < n * (n - 1) // 2:
                # knock one edge over to get a near-miss pair
                u, v = H.edges()[rng.randrange(H.m)]
                H = without_edge(H, u, v)
        else:
            H = random_graph(n, rng.random(), rng)
        same_key = canonical_key(G) == canonical_key(H)
        assert same_key == brute_isomorphic(G, H)
        agree_used += same_key
    assert agree_used > 20  # the sample actually hit both branches


def test_canonical_order_is_an_isomorphism_between_relabelings():
    # The search visits children in label order, so a relabeled copy's
    # order may differ from the original's by an automorphism; composed,
    # the orders must still give an isomorphism, and the key must not move.
    for name in ("groetzsch", "mycielski_groetzsch"):
        G = named_graph(name)
        kg, og, gens = canonical_form(G)
        for seed in range(5):
            H, perm = shuffled_copy(G, random.Random(seed))
            kh, oh, hgens = canonical_form(H)
            assert kg == kh
            assert group_order(H.n, hgens) == group_order(G.n, gens)
            # iso: G -> H is an isomorphism exactly when, followed by the
            # inverse relabeling, it is an automorphism of G
            iso = {v: oh[i] for i, v in enumerate(og)}
            back = {w: v for v, w in enumerate(perm)}
            check_automorphism(G, [back[iso[v]] for v in range(G.n)])


ORE17_KEYS_SHA256 = "c203debe2b45d8ab7bacbd3c5d85b180accf0f79ed6b249b5a1e798009914bca"
"""sha256 of one ``<key hex> <order, comma-separated>`` line per class of
``enumerate_5_ore(17)``, in order, as computed before automorphism pruning.
Corpus file names derive from these keys."""


def test_canonical_forms_of_ore17_are_frozen(ore17):
    lines = []
    for g, _ in ore17:
        key, order, _ = canonical_form(g)
        lines.append(f"{key.hex()} {','.join(map(str, order))}\n")
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ORE17_KEYS_SHA256


def test_automorphism_pruning_returns_few_generators():
    # without automorphism pruning the search returns 23, one per leaf
    # tying the best
    C12 = cycle_graph(12)
    _, _, generators = canonical_form(C12)
    assert len(generators) <= C12.n - 1
    assert group_order(C12.n, generators) == 24


def automorphism_count(G):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(G.n))
    g.add_edges_from(G.edges())
    return sum(1 for _ in nx.vf2pp_all_isomorphisms(g, g))


def test_generators_generate_the_automorphism_group(ore13, ore17):
    graphs = [g for g, _ in ore13] + [named_graph(name) for name in sorted(NAMED)]
    graphs += [cycle_graph(7), star_graph(4), Graph.from_edges(4, [(0, 1), (2, 3)])]
    # the smallest asymmetric trees have seven vertices
    graphs.append(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]))
    # n = 17 generators feed the orbit tables of the n = 21 compositions
    graphs += random.Random(17).sample([g for g, _ in ore17 if g.n == 17], 40)
    for G in graphs:
        _, _, generators = canonical_form(G)
        for g in generators:
            check_automorphism(G, g)
        assert group_order(G.n, generators) == automorphism_count(G)


def test_check_automorphism_rejects_a_corrupted_generator():
    G = named_graph("groetzsch")
    g = list(canonical_form(G)[2][0])
    check_automorphism(G, g)
    hub = max(range(G.n), key=G.degree)
    leaf = min(range(G.n), key=G.degree)
    g[hub], g[leaf] = g[leaf], g[hub]
    with pytest.raises(InvariantViolation):
        check_automorphism(G, g)
    with pytest.raises(InvariantViolation):
        check_automorphism(G, [0] * G.n)


# --- serialization -----------------------------------------------------------


def test_text_round_trip_and_uniqueness():
    G = named_graph("c5_join_k2")
    text = graph_to_text(G)
    assert text.splitlines()[0] == "7 16"
    assert graph_from_text(text) == G
    assert graph_to_text(graph_from_text(text)) == text


def test_text_parser_errors():
    with pytest.raises(ValueError, match="line 1"):
        graph_from_text("nonsense\n")
    with pytest.raises(ValueError, match="line 2"):
        graph_from_text("2 1\n1 0\n")
    with pytest.raises(ValueError, match="out of order"):
        graph_from_text("3 2\n1 2\n0 1\n")
    with pytest.raises(ValueError, match="declared"):
        graph_from_text("3 2\n0 1\n")
    with pytest.raises(ValueError):
        graph_from_text("")


def test_graph6_known_values():
    assert graph_to_graph6(complete_graph(5)) == "D~{"
    assert graph_from_graph6("D~{") == complete_graph(5)
    assert graph_from_graph6(">>graph6<<D~{") == complete_graph(5)


def test_graph6_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        G = random_graph(rng.randint(1, 20), rng.random(), rng)
        assert graph_from_graph6(graph_to_graph6(G)) == G


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(25):
        G = random_graph(rng.randint(1, 30), rng.random(), rng)
        ours = graph_to_graph6(G)
        g = nx.Graph()
        g.add_nodes_from(range(G.n))
        g.add_edges_from(G.edges())
        theirs = nx.to_graph6_bytes(g, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == G.n
        assert back.number_of_edges() == G.m


def test_graph6_parser_errors():
    with pytest.raises(ValueError):
        graph_from_graph6("")
    with pytest.raises(ValueError):
        graph_from_graph6("D~")  # truncated body
    with pytest.raises(ValueError):
        graph_from_graph6("D~{{")  # too long
