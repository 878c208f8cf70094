import copy
import hashlib
import itertools
import pickle
import random
from collections import defaultdict

import pytest

from orelab import Graph, InvariantViolation, graph_from_graph6, graph_to_graph6, named_graph
from orelab.coloring import _four_core, extract_5_critical, is_k_colorable
from orelab.constructions import NAMED, complete_graph, cycle_graph
from orelab.graph_core import (
    _refine,
    bits,
    canonical_form,
    check_automorphism,
    connected_components,
    d4_components,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    mask_of,
    paired,
    relabel,
    two_cuts,
    without_edge,
)
from orelab.ore import Compose, Leaf, compose_graphs, ore_compose
from orelab.potential import Facts, phi_identify
from orelab.report import Check

from helpers import (
    brute_isomorphic,
    canonical_form_reference,
    canonical_key,
    cluster_size_sequence,
    glued_pair,
    group_order,
    identify_vertices,
    random_graph,
    refine_full,
    row_work,
    shuffled_copy,
    star_graph,
    two_cuts_by_pairs,
    with_edge,
)


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


def test_records_are_immutable_values_that_pickle_and_copy(doubles):
    G, recipe = doubles[0]
    facts = Facts.of(G)
    assert isinstance(recipe, Compose) and isinstance(facts.recipe, Compose)
    for value in (G, facts, recipe, Leaf(), Check("c", "k", False, -2, "x")):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
    assert Graph(n=G.n, adj=G.adj) == G and G != (G.n, G.adj)
    assert Leaf() == Leaf() and hash(Leaf()) == hash(Leaf()) and recipe != Leaf()
    assert recipe == Compose(
        edge_side=recipe.edge_side,
        replaced_edge=recipe.replaced_edge,
        vertex_side=recipe.vertex_side,
        split_vertex=recipe.split_vertex,
        split=recipe.split,
    )
    assert Check("c", "k", True) == Check(name="c", key="k", ok=True, slack21=None, note="")
    assert repr(Check("c", "k", True)) == "Check(name='c', key='k', ok=True, slack21=None, note='')"
    assert repr(Leaf()) == "Leaf()"
    with pytest.raises(TypeError) as refused:
        ore_compose(complete_graph(5))
    assert str(refused.value) == "not a recipe node: Graph(n=5, adj=(30, 29, 27, 23, 15))"
    for value, name in ((G, "adj"), (facts, "t"), (recipe, "split")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    k5 = complete_graph(5)
    for build in (
        lambda: Graph(5),
        lambda: Graph(5, k5.adj, m=10),
        lambda: Facts(G),
        lambda: Facts(G, facts.key, True, recipe, facts.t, facts.mic, 0),
        lambda: Compose(Leaf(), (0, 1), Leaf(), 0, recipe.split, split_vertex=0),
        lambda: Leaf(k5),
        lambda: Check("c", "k"),
    ):
        with pytest.raises(TypeError):
            build()


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


def test_induced_subgraph_keeps_vertex_order():
    G = complete_graph(5)
    H = induced_subgraph(G, mask_of([4, 1, 3]))
    assert H.n == 3 and H.m == 3
    # vertex i of the result is the i-th lowest bit of the mask
    P = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert induced_subgraph(P, mask_of([4, 1, 3])) == Graph.from_edges(3, [(1, 2)])
    assert induced_subgraph(P, mask_of([0, 2, 1])) == Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="empty"):
        induced_subgraph(G, 0)
    with pytest.raises(ValueError, match="not contained"):
        induced_subgraph(G, mask_of([0, 9]))
    with pytest.raises(ValueError, match="not contained"):
        induced_subgraph(G, -1)


def test_delete_vertices():
    G = complete_graph(5)
    assert induced_subgraph(G, mask_of(range(1, 5))) == complete_graph(4)
    with pytest.raises(ValueError):
        induced_subgraph(G, 0)  # deleting every vertex


def _identified(G: Graph, x: int, y: int) -> tuple[Graph, dict[int, int]]:
    """G with y identified into x, as the vertex side of the whole of G,
    and the map from G's vertices to the side's: each vertex other than y
    keeps its rank among the side's mask, and y lands on x."""
    mask = (1 << G.n) - 1 & ~(1 << y)
    at = {v: i for i, v in enumerate(bits(mask))}
    at[y] = at[x]
    return induced_subgraph(paired(G, x, y, True), mask), at


def test_identify_pair_on_cycle():
    C4 = cycle_graph(4)
    H, _ = _identified(C4, 0, 2)
    assert H.n == 3 and H.m == 2
    assert sorted(H.degree(v) for v in range(3)) == [1, 1, 2]


def test_identify_rejects_adjacent():
    with pytest.raises(ValueError):
        _identified(cycle_graph(4), 0, 1)


def test_identify_drops_parallel_edges():
    G = without_edge(complete_graph(5), 0, 1)
    H, _ = _identified(G, 0, 1)
    assert H == complete_graph(4)


def test_identify_map_covers_all_vertices():
    G = without_edge(complete_graph(6), 1, 4)
    H, mapping = _identified(G, 1, 4)
    assert mapping[1] == mapping[4]
    assert set(mapping) == set(range(6))
    assert set(mapping.values()) == set(range(H.n))
    for u, v in G.edges():
        if mapping[u] != mapping[v]:
            assert H.has_edge(mapping[u], mapping[v])


def test_paired_rows_match_the_induced_subgraph_build(ore13):
    # every union of the parts of every nonadjacent 2-cut, with x and y,
    # read off the builder's rows as the mask with xy added, and as the
    # mask without y with y identified into x; a side vertex's index is
    # its rank among the mask's bits, as in the oracles' maps
    graphs = [g for g, _ in ore13]
    graphs += [named_graph(name) for name in sorted(NAMED) if name != "k5"]
    sides = 0
    for G in graphs:
        for x, y, parts in two_cuts(G):
            if G.has_edge(x, y):
                continue
            apart, alike = paired(G, x, y, False), paired(G, x, y, True)
            for pick in range(1, 1 << len(parts)):
                mask = 1 << x | 1 << y
                for i, part in enumerate(parts):
                    if pick >> i & 1:
                        mask |= part
                vertices = bits(mask)
                sub = induced_subgraph(G, mask)
                pos = {v: i for i, v in enumerate(vertices)}
                merged, merge_map = identify_vertices(sub, [pos[x], pos[y]])
                assert induced_subgraph(alike, mask & ~(1 << y)) == merged
                assert {v: merge_map[i] for v, i in pos.items() if v != y} == {
                    v: i for i, v in enumerate(bits(mask & ~(1 << y)))
                }
                assert merge_map[pos[y]] == merge_map[pos[x]]
                assert induced_subgraph(apart, mask) == with_edge(sub, pos[x], pos[y])
                sides += 1
    assert sides == 195


def test_every_derived_graph_passes_the_full_check(ore13):
    # derived graphs skip Graph's structure check, so each builder's output
    # on the n <= 13 classes, the named graphs and all their 2-cut sides
    # must be a graph that the check accepts; the rows paired gives a
    # nonadjacent pair are G plus xy, or G plus x joined to y's neighbors
    graphs = [g for g, _ in ore13] + [named_graph(name) for name in sorted(NAMED)]
    built: dict[str, list[Graph]] = defaultdict(list)
    for G in graphs:
        for x, y, parts in two_cuts(G):
            rows = [paired(G, x, y, False)]
            built["paired"].append(rows[0])
            if not G.has_edge(x, y):
                rows.append(paired(G, x, y, True))
                built["paired alike"].append(rows[1])
            for pick in range(1, 1 << len(parts)):
                mask = 1 << x | 1 << y
                for i, part in enumerate(parts):
                    if pick >> i & 1:
                        mask |= part
                built["side"].append(induced_subgraph(rows[0], mask))
                if len(rows) > 1:
                    built["side alike"].append(induced_subgraph(rows[1], mask & ~(1 << y)))
    inputs = graphs + built["side"] + built["side alike"]
    k5 = complete_graph(5)
    rng = random.Random(19)
    for G in inputs:
        order = list(range(G.n))
        rng.shuffle(order)
        built["relabel"].append(relabel(G, order))
        built["relabel"].append(relabel(G, order[: G.n // 2 + 1]))
        edges = G.edges()
        for v in range(G.n):
            built["induced_subgraph"].append(induced_subgraph(G, mask_of(order[: v + 1])))
        for e in edges:
            built["without_edge"].append(without_edge(G, *e))
            built["_four_core"].append(_four_core(built["without_edge"][-1]))
        built["compose_graphs"].append(compose_graphs(G, edges[0], k5, 0, (0b10, 0b11100))[0])
        z = max(range(G.n), key=G.degree)
        if G.degree(z) > 1:
            low = G.adj[z] & -G.adj[z]
            built["compose_graphs"].append(compose_graphs(k5, (0, 1), G, z, (low, G.adj[z] ^ low))[0])
        R = range(1, G.n)
        colors = is_k_colorable(induced_subgraph(G, mask_of(R)), 4) if G.n > 5 else None
        if colors is not None:
            H = phi_identify(G, dict(zip(R, colors)))[0]
            built["phi_identify"].append(H)
            if is_k_colorable(H, 4) is None:
                built["extract_5_critical"].append(extract_5_critical(H)[0])
        if is_k_colorable(G, 4) is None:
            built["extract_5_critical"].append(extract_5_critical(G)[0])
    for G in graphs:
        missing = [(u, v) for u in range(G.n) for v in range(u) if not G.has_edge(u, v)]
        # K5 has no missing edge, and the Groetzsch graph plus one is 4-colorable
        if missing and is_k_colorable(H := with_edge(G, *missing[0]), 4) is None:
            built["extract_5_critical"].append(extract_5_critical(H)[0])
    assert sorted(built) == [
        "_four_core", "compose_graphs", "extract_5_critical", "induced_subgraph", "paired",
        "paired alike", "phi_identify", "relabel", "side", "side alike", "without_edge",
    ]
    for name, outputs in built.items():
        for H in outputs:
            assert Graph(H.n, H.adj) == H, name


def test_components_and_connectivity():
    G = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(G)
    assert sorted(bits(c) for c in comps) == [[0, 1, 2], [3, 4], [5]]
    assert len(connected_components(complete_graph(3))) == 1
    assert connected_components(G, within=mask_of([0, 2, 3, 4])) == [0b1, 0b100, 0b11000]


# --- 2-cuts -------------------------------------------------------------------


def test_two_cuts_of_a_cycle():
    # removing two vertices of C6 leaves two paths unless they are adjacent
    got = list(two_cuts(cycle_graph(6)))
    assert [(x, y) for x, y, _ in got] == [
        (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)
    ]
    assert got[0] == (0, 2, (0b000010, 0b111000))
    assert got[1] == (0, 3, (0b000110, 0b110000))
    assert list(two_cuts(complete_graph(5))) == []
    assert list(two_cuts(Graph.from_edges(2, []))) == []


def test_two_cuts_match_the_pair_loop_on_the_ore_classes(ore17):
    cuts = 0
    for G, _ in ore17:
        got = list(two_cuts(G))
        assert got == list(two_cuts_by_pairs(G))
        cuts += len(got)
    assert cuts > len(ore17)


def test_two_cuts_match_the_pair_loop_on_named_and_random_graphs():
    rng = random.Random(404)
    graphs = [named_graph(name) for name in sorted(NAMED)]
    graphs += [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(300)]
    graphs += [glued_pair(rng) for _ in range(300)]
    shapes = set()
    for G in graphs:
        got = list(two_cuts(G))
        assert got == list(two_cuts_by_pairs(G))
        connected = len(connected_components(G)) == 1
        shapes.update((connected, G.has_edge(x, y), len(parts) > 2) for x, y, parts in got)
    # disconnected graphs, adjacent cut pairs and cuts into three or more
    # parts all occur
    assert len(shapes) == 8


# --- degree-four structure ---------------------------------------------------


def test_d4_components_counts():
    rep = d4_components(complete_graph(5))
    assert rep.components == (0b11111,)
    assert rep.singles == 0 and rep.pairs == 0

    rep = d4_components(star_graph(4))
    assert rep.components == (0b1,)
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


def test_canonical_form_matches_the_list_cell_reference(ore17):
    # keys, orders and generators alike: the mask-cell search must build
    # the same tree in the same order as the list-cell one
    graphs = [g for g, _ in ore17] + [named_graph(name) for name in sorted(NAMED)]
    for name in ("groetzsch", "mycielski_groetzsch"):
        G = named_graph(name)
        graphs += [shuffled_copy(G, random.Random(seed))[0] for seed in range(5)]
    rng = random.Random(23)
    # edge probabilities across [0, 1] give empty, complete and
    # disconnected graphs among the samples
    graphs += [random_graph(rng.randint(1, 16), rng.random(), rng) for _ in range(300)]
    for G in graphs:
        assert canonical_form(G) == canonical_form_reference(G)


ORE17_KEYS_SHA256 = "c203debe2b45d8ab7bacbd3c5d85b180accf0f79ed6b249b5a1e798009914bca"
"""sha256 of one ``<key hex> <order, comma-separated>`` line per class of
``enumerate_5_ore(17)``, in order, as computed before automorphism pruning.
Corpus file names derive from these keys."""


REFINE_AND_BOUND = 39_687
"""Row-and-mask ANDs that ``canonical_form`` makes over the classes of
``enumerate_5_ore(17)``, pinned from the refinement on mask cells that sums
rows into bit planes; on list cells, counting into every cell on every pass
made 472,902, and counting only into freshly split cells 126,702."""


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


def test_generators_generate_the_automorphism_group(ore13, n17):
    graphs = [g for g, _ in ore13] + [named_graph(name) for name in sorted(NAMED)]
    graphs += [cycle_graph(7), star_graph(4), Graph.from_edges(4, [(0, 1), (2, 3)])]
    # the smallest asymmetric trees have seven vertices
    graphs.append(Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]))
    # n = 17 generators feed the orbit tables of the n = 21 compositions
    graphs += random.Random(17).sample(n17, 40)
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


def test_refine_matches_full_refinement_on_random_partitions():
    # cells are shuffled vertex lists for the oracle; a mask has no order
    # within a cell, so the two agree on the cells as vertex sets
    rng = random.Random(29)
    split = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        G = random_graph(n, rng.random(), rng)
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        cells = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        want = [mask_of(c) for c in refine_full(G.adj, [list(c) for c in cells])]
        assert _refine(G.adj, [mask_of(c) for c in cells]) == want
        split += len(want) > len(cells)
    assert split > 100  # most samples refine at least once


def test_refine_of_an_individualized_vertex_matches_full_refinement(ore13):
    # the canonical search refines each child from its parent's equitable
    # partition with one cell split into v and the rest, passing [1 << v]
    graphs = [g for g, _ in ore13]
    graphs += [named_graph(name) for name in sorted(NAMED) if name != "k5"]
    children = 0
    for G in graphs:
        cells = refine_full(G.adj, [list(range(G.n))])
        for i, cell in enumerate(cells):
            for v in cell if len(cell) > 1 else ():
                child = cells[:i] + [[v], [w for w in cell if w != v]] + cells[i + 1 :]
                want = [mask_of(c) for c in refine_full(G.adj, child)]
                assert _refine(G.adj, [mask_of(c) for c in child], [1 << v]) == want
                children += 1
    assert children > 300


def test_canonical_refinement_work_is_bounded(ore17):
    # every refinement count and homogeneity test ANDs an adjacency row
    # with a mask; wrapping the rows counts them without a counter in src/
    total = 0
    for g, _ in ore17:
        result, ands, _ = row_work(canonical_form, g)
        total += ands
        assert result == canonical_form(g)
    assert total <= REFINE_AND_BOUND


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
    with pytest.raises(ValueError, match=r"^line 3: duplicate edge \(0,1\)$"):
        graph_from_text("2 2\n0 1\n0 1\n")
    with pytest.raises(ValueError, match=r"^line 2: edge \(0,5\) out of range for n=3$"):
        graph_from_text("3 1\n0 5\n")
    with pytest.raises(ValueError, match=r"^line 2: edge \(-1,2\) out of range for n=3$"):
        graph_from_text("3 1\n-1 2\n")
    # blank lines are skipped, before the header too, and lines keep the
    # numbers they have in the text
    assert graph_from_text("\n\n3 1\n\n0 1\n") == Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match=r"^line 3: edge \(0,5\) out of range for n=3$"):
        graph_from_text("\n3 1\n0 5\n")
    with pytest.raises(ValueError, match=r"^line 1: vertex count 0 outside 1\.\.64$"):
        graph_from_text("0 0\n")
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
    # 63 and more vertices take the four-character "~" header
    for n in (62, 63, 64):
        G = random_graph(n, rng.random(), rng)
        text = graph_to_graph6(G)
        assert (text[0] == "~") == (n > 62)
        assert graph_from_graph6(text) == G


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    # 62 vertices take the one-character header, 63 and 64 the "~" one
    for n in itertools.chain((rng.randint(1, 30) for _ in range(25)), (62, 63, 64)):
        G = random_graph(n, rng.random(), rng)
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
    with pytest.raises(ValueError, match="truncated graph6 header"):
        graph_from_graph6("~??")
