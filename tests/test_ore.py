import random

import pytest

from orelab import (
    Graph,
    canonical_key,
    complete_graph,
    compose_graphs,
    cycle_graph,
    enumerate_5_ore,
    four_cliques,
    gems,
    is_5_ore,
    named_graph,
    ore_collapsible_subsets,
    ore_compose,
    ore_compose_traced,
    recipe_from_text,
    recipe_to_text,
)
from orelab.graph_core import cluster_size_sequence
from orelab import ore
from orelab.ore import Compose, Leaf, k5


def split_kinds(doubles):
    """Return (one_three, two_two) as (graph, recipe) pairs."""
    by_seq = {cluster_size_sequence(g): (g, r) for g, r in doubles}
    return by_seq[(3, 3, 1, 1)], by_seq[(3, 2, 2)]


# --- composition -------------------------------------------------------------


def test_compose_graphs_counts_and_mapping():
    G, out_of = compose_graphs(k5(), (0, 1), k5(), 0, ((1,), (2, 3, 4)))
    assert G.n == 9 and G.m == 19
    assert not G.has_edge(0, 1)
    assert sorted(out_of) == [1, 2, 3, 4]
    assert sorted(out_of.values()) == [5, 6, 7, 8]
    # vertex-side edges away from z survive under the mapping
    for u, v in k5().edges():
        if 0 in (u, v):
            continue
        assert G.has_edge(out_of[u], out_of[v])
    assert G.has_edge(0, out_of[1])
    assert all(G.has_edge(1, out_of[b]) for b in (2, 3, 4))


def test_compose_graphs_rejects_bad_sites():
    with pytest.raises(ValueError, match="not an edge"):
        compose_graphs(cycle_graph(5), (0, 2), k5(), 0, ((1,), (2, 3, 4)))
    with pytest.raises(ValueError, match="nonempty"):
        compose_graphs(k5(), (0, 1), k5(), 0, ((), (1, 2, 3, 4)))
    with pytest.raises(ValueError, match="partition"):
        compose_graphs(k5(), (0, 1), k5(), 0, ((1, 2), (2, 3, 4)))
    with pytest.raises(ValueError, match="partition"):
        compose_graphs(k5(), (0, 1), k5(), 0, ((1,), (2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        compose_graphs(k5(), (0, 1), k5(), 9, ((1,), (2, 3, 4)))


def test_double_k5_shapes(doubles):
    (g13, _), (g22, _) = split_kinds(doubles)
    assert canonical_key(g13) != canonical_key(g22)
    for g in (g13, g22):
        assert (g.n, g.m) == (9, 19)
        assert 4 * g.m == 9 * g.n - 5
    assert sorted(g13.degree(v) for v in range(9)) == [4] * 8 + [6]
    assert sorted(g22.degree(v) for v in range(9)) == [4] * 7 + [5, 5]


def test_traced_composition_lineage():
    recipe = Compose(Leaf(), (0, 1), Leaf(), 0, ((1,), (2, 3, 4)))
    G, prov = ore_compose_traced(recipe)
    assert G == ore_compose(recipe)
    assert prov[0] == frozenset({0, 1}) and prov[1] == frozenset({0, 1})
    assert all(prov[v] == frozenset({0}) for v in (2, 3, 4))
    assert all(prov[v] == frozenset({1}) for v in (5, 6, 7, 8))


# --- recipe text -------------------------------------------------------------


def test_recipe_text_exact_form():
    recipe = Compose(Leaf(), (0, 1), Leaf(), 0, ((1,), (2, 3, 4)))
    text = recipe_to_text(recipe)
    assert text == "(compose (k5) e=0-1 (k5) z=0 split=1|2,3,4)"
    assert recipe_from_text(text) == recipe
    assert recipe_from_text("(k5)") == Leaf()


def test_recipe_text_round_trip_nested(ore13):
    for g, recipe in ore13:
        back = recipe_from_text(recipe_to_text(recipe))
        assert back == recipe
        assert ore_compose(back) == g


def test_recipe_parser_errors():
    for bad in (
        "",
        "(k4)",
        "(compose (k5) (k5))",
        "(compose (k5) e=0-1 (k5) z=0 split=1|2,3,4",  # unbalanced
        "(k5) trailing",
        "(compose (k5) e=0:1 (k5) z=0 split=1|2,3,4)",
    ):
        with pytest.raises(ValueError):
            recipe_from_text(bad)


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


# --- recognition -------------------------------------------------------------


def test_is_5_ore_known_answers():
    assert is_5_ore(complete_graph(5)) == Leaf()
    assert is_5_ore(named_graph("c5_join_k2")) is None
    assert is_5_ore(named_graph("groetzsch")) is None
    assert is_5_ore(complete_graph(6)) is None
    assert is_5_ore(cycle_graph(9)) is None


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


# --- gems --------------------------------------------------------------------


def test_gems_on_k5():
    rep = gems(complete_graph(5))
    assert len(rep.emeralds) == 5
    assert rep.diamonds == ()
    assert not rep.ungemmed


def test_gems_on_k5_minus_edge():
    from orelab import without_edge

    rep = gems(without_edge(complete_graph(5), 0, 1))
    assert len(rep.diamonds) == 1
    assert rep.diamonds[0] == frozenset(range(5))
    assert rep.emeralds == ()


def test_gems_on_doubles(doubles):
    (g13, _), (g22, _) = split_kinds(doubles)
    rep13 = gems(g13)
    assert len(rep13.diamonds) == 2 and len(rep13.emeralds) == 2
    rep22 = gems(g22)
    assert len(rep22.diamonds) == 1 and len(rep22.emeralds) == 1
    assert rep22.diamonds[0] == frozenset(range(5))


def test_triangle_free_graphs_are_ungemmed():
    assert gems(named_graph("groetzsch")).ungemmed
    assert gems(named_graph("mycielski_groetzsch")).ungemmed


def test_every_vertex_avoided_by_some_gem(ore13):
    for g, _ in ore13:
        rep = gems(g)
        pieces = rep.diamonds + rep.emeralds
        for v in range(g.n):
            assert any(v not in piece for piece in pieces)


def test_every_k4_missed_by_some_gem(ore13):
    for g, _ in ore13:
        if g.n == 5:
            continue
        rep = gems(g)
        pieces = rep.diamonds + rep.emeralds
        for q in four_cliques(g):
            qs = set(q)
            assert any(not (qs & piece) for piece in pieces)


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
    from orelab import induced_subgraph, with_edge
    from orelab.coloring import boundary

    for g, _ in doubles:
        for R in ore_collapsible_subsets(g):
            bnd = boundary(g, R)
            assert len(bnd) == 2
            u, v = bnd
            assert not g.has_edge(u, v)
            order = sorted(R)
            pos = {w: i for i, w in enumerate(order)}
            filled = with_edge(induced_subgraph(g, order), pos[u], pos[v])
            assert is_5_ore(filled) is not None
