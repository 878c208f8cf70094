import random

import pytest

from orelab import Graph, InvariantViolation, named_graph, ore_compose
from orelab import coloring
from orelab.coloring import (
    boundary,
    extract_5_critical,
    is_5_critical,
    is_collapsible,
    is_k_colorable,
    seeded_coloring,
)
from orelab.constructions import NAMED, complete_graph, cycle_graph
from orelab.graph_core import induced_subgraph, with_edge, without_edge
from orelab.ore import Compose, Leaf

from helpers import (
    brute_colorable,
    canonical_key,
    critical_by_edges,
    critical_complement,
    extract_by_edges,
    path_graph,
    random_graph,
    wheel,
)


def proper(G, colors, k):
    assert len(colors) == G.n
    assert all(1 <= c <= k for c in colors)
    assert all(colors[u] != colors[v] for u, v in G.edges())


# --- the exact solver --------------------------------------------------------


def test_solver_agrees_with_brute_force():
    rng = random.Random(101)
    hits = 0
    for _ in range(500):
        n = rng.randint(1, 9)
        p = 0.15 + 0.7 * rng.random()
        G = random_graph(n, p, rng)
        k = rng.randint(1, 4)
        got = is_k_colorable(G, k)
        assert (got is not None) == brute_colorable(G, k)
        if got is not None:
            proper(G, got, k)
            hits += 1
    assert 0 < hits < 500


def test_solver_known_answers():
    assert is_k_colorable(complete_graph(5), 4) is None
    assert is_k_colorable(without_edge(complete_graph(5), 0, 1), 4) is not None
    assert is_k_colorable(cycle_graph(5), 2) is None
    assert is_k_colorable(cycle_graph(5), 3) is not None
    gro = named_graph("groetzsch")
    assert is_k_colorable(gro, 3) is None
    assert is_k_colorable(gro, 4) is not None
    assert is_k_colorable(Graph.from_edges(1, []), 1) == (1,)


def test_solver_handles_disconnected_graphs():
    two_k4 = Graph.from_edges(
        8,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)],
    )
    colors = is_k_colorable(two_k4, 4)
    proper(two_k4, colors, 4)
    assert is_k_colorable(two_k4, 3) is None


def test_seeded_coloring_is_deterministic_and_varied():
    G = named_graph("groetzsch")
    rngs = [random.Random(s) for s in (0, 0, 1, 2, 3)]
    outs = [seeded_coloring(G, 4, r) for r in rngs]
    for colors in outs:
        proper(G, colors, 4)
    assert outs[0] == outs[1]
    assert len(set(outs)) > 1
    assert seeded_coloring(complete_graph(5), 4, random.Random(0)) is None


# --- criticality -------------------------------------------------------------


def test_is_5_critical_known_graphs(doubles):
    assert is_5_critical(complete_graph(5))
    assert is_5_critical(named_graph("c5_join_k2"))
    for g, _ in doubles:
        assert is_5_critical(g)
    assert not is_5_critical(complete_graph(6))
    assert not is_5_critical(complete_graph(4))
    assert not is_5_critical(named_graph("groetzsch"))
    assert not is_5_critical(wheel(5))


def test_k5_plus_isolated_vertex_is_not_critical():
    G = Graph.from_edges(6, complete_graph(5).edges())
    assert not is_5_critical(G)


def test_k5_plus_pendant_is_not_critical():
    G = Graph.from_edges(6, complete_graph(5).edges() + [(0, 5)])
    assert not is_5_critical(G)


# --- the witness walk ----------------------------------------------------------


def one_edge_changes(G):
    """G with each edge deleted, then G with each non-edge added."""
    out = [without_edge(G, u, v) for u, v in G.edges()]
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if not G.has_edge(u, v):
                out.append(with_edge(G, u, v))
    return out


def test_is_5_critical_agrees_with_per_edge_oracle(ore13):
    classes = [g for g, _ in ore13]
    assert len(classes) == 26
    graphs = classes + [named_graph(name) for name in sorted(NAMED)]
    for g in classes:
        if g.n <= 9:
            graphs += one_edge_changes(g)
    verdicts = [is_5_critical(g) for g in graphs]
    assert verdicts == [critical_by_edges(g) for g in graphs]
    assert 0 < verdicts.count(False) < len(verdicts)


def test_walk_checks_every_walked_coloring(monkeypatch):
    real = coloring._recolor

    def corrupt(colors, x, b):
        walked = list(real(colors, x, b))
        z = (x + 1) % len(walked)
        walked[z] = walked[z] % 4 + 1
        return tuple(walked)

    # in K5 - xw the other three vertices hold the other three colors, so
    # recoloring any vertex but x makes a clash on an edge other than xw
    monkeypatch.setattr(coloring, "_recolor", corrupt)
    with pytest.raises(InvariantViolation, match="walk"):
        is_5_critical(complete_graph(5))


def test_walk_solves_fewer_than_one_search_per_edge(monkeypatch):
    G = named_graph("mycielski_groetzsch")
    assert G.m == 71
    real = coloring._solve_component
    solves = []

    def counted(g, k):
        solves.append(g.n)
        return real(g, k)

    monkeypatch.setattr(coloring, "_solve_component", counted)
    assert is_5_critical(G)
    assert 0 < len(solves) < G.m


def test_extract_keeps_the_plain_scan_result(doubles):
    inputs = [complete_graph(6)] + one_edge_changes(named_graph("mycielski_groetzsch"))[-3:]
    for g, _ in doubles:
        inputs += one_edge_changes(g)[g.m :]
    for G in inputs:
        want = extract_by_edges(G)
        keep = [v for v in range(want.n) if want.degree(v) > 0]
        got = extract_5_critical(G)
        assert got == induced_subgraph(want, keep)
        assert got.labels == tuple(keep)


def test_extract_5_critical():
    got = extract_5_critical(complete_graph(6))
    assert canonical_key(got) == canonical_key(complete_graph(5))

    G = Graph.from_edges(7, complete_graph(5).edges() + [(0, 5), (5, 6)])
    got = extract_5_critical(G)
    assert got == complete_graph(5)
    assert got.labels == (0, 1, 2, 3, 4)

    with pytest.raises(ValueError):
        extract_5_critical(cycle_graph(5))


def test_extract_preserves_existing_labels():
    G = Graph.from_edges(
        6, complete_graph(5).edges() + [(2, 5)], labels=(9, 8, 7, 6, 5, 4)
    )
    got = extract_5_critical(G)
    assert got.labels == (9, 8, 7, 6, 5)


# --- collapsibility ---------------------------------------------------------


def edge_block_of(recipe):
    """The edge-side image in a composed graph, always 0..n1-1."""
    g1 = ore_compose(recipe.edge_side)
    return list(range(g1.n))


def test_boundary():
    G = path_graph(5)
    assert boundary(G, [0, 1, 2]) == (2,)
    assert boundary(G, [1, 2, 3]) == (1, 3)
    assert boundary(G, range(5)) == ()


def test_edge_block_is_collapsible(doubles):
    for g, recipe in doubles:
        R = edge_block_of(recipe)
        rep = is_collapsible(g, R)
        assert rep.collapsible
        x, y = recipe.replaced_edge
        assert rep.boundary == (min(x, y), max(x, y))
        assert rep.splitting_coloring is None


def test_adjacent_boundary_pair_splits(doubles):
    g = doubles[0][0]
    # drop one vertex of the edge block: the rest has adjacent boundary
    rep = is_collapsible(g, [1, 2, 3, 4, 5])
    assert not rep.collapsible
    assert rep.splitting_coloring is not None


def test_splitting_witness_is_a_proper_splitting(doubles):
    for g, recipe in doubles:
        R = list(range(6))  # one vertex past the edge block
        rep = is_collapsible(g, R)
        if rep.collapsible:
            continue
        w = rep.splitting_coloring
        assert set(w) == set(R)
        for u in R:
            for v in R:
                if u < v and g.has_edge(u, v):
                    assert w[u] != w[v]
        assert any(
            w[u] != w[v]
            for i, u in enumerate(rep.boundary)
            for v in rep.boundary[i + 1 :]
        )
    # at least one of the two classes must produce a splitting here
    assert any(
        not is_collapsible(g, list(range(6))).collapsible for g, _ in doubles
    )


def test_single_vertex_boundary_is_collapsible_by_convention():
    base = without_edge(complete_graph(5), 0, 1)
    G = Graph.from_edges(6, base.edges() + [(0, 5)])
    rep = is_collapsible(G, range(5))
    assert rep.collapsible and rep.boundary == (0,)


def test_is_collapsible_rejects_bad_subsets():
    G = named_graph("c5_join_k2")
    with pytest.raises(ValueError, match="at least 5"):
        is_collapsible(G, range(4))
    with pytest.raises(ValueError, match="proper subset"):
        is_collapsible(G, range(G.n))
    with pytest.raises(ValueError, match="4-colorable"):
        is_collapsible(
            Graph.from_edges(6, complete_graph(5).edges() + [(0, 5)]), range(5)
        )
    disconnected = Graph.from_edges(
        10,
        cycle_graph(5).edges()
        + [(u + 5, v + 5) for u, v in complete_graph(5).edges()],
    )
    with pytest.raises(ValueError, match="boundary"):
        is_collapsible(disconnected, range(5))


def test_critical_complement_of_edge_block_is_k5(doubles):
    for g, recipe in doubles:
        W, special = critical_complement(g, edge_block_of(recipe))
        assert special == 0
        assert canonical_key(W) == canonical_key(complete_graph(5))
        assert W.label(0) == -1
        assert set(W.labels[1:]) == set(range(5, g.n))


def test_critical_complement_of_chain_block(doubles):
    # glue a K5 onto a double K5 through a fresh composition, then collapse
    # the new block; what is left must be the double K5 again
    g2, recipe2 = doubles[0]
    chain = Compose(Leaf(), (0, 1), recipe2, 2, ((0,), (1, 3, 4)))
    G = ore_compose(chain)
    assert G.n == 13
    W, _ = critical_complement(G, range(5))
    assert canonical_key(W) == canonical_key(g2)


def test_critical_complement_rejects_non_collapsible(doubles):
    g = doubles[0][0]
    if not is_collapsible(g, range(6)).collapsible:
        with pytest.raises(ValueError):
            critical_complement(g, range(6))


def test_critical_graphs_have_min_degree_four(doubles):
    for g, _ in doubles:
        assert min(g.degree(v) for v in range(g.n)) >= 4
