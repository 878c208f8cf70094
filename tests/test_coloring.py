import random
import sys

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
from orelab.graph_core import (
    bits,
    connected_components,
    induced_subgraph,
    mask_of,
    relabel,
    two_cuts,
    without_edges,
)
from orelab.ore import Compose, Leaf, compose_graphs
from orelab.potential import _low_ky_subsets, critical_extension, phi_identify

from helpers import (
    brute_colorable,
    by_cuts_reference,
    canonical_key,
    collapsible_reference,
    critical_by_edges,
    critical_complement,
    extract_by_edges,
    glued_pair,
    k_coloring_reference,
    path_graph,
    random_graph,
    split_reference,
    splitting_coloring,
    wheel,
    with_edge,
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
    assert is_k_colorable(without_edges(complete_graph(5), [(0, 1)]), 4) is not None
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


def disjoint_union(parts):
    edges, off = [], 0
    for g in parts:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph.from_edges(off, edges)


def solve_each_component(G, k):
    """The search run on the k-core of every component, each copied out as a
    graph of its own."""
    colors = [0] * G.n
    for comp in connected_components(G):
        sub = induced_subgraph(G, comp)
        res = [0] * sub.n
        if not coloring._peel_solve_check(sub, (1 << sub.n) - 1, k, coloring._search, res):
            return None
        for i, v in enumerate(bits(comp)):
            colors[v] = res[i]
    return tuple(colors)


def test_solver_on_isolated_vertices_and_several_components():
    rng = random.Random(202)
    shapes = set()
    for _ in range(300):
        parts = [random_graph(rng.choice((1, 1, 2, 3, 4, 5)), 0.3 + 0.6 * rng.random(), rng)
                 for _ in range(rng.randint(1, 4))]
        G = disjoint_union(parts)
        if G.n > 10:
            continue
        k = rng.randint(1, 4)
        got = is_k_colorable(G, k)
        assert (got is not None) == brute_colorable(G, k)
        assert got == solve_each_component(G, k)
        if got is not None:
            proper(G, got, k)
        comps = connected_components(G)
        shapes.add((len(comps) > 1, any(c.bit_count() == 1 for c in comps), got is None))
    assert len(shapes) >= 6


# k-cores that are k-colorable, for k = 2, 3 and 4, so a chain of them has
# a core that the peel may cut apart and that the search colors
OCTAHEDRON = Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3])
CORE_BLOCKS = (cycle_graph(6), complete_graph(4), wheel(4), wheel(6), OCTAHEDRON)


def block(rng):
    """A colorable core or a seeded random graph, its vertices shuffled."""
    g = (rng.choice(CORE_BLOCKS) if rng.random() < 0.7 else
         random_graph(rng.randint(2, 7), 0.4 + 0.6 * rng.random(), rng))
    return relabel(g, rng.sample(range(g.n), g.n))


def chained(rng):
    """Two or three blocks joined in a chain by paths of one to three edges,
    beside up to two isolated vertices and sometimes one more block: the
    peel may cut a connected graph's core apart, and several components
    may keep a core."""
    edges, ends, n = [], [], 0
    for _ in range(rng.randint(2, 3)):
        g = block(rng)
        edges += [(u + n, v + n) for u, v in g.edges()]
        ends.append(n + rng.randrange(g.n))
        n += g.n
    for a, b in zip(ends, ends[1:]):
        path = [a] + list(range(n, n + rng.randint(0, 2))) + [b]
        n += len(path) - 2
        edges += list(zip(path, path[1:]))
    if rng.random() < 0.5:
        extra = block(rng)
        edges += [(u + n, v + n) for u, v in extra.edges()]
        n += extra.n
    return Graph.from_edges(n + rng.randint(0, 2), edges)


def seeded_by_reference(G, k, rng):
    """``seeded_coloring`` with the reference search in place of the
    package's."""
    order = list(range(G.n))
    rng.shuffle(order)
    solved = k_coloring_reference(relabel(G, order), k)
    if solved is None:
        return None
    names = rng.sample(range(1, k + 1), k)
    color = [0] * G.n
    for v, c in zip(order, solved):
        color[v] = names[c - 1]
    return tuple(color)


def test_witnesses_equal_the_reference_search(ore17):
    rng = random.Random(404)
    shapes = set()
    for _ in range(400):
        G = chained(rng)
        k = rng.randint(1, 4)
        got = is_k_colorable(G, k)
        assert got == k_coloring_reference(G, k)
        comps = connected_components(G)
        core, _ = coloring._peel(G, k, (1 << G.n) - 1)
        cored = [c for c in comps if core & c]
        split = len(cored) == 1 and len(connected_components(G, within=core)) > 1
        shapes.add((k, got is None, split, len(cored) > 1, any(c.bit_count() == 1 for c in comps)))
    verdicts = {(k, none) for k, none, *_ in shapes}
    assert verdicts == {(1, True)} | {(k, none) for k in (2, 3, 4) for none in (False, True)}
    # (k, None?, a connected graph's core cut apart, several components
    # keep a core, isolated vertices)
    assert {(3, False, True, False, True), (4, False, True, False, True),
            (3, False, False, True, False), (4, False, False, True, True),
            (4, True, True, False, False), (3, True, False, True, True)} <= shapes
    # seeded colorings of induced subgraphs of the n = 17 classes
    seventeen = [g for g, _ in ore17 if g.n == 17]
    pick = random.Random(17)
    for s in range(200):
        R = sorted(pick.sample(range(17), pick.randint(5, 16)))
        G, k = pick.choice(seventeen), 3 + s % 2
        want = seeded_by_reference(induced_subgraph(G, mask_of(R)), k, random.Random(s))
        got = seeded_coloring(G, mask_of(R), k, random.Random(s))
        assert got == (None if want is None else dict(zip(R, want)))


def with_low_degree_vertices(n, rng):
    """A seeded random graph on a few vertices, grown to n by vertices that
    each join one to three earlier ones: pendant trees and other vertices
    the peel may remove."""
    start = rng.randint(1, min(n, 6))
    edges = random_graph(start, 0.3 + 0.7 * rng.random(), rng).edges()
    for v in range(start, n):
        edges += [(u, v) for u in rng.sample(range(v), min(v, rng.randint(1, 3)))]
    return Graph.from_edges(n, edges)


def test_solver_agrees_with_brute_force_around_the_peel():
    rng = random.Random(303)
    verdicts = set()
    for _ in range(400):
        G = with_low_degree_vertices(rng.randint(2, 10), rng)
        k = rng.randint(1, 4)
        got = is_k_colorable(G, k)
        assert (got is not None) == brute_colorable(G, k)
        if got is not None:
            proper(G, got, k)
        verdicts.add((k, got is None))
    assert len(verdicts) == 8


def search_nodes(run):
    """run() and the number of backtracking nodes it opened in the solver."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "dfs" and code.co_filename == coloring.__file__:
            nodes += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, nodes


def test_a_degenerate_graph_is_colored_without_search():
    # K5 - e with a pendant path: every subgraph has a vertex of degree < 4
    G = Graph.from_edges(8, without_edges(complete_graph(5), [(0, 1)]).edges()
                         + [(4, 5), (5, 6), (6, 7)])
    colors, nodes = search_nodes(lambda: is_k_colorable(G, 4))
    proper(G, colors, 4)
    assert nodes == 0
    # the wheel's 3-core is all of it, and its rim needs the search
    assert search_nodes(lambda: is_k_colorable(wheel(5), 3))[1] > 0


def test_a_wrong_peel_is_caught(monkeypatch):
    real = coloring._peel

    def wrong(g, k, mask):
        core, order = real(g, k, mask)
        return core & ~1, order + [0]

    # K5 is its own 4-core; with vertex 0 peeled, the search colors the
    # other four, and 0 is left no color
    monkeypatch.setattr(coloring, "_peel", wrong)
    with pytest.raises(InvariantViolation):
        is_k_colorable(complete_graph(5), 4)


def test_seeded_coloring_is_deterministic_and_varied(doubles):
    G = named_graph("groetzsch")
    every = (1 << G.n) - 1
    rngs = [random.Random(s) for s in (0, 0, 1, 2, 3)]
    outs = [seeded_coloring(G, every, 4, r) for r in rngs]
    for phi in outs:
        proper(G, [phi[v] for v in range(G.n)], 4)
    assert outs[0] == outs[1]
    assert len({tuple(sorted(phi.items())) for phi in outs}) > 1
    assert seeded_coloring(complete_graph(5), 0b11111, 4, random.Random(0)) is None
    # complete, proper on G itself, and a function of the rng state, over
    # the 9-vertex classes and their one-edge deletions and additions
    verdicts = set()
    for g, _ in doubles:
        for s, h in enumerate([g] + one_edge_changes(g)):
            phi = seeded_coloring(h, (1 << h.n) - 1, 4, random.Random(s))
            assert (phi is None) == (is_k_colorable(h, 4) is None)
            assert phi == seeded_coloring(h, (1 << h.n) - 1, 4, random.Random(s))
            if phi is not None:
                proper(h, [phi[v] for v in range(h.n)], 4)
            verdicts.add(phi is None)
    assert verdicts == {False, True}


def test_seeded_colorings_open_few_search_nodes():
    # 100 seeded colorings of 22-vertex subsets of mycielski_groetzsch: a
    # random-order search with no saturation rule opens 1,333,075 nodes on
    # them, 406,888 in its worst call, and passes 1,000 nodes in 46 calls
    M = named_graph("mycielski_groetzsch")
    pick = random.Random(0)
    nodes = []
    for s in range(100):
        R = mask_of(pick.sample(range(M.n), 22))
        colors, count = search_nodes(lambda: seeded_coloring(M, R, 4, random.Random(s)))
        assert colors is not None
        nodes.append(count)
    # 11,824 in all and 951 at most
    assert sum(nodes) <= 12_000
    assert max(nodes) <= 1_000


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
    out = [without_edges(G, [(u, v)]) for u, v in G.edges()]
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if not G.has_edge(u, v):
                out.append(with_edge(G, u, v))
    return out


def split_inputs(ore13):
    """The n <= 13 classes, the named graphs, 400 seeded random graphs (half
    of them two graphs glued at two vertices), and every one-edge deletion
    and addition of the n <= 13 classes."""
    classes = [g for g, _ in ore13]
    rng = random.Random(505)
    graphs = classes + [named_graph(name) for name in sorted(NAMED)]
    for i in range(400):
        graphs.append(glued_pair(rng) if i % 2 else
                      random_graph(rng.randint(1, 12), 0.3 + 0.6 * rng.random(), rng))
    for g in classes:
        graphs += one_edge_changes(g)
    return graphs


def checked_splits(monkeypatch) -> list[bool]:
    """Make every coloring that ``coloring._split`` writes pass ``proper``
    here as well, on the graph its mask induces; the list gets one ``is
    None`` verdict per split."""
    real = coloring._split
    verdicts = []

    def checked(G, mask, k, cut, color):
        found = real(G, mask, k, cut, color)
        colors = [color[v] for v in bits(mask)] if found else None
        if colors is not None:
            proper(induced_subgraph(G, mask), colors, k)
        verdicts.append(colors is None)
        return found

    monkeypatch.setattr(coloring, "_split", checked)
    return verdicts


def test_is_5_critical_agrees_with_per_edge_oracle(ore13, monkeypatch):
    assert len(ore13) == 26
    graphs = split_inputs(ore13)
    splits = checked_splits(monkeypatch)
    verdicts = [is_5_critical(g) for g in graphs]
    assert verdicts == [critical_by_edges(g) for g in graphs]
    assert 0 < verdicts.count(False) < len(verdicts)
    # proofs and G - e solves both went through a split
    assert True in splits and False in splits


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
    real = coloring._search
    solves = []

    def counted(g, k, mask, color):
        solves.append(mask.bit_count())
        return real(g, k, mask, color)

    monkeypatch.setattr(coloring, "_search", counted)
    assert is_5_critical(G)
    assert 0 < len(solves) < G.m


def contains_k5(G):
    def grow(cand, size):
        if size == 5:
            return True
        while cand:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            if grow(cand & G.adj[v], size + 1):
                return True
        return False

    return grow((1 << G.n) - 1, 0)


def identifications(hosts, per_host, rng):
    """Seeded phi_identify inputs, as in an extension record: a random
    proper subset R of each host and a seeded 4-coloring phi of it, as
    (host, phi) pairs."""
    out = []
    for G in hosts:
        for _ in range(per_host):
            R = mask_of(rng.sample(range(G.n), rng.randint(5, G.n - 1)))
            out.append((G, seeded_coloring(G, R, 4, rng)))
    return out


def extension_hosts(ore17):
    """Six seeded n = 17 classes and mycielski_groetzsch."""
    seventeen = [g for g, _ in ore17 if g.n == 17]
    return random.Random(5).sample(seventeen, 6) + [named_graph("mycielski_groetzsch")]


def test_extract_keeps_the_plain_scan_result(doubles, ore17, monkeypatch):
    inputs = [complete_graph(6)] + one_edge_changes(named_graph("mycielski_groetzsch"))[-3:]
    for g, _ in doubles:
        inputs += one_edge_changes(g)[g.m :]
    # identified graphs as extension records build them; with a K5 inside,
    # the scan deletes nearly every other edge in long runs
    pairs = identifications(extension_hosts(ore17), 6, random.Random(17))
    identified = [phi_identify(*pair)[0] for pair in pairs]
    assert 0 < sum(map(contains_k5, identified)) < len(identified)
    real = coloring.is_k_colorable
    solves = []
    monkeypatch.setattr(coloring, "is_k_colorable", lambda g, k: solves.append(g) or real(g, k))
    identified_solves = 0
    for i, G in enumerate(inputs + identified):
        scanned = extract_by_edges(G)
        kept = tuple(v for v in range(scanned.n) if scanned.degree(v) > 0)
        before = len(solves)
        got = extract_5_critical(G)
        if i >= len(inputs):
            identified_solves += len(solves) - before
        assert got == (induced_subgraph(scanned, mask_of(kept)), kept)
        assert is_5_critical(got[0])
    # one edge at a time makes 115 exact solves on the identified graphs;
    # deletions tried in doubling batches, bisected when colorable, made 134
    assert len(identified) == 42
    assert identified_solves <= 115


def test_identification_and_extraction_name_their_vertices(ore17):
    # the vertex maps of phi_identify and extract_5_critical, and the
    # extension record's labels composed from them
    for G, phi in identifications(extension_hosts(ore17), 6, random.Random(17)):
        H, names = phi_identify(G, phi)
        assert names[:4] == (-1, -2, -3, -4)
        assert list(names[4:]) == sorted(names[4:]) and not set(names[4:]) & set(phi)
        assert induced_subgraph(H, mask_of(range(4, H.n))) == induced_subgraph(
            G, mask_of(names[4:])
        )
        W, kept = extract_5_critical(H)
        assert all(a < b for a, b in zip(kept, kept[1:]))
        assert all(H.has_edge(kept[u], kept[v]) for u, v in W.edges())
        rec = critical_extension(G, phi)
        assert rec.extender == W
        assert rec.labels == tuple(names[v] for v in kept)


def test_extract_5_critical():
    got, _ = extract_5_critical(complete_graph(6))
    assert canonical_key(got) == canonical_key(complete_graph(5))

    G = Graph.from_edges(7, complete_graph(5).edges() + [(0, 5), (5, 6)])
    assert extract_5_critical(G) == (complete_graph(5), (0, 1, 2, 3, 4))

    with pytest.raises(ValueError):
        extract_5_critical(cycle_graph(5))


def test_extract_drops_a_pendant_tree_without_solving_it(monkeypatch):
    rng = random.Random(30)
    root = rng.randrange(5)
    tree = [(rng.choice([root, *range(5, v)]), v) for v in range(5, 35)]
    G = Graph.from_edges(35, complete_graph(5).edges() + tree)
    real = coloring.is_k_colorable
    calls = []

    def counted(g, k):
        calls.append(g)
        return real(g, k)

    monkeypatch.setattr(coloring, "is_k_colorable", counted)
    assert extract_5_critical(G) == (complete_graph(5), (0, 1, 2, 3, 4))
    # one refutation of G, and one coloring of K5 - e whose walk certifies
    # the other nine edges
    assert len(calls) <= 2


def test_extract_refuses_an_edge_without_certificate(monkeypatch):
    real = coloring._walk

    def forgetful(G, colors, u, v, done, certs=None):
        real(G, colors, u, v, done, certs)
        del certs[min(u, v), max(u, v)]

    # uv stays marked done, so the scan keeps it, but its coloring is lost
    monkeypatch.setattr(coloring, "_walk", forgetful)
    with pytest.raises(InvariantViolation, match="no certificate"):
        extract_5_critical(complete_graph(6))


def test_extract_rechecks_every_certificate_on_the_final_graph(monkeypatch):
    real = coloring._walk

    def spoiled(G, colors, u, v, done, certs=None):
        real(G, colors, u, v, done, certs)
        key = min(u, v), max(u, v)
        certs[key] = tuple(1 for _ in certs[key])

    monkeypatch.setattr(coloring, "_walk", spoiled)
    with pytest.raises(InvariantViolation, match="walk"):
        extract_5_critical(complete_graph(6))


# --- 2-separations -----------------------------------------------------------


def by_cuts(G, k):
    """``coloring._by_cuts`` on all of G, its coloring as a tuple or None."""
    color = [0] * G.n
    return tuple(color) if coloring._by_cuts(G, (1 << G.n) - 1, k, color) else None


def test_split_verdicts_equal_the_plain_solver(ore13, monkeypatch):
    graphs = split_inputs(ore13)
    splits = checked_splits(monkeypatch)
    for G in graphs:
        for k in (3, 4):
            got = by_cuts(G, k)
            assert (got is None) == (is_k_colorable(G, k) is None)
            if got is not None:
                proper(G, got, k)
    assert True in splits and False in splits


def test_sides_read_off_the_parent_rows_give_the_built_sides_colorings(ore13, doubles):
    # the sides of a split are masks over the parent's rows; building each
    # as a graph of its own, vertex order kept, gives the same cuts, leaves
    # and colorings
    splits = 0
    for G in split_inputs(ore13):
        cut = next(two_cuts(G), None)
        for k in (3, 4):
            assert by_cuts(G, k) == by_cuts_reference(G, k)
            if cut is not None:
                color = [0] * G.n
                found = coloring._split(G, (1 << G.n) - 1, k, cut, color)
                assert (tuple(color) if found else None) == split_reference(G, k, cut)
                splits += 1
    assert splits > 1000
    # and every low-p_ky set of the n <= 13 classes, all 72 of them
    # collapsible, and every set of 5 to 8 vertices of the two 9-vertex
    # classes gets the same collapsibility verdict as with the built pair
    # tests
    questions = [(G, R) for G, _ in ore13 for R, _ in _low_ky_subsets(G)]
    assert len(questions) == 72
    questions += [(G, R) for G, _ in doubles for R in range(1, 511) if R.bit_count() >= 5]
    verdicts = [is_collapsible(G, R) for G, R in questions]
    assert verdicts == [collapsible_reference(G, R) for G, R in questions]
    assert 72 < verdicts.count(True) < len(verdicts)


def test_a_spoiled_glue_is_caught(doubles, monkeypatch):
    # every color of the second side goes to 1, so one of its edges clashes
    monkeypatch.setattr(coloring, "_glue_permutation", lambda k, moves: [0] + [1] * k)
    with pytest.raises(InvariantViolation, match="improper"):
        is_5_critical(doubles[0][0])


def counted_leaves(monkeypatch) -> list[Graph]:
    """Record every core that the search is run on, as a graph of its own."""
    real = coloring._search
    leaves = []

    def counted(g, k, mask, color):
        leaves.append(induced_subgraph(g, mask))
        return real(g, k, mask, color)

    monkeypatch.setattr(coloring, "_search", counted)
    return leaves


def test_the_n17_proofs_end_in_their_k5_blocks(ore17, monkeypatch):
    seventeen = [g for g, _ in ore17 if g.n == 17]
    assert len(seventeen) == 549
    leaves = counted_leaves(monkeypatch)
    verdicts, nodes = search_nodes(lambda: [by_cuts(g, 4) for g in seventeen])
    assert verdicts == [None] * 549
    # four leaves per proof, the graph's four K5 blocks, each refuted by its
    # clique without a search node; the plain solver opens 300,905 search
    # nodes on these graphs
    assert len(leaves) == 4 * 549
    assert all(g == complete_graph(5) for g in leaves)
    assert nodes == 0


def test_the_composite_of_two_mycielski_groetzsch_graphs_is_critical(monkeypatch):
    M = named_graph("mycielski_groetzsch")
    low = M.adj[0] & -M.adj[0]
    G, _ = compose_graphs(M, M.edges()[0], M, 0, (low, M.adj[0] ^ low))
    assert (G.n, G.m) == (45, 141)
    assert not any(G.adj[u] & G.adj[v] for u, v in G.edges())
    leaves = counted_leaves(monkeypatch)
    # the plain search took minutes on this proof; split at the composition
    # pair, it refutes the two copies and colors the edge side with x and y
    # identified
    assert by_cuts(G, 4) is None
    assert len(leaves) == 3
    assert is_5_critical(G)
    assert len(leaves) <= 120


# --- collapsibility ---------------------------------------------------------


def edge_block_of(recipe):
    """The edge-side image in a composed graph, always 0..n1-1."""
    g1 = ore_compose(recipe.edge_side)
    return list(range(g1.n))


def test_boundary():
    G = path_graph(5)
    assert bits(boundary(G, mask_of([0, 1, 2]))) == [2]
    assert bits(boundary(G, mask_of([1, 2, 3]))) == [1, 3]
    assert boundary(G, mask_of(range(5))) == 0


def test_edge_block_is_collapsible(doubles):
    for g, recipe in doubles:
        R = edge_block_of(recipe)
        assert is_collapsible(g, mask_of(R))
        x, y = recipe.replaced_edge
        assert bits(boundary(g, mask_of(R))) == [min(x, y), max(x, y)]
        assert splitting_coloring(g, R) is None


def test_adjacent_boundary_pair_splits(doubles):
    g = doubles[0][0]
    # drop one vertex of the edge block: the rest has adjacent boundary
    assert not is_collapsible(g, mask_of([1, 2, 3, 4, 5]))
    assert splitting_coloring(g, [1, 2, 3, 4, 5]) is not None


def test_splitting_witness_is_a_proper_splitting(doubles):
    for g, recipe in doubles:
        R = list(range(6))  # one vertex past the edge block
        w = splitting_coloring(g, R)
        assert (w is None) == is_collapsible(g, mask_of(R))
        if w is None:
            continue
        assert set(w) == set(R)
        for u in R:
            for v in R:
                if u < v and g.has_edge(u, v):
                    assert w[u] != w[v]
        bnd = bits(boundary(g, mask_of(R)))
        assert any(w[u] != w[v] for i, u in enumerate(bnd) for v in bnd[i + 1 :])
    # at least one of the two classes must produce a splitting here
    assert any(not is_collapsible(g, mask_of(range(6))) for g, _ in doubles)


def test_single_vertex_boundary_is_collapsible_by_convention():
    base = without_edges(complete_graph(5), [(0, 1)])
    G = Graph.from_edges(6, base.edges() + [(0, 5)])
    assert is_collapsible(G, mask_of(range(5))) and boundary(G, mask_of(range(5))) == 0b1


def test_is_collapsible_rejects_bad_subsets():
    G = named_graph("c5_join_k2")
    with pytest.raises(ValueError, match="at least 5"):
        is_collapsible(G, mask_of(range(4)))
    with pytest.raises(ValueError, match="proper subset"):
        is_collapsible(G, mask_of(range(G.n)))
    with pytest.raises(ValueError, match="4-colorable"):
        is_collapsible(
            Graph.from_edges(6, complete_graph(5).edges() + [(0, 5)]), mask_of(range(5))
        )
    disconnected = Graph.from_edges(
        10,
        cycle_graph(5).edges()
        + [(u + 5, v + 5) for u, v in complete_graph(5).edges()],
    )
    with pytest.raises(ValueError, match="boundary"):
        is_collapsible(disconnected, mask_of(range(5)))


def test_critical_complement_of_edge_block_is_k5(doubles):
    for g, recipe in doubles:
        W, names = critical_complement(g, edge_block_of(recipe))
        assert names[0] == -1
        assert canonical_key(W) == canonical_key(complete_graph(5))
        assert set(names[1:]) == set(range(5, g.n))


def test_critical_complement_of_chain_block(doubles):
    # glue a K5 onto a double K5 through a fresh composition, then collapse
    # the new block; what is left must be the double K5 again
    g2, recipe2 = doubles[0]
    chain = Compose(Leaf(), (0, 1), recipe2, 2, (0b1, 0b11010))
    G = ore_compose(chain)
    assert G.n == 13
    W, _ = critical_complement(G, range(5))
    assert canonical_key(W) == canonical_key(g2)


def test_critical_complement_rejects_non_collapsible(doubles):
    g = doubles[0][0]
    if not is_collapsible(g, mask_of(range(6))):
        with pytest.raises(ValueError):
            critical_complement(g, range(6))


def test_critical_graphs_have_min_degree_four(doubles):
    for g, _ in doubles:
        assert min(g.degree(v) for v in range(g.n)) >= 4
