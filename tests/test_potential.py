import dataclasses
import random

import pytest

from orelab import (
    Facts,
    Graph,
    InvariantViolation,
    Rat21,
    critical_extension,
    named_graph,
    p_ky,
    potential,
)
from orelab.coloring import is_collapsible, seeded_coloring
from orelab.constructions import complete_graph, cycle_graph
from orelab.graph_core import induced_subgraph
from orelab.packing import piece_table
from orelab.potential import (
    DELTA,
    EPS,
    KY_CORE_COST,
    P_GAP,
    _low_ky_subsets,
    f_core,
    p_ky_set,
    phi_identify,
    potentials_inside,
    random_extension,
    verify_extension_inequalities,
    verify_main_theorem,
    verify_ore5_bounds,
)

from helpers import (
    canonical_key,
    cluster_size_sequence,
    corpus_key,
    critical_complement,
    low_ky_subsets_by_masks,
    low_ky_subsets_reference,
    ore_collapsible_subsets,
    random_graph,
    splitting_coloring,
)


def one_three(doubles):
    return next(
        (g, r) for g, r in doubles if cluster_size_sequence(g) == (3, 3, 1, 1)
    )


# --- exact arithmetic ---------------------------------------------------------


def test_rat21_arithmetic():
    a, b = Rat21(5), Rat21(-7)
    assert (a + b).num == -2
    assert (a - b).num == 12
    assert (-a).num == -5
    assert (3 * a).num == 15 and (a * 3).num == 15
    assert Rat21.whole(4) == Rat21(84)
    assert str(Rat21(94)) == "94/21"
    assert Rat21(1) < Rat21(2) <= Rat21(2) < Rat21(44)
    assert sorted([Rat21(3), Rat21(-1), Rat21(0)]) == [
        Rat21(-1),
        Rat21(0),
        Rat21(3),
    ]


def test_rat21_rejects_non_integer_factors():
    with pytest.raises(TypeError):
        Rat21(1) * 0.5
    with pytest.raises(TypeError):
        Rat21(1) * Rat21(2)


def test_constants():
    assert (EPS.num, DELTA.num, P_GAP.num) == (1, 8, 48)


def test_f_core_values_and_range():
    assert [f_core(x).num for x in (1, 2, 3, 4)] == [190, 296, 318, 256]
    assert KY_CORE_COST == {1: 9, 2: 14, 3: 15, 4: 12}
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            f_core(bad)


# --- potentials ---------------------------------------------------------------


def test_p_ky_values(doubles):
    assert p_ky(complete_graph(5)) == 5
    for g, _ in doubles:
        assert p_ky(g) == 5
    assert p_ky(named_graph("c5_join_k2")) == -1
    assert p_ky(named_graph("k1_join_groetzsch")) == -16
    assert p_ky(named_graph("mycielski_groetzsch")) == -77


def test_potential_values(doubles):
    assert potential(complete_graph(5)) == Rat21(94)
    for g, _ in doubles:
        assert potential(g) == Rat21(82)
    assert potential(named_graph("c5_join_k2")) == Rat21(-30)
    assert potential(named_graph("k1_join_groetzsch")) == Rat21(-332)
    assert potential(named_graph("mycielski_groetzsch")) == Rat21(-1594)


def test_set_potentials_match_induced_subgraph(doubles):
    g, _ = doubles[0]
    for R in ([0, 1, 2, 3, 4], [1, 3, 5, 7, 8], list(range(6))):
        sub = induced_subgraph(g, R)
        assert p_ky_set(g, R) == p_ky(sub)
        assert potentials_inside(g, piece_table(g), R) == (p_ky(sub), potential(sub))


# --- identification -----------------------------------------------------------


def test_phi_identify_shape(doubles):
    g, recipe = one_three(doubles)
    R = list(range(5))
    colors = seeded_coloring(induced_subgraph(g, R), 4, random.Random(0))
    phi = {v: colors[i] for i, v in enumerate(R)}
    H, names = phi_identify(g, R, phi)
    assert H.n == g.n - len(R) + 4
    assert names == (-1, -2, -3, -4, 5, 6, 7, 8)
    # identifying the filled block forces its boundary pair together
    assert phi[0] == phi[1]
    for i in range(4):
        for j in range(i + 1, 4):
            assert H.has_edge(i, j)


def test_phi_identify_rejects_bad_input(doubles):
    g, _ = doubles[0]
    good_r = list(range(5))
    colors = seeded_coloring(induced_subgraph(g, good_r), 4, random.Random(0))
    phi = {v: colors[i] for i, v in enumerate(good_r)}
    with pytest.raises(ValueError, match="at least 5"):
        phi_identify(g, range(4), {v: 1 for v in range(4)})
    with pytest.raises(ValueError, match="proper subset"):
        phi_identify(g, range(g.n), {v: 1 for v in range(g.n)})
    with pytest.raises(ValueError, match="proper subset"):
        phi_identify(g, good_r[1:] + [g.n], {v: 1 for v in good_r[1:] + [g.n]})
    with pytest.raises(ValueError, match="exactly"):
        phi_identify(g, good_r, {v: phi[v] for v in good_r[:-1]})
    with pytest.raises(ValueError, match="outside 1..4"):
        phi_identify(g, good_r, {**phi, 0: 5})
    bad = dict(phi)
    bad[2] = bad[3]
    with pytest.raises(ValueError, match="not proper"):
        phi_identify(g, good_r, bad)


def test_identification_panics_on_non_critical_host():
    C9 = cycle_graph(9)
    phi = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}
    with pytest.raises(InvariantViolation):
        critical_extension(C9, range(5), phi)


# --- critical extensions --------------------------------------------------------


def block_extension(g, seed=0):
    R = list(range(5))
    colors = seeded_coloring(induced_subgraph(g, R), 4, random.Random(seed))
    phi = {v: colors[i] for i, v in enumerate(R)}
    return critical_extension(g, R, phi)


def test_edge_block_extension_is_total_with_tiny_core(doubles):
    for g, _ in doubles:
        rec = block_extension(g)
        assert rec.core_size == 1
        assert rec.complete and rec.spanning
        assert rec.empty_classes == ()
        assert rec.expanded == g.vertex_set()
        # the extender reassembles the vertex side: merged class vertex
        # plus the four vertices outside the block, i.e. K5 again
        assert rec.extender.n == 5
        assert canonical_key(rec.extender) == canonical_key(complete_graph(5))


def test_extension_inequalities_frozen_slacks(doubles):
    g, _ = one_three(doubles)
    rep = verify_extension_inequalities(block_extension(g), corpus_key(g), piece_table(g))
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["ky-extension"].slack21 == 0
    assert by_name["refined-extension"].slack21 == 0
    assert by_name["coarse-extension"].slack21 == 8
    line = rep.lines()[0]
    assert line.startswith("CHECK ky-extension ") and line.endswith(" PASS slack=0/21")


def test_extension_with_empty_class():
    g = named_graph("c5_join_k2")
    phi = {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}  # rim cycle, three colors
    rec = critical_extension(g, range(5), phi)
    assert rec.empty_classes == (4,)
    assert 4 not in rec.core_classes
    assert verify_extension_inequalities(rec, corpus_key(g), piece_table(g)).ok


def test_collapsible_subsets_extend_totally(doubles):
    # one direction of the collapsibility/extension correspondence
    for g, _ in doubles:
        for R in ore_collapsible_subsets(g):
            order = sorted(R)
            for seed in range(8):
                colors = seeded_coloring(
                    induced_subgraph(g, order), 4, random.Random(seed)
                )
                phi = {v: colors[i] for i, v in enumerate(order)}
                rec = critical_extension(g, order, phi)
                assert rec.complete and rec.spanning and rec.core_size == 1


def test_splitting_colorings_break_totality(doubles):
    # and the converse: a coloring splitting the boundary cannot extend
    # to a total extension with a single-class core
    hit = False
    for g, _ in doubles:
        if is_collapsible(g, range(6)):
            continue
        hit = True
        phi = splitting_coloring(g, range(6))
        rec = critical_extension(g, range(6), phi)
        assert not (rec.complete and rec.spanning and rec.core_size == 1)
    assert hit


def test_complement_potential_bound(doubles):
    # exact form of the collapse/complement interplay: for Ore-collapsible
    # R, p(R) >= p(G) - p(W) + 9 + eps - delta with W the complement
    gap = Rat21.whole(9) + EPS - DELTA
    for g, _ in doubles:
        for R in ore_collapsible_subsets(g):
            W, _ = critical_complement(g, R)
            _, lhs = potentials_inside(g, piece_table(g), R)
            rhs = potential(g) - potential(W) + gap
            assert lhs >= rhs
    g, _ = one_three(doubles)
    R = frozenset(range(5))
    W, _ = critical_complement(g, R)
    assert potentials_inside(g, piece_table(g), R)[1] == Rat21(178)
    assert potential(g) - potential(W) + gap == Rat21(170)


def test_random_extension_fuzz_never_violates(doubles):
    rng = random.Random(1)
    graphs = [g for g, _ in doubles] + [named_graph("c5_join_k2")]
    for g in graphs:
        for _ in range(40):
            rec = random_extension(g, rng)
            assert rec.core_size >= 1
            rep = verify_extension_inequalities(rec, corpus_key(g), piece_table(g))
            assert rep.ok, "\n".join(rep.lines())


def test_random_extension_needs_room():
    with pytest.raises(ValueError):
        random_extension(complete_graph(5), random.Random(0))


# --- theorem-shaped verifiers ---------------------------------------------------


def test_main_theorem_on_k5():
    rep = verify_main_theorem(Facts.of(complete_graph(5)))
    assert rep.ok
    assert [c.name for c in rep.checks] == ["main-case-k5"]
    assert rep.checks[0].slack21 == 0


def test_main_theorem_on_doubles_is_tight(doubles):
    for g, _ in doubles:
        rep = verify_main_theorem(Facts.of(g))
        assert rep.ok
        assert [c.name for c in rep.checks] == ["main-case-ore"]
        assert rep.checks[0].slack21 == 0


def test_main_theorem_on_non_ore_witnesses():
    for name, slack in (
        ("c5_join_k2", 87),
        ("k1_join_groetzsch", 389),
        ("mycielski_groetzsch", 1651),
    ):
        rep = verify_main_theorem(Facts.of(named_graph(name)))
        assert rep.ok
        assert rep.checks[0].name == "main-case-other"
        assert rep.checks[0].slack21 == slack


def test_main_theorem_triangle_free_row():
    rep = verify_main_theorem(Facts.of(named_graph("mycielski_groetzsch")))
    rows = {c.name: c for c in rep.checks}
    assert "triangle-free-edges" in rows
    assert rows["triangle-free-edges"].ok
    assert rows["triangle-free-edges"].note == "slack=1699/84"
    rep2 = verify_main_theorem(Facts.of(named_graph("c5_join_k2")))
    assert all(c.name != "triangle-free-edges" for c in rep2.checks)


def test_main_theorem_rejects_non_critical():
    with pytest.raises(ValueError):
        verify_main_theorem(Facts.of(named_graph("groetzsch")))


def test_ore5_bounds_on_k5():
    rep = verify_ore5_bounds(Facts.of(complete_graph(5)))
    by_name = {c.name: c for c in rep.checks}
    assert rep.ok
    assert by_name["ore5-ky-upper"].slack21 == 0
    assert by_name["ore5-low-ky-collapsible"].note == "subsets=0 of=0 low=0"


def test_ore5_bounds_sweep_on_doubles(doubles):
    for (g, _), low in zip(doubles, (2, 1)):
        rep = verify_ore5_bounds(Facts.of(g))
        by_name = {c.name: c for c in rep.checks}
        assert rep.ok
        assert by_name["ore5-low-ky-collapsible"].note == f"subsets=255 of=255 low={low}"


def test_ore5_bounds_names_a_violating_subset():
    # c5_join_k2 is not 5-Ore; given a recipe anyway, the sweep runs and
    # finds R = V - {4}: p_ky(R) = 6, and the adjacent K2 pair lies on its
    # boundary, so R is not collapsible
    facts = dataclasses.replace(
        Facts.of(named_graph("c5_join_k2")), recipe=Facts.of(complete_graph(5)).recipe
    )
    row = verify_ore5_bounds(facts).checks[-1]
    assert row.name == "ore5-low-ky-collapsible"
    assert not row.ok
    assert row.note == "subsets=28 of=28 low=10 violation=0,1,2,3,5,6"


def test_low_ky_subsets_match_the_mask_loop(ore13, ore17):
    graphs = [g for g, _ in ore13]
    for seed, g in enumerate(list(graphs)):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        graphs.append(Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    graphs += random.Random(17).sample([g for g, _ in ore17 if g.n == 17], 2)
    # arbitrary graphs also hold low sets with p_ky of 10 and 11
    rng = random.Random(5)
    for _ in range(30):
        graphs.append(random_graph(rng.randint(6, 12), rng.choice((0.4, 0.6, 0.8)), rng))
    for g in graphs:
        assert sorted(_low_ky_subsets(g)) == low_ky_subsets_by_masks(g)


def test_low_ky_subsets_keep_the_reference_order(ore17):
    # verify_ore5_bounds names the first violating set in this order
    for g, _ in ore17:
        assert _low_ky_subsets(g) == list(low_ky_subsets_reference(g))


def test_low_ky_sweep_work_is_bounded(ore13):
    # the sweep keeps its bound incrementally, so it reads each adjacency
    # row's degree once and never masks a row; summing the bound afresh at
    # every node masks two rows per undecided vertex (74,883 over these
    # classes)
    calls = [0]

    class Row(int):
        def __and__(self, other):
            calls[0] += 1
            return int.__and__(self, other)

        def bit_count(self):
            calls[0] += 1
            return int.bit_count(self)

    total = 0
    for g, _ in ore13:
        wrapped = Graph(g.n, tuple(Row(r) for r in g.adj))
        before = calls[0]
        low = sorted(_low_ky_subsets(wrapped))
        total += calls[0] - before
        assert low == low_ky_subsets_by_masks(g)
    assert total <= sum(g.n for g, _ in ore13)


def test_ore5_bounds_on_non_ore_graph():
    rep = verify_ore5_bounds(Facts.of(named_graph("c5_join_k2")))
    assert rep.ok
    assert [c.name for c in rep.checks] == ["ore5-ky-upper", "ore5-equivalence"]
    assert rep.checks[0].slack21 == 126
