import random

import pytest

from orelab import (
    Facts,
    InvariantViolation,
    coloring,
    critical_extension,
    named_graph,
    p_ky,
    potential,
    t_number,
)
from orelab.coloring import is_collapsible, seeded_coloring
from orelab.constructions import complete_graph, cycle_graph
from orelab.graph_core import induced_subgraph, mask_of
from orelab.packing import piece_table
from orelab.potential import (
    DELTA,
    EPS,
    KY_CORE_COST,
    P_GAP,
    ExtensionRecord,
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
    row_work,
    shuffled_copy,
    splitting_coloring,
)


def refined(G):
    """The refined potential of G, from its packing number."""
    return potential(G, t_number(G)[0])


def one_three(doubles):
    return next(
        (g, r) for g, r in doubles if cluster_size_sequence(g) == (3, 3, 1, 1)
    )


# --- exact arithmetic ---------------------------------------------------------


def test_constants():
    assert (EPS, DELTA, P_GAP) == (1, 8, 48)


def test_f_core_values_and_range():
    assert [f_core(x) for x in (1, 2, 3, 4)] == [190, 296, 318, 256]
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
    assert refined(complete_graph(5)) == 94
    for g, _ in doubles:
        assert refined(g) == 82
    assert refined(named_graph("c5_join_k2")) == -30
    assert refined(named_graph("k1_join_groetzsch")) == -332
    assert refined(named_graph("mycielski_groetzsch")) == -1594


def test_set_potentials_match_induced_subgraph(doubles):
    g, _ = doubles[0]
    for R in (mask_of([0, 1, 2, 3, 4]), mask_of([1, 3, 5, 7, 8]), mask_of(range(6))):
        sub = induced_subgraph(g, R)
        assert p_ky_set(g, R) == p_ky(sub)
        assert potentials_inside(g, piece_table(g), R) == (p_ky(sub), refined(sub))


# --- identification -----------------------------------------------------------


def test_phi_identify_shape(doubles):
    g, recipe = one_three(doubles)
    R = list(range(5))
    phi = seeded_coloring(g, mask_of(R), 4, random.Random(0))
    H, names = phi_identify(g, phi)
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
    phi = seeded_coloring(g, mask_of(good_r), 4, random.Random(0))
    with pytest.raises(ValueError, match="at least 5"):
        phi_identify(g, {v: 1 for v in range(4)})
    with pytest.raises(ValueError, match="proper subset"):
        phi_identify(g, {v: 1 for v in range(g.n)})
    with pytest.raises(ValueError, match="proper subset"):
        phi_identify(g, {v: 1 for v in good_r[1:] + [g.n]})
    with pytest.raises(ValueError, match="proper subset"):
        phi_identify(g, {v: 1 for v in [-1] + good_r[1:]})
    with pytest.raises(ValueError, match="outside 1..4"):
        phi_identify(g, {**phi, 0: 5})
    bad = dict(phi)
    bad[2] = bad[3]
    with pytest.raises(ValueError, match="not proper"):
        phi_identify(g, bad)


def test_identification_panics_on_non_critical_host():
    C9 = cycle_graph(9)
    phi = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}
    with pytest.raises(InvariantViolation):
        critical_extension(C9, phi)


# --- critical extensions --------------------------------------------------------


def block_extension(g, seed=0):
    return critical_extension(g, seeded_coloring(g, mask_of(range(5)), 4, random.Random(seed)))


def test_edge_block_extension_is_total_with_tiny_core(doubles):
    for g, _ in doubles:
        rec = block_extension(g)
        assert rec.core_size == 1
        assert rec.complete and rec.spanning
        assert rec.empty_classes == ()
        assert rec.expanded == (1 << g.n) - 1
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
    rec = critical_extension(g, phi)
    assert rec.empty_classes == (4,)
    assert 4 not in rec.core_classes
    assert verify_extension_inequalities(rec, corpus_key(g), piece_table(g)).ok


def test_collapsible_subsets_extend_totally(doubles):
    # one direction of the collapsibility/extension correspondence
    for g, _ in doubles:
        for R in ore_collapsible_subsets(g):
            for seed in range(8):
                rec = critical_extension(g, seeded_coloring(g, mask_of(R), 4, random.Random(seed)))
                assert rec.complete and rec.spanning and rec.core_size == 1


def test_splitting_colorings_break_totality(doubles):
    # and the converse: a coloring splitting the boundary cannot extend
    # to a total extension with a single-class core
    hit = False
    for g, _ in doubles:
        if is_collapsible(g, mask_of(range(6))):
            continue
        hit = True
        phi = splitting_coloring(g, range(6))
        rec = critical_extension(g, phi)
        assert not (rec.complete and rec.spanning and rec.core_size == 1)
    assert hit


def test_complement_potential_bound(doubles):
    # exact form of the collapse/complement interplay: for Ore-collapsible
    # R, p(R) >= p(G) - p(W) + 9 + eps - delta with W the complement
    gap = 21 * 9 + EPS - DELTA
    for g, _ in doubles:
        for R in ore_collapsible_subsets(g):
            W, _ = critical_complement(g, R)
            _, lhs = potentials_inside(g, piece_table(g), mask_of(R))
            rhs = refined(g) - refined(W) + gap
            assert lhs >= rhs
    g, _ = one_three(doubles)
    R = frozenset(range(5))
    W, _ = critical_complement(g, R)
    assert potentials_inside(g, piece_table(g), mask_of(R))[1] == 178
    assert refined(g) - refined(W) + gap == 170


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
    c5 = Facts.of(named_graph("c5_join_k2"))
    recipe = Facts.of(complete_graph(5)).recipe
    facts = Facts(c5.graph, c5.key, c5.critical, recipe, c5.t, c5.mic)
    row = verify_ore5_bounds(facts).checks[-1]
    assert row.name == "ore5-low-ky-collapsible"
    assert not row.ok
    assert row.note == "subsets=28 of=28 low=10 violation=0,1,2,3,5,6"
    assert row.line() == (
        "CHECK ore5-low-ky-collapsible c467ea5e67d1d76c FAIL"
        " note=subsets=28 of=28 low=10 violation=0,1,2,3,5,6"
    )


# Planted violations: a Facts record built with the constructor, one field
# wrong, reaches each claim's FAIL branch; the exact line pins the slack.


def test_planted_facts_fail_the_main_theorem_and_ore5_claims():
    # the Groetzsch graph is 4-chromatic, so marked critical it breaks the
    # main-theorem case bound, the triangle-free edge bound, p_ky <= 5 and
    # the p_ky >= 3 iff 5-Ore equivalence at once
    facts = Facts(named_graph("groetzsch"), "c0c71afdc9584b29", True, None, 0, 15)
    assert verify_main_theorem(facts).lines() == [
        "CHECK main-case-other c0c71afdc9584b29 FAIL slack=-353/21",
        "CHECK triangle-free-edges c0c71afdc9584b29 FAIL note=slack=-305/84",
    ]
    assert verify_ore5_bounds(facts).lines() == [
        "CHECK ore5-ky-upper c0c71afdc9584b29 FAIL slack=-294/21",
        "CHECK ore5-equivalence c0c71afdc9584b29 FAIL note=ky>=3-iff-5-ore",
    ]


def test_planted_packing_numbers_fail_the_k5_and_ore_cases(doubles):
    k5 = Facts.of(complete_graph(5))
    assert k5.t == 2
    planted = Facts(k5.graph, k5.key, k5.critical, k5.recipe, 1, k5.mic)
    assert verify_main_theorem(planted).lines() == [
        "CHECK main-case-k5 0b688a284bfc8f59 FAIL slack=8/21"
    ]
    # the first 9-vertex class of the enumeration, its t of 4 lowered to 3
    g, _ = doubles[0]
    ore9 = Facts.of(g)
    assert ore9.t == 4 and ore9.recipe is not None
    planted = Facts(g, ore9.key, ore9.critical, ore9.recipe, 3, ore9.mic)
    assert verify_main_theorem(planted).lines() == [
        "CHECK main-case-ore 9550650de1dc876e FAIL slack=-8/21"
    ]


def test_planted_record_fails_the_extension_inequalities(doubles):
    # a record whose expanded set R' is its subset R: p(R') = p(R), so each
    # inequality asks p(W) to pay for the core, and the extender cannot
    g, _ = doubles[0]
    rec = random_extension(g, random.Random(0))
    fields = {name: getattr(rec, name) for name in ExtensionRecord.__slots__}
    planted = ExtensionRecord(**{**fields, "expanded": rec.subset})
    assert verify_extension_inequalities(planted, "9550650de1dc876e", piece_table(g)).lines() == [
        "CHECK ky-extension 9550650de1dc876e FAIL slack=-147/21",
        "CHECK refined-extension 9550650de1dc876e FAIL slack=-146/21",
        "CHECK coarse-extension 9550650de1dc876e FAIL slack=-88/21",
    ]


@pytest.fixture(scope="module")
def low_ky_runs(ore13, n17):
    """One ``_low_ky_subsets`` run per input on counted rows: each graph, its
    low sets, and the ``&`` plus ``bit_count`` calls made on its rows.  The
    n <= 13 classes come first."""
    graphs = [g for g, _ in ore13]
    graphs += [shuffled_copy(g, random.Random(seed))[0] for seed, g in enumerate(graphs)]
    graphs += random.Random(17).sample(n17, 2)
    # arbitrary graphs also hold low sets with p_ky of 10 and 11
    rng = random.Random(5)
    for _ in range(30):
        graphs.append(random_graph(rng.randint(6, 12), rng.choice((0.4, 0.6, 0.8)), rng))
    runs = []
    for g in graphs:
        low, ands, bit_counts = row_work(_low_ky_subsets, g)
        runs.append((g, low, ands + bit_counts))
    return runs


def test_low_ky_subsets_match_the_mask_loop(low_ky_runs):
    for g, low, _ in low_ky_runs:
        assert sorted(low) == low_ky_subsets_by_masks(g)


def test_low_ky_subsets_keep_the_reference_order(ore17):
    # verify_ore5_bounds names the first violating set in this order
    for g, _ in ore17:
        assert _low_ky_subsets(g) == list(low_ky_subsets_reference(g))


def test_low_ky_sweep_work_is_bounded(ore13, low_ky_runs):
    # the sweep keeps its bound incrementally, so it reads each adjacency
    # row's degree once and never masks a row; summing the bound afresh at
    # every node masks two rows per undecided vertex (74,883 over these
    # classes)
    runs = low_ky_runs[: len(ore13)]
    assert [g for g, _, _ in runs] == [g for g, _ in ore13]
    assert sum(work for _, _, work in runs) <= sum(g.n for g, _ in ore13)


def test_collapsibility_sweep_solves_only_pair_tests(ore13, ore17_facts, recorder):
    # is_collapsible answers by one 2-cut proof per boundary pair, G[R] plus
    # the pair's edge, and solves G[R] itself nowhere: checking G[R] for a
    # 4-coloring before the pair tests made 72 exact solves here
    facts = ore17_facts[: len(ore13)]
    assert [f.graph for f in facts] == [g for g, _ in ore13]
    for name in ("is_collapsible", "is_k_colorable", "_by_cuts"):
        recorder.watch(coloring, name)
    assert all(verify_ore5_bounds(f).ok for f in facts)
    calls = recorder.log
    assert calls.count(("is_collapsible", ())) == 72
    assert not [c for c in calls if c[0] == "is_k_colorable" and "is_collapsible" in c[1]]
    assert calls.count(("_by_cuts", ("is_collapsible",))) == 86


def test_ore5_bounds_on_non_ore_graph():
    rep = verify_ore5_bounds(Facts.of(named_graph("c5_join_k2")))
    assert rep.ok
    assert [c.name for c in rep.checks] == ["ore5-ky-upper", "ore5-equivalence"]
    assert rep.checks[0].slack21 == 126
