"""The ten acceptance criteria, one test and one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as
they print; without ``-s`` the per-test PASSED/FAILED verdicts carry the
same information.  Everything is exact integer arithmetic, each refined
potential an int numerator over 21; no tolerances anywhere.
"""

import random

from orelab import (
    critical_extension,
    named_graph,
    ore_compose,
    p_ky,
    potential,
    t_number,
)
from orelab.coloring import is_5_critical, is_collapsible, is_k_colorable, seeded_coloring
from orelab.constructions import complete_graph
from orelab.discharge import closing_inequalities, run_discharge
from orelab.graph_core import d4_components, mask_of
from orelab.ore import Compose, Leaf
from orelab.packing import piece_table
from orelab.potential import random_extension, verify_extension_inequalities, verify_main_theorem

from helpers import ore_collapsible_subsets, random_graph, t_number_oracle, triangles

NON_ORE_WITNESSES = ("c5_join_k2", "k1_join_groetzsch", "mycielski_groetzsch")


def conclude(num, slug, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {slug} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_ore_identity(ore17_facts):
    bad = [
        f.n
        for f in ore17_facts
        if p_ky(f.graph) != 5 or not f.critical
    ]
    conclude(
        1,
        "every-5-ore-to-17-has-ky-5-and-is-critical",
        not bad,
        f"classes={len(ore17_facts)}",
    )


def test_criterion_02_packing_lower_bound(ore17_facts):
    bad = [
        f.n
        for f in ore17_facts
        if f.n > 5 and 4 * f.t < f.n + 7
    ]
    conclude(
        2,
        "every-5-ore-to-17-has-4t-at-least-n-plus-7",
        not bad,
        f"classes={sum(1 for f in ore17_facts if f.n > 5)}",
    )


def test_criterion_03_composition_superadditivity(ore17):
    nodes = 0
    ok = True
    for _, recipe in ore17:
        stack = [recipe]
        while stack:
            node = stack.pop()
            if not isinstance(node, Compose):
                continue
            stack += [node.edge_side, node.vertex_side]
            nodes += 1
            tg = t_number(ore_compose(node))[0]
            t1 = t_number(ore_compose(node.edge_side))[0]
            t2 = t_number(ore_compose(node.vertex_side))[0]
            if tg < t1 + t2 - 2:
                ok = False
            if isinstance(node.vertex_side, Leaf) and tg < t1 + 1:
                ok = False
    conclude(3, "packing-superadditive-at-every-composition-node", ok, f"nodes={nodes}")


def test_criterion_04_packing_oracle_equivalence(lab_facts):
    rng = random.Random(2026)
    checked = 0
    ok = True
    for _ in range(200):
        n = rng.randint(1, 12)
        p = 0.2 + 0.6 * rng.random()
        G = random_graph(n, p, rng)
        if t_number(G)[0] != t_number_oracle(G):
            ok = False
        checked += 1
    for facts in lab_facts:
        if facts.n <= 12:
            if facts.t != t_number_oracle(facts.graph):
                ok = False
            checked += 1
    conclude(4, "solver-matches-oracle", ok, f"graphs={checked}")


def test_criterion_05_main_theorem_cases(lab_facts):
    t_of = {facts.graph: facts.t for facts in lab_facts}
    ok = potential(complete_graph(5), t_of[complete_graph(5)]) == 94
    cases = {"k5": 1, "ore": 0, "other": 0}
    for facts in lab_facts:
        if not facts.critical or facts.n == 5:
            continue
        rep = verify_main_theorem(facts)
        head = rep.checks[0]
        ok = ok and head.ok
        if head.name == "main-case-ore":
            cases["ore"] += 1
        elif head.name == "main-case-other":
            cases["other"] += 1
    bound = 21 * 5 - 48  # 5 - 16/7 as a numerator over 21
    for name in NON_ORE_WITNESSES:
        G = named_graph(name)
        ok = ok and potential(G, t_of[G]) <= bound
    ok = ok and cases["ore"] == 574 and cases["other"] == 3
    conclude(
        5,
        "refined-potential-case-analysis",
        ok,
        f"k5=1 ore={cases['ore']} other={cases['other']}",
    )


def test_criterion_06_triangle_free_witness():
    M = named_graph("mycielski_groetzsch")
    ok = (M.n, M.m) == (23, 71)
    ok = ok and triangles(M) == []
    ok = ok and is_5_critical(M)
    ok = ok and is_k_colorable(M, 4) is None
    # 71 >= (9/4 + 1/84) * 23 - 5/4, cleared to integers over 84
    lhs84 = 84 * M.m
    rhs84 = (189 + 1) * M.n - 105
    ok = ok and lhs84 >= rhs84
    conclude(6, "triangle-free-edge-bound-witness", ok, f"slack={lhs84 - rhs84}/84")


def test_criterion_07_extension_fuzz(lab_corpus):
    eligible = [
        e.key
        for e in (lab_corpus.load(k) for k in lab_corpus.keys())
        if e.invariants["critical5"] and 6 <= e.invariants["n"] <= 13
    ]
    assert eligible
    graphs = {k: lab_corpus.load(k).graph for k in eligible}
    tables = {k: piece_table(g) for k, g in graphs.items()}
    log_path = lab_corpus.root / "extension_slacks.log"
    violations = 0
    with open(log_path, "w", encoding="utf-8") as fh:
        for i in range(500):
            key = eligible[i % len(eligible)]
            rng = random.Random(i)
            rec = random_extension(graphs[key], rng)
            rep = verify_extension_inequalities(rec, key, tables[key])
            if not rep.ok:
                violations += 1
            slacks = " ".join(
                f"{c.name.split('-')[0]}={c.slack21}/21" for c in rep.checks
            )
            fh.write(
                f"record={i} key={key} r-size={rec.subset.bit_count()} "
                f"core={rec.core_size} {slacks}\n"
            )
    lines = log_path.read_text().count("\n")
    conclude(
        7,
        "extension-inequality-fuzz",
        violations == 0 and lines == 500,
        f"records=500 hosts={len(eligible)} log={log_path.name}",
    )


def test_criterion_08_collapsibility_equivalence(ore17):
    targets = [(g, r) for g, r in ore17 if g.n in (9, 13)]
    ok = len(targets) == 25
    blocks = 0
    extensions = 0
    for g, recipe in targets:
        n1 = ore_compose(recipe.edge_side).n
        R = list(range(n1))
        ok = ok and is_collapsible(g, mask_of(R))
        blocks += 1
        for seed in range(3):
            rec = critical_extension(g, seeded_coloring(g, mask_of(R), 4, random.Random(seed)))
            ok = ok and rec.complete and rec.spanning and rec.core_size == 1
            extensions += 1
        for S in ore_collapsible_subsets(g):
            ok = ok and is_collapsible(g, mask_of(S))
    conclude(
        8,
        "block-sides-collapse-and-extend-totally",
        ok,
        f"blocks={blocks} sampled-extensions={extensions}",
    )


def test_criterion_09_counting_inequalities(lab_facts):
    ok = True
    runs = 0
    for facts in lab_facts:
        G = facts.graph
        ledger = run_discharge(G)
        ok = ok and sum(ledger.final84) == ledger.total84
        runs += 1
        d4 = d4_components(G)
        if facts.p > 0:
            ok = ok and 21 * (d4.singles + d4.pairs) < 8 * G.n
        if not facts.critical:
            continue
        ok = ok and 2 * G.m >= 3 * G.n + facts.mic
        ok = ok and facts.mic >= 4 * (d4.singles + d4.pairs)
        ok = ok and closing_inequalities(facts).ok
    conclude(9, "discharge-counting-closes", ok, f"graphs={runs}")


def test_criterion_10_recognizer_consistency(lab_facts):
    ok = True
    ore_count = 0
    for facts in lab_facts:
        if not facts.critical:
            continue
        if (p_ky(facts.graph) >= 3) != (facts.recipe is not None):
            ok = False
        ore_count += facts.recipe is not None
    for name in NON_ORE_WITNESSES:
        ok = ok and p_ky(named_graph(name)) <= 2
    conclude(
        10,
        "ky-at-least-3-iff-5-ore",
        ok,
        f"ore-classes={ore_count}",
    )
