from collections import Counter

from orelab import Facts, Graph, named_graph, potential, t_number
from orelab.constructions import complete_graph
from orelab.discharge import (
    TRANSFER_84,
    closing_inequalities,
    initial_charge_84,
    ledger_dump,
    run_discharge,
)
from orelab.graph_core import bits, connected_components, mask_of


def test_initial_charge_formula():
    # (9 + 1/21) - 2d, expressed over 84
    assert TRANSFER_84 == 21
    for d in range(8):
        assert initial_charge_84(d) == 4 * (190 - 42 * d)
    assert initial_charge_84(4) == 88
    assert initial_charge_84(5) == -80


def test_k5_ledger_has_no_transfers():
    ledger = run_discharge(complete_graph(5))
    assert ledger.transfers == ()
    assert ledger.initial84 == ledger.final84 == (88,) * 5
    assert ledger.total84 == 440


def test_c5_join_k2_frozen_ledger():
    G = named_graph("c5_join_k2")
    ledger = run_discharge(G)
    # the rim is one degree-4 component of size 5; each rim vertex pays
    # both apexes
    assert len(ledger.transfers) == 10
    assert ledger.initial84 == (88,) * 5 + (-248,) * 2
    assert ledger.final84 == (46,) * 5 + (-143,) * 2
    assert ledger.total84 == -56
    assert Counter(s for s, _ in ledger.transfers) == {v: 2 for v in range(5)}
    assert Counter(r for _, r in ledger.transfers) == {5: 5, 6: 5}


def test_charge_total_matches_potential_identity(doubles):
    for G in [complete_graph(5), named_graph("c5_join_k2")] + [
        g for g, _ in doubles
    ]:
        ledger = run_discharge(G)
        t, _ = t_number(G)
        assert ledger.total84 == 4 * potential(G, t) + 32 * t


def test_isolated_degree_four_vertex_keeps_everything():
    # a with four degree-six neighbors, no degree-four mate anywhere
    edges = [(0, v) for v in (1, 2, 3, 4)]
    edges += [(u, v) for u in (1, 2, 3, 4) for v in (5, 6) if u < v]
    edges += [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6)]
    G = Graph.from_edges(7, edges)
    assert G.degree(0) == 4
    assert all(G.degree(v) >= 5 for v in bits(G.adj[0]))
    ledger = run_discharge(G)
    assert all(s != 0 for s, _ in ledger.transfers)
    assert ledger.final84[0] == 88  # 1 + 1/21, untouched


def test_paired_degree_four_vertex_sends_three_times():
    # v0 and v1 are adjacent degree-4 vertices; the three other neighbors
    # of each have degree at least five, so each keeps 88 - 63 = 25/84
    edges = [(0, 1)]
    edges += [(0, v) for v in (2, 3, 4)]
    edges += [(1, v) for v in (2, 3, 4)]
    edges += [(2, 3), (2, 4), (3, 4)]
    edges += [(5, v) for v in (2, 3, 4)]
    G = Graph.from_edges(6, edges)
    assert G.degree(0) == G.degree(1) == 4
    assert all(G.degree(v) == 5 for v in (2, 3, 4))
    ledger = run_discharge(G)
    sent = Counter(s for s, _ in ledger.transfers)
    received = Counter(r for _, r in ledger.transfers)
    assert sent[0] == sent[1] == 3
    assert ledger.final84[0] == ledger.final84[1] == 88 - 3 * 21
    assert received[2] == 2


def test_ledger_dump_format():
    text = ledger_dump(run_discharge(complete_graph(5)))
    lines = text.splitlines()
    assert lines[0] == "v0 d=4 init=88/84 final=88/84"
    assert lines[-1] == "total 440/84"
    assert text.endswith("\n")

    text = ledger_dump(run_discharge(named_graph("c5_join_k2")))
    assert "send 21/84 0 -> 5" in text.splitlines()
    assert text.splitlines()[-1] == "total -56/84"


def test_ledger_dump_deterministic(ore13):
    for g, _ in ore13[:6]:
        assert ledger_dump(run_discharge(g)) == ledger_dump(run_discharge(g))


def test_closing_inequalities_on_critical_graphs(doubles):
    graphs = [complete_graph(5), named_graph("c5_join_k2")] + [
        g for g, _ in doubles
    ]
    for G in graphs:
        rep = closing_inequalities(Facts.of(G))
        assert rep.ok, "\n".join(rep.lines())
        names = [c.name for c in rep.checks]
        assert names == [
            "charge-sum-identity",
            "conservation",
            "edges-vs-mic",
            "mic-vs-components",
            "positive-p-components",
        ]


def test_closing_inequalities_k5_values():
    rep = closing_inequalities(Facts.of(complete_graph(5)))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["charge-sum-identity"].note == "440/84 vs 440/84"
    # 2m - 3n - mic = 20 - 15 - 4 = 1
    assert by_name["edges-vs-mic"].slack21 == 21
    # no singleton or pair components
    assert by_name["mic-vs-components"].slack21 == 4 * 21
    assert by_name["positive-p-components"].note == "S=0 M=0 margin=40"


def test_closing_vacuous_row_for_negative_potential():
    rep = closing_inequalities(Facts.of(named_graph("mycielski_groetzsch")))
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["positive-p-components"].note == "vacuous p=-1594/21"


# Planted violations: a Facts record built with the constructor reaches each
# closing inequality's FAIL branch; the exact line pins the slack.


def test_planted_facts_fail_the_closing_inequalities():
    # K_{4,5} is bipartite, so marked critical it breaks 2m >= 3n + mic
    # (40 < 27 + 20); its five degree-4 vertices are independent, so S = 5,
    # and p = 30/21 > 0 while 21 S = 105 exceeds 8n = 72
    K45 = Graph.from_edges(9, [(u, v) for u in range(4) for v in range(4, 9)])
    assert closing_inequalities(Facts(K45, "42acafa5bb13bab0", True, None, 0, 20)).lines() == [
        "CHECK charge-sum-identity 42acafa5bb13bab0 PASS note=120/84 vs 120/84",
        "CHECK conservation 42acafa5bb13bab0 PASS note=transfers=0",
        "CHECK edges-vs-mic 42acafa5bb13bab0 FAIL slack=-147/21",
        "CHECK mic-vs-components 42acafa5bb13bab0 PASS slack=0/21",
        "CHECK positive-p-components 42acafa5bb13bab0 FAIL note=S=5 M=0 margin=-33",
    ]
    # a mic of 0 falls below 4 (S + M) = 20
    rows = closing_inequalities(Facts(K45, "42acafa5bb13bab0", True, None, 0, 0)).lines()
    assert rows[3] == "CHECK mic-vs-components 42acafa5bb13bab0 FAIL slack=-420/21"


def test_one_vertex_per_d4_component_is_independent(ore13):
    for g, _ in ore13:
        d4 = mask_of(v for v in range(g.n) if g.degree(v) == 4)
        comps = connected_components(g, within=d4)
        picks = [bits(c)[0] for c in comps]
        for i, u in enumerate(picks):
            for v in picks[i + 1 :]:
                assert not g.has_edge(u, v)
