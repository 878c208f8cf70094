from orelab import (
    Facts,
    Graph,
    closing_inequalities,
    complete_graph,
    initial_charge_84,
    ledger_dump,
    named_graph,
    potential,
    run_discharge,
    t_number,
)
from orelab.discharge import TRANSFER_84


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
    assert all(ledger.sent_by(v) == 2 for v in range(5))
    assert all(ledger.received_by(a) == 5 for a in (5, 6))


def test_charge_total_matches_potential_identity(doubles):
    for G in [complete_graph(5), named_graph("c5_join_k2")] + [
        g for g, _ in doubles
    ]:
        ledger = run_discharge(G)
        t, _ = t_number(G)
        assert ledger.total84 == 4 * potential(G).num + 32 * t


def test_isolated_degree_four_vertex_keeps_everything():
    # a with four degree-six neighbors, no degree-four mate anywhere
    edges = [(0, v) for v in (1, 2, 3, 4)]
    edges += [(u, v) for u in (1, 2, 3, 4) for v in (5, 6) if u < v]
    edges += [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6)]
    G = Graph.from_edges(7, edges)
    assert G.degree(0) == 4
    assert all(G.degree(v) >= 5 for v in G.neighbors(0))
    ledger = run_discharge(G)
    assert ledger.sent_by(0) == 0
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
    assert ledger.sent_by(0) == ledger.sent_by(1) == 3
    assert ledger.final84[0] == ledger.final84[1] == 88 - 3 * 21
    assert ledger.received_by(2) == 2


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
        assert rep.ok, rep.render()
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


def test_one_vertex_per_d4_component_is_independent(ore13):
    from orelab import d4_components

    for g, _ in ore13:
        comps = d4_components(g).components
        picks = [min(c) for c in comps]
        for i, u in enumerate(picks):
            for v in picks[i + 1 :]:
                assert not g.has_edge(u, v)
