"""Discharging arithmetic over a fixed denominator of 84.

Every vertex starts with charge (9 + 1/21) - 2 d(v).  The single transfer
rule moves 1/4 from each degree-4 vertex lying in a component of the
degree-4 subgraph of size at least two to every neighbor of degree five
or more.  The common denominator of 1/21 and 1/4 is 84, so charges are
integer numerators over 84 throughout: init = (760 - 168 d)/84 and each
transfer is worth 21/84.

Transfers only move charge, so the total is conserved by construction;
:func:`run_discharge` still re-adds the columns and refuses to return a
ledger whose sums disagree.
"""

from __future__ import annotations

from .graph_core import Graph, InvariantViolation, Record, bits, d4_components
from .potential import Facts
from .report import Report


def initial_charge_84(degree: int) -> int:
    return 760 - 168 * degree


TRANSFER_84 = 21


class ChargeLedger(Record):
    """Full audit trail of one discharging run.

    ``initial84[v]`` and ``final84[v]`` are numerators over 84;
    ``transfers`` lists (sender, receiver) pairs, each moving 21/84.
    """

    __slots__ = ("graph", "initial84", "final84", "transfers")
    graph: Graph
    initial84: tuple[int, ...]
    final84: tuple[int, ...]
    transfers: tuple[tuple[int, int], ...]

    @property
    def total84(self) -> int:
        return sum(self.initial84)


def run_discharge(G: Graph) -> ChargeLedger:
    """Apply the transfer rule once and return the audited ledger."""
    initial = tuple(initial_charge_84(G.degree(v)) for v in range(G.n))
    senders = 0
    for comp in d4_components(G).components:
        if comp.bit_count() >= 2:
            senders |= comp
    transfers = []
    for v in bits(senders):
        for u in bits(G.adj[v]):
            if G.degree(u) >= 5:
                transfers.append((v, u))
    final = list(initial)
    for s, r in transfers:
        final[s] -= TRANSFER_84
        final[r] += TRANSFER_84
    if sum(final) != sum(initial):
        raise InvariantViolation("discharging lost or created charge")
    return ChargeLedger(G, initial, tuple(final), tuple(transfers))


def ledger_dump(ledger: ChargeLedger) -> str:
    """Human-readable ledger, one line per vertex, then one per transfer."""
    G = ledger.graph
    lines = []
    for v in range(G.n):
        lines.append(
            f"v{v} d={G.degree(v)} "
            f"init={ledger.initial84[v]}/84 final={ledger.final84[v]}/84"
        )
    for s, r in ledger.transfers:
        lines.append(f"send 21/84 {s} -> {r}")
    lines.append(f"total {ledger.total84}/84")
    return "\n".join(lines) + "\n"


def add_conservation(rep: Report, key: str, ledger: ChargeLedger) -> None:
    """Add the ``conservation`` row of ``ledger`` to ``rep``: the final
    column adds to the initial one."""
    rep.add(
        "conservation",
        key,
        sum(ledger.final84) == ledger.total84,
        note=f"transfers={len(ledger.transfers)}",
    )


def closing_inequalities(facts: Facts) -> Report:
    """The inequalities that close the counting argument, exactly.

    With S singleton and M two-vertex components of the degree-4 subgraph:

      charge-sum-identity:   sum of initial charge equals p(G) + delta T(G)
      conservation:          final column adds to the initial column
      edges-vs-mic:          2m >= 3n + mic(G)
      mic-vs-components:     mic(G) >= 4 (S + M)
      positive-p-components: p(G) > 0 implies 21 (S + M) < 8 n

    One vertex per degree-4 component is an independent set (degree-4
    vertices in different components are never adjacent), which is why
    mic dominates 4 (S + M) no matter how large the components get.
    """
    G, key, p = facts.graph, facts.key, facts.p
    rep = Report()
    ledger = run_discharge(G)
    lhs = ledger.total84
    rhs = 4 * p + 32 * facts.t
    rep.add("charge-sum-identity", key, lhs == rhs, note=f"{lhs}/84 vs {rhs}/84")
    add_conservation(rep, key, ledger)
    slack_edges = 2 * G.m - 3 * G.n - facts.mic
    rep.add("edges-vs-mic", key, slack_edges >= 0, 21 * slack_edges)
    d4 = d4_components(G)
    s_count = d4.singles
    m_count = d4.pairs
    slack_mic = facts.mic - 4 * (s_count + m_count)
    rep.add("mic-vs-components", key, slack_mic >= 0, 21 * slack_mic)
    if p > 0:
        margin = 8 * G.n - 21 * (s_count + m_count)
        rep.add(
            "positive-p-components",
            key,
            margin > 0,
            note=f"S={s_count} M={m_count} margin={margin}",
        )
    else:
        rep.add(
            "positive-p-components",
            key,
            True,
            note=f"vacuous p={p}/21",
        )
    return rep
