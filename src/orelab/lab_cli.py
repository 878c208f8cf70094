"""Command-line surface: corpus management and verification campaigns.

Subcommands:

  gen        enumerate 5-Ore isomorphism classes into the corpus
  add        ingest a named construction or a graph file (text or graph6)
  verify     run a verification suite over every applicable corpus entry
  extend     build one critical extension and audit its inequalities
  t          packing number and witness for one graph
  potential  exact potentials for one graph
  discharge  charge ledger and closing inequalities for one graph

The corpus directory comes from --corpus, else $ORELAB_CORPUS, else
./corpus; main resolves it once and hands it to the command.  verify
reads every entry before it checks any.  Exit codes: 0 all checks pass,
1 at least one FAIL row (verify, extend and discharge then name each
failing graph on stderr), 2 usage errors (an I/O error, or a check made
before the library computes, a corrupt corpus entry among them), 3 an
internal invariant broke or any other internal fault (the message names
the graph).  A graph is named by its graph6 string, after its corpus key
under verify and extend.
Output contains no timestamps; a command re-run with the same corpus and
seed produces identical bytes, with any number of --jobs.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import ExitStack, contextmanager
from itertools import repeat
from pathlib import Path

from . import coloring as col
from . import discharge as dis
from . import ore
from . import packing
from .constructions import NAMED, named_graph
from .potential import (
    Facts,
    critical_extension,
    p_ky,
    potential,
    random_extension,
    verify_extension_inequalities,
    verify_main_theorem,
    verify_ore5_bounds,
)
from .corpus import Corpus, Entry, resolve_dir
from .graph_core import (
    Graph,
    InvariantViolation,
    bits,
    graph_from_graph6,
    graph_from_text,
    graph_to_graph6,
    mask_of,
)
from .report import Report

SUITES = ("main", "ore5", "extensions", "lemma2", "discharge", "all")


def _fault(exc: Exception) -> str:
    """The panic text of ``exc``: an :class:`InvariantViolation`'s message,
    or any other fault's type and message."""
    return str(exc) if isinstance(exc, InvariantViolation) else f"{type(exc).__name__}: {exc}"


def _naming(G: Graph, entry: str | None = None) -> str:
    """How a ``fail:`` or ``panic:`` line names G: its graph6 string, after
    the corpus key ``entry`` when there is one."""
    where = f"entry {entry} " if entry else ""
    return f"{where}graph6 {graph_to_graph6(G)}"


@contextmanager
def _panics_naming(G: Graph, entry: str | None = None):
    """Let any fault of the block but an ``OSError`` leave as an
    :class:`InvariantViolation` that names G, its message kept (with its
    type, unless it was an InvariantViolation).  Usage errors are checked
    before or after such a block, never inside it."""
    try:
        yield
    except OSError:
        raise
    except Exception as exc:
        raise InvariantViolation(f"{_naming(G, entry)}: {_fault(exc)}") from None


# ---------------------------------------------------------------------------
# graph sources
# ---------------------------------------------------------------------------


def _graphs_from_file(path: Path) -> list[Graph]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    stripped = text.strip()
    if not stripped:
        raise ValueError(f"{path}: empty file")
    # a graph6 line holds no whitespace, so a two-token head is text
    if len(stripped.splitlines()[0].split()) == 2:
        try:
            return [graph_from_text(text)]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    graphs = []
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            graphs.append(graph_from_graph6(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: {exc}") from None
    return graphs


def _named_or_file(token: str, tried: str = "") -> list[tuple[Graph, str]]:
    """The graphs ``token`` names, each with its provenance: a named
    construction, or every graph in a file.  Anything else is a ValueError
    that lists the names, after ``tried``, the sources looked at first."""
    if token in NAMED:
        return [(named_graph(token), f"named {token}")]
    path = Path(token)
    if path.is_file():
        return [(g, f"file {path.name}") for g in _graphs_from_file(path)]
    known = ", ".join(sorted(NAMED))
    raise ValueError(f"{token!r} is not {tried}a named construction ({known}) or a file")


def _resolve_graph(args, corpus: Corpus) -> Graph:
    """The one graph ``args.key`` names: a key of the corpus, else a named
    construction or a file."""
    if args.key in corpus:
        return corpus.load(args.key).graph
    graphs = _named_or_file(args.key, "a corpus key, ")
    if len(graphs) != 1:
        raise ValueError(f"{Path(args.key)}: expected exactly one graph, found {len(graphs)}")
    return graphs[0][0]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _lemma2_report(facts: Facts) -> Report:
    rep = Report()
    G, key, recipe, t = facts.graph, facts.key, facts.recipe, facts.t
    if recipe is None:
        return rep
    if G.n > 5:
        # packing weight grows linearly along compositions: 4T >= n + 7
        rep.add(
            "packing-lower-bound",
            key,
            4 * t >= G.n + 7,
            note=f"4t={4 * t} need={G.n + 7}",
        )
    nodes: list[ore.Compose] = []
    stack = [recipe]
    while stack:
        r = stack.pop()
        if isinstance(r, ore.Compose):
            nodes.append(r)
            stack += (r.vertex_side, r.edge_side)
    # one t per recipe node below the root, which builds a copy of G; the
    # sides of every node are nodes or Leaf()
    t_of = {
        node: packing.t_number(ore.ore_compose(node))[0]
        for node in [ore.Leaf(), *reversed(nodes[1:])]
    }
    t_of[recipe] = t
    for idx, node in enumerate(nodes):
        tg, t1, t2 = t_of[node], t_of[node.edge_side], t_of[node.vertex_side]
        rep.add(
            "compose-superadditive",
            key,
            tg >= t1 + t2 - 2,
            note=f"node={idx} t={tg} sides={t1}+{t2}",
        )
        if isinstance(node.vertex_side, ore.Leaf):
            rep.add(
                "compose-k5-bump",
                key,
                tg >= t1 + 1,
                note=f"node={idx} t={tg} edge-side={t1}",
            )
    return rep


def _extension_report(facts: Facts, seed: int, record_ids: list[int]) -> Report:
    rep = Report()
    table = packing.piece_table(facts.graph)
    for i in record_ids:
        rng = random.Random(seed * 1_000_003 + i)
        rec = random_extension(facts.graph, rng)
        rep.add(
            "extension-shape",
            facts.key,
            True,
            note=(
                f"record={i} core={rec.core_size}"
                f" complete={'yes' if rec.complete else 'no'}"
                f" spanning={'yes' if rec.spanning else 'no'}"
                f" empty-classes={len(rec.empty_classes)}"
            ),
        )
        rep.extend(verify_extension_inequalities(rec, facts.key, table))
    return rep


def _entry_report(
    corpus: Corpus, entry: Entry, suite: str, seed: int, record_ids: list[int]
) -> tuple[list[str], int, str | None]:
    """The check lines of one loaded corpus entry, how many of them failed,
    and the entry's name for a ``fail:`` line when any did.

    Any fault but an I/O error leaves as an :class:`InvariantViolation`
    naming the entry.
    """
    key, G = entry.key, entry.graph
    with _panics_naming(G, key):
        facts = Facts.of(G)
        rep = corpus.verify_entry(entry, facts)
        if suite in ("main", "all") and facts.critical:
            rep.extend(verify_main_theorem(facts))
        if suite in ("ore5", "all") and facts.critical:
            rep.extend(verify_ore5_bounds(facts))
        if suite in ("lemma2", "all"):
            rep.extend(_lemma2_report(facts))
        if suite in ("discharge", "all"):
            if facts.critical:
                rep.extend(dis.closing_inequalities(facts))
            else:
                dis.add_conservation(rep, key, dis.run_discharge(G))
        # records follow the stored critical5 and n, which may be stale
        if suite in ("extensions", "all") and record_ids and facts.critical and G.n > 5:
            rep.extend(_extension_report(facts, seed, record_ids))
    failed = sum(not c.ok for c in rep.checks)
    return rep.lines(), failed, _naming(G, key) if failed else None


def cmd_verify(args, corpus: Corpus) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.records < 0:
        raise ValueError(f"--records must be at least 0, got {args.records}")
    # every entry is read before any is checked, so a corrupt one stops the
    # run before it prints
    entries = [corpus.load(k) for k in corpus.keys()]
    if not entries:
        print(f"warning: corpus at {corpus.root} is empty; nothing to verify", file=sys.stderr)
        return 0
    records: list[list[int]] = [[] for _ in entries]
    if args.suite in ("extensions", "all"):
        eligible = [
            ids for e, ids in zip(entries, records)
            if e.invariants.get("critical5") and 6 <= e.invariants.get("n", 0) <= args.max_extend_n
        ]
        if eligible:
            for i in range(args.records):
                eligible[i % len(eligible)].append(i)
        else:
            print("warning: no corpus entry is eligible for extension records", file=sys.stderr)
    workers = min(args.jobs, len(entries))
    checks = 0
    failures = 0
    # each entry's lines are printed as its result arrives, in key order, so
    # no entry's lines stay held until the last one is done
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here, so a run without a pool never loads one
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        reports = mapper(
            _entry_report, repeat(corpus), entries, repeat(args.suite), repeat(args.seed), records
        )
        for i, (lines, failed, name) in enumerate(reports):
            # a checked entry is let go, so the entries held shrink as the
            # run goes instead of all staying in memory to the end
            entries[i] = None
            for line in lines:
                print(line)
            if failed:
                print(f"fail: {name}", file=sys.stderr)
            checks += len(lines)
            failures += failed
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"SUITE {args.suite} {verdict} checks={checks} failures={failures}")
    corpus.log(f"verify {args.suite} checks={checks} failures={failures}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# corpus-building commands
# ---------------------------------------------------------------------------


def _add_graph(corpus: Corpus, G: Graph, provenance: str) -> None:
    """Store one graph and print its line."""
    with _panics_naming(G):
        facts = Facts.of(G)
        added = corpus.add(facts, provenance)
    print(f"{facts.key} n={G.n} m={G.m} {'new' if added else 'known'}")


def cmd_gen(args, corpus: Corpus) -> int:
    count = 0
    for G, recipe in ore.enumerate_5_ore(args.max_n):
        _add_graph(corpus, G, "recipe " + ore.recipe_to_text(recipe))
        count += 1
    print(f"generated {count} classes up to n={args.max_n}")
    return 0


def cmd_add(args, corpus: Corpus) -> int:
    for G, provenance in _named_or_file(args.source):
        _add_graph(corpus, G, provenance)
    return 0


# ---------------------------------------------------------------------------
# single-graph commands
# ---------------------------------------------------------------------------


def cmd_extend(args, corpus: Corpus) -> int:
    entry = corpus.load(args.key)
    G = entry.graph
    try:
        R = sorted({int(tok) for tok in args.r.split(",") if tok.strip() != ""})
    except ValueError:
        raise ValueError(f"--r must be a comma-separated vertex list, got {args.r!r}")
    if any(v < 0 or v >= G.n for v in R):
        raise ValueError(f"--r contains vertices outside 0..{G.n - 1}")
    if len(R) < 5:
        raise ValueError("--r needs at least 5 vertices")
    if len(R) >= G.n:
        raise ValueError("--r must be a proper subset of the vertices")
    with _panics_naming(G, entry.key):
        critical = col.is_5_critical(G)
    if not critical:
        raise ValueError(f"entry {entry.key} is not 5-critical, so it has no extension")
    with _panics_naming(G, entry.key):
        phi = col.seeded_coloring(G, mask_of(R), 4, random.Random(args.seed))
        if phi is None:
            raise InvariantViolation("proper subgraph of a 5-critical graph must be 4-colorable")
        rec = critical_extension(G, phi)
        rep = verify_extension_inequalities(rec, entry.key, packing.piece_table(G))
    print(f"extend {args.key} r={','.join(map(str, R))} seed={args.seed}")
    print("phi " + " ".join(f"{v}:{phi[v]}" for v in R))
    print(f"identified n={rec.identified.n} m={rec.identified.m}")
    print(
        f"extender n={rec.extender.n} m={rec.extender.m}"
        f" core-classes={','.join(map(str, rec.core_classes))}"
        f" complete={'yes' if rec.complete else 'no'}"
        f" spanning={'yes' if rec.spanning else 'no'}"
        f" empty-classes={','.join(map(str, rec.empty_classes)) or '-'}"
    )
    print("expanded " + ",".join(map(str, bits(rec.expanded))))
    for line in rep.lines():
        print(line)
    if not rep.ok:
        print(f"fail: {_naming(G, entry.key)}", file=sys.stderr)
    return 0 if rep.ok else 1


def cmd_t(args, corpus: Corpus) -> int:
    G = _resolve_graph(args, corpus)
    with _panics_naming(G):
        t, pieces = packing.t_number(G)
    print(f"t={t}")
    for piece in pieces:
        kind = "K4" if piece.bit_count() == 4 else "K3"
        print(f"piece {kind} " + " ".join(map(str, bits(piece))))
    return 0


def cmd_potential(args, corpus: Corpus) -> int:
    G = _resolve_graph(args, corpus)
    with _panics_naming(G):
        t, _ = packing.t_number(G)
        p = potential(G, t)
    print(f"n={G.n}")
    print(f"m={G.m}")
    print(f"t={t}")
    print(f"p_ky={p_ky(G)}")
    print(f"p={p}/21")
    return 0


def cmd_discharge(args, corpus: Corpus) -> int:
    G = _resolve_graph(args, corpus)
    with _panics_naming(G):
        ledger = dis.run_discharge(G)
        facts = Facts.of(G)
        rep = dis.closing_inequalities(facts) if facts.critical else None
    sys.stdout.write(dis.ledger_dump(ledger))
    if rep is None:
        print("closing inequalities skipped: graph is not 5-critical")
        return 0
    for line in rep.lines():
        print(line)
    if not rep.ok:
        print(f"fail: {_naming(G)}", file=sys.stderr)
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orelab",
        description="exact laboratory for 5-critical graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--corpus", help="corpus directory (default $ORELAB_CORPUS or ./corpus)")

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "enumerate 5-Ore graphs into the corpus")
    p.add_argument("--max-n", type=int, required=True, help="largest vertex count")

    p = command("add", cmd_add, "add a named construction or graph file")
    p.add_argument("source", help="named construction or path (text / graph6)")

    p = command("verify", cmd_verify, "run a verification suite over the corpus")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--records", type=int, default=100, help="extension record count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument(
        "--max-extend-n",
        type=int,
        default=13,
        help="largest graph eligible for extension records",
    )

    p = command("extend", cmd_extend, "critical extension of a corpus entry")
    p.add_argument("key")
    p.add_argument("--r", required=True, help="comma-separated vertex list")
    p.add_argument("--seed", type=int, default=0)

    for name, func, help in (
        ("t", cmd_t, "packing number of a graph"),
        ("potential", cmd_potential, "exact potentials of a graph"),
        ("discharge", cmd_discharge, "charge ledger of a graph"),
    ):
        p = command(name, func, help)
        p.add_argument("key", help="corpus key, named construction, or file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, Corpus(resolve_dir(args.corpus)))
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc  # str() would quote it
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"panic: {_fault(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
