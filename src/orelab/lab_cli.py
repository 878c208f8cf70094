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
./corpus.  Exit codes: 0 all checks pass, 1 at least one FAIL row
(verify and extend then name each failing entry's key and graph6 string
on stderr), 2 usage errors, 3 an internal invariant broke (the message
names the graph's graph6 string, and under verify and extend its corpus
key).
Output contains no timestamps; a command re-run with the same corpus and
seed produces identical bytes, with any number of --jobs.
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import ExitStack, contextmanager
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


@contextmanager
def _panics_naming(G: Graph, entry: str | None = None):
    """Let an :class:`InvariantViolation` leave with G's graph6 string in its
    message, after the corpus key ``entry`` when there is one."""
    try:
        yield
    except InvariantViolation as exc:
        where = f"entry {entry} " if entry else ""
        raise InvariantViolation(f"{where}graph6 {graph_to_graph6(G)}: {exc}") from None


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


def _resolve_graph(corpus: Corpus, token: str) -> Graph:
    """The one graph ``token`` names: a corpus key, else a named
    construction or a file."""
    if token in corpus:
        return corpus.load(token).graph
    graphs = _named_or_file(token, "a corpus key, ")
    if len(graphs) != 1:
        raise ValueError(f"{Path(token)}: expected exactly one graph, found {len(graphs)}")
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
    root: str, suite: str, key: str, seed: int, record_ids: list[int]
) -> tuple[str, list[str], int, str | None]:
    """The key and check lines of one corpus entry, how many of them
    failed, and the entry's graph6 string when any did.

    An :class:`InvariantViolation` leaves with the entry's key and graph6
    string in its message.
    """
    corpus = Corpus(Path(root))
    entry = corpus.load(key)
    with _panics_naming(entry.graph, key):
        rep = _suite_report(corpus, entry, suite, seed, record_ids)
    failed = sum(not c.ok for c in rep.checks)
    return key, rep.lines(), failed, graph_to_graph6(entry.graph) if failed else None


def _suite_report(
    corpus: Corpus, entry: Entry, suite: str, seed: int, record_ids: list[int]
) -> Report:
    facts = Facts.of(entry.graph)
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
            dis.add_conservation(rep, entry.key, dis.run_discharge(entry.graph))
    # records follow the stored critical5 flag, which may be stale
    if suite in ("extensions", "all") and record_ids and facts.critical:
        rep.extend(_extension_report(facts, seed, record_ids))
    return rep


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.records < 0:
        raise ValueError(f"--records must be at least 0, got {args.records}")
    corpus = Corpus(resolve_dir(args.corpus))
    keys = corpus.keys()
    if not keys:
        print(f"warning: corpus at {corpus.root} is empty; nothing to verify", file=sys.stderr)
        return 0
    record_map: dict[str, list[int]] = {k: [] for k in keys}
    if args.suite in ("extensions", "all"):
        eligible = []
        for k in keys:
            inv = corpus.invariants(k)
            if inv.get("critical5") and 6 <= inv.get("n", 0) <= args.max_extend_n:
                eligible.append(k)
        if eligible:
            for i in range(args.records):
                record_map[eligible[i % len(eligible)]].append(i)
        else:
            print("warning: no corpus entry is eligible for extension records", file=sys.stderr)
    tasks = [(str(corpus.root), args.suite, k, args.seed, record_map[k]) for k in keys]
    workers = min(args.jobs, len(tasks))
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
        for key, lines, failed, g6 in mapper(_entry_report, *zip(*tasks)):
            for line in lines:
                print(line)
            if failed:
                print(f"fail: entry {key} graph6 {g6}", file=sys.stderr)
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


def cmd_gen(args) -> int:
    corpus = Corpus(resolve_dir(args.corpus))
    count = 0
    for G, recipe in ore.enumerate_5_ore(args.max_n):
        _add_graph(corpus, G, "recipe " + ore.recipe_to_text(recipe))
        count += 1
    print(f"generated {count} classes up to n={args.max_n}")
    return 0


def cmd_add(args) -> int:
    corpus = Corpus(resolve_dir(args.corpus))
    for G, provenance in _named_or_file(args.source):
        _add_graph(corpus, G, provenance)
    return 0


# ---------------------------------------------------------------------------
# single-graph commands
# ---------------------------------------------------------------------------


def cmd_extend(args) -> int:
    corpus = Corpus(resolve_dir(args.corpus))
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
        if not col.is_5_critical(G):
            raise ValueError(f"entry {entry.key} is not 5-critical, so it has no extension")
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
        print(f"fail: entry {entry.key} graph6 {graph_to_graph6(G)}", file=sys.stderr)
    return 0 if rep.ok else 1


def cmd_t(args) -> int:
    corpus = Corpus(resolve_dir(args.corpus))
    G = _resolve_graph(corpus, args.key)
    with _panics_naming(G):
        t, pieces = packing.t_number(G)
    print(f"t={t}")
    for piece in pieces:
        kind = "K4" if piece.bit_count() == 4 else "K3"
        print(f"piece {kind} " + " ".join(map(str, bits(piece))))
    return 0


def cmd_potential(args) -> int:
    corpus = Corpus(resolve_dir(args.corpus))
    G = _resolve_graph(corpus, args.key)
    with _panics_naming(G):
        t, _ = packing.t_number(G)
        p = potential(G, t)
    print(f"n={G.n}")
    print(f"m={G.m}")
    print(f"t={t}")
    print(f"p_ky={p_ky(G)}")
    print(f"p={p}/21")
    return 0


def cmd_discharge(args) -> int:
    corpus = Corpus(resolve_dir(args.corpus))
    G = _resolve_graph(corpus, args.key)
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

    def add_corpus_arg(p):
        p.add_argument("--corpus", help="corpus directory (default $ORELAB_CORPUS or ./corpus)")

    p = sub.add_parser("gen", help="enumerate 5-Ore graphs into the corpus")
    p.add_argument("--max-n", type=int, required=True, help="largest vertex count")
    add_corpus_arg(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("add", help="add a named construction or graph file")
    p.add_argument("source", help="named construction or path (text / graph6)")
    add_corpus_arg(p)
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("verify", help="run a verification suite over the corpus")
    p.add_argument("suite", choices=SUITES)
    add_corpus_arg(p)
    p.add_argument("--records", type=int, default=100, help="extension record count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument(
        "--max-extend-n",
        type=int,
        default=13,
        help="largest graph eligible for extension records",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="critical extension of a corpus entry")
    p.add_argument("key")
    p.add_argument("--r", required=True, help="comma-separated vertex list")
    p.add_argument("--seed", type=int, default=0)
    add_corpus_arg(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("t", help="packing number of a graph")
    p.add_argument("key", help="corpus key, named construction, or file")
    add_corpus_arg(p)
    p.set_defaults(func=cmd_t)

    p = sub.add_parser("potential", help="exact potentials of a graph")
    p.add_argument("key", help="corpus key, named construction, or file")
    add_corpus_arg(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("discharge", help="charge ledger of a graph")
    p.add_argument("key", help="corpus key, named construction, or file")
    add_corpus_arg(p)
    p.set_defaults(func=cmd_discharge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc  # str() would quote it
        print(f"error: {message}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"panic: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
