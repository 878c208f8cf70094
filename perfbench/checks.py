"""Correctness checks on what one measured phase printed or wrote, using networkx.

Nothing here imports orelab or compares against stored output: graphs are
decoded by networkx, recipes are parsed and composed by the code below,
and corpus facts are compared with values computed from the inputs or
known from the literature.  Each ``check_*`` returns ``(problems,
attempted, failed)``: a list of one-line problem descriptions (empty when
the output is correct), the operations the phase attempted, and how many
of them the program reported as failed or left out.
"""

from __future__ import annotations

import json
import re
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import networkx as nx

from inputs import ORE_LEVELS

# networkx 3.5 warns on every call that its WL hashes differ from older
# releases; hashes are only compared within one run.
warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)

CHECK_RE = re.compile(r"^CHECK (\S+) (\S+) (PASS|FAIL)(.*)$")
EXTENSION_ROWS = ("ky-extension", "refined-extension", "coarse-extension")


def nx_graph(n: int, edges) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


# ---------------------------------------------------------------------------
# Ore composition, written from the definition
# ---------------------------------------------------------------------------


def parse_recipe(text: str):
    """``(k5)`` -> ``("k5",)``; a compose node -> ``(left, xy, right, z, split)``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take(prefix=""):
        nonlocal pos
        if pos >= len(tokens) or not tokens[pos].startswith(prefix):
            raise ValueError(f"bad recipe {text!r} at token {pos}")
        pos += 1
        return tokens[pos - 1][len(prefix):]

    def node():
        take("(")
        head = take()
        if head == "k5":
            take(")")
            return ("k5",)
        if head != "compose":
            raise ValueError(f"bad recipe head {head!r}")
        left = node()
        x, y = (int(t) for t in take("e=").split("-"))
        right = node()
        z = int(take("z="))
        a, b = take("split=").split("|")
        take(")")
        split = (tuple(int(t) for t in a.split(",")), tuple(int(t) for t in b.split(",")))
        return (left, (x, y), right, z, split)

    tree = node()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in recipe {text!r}")
    return tree


def compose_at(g1, xy, g2, z, split):
    """Delete edge xy of g1, split z of g2 into parts A|B of N(z), glue x to
    the A half and y to the B half.  g2's vertices other than z follow g1's,
    in ascending order."""
    n1, e1 = g1
    n2, e2 = g2
    x, y = xy
    if (min(x, y), max(x, y)) not in set(e1):
        raise ValueError(f"{xy} is not an edge of the edge side")
    nz = {v for e in e2 if z in e for v in e if v != z}
    part_a, part_b = set(split[0]), set(split[1])
    if not part_a or not part_b or part_a & part_b or part_a | part_b != nz:
        raise ValueError(f"{split} does not split N({z})")
    out = {v: n1 + i for i, v in enumerate(v for v in range(n2) if v != z)}
    edges = [e for e in e1 if e != (min(x, y), max(x, y))]
    edges += [(x, out[a]) for a in sorted(part_a)] + [(y, out[b]) for b in sorted(part_b)]
    edges += [(out[u], out[v]) for u, v in e2 if z not in (u, v)]
    return n1 + n2 - 1, sorted((min(u, v), max(u, v)) for u, v in edges)


K5 = (5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def build_recipe(tree):
    if tree == ("k5",):
        return K5
    left, xy, right, z, split = tree
    return compose_at(build_recipe(left), xy, build_recipe(right), z, split)


# ---------------------------------------------------------------------------
# isomorphism classes
# ---------------------------------------------------------------------------


def iso_classes(graphs: list[nx.Graph]) -> list[int]:
    """Class index per graph: equal WL hashes are split by exact isomorphism."""
    reps: dict[str, list[tuple[int, nx.Graph]]] = {}
    out = []
    count = 0
    for G in graphs:
        bucket = reps.setdefault(nx.weisfeiler_lehman_graph_hash(G), [])
        for idx, H in bucket:
            if nx.is_isomorphic(G, H):
                out.append(idx)
                break
        else:
            bucket.append((count, G))
            out.append(count)
            count += 1
    return out


# ---------------------------------------------------------------------------
# program output parsing
# ---------------------------------------------------------------------------


def parse_rows(stdout: str, suite: str):
    """CHECK rows as (name, key, ok, rest), plus problems with the SUITE line."""
    problems = []
    lines = stdout.splitlines()
    rows = []
    for line in lines[:-1]:
        match = CHECK_RE.match(line)
        if match is None:
            problems.append(f"unexpected output line {line!r}")
            continue
        name, key, verdict, rest = match.groups()
        rows.append((name, key, verdict == "PASS", rest))
    tail = lines[-1] if lines else ""
    match = re.fullmatch(rf"SUITE {suite} (PASS|FAIL) checks=(\d+) failures=(\d+)", tail)
    if match is None:
        problems.append(f"missing SUITE {suite} summary, last line {tail!r}")
    else:
        fails = sum(1 for row in rows if not row[2])
        if match.group(1) != "PASS" or int(match.group(3)) != 0:
            problems.append(f"summary reports failures: {tail}")
        if int(match.group(2)) != len(rows) or int(match.group(3)) != fails:
            problems.append(f"summary {tail!r} disagrees with {len(rows)} rows, {fails} FAIL")
    for name, key, ok, rest in rows:
        if not ok:
            problems.append(f"FAIL row: {name} {key}{rest}")
    return rows, problems


def load_corpus(root: Path) -> dict[str, dict]:
    entries = {}
    for path in sorted(Path(root).glob("*.json")):
        raw = json.loads(path.read_text())
        head, *body = raw["graph"].split("\n")
        n = int(head.split()[0])
        edges = [tuple(int(t) for t in line.split()) for line in body if line.strip()]
        entries[path.stem] = {"n": n, "edges": edges, "invariants": raw["invariants"]}
    return entries


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def check_enumerate(text: str, levels: dict[int, int] = ORE_LEVELS):
    """One ``graph6 recipe`` line per class yielded by the enumerator."""
    problems = []
    graphs = []
    for i, line in enumerate(text.splitlines()):
        g6, recipe = line.split(" ", 1)
        G = nx.from_graph6_bytes(g6.encode())
        graphs.append(G)
        n, m = G.number_of_nodes(), G.number_of_edges()
        if n % 4 != 1 or 4 * m != 9 * n - 5 or min(d for _, d in G.degree) != 4:
            problems.append(f"class {i}: n={n} m={m} is not shaped like a 5-Ore graph")
        try:
            rebuilt = nx_graph(*build_recipe(parse_recipe(recipe)))
        except ValueError as exc:
            problems.append(f"class {i}: {exc}")
            continue
        if not nx.is_isomorphic(rebuilt, G):
            problems.append(f"class {i}: recipe does not rebuild the graph")
    counts = dict(sorted(Counter(G.number_of_nodes() for G in graphs).items()))
    if counts != levels:
        problems.append(f"classes per order {counts}, expected {levels}")
    first: dict[int, int] = {}
    for i, c in enumerate(iso_classes(graphs)):
        if first.setdefault(c, i) != i:
            problems.append(f"class {i} is isomorphic to class {first[c]}")
    return problems, len(graphs), 0


def _expected_facts(tag: str, inv: dict) -> list[str]:
    """Stored facts that every correct run must show for this input."""
    expect = {
        "ore": {"critical5": True, "ore5": True, "p_ky": 5},
        "groetzsch": {"critical5": False},
        "c5_join_k2": {"critical5": True, "ore5": False},
        "k1_join_groetzsch": {"critical5": True, "ore5": False},
        "mycielski_groetzsch": {"critical5": True, "ore5": False, "n": 23, "m": 71},
    }[tag]
    return [f"{k}={inv.get(k)!r}, expected {v!r}" for k, v in expect.items() if inv.get(k) != v]


def check_audit(stdout: str, rc: int, corpus: Path, inputs: list[dict]):
    """``verify all`` output and the corpus that ``add`` wrote; one operation
    per input."""
    rows, problems = parse_rows(stdout, "all")
    if rc != 0:
        problems.append(f"verify exited {rc}")
    entries = load_corpus(corpus)
    cls = iso_classes([nx_graph(x["n"], x["edges"]) for x in inputs]
                      + [nx_graph(e["n"], e["edges"]) for e in entries.values()])
    input_cls, entry_cls = cls[: len(inputs)], cls[len(inputs):]
    keys_of = defaultdict(list)
    for key, c in zip(entries, entry_cls):
        keys_of[c].append(key)
        if c not in input_cls:
            problems.append(f"corpus entry {key} matches no input")
    seen = {key for _, key, _, _ in rows}
    failing = {key for _, key, ok, _ in rows if not ok}
    failed = 0
    for x, c in zip(inputs, input_cls):
        if len(keys_of[c]) != 1:
            problems.append(f"input {x['tag']} n={x['n']} has {len(keys_of[c])} corpus entries")
            failed += 1
            continue
        key = keys_of[c][0]
        inv = entries[key]["invariants"]
        if (inv.get("n"), inv.get("m")) != (x["n"], len(x["edges"])):
            problems.append(f"{key}: stored n={inv.get('n')} m={inv.get('m')}, "
                            f"input has n={x['n']} m={len(x['edges'])}")
        problems += [f"{key} ({x['tag']}): {p}" for p in _expected_facts(x["tag"], inv)]
        if key not in seen:
            problems.append(f"{key}: no CHECK rows")
        failed += key not in seen or key in failing
    return problems, len(inputs), failed


def check_extend(stdout: str, rc: int, records: int):
    """``verify extensions`` output: one shape row plus three inequality rows
    per record, records numbered 0..records-1."""
    rows, problems = parse_rows(stdout, "extensions")
    if rc != 0:
        problems.append(f"verify exited {rc}")
    found: dict[int, list] = {}
    current = None
    for name, key, ok, rest in rows:
        if name == "extension-shape":
            match = re.search(r"record=(\d+) core=(\d+)", rest)
            if match is None:
                problems.append(f"unparsable extension-shape row{rest}")
                current = None
                continue
            rid, core = int(match.group(1)), int(match.group(2))
            if rid in found:
                problems.append(f"record {rid} appears twice")
            if not 1 <= core <= 4:
                problems.append(f"record {rid}: core size {core} outside 1..4")
            current = found[rid] = []
        elif name in EXTENSION_ROWS:
            if current is None:
                problems.append(f"{name} row outside any record")
            else:
                current.append((name, ok))
        else:
            current = None
    shapes = sum(1 for row in rows if row[0] == "extension-shape")
    if shapes != records:
        problems.append(f"{shapes} extension-shape rows, expected {records}")
    failed = 0
    for rid in range(records):
        got = found.get(rid)
        if got is None:
            problems.append(f"record {rid} missing")
        elif sorted(name for name, _ in got) != sorted(EXTENSION_ROWS):
            problems.append(f"record {rid}: inequality rows {[n for n, _ in got]}")
        elif all(ok for _, ok in got):
            continue
        failed += 1
    problems += [f"record {rid} not in 0..{records - 1}" for rid in found if not 0 <= rid < records]
    return problems, records, failed
