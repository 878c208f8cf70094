"""Toy-size tests of the benchmark's output checks.

    python3 -m pytest -q perfbench

Each workload's check passes on real program output and fails once that
output is tampered with: a FAIL row, a stale corpus invariant, a
duplicated class, and a missing extension record.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from inputs import encode_graph6, load_pool, named_graphs, relabel  # noqa: E402
from orelab import enumerate_5_ore, graph_to_graph6, recipe_to_text  # noqa: E402
from orelab.lab_cli import main  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:The hashes produced:UserWarning")


def cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def build_corpus(root: Path, inputs: list[dict]) -> Path:
    g6 = root / "inputs.g6"
    g6.write_text("".join(encode_graph6(x["n"], x["edges"]) + "\n" for x in inputs))
    corpus = root / "corpus"
    rc, _ = cli("add", str(g6), "--corpus", str(corpus))
    assert rc == 0
    return corpus


@pytest.fixture(scope="module")
def nine():
    return "".join(f"{graph_to_graph6(G)} {recipe_to_text(r)}\n" for G, r in enumerate_5_ore(9))


def test_enumerate_check_catches_a_duplicated_class(nine):
    levels = {5: 1, 9: 2}
    assert checks.check_enumerate(nine, levels) == ([], 3, 0)
    lines = nine.splitlines()
    g6, recipe = lines[1].split(" ", 1)
    G = checks.nx.from_graph6_bytes(g6.encode())
    perm = list(reversed(range(G.number_of_nodes())))
    copy = encode_graph6(*relabel(G.number_of_nodes(), list(G.edges), perm))
    tampered = "\n".join(lines[:2] + [f"{copy} {recipe}"]) + "\n"
    problems, _, _ = checks.check_enumerate(tampered, levels)
    assert problems == ["class 2 is isomorphic to class 1"]


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    rng = random.Random(0)
    pool = [g for g in load_pool() if g[0] <= 9]
    named = named_graphs()
    inputs = [{"tag": "ore", "n": g[0], "edges": g[1]} for g in pool]
    inputs += [{"tag": t, "n": named[t][0], "edges": named[t][1]}
               for t in ("c5_join_k2", "groetzsch")]
    for x in inputs:
        perm = list(range(x["n"]))
        rng.shuffle(perm)
        x["n"], x["edges"] = relabel(x["n"], x["edges"], perm)
    corpus = build_corpus(tmp_path_factory.mktemp("audit"), inputs)
    rc, out = cli("verify", "all", "--jobs", "1", "--corpus", str(corpus))
    return rc, out, corpus, inputs


def test_audit_check_passes_on_program_output(audit):
    rc, out, corpus, inputs = audit
    assert checks.check_audit(out, rc, corpus, inputs) == ([], 5, 0)


def test_audit_check_catches_a_fail_row(audit):
    rc, out, corpus, inputs = audit
    lines = out.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("CHECK main-case"))
    lines[row] = lines[row].replace(" PASS", " FAIL")
    problems, attempted, failed = checks.check_audit("\n".join(lines), rc, corpus, inputs)
    assert any(p.startswith("FAIL row: main-case") for p in problems)
    assert (attempted, failed) == (5, 1)


def test_audit_check_catches_a_stale_invariant(audit, tmp_path):
    rc, out, corpus, inputs = audit
    stale = tmp_path / "corpus"
    stale.mkdir()
    for path in corpus.glob("*.json"):
        raw = json.loads(path.read_text())
        if raw["invariants"]["n"] == 11:  # groetzsch
            raw["invariants"]["critical5"] = True
        (stale / path.name).write_text(json.dumps(raw))
    problems, _, _ = checks.check_audit(out, rc, stale, inputs)
    assert len(problems) == 1 and "(groetzsch): critical5=True" in problems[0]


def test_extend_check_catches_a_missing_record(tmp_path):
    named = named_graphs()
    inputs = [{"tag": t, "n": named[t][0], "edges": named[t][1]}
              for t in ("c5_join_k2", "k1_join_groetzsch")]
    corpus = build_corpus(tmp_path, inputs)
    rc, out = cli("verify", "extensions", "--records", "6", "--max-extend-n", "23",
                  "--seed", "5", "--corpus", str(corpus))
    assert checks.check_extend(out, rc, 6) == ([], 6, 0)
    kept, skip = [], 0
    for line in out.splitlines():
        if "record=3 " in line:
            skip = 4
        if skip:
            skip -= 1
            continue
        kept.append(line)
    problems, attempted, failed = checks.check_extend("\n".join(kept), rc, 6)
    assert "record 3 missing" in problems
    assert (attempted, failed) == (6, 1)
