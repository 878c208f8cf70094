import json

import pytest

from orelab import Facts, named_graph
from orelab.constructions import complete_graph
from orelab.corpus import Corpus, compute_invariants, resolve_dir

from helpers import corpus_key


def test_resolve_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("ORELAB_CORPUS", raising=False)
    assert str(resolve_dir(None)) == "corpus"
    monkeypatch.setenv("ORELAB_CORPUS", str(tmp_path / "env"))
    assert resolve_dir(None) == tmp_path / "env"
    assert resolve_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_compute_invariants_k5():
    inv = compute_invariants(Facts.of(complete_graph(5)))
    assert inv == {
        "n": 5,
        "m": 10,
        "p_ky": 5,
        "t": 2,
        "p_num": 94,
        "critical5": True,
        "ore5": True,
        "mic": 4,
        "s": 0,
        "m_pairs": 0,
    }


def test_add_is_idempotent_and_logged(tmp_path):
    corpus = Corpus(tmp_path / "c")
    facts = Facts.of(complete_graph(5))
    key = facts.key
    assert corpus.add(facts, "named k5")
    assert key == corpus_key(complete_graph(5))
    assert not corpus.add(facts, "named k5")
    assert corpus.keys() == [key]
    assert key in corpus
    log = (tmp_path / "c" / "ledger.log").read_text()
    assert log.count("add ") == 1
    assert f"add {key} n=5 m=10 named k5" in log


def test_entry_files_are_stable_bytes(tmp_path):
    a, b = Corpus(tmp_path / "a"), Corpus(tmp_path / "b")
    facts = Facts.of(named_graph("c5_join_k2"))
    key = facts.key
    a.add(facts, "named c5_join_k2")
    b.add(facts, "named c5_join_k2")
    fa = (tmp_path / "a" / f"{key}.json").read_bytes()
    fb = (tmp_path / "b" / f"{key}.json").read_bytes()
    assert fa == fb
    assert fa.endswith(b"\n")


def test_load_round_trip(tmp_path):
    corpus = Corpus(tmp_path / "c")
    G = named_graph("groetzsch")
    facts = Facts.of(G)
    key = facts.key
    corpus.add(facts, "named groetzsch")
    entry = corpus.load(key)
    assert entry.graph == G
    stored = json.loads((tmp_path / "c" / f"{key}.json").read_text(encoding="utf-8"))
    assert stored["provenance"] == "named groetzsch"
    assert entry.invariants["critical5"] is False
    assert [corpus.load(k).key for k in corpus.keys()] == [key]


def test_load_errors(tmp_path):
    corpus = Corpus(tmp_path / "c")
    with pytest.raises(KeyError, match="no corpus entry"):
        corpus.load("0" * 16)
    corpus.add(Facts.of(complete_graph(5)), "named k5")
    bad = tmp_path / "c" / "deadbeefdeadbeef.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt"):
        corpus.load("deadbeefdeadbeef")


def test_verify_entry_detects_staleness(tmp_path):
    corpus = Corpus(tmp_path / "c")
    facts = Facts.of(complete_graph(5))
    key = facts.key
    corpus.add(facts, "named k5")
    rep = corpus.verify_entry(corpus.load(key), facts)
    assert rep.ok
    assert [c.name for c in rep.checks] == ["corpus-key", "corpus-invariants"]

    path = tmp_path / "c" / f"{key}.json"
    raw = json.loads(path.read_text())
    raw["invariants"]["t"] = 7
    raw["invariants"]["p_ky"] = -3
    path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
    rep = corpus.verify_entry(corpus.load(key), facts)
    assert not rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["corpus-key"].ok
    assert not by_name["corpus-invariants"].ok
    assert by_name["corpus-invariants"].note == "stale=p_ky,t"


def test_verify_entry_detects_wrong_key(tmp_path):
    corpus = Corpus(tmp_path / "c")
    facts = Facts.of(complete_graph(5))
    key = facts.key
    corpus.add(facts, "named k5")
    path = tmp_path / "c" / f"{key}.json"
    moved = tmp_path / "c" / f"{'f' * 16}.json"
    path.rename(moved)
    rep = corpus.verify_entry(corpus.load("f" * 16), facts)
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["corpus-key"].ok
    assert by_name["corpus-key"].note == f"recomputed={key}"
    assert rep.lines()[0] == f"CHECK corpus-key ffffffffffffffff FAIL note=recomputed={key}"
