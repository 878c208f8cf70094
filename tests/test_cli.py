import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import orelab
from orelab import Facts, graph_to_graph6, named_graph, recipe_to_text
from orelab import coloring, lab_cli, ore, packing
from orelab.constructions import complete_graph
from orelab.corpus import Corpus
from orelab.graph_core import graph_to_text
from orelab.lab_cli import main
from orelab.report import Report

from helpers import corpus_key


@pytest.fixture()
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


@pytest.fixture()
def small_corpus(tmp_path, run):
    root = tmp_path / "corpus"
    code, out, err = run("gen", "--max-n", "9", "--corpus", str(root))
    assert code == 0 and err == ""
    code, out, err = run("add", "c5_join_k2", "--corpus", str(root))
    assert code == 0
    return root


def test_gen_reports_and_is_idempotent(tmp_path, run):
    root = tmp_path / "corpus"
    code, out, _ = run("gen", "--max-n", "9", "--corpus", str(root))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "generated 3 classes up to n=9"
    assert sum(1 for l in lines if l.endswith(" new")) == 3
    code, out, _ = run("gen", "--max-n", "9", "--corpus", str(root))
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.endswith(" known")) == 3


@pytest.mark.parametrize("max_n", ["-3", "65", "100"])
def test_gen_rejects_an_impossible_max_n(tmp_path, run, monkeypatch, max_n):
    # refused before any work: enumeration would fail only at n = 65, after
    # every level below it
    def no_work(G):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ore, "canonical_form", no_work)
    root = tmp_path / "corpus"
    code, out, err = run("gen", "--max-n", max_n, "--corpus", str(root))
    assert (code, out) == (2, "")
    assert err == f"error: max_n {max_n} outside 0..64\n"
    assert not root.exists()


def test_add_named_and_unknown(tmp_path, run):
    root = str(tmp_path / "c")
    code, out, _ = run("add", "k5", "--corpus", root)
    assert code == 0
    assert out.splitlines()[0] == f"{corpus_key(complete_graph(5))} n=5 m=10 new"
    code, out, _ = run("add", "k5", "--corpus", root)
    assert out.splitlines()[0].endswith(" known")
    code, _, err = run("add", "no_such_graph", "--corpus", root)
    assert code == 2
    assert "named construction" in err
    # the CLI tries a file before asking the library, which refuses the name itself
    with pytest.raises(ValueError) as refused:
        named_graph("no_such_graph")
    known = "c5_join_k2, groetzsch, k1_join_groetzsch, k5, mycielski_groetzsch"
    assert str(refused.value) == f"unknown named graph 'no_such_graph' (known: {known})"


def test_add_text_file(tmp_path, run):
    G = named_graph("c5_join_k2")
    path = tmp_path / "c5k2.txt"
    path.write_text(graph_to_text(G))
    code, out, _ = run("add", str(path), "--corpus", str(tmp_path / "c"))
    assert code == 0
    assert out.startswith(corpus_key(G))
    assert "n=7 m=16 new" in out


def test_add_graph6_file_with_two_graphs(tmp_path, run):
    lines = [
        graph_to_graph6(complete_graph(5)),
        graph_to_graph6(named_graph("groetzsch")),
    ]
    path = tmp_path / "batch.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run("add", str(path), "--corpus", str(tmp_path / "c"))
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    # a single-graph query takes a file of one graph only
    code, _, err = run("t", str(path), "--corpus", str(tmp_path / "c"))
    assert code == 2
    assert err == f"error: {path}: expected exactly one graph, found 2\n"


def test_add_bad_graph6_line_reports_position(tmp_path, run):
    path = tmp_path / "bad.g6"
    path.write_text("D~{\n@@@\n")
    code, _, err = run("add", str(path), "--corpus", str(tmp_path / "c"))
    assert code == 2
    assert "bad.g6:2:" in err
    # lines are numbered as in the file, leading blank lines included
    path.write_text("\nD~{\n@@@\n")
    code, _, err = run("add", str(path), "--corpus", str(tmp_path / "c"))
    assert code == 2
    assert "bad.g6:3:" in err


@pytest.mark.parametrize(
    "text, why",
    [
        ("2 2\n0 1\n0 1\n", "line 3: duplicate edge (0,1)"),
        ("3 1\n0 5\n", "line 2: edge (0,5) out of range for n=3"),
        ("\n3 1\n0 5\n", "line 3: edge (0,5) out of range for n=3"),
        ("3 1\n-1 2\n", "line 2: edge (-1,2) out of range for n=3"),
        ("3 2\n0 1\n", "declared 2 edges, found 1"),
        ("-3 1\n0 1\n", "line 1: vertex count -3 outside 1..64"),
        (
            "\xff\xfe\x00\x01",
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    ],
)
def test_a_bad_text_file_names_itself_and_the_line(tmp_path, run, text, why):
    path = tmp_path / "bad.txt"
    # latin-1 writes each character as the one byte of its code, so a case
    # can hold bytes that are not UTF-8
    path.write_bytes(text.encode("latin-1"))
    code, _, err = run("add", str(path), "--corpus", str(tmp_path / "c"))
    assert code == 2
    assert err == f"error: {path}: {why}\n"


def test_a_text_file_may_open_with_a_blank_line(tmp_path, run):
    path = tmp_path / "lead.txt"
    path.write_text("\n3 1\n0 1\n")
    assert run("t", str(path), "--corpus", str(tmp_path / "c")) == (0, "t=0\n", "")


def test_verify_empty_corpus_warns(tmp_path, run):
    code, out, err = run("verify", "main", "--corpus", str(tmp_path / "nothing"))
    assert code == 0
    assert out == ""
    assert "empty" in err


def test_verify_warnings_leave_stdout_to_the_check_stream(small_corpus, run):
    code, out, err = run(
        "verify", "extensions", "--corpus", str(small_corpus), "--max-extend-n", "5"
    )
    assert code == 0
    assert err == "warning: no corpus entry is eligible for extension records\n"
    assert out and all(line.split()[0] in ("CHECK", "SUITE") for line in out.splitlines())


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(small_corpus, run, jobs):
    code, out, err = run("verify", "main", "--corpus", str(small_corpus), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_verify_rejects_negative_records(small_corpus, run):
    code, out, err = run("verify", "extensions", "--corpus", str(small_corpus), "--records", "-3")
    assert (code, out) == (2, "")
    assert err == "error: --records must be at least 0, got -3\n"


def test_verify_suites_pass(small_corpus, run):
    for suite in ("main", "ore5", "lemma2", "discharge"):
        code, out, _ = run("verify", suite, "--corpus", str(small_corpus))
        assert code == 0, out
        last = out.strip().splitlines()[-1]
        assert last.startswith(f"SUITE {suite} PASS checks=")
        assert last.endswith("failures=0")
        assert all(
            " FAIL" not in line for line in out.splitlines()
        )


def test_verify_all_includes_every_row_family(small_corpus, run):
    code, out, _ = run(
        "verify", "all", "--corpus", str(small_corpus), "--records", "6"
    )
    assert code == 0
    names = {line.split()[1] for line in out.splitlines() if line.startswith("CHECK")}
    assert {
        "corpus-key",
        "corpus-invariants",
        "main-case-k5",
        "main-case-ore",
        "main-case-other",
        "ore5-ky-upper",
        "ore5-equivalence",
        "ore5-low-ky-collapsible",
        "packing-lower-bound",
        "compose-superadditive",
        "compose-k5-bump",
        "charge-sum-identity",
        "conservation",
        "edges-vs-mic",
        "mic-vs-components",
        "positive-p-components",
        "extension-shape",
        "ky-extension",
        "refined-extension",
        "coarse-extension",
    } <= names


@pytest.mark.parametrize(
    "name, field, value, argv",
    [
        ("k5", "p_ky", 99, ["main"]),
        # a graph that is not 5-critical, flagged as one, would be handed
        # extension records
        ("groetzsch", "critical5", True, ["extensions", "--records", "6"]),
        ("groetzsch", "critical5", True, ["all", "--records", "6"]),
        # records follow the stored n, so K5 stored as 9 vertices is handed
        # records it is too small to have
        ("k5", "n", 9, ["extensions", "--records", "6"]),
    ],
)
def test_verify_catches_tampered_invariants(small_corpus, run, name, field, value, argv):
    G = named_graph(name)
    assert run("add", name, "--corpus", str(small_corpus))[0] == 0
    key = corpus_key(G)
    path = small_corpus / f"{key}.json"
    raw = json.loads(path.read_text())
    raw["invariants"][field] = value
    path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
    code, out, err = run("verify", *argv, "--corpus", str(small_corpus))
    assert code == 1
    assert f"CHECK corpus-invariants {key} FAIL note=stale={field}" in out
    assert out.strip().splitlines()[-1].startswith(f"SUITE {argv[0]} FAIL")
    assert err == f"fail: entry {key} graph6 {graph_to_graph6(G)}\n"


K5_KEY = corpus_key(complete_graph(5))


BAD_N = {"critical5": True, "n": "five"}


def _spoil(path: Path, field: str, text) -> None:
    """Rewrite a corpus file with ``field`` set to ``text``, or removed."""
    raw = json.loads(path.read_text())
    if text is None:
        del raw[field]
    else:
        raw[field] = text
    path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "field, text, argv, why",
    [
        ("graph", None, ["verify", "main"], "no 'graph' field"),
        ("invariants", None, ["verify", "extensions"], "no 'invariants' field"),
        ("graph", "5 10\n0 1\n", ["verify", "main"], "declared 10 edges, found 1"),
        ("graph", "5 10\n0 1\n", ["t", K5_KEY], "declared 10 edges, found 1"),
        ("invariants", [1], ["verify", "main"], "'invariants' is not an object"),
        ("invariants", [1], ["verify", "extensions"], "'invariants' is not an object"),
        ("invariants", BAD_N, ["verify", "extensions"], "'n' is not an integer"),
        ("invariants", BAD_N, ["verify", "all"], "'n' is not an integer"),
        # every command reads "n" through the one entry reader
        ("invariants", BAD_N, ["verify", "main"], "'n' is not an integer"),
        ("invariants", BAD_N, ["t", K5_KEY], "'n' is not an integer"),
    ],
)
def test_a_corrupt_entry_names_its_file(small_corpus, run, field, text, argv, why):
    path = small_corpus / f"{K5_KEY}.json"
    _spoil(path, field, text)
    code, out, err = run(*argv, "--corpus", str(small_corpus))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: corrupt entry: {why}\n"


def test_a_corrupt_last_entry_stops_verify_before_any_output(small_corpus, run):
    # every entry is read before any is checked, so the entry that sorts
    # last stops the run before the others' lines reach stdout
    path = small_corpus / f"{Corpus(small_corpus).keys()[-1]}.json"
    _spoil(path, "graph", "5 10\n0 1\n")
    code, out, err = run("verify", "all", "--jobs", "2", "--corpus", str(small_corpus))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: corrupt entry: declared 10 edges, found 1\n"


def test_verify_reads_each_entry_once(small_corpus, run, recorder):
    from orelab import corpus

    loads = recorder.watch(corpus.json, "load")
    code, _, _ = run("verify", "all", "--corpus", str(small_corpus), "--records", "6")
    assert code == 0
    assert [Path(fh.name).stem for fh, in loads] == Corpus(small_corpus).keys()


def test_verify_counts_failures_from_verdicts_not_text(small_corpus, run, monkeypatch):
    def noted(G):
        rep = Report()
        rep.add("noted", "k", True, note="previous FAIL fixed")
        return rep

    monkeypatch.setattr(lab_cli, "verify_main_theorem", noted)
    code, out, _ = run("verify", "main", "--corpus", str(small_corpus))
    assert "CHECK noted k PASS note=previous FAIL fixed" in out
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("failures=0")


def test_verify_is_deterministic(small_corpus, run):
    args = (
        "verify",
        "extensions",
        "--corpus",
        str(small_corpus),
        "--records",
        "10",
        "--seed",
        "3",
    )
    code1, out1, _ = run(*args)
    code2, out2, _ = run(*args)
    assert (code1, out1) == (code2, out2) == (0, out1)


def test_verify_jobs_output_identical(small_corpus, run):
    args = ("verify", "all", "--corpus", str(small_corpus), "--records", "6")
    _, serial, _ = run(*args)
    code, parallel, _ = run(*args, "--jobs", "2")
    assert code == 0
    assert parallel == serial


def test_verify_jobs_output_identical_in_fresh_processes(ore17_facts, tmp_path):
    # a forked pool inherits its parent's recognized classes, so only fresh
    # interpreters show whether a recipe depends on which labeling came first
    root = tmp_path / "corpus"
    corpus = Corpus(root)
    small = [f for f in ore17_facts if f.graph.n <= 13]
    for facts in small + [f for f in ore17_facts if f.graph.n == 17][:16]:
        corpus.add(facts, "test")
    src = str(Path(orelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "orelab.lab_cli", "verify", "lemma2",
             "--corpus", str(root), "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_importing_the_cli_loads_no_process_pool_or_dataclasses():
    # only verify --jobs above 1 starts a pool, and only then imports one;
    # records are plain __slots__ classes, so no code is generated at import
    src = str(Path(orelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, orelab.lab_cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'dataclasses', 'inspect'}"
        " & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_panic_exits_3_naming_the_entry(small_corpus, run, monkeypatch, jobs):
    code, clean, _ = run("verify", "main", "--corpus", str(small_corpus))
    assert code == 0
    corpus = Corpus(small_corpus)
    keys = corpus.keys()
    graphs = [corpus.load(k).graph for k in keys]
    # a walk step that leaves a 9-vertex coloring as it was fails the
    # re-check, so the first 9-vertex entry panics and the ones before it pass
    real = coloring._recolor

    def recolor(colors, x, b):
        return colors if len(colors) == 9 else real(colors, x, b)

    monkeypatch.setattr(coloring, "_recolor", recolor)
    first = next(i for i, g in enumerate(graphs) if g.n == 9)
    code, out, err = run("verify", "main", "--corpus", str(small_corpus), "--jobs", jobs)
    assert code == 3
    (line,) = err.splitlines()
    graph6 = graph_to_graph6(graphs[first])
    assert line.startswith(f"panic: entry {keys[first]} graph6 {graph6}: walked coloring")
    # the earlier entries' lines were printed as they finished; no SUITE line
    earlier = [l for l in clean.splitlines() if l.split()[2] in keys[:first]]
    assert earlier
    assert out.splitlines() == earlier
    assert not any(l.startswith("SUITE") for l in out.splitlines())


C5K2_KEY = corpus_key(named_graph("c5_join_k2"))


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--max-n", "9"),
        ("add", "c5_join_k2"),
        ("t", "c5_join_k2"),
        ("potential", "c5_join_k2"),
        ("discharge", "c5_join_k2"),
        ("extend", C5K2_KEY, "--r", "0,1,2,3,4"),
    ],
)
def test_store_panic_exits_3_naming_the_graph(tmp_path, run, monkeypatch, argv):
    def broken(*args):
        raise orelab.InvariantViolation("invariant broke")

    root = str(tmp_path / "corpus")
    where = ""
    if argv[0] == "extend":
        assert run("add", "c5_join_k2", "--corpus", root)[0] == 0
        where = f"entry {C5K2_KEY} "
        monkeypatch.setattr(lab_cli, "critical_extension", broken)
    elif argv[0] in ("t", "potential"):
        monkeypatch.setattr(packing, "t_number", broken)
    else:
        monkeypatch.setattr(Facts, "of", staticmethod(broken))
    code, out, err = run(*argv, "--corpus", root)
    assert code == 3
    first = complete_graph(5) if argv[0] == "gen" else named_graph("c5_join_k2")
    assert err.splitlines() == [f"panic: {where}graph6 {graph_to_graph6(first)}: invariant broke"]


@pytest.mark.parametrize(
    "argv",
    [
        ("t", "c5_join_k2"),
        ("add", "c5_join_k2"),
        ("extend", C5K2_KEY, "--r", "0,1,2,3,4"),
        ("verify", "main", "--jobs", "1"),
        ("verify", "main", "--jobs", "2"),
    ],
)
def test_an_internal_fault_exits_3_naming_the_graph(small_corpus, run, monkeypatch, argv):
    # a fault that is no InvariantViolation is a panic too, not a failed
    # check; a ValueError or KeyError the library raises is no usage error
    corpus = Corpus(small_corpus)
    key = {"extend": C5K2_KEY, "verify": corpus.keys()[0]}.get(argv[0])
    G = corpus.load(key).graph if key else named_graph("c5_join_k2")
    where = f"entry {key} " if key else ""
    for fault in (IndexError("planted"), ValueError("planted"), KeyError("planted")):

        def broken(*args):
            raise fault

        monkeypatch.setattr(packing, "best_packing", broken)
        code, out, err = run(*argv, "--corpus", str(small_corpus))
        assert (code, out) == (3, "")
        name = type(fault).__name__
        assert err.splitlines() == [f"panic: {where}graph6 {graph_to_graph6(G)}: {name}: {fault}"]


def test_an_io_error_in_the_store_is_a_usage_error(tmp_path, run):
    # the corpus directory's path names a regular file
    root = tmp_path / "corpus"
    root.write_text("")
    code, out, err = run("add", "k5", "--corpus", str(root))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 17] File exists: '{root}'\n"


def test_extend_block_of_double(small_corpus, run, doubles):
    key = corpus_key(doubles[0][0])
    code, out, _ = run(
        "extend", key, "--r", "0,1,2,3,4", "--corpus", str(small_corpus)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(f"extend {key} r=0,1,2,3,4 seed=0")
    assert lines[1].startswith("phi ")
    assert any(l.startswith("identified n=8") for l in lines)
    assert any("core-classes=" in l and "complete=yes spanning=yes" in l for l in lines)
    assert any(l == "expanded 0,1,2,3,4,5,6,7,8" for l in lines)
    assert sum(1 for l in lines if l.startswith("CHECK")) == 3


def test_extend_names_a_failing_entry(small_corpus, run, monkeypatch):
    def failing(rec, key, table):
        rep = Report()
        rep.add("forced", key, False)
        return rep

    monkeypatch.setattr(lab_cli, "verify_extension_inequalities", failing)
    G = named_graph("c5_join_k2")
    key = corpus_key(G)
    code, out, err = run("extend", key, "--r", "0,1,2,3,4", "--corpus", str(small_corpus))
    assert code == 1
    assert out.splitlines()[-1] == f"CHECK forced {key} FAIL"
    assert err == f"fail: entry {key} graph6 {graph_to_graph6(G)}\n"


def test_extend_usage_errors(small_corpus, run, doubles):
    key = corpus_key(doubles[0][0])
    cases = [
        ("0,1,2,3,4,5,6,7,8", "proper subset"),
        ("0,1,2", "at least 5"),
        ("0,1,2,3,99", "outside"),
        ("0,1,two,3,4", "--r"),
    ]
    for rlist, fragment in cases:
        code, _, err = run(
            "extend", key, "--r", rlist, "--corpus", str(small_corpus)
        )
        assert code == 2
        assert fragment in err
    code, _, err = run(
        "extend", "0" * 16, "--r", "0,1,2,3,4", "--corpus", str(small_corpus)
    )
    assert code == 2
    assert err == f"error: no corpus entry {'0' * 16} under {small_corpus}\n"


def test_extend_reports_a_solver_fault_as_a_panic(small_corpus, run, monkeypatch):
    # every proper induced subgraph of a 5-critical host is 4-colorable, so
    # no seeded coloring of --r means the solver is wrong, not the user
    monkeypatch.setattr(coloring, "seeded_coloring", lambda *args: None)
    G = named_graph("c5_join_k2")
    key = corpus_key(G)
    code, out, err = run("extend", key, "--r", "0,1,2,3,4", "--corpus", str(small_corpus))
    assert (code, out) == (3, "")
    assert err == (
        f"panic: entry {key} graph6 {graph_to_graph6(G)}: "
        "proper subgraph of a 5-critical graph must be 4-colorable\n"
    )


def test_extend_rejects_a_host_that_is_not_5_critical(small_corpus, run):
    code, out, _ = run("add", "groetzsch", "--corpus", str(small_corpus))
    assert code == 0
    key = out.split()[0]
    code, out, err = run("extend", key, "--r", "0,1,2,3,4", "--corpus", str(small_corpus))
    assert (code, out) == (2, "")
    assert err == f"error: entry {key} is not 5-critical, so it has no extension\n"


def test_t_command(run, tmp_path):
    code, out, _ = run("t", "k5", "--corpus", str(tmp_path / "c"))
    assert code == 0
    assert out.splitlines()[0] == "t=2"
    assert out.splitlines()[1].startswith("piece K4 ")


def test_potential_command(run, tmp_path):
    code, out, _ = run("potential", "c5_join_k2", "--corpus", str(tmp_path / "c"))
    assert code == 0
    assert out.splitlines() == ["n=7", "m=16", "t=2", "p_ky=-1", "p=-30/21"]


def test_potential_command_searches_the_packing_once(run, tmp_path, recorder):
    calls = recorder.watch(packing, "t_number")
    code, out, _ = run("potential", "c5_join_k2", "--corpus", str(tmp_path / "c"))
    assert code == 0 and out.splitlines()[-1] == "p=-30/21"
    assert len(calls) == 1


def test_discharge_command_on_critical_graph(run, tmp_path):
    code, out, _ = run("discharge", "k5", "--corpus", str(tmp_path / "c"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "v0 d=4 init=88/84 final=88/84"
    assert "total 440/84" in lines
    assert any(l.startswith("CHECK charge-sum-identity") for l in lines)


def test_discharge_command_names_a_failing_graph(run, tmp_path, monkeypatch):
    monkeypatch.setattr(packing, "mic", lambda G: (0, 0))
    G = named_graph("k1_join_groetzsch")
    code, out, err = run("discharge", "k1_join_groetzsch", "--corpus", str(tmp_path / "c"))
    assert code == 1
    assert "CHECK mic-vs-components cdbd446e54ca24c1 FAIL slack=-420/21" in out.splitlines()
    assert err == f"fail: graph6 {graph_to_graph6(G)}\n"


def test_discharge_command_skips_closing_for_non_critical(run, tmp_path):
    code, out, _ = run("discharge", "groetzsch", "--corpus", str(tmp_path / "c"))
    assert code == 0
    assert "closing inequalities skipped: graph is not 5-critical" in out
    assert "CHECK" not in out


def test_env_var_selects_corpus(tmp_path, run, monkeypatch):
    root = tmp_path / "envcorpus"
    code, _, _ = run("add", "k5", "--corpus", str(root))
    assert code == 0
    monkeypatch.setenv("ORELAB_CORPUS", str(root))
    key = corpus_key(complete_graph(5))
    code, out, _ = run("t", key)
    assert code == 0 and out.splitlines()[0] == "t=2"


def test_resolve_rejects_nonsense_token(run, tmp_path):
    code, _, err = run("t", "definitely-not-a-graph", "--corpus", str(tmp_path / "c"))
    assert code == 2
    assert "not a corpus key" in err


EXTENSION_RECORDS_SHA256 = "513e7bc9c7abfe5303480e7a423a034ac2d81d44479e7abefab0f236a7415a88"


def test_extension_records_are_frozen(ore17_facts):
    # the CHECK lines of 30 seeded records on four n = 17 classes, picked by
    # key, and mycielski_groetzsch; any change to a record's bytes shows here
    pool = sorted((f for f in ore17_facts if f.graph.n == 17), key=lambda f: f.key)
    entries = random.Random(9).sample(pool, 4) + [Facts.of(named_graph("mycielski_groetzsch"))]
    lines = []
    for j, facts in enumerate(entries):
        record_ids = list(range(j, 30, len(entries)))
        lines += lab_cli._extension_report(facts, 7, record_ids).lines()
    assert len(lines) == 120
    digest = hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest()
    assert digest == EXTENSION_RECORDS_SHA256


RECIPES_SHA256 = "cbf33ab4343830abf8ee90e72c806ef70f034aee81ec61368b07032afb38507d"
"""sha256 of the ``<key> <recipe text or ->`` lines of ``lab_facts``."""
LEMMA2_ROWS_SHA256 = "5476d39d190b5158ac1095864189e8ed08b7a812b4281a73fdbdcde697cceaa3"
"""sha256 of the ``lemma2`` CHECK lines of ``lab_facts``."""


def test_recipes_and_lemma2_rows_are_frozen(lab_facts):
    recipes = "".join(
        f"{f.key} {recipe_to_text(f.recipe) if f.recipe else '-'}\n" for f in lab_facts
    )
    assert hashlib.sha256(recipes.encode()).hexdigest() == RECIPES_SHA256
    lines = [line for f in lab_facts for line in lab_cli._lemma2_report(f).lines()]
    assert len(lines) == 3360
    digest = hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest()
    assert digest == LEMMA2_ROWS_SHA256


def test_planted_packing_number_fails_the_lemma2_claims(doubles):
    # the first 9-vertex class composes two K5s (t = 2 each); its t of 4
    # lowered to 1 breaks 4t >= n + 7, superadditivity and the K5 bump
    g, _ = doubles[0]
    facts = Facts.of(g)
    planted = Facts(g, facts.key, facts.critical, facts.recipe, 1, facts.mic)
    assert lab_cli._lemma2_report(planted).lines() == [
        "CHECK packing-lower-bound 9550650de1dc876e FAIL note=4t=4 need=16",
        "CHECK compose-superadditive 9550650de1dc876e FAIL note=node=0 t=1 sides=2+2",
        "CHECK compose-k5-bump 9550650de1dc876e FAIL note=node=0 t=1 edge-side=2",
    ]


def test_lemma2_computes_one_t_per_recipe_node(ore17_facts, recorder):
    # an n = 17 recipe has three composition nodes; the root's t is G's,
    # and K5 takes one more call
    calls = recorder.watch(packing, "t_number")
    reports = [lab_cli._lemma2_report(f) for f in ore17_facts if f.graph.n == 17]
    assert len(reports) == 549
    assert len(calls) == 549 * 3
