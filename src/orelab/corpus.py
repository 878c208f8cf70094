"""Directory-backed corpus of audited graphs.

One JSON file per isomorphism class, named by the 16-hex-digit graph
fingerprint, holding the graph in text format, a provenance string, and
the cached invariants.  An append-only ``ledger.log`` records additions
and verification outcomes.  No database, diff-friendly, idempotent adds.
:meth:`Corpus.load` is the one reader of an entry, and checks all of it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from .graph_core import Graph, Record, d4_components, graph_from_text, graph_to_text
from .potential import Facts, p_ky
from .report import Report

DEFAULT_DIR = "corpus"
ENV_VAR = "ORELAB_CORPUS"


def resolve_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_DIR)


def compute_invariants(facts: Facts) -> dict:
    G = facts.graph
    d4 = d4_components(G)
    return {
        "n": G.n,
        "m": G.m,
        "p_ky": p_ky(G),
        "t": facts.t,
        "p_num": facts.p,
        "critical5": facts.critical,
        "ore5": facts.recipe is not None,
        "mic": facts.mic,
        "s": d4.singles,
        "m_pairs": d4.pairs,
    }


class Entry(Record):
    """One stored graph; ``key`` is the name it is stored under."""

    __slots__ = ("key", "graph", "invariants")
    key: str
    graph: Graph
    invariants: dict


class Corpus:
    def __init__(self, root: Path):
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def log(self, message: str):
        with open(self.root / "ledger.log", "a", encoding="utf-8") as fh:
            fh.write(message + "\n")

    def add(self, facts: Facts, provenance: str) -> bool:
        """Persist a graph under its key; False if it was already there."""
        key = facts.key
        path = self._path(key)
        if path.is_file():
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "graph": graph_to_text(facts.graph),
            "provenance": provenance,
            "invariants": compute_invariants(facts),
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        inv = entry["invariants"]
        self.log(f"add {key} n={inv['n']} m={inv['m']} {provenance}")
        return True

    def load(self, key: str) -> Entry:
        """The entry stored under ``key``; KeyError if there is none, and
        ValueError if it is corrupt, its invariants' ``"n"`` not an integer too."""
        path = self._path(key)

        def corrupt(why) -> ValueError:
            return ValueError(f"{path}: corrupt entry: {why}")

        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise KeyError(f"no corpus entry {key} under {self.root}") from None
        except json.JSONDecodeError as exc:
            raise corrupt(exc) from None
        for name in ("graph", "invariants"):
            if not isinstance(raw, dict) or name not in raw:
                raise corrupt(f"no {name!r} field")
        invariants = raw["invariants"]
        if not isinstance(invariants, dict):
            raise corrupt("'invariants' is not an object")
        if not isinstance(invariants.get("n", 0), int):
            raise corrupt("'n' is not an integer")
        try:
            graph = graph_from_text(raw["graph"])
        except (AttributeError, ValueError) as exc:
            raise corrupt(exc) from None
        # verify holds every entry at once; interned names are shared by all
        return Entry(key, graph, {sys.intern(name): v for name, v in invariants.items()})

    def verify_entry(self, entry: Entry, facts: Facts) -> Report:
        """Compare an entry's key and cached invariants with the fresh
        facts of its graph (staleness check)."""
        key = entry.key
        rep = Report()
        fresh_key = facts.key
        rep.add(
            "corpus-key",
            key,
            fresh_key == key,
            note=f"recomputed={fresh_key}" if fresh_key != key else "",
        )
        fresh = compute_invariants(facts)
        stale = sorted(
            name for name, value in fresh.items() if entry.invariants.get(name) != value
        )
        rep.add(
            "corpus-invariants",
            key,
            not stale,
            note=("stale=" + ",".join(stale)) if stale else f"fields={len(fresh)}",
        )
        return rep
