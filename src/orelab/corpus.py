"""Directory-backed corpus of audited graphs.

One JSON file per isomorphism class, named by the 16-hex-digit graph
fingerprint, holding the graph in text format, a provenance string, and
the cached invariants.  An append-only ``ledger.log`` records additions
and verification outcomes.  No database, diff-friendly, idempotent adds.
"""

from __future__ import annotations

import json
import os
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

    def exists(self) -> bool:
        return self.root.is_dir()

    def keys(self) -> list[str]:
        if not self.exists():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def log(self, message: str):
        self.root.mkdir(parents=True, exist_ok=True)
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

    def _read(self, key: str, *fields: str) -> list:
        """An entry's named fields, then its invariants (an object); ValueError if corrupt."""
        path = self._path(key)
        fields += ("invariants",)
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            values = [raw[name] for name in fields]
        except FileNotFoundError:
            raise KeyError(f"no corpus entry {key} under {self.root}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: corrupt entry: {exc}") from None
        except (KeyError, TypeError):
            name = next(f for f in fields if not isinstance(raw, dict) or f not in raw)
            raise ValueError(f"{path}: corrupt entry: no {name!r} field") from None
        if not isinstance(values[-1], dict):
            raise ValueError(f"{path}: corrupt entry: 'invariants' is not an object")
        return values

    def load(self, key: str) -> Entry:
        text, invariants = self._read(key, "graph")
        try:
            return Entry(key, graph_from_text(text), invariants)
        except (AttributeError, ValueError) as exc:
            raise ValueError(f"{self._path(key)}: corrupt entry: {exc}") from None

    def invariants(self, key: str) -> dict:
        """The cached invariants of an entry, without building its graph;
        ValueError if they hold an ``"n"`` that is not an integer."""
        invariants = self._read(key)[0]
        if not isinstance(invariants.get("n", 0), int):
            raise ValueError(f"{self._path(key)}: corrupt entry: 'n' is not an integer")
        return invariants

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
