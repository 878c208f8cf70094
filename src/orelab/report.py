"""Check lines for verification campaigns.

One check = one line: ``CHECK <name> <graph-key> PASS|FAIL slack=<num>/21``.
Slack is the exact margin by which an inequality held (negative on FAIL),
always as a numerator over 21; checks without a numeric margin omit the
field.  Reports never contain timestamps, so identical runs are
byte-identical.
"""

from __future__ import annotations

from .graph_core import Record


class Check(Record):
    __slots__ = ("name", "key", "ok", "slack21", "note")
    name: str
    key: str
    ok: bool
    slack21: int | None
    note: str

    def __init__(self, name: str, key: str, ok: bool, slack21: int | None = None, note: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "slack21", slack21)
        object.__setattr__(self, "note", note)

    def line(self) -> str:
        s = f"CHECK {self.name} {self.key} {'PASS' if self.ok else 'FAIL'}"
        if self.slack21 is not None:
            s += f" slack={self.slack21}/21"
        if self.note:
            s += f" note={self.note}"
        return s


class Report:
    """A mutable list of checks, in the order they were added."""

    __slots__ = ("checks",)
    checks: list[Check]

    def __init__(self):
        self.checks = []

    def add(self, name: str, key: str, ok: bool, slack21: int | None = None, note: str = ""):
        self.checks.append(Check(name, key, bool(ok), slack21, note))

    def extend(self, other: "Report"):
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]
