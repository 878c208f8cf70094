"""How fast the machine ran Python while a phase ran, from a fixed reference tick.

The host this benchmark was tuned on is shared, and its speed wanders: the
same `verify all` phase on the same corpus took from 3.4 s to 6.2 s within
eight minutes, and a fixed loop flips between a fast and a slow mode (about
1.7 times apart) several times a second.  So while a phase runs, an
interval timer interrupts it every ``INTERVAL_S`` and times one ``tick()``,
a few milliseconds of what orelab's hot loops do, in plain Python and
without orelab: a saturation-first backtracking colouring over bitmask
domains and a colour-refinement pass that hashes tuples into dicts.  The
mean tick time over the phase says how slow the machine was on average,
and the run scales the phase's own time (ticks taken out) by
``NOMINAL_S`` over that mean.  The ticks allocate almost nothing, so they
do not move a phase's peak resident memory.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

# Mean tick time on the reference machine (README.md); a phase that ran at
# that speed throughout reports its own time unchanged.
NOMINAL_S = 0.0028
INTERVAL_S = 0.05
BRACKET = 8


def _graphs() -> list[list[int]]:
    rng = random.Random(20240611)
    out = []
    for _ in range(2):
        n = 22
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        out.append(adj)
    return out


GRAPHS = _graphs()


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _colorable(adj: list[int], k: int) -> bool:
    n = len(adj)
    domain = [(1 << k) - 1] * n
    uncolored = (1 << n) - 1

    def dfs() -> bool:
        nonlocal uncolored
        if not uncolored:
            return True
        best, size = -1, k + 1
        for v in _bits(uncolored):
            s = domain[v].bit_count()
            if s < size:
                best, size = v, s
        if size == 0:
            return False
        avail = domain[best]
        while avail:
            low = avail & -avail
            avail ^= low
            uncolored &= ~(1 << best)
            touched = [u for u in _bits(adj[best] & uncolored) if domain[u] & low]
            for u in touched:
                domain[u] &= ~low
            if dfs():
                return True
            for u in touched:
                domain[u] |= low
            uncolored |= 1 << best
        return False

    return dfs()


def _refine(adj: list[int]) -> int:
    n = len(adj)
    colour = [0] * n
    for _ in range(n):
        sigs = {}
        for v in range(n):
            sig = (colour[v], tuple(sorted(colour[u] for u in _bits(adj[v]))))
            sigs.setdefault(sig, len(sigs))
        new = [sigs[(colour[v], tuple(sorted(colour[u] for u in _bits(adj[v]))))]
               for v in range(n)]
        if new == colour:
            break
        colour = new
    return len(set(colour))


def tick() -> int:
    """A fixed few milliseconds of work; the same result every time."""
    return sum(_colorable(adj, 4) + _refine(adj) for adj in GRAPHS)


class Sampler:
    """Times ``BRACKET`` ticks at ``start`` and at ``stop``, and one tick
    every ``INTERVAL_S`` of wall time in between, from a SIGALRM handler in
    the main thread.  The bracket ticks give phases shorter than the
    interval, such as a bare import, a speed too."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent_s = 0.0  # wall time spent in the handler, between start and stop
        self._old = None

    def _tick(self) -> float:
        t0 = perf_counter()
        tick()
        dt = perf_counter() - t0
        self.ticks.append(dt)
        return dt

    def _handler(self, signum, frame):
        self.spent_s += self._tick()

    def start(self) -> None:
        tick()  # warm the code objects before the first timed tick
        for _ in range(BRACKET):
            self._tick()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._old is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._old = None
        for _ in range(BRACKET):
            self._tick()

    def mean_tick_s(self) -> float | None:
        return sum(self.ticks) / len(self.ticks) if self.ticks else None


if __name__ == "__main__":
    times = []
    for _ in range(200):
        t0 = perf_counter()
        tick()
        times.append(perf_counter() - t0)
    times.sort()
    print(f"tick: min {times[0]:.5f} median {times[100]:.5f} mean {sum(times) / 200:.5f}")
