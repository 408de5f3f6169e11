"""A fixed probe of the host's speed of the moment, to scale measured times.

The shared host this benchmark was built on runs its vCPUs at two speeds
about 2x apart, and one speed can hold for 20 s or more, so a whole run
may sit in the slow state.  Process CPU time follows wall time there (no
steal shows), so CPU time does not help.  What does help: a fixed piece
of pure-Python work of the same kind as boolinv's (small-int bit
operations, dict and set traffic, tuples, sorting with a key, method
calls), timed right before and right after each measured interval.  Its
time moves with the host's speed while the program's work stays fixed,
so ``scaled`` maps a measured time to the time it would have taken at
the probe's reference speed.

The probe is the benchmark's own code: a change to boolinv cannot make
it faster or slower.
"""

from __future__ import annotations

from time import perf_counter

#: The probe's time on the reference host (2-vCPU Xeon VM, Python 3.11.7)
#: in its fast state.  Scaled times read as seconds at that speed.
REFERENCE_S = 0.0032


class _Cell:
    __slots__ = ("mask", "weight")

    def __init__(self, mask: int, weight: int):
        self.mask = mask
        self.weight = weight

    def key(self) -> tuple[int, int]:
        return (self.mask.bit_count(), self.mask)


def _work() -> int:
    table: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    acc = 0
    for i in range(2400):
        k = (i * 2654435761) & 0xFFFF
        table[k] = table.get(k, 0) ^ i
        acc += k.bit_count()
        seen.add((k & 0xFF, k >> 8))
    cells = [_Cell(k, v) for k, v in table.items()]
    cells.sort(key=_Cell.key)
    return acc + len(seen) + cells[0].weight


def probe() -> float:
    """Seconds the fixed probe work takes now (about 3.2 ms on the reference host when fast)."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at reference speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
