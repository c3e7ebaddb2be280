"""Host-speed probes, to take the shared host's speed out of timings.

On a host shared with other tenants the same code runs up to 1.8 times
slower, in phases of seconds to minutes, on one CPU and not the other. So
timed work is cut at checkpoints; each checkpoint runs a short probe on the
same CPU, and the work between two checkpoints, probes excluded, is scaled
by ``REFERENCE_CHUNK_S`` over their mean chunk time: seconds on a host where
one probe chunk takes ``REFERENCE_CHUNK_S``. The probe is fixed benchmark
code, like the program a mix of interpreter work and small numpy calls, and
runs only between the program's calls.

    python3 perfbench/hostspeed.py    # prints this host's chunk time now
"""

from __future__ import annotations

import time

import numpy as np

# How long each probe runs.
PROBE_S = 0.08
# Chunk time the reported timings are scaled to: about the median on the
# 2-core host the bounds were set on.
REFERENCE_CHUNK_S = 2.5e-3

_POINTS = np.random.default_rng(0).standard_normal((64, 5))


def _chunk() -> None:
    total, table = 0, {}
    for i in range(5000):
        total += i * i % 7
        table[i & 255] = total
    for _ in range(10):
        squared = ((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(-1)
        np.argsort(squared, axis=1)


def probe() -> float:
    """Mean seconds per chunk over whole chunks run for ``PROBE_S``."""
    started = time.perf_counter()
    chunks = 0
    while True:
        _chunk()
        chunks += 1
        elapsed = time.perf_counter() - started
        if elapsed >= PROBE_S:
            return elapsed / chunks


class Timeline:
    """Checkpoints along one process's run: (probe start, probe end, chunk
    seconds). Time counts only between two checkpoints, so callers take one
    before and one after the work they time."""

    def __init__(self):
        self.checkpoints: list[tuple[float, float, float]] = []

    def checkpoint(self) -> None:
        started = time.perf_counter()
        chunk_s = probe()
        self.checkpoints.append((started, time.perf_counter(), chunk_s))

    def _pieces(self, start: float, end: float):
        """(seconds of [start, end] between two checkpoints, the factor that
        scales them to the reference speed)."""
        for (_, low, before), (high, _, after) in zip(self.checkpoints, self.checkpoints[1:]):
            overlap = min(end, high) - max(start, low)
            if overlap > 0:
                yield overlap, REFERENCE_CHUNK_S / ((before + after) / 2.0)

    def scaled_seconds(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` at the reference speed, probes excluded."""
        return sum(seconds * factor for seconds, factor in self._pieces(start, end))

    def wall_seconds(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end``, probes excluded."""
        return sum(seconds for seconds, _ in self._pieces(start, end))


if __name__ == "__main__":
    print(f"{probe() * 1e3:.3f} ms per chunk (reference {REFERENCE_CHUNK_S * 1e3:.3f} ms)")
