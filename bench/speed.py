"""Timing in reference seconds, which a change in the host's speed cancels out of.

On a shared host, other tenants slow this process's CPU, its caches and its
memory bandwidth by up to 2x, in bursts lasting from milliseconds to minutes.
Process CPU time does not remove that: a pure-Python loop's CPU time varies
by 10-20% between consecutive calls. So a Stopwatch runs a fixed reference
kernel on a timer while the timed block runs, takes the kernel's mean time
as the host's current speed, and scales the block's time to a host that
runs the kernel in REF_KERNEL_S. Its own time is not counted.

The kernel has two kinds, chosen by the kind of work timed. Contention
slows kinds of work unequally, and each step is tracked best by the kernel
closest to it. "python" (interpreted integer code and small numpy calls)
tracks the per-row emulator. "mixed" adds streaming over arrays larger than
the L2 cache and a small matrix product, and tracks training and data
generation.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# time of one kernel call of each kind on a quiet reference host (Xeon,
# Sapphire Rapids generation, Python 3.11, numpy 2.4); sets the scale of
# reference seconds
REF_KERNEL_S = {"python": 0.001, "mixed": 0.0025}
# the kernel runs every TICK_S seconds of wall time during a timed block
TICK_S = 0.02

_SMALL = np.arange(3, dtype=np.int32)
_BIG = np.random.default_rng(0).random(300_000)  # 2.4 MB, beyond L2
_OUT = np.empty_like(_BIG)
_SQUARE = np.random.default_rng(1).random((96, 96))


def kernel(kind: str) -> None:
    """Interpreted integer code and small numpy calls; "mixed" adds arrays."""
    x = 0
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFFFFF
        x ^= (x >> 3).bit_count()
    t = 0
    for i in range(200):
        np.zeros_like(_SMALL)
        t += int(np.array([i, t & 7], dtype=np.int32)[0])
    if kind == "mixed":
        for _ in range(2):
            np.multiply(_BIG, 1.0001, out=_OUT)
            np.add(_OUT, _BIG, out=_OUT)
            _OUT.sum()
        (_SQUARE @ _SQUARE).sum()


class Stopwatch:
    """Times a `with` block in reference seconds.

    The kernel of `kind` runs once before the block, from a SIGALRM handler
    every TICK_S during it (unless `ticking` is false), and once after it.
    `wall_s` is the block's wall time without the kernel's; `seconds` is
    wall_s * REF_KERNEL_S[kind] / (mean kernel time). Not reentrant, and
    only for the main thread.
    """

    def __init__(self, kind: str, ticking: bool = True) -> None:
        self.kind = kind
        self.ticking = ticking
        self.kernel_s: list[float] = []
        self.wall_s = 0.0
        self.seconds = 0.0

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        kernel(self.kind)
        self.kernel_s.append(time.perf_counter() - t0)

    def __enter__(self) -> Stopwatch:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(self.kernel_s[1:])
        self._tick()
        self.wall_s = end - self._start - inside
        mean = sum(self.kernel_s) / len(self.kernel_s)
        self.seconds = self.wall_s * REF_KERNEL_S[self.kind] / mean
