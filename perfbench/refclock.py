"""Command time in refs: wall time divided by the host's speed at the time.

On a virtual machine whose host cores are shared with other tenants, the
same code runs up to ~1.7x slower or faster over tens of seconds as the
neighbours' load comes and goes (measured on a 2-vCPU Xeon VM), and CPU
time swings as much as wall time, so a gated wall-clock median moves by
more than any useful bound.  ``RefClock`` measures that speed
while a command runs: an interval timer (SIGALRM) interrupts the program
every ``PERIOD`` seconds and times one calibration ``block``, a fixed loop
of the operations the program spends its time on (numpy scalar indexing,
small-vector arithmetic and float math).  The blocks sample the host's
speed uniformly in time across the command, so

    refs = (command wall time - time spent in blocks) * mean(1 / block time)

is the command's work in blocks.  A change to the program moves refs as it
moves wall time; a change of host speed moves the command and the blocks
together and cancels.  Standard library and numpy only; the benchmark's
own code, so no change to the program can speed up the yardstick.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD = 0.02
"""Seconds between calibration blocks (wall clock)."""

MIN_BLOCKS = 5
"""A command that saw fewer blocks borrows the latest earlier ones."""

BLOCK_ITERATIONS = 160

QUIET_BLOCK_S = 0.5e-3
"""Seconds per ref for figures that must be given in seconds: about the
block's time on a quiet 2-vCPU Xeon VM.  A fixed scale, not a measurement."""

_M = np.arange(64.0).reshape(8, 8) / 64.0


def block() -> float:
    """The calibration work, one ref."""
    s = 0.0
    for i in range(BLOCK_ITERATIONS):
        p, q = i % 8, (3 * i + 1) % 8
        x = _M[p, q]
        s += math.sqrt(x * x + 1.0)
        s += float((_M[p] * 0.5 - _M[q]).sum())
    return s


def to_refs(seconds: float, blocks) -> float:
    """Work of ``seconds`` of command time, in calibration blocks, given
    the block times sampled while it ran."""
    return seconds * sum(1.0 / b for b in blocks) / len(blocks)


class RefClock:
    """Interleaves calibration blocks with whatever runs inside ``with``.

    Use on the main thread only (signal handlers run there).  Entering runs
    ``MIN_BLOCKS`` blocks at once, so there is always a sample; ``mark``
    and ``refs_since`` bracket one command.
    """

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.blocks = []    # seconds per calibration block
        self.spent = 0.0    # seconds inside the handler, blocks included
        self._previous = None

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        block()
        t1 = time.perf_counter()
        self.blocks.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        for _ in range(MIN_BLOCKS):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        return len(self.blocks), self.spent

    def refs_since(self, mark: tuple, wall: float) -> float:
        """Refs of a command that took ``wall`` seconds since ``mark``."""
        n0, spent0 = mark
        blocks = self.blocks[n0:]
        if len(blocks) < MIN_BLOCKS:
            blocks = self.blocks[-MIN_BLOCKS:]
        return to_refs(wall - (self.spent - spent0), blocks)
