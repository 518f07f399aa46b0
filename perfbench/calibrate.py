"""Host-speed calibration: a fixed pure-Python kernel timed next to the ops.

The reference box (a 2-vCPU guest on a shared host) runs in speed phases:
for tens of seconds to minutes every instruction takes up to twice as
long, in CPU time as well as wall time, so the slowdown cannot be
subtracted as steal. A fixed kernel that uses none of gridflex slows
down by the same factor. Timed between ops, it gives the host's speed
at that moment, and an op time is scaled to what it would have been at
the reference speed:

    normalised = measured * REFERENCE_S / kernel time around the op

Over a two-minute probe whose speed changed twice by 1.8x, a gridflex
run took 2.25-2.43 kernel times in every 10-second window. Nothing of
gridflex runs in the kernel, so a change to gridflex moves only the
numerator; only a change of interpreter or host moves the kernel.
"""

from __future__ import annotations

import statistics
import time

# Kernel time on the reference box in a fast phase (Python 3.11.7).
REFERENCE_S = 0.035
# A run takes a kernel sample after each stretch of this much op time.
EVERY_S = 0.25


def kernel() -> int:
    """Dictionary updates and integer arithmetic, as in the slot loop."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(200_000):
        key = i % 1000
        table[key] = table.get(key, 0) + i
        acc += i * 3 % 7
    return acc + len(table)


def sample() -> float:
    """Seconds one kernel pass takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Kernel samples interleaved with a sequence of ops.

    `after_op` is called after every op (outside its timed region); it
    takes a sample once EVERY_S of op time has passed since the last one.
    Each op is scaled by the mean of the samples just before and just
    after it.
    """

    def __init__(self) -> None:
        self.samples = [sample()]
        self.op_block: list[int] = []  # op i ran after samples[op_block[i]]
        self._since = 0.0

    def after_op(self, elapsed: float) -> None:
        self.op_block.append(len(self.samples) - 1)
        self._since += elapsed
        if self._since >= EVERY_S:
            self.close()

    def close(self) -> None:
        """Take the sample that ends the current stretch of ops."""
        if self.op_block and self.op_block[-1] == len(self.samples) - 1:
            self.samples.append(sample())
        self._since = 0.0

    def normalise(self, op_times: list[float]) -> list[float]:
        self.close()
        return [
            t * REFERENCE_S / ((self.samples[b] + self.samples[b + 1]) / 2)
            for t, b in zip(op_times, self.op_block)
        ]


def normalise_span(seconds: float, before: list[float], after: list[float]) -> float:
    """Scale a span of `seconds` by the kernel samples taken around it."""
    return seconds * REFERENCE_S / statistics.median(before + after)
