"""Time a pass in units of a reference loop run alongside it.

On a shared host the CPU speed a process gets swings by up to 1.7x within
seconds, and a whole 30 s run can stay slow, so the wall time of a pass
measures the host as much as the package.  `RefClock` samples the host's
speed while the pass runs: every INTERVAL_S of wall time a SIGALRM handler
times `reference_loop`, a fixed pure-Python loop that touches nothing of
the package, between two bytecodes of the pass.  A sample is also taken
just before and just after the pass.

The pass is cut at the samples into stretches.  Each stretch counts as
its wall time over the mean length of the two samples around it, and
`refs()` is the sum: the pass's length in reference-loop lengths.  A
change that makes the package 10% slower makes `refs()` 10% larger; a
host that runs everything 10% slower leaves it as it was.  `wall_s()` is
the pass's wall time without the samples taken inside it.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

INTERVAL_S = 0.1
REF_ITERS = 5_000  # 0.8-2 ms on the machine the benchmark was tuned on
# A reference second is 1000 reference-loop lengths: about one wall second
# where the loop takes 1 ms, as at that machine's fast speed.
REF_SECONDS = 0.001

_TABLE = [(i * 2654435761) % 1_000_003 for i in range(256)]


def _step(acc: int, x: int) -> int:
    return (acc * 31 + x) % 1_000_003


def reference_loop(iters: int = REF_ITERS) -> int:
    """Integer arithmetic, list indexing and calls, as in the package's
    inner loops.  It allocates no container, so it never starts the GC."""
    table = _TABLE
    acc = 1
    for i in range(iters):
        acc = _step(acc, table[(acc ^ i) & 255])
    return acc


class RefClock:
    """Context manager around one pass; single use, main thread only."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (start_ns, end_ns)
        self.start = self.end = 0
        self._sampling = False

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a timer signal that lands inside a sample
            return
        self._sampling = True
        t0 = perf_counter_ns()
        reference_loop()
        self.samples.append((t0, perf_counter_ns()))
        self._sampling = False

    def __enter__(self) -> RefClock:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = perf_counter_ns()
        signal.signal(signal.SIGALRM, self._previous)
        # A signal pending at setitimer may have run its sample after `end`.
        self.samples = [sample for sample in self.samples if sample[1] <= self.end]
        self._sample()

    def _inside(self) -> list[tuple[int, int]]:
        return self.samples[1:-1]

    def probe_ns(self, t0: int, t1: int) -> int:
        """Time spent in samples within [t0, t1]."""
        return sum(max(0, min(e, t1) - max(s, t0)) for s, e in self._inside())

    def wall_s(self) -> float:
        return (self.end - self.start - self.probe_ns(self.start, self.end)) / 1e9

    def refs(self) -> float:
        cuts = [self.start] + [t for s, e in self._inside() for t in (s, e)] + [self.end]
        lengths = [e - s for s, e in self.samples]
        return sum(
            (cuts[2 * i + 1] - cuts[2 * i]) * 2 / (lengths[i] + lengths[i + 1])
            for i in range(len(lengths) - 1)
        )
