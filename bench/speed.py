"""How fast the machine runs at a given moment, from a reference.

A shared virtual machine can change speed by up to 2x for seconds to
minutes at a time.  An operation's wall time changes with it, while its
ratio to a fixed piece of work of the same kind, timed next to it on the
same core, stays within a few per cent.  The benchmark therefore times a
reference between operations and scales each operation's wall time to the
nominal speed: what the operation would take when the reference takes its
nominal time.

There are two references, because work inside the interpreter and the
start of a new process do not change speed by the same share: in one test
a Python loop ran 2.0x slower while `python -c pass` ran 1.5x slower.

* ``loop``: one weighted-average sweep over a fixed random graph, for
  operations that run inside the benchmark's process;
* ``start``: a fresh interpreter that runs ``pass``, for operations that
  start a process (CLI calls and set-up probes).

Both are the benchmark's own code and data, so no change to the program
can change them.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import subprocess
import sys
import time

REF_EVERY = 0.2  # seconds of loop between samples of the reference
# Nominal times: about what each reference takes when the machine the
# benchmark was defined on (see bench/README.md) runs at its faster speed.
LOOP_NOMINAL_S = 0.003
START_NOMINAL_S = 0.050

# A fixed random graph of 3000 nodes with three weighted predecessors each,
# and one value per node, swept as a data-flow solver would.
_rng = random.Random(2)
_NODES = 3000
_PREDS = [[(_rng.randrange(_NODES), 1.0 / 3) for _ in range(3)] for _ in range(_NODES)]
_SEED = [_rng.random() for _ in range(_NODES)]
_VALUES = [0.0] * _NODES


def reference_loop() -> float:
    """Seconds that one sweep over the reference graph (list, float,
    generator and call work, like the interpreter-bound program) takes."""
    start = time.perf_counter()
    values, seed = _VALUES, _SEED
    for node in range(_NODES):
        inflow = sum(w * values[p] for p, w in _PREDS[node])
        values[node] = max(seed[node], min(inflow, 1.0 - seed[node]))
    return time.perf_counter() - start


def loop_reference() -> float:
    """The fastest of three sweeps, so that an interrupt during one sweep
    does not set the sample."""
    return min(reference_loop() for _ in range(3))


def start_reference() -> float:
    """Seconds for a fresh interpreter to start, run ``pass`` and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


class Speed:
    """Samples of one reference, taken between operations and, for
    in-process operations, every ``REF_EVERY`` seconds inside them too,
    from a timer signal: an operation can last seconds, and the machine
    can change speed while it runs."""

    def __init__(self, starts_processes: bool, inside: bool):
        if starts_processes:
            self.reference, self.nominal = start_reference, START_NOMINAL_S
        else:
            self.reference, self.nominal = loop_reference, LOOP_NOMINAL_S
        # A process started while the timer runs would share the core with
        # the samples, so operations that start processes are sampled only
        # between them.
        self.inside = inside and not starts_processes
        self.times: list[float] = []    # when each sample started
        self.samples: list[float] = []  # the reference's seconds
        self.sampling = 0.0             # seconds spent taking samples
        self._last = -math.inf
        self._start = self._sampling_at_start = 0.0
        if self.inside:
            # Left installed: an alarm that fires just before the timer is
            # stopped only takes one more sample.
            signal.signal(signal.SIGALRM, self._on_alarm)

    def sample(self) -> None:
        """Time the reference now."""
        start = time.perf_counter()
        self.samples.append(self.reference())
        self.times.append(start)
        self._last = time.perf_counter()
        self.sampling += self._last - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Start timing an operation, after a sample if the last one is
        more than ``REF_EVERY`` old."""
        if time.perf_counter() - self._last >= REF_EVERY:
            self.sample()
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        self._sampling_at_start = self.sampling
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float, float]:
        """Stop timing; return the operation's start, end and seconds,
        without the samples taken while it ran."""
        end = time.perf_counter()
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self._start, end, end - self._start - (self.sampling - self._sampling_at_start)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of an operation that ran from ``start`` to ``end``, at
        the nominal speed: scaled by the mean of the last sample before
        it, the samples inside it and the first sample after it."""
        first = bisect.bisect_right(self.times, start) - 1
        last = bisect.bisect_left(self.times, end)
        return seconds * self.nominal / statistics.fmean(self.samples[first:last + 1])
