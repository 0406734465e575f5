"""Host speed, sampled while the benchmark's own code runs.

The benchmark runs on a shared host whose speed, for the same process on
the same vCPU, swings by up to a factor of two within seconds and drifts
over minutes.  A plain wall time then measures the neighbours as much as
dadim.  So a pass samples the speed of its own vCPU with a fixed
pure-Python loop (``loop``), and each time is reported twice: as measured,
and at reference speed, i.e. scaled by ``ROUND_S`` over the loop's time
per round measured during that interval.

The loop runs

* every ``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler, while a
  timed interval runs (``PROBE_ROUNDS`` rounds, about 1.5 ms); its time
  is taken out of the interval's measured time;
* ``BRACKET_PROBES`` times just before and just after each interval, so
  that an interval too short for the timer still has a speed.

A program that does more work reads slower at reference speed by the same
share; a host that runs slower does not.  The loop uses the operations
dadim spends its time on (small frozenset unions and intersections, tuple
hashing, dict updates, integer arithmetic) and runs with collection off,
so the heap a job leaves behind does not slow it.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# the loop's time per round at reference speed, about the median on the
# 2.0 GHz Xeon vCPUs the benchmark was written on
ROUND_S = 3.5e-6
PROBE_ROUNDS = 400
INTERVAL_S = 0.05
BRACKET_PROBES = 4


def loop(rounds: int) -> float:
    """Seconds taken by ``rounds`` rounds of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    table = {}
    x = 1
    for i in range(rounds):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a = frozenset((x & 63, (x >> 6) & 63, (x >> 12) & 63, i & 63))
        b = frozenset(range(x & 31, (x & 31) + 6))
        key = (len(a | b), len(a & b), x & 255)
        table[key] = table.get(key, 0) + i % 7
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Sampler:
    """Times intervals of a pass and the host speed during each."""

    def __init__(self):
        self.seconds = 0.0  # loop seconds and rounds since the interval began
        self.rounds = 0
        self.busy = 0.0  # handler time inside the interval, taken out of it
        self.started = 0.0

    def _on_alarm(self, _signum, _frame):
        t = perf_counter()
        self._probe(PROBE_ROUNDS)
        self.busy += perf_counter() - t

    def _probe(self, rounds):
        self.seconds += loop(rounds)
        self.rounds += rounds

    def _bracket(self):
        for _ in range(BRACKET_PROBES):
            self._probe(PROBE_ROUNDS)

    def start_timer(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def begin(self, started=None, bracket=True):
        """Start an interval, at ``started`` (a perf_counter reading) or now."""
        self.seconds, self.rounds, self.busy = 0.0, 0, 0.0
        if bracket:
            self._bracket()
            self.busy = 0.0
        self.started = perf_counter() if started is None else started

    def end(self):
        """End the interval; return (seconds as measured, seconds at reference speed)."""
        measured = perf_counter() - self.started - self.busy
        self._bracket()
        return measured, measured * ROUND_S * self.rounds / self.seconds
