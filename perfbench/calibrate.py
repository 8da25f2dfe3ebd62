"""Host-speed reference: a fixed pure-Python loop, timed in its own process.

The machines this benchmark runs on share their cores with other work, and
the speed of interpreted code changes with that load.  On the 2-core VM the
benchmark was written on, the host switches every few seconds between two
states, one about 1.9x slower than the other, for the reference loop and the
program alike; that is far more than the changes the benchmark has to
resolve.  A run therefore samples :func:`reference_work` between its tasks,
never inside a timed task (inline, the first gap between tasks at least
:data:`INTERVAL_S` after the last sample), and reports each task's time at a
fixed reference speed: the time is multiplied by ``NOMINAL_S / R``, where
``R`` is the mean loop time of the two samples around the task.  The full
report keeps the raw median as well.

The loop runs in a separate process that imports nothing of the program, so
no change to the program can alter its cost, and it is timed with process
CPU time, so work in other processes does not count against it.

    python perfbench/calibrate.py        # prints the loop's mean time
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

#: Time of one :func:`reference_work` call at the reference speed, in
#: seconds: its time in the faster of the two states on the 2-core VM the
#: benchmark was written on.
NOMINAL_S = 0.0025

#: Most time between two samples while tasks run, in seconds.
INTERVAL_S = 0.05


def reference_work() -> int:
    """Interpreter work shaped like the program's hot loops, on private data.

    An offset sequence drawn into a tuple and copied (sequence generation),
    then a walk over a flat rotation table driven by those offsets (the
    scalar walk).  Nothing here calls the program.
    """
    draws = random.Random(7)
    offsets = tuple(draws.randrange(3) for _ in range(6_000))
    offsets = tuple(offsets[i] for i in range(len(offsets)))
    vertices = 512
    next_vertex = [(7 * edge + 11) % vertices for edge in range(3 * vertices)]
    next_port = [(edge * 5) % 3 for edge in range(3 * vertices)]
    vertex = entry = 0
    for offset in offsets:
        edge = 3 * vertex + (entry + offset) % 3
        vertex = next_vertex[edge]
        entry = next_port[edge]
    return vertex


def time_reference() -> float:
    """Process CPU seconds of one :func:`reference_work` call."""
    started = time.process_time()
    reference_work()
    return time.process_time() - started


class Calibrator:
    """A reference-loop process, sampled between the run's tasks.

    ``samples[i]`` is the loop time of the ``i``-th sample.  Work done
    between samples ``i`` and ``i + 1`` is scaled by :meth:`scale` ``(i)``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall-clock ``(start, end)`` of each sample.
        self.spans: List[Tuple[float, float]] = []
        self._process = subprocess.Popen(
            [sys.executable, __file__, "--serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def sample(self) -> int:
        """Time one reference loop now; return the new sample's index."""
        started = time.perf_counter()
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("reference process stopped")
        self.samples.append(float(line))
        self.spans.append((started, time.perf_counter()))
        return len(self.samples) - 1

    def scale(self, opened: int) -> float:
        """Speed scale for work done between sample ``opened`` and the next one.

        ``NOMINAL_S`` over the mean of the two samples around the work:
        below 1 when the host ran slower than the reference speed.
        """
        return NOMINAL_S / ((self.samples[opened] + self.samples[opened + 1]) / 2)

    def elapsed(self, first: int, last: int) -> Tuple[float, float]:
        """Raw and scaled wall seconds between samples ``first`` and ``last``.

        Only the gaps between samples count, each scaled by the samples
        around it; the samples' own time does not.
        """
        raw = scaled = 0.0
        for index in range(first, last):
            gap = self.spans[index + 1][0] - self.spans[index][1]
            raw += gap
            scaled += gap * self.scale(index)
        return raw, scaled

    def close(self) -> None:
        if self._process.poll() is None:
            self._process.stdin.close()
            self._process.wait(timeout=10)
        self._process.stdout.close()


def serve() -> None:
    for _line in sys.stdin:
        print(repr(time_reference()), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        serve()
    else:
        print(f"reference loop: {statistics.fmean(time_reference() for _ in range(30)) * 1e3:.3f} ms (mean of 30)")
