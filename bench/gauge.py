"""Speed gauges: how fast this machine runs Python right now.

The reference machine is a few cores of a shared host.  Its speed drifts in
phases lasting from a few seconds to minutes, in which the same pure-Python
loop takes up to twice as long, in CPU time as much as in wall time.  A
timing taken in one phase cannot be compared with one taken in another, so
every timing is restated at a fixed reference speed.

Operations: ``Gauge`` runs in the process being timed.  A ``SIGALRM`` timer
interrupts the running code every ``INTERVAL_S`` seconds; the handler times
a short fixed probe (``probe_work``, dict-of-int polynomial products like
qzeta's own inner loops) and records the least of ``PROBE_REPEATS`` tries,
in wall and in CPU time.  A timing is restated by multiplying it by the mean
over the probes taken during it of ``REF_PROBE_S / probe time``, after the
time spent in the handler is taken out.

Set-up: ``import qzeta`` and building the inputs take about 10 ms, mostly
unmarshalling and running module bodies, which slow less in a slow phase than
the loop above does.  ``setup_speed`` times an import-like probe instead
(``import_probe_work``: unmarshal and run a fixed synthetic module) just
before the set-up starts.

Both probes are written here, not taken from qzeta, so no change to qzeta
can change them.  The reference times only set the scale: restated timings
read as seconds at the reference machine's speed in a fast phase.
"""

from __future__ import annotations

import marshal
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_REPEATS = 2
MIN_PROBES = 5  # a timing with fewer probes of its own borrows the latest ones before it
SETUP_PROBE_TRIES = 5

# Least probe times on the reference machine in a fast phase.
REF_PROBE_S = 0.00042
REF_IMPORT_PROBE_S = 0.0005


def probe_work() -> int:
    a = {i: (i * 7919) % 1000003 + 1 for i in range(64)}
    b = {i: (i * 104729) % 1000003 + 1 for i in range(64)}
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return len(out)


_MODULE = marshal.dumps(compile("\n".join(
    f"class C{i}:\n    k = {i}\n    def f(self, x, y=({i}, 'v{i}')):\n        return [x * k for k in y]\n"
    f"    @property\n    def p(self):\n        return self.k + {i}\n"
    f"def g{i}(a, *b, c={i}.5, **d):\n    return a, b, c, d\n"
    for i in range(60)
), "<import probe>", "exec"))


def import_probe_work() -> None:
    exec(marshal.loads(_MODULE), {"__name__": "import_probe"})


def setup_speed() -> float:
    """Speed for restating a set-up: ``REF_IMPORT_PROBE_S`` over the probe's least time."""
    least = float("inf")
    for _ in range(SETUP_PROBE_TRIES):
        start = time.perf_counter()
        import_probe_work()
        least = min(least, time.perf_counter() - start)
    return REF_IMPORT_PROBE_S / least


class Gauge:
    """Collects probe times while it runs; see the module docstring."""

    def __init__(self):
        self.wall: list[float] = []  # least probe time of each probe, wall clock
        self.cpu: list[float] = []  # the same in process CPU time
        self.spent_wall = 0.0  # time spent inside the gauge itself
        self.spent_cpu = 0.0
        self._previous = None

    def probe(self, *_) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        best_wall = best_cpu = float("inf")
        for _ in range(PROBE_REPEATS):
            w, c = time.perf_counter(), time.process_time()
            probe_work()
            best_wall = min(best_wall, time.perf_counter() - w)
            best_cpu = min(best_cpu, time.process_time() - c)
        self.wall.append(best_wall)
        self.cpu.append(best_cpu)
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0

    def start(self) -> "Gauge":
        for _ in range(MIN_PROBES):
            self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple:
        """A point in time to measure from: probes so far and gauge time so far."""
        return len(self.wall), self.spent_wall, self.spent_cpu

    def since(self, mark: tuple, wall_s: float, cpu_s: float) -> dict:
        """Restate a timing that began at ``mark`` and ends now at the reference speed.

        ``wall_s`` and ``cpu_s`` are the raw times since ``mark``, gauge
        included.  The speed is the mean over the probes since ``mark`` of
        ``REF_PROBE_S / probe time``.
        """
        first, spent_wall, spent_cpu = mark
        first = min(first, len(self.wall) - MIN_PROBES)
        wall_speed = statistics.fmean(REF_PROBE_S / p for p in self.wall[first:])
        cpu_speed = statistics.fmean(REF_PROBE_S / max(p, 1e-9) for p in self.cpu[first:])
        raw_wall = wall_s - (self.spent_wall - spent_wall)
        return {
            "wall_s": raw_wall * wall_speed,
            "cpu_s": (cpu_s - (self.spent_cpu - spent_cpu)) * cpu_speed,
            "raw_wall_s": raw_wall,
            "speed": wall_speed,
        }
