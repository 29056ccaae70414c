"""A fixed reference computation that measures the machine's current speed.

The shared VM the benchmark runs on switches between two speeds, for seconds
to minutes at a time; the slow one runs the program 1.5-1.6x slower.  A whole
run can sit in either, so one run of the same code reads 20-40 % off the
next: far more than the bounds in `BENCHMARK.json`.  CPU time equals wall
time and steal time is near 0, so the change is in the hardware, and no
statistic over one run's timings removes it.  A timed run therefore times
this probe before every request and once after the last.  Each request time
is scaled by REFERENCE_S / (mean of the probes before and after it), that
is, reported at the speed the probe had when REFERENCE_S was measured.

The probe is plain Python of the kind the program runs: a 6x6 matrix product
over Q(sqrt 3), on 40-61-bit integers with gcd normalisation.  It imports
nothing from `willmore`, so a change to the program cannot change it, and a
faster program still reads faster.  Of the probes tried, this one followed
the program's requests most closely; one on small integers slows more in the
slow phase (1.7x) than the program does, most of all the dense symbolic
sweeps on big coefficients (1.2-1.4x).

`import willmore` is mostly unmarshalling bytecode and running module bodies.
The set-ups scale it by a second probe that does that work on a synthetic
module.
"""

from __future__ import annotations

import marshal
import math
import time

# Probe times in the fast phase of the shared 2-core VM the benchmark was
# tuned on: probe() reads 1.1-1.2 ms there and 1.5-1.7 ms in the slow one,
# probe_import() 1.7-1.9 ms and 2.5-2.9 ms.  Constants: they only set the
# scale of the reported times.
REFERENCE_S = 0.00115
REFERENCE_IMPORT_S = 0.0018
_SIZE = 6


class _Quad:
    """(x + y*sqrt 3) / d in lowest terms."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int) -> None:
        g = math.gcd(math.gcd(x, y), d)
        self.x, self.y, self.d = x // g, y // g, d // g

    def __mul__(self, o: _Quad) -> _Quad:
        return _Quad(self.x * o.x + 3 * self.y * o.y, self.x * o.y + self.y * o.x, self.d * o.d)

    def __add__(self, o: _Quad) -> _Quad:
        return _Quad(self.x * o.d + o.x * self.d, self.y * o.d + o.y * self.d, self.d * o.d)


_MATRIX = [[_Quad((7 * i + 3 * j + 1) ** 29 % (1 << 61) - (1 << 60),
                  (i * j + 5) ** 23 % (1 << 59),
                  1 + (i + 2 * j + 3) ** 17 % (1 << 40))
            for j in range(_SIZE)] for i in range(_SIZE)]


def _work() -> None:
    for i in range(_SIZE):
        for j in range(_SIZE):
            acc = _Quad(0, 0, 1)
            for k in range(_SIZE):
                acc = acc + _MATRIX[i][k] * _MATRIX[k][j]


def probe() -> float:
    """Seconds for the reference work: the least of three rounds, so that an
    interrupt inside one round does not count."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


_SOURCE = "\n".join(
    [f"class C{i}:\n    x = {i}\n"
     + "".join(f"    def m{j}(self, a, b={j}):\n        return a * b + {i}\n" for j in range(8))
     for i in range(12)]
    + [f"def f{i}(a, b, *c, **d):\n    return [a, b, c, d, {i}, 'text{i}']\n" for i in range(40)])
_MODULE = marshal.dumps(compile(_SOURCE, "<reference>", "exec"))


def probe_import() -> float:
    """Seconds to unmarshal and run a synthetic module of 12 classes and 40
    functions ten times: the work of an import from cached bytecode."""
    start = time.perf_counter()
    for _ in range(10):
        exec(marshal.loads(_MODULE), {"__name__": "reference_module"})
    return time.perf_counter() - start


def scales(probes: list[float]) -> list[float]:
    """Given the probes before each request and one after the last, the factor
    per request that brings its time to reference speed."""
    return [2 * REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])]


def median(values: list[float]) -> float:
    """As statistics.median; that module is not imported here, because the
    set-up child loads this file before it times `import willmore`."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
