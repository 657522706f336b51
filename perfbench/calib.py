"""Machine-speed reference for the benchmark's timings.

The benchmark was written on a 2-core VM whose speed for the same
CPU-bound work drifts by up to 1.75x for seconds to minutes (other tenants
share the host; CPU time equals wall time, so nothing shows as steal).  A
raw pass time then says as much about the host as about the program.  So
the items of a pass (and the set-up children) are interleaved with short
runs of a fixed reference kernel, and the time is reported rescaled to a
host on which that kernel takes ``REF_NOMINAL_S``:

    t_reported = t_measured * REF_NOMINAL_S / (median kernel run next to it)

The kernel uses no dkradial code, so a change to the package moves the
reported time by the same factor as the raw time.  It is mostly allocation
of small tuples, dicts and lists, with some ``fractions.Fraction``
arithmetic and pure-Python scalar calls: of the kernels tried against
verify passes and CLI commands, allocation-heavy ones followed both best.
Raw times and the reference times are kept in the run record under
``perfbench/_out/``.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the time of one kernel run on the 2-core x86-64 VM (Xeon, 4th gen,
# KVM) the benchmark was written on, in its faster state.  A fixed constant: it
# only sets the scale of the reported times.
REF_NOMINAL_S = 0.0035

_COEFS = [1.0 / (k + 1) for k in range(12)]


def _horner(coefs, x):
    acc = 0.0
    for c in reversed(coefs):
        acc = acc * x + c
    return acc


def _scalar():
    out = []
    for i in range(480):
        x = i / 640.0
        out.append(min(_horner(_COEFS, x), round(x, 3) + 1.0))
    return sum(out)


def _fractions():
    h = 0
    for _ in range(4):
        s = Fraction(0)
        for k in range(1, 40):
            s += Fraction(k, k + 3) * Fraction(1, 2 * k + 1)
        h ^= hash(s)
    return h


def _objects():
    out = []
    for i in range(1500):
        t = (i, i * 0.5, (i % 7, i % 11))
        out.append({"a": t, "b": [t[1]] * 3})
    return len(out)


def kernel() -> None:
    """One run of the reference kernel (about ``REF_NOMINAL_S``)."""
    _scalar()
    _fractions()
    _objects()
    _objects()


class Reference:
    """Reference-kernel samples taken next to the measured work.

    A sample is one untimed warm-up run of the kernel (the measured work has
    just evicted its data from the caches) and then ``runs`` timed runs.
    The host's speed is taken as the median timed run over many samples:
    the drift it stands for lasts seconds to minutes, while a single run
    can catch a burst of a few milliseconds.
    """

    def __init__(self, runs: int):
        self.runs = runs                # timed kernel runs per sample
        self.times: list[float] = []    # every timed run, in seconds
        self.spent = 0.0                # seconds in samples, warm-up included

    def sample(self) -> float:
        """Take one sample; returns the seconds it took, warm-up included."""
        t0 = time.perf_counter()
        kernel()
        for _ in range(self.runs):
            t1 = time.perf_counter()
            kernel()
            self.times.append(time.perf_counter() - t1)
        dt = time.perf_counter() - t0
        self.spent += dt
        return dt

    def mark(self) -> tuple[int, float]:
        return len(self.times), self.spent

    def per_run_since(self, mark: tuple[int, float]) -> float:
        """Median timed kernel run since ``mark``."""
        return statistics.median(self.times[mark[0]:])

    def spent_since(self, mark: tuple[int, float]) -> float:
        return self.spent - mark[1]


def scale(measured_s: float, ref_per_run_s: float) -> float:
    """``measured_s`` rescaled to a host where the kernel takes REF_NOMINAL_S."""
    return measured_s * REF_NOMINAL_S / ref_per_run_s
