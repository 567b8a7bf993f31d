"""CPU-speed normalisation of measured call times.

On a shared host the speed of a virtual CPU changes by up to 1.7x for tens
of seconds at a time, and the two virtual CPUs change nearly independently.
Raw seconds of the same pass then spread by 15% between runs, more than any
bound worth setting.  So the benchmark pins itself to one CPU and samples
that CPU's speed while it measures: a fixed pure-Python probe (dict updates
with exponent-tuple keys and ``Fraction`` values, like the package's
polynomial arithmetic, but none of its code, so that a change to the
package cannot move the probe) runs before every call and every
``SAMPLE_EVERY_S`` of CPU time during it, from a ``SIGVTALRM`` handler.
Each stretch of a call between two probes is scaled by ``REF_PROBE_S`` over
the probe that ends it, which gives the seconds the call would take on a CPU
on which the probe takes ``REF_PROBE_S``.  The probes themselves are not
counted.  On a 2-vCPU x86-64 host this took the spread of the curves total
between runs from 15% to under 1%; about 3% remains on session, where the
probe slows a little more than the package's cached lookups do.

Interpreter start-up does not follow that probe: it is mostly system calls
and page faults.  It follows a bare interpreter start (``python3 -S -c
pass``) instead, so set-up time is measured as the ratio of an importing
start to a bare start made just before it, times ``REF_START_S``.  That
ratio spread by 4% where the raw start spread by 20%.
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

# The probe duration and the bare interpreter start that define a
# reference-speed second.
REF_PROBE_S = 150e-6
REF_START_S = 0.010
SAMPLE_EVERY_S = 0.02

_clock = time.perf_counter


def probe():
    """Seconds taken by the fixed probe on this CPU, now: sparse-polynomial
    style updates of a dict of exponent tuples with Fraction values."""
    start = _clock()
    terms = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(5)}
    out = dict(terms)
    for shift in range(1, 4):
        for (i, j), c in terms.items():
            key = (i + shift, j)
            old = out.get(key)
            out[key] = c if old is None else old - c
    return _clock() - start


def pin_to_one_cpu():
    """Keep this process and its children on the lowest allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Sampler:
    """Normalised seconds of a measured interval, from speed probes."""

    def __init__(self):
        self.samples = []  # (end time, probe seconds)
        signal.signal(signal.SIGVTALRM, self._on_timer)

    def _on_timer(self, signum, frame):
        d = probe()
        self.samples.append((_clock(), d))

    def start(self):
        # the best of three: a call too short for a timed sample is scaled
        # by this probe alone
        self.samples = [(_clock(), min(probe() for _ in range(3)))]
        self.t0 = _clock()
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        """Stop sampling; return (raw seconds, normalised seconds), both
        without the time spent in probes."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        end = _clock()
        raw = norm = 0.0
        prev = self.t0
        last = self.samples[0][1]
        for t, d in self.samples[1:]:
            stretch = t - d - prev
            raw += stretch
            norm += stretch * REF_PROBE_S / d
            prev, last = t, d
        raw += end - prev
        norm += (end - prev) * REF_PROBE_S / last
        return raw, norm
