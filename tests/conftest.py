"""Helpers shared by the test modules."""

import contextlib
import signal

import pytest

from logres.groebner import ideal_contains


@contextlib.contextmanager
def deadline(seconds):
    """Fail the running test when its block runs longer than `seconds`.

    The limit is a SIGALRM timer, so it needs no timeout plugin and works
    only in the main thread; a hang fails its test in bounded time instead
    of stalling the suite.  Deadlines do not nest."""
    def expire(*_):
        pytest.fail(f"ran past the {seconds} s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ideal_equal(gens1, gens2, order):
    """Whether gens1 and gens2 generate the same ideal under order: each
    generator of one lies in the other."""
    return (all(ideal_contains(g, gens1, order) for g in gens2)
            and all(ideal_contains(g, gens2, order) for g in gens1))
