"""Shared fixtures: a session-wide cache of built model spaces.

Builds are pure functions of (parameters, config), so tests share them
freely; the cache keeps the suite fast even though many tests look at
the same sweeps.
"""

import contextlib
import signal
from fractions import Fraction

import pytest

from fractree import BuildConfig, Parameters, build, completeness_threshold


@pytest.fixture(scope="session")
def spaces():
    cache = {}

    def get(N, d, rho, maxh=None, iters=64, cap=None):
        rho = Fraction(rho)
        params = Parameters.white_noise(N, d, rho)
        if maxh is None:
            maxh = completeness_threshold(params)
        else:
            maxh = Fraction(maxh)
        key = (N, d, rho, maxh, iters, cap)
        if key not in cache:
            kwargs = {"maxh": maxh, "iter": iters}
            if cap is not None:
                kwargs["cap"] = cap
            cache[key] = build(params, BuildConfig(**kwargs))
        return cache[key]

    return get


@contextlib.contextmanager
def alarm(seconds: float):
    """Fail the block with TimeoutError if it runs longer than ``seconds``."""

    def too_slow(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


SWEEP_22 = [Fraction(1), Fraction(9, 10), Fraction(17, 20), Fraction(4, 5), Fraction(3, 4)]
SWEEP_33 = [Fraction(21, 11), Fraction(19, 10), Fraction(9, 5), Fraction(17, 10)]
