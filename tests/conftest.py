import signal
from contextlib import contextmanager

import pytest

from oracles import a9_blocks
from symbif import SystemSpec, _kernels
from symbif.spectral import domain_from_json


def a9_spec(q1: int, p2: int, mu: int = 0, domain=None) -> SystemSpec:
    """The normalized a9 system of :func:`oracles.a9_blocks` on ``domain``, the disk by default."""
    b1, b2 = a9_blocks(q1, p2, mu)
    return SystemSpec(p1=q1 + mu, p2=p2, sigma_b1=b1, sigma_b2=b2, mu_b0=mu, domain=domain, a9=True)


def supplied_ball(entries, dim: int = 3, cache=None):
    """The domain a ball document stating ``entries`` builds: the computed ball, once they pass its check."""
    return domain_from_json({"type": "ball", "dim": dim, "entries": [e.to_json() for e in entries]}, cache=cache)


@contextmanager
def _deadline(seconds: int, message: str):
    """Fail with ``message`` if the block runs past ``seconds``; the alarm and its handler are restored after."""

    def overdue(signum, frame):
        raise AssertionError(message)

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def deadline():
    """``with deadline(seconds, message):`` turns a hang into a test failure (SIGALRM, main thread).

    Session scope, as the guard keeps no state between uses, lets Hypothesis
    tests take it without a function-scoped-fixture health check.
    """
    return _deadline


class KernelCalls:
    """Calls of the radial kernel, split into lattice points and refinement steps.

    ``refinement`` counts the calls made inside ``_bisect_radial`` and
    ``brackets`` the brackets it refined; every other call is a ``lattice``
    point of the scan.
    """

    def __init__(self):
        self.refining = False
        self.reset()

    def reset(self):
        self.lattice = self.refinement = self.brackets = 0

    @property
    def total(self):
        return self.lattice + self.refinement


@pytest.fixture
def kernel_calls(monkeypatch):
    """A live :class:`KernelCalls` count of the radial kernel from then on."""
    real_condition, real_refine = _kernels._radial_condition, _kernels._bisect_radial
    calls = KernelCalls()

    def condition(l, dim, x):
        if calls.refining:
            calls.refinement += 1
        else:
            calls.lattice += 1
        return real_condition(l, dim, x)

    def refine(*args):
        calls.brackets += 1
        calls.refining = True
        try:
            return real_refine(*args)
        finally:
            calls.refining = False

    monkeypatch.setattr(_kernels, "_radial_condition", condition)
    monkeypatch.setattr(_kernels, "_bisect_radial", refine)
    return calls


@pytest.fixture
def call_counts(monkeypatch):
    """``call_counts(owner, name)`` counts calls of ``owner.name`` from then on.

    Returns a one-element list holding the live count; the attribute is
    restored when the test ends.
    """

    def count(owner, name):
        real = getattr(owner, name)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count
