import pytest

from symbif import _kernels


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
