import pytest

from symbif import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # compile the JIT kernels once so timed tests measure computation, not compilation
    _kernels.warmup()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count calls of the radial kernel, on the lattice and in bisection alike."""
    real = _kernels._radial_condition
    calls = [0]

    def counted(l, dim, x):
        calls[0] += 1
        return real(l, dim, x)

    monkeypatch.setattr(_kernels, "_radial_condition", counted)
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
