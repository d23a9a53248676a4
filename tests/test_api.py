"""Guard on the public signatures: the root cache alone owns the root tolerance.

Only ``RootCache`` and ``RootCache.load`` take ``xtol``, and no public callable
takes a lattice ``step`` (the step is the constant ``GRID_STEP``).  A knob
threaded back through a domain or a spectrum builder could again disagree
with the cache that stores its roots.
"""

import inspect

import symbif
from symbif import spectral, system


def public_signatures():
    """(qualified name, parameter names) of every public callable of the three namespaces."""
    seen = {}
    for module in (symbif, spectral, system):
        for name in dir(module):
            obj = getattr(module, name)
            if name.startswith("_") or not callable(obj) or not getattr(obj, "__module__", "").startswith("symbif"):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if not attr.startswith("_") and callable(getattr(obj, attr))
                ]
            for qualname, fn in members:
                try:
                    seen[qualname] = set(inspect.signature(fn).parameters)
                except ValueError:  # builtins without a signature
                    pass
    return seen


def test_only_the_root_cache_takes_xtol_and_nothing_takes_step():
    signatures = public_signatures()
    assert {"disk_spectrum", "DiskDomain", "RootCache.load", "domain_from_json"} <= set(signatures)
    assert sorted(n for n, params in signatures.items() if "xtol" in params) == ["RootCache", "RootCache.load"]
    assert sorted(n for n, params in signatures.items() if "step" in params) == []
