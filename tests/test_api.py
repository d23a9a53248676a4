"""Guard on the public signatures: each tolerance and limit has one owner.

No public callable takes a root tolerance ``xtol`` (the constant
``ROOT_XTOL``) or a lattice ``step`` (the constant ``GRID_STEP``): a knob
threaded through a domain or a spectrum builder could disagree with the cache
that stores its roots, and no setting of it changes a result.  Likewise no
public callable takes a merge or matching tolerance (the constant
``MERGE_REL``) or one of the single-value knobs that became constants.  Input checks live in one module:
no other module tests for bools by hand.
"""

import inspect
import re
from pathlib import Path

import symbif
from symbif import bifurcation, cli, euler, morse, spectral, system


def public_signatures():
    """(qualified name, parameter names) of every public callable of the package's namespaces."""
    seen = {}
    for module in (symbif, spectral, system, bifurcation, euler, morse, cli):
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


def test_nothing_takes_xtol_or_step():
    signatures = public_signatures()
    assert {"disk_spectrum", "DiskDomain", "RootCache", "RootCache.load", "domain_from_json"} <= set(signatures)
    assert sorted(n for n, params in signatures.items() if params & {"xtol", "step"}) == []


def test_nothing_takes_a_merge_tolerance_or_a_constant_knob():
    signatures = public_signatures()
    assert {"close", "SpectrumIndex.matches", "enumerate_zero_sum_subsets", "AnalysisConfig"} <= set(signatures)
    knobs = {
        "merge_rel", "match_rel", "rel", "merge_tol", "max_members", "full_label", "cyclic_prefix", "default_irr_dim"
    }
    assert sorted(n for n, params in signatures.items() if params & knobs) == []
    assert {"merge_tol", "root_tol"}.isdisjoint(inspect.signature(cli.AnalysisConfig).parameters)


def test_only_the_checker_module_tests_for_bool():
    package = Path(symbif.__file__).parent
    hand_written = re.compile(r"isinstance\([^)]*\bbool\b")
    found = sorted(f.name for f in package.glob("*.py") if hand_written.search(f.read_text(encoding="utf-8")))
    assert found == ["errors.py"]
