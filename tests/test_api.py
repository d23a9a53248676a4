"""Guard on the public signatures: each tolerance and limit has one owner.

No public callable takes a root tolerance ``xtol`` (the constant
``ROOT_XTOL``) or a lattice ``step`` (the constant ``GRID_STEP``): a knob
threaded through a domain or a spectrum builder could disagree with the cache
that stores its roots, and no setting of it changes a result.  Likewise no
public callable takes a merge or matching tolerance (the constant
``MERGE_REL``) or one of the single-value knobs that became constants.  Input checks live in one module:
no other module tests for bools by hand.  A record states its fields once, in ``_fields``; only the
base ``errors._Record`` compares and prints records.  "A fresh one" has one spelling, the default
``None``: every other default is a plain immutable value.  The representation class has one public
name, ``SO2Rep``, in the package root and in ``symbif.euler``.
"""

import importlib
import inspect
import re
from pathlib import Path

import symbif
from symbif import bifurcation, cli, errors, euler, morse, spectral, system


def public_parameters():
    """Qualified name -> ``inspect.Parameter`` by name, for every public callable of the package's namespaces."""
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
                    seen[qualname] = inspect.signature(fn).parameters
                except ValueError:  # builtins without a signature
                    pass
    return seen


def public_signatures():
    """(qualified name, parameter names) of every public callable of the package's namespaces."""
    return {name: set(params) for name, params in public_parameters().items()}


def test_nothing_takes_xtol_or_step():
    signatures = public_signatures()
    assert {"disk_spectrum", "DiskDomain", "RootCache", "RootCache.load", "domain_from_json"} <= set(signatures)
    assert sorted(n for n, params in signatures.items() if params & {"xtol", "step"}) == []


def test_nothing_takes_a_merge_tolerance_or_a_constant_knob():
    signatures = public_signatures()
    assert {"close", "DiskDomain.entries_up_to", "enumerate_zero_sum_subsets", "AnalysisConfig"} <= set(signatures)
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


def package_modules():
    """(file stem, module) for every module of the package, the root as ``__init__``."""
    package = Path(symbif.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.stem, symbif if path.stem == "__init__" else importlib.import_module(f"symbif.{path.stem}")


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks ``from module import *``
    exporting = []
    for stem, module in package_modules():
        if hasattr(module, "__all__"):
            exporting.append(stem)
            assert [n for n in module.__all__ if not hasattr(module, n)] == [], stem
    assert {"__init__", "bifurcation", "cli", "euler", "morse", "spectral", "system"} <= set(exporting)


def test_the_representation_class_has_one_public_name():
    # every eigenspace, kernel piece and degree argument is an SO2Rep; a second exported name for it
    # would be a second spelling for callers and docs to keep in step
    for stem, module in package_modules():
        names = [n for n in getattr(module, "__all__", ()) if getattr(module, n) is euler.SO2Rep]
        assert names == (["SO2Rep"] if stem in ("__init__", "euler") else []), stem


def package_classes():
    """Every class defined in one of the package's modules."""
    return [
        c
        for _, module in package_modules()
        for c in vars(module).values()
        if inspect.isclass(c) and c.__module__ == module.__name__
    ]


def test_records_state_their_fields_once():
    classes = package_classes()
    records = [c for c in classes if issubclass(c, errors._Record) and c is not errors._Record]
    assert len(records) == 16
    for cls in records:
        assert cls._fields and set(cls._fields) <= set(inspect.signature(cls).parameters), cls.__name__
    written = sorted(f"{c.__name__}.{name}" for c in classes for name in ("__eq__", "__repr__") if name in vars(c))
    assert written == ["_Record.__eq__", "_Record.__repr__"]


#: the defaults a signature may show: values made once that no call can change
PLAIN_DEFAULTS = (type(None), bool, int, float, str, tuple)


def test_defaults_are_none_or_plain_values():
    # a mutable default would be shared by every call, and a sentinel standing for "a fresh one"
    # would be a second spelling of None that a caller passing None silently misses
    parameters = public_parameters()
    parameters.update(
        (c.__name__, inspect.signature(c).parameters) for c in package_classes() if issubclass(c, errors._Record)
    )
    assert {"SystemSpec", "DiskDomain", "BallDomain", "RootCache", "EulerSO2", "domain_from_json"} <= set(parameters)
    odd = sorted(
        f"{name}({p.name}={p.default!r})"
        for name, params in parameters.items()
        for p in params.values()
        if p.default is not p.empty and not isinstance(p.default, PLAIN_DEFAULTS)
    )
    assert odd == []
