"""Guard on the public signatures: each tolerance and limit has one owner.

No public callable takes a root tolerance ``xtol`` (the constant
``ROOT_XTOL``) or a lattice ``step`` (the constant ``GRID_STEP``): a knob
threaded through a domain or a spectrum builder could disagree with the cache
that stores its roots, and no setting of it changes a result.  Likewise no
public callable takes a merge or matching tolerance (the constant
``MERGE_REL``) or one of the single-value knobs that became constants.  Input checks live in one module:
no other module tests for bools or checks a JSON object by hand.  A record states its fields once, in
``_fields``; only the base ``errors._Record`` compares and prints records.  "A fresh one" has one
spelling, the default ``None``: every other default is a plain immutable value.  The representation class has one public
name, ``SO2Rep``, in the package root and in ``symbif.euler``.  No source line of the package is longer
than 120 characters.  A public function of ``system``, ``bifurcation``, ``euler``, ``morse``, ``spectral`` or ``cli``
given a plain ``object()`` for any required argument, or for an item of a sequence argument, refuses it with the
package's own error, never AttributeError or TypeError, and so does ``cli.AnalysisConfig`` for any argument.  Whether
an eigenspace is nontrivial is read off its stated representation alone: no module but ``ball_rep_nontrivial``'s
own lines names ``rep_nontrivial``.  Every public name has a reader outside its own definition and the export
table: in the package, in README.md or in the benchmark.
"""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

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


def test_only_the_checker_module_checks_an_object():
    # every JSON object is read through errors._object: no other module words its refusal or does its key arithmetic
    package = Path(symbif.__file__).parent
    hand_written = re.compile(r"must be an object|unknown keys|set\((doc|item)\)")
    found = sorted(f.name for f in package.glob("*.py") if hand_written.search(f.read_text(encoding="utf-8")))
    assert found == ["errors.py"]


def test_only_the_root_cache_touches_its_file():
    # RootCache.load and RootCache.save own the whole cache-path rule: no other module checks a path or writes a file
    package = Path(symbif.__file__).parent
    path_call = re.compile(r"mkstemp|os\.replace|\.is_dir\(\)|\.exists\(\)")
    found = sorted(f.name for f in package.glob("*.py") if path_call.search(f.read_text(encoding="utf-8")))
    assert found == ["spectral.py"]


def test_only_the_stated_rep_decides_a_nontrivial_eigenspace():
    # verdicts read entry.rep.has_nontrivial(); no domain decides it a second way, so the one name
    # left is the public radial test, ball_rep_nontrivial, which the benchmark's tracer wraps
    package = Path(symbif.__file__).parent
    second_way = re.compile(r"(?<!ball_)rep_nontrivial")
    found = [
        f"{path.name}:{n}"
        for path in sorted(package.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if second_way.search(line)
    ]
    assert found == []


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


#: the package modules whose names the benchmark's tracer and runner read
BENCHMARK_MODULES = ("_kernels", "spectral", "system", "euler", "bifurcation", "cli")


def _names_the_benchmark_reads(path: Path) -> set[str]:
    """``module.name...`` for each attribute chain on a benchmark module, and for each name of a ``for fname`` tuple.

    A tuple's module is the one its loop body reads it from with ``getattr(module, fname)``.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            chain.insert(0, getattr(node, "id", None))
            starts = [i for i, name in enumerate(chain) if name in BENCHMARK_MODULES]
            if starts:
                found.add(".".join(chain[starts[0]:]))
        elif isinstance(node, ast.For) and getattr(node.target, "id", None) == "fname":
            modules = {
                call.args[0].id
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                and getattr(call.args[0], "id", None) in BENCHMARK_MODULES
            }
            assert len(modules) == 1, f"{path.name}:{node.lineno}: no one module to read the names from"
            found.update(f"{module}.{name.value}" for module in modules for name in node.iter.elts)
    return found


def test_names_the_benchmark_reads_exist():
    # the benchmark patches these names by attribute; a deleted one would surface only as an AttributeError
    # inside its tracer, so it is named here instead
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    read = _names_the_benchmark_reads(perfbench / "tracing.py") | _names_the_benchmark_reads(perfbench / "run.py")
    assert {
        "system.lambda_membership", "spectral.ball_rep_nontrivial", "spectral.RepDescriptor", "spectral._SuppliedDomain"
    } <= read
    assert "_kernels.NUMBA_ENABLED" in read

    def resolves(dotted: str) -> bool:
        module, *attrs = dotted.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"symbif.{module}"))
        except AttributeError:
            return False
        return True

    assert sorted(name for name in read if not resolves(name)) == []


def test_every_public_name_has_a_reader():
    # a public name with no reader outside its own definition and the export table is code nothing needs
    root = Path(__file__).resolve().parent.parent
    package = Path(symbif.__file__).parent
    exports = next(
        node for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)
    )
    source = []
    for path in sorted(package.glob("*.py")):
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if not (path.name == "__init__.py" and exports.lineno <= n <= exports.end_lineno):
                source.append(line)
    texts = [(root / "README.md").read_text(encoding="utf-8")]
    texts += [path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").glob("*.py"))]

    def has_reader(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*(:[^=]*)?=")
        return any(word.search(line) and not definition.match(line) for line in source) or any(
            word.search(text) for text in texts
        )

    assert [name for name in symbif.__all__ if not has_reader(name)] == []


def test_the_representation_class_has_one_public_name():
    # every eigenspace, kernel piece and degree argument is an SO2Rep; a second exported name for it
    # would be a second spelling for callers and docs to keep in step
    for stem, module in package_modules():
        names = [n for n in getattr(module, "__all__", ()) if getattr(module, n) is euler.SO2Rep]
        assert names == (["SO2Rep"] if stem in ("__init__", "euler") else []), stem


def package_classes():
    """Every class defined in one of the package's modules, once, though a second name binds it."""
    return list(
        dict.fromkeys(
            c
            for _, module in package_modules()
            for c in vars(module).values()
            if inspect.isclass(c) and c.__module__ == module.__name__
        )
    )


def test_records_state_their_fields_once():
    classes = package_classes()
    records = [c for c in classes if issubclass(c, errors._Record) and c is not errors._Record]
    assert len(records) == 14
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
    assert {"SystemSpec", "DiskDomain", "CustomDomain", "RootCache", "EulerSO2", "domain_from_json"} <= set(parameters)
    odd = sorted(
        f"{name}({p.name}={p.default!r})"
        for name, params in parameters.items()
        for p in params.values()
        if p.default is not p.empty and not isinstance(p.default, PLAIN_DEFAULTS)
    )
    assert odd == []


#: the longest source line the package allows
MAX_LINE = 120


def test_no_source_line_is_longer_than_the_limit():
    package = Path(symbif.__file__).parent
    long_lines = [
        f"{path.name}:{n}"
        for path in sorted(package.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def _valid_arguments() -> dict:
    """A working value for each required argument name of the public functions of the swept modules."""
    spec = system.SystemSpec(p1=2, p2=2, sigma_b1={1: 2}, sigma_b2={1: 2}, a9=True)
    lam = system.lambda_set(spec, (0.5, 5.0))[0]
    rep = euler.SO2Rep(1, {2: 1})
    return {
        "spec": spec, "lambda0": lam, "lam": lam, "window": (-5.0, 5.0), "sign": 1, "k_max": 3, "members": [lam],
        "entry": spec.domain.entries_up_to(lam)[-1], "doc": spec.to_json(),
        "rep": rep, "v": rep, "w": rep,
        "data": [morse.OrbitDatum("Z2", 1), morse.OrbitDatum("SO2", 0)], "deg": {"SO2": 1, "Z2": -1},
        "table": {"SO2": "SO2", "Z2": "Z2"},
        "order": 1, "x": 2.0, "angular_index": 1, "dim": 3, "x_max": 5.0, "max_eigenvalue": 10.0,
        "text": '{"schema_version": 1}',
    }


#: arguments whose working value depends on the function as well as the name
VALID_FOR = {
    ("rabinowitz_excludes_bounded", "indices"): [euler.EulerSO2.one(), euler.EulerSO2.chi(2)],
    ("enumerate_zero_sum_subsets", "indices"): [(1.0, euler.EulerSO2.one()), (2.0, euler.EulerSO2.chi(2))],
    ("orbit_data_from_json", "doc"): [{"class": "Z2", "morse_index": 1}],
    ("class_table_from_json", "doc"): {"Z2": "Z2"},
    ("domain_from_json", "doc"): {"type": "disk"},
}

#: the error each public function of ``spectral`` gives ``object()``, by argument where two differ: the Bessel
#: and radial calls refuse an argument outside their domain with DomainError, the readers with SchemaError
SPECTRAL_ERRORS = {
    "ball_rep_nontrivial": {"entry": errors.ValidationError, "dim": errors.DomainError},
    "bessel_j": errors.DomainError,
    "bessel_j_prime": errors.DomainError,
    "disk_spectrum": errors.ValidationError,
    "domain_from_json": errors.SchemaError,
    "radial_condition": errors.DomainError,
    "radial_roots_up_to": errors.DomainError,
}


def _expected(module, name: str, arg: str) -> type:
    """The package error ``module.name`` must raise for ``object()`` in ``arg``."""
    if module is spectral:
        wanted = SPECTRAL_ERRORS[name]  # a new spectral function states its error here
        return wanted[arg] if isinstance(wanted, dict) else wanted
    return errors.SchemaError if name.endswith("_from_json") else errors.ValidationError


def _replaced(seq, i: int, new):
    """A copy of the list or tuple ``seq`` with ``new`` at position ``i``."""
    return type(seq)(new if j == i else v for j, v in enumerate(seq))


def _with_an_object(value):
    """(where, value) with ``object()`` in place of ``value``, of each item of a sequence, and of each part of a pair."""
    yield "", object()
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield f"[{i}]", _replaced(value, i, object())
            if isinstance(item, tuple):
                for k in range(len(item)):
                    yield f"[{i}][{k}]", _replaced(value, i, _replaced(item, k, object()))


@pytest.mark.parametrize(
    "module, least", [(system, 10), (bifurcation, 10), (euler, 3), (morse, 9), (spectral, 14), (cli, 1)],
    ids=["system", "bifurcation", "euler", "morse", "spectral", "cli"],
)
def test_an_object_for_any_required_argument_is_refused(module, least):
    # each argument is checked once where a call first reads it, and so is each item of a
    # sequence; a document reader refuses with SchemaError
    valid = _valid_arguments()
    leaks, tried = [], 0
    for name in module.__all__:
        fn = getattr(module, name)
        if not inspect.isfunction(fn):
            continue
        required = [p.name for p in inspect.signature(fn).parameters.values() if p.default is p.empty]
        if not required:  # nothing to sweep; cli.main would read the process's own argv
            continue
        given = {r: VALID_FOR.get((name, r), valid.get(r)) for r in required}
        fn(**given)  # the call works as given
        for arg in required:
            for where, wrong in _with_an_object(given[arg]):
                tried += 1
                try:
                    fn(**{**given, arg: wrong})
                except _expected(module, name, arg):
                    continue
                except Exception as exc:  # noqa: BLE001 - what leaks is the finding
                    leaks.append(f"{name}({arg}{where}=object()): {type(exc).__name__}")
                else:
                    leaks.append(f"{name}({arg}{where}=object()) returned")
    assert tried >= least and leaks == []


def _zero_entry():
    return spectral.SpectrumEntry(0.0, euler.SO2Rep.trivial(1))


#: a working call of each input class, by keyword; every argument is swept, the defaulted ones too
CONSTRUCTORS = {
    system.SystemSpec: lambda: dict(
        p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={2.0: 1}, mu_b0=0, domain=spectral.DiskDomain(), a9=False
    ),
    spectral.CustomDomain: lambda: dict(entries=[_zero_entry()], irr_dim_table={1: 2}),
    spectral.DiskDomain: lambda: dict(bound=50.0, cache=None, dim=3),
    spectral.RootCache: lambda: dict(records={(2, 1): [1.5]}),
    spectral.SpectrumEntry: lambda: dict(eigenvalue=2.0, rep=euler.SO2Rep.irr(1), angular_index=1, root_index=1),
    euler.SO2Rep: lambda: dict(trivial_dim=1, irreducibles={1: 1}),
    euler.EulerSO2: lambda: dict(unit=1, cyclic={1: 1}),
    morse.OrbitDatum: lambda: dict(isotropy_class="Z2", morse_index=1),
}


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=[cls.__name__ for cls in CONSTRUCTORS])
def test_an_object_for_any_constructor_argument_is_refused(cls):
    given = CONSTRUCTORS[cls]()
    assert list(given) == list(inspect.signature(cls).parameters)
    cls(**given)  # the call works as given
    for arg in given:
        with pytest.raises(errors.Error):
            cls(**{**given, arg: object()})


def test_an_object_for_any_config_argument_is_refused():
    # AnalysisConfig checks each argument where it is built, and build_spec the system document:
    # object() there, in an item of the window, or a window of another length than two is refused
    given = {"system": _valid_arguments()["doc"], "window": (-5.0, 5.0), "output_format": "table", "spectrum_bound": 9.0}

    def build(**arguments):
        return cli.AnalysisConfig(**arguments).build_spec(spectral.RootCache())

    build(**given)  # the call works as given
    cases = [(arg, where, wrong) for arg in given for where, wrong in _with_an_object(given[arg])]
    cases += [("window", f" of {len(w)}", w) for w in ((), (1.0,), (1, 2, 3))]
    leaks = []
    for arg, where, wrong in cases:
        try:
            build(**{**given, arg: wrong})
        except errors.Error:
            continue
        except Exception as exc:  # noqa: BLE001 - what leaks is the finding
            leaks.append(f"AnalysisConfig({arg}{where}): {type(exc).__name__}")
        else:
            leaks.append(f"AnalysisConfig({arg}{where}) returned")
    assert len(cases) == 9 and leaks == []


@pytest.mark.parametrize("window", [object(), (1.0,), (1, 2, 3)], ids=["object", "one", "three"])
def test_a_config_window_that_is_no_pair_gets_the_analysis_message(window):
    with pytest.raises(errors.ValidationError, match=r"^window must be a pair \(lo, hi\), got "):
        cli.AnalysisConfig(window=window)
    with pytest.raises(errors.ValidationError, match=r"^window must be a pair \(lo, hi\), got "):
        system._spectral_pairs(system.SystemSpec(p1=1, p2=0, sigma_b1={1: 1}), window)


@pytest.mark.parametrize("argv", [object(), [object()], ["analyze", 5], "analyze"], ids=["object", "item", "int", "str"])
def test_an_argv_that_is_no_list_of_words_is_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("symbif: ValidationError: argv must be a list of strings, got ")


def test_a_report_that_is_no_text_is_a_validation_error():
    with pytest.raises(errors.ValidationError, match="^report must be JSON text, got object$"):
        cli.parse_report(object())
