"""Contract of the package's record classes: how each one prints, is built, compares and hashes.

One representative instance per class pins its ``repr``, its constructor
signature, that equality reads exactly the stated fields (caches, memos and
provenance such as ``KernelReps.matched`` are neither compared nor shown),
that a record of another class is ``NotImplemented``, and which records
hash.
"""

import inspect

import pytest

from symbif import (
    BifurcationVerdict,
    CustomDomain,
    DiskDomain,
    EulerSO2,
    GlobCheck,
    KernelReps,
    LinearizationEigenvalue,
    OrbitDatum,
    RootCache,
    SO2Rep,
    SpectrumEntry,
    SystemSpec,
    UnboundedReport,
)
from symbif.cli import AnalysisConfig


def zero_entry():
    return SpectrumEntry(0.0, SO2Rep.trivial(1), angular_index=0)


def rot_entry():
    return SpectrumEntry(3.39, SO2Rep.irr(1), angular_index=1, root_index=1)


ENTRY_REPRS = (
    "SpectrumEntry(eigenvalue=0.0, rep=SO2Rep(trivial_dim=1, irreducibles={}), angular_index=0, root_index=None), "
    "SpectrumEntry(eigenvalue=3.39, rep=SO2Rep(trivial_dim=0, irreducibles={1: 1}), angular_index=1, root_index=1)"
)

#: (class, fields, attributes outside the fields, signature, repr) and a factory of one instance
CASES = [
    (
        GlobCheck, ("glob", "justification"), (),
        "(glob: 'str', justification: 'str') -> 'None'",
        "GlobCheck(glob='Bifurcates', justification='RepNonEquivalence')",
        lambda: GlobCheck("Bifurcates", "RepNonEquivalence"),
    ),
    (
        UnboundedReport, ("verdict", "bounded_would_imply"), (),
        "(verdict: 'str', bounded_would_imply: 'tuple[str, ...]' = ()) -> 'None'",
        "UnboundedReport(verdict='Unbounded', bounded_would_imply=('p2 > 0',))",
        lambda: UnboundedReport("Unbounded", ("p2 > 0",)),
    ),
    (
        BifurcationVerdict,
        ("lambda0", "in_lambda", "kernel", "glob", "justification", "bif_element", "unbounded"), (),
        "(lambda0: 'float', in_lambda: 'bool', kernel: 'KernelReps', glob: 'str', justification: 'str', "
        "bif_element: 'EulerSO2 | None', unbounded: 'str') -> 'None'",
        "BifurcationVerdict(lambda0=2.5, in_lambda=True, kernel=KernelReps(v1=SO2Rep(trivial_dim=0, "
        "irreducibles={1: 1}), v2=SO2Rep(trivial_dim=0, irreducibles={})), glob='Bifurcates', "
        "justification='RepNonEquivalence', bif_element=EulerSO2(unit=-2, cyclic={1: 2}), unbounded='NoVerdict')",
        lambda: BifurcationVerdict(
            2.5, True, KernelReps(SO2Rep.irr(1), SO2Rep.zero()), "Bifurcates", "RepNonEquivalence",
            EulerSO2(-2, {1: 2}), "NoVerdict",
        ),
    ),
    (
        AnalysisConfig, ("system", "window", "output_format", "spectrum_bound"), (),
        "(system: 'dict | None' = None, window: 'tuple[float, float] | None' = None, "
        "output_format: 'str' = 'table', spectrum_bound: 'float | None' = None) -> 'None'",
        "AnalysisConfig(system={'p1': 1}, window=(-5.0, 5.0), output_format='structured', spectrum_bound=100)",
        lambda: AnalysisConfig({"p1": 1}, (-5, 5), "structured", 100),
    ),
    (
        EulerSO2, ("unit", "cyclic"), (),
        "(unit: 'int' = 0, cyclic: 'dict[int, int] | None' = None) -> 'None'",
        "EulerSO2(unit=1, cyclic={2: -3})",
        lambda: EulerSO2(1, {2: -3}),
    ),
    (
        SO2Rep, ("trivial_dim", "irreducibles"), (),
        "(trivial_dim: 'int' = 0, irreducibles: 'dict[int, int] | None' = None) -> 'None'",
        "SO2Rep(trivial_dim=2, irreducibles={1: 1, 3: 2})",
        lambda: SO2Rep(2, {1: 1, 3: 2}),
    ),
    (
        OrbitDatum, ("isotropy_class", "morse_index"), (),
        "(isotropy_class: 'str', morse_index: 'int') -> 'None'",
        "OrbitDatum(isotropy_class='Z2', morse_index=3)",
        lambda: OrbitDatum("Z2", 3),
    ),
    (
        SpectrumEntry, ("eigenvalue", "rep", "angular_index", "root_index"), (),
        "(eigenvalue: 'float', rep: 'SO2Rep', angular_index: 'int | None' = None, "
        "root_index: 'int | None' = None) -> 'None'",
        "SpectrumEntry(eigenvalue=3.39, rep=SO2Rep(trivial_dim=0, irreducibles={1: 1}), angular_index=1, root_index=1)",
        rot_entry,
    ),
    (
        RootCache, ("records",), ("grown",),
        "(records: 'dict[tuple[int, int], list[float]] | None' = None) -> 'None'",
        "RootCache(records={(2, 1): [1.5, 5.25]})",
        lambda: RootCache({(2, 1): [1.5, 5.25]}),
    ),
    (
        DiskDomain, ("bound", "dim"), ("_eigenvalues", "_memo", "_memo_bound", "cache"),
        "(bound: 'float | None' = None, cache: 'RootCache | None' = None, dim: 'int' = 2) -> 'None'",
        "DiskDomain(bound=50.0, dim=3)",
        lambda: DiskDomain(bound=50.0, dim=3),
    ),
    (
        CustomDomain, ("entries", "irr_dim_table"), ("_eigenvalues",),
        "(entries: 'list[SpectrumEntry]', irr_dim_table: 'dict[int, int] | None' = None) -> 'None'",
        f"CustomDomain(entries=[{ENTRY_REPRS}], irr_dim_table={{1: 2}})",
        lambda: CustomDomain([zero_entry(), rot_entry()], irr_dim_table={"1": 2}),
    ),
    (
        SystemSpec, ("p1", "p2", "sigma_b1", "sigma_b2", "mu_b0", "domain", "a9"), (),
        "(p1: 'int', p2: 'int', sigma_b1: 'dict[float, int] | None' = None, "
        "sigma_b2: 'dict[float, int] | None' = None, mu_b0: 'int' = 0, domain: 'Domain | None' = None, "
        "a9: 'bool' = False) -> 'None'",
        "SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={2.0: 1}, mu_b0=0, domain=DiskDomain(bound=50.0, dim=2), "
        "a9=False)",
        lambda: SystemSpec(p1=1, p2=1, sigma_b1={1: 1}, sigma_b2={2.0: 1}, domain=DiskDomain(bound=50.0)),
    ),
    (
        KernelReps, ("v1", "v2"), ("matched",),
        "(v1: 'SO2Rep', v2: 'SO2Rep', matched: 'tuple[SpectrumEntry, ...]' = ()) -> 'None'",
        "KernelReps(v1=SO2Rep(trivial_dim=0, irreducibles={2: 1}), v2=SO2Rep(trivial_dim=1, irreducibles={}))",
        lambda: KernelReps(SO2Rep.irr(2), SO2Rep.trivial(1), matched=(rot_entry(),)),
    ),
    (
        LinearizationEigenvalue, ("value", "multiplicity", "entry", "block", "b", "vanishes", "structural"), (),
        "(value: 'float', multiplicity: 'int', entry: 'SpectrumEntry', block: 'str', b: 'float', "
        "vanishes: 'bool', structural: 'bool') -> 'None'",
        "LinearizationEigenvalue(value=0.25, multiplicity=2, entry=SpectrumEntry(eigenvalue=3.39, "
        "rep=SO2Rep(trivial_dim=0, irreducibles={1: 1}), angular_index=1, root_index=1), block='B1', b=1.0, "
        "vanishes=False, structural=False)",
        lambda: LinearizationEigenvalue(0.25, 2, rot_entry(), "B1", 1.0, False, False),
    ),
]
IDS = [case[0].__name__ for case in CASES]
HASHABLE = {EulerSO2, OrbitDatum}


class _Unequal:
    """A value no field equals."""


def stored(cls, field: str) -> str:
    """The instance attribute behind ``field``: ``_field`` when a read-only property hands the field out."""
    return f"_{field}" if isinstance(vars(cls).get(field), property) else field


def with_attr(record, name, value):
    """A record of the same class and attributes as ``record`` except ``name``."""
    out = object.__new__(type(record))
    for attr, v in vars(record).items():
        object.__setattr__(out, attr, value if attr == name else v)
    return out


@pytest.mark.parametrize("cls, fields, ignored, signature, text, make", CASES, ids=IDS)
def test_repr_and_signature(cls, fields, ignored, signature, text, make):
    assert type(make()) is cls
    assert repr(make()) == text
    assert str(inspect.signature(cls)) == signature


@pytest.mark.parametrize("cls, fields, ignored, signature, text, make", CASES, ids=IDS)
def test_equality_reads_exactly_the_fields(cls, fields, ignored, signature, text, make):
    record = make()
    assert record == make() and not record != make()
    assert sorted(vars(record)) == sorted([stored(cls, name) for name in fields] + list(ignored))
    for name in fields:
        # a field behind a property is changed through its stored attribute, emptied, as the property reads it
        attr = stored(cls, name)
        changed = with_attr(record, attr, _Unequal() if attr == name else type(vars(record)[attr])())
        assert record != changed and changed != record, name
    for name in ignored:
        assert record == with_attr(record, name, _Unequal()), name


@pytest.mark.parametrize("cls, fields, ignored, signature, text, make", CASES, ids=IDS)
def test_another_class_is_not_implemented(cls, fields, ignored, signature, text, make):
    following = CASES[(IDS.index(cls.__name__) + 1) % len(CASES)][-1]()
    assert make().__eq__(following) is NotImplemented
    assert make().__eq__(42) is NotImplemented
    assert make() != following


@pytest.mark.parametrize("cls, fields, ignored, signature, text, make", CASES, ids=IDS)
def test_only_values_hash(cls, fields, ignored, signature, text, make):
    if cls in HASHABLE:
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(make())
