"""Fuzz of the record readers: a mutated document is read faithfully or refused with a package error.

Each example starts from a valid document of ``SO2Rep``, ``EulerSO2`` or
``SpectrumEntry``, of a domain (``domain_from_json``; a custom one carries a
supplied spectrum), or of a system (``system_spec_from_json``), a run config (``AnalysisConfig.from_doc``), orbit data or a class table,
disguises, replaces, deletes or adds one to three values anywhere in it, and
reads it.  Every outcome must be a value or a ``symbif.errors.Error``; any
other exception fails the example.  A value must also be what the document
says, with the exact types it says it with: a reader that took ``2.0`` or
``"2"`` for the integer 2 (as a bare ``int(...)`` would) fails the example too.
"""

import copy
import functools
import math
import operator
import re
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from symbif import CustomDomain, DiskDomain, EulerSO2, SO2Rep, SpectrumEntry, spectral
from symbif.cli import AnalysisConfig
from symbif.errors import Error, SchemaError
from symbif.morse import OrbitDatum, class_table_from_json, orbit_data_from_json
from symbif.spectral import domain_from_json
from symbif.system import system_spec_from_json
from oracles import REL, close

REP = {"trivial": 1, "irr": {"1": 2, "3": 1}}
EULER = {"unit": -1, "cyclic": {"1": -2, "4": 3}}
ENTRY = {"eigenvalue": 3.3899577166932745, "angular_index": 1, "root_index": 1, "rep": REP}
#: a supplied spectrum: the constants, two eigenvalues 5e-9 apart (merged into one) and a trivial one
ENTRIES = [
    {"eigenvalue": 0.0, "rep": {"trivial": 1}},
    ENTRY,
    {"eigenvalue": 3.3899577166932745 * (1 + 5e-9), "angular_index": 2, "rep": {"trivial": 0, "irr": {"2": 1}}},
    {"eigenvalue": 7, "angular_index": 0, "root_index": 1, "rep": {"trivial": 1}},
]
#: one document per domain type; a ball holds the constants only, so that a mutation often lands on its
#: dim, and a custom domain holds every entry of ENTRIES, so its entries are fuzzed as a supplied spectrum
DOMAINS = {
    "disk": {"type": "disk", "max_eigenvalue": 50.0},
    "ball": {"type": "ball", "dim": 3, "entries": ENTRIES[:1]},
    "custom": {"type": "custom", "entries": ENTRIES, "irr_dims": {"1": 2, "3": 6}},
}
#: a system on a disk whose spectrum is never computed while reading
SYSTEM = {
    "p1": 2,
    "p2": 1,
    "b1": [{"value": 0, "mult": 1}, {"value": 1.0}],
    "b2": [{"value": -2, "mult": 1}],
    "mu_b0": 1,
    "domain": DOMAINS["disk"],
    "a9": False,
}
CONFIG = {"system": SYSTEM, "window": [-10, 60.5], "output_format": "structured", "spectrum_bound": 100.0}
ORBITS = [{"class": "Z2", "morse_index": 1}, {"class": "SO2", "morse_index": 0}]
CLASS_TABLE = {"Z2": "Z4", "SO2": "SO2"}

#: values that look like a count, a label, a coefficient or an eigenvalue, and are not one
_NEAR_MISSES = st.sampled_from(
    [2.5, 2.0, 1.0, 0.0, -0.0, -3, -1, 0, 1, 10**400, 1e300, float("inf"), float("nan"), "2", "", True, False, None, [2], {}]
)
#: ways to write a number that a reader taking anything ``int()`` accepts would still read
_GUISES = [float, str, lambda v: v + 0.5, lambda v: v == 1, lambda v: [v]]
#: table keys: labels in every spelling, and words that are not labels
_KEYS = st.sampled_from(
    ["1", "2", "01", "-1", "0", "+1", " 1", "1.0", "1e0", "x", "", "١", "9" * 5000, 1, 2, 0, -1, 1.0, True]
)
#: keys a document may carry by mistake
_NAMES = st.sampled_from(
    ["trivial", "irr", "rot", "unit", "cyclic", "eigenvalue", "angular_index", "root_index", "rep", "other"]
    + ["domain", "entries", "type", "dim", "irr_dims", "max_eigenvalue"]
    + ["p1", "p2", "b1", "b2", "mu_b0", "a9", "value", "mult", "system", "window", "output_format", "spectrum_bound"]
    + ["class", "morse_index", "Z2", "SO2"]
)


def _nodes(doc) -> list:
    """``doc`` and every dict or list inside it."""
    out = [doc]
    for v in doc.values() if isinstance(doc, dict) else doc:
        if isinstance(v, (dict, list)):
            out += _nodes(v)
    return out


@st.composite
def _mutated(draw, base):
    """``base`` with one to three values disguised, replaced, deleted or added; one in ten is a bare value."""
    def fresh(strategy):
        return copy.deepcopy(draw(strategy))  # a drawn [2] or {} may be mutated in turn

    if draw(st.integers(0, 9)) == 0:
        return fresh(_NEAR_MISSES)
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(_nodes(doc)))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["disguise", "replace", "delete", "add"])) if keys else "add"
        if action == "add" and isinstance(node, dict):
            node[draw(st.one_of(_KEYS, _NAMES))] = fresh(st.one_of(_NEAR_MISSES, st.integers(-2, 4)))
        elif action == "add":
            node.append(fresh(_NEAR_MISSES))
        elif action == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            key = draw(st.sampled_from(keys))
            old = node[key]
            # any number but an integer past the float range, whose float(...) overflows
            if action == "disguise" and (type(old) is float or type(old) is int and abs(old) <= 1e308):
                node[key] = draw(st.sampled_from(_GUISES))(old)
            else:
                node[key] = fresh(_NEAR_MISSES)
    return doc


def _read(reader, doc):
    """What ``reader`` makes of ``doc``: a value, or None for a package error; anything else escapes."""
    try:
        return reader(doc)
    except Error:
        return None


def _is_int(v) -> bool:
    return type(v) is int


def _table(doc, key: str, least: int | None, any_label: bool = False) -> dict[int, int]:
    """The nonzero entries of the label table ``doc[key]``, read as the document says them.

    Labels are >= 1 (irreducibles of SO(2)) unless ``any_label``: a custom
    domain's dimension table may name any integer label.
    """
    table = doc.get(key, {})
    assert type(table) is dict
    out = {}
    for k, v in table.items():
        assert _is_int(k) or (type(k) is str and k.removeprefix("-").isdecimal())
        assert (any_label or int(k) >= 1) and _is_int(v) and (least is None or v >= least)
        assert int(k) not in out  # two spellings of one label are refused, not merged
        if v:
            out[int(k)] = v
    return out


def _check_rep(doc, rep: SO2Rep) -> None:
    assert type(doc) is dict
    assert _is_int(doc.get("trivial", 0)) and doc.get("trivial", 0) == rep.trivial_dim >= 0
    irr = _table(doc, "irr" if "irr" in doc else "rot", 0)
    assert irr == rep.irreducibles and all(_is_int(k) for k in rep.irreducibles)


def _check_euler(doc, element: EulerSO2) -> None:
    assert type(doc) is dict
    assert _is_int(doc.get("unit", 0)) and doc.get("unit", 0) == element.unit
    cyclic = _table(doc, "cyclic", None)
    assert cyclic == element.cyclic and all(_is_int(k) for k in element.cyclic)


def _check_entry(doc, entry: SpectrumEntry) -> None:
    assert type(doc) is dict
    eigenvalue = doc["eigenvalue"]
    assert type(eigenvalue) in (int, float) and 0.0 <= eigenvalue < float("inf")
    assert type(entry.eigenvalue) is float and entry.eigenvalue == eigenvalue
    for key in ("angular_index", "root_index"):
        value = doc.get(key)
        assert value is None or (_is_int(value) and value >= 0)
        assert getattr(entry, key) == value and type(getattr(entry, key)) is type(value)
    _check_rep(doc["rep"], entry.rep)


def _stated(docs) -> list[tuple]:
    """(eigenvalue, rep, angular_index, root_index) per group of ``docs``: read faithfully, sorted, fused by ``close``."""
    assert type(docs) is list and docs
    read = [SpectrumEntry.from_json(d) for d in docs]
    for d, e in zip(docs, read):
        _check_entry(d, e)
    groups: list[list[SpectrumEntry]] = []
    for e in sorted(read, key=lambda e: e.eigenvalue):
        first = groups[-1][0].eigenvalue if groups else None
        if first is not None and close(first, e.eigenvalue):
            groups[-1].append(e)
        else:
            groups.append([e])

    def common(values):
        return values[0] if all(v == values[0] for v in values) else None

    return [
        (
            g[0].eigenvalue,
            functools.reduce(operator.add, (e.rep for e in g)),
            common([e.angular_index for e in g]),
            common([e.root_index for e in g]),
        )
        for g in groups
    ]


def _check_entries(docs, entries: list[SpectrumEntry]) -> None:
    """``entries`` are ``docs`` as ``_stated`` reads them, and a Neumann spectrum."""
    assert [(e.eigenvalue, e.rep, e.angular_index, e.root_index) for e in entries] == _stated(docs)
    # a Neumann spectrum: the constants first, then strictly ascending
    assert entries[0].eigenvalue == 0.0 and entries[0].rep == SO2Rep.trivial(1)
    assert all(a.eigenvalue < b.eigenvalue for a, b in zip(entries, entries[1:]))


def _check_domain(doc, domain) -> None:
    assert type(doc) is dict
    kind = doc["type"]
    if kind == "disk" or kind == "ball" and "entries" not in doc:
        # the disk, or a computed ball of the stated dim (2 is the disk)
        assert set(doc) <= {"type", "max_eigenvalue", *(("dim",) if kind == "ball" else ())}
        assert type(domain) is DiskDomain and _is_int(domain.dim) and domain.dim == doc.get("dim", 2) >= 2
        bound = doc.get("max_eigenvalue")
        assert bound is None or type(bound) in (int, float) and bound > 0
        assert domain.bound == bound and type(domain.bound) is type(bound)
    elif kind == "ball":
        # a supplied ball that passes its check is the computed one, up to its top eigenvalue
        assert set(doc) == {"type", "dim", "entries"} and type(domain) is DiskDomain
        assert _is_int(doc["dim"]) and doc["dim"] >= 3 and domain.dim == doc["dim"] and _is_int(domain.dim)
        stated = _stated(doc["entries"])
        # the bound is how far the matching rule reaches from the top: top / (1 - REL), rounded up
        top = max(stated[-1][0], 1.0)
        assert stated[0][:2] == (0.0, SO2Rep.trivial(1))
        assert domain.bound == math.nextafter(top + top * (REL / (1 - REL)), math.inf)
        computed = domain.entries_up_to(domain.bound)
        assert len(computed) == len(stated)
        for e, (alpha, rep, _, _) in zip(computed, stated):
            assert abs(e.eigenvalue - alpha) <= 1e-8 * max(1.0, alpha) and e.rep == rep
    else:
        assert kind == "custom" and set(doc) <= {"type", "entries", "irr_dims"} and type(domain) is CustomDomain
        if doc.get("irr_dims") is None:
            assert domain.irr_dim_table is None
        else:
            assert _table(doc, "irr_dims", 1, any_label=True) == domain.irr_dim_table
            assert all(_is_int(k) for k in domain.irr_dim_table)
        _check_entries(doc["entries"], domain.entries)


def _check_system(doc, spec) -> None:
    assert type(doc) is dict and {"p1", "p2", "domain"} <= set(doc) <= {"p1", "p2", "b1", "b2", "mu_b0", "domain", "a9"}
    for key, default in (("p1", None), ("p2", None), ("mu_b0", 0)):
        value = doc.get(key, default)
        assert _is_int(value) and value >= 0 and getattr(spec, key) == value and _is_int(getattr(spec, key))
    assert spec.a9 is doc.get("a9", False)
    for key, sigma in (("b1", spec.sigma_b1), ("b2", spec.sigma_b2)):
        expected: dict = {}
        for item in doc.get(key, []):
            assert type(item) is dict and "value" in item and set(item) <= {"value", "mult"}
            value, mult = item["value"], item.get("mult", 1)
            assert type(value) in (int, float) and math.isfinite(value) and _is_int(mult) and mult >= 1
            expected[value] = expected.get(value, 0) + mult
        assert sigma == expected and [type(v) for v in sigma] == [type(v) for v in expected]
    _check_domain(doc["domain"], spec.domain)


def _check_config(doc, config: AnalysisConfig) -> None:
    assert type(doc) is dict and set(doc) <= {"system", "window", "output_format", "spectrum_bound"}
    assert config.system is doc.get("system") and config.output_format == doc.get("output_format", "table")
    window, bound = doc.get("window"), doc.get("spectrum_bound")
    if window is None:
        assert config.window is None
    else:
        assert type(window) is list and all(type(w) in (int, float) for w in window)
        assert config.window == tuple(window) and all(type(w) is float for w in config.window)
    assert bound is None or type(bound) in (int, float) and bound > 0
    assert config.spectrum_bound == bound and type(config.spectrum_bound) is type(bound)


def _check_orbits(doc, data: list[OrbitDatum]) -> None:
    assert type(doc) is list and len(doc) == len(data)
    for item, datum in zip(doc, data):
        assert type(item) is dict and set(item) == {"class", "morse_index"}
        assert type(item["class"]) is str and item["class"] and _is_int(item["morse_index"])
        assert datum == OrbitDatum(item["class"], item["morse_index"])


FUZZ = settings(max_examples=250, deadline=timedelta(seconds=1), derandomize=True)


@FUZZ
@given(doc=_mutated(REP) | _mutated({"trivial": 0, "rot": {"2": 1}}))
def test_so2rep_from_json(doc):
    rep = _read(SO2Rep.from_json, doc)
    if rep is not None:
        _check_rep(doc, rep)


@FUZZ
@given(doc=_mutated(EULER))
def test_euler_from_json(doc):
    element = _read(EulerSO2.from_json, doc)
    if element is not None:
        _check_euler(doc, element)


@FUZZ
@given(doc=_mutated(ENTRY))
def test_spectrum_entry_from_json(doc):
    entry = _read(SpectrumEntry.from_json, doc)
    if entry is not None:
        _check_entry(doc, entry)


@pytest.mark.parametrize("kind", DOMAINS)
def test_domain_from_json(kind):
    @FUZZ
    @given(doc=_mutated(DOMAINS[kind]))
    def read(doc):
        domain = _read(domain_from_json, doc)
        if domain is not None:
            _check_domain(doc, domain)

    read()


def _read_in_time(reader, doc, deadline):
    with deadline(10, f"{reader.__qualname__} did not answer within 10 s"):
        return _read(reader, doc)


@FUZZ
@given(doc=_mutated(SYSTEM))
def test_system_spec_from_json(deadline, doc):
    spec = _read_in_time(system_spec_from_json, doc, deadline)
    if spec is not None:
        _check_system(doc, spec)


@FUZZ
@given(doc=_mutated(CONFIG))
def test_analysis_config_from_doc(deadline, doc):
    config = _read_in_time(AnalysisConfig.from_doc, doc, deadline)
    if config is not None:
        _check_config(doc, config)


@FUZZ
@given(doc=_mutated(ORBITS))
def test_orbit_data_from_json(deadline, doc):
    data = _read_in_time(orbit_data_from_json, doc, deadline)
    if data is not None:
        _check_orbits(doc, data)


@FUZZ
@given(doc=_mutated(CLASS_TABLE))
def test_class_table_from_json(deadline, doc):
    table = _read_in_time(class_table_from_json, doc, deadline)
    if table is not None:
        assert type(doc) is dict and all(type(k) is str and type(v) is str for k, v in doc.items())
        assert table == doc and table is not doc


@pytest.mark.parametrize(
    "kind, path", [("disk", ["max_eigenvalue"]), ("ball", ["dim"]), ("custom", ["irr_dims", "3"])], ids=list(DOMAINS)
)
def test_domain_numbers_in_every_guise(kind, path):
    # each number of the domain's own, in each guise, the rest of the document valid
    for guise in _GUISES:
        doc = copy.deepcopy(DOMAINS[kind])
        node = functools.reduce(operator.getitem, path[:-1], doc)
        node[path[-1]] = guise(node[path[-1]])
        domain = _read(domain_from_json, doc)
        if domain is not None:
            _check_domain(doc, domain)


def test_a_bare_int_in_a_reader_is_caught(monkeypatch):
    # a ball dim read by int(...) instead of the checked _int takes 3.0 and "3" for 3; the guise test must fail
    checked = spectral._int

    def bare(v, what, *args, **kwargs):
        return int(v) if what == "ball dimension" else checked(v, what, *args, **kwargs)

    monkeypatch.setattr(spectral, "_int", bare)
    with pytest.raises(AssertionError):
        test_domain_numbers_in_every_guise("ball", ["dim"])


def test_unknown_keys_of_mixed_types_are_refused():
    # a key that is not text (a document built in Python) is named after the text keys
    for reader, doc in ((SO2Rep.from_json, REP), (SpectrumEntry.from_json, ENTRY), (domain_from_json, DOMAINS["ball"])):
        with pytest.raises(SchemaError, match=r"^unknown keys in .*: \['b', 'x', 1\]$"):
            reader({**doc, "x": 0, 1: 0, "b": 0})


def test_the_base_documents_are_read():
    _check_rep(REP, SO2Rep.from_json(REP))
    _check_euler(EULER, EulerSO2.from_json(EULER))
    _check_entry(ENTRY, SpectrumEntry.from_json(ENTRY))
    entries = domain_from_json(DOMAINS["custom"]).entries
    _check_entries(ENTRIES, entries)
    assert len(entries) == 3
    for doc in DOMAINS.values():
        _check_domain(doc, domain_from_json(doc))


@pytest.mark.parametrize(
    "key, wrong", [("angular_index", "x"), ("angular_index", True), ("root_index", -3), ("root_index", 2.0)]
)
def test_an_entry_built_in_python_is_checked_as_its_document_is(key, wrong):
    # the constructor holds the one check of the indices, so no entry it accepts writes a
    # document that from_json refuses, and a ball never meets a non-integer degree
    with pytest.raises(SchemaError, match=key):
        SpectrumEntry(4.0, SO2Rep.irr(1), **{key: wrong})
    with pytest.raises(SchemaError, match=key):
        SpectrumEntry.from_json({**ENTRY, key: wrong})
    entry = SpectrumEntry(4.0, SO2Rep.irr(1), angular_index=1, root_index=0)
    assert SpectrumEntry.from_json(entry.to_json()) == entry


@pytest.mark.parametrize(
    "reader, doc, message",
    [
        (EulerSO2.from_json, [1], "EulerSO2 document must be an object, got list"),
        (EulerSO2.from_json, {**EULER, "x": 0}, "unknown keys in EulerSO2 document: ['x']"),
        (orbit_data_from_json, [5], "orbit entry must be an object, got int"),
        (orbit_data_from_json, [{**ORBITS[0], "x": 0}], "unknown keys in orbit entry: ['x']"),
        (orbit_data_from_json, [{"class": "Z2"}], "orbit entry needs 'morse_index'"),
        (system_spec_from_json, {**SYSTEM, "b1": ["1"]}, "'b1' entry must be an object, got str"),
        (system_spec_from_json, {**SYSTEM, "b2": [{"value": 1, "x": 0}]}, "unknown keys in 'b2' entry: ['x']"),
        (system_spec_from_json, {**SYSTEM, "b1": [{"mult": 2}]}, "'b1' entry needs 'value'"),
        (SpectrumEntry.from_json, {"rep": REP}, "spectrum entry needs 'eigenvalue'"),
        (SpectrumEntry.from_json, {"eigenvalue": 1.0}, "spectrum entry needs 'rep'"),
        (SpectrumEntry.from_json, 3, "spectrum entry must be an object, got int"),
        (domain_from_json, ["disk"], "domain document must be an object, got list"),
        (domain_from_json, {"max_eigenvalue": 5.0}, "domain document needs 'type'"),
        (class_table_from_json, ["Z2"], "class table must be an object, got list"),
        (SO2Rep.from_json, "irr", "representation must be an object, got str"),
        (SO2Rep.from_json, {"irr": [1]}, "irreducible table must be an object, got list"),
    ],
)
def test_object_messages(reader, doc, message):
    # every object check is errors._object: a non-object by its type name, then unknown keys, then required keys
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        reader(doc)
