"""Fuzz of the record readers: a mutated document is read faithfully or refused with a package error.

Each example starts from a valid document of ``SO2Rep``, ``EulerSO2`` or
``SpectrumEntry``, disguises, replaces, deletes or adds one to three values
anywhere in it, and reads it.  Every outcome must be a value or a
``symbif.errors.Error``; any other exception fails the example.  A value must
also be what the document says, with the exact types it says it with: a
reader that took ``2.0`` or ``"2"`` for the integer 2 (as a bare ``int(...)``
would) fails the example too.
"""

import copy
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from symbif import EulerSO2, SO2Rep, SpectrumEntry
from symbif.errors import Error

REP = {"trivial": 1, "irr": {"1": 2, "3": 1}}
EULER = {"unit": -1, "cyclic": {"1": -2, "4": 3}}
ENTRY = {"eigenvalue": 3.3899577166932745, "angular_index": 1, "root_index": 1, "rep": REP}

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
_NAMES = st.sampled_from(["trivial", "irr", "rot", "unit", "cyclic", "eigenvalue", "angular_index", "root_index", "rep", "other"])


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
            if action == "disguise" and type(old) in (int, float):
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


def _table(doc, key: str, least: int | None) -> dict[int, int]:
    """The nonzero entries of the label table ``doc[key]``, read as the document says them."""
    table = doc.get(key, {})
    assert type(table) is dict
    out = {}
    for k, v in table.items():
        assert _is_int(k) or (type(k) is str and k.removeprefix("-").isdecimal())
        assert int(k) >= 1 and _is_int(v) and (least is None or v >= least)
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


def test_the_base_documents_are_read():
    _check_rep(REP, SO2Rep.from_json(REP))
    _check_euler(EULER, EulerSO2.from_json(EULER))
    _check_entry(ENTRY, SpectrumEntry.from_json(ENTRY))
