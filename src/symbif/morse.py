"""Finite-dimensional gradient degree from certified critical-orbit data.

The degree of an invariant gradient map around a union of special
non-degenerate critical orbits is read off coordinatewise: the class of an
orbit's isotropy group receives (-1)^(Morse index of the normal block).  The
package does not find orbits or verify Morse conditions; it consumes orbit
data the caller certifies.

When the slice group H sits in a larger group G so that distinct classes of
subgroups of H stay distinct in G (an admissible pair), the slice-level
degree transports coordinate-by-coordinate along an injective class table,
and inequality of slice degrees decides inequality of the full degrees.
Class labels are opaque strings; conjugacy itself is the caller's business.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import _EXPORTS
from .errors import (
    MissingClass, NonInjectiveTable, SchemaError, ValidationError, _int, _is_int, _object, _Record, _show
)
from .euler import EulerSO2

__all__ = [*_EXPORTS["morse"], "orbit_data_from_json", "class_table_from_json"]


class OrbitDatum(_Record):
    """One special non-degenerate critical orbit: isotropy class and the
    Morse index of its normal block (the tangential block carries none by
    the specialness assumption, which is trusted, not checked).  Frozen and
    hashable."""

    _fields = ("isotropy_class", "morse_index")

    def __init__(self, isotropy_class: str, morse_index: int) -> None:
        if not isinstance(isotropy_class, str) or not isotropy_class:
            raise ValidationError(f"isotropy class must be a nonempty string, got {_show(isotropy_class)}")
        object.__setattr__(self, "isotropy_class", isotropy_class)
        object.__setattr__(self, "morse_index", _int(morse_index, "morse_index", 0))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash((self.isotropy_class, self.morse_index))


def degree_from_orbits(data: Iterable[OrbitDatum]) -> dict[str, int]:
    """Per-class signed orbit counts; zero net coefficients are pruned.

    Classes absent from the result have coefficient 0, so pruning keeps
    structural equality of maps equal to semantic equality of degrees.
    """
    if not isinstance(data, Iterable):
        raise ValidationError(f"orbit data must be an iterable of OrbitDatum records, got {_show(data)}")
    out: dict[str, int] = {}
    for datum in data:
        if not isinstance(datum, OrbitDatum):
            raise ValidationError(f"orbit data must hold OrbitDatum records, got {_show(datum)}")
        out[datum.isotropy_class] = out.get(datum.isotropy_class, 0) + (-1) ** datum.morse_index
    return {c: v for c, v in out.items() if v != 0}


def lift_degree(deg: Mapping[str, int], table: Mapping[str, str]) -> dict[str, int]:
    """Transport a slice-level degree along an injective class table.

    Coefficients are preserved under the relabelling.  Raises MissingClass if
    a class with nonzero coefficient has no table entry, NonInjectiveTable if
    the table merges classes (the transported map would be meaningless).
    """
    _class_map(deg, "degree", _is_int, "integer coefficients")
    _class_map(table, "class table", lambda g_class: isinstance(g_class, str), "string classes")
    seen: set[str] = set()
    for g_class in table.values():
        if g_class in seen:
            clashing = sorted(h for h, g in table.items() if g == g_class)
            raise NonInjectiveTable(
                f"classes {clashing} share the target {_show(g_class)}; the pair is not admissible"
            )
        seen.add(g_class)
    out: dict[str, int] = {}
    for h_class, coeff in deg.items():
        if coeff == 0:
            continue
        if h_class not in table:
            raise MissingClass(f"class {_show(h_class)} is absent from the class table")
        out[table[h_class]] = coeff
    return out


def _class_map(m, what: str, value_ok, values: str) -> None:
    """ValidationError unless ``m`` maps string class labels to values for which ``value_ok`` holds."""
    if not isinstance(m, Mapping):
        raise ValidationError(f"{what} must be a mapping of class labels to {values}, got {_show(m)}")
    for k, v in m.items():
        if not isinstance(k, str) or not value_ok(v):
            raise ValidationError(
                f"{what} must map string class labels to {values}, got {_show(k)}: {_show(v)}"
            )


def compare_orbit_degrees(a: Mapping[str, int], b: Mapping[str, int], table: Mapping[str, str]) -> bool:
    """True iff the degrees differ (then the lifted degrees differ too).

    Both maps must be liftable through the same table; comparison ignores
    explicit zero coefficients.
    """
    return lift_degree(a, table) != lift_degree(b, table)


def orbit_data_from_json(doc) -> list[OrbitDatum]:
    """Parse ``[{"class": str, "morse_index": int}, ...]``."""
    if not isinstance(doc, list):
        raise SchemaError(f"orbit data must be an array, got {type(doc).__name__}")
    out, keys = [], ("class", "morse_index")
    for item in doc:
        _object(item, "orbit entry", keys, keys)
        out.append(OrbitDatum(item["class"], item["morse_index"]))
    return out


def class_table_from_json(doc) -> dict[str, str]:
    """Parse ``{"h_class": "g_class", ...}`` (injectivity checked at use)."""
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in _object(doc, "class table").items()):
        raise SchemaError("class table must map strings to strings")
    return dict(doc)


def so2_class_map_to_euler(deg: Mapping[str, int]) -> EulerSO2:
    """Re-express a class map over SO(2) labels as an Euler-ring element.

    Labels: ``SO2`` for the class of the full group, ``Z<k>`` for the
    finite cyclic classes.  Two labels of one class (``Z1`` and ``Z01``)
    raise ValidationError, as either coefficient would otherwise be lost.
    """
    if not isinstance(deg, Mapping):
        raise ValidationError(f"degree must be a mapping of SO(2) class labels, got {_show(deg)}")
    unit = 0
    cyclic: dict[int, int] = {}
    labels: dict[int, str] = {}
    for label, coeff in deg.items():
        if label == "SO2":
            unit = coeff
        elif isinstance(label, str) and label.startswith("Z") and label[1:].isdecimal():
            try:
                k = int(label[1:])
            except ValueError:  # past the 4,300-digit limit of int()
                raise ValidationError(f"label Z<k> has a k of {len(label) - 1} digits, too long to read") from None
            if k in labels:
                raise ValidationError(f"labels {_show(labels[k])} and {_show(label)} name the same class Z{k}")
            cyclic[k], labels[k] = coeff, label
        else:
            raise ValidationError(f"label {_show(label)} is not an SO(2) class label")
    return EulerSO2(unit, cyclic)
