"""Exception types shared across the package.

Validation-style errors (bad input, violated precondition) are distinct from
computational errors (a numeric procedure could not deliver its result); the
CLI maps the former to exit code 1 and the latter to exit code 2.

Below are the package's only input checkers.  Each raises ``error`` for a
wrong type and ``invalid`` (default ``error``) for a bad value: a reader
reports a wrong JSON type as SchemaError, a bad value as ValidationError.
A message shows a caller's value through :func:`_show`, which never fails,
every JSON object is checked by :func:`_object`, and every table keyed by
integer labels is read by :func:`_label_table`.

The package's record classes are plain classes on :class:`_Record`, which
compares and prints the fields each names once in ``_fields``; a parameter
that gets a new value per call or instance has the one default ``None``.
"""

import json
import math
import sys


class Error(Exception):
    """Base class for all package errors."""


class DomainError(Error):
    """Argument outside the mathematical domain of an operation."""


class NotInvertible(Error):
    """Ring element has no multiplicative inverse."""


class NotAMember(Error):
    """Value is not a member of the list it was asserted to belong to."""


class SchemaError(Error):
    """Structured document does not match the expected shape."""


class ValidationError(Error):
    """Well-formed input violating a semantic invariant."""


class PreconditionError(Error):
    """Operation called outside its stated preconditions."""


class UnsupportedDomain(Error):
    """Operation only available for a more specific domain (e.g. the disk)."""


class MissingClass(Error):
    """Isotropy class absent from the supplied class table."""


class NonInjectiveTable(Error):
    """Class table maps two distinct classes to the same target."""


class ConvergenceError(Error):
    """A numeric search failed to refine; signals evaluation breakdown."""


class InsufficientSpectrum(Error):
    """The request needs eigenvalues beyond the loaded part of the spectrum."""


#: errors that indicate a failed computation rather than bad input
COMPUTATIONAL_ERRORS = (ConvergenceError, InsufficientSpectrum)


def _is_int(v) -> bool:
    """Whether ``v`` is an integer; bools are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _show(v) -> str:
    """``repr(v)``; an integer past the 4,300-digit limit of ``str`` is shown by its digit count."""
    try:
        return repr(v)
    except ValueError:  # the limit stops repr of a container holding such an integer too
        if not _is_int(v):
            return f"a {type(v).__name__} holding an integer too long to print"
        return _digit_count(v)


def _digit_count(v: int) -> str:
    """A nonzero integer named by its number of decimal digits, e.g. "an integer of 401 digits"."""
    n = abs(v)
    digits = int(math.log10(n)) + 1  # a float estimate, corrected by one either way
    digits += (n >= 10**digits) - (n < 10 ** (digits - 1))
    return f"{'a negative' if v < 0 else 'an'} integer of {digits} digits"


def _object(doc, what: str, allowed=None, required=()) -> dict:
    """``doc`` if it is an object, has no key outside ``allowed`` (None allows any) and has every key in ``required``.

    SchemaError otherwise, checked in that order; a non-object is named by its type only, never shown whole.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object, got {type(doc).__name__}")
    if allowed is not None and (unknown := set(doc).difference(allowed)):
        ordered = sorted(unknown, key=lambda k: (False, k) if isinstance(k, str) else (True, _show(k)))
        raise SchemaError(f"unknown keys in {what}: {_show(ordered)}")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{what} needs '{key}'")
    return doc


def _int(v, what: str, least: int | None = None, error: type[Error] = ValidationError, invalid=None) -> int:
    """``v`` if it is an integer, and at least ``least`` when that is given."""
    if not _is_int(v):
        raise error(f"{what} must be an integer, got {_show(v)}")
    if least is not None and v < least:
        raise (invalid or error)(f"{what} must be >= {least}, got {_show(v)}")
    return v


def _real(v, what: str, *, finite: bool = True, error: type[Error] = ValidationError, invalid=None) -> float:
    """``v`` as a float if it is a number a float holds: never NaN, and an infinity only when not ``finite``.

    An integer beyond the float range is refused by its digit count, however many digits it has.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise error(f"{what} {_show(v)} must be a real number")
    if abs(v) <= sys.float_info.max or (not finite and v in (math.inf, -math.inf)):
        return float(v)
    if isinstance(v, int):
        raise (invalid or error)(f"{what} is {_digit_count(v)}, too large for a float")
    raise (invalid or error)(f"{what} {_show(v)} must be {'finite' if finite else 'a float value other than NaN'}")


def _bool(v, what: str, error: type[Error] = ValidationError) -> bool:
    if not isinstance(v, bool):
        raise error(f"{what} must be a boolean, got {_show(v)}")
    return v


def _label_table(table, what: str) -> dict:
    """``table`` with each key read as an integer label: an int, or decimal digits after an optional ``-``.

    SchemaError for a table that is not an object, for any other key, for a
    label past the 4,300-digit limit of ``int()``, and for two keys that give
    one label (``"1"`` and ``"01"``), which would otherwise overwrite each other.
    """
    out, keys = {}, {}
    for key, value in _object(table, what).items():
        if isinstance(key, str) and key.removeprefix("-").isdecimal():
            try:
                label = int(key)
            except ValueError as exc:
                raise SchemaError(f"bad {what} label: {exc}") from exc
        else:
            label = _int(key, f"{what} label", error=SchemaError)
        if label in out:
            raise SchemaError(f"{what} labels {_show(keys[label])} and {_show(key)} name the same label")
        out[label], keys[label] = value, key
    return out


def _window(window) -> tuple | list:
    """``window`` if it is a list or tuple of two items, the bounds (lo, hi); ValidationError otherwise."""
    if not isinstance(window, (tuple, list)) or len(window) != 2:
        raise ValidationError(f"window must be a pair (lo, hi), got {_show(window)}")
    return window


def _parse_json(data: str | bytes, what: str):
    """The JSON document in text or UTF-8 ``data``: SchemaError if json cannot read it, ValidationError if neither."""
    if not isinstance(data, (str, bytes)):
        raise ValidationError(f"{what} must be JSON text, got {type(data).__name__}")
    try:
        return json.loads(data if isinstance(data, str) else data.decode("utf-8"))
    # bad text, bad UTF-8 and integer literals over 4,300 digits raise ValueError, deep nesting RecursionError
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


class _Record:
    """Base of the record classes: equality and ``Name(field=value, ...)`` over the names in ``_fields``.

    A record equals one of its own class whose fields are equal; any other
    attribute (a cache, a memo) is neither compared nor shown.  Since this
    class defines ``__eq__``, a record is unhashable unless its class
    defines ``__hash__``.
    """

    _fields: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(getattr(self, f) for f in self._fields) == tuple(getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"
