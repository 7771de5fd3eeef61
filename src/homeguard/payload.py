"""How JSON values map to the program's dataclasses, both ways.

Every file the program reads goes through this module: config sections,
model files, scenario files and vocabulary files.  One set of rules holds
for all of them:

- An object holds only the keys its reader knows: an unknown key is a
  fault, and so is a missing key whose field has no default.
- A value has the JSON type of its field: no bool counts as a number, no
  float counts as an integer, and every number is finite.  An integer may
  stand for a float, and is kept (and written back) as an integer.
- A time of day is text, ``H:MM`` or ``HH:MM``; a date is ISO text.
- A fault raises ``ValidationError`` whose message starts with the dotted
  path of the key, as in ``labeling_params.night_split`` or
  ``weekday.cook[0].start_minute``.  Each file's reader turns it into the
  error class of that file (``faults_as``).

A converter is either a JSON type (``int``, ``float``, ``str``, ``bool``,
``list``), checked by ``typed``, or a function ``convert(value, where)``
that returns the converted value and raises ``ValidationError`` naming
``where``.  ``record`` builds the converter of a dataclass; ``to_payload``
writes a dataclass back as JSON.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import MISSING, fields, is_dataclass
from datetime import date, time
from pathlib import Path

import numpy as np

from .errors import HomeguardError, ValidationError

_HHMM = re.compile(r"([0-9]{1,2}):([0-9]{2})")
_TYPE_NAMES = {
    str: "text", int: "an integer", float: "a finite number", bool: "true or false",
    list: "a JSON list",
}


def parse_hhmm(text: str) -> time:
    """``H:MM`` or ``HH:MM`` text as a time of day.  Raises TypeError for a
    value that is not text and ValueError for any other text, hours above 23
    and minutes above 59 included."""
    if not isinstance(text, str):
        raise TypeError(text)
    match = _HHMM.fullmatch(text)
    if match is None:
        raise ValueError(text)
    return time(int(match[1]), int(match[2]))


def to_payload(value):
    """``value`` in its JSON form.  A dataclass is an object keyed by its
    field names, or the list of its field values when its class sets
    ``JSON_ROW``; a tuple is a list, a date ISO text and a time of day
    ``HH:MM`` text."""
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, time):
        return value.strftime("%H:%M")
    if is_dataclass(value):
        items = {f.name: to_payload(getattr(value, f.name)) for f in fields(value)}
        return list(items.values()) if getattr(value, "JSON_ROW", False) else items
    if isinstance(value, tuple):
        return [to_payload(item) for item in value]
    if isinstance(value, dict):
        return {key: to_payload(item) for key, item in value.items()}
    return value


def load_json(path: str | Path, error: type[HomeguardError], what: str):
    """The JSON value in the file at ``path``.  A file that cannot be read or
    is not JSON raises ``error`` naming ``what`` and the path."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"{what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


@contextlib.contextmanager
def faults_as(error: type[HomeguardError], prefix: str = ""):
    """Raise a ``ValidationError`` from inside as ``error``, its message
    after ``prefix``."""
    try:
        yield
    except ValidationError as exc:
        raise error(f"{prefix}{exc}") from None


def at(where: str, key) -> str:
    """The dotted path of ``key`` below ``where``."""
    return f"{where}.{key}" if where else str(key)


def _shown(value) -> str:
    """``repr(value)``, cut short: a fault may hold a whole section."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:77]}..."


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def typed(value, kind: type, where: str):
    """``value`` checked to have the JSON type ``kind``: no bool counts as a
    number, no float as an integer, and a number must be finite."""
    ok = isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind
    )
    if not ok or kind is float and not _finite(value):
        raise ValidationError(f"expected {_TYPE_NAMES[kind]}, got {_shown(value)}", field=where)
    return value


def json_object(value, keys, where: str, required=()) -> dict:
    """``value`` checked to be a JSON object whose keys are all among
    ``keys`` (any key when it is None) and include each of ``required``."""
    if not isinstance(value, dict):
        raise ValidationError(f"expected a JSON object, got {_shown(value)}", field=where or None)
    if keys is not None:
        for key in value:
            if key not in keys:
                raise ValidationError(f"unknown key {key!r}", field=where or None)
    for key in required:
        if key not in value:
            raise ValidationError("missing", field=at(where, key))
    return value


def counts(value, length: int, where: str, high: int = 2**63 - 1) -> np.ndarray:
    """A JSON list of ``length`` integers in 0..``high`` as an int64 array."""
    if not (
        isinstance(value, list)
        and len(value) == length
        and all(type(x) is int and 0 <= x <= high for x in value)
    ):
        raise ValidationError(f"need {length} integers in 0..{high}", field=where)
    return np.asarray(value, dtype=np.int64)


def built(cls, where: str, *args, **kwargs):
    """``cls(*args, **kwargs)``; an error it raises for a bad value, a
    ``HomeguardError`` or a ``ValueError``, names ``where``."""
    try:
        return cls(*args, **kwargs)
    except (HomeguardError, ValueError) as exc:
        raise ValidationError(str(exc), field=where or None) from None


def _converted(convert, value, where: str):
    return typed(value, convert, where) if isinstance(convert, type) else convert(value, where)


def list_of(convert):
    """The converter of a JSON list whose items ``convert`` converts, to a tuple."""
    return lambda value, where: tuple(
        _converted(convert, item, f"{where}[{i}]")
        for i, item in enumerate(typed(value, list, where))
    )


def tuple_of(*converts):
    """The converter of a JSON list of ``len(converts)`` values, each
    converted by its own converter, to a tuple."""

    def convert(value, where):
        if not isinstance(value, list) or len(value) != len(converts):
            raise ValidationError(
                f"expected a list of {len(converts)} values, got {_shown(value)}", field=where
            )
        return tuple(_converted(c, item, f"{where}[{i}]") for i, (c, item) in
                     enumerate(zip(converts, value)))

    return convert


def rows(cls, *converts):
    """The converter of a JSON list of rows, each the list of the values
    ``converts`` convert, to one ``cls(*row)`` per row."""
    row = tuple_of(*converts)
    return list_of(lambda value, where: built(cls, where, *row(value, where)))


def dict_of(convert, keys=None):
    """The converter of a JSON object whose values ``convert`` converts
    (and whose keys are among ``keys``, unless None), to a dict."""
    return lambda value, where: {
        key: _converted(convert, item, at(where, key))
        for key, item in json_object(value, keys, where).items()
    }


def _time_of_day(value, where: str) -> time:
    try:
        return parse_hhmm(typed(value, str, where))
    except ValueError:
        raise ValidationError(f"expected a time of day, H:MM or HH:MM, got {_shown(value)}",
                              field=where) from None


def _iso_date(value, where: str) -> date:
    return built(date.fromisoformat, where, typed(value, str, where))


def like(default):
    """The converter of a value of the type of ``default``: a bool, an int,
    a float, text, a time of day, a date, or a tuple of these."""
    if isinstance(default, time):
        return _time_of_day
    if isinstance(default, date):
        return _iso_date
    if isinstance(default, tuple):
        return tuple_of(*map(like, default))
    if type(default) in (bool, int, float, str):
        return type(default)
    raise TypeError(f"no JSON form for a default of {default!r}")


def record(cls, **converts):
    """The converter of a JSON object to ``cls``: each key converted by
    ``converts[key]``, or, for a field not named there, by ``like`` its
    default.  A field without a default is required."""
    table = {f.name: converts[f.name] if f.name in converts else like(f.default)
             for f in fields(cls) if f.init}
    required = [f.name for f in fields(cls)
                if f.init and f.default is MISSING and f.default_factory is MISSING]

    def convert(value, where):
        data = json_object(value, table, where, required)
        return built(cls, where, **{
            key: _converted(table[key], item, at(where, key)) for key, item in data.items()
        })

    return convert
