"""The one JSON writer and reader, typed decoder, config checker, CSV reader and writer, raw reader.

``write_json`` writes ``json.dumps(doc, sort_keys=True, indent=2)`` and a
newline, dataclasses as objects and tuples as arrays. Its encoder recurses by
exact type and joins a list of one scalar type at once; any other value (a
NaN, a subclass, a dict with other keys) goes to ``json.dumps``, re-indented:
JSON text holds no raw newline. ``from_json`` turns a parsed document into a
dataclass, checking every key and value, or raises one
``DataValidationError("malformed <what>: <path> ...")``.
``check`` runs in each config dataclass's ``__post_init__``: it checks every
field against its type hint with the same decoder, then the section's range
rules, or raises one ``ConfigError("<section>.<key> must be ...")``. So each
key's type is written once, as its hint.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys
import types
import typing
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, DataValidationError


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> tuple[str, ...] | None:
    """The field names of a dataclass; None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _fields(value) -> dict:
    """json's ``default`` hook: a dataclass as a dict of its fields."""
    names = _field_names(type(value))
    if names is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return {name: getattr(value, name) for name in names}


@functools.lru_cache(maxsize=None)
def _sorted_keys(cls) -> tuple | None:
    """A dataclass's sorted field names, each with its key's text."""
    names = _field_names(cls)
    return names and tuple((name, encode_basestring_ascii(name) + ": ") for name in sorted(names))


_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
         bool: lambda v: "true" if v else "false", type(None): lambda v: "null"}


def _encode(value, nl: str, parts: list) -> None:
    """Append ``value`` as ``json.dumps`` writes it on a line that ``nl``,
    a newline and an indent, starts."""
    kind = type(value)
    if kind in _TEXT and (kind is not float or math.isfinite(value)):
        parts.append(_TEXT[kind](value))
        return
    inner = nl + "  "
    if kind is list or kind is tuple:
        kinds = set(map(type, value))
        item_kind = kinds.pop() if len(kinds) == 1 else None
        if item_kind in _TEXT and (item_kind is not float or all(map(math.isfinite, value))):
            parts.append(f"[{inner}{(',' + inner).join(map(_TEXT[item_kind], value))}{nl}]")
            return
        pairs, brackets = [("", item) for item in value], "[]"
    elif kind is dict and all(type(key) is str for key in value):
        pairs, brackets = [(encode_basestring_ascii(key) + ": ", item)
                           for key, item in sorted(value.items())], "{}"
    elif (keys := _sorted_keys(kind)) is not None:
        pairs, brackets = [(text, getattr(value, name)) for name, text in keys], "{}"
    else:
        text = json.dumps(value, sort_keys=True, indent=2, default=_fields)
        parts.append(text.replace("\n", nl))
        return
    if not pairs:
        parts.append(brackets)
        return
    sep = brackets[0] + inner
    for prefix, item in pairs:
        parts.append(sep + prefix)
        _encode(item, inner, parts)
        sep = "," + inner
    parts.append(nl + brackets[1])


def write_json(obj, path) -> None:
    parts = []
    _encode(obj, "\n", parts)
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write("".join(parts) + "\n")


def read_json(path, error=DataValidationError):
    """The parsed document; ``error`` (a package exception class) when the
    file is not UTF-8 JSON. File-system errors pass through."""
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise error(f"{path} is malformed: not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{path} is malformed: not valid JSON ({exc})") from exc


class _Mismatch(Exception):
    """A wrong value; its path is built while unwinding, so only on failure."""

    def __init__(self, expected: str, got: str):
        super().__init__(f"must be {expected}, got {got[:60]}{'...' * (len(got) > 60)}")
        self.path: list[str] = []  # innermost first


def from_json(cls, doc, what: str):
    """``doc`` decoded as the dataclass ``cls``. Objects need exactly the field names as
    keys; values must match the hints: dataclasses, ``list[X]``, ``tuple[X, ...]``,
    ``tuple[X, X, X]``, ``dict[str, X]``, ``float`` (a finite float, or an int within
    float range; so NaN and Infinity, which ``json`` parses, are malformed),
    ``int``, ``bool``, ``str``, ``None`` and unions of these scalars (``int | None``);
    no bool is a number. A tuple hint takes a list or a tuple."""
    try:
        return _decoder(cls)(doc)
    except _Mismatch as exc:
        where = "".join(reversed(exc.path)).lstrip(".") or "document"
        raise DataValidationError(f"malformed {what}: {where} {exc}") from None


def check(section: str, obj, rules) -> None:
    """Check a config dataclass: decode each field through the decoder its hint
    names and store the result back (a tuple hint turns a list into a tuple),
    then apply each ``(key, test, expected)`` range rule to the decoded values."""
    try:
        for name, decode in _field_decoders(type(obj)):
            setattr(obj, name, decode(getattr(obj, name)))
        for name, test, expected in rules:
            if not test(getattr(obj, name)):
                raise _Mismatch(expected, repr(getattr(obj, name)))
    except _Mismatch as exc:
        raise ConfigError(f"{section}.{name}{''.join(reversed(exc.path))} {exc}") from None


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_SCALARS = {  # type -> (description, test); bools are ints to Python but not numbers here
    float: ("a finite number", lambda v: isinstance(v, float) and math.isfinite(v)
            or (_integer(v) and abs(v) <= sys.float_info.max)),
    int: ("an integer", _integer),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("null", lambda v: v is None),
}


@functools.lru_cache(maxsize=None)
def _decoder(tp):
    """The decoding closure for one type hint, built once per type."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS or origin in (typing.Union, types.UnionType):
        options = args if origin else (tp,)
        if not set(options) <= _SCALARS.keys():
            raise TypeError(f"from_json cannot decode {tp!r}")
        expected = " or ".join(_SCALARS[t][0] for t in options)
        tests = [_SCALARS[t][1] for t in options]
        ok = tests[0] if len(tests) == 1 else lambda v: any(test(v) for test in tests)

        def scalar(value):
            if not ok(value):
                raise _Mismatch(expected, repr(value))
            return value
        return scalar
    if _field_names(tp) is not None:
        return _dataclass_decoder(tp)
    size = None  # a fixed tuple's length; its items must share one type
    if origin is dict and args[0] is str:
        kind, build, item_type, expected = dict, dict, args[1], "a JSON object"
    elif origin is list:
        kind, build, item_type, expected = list, list, args[0], "a list"
    elif origin is tuple and len(set(args) - {Ellipsis}) == 1:
        kind, build, item_type, expected = (list, tuple), tuple, args[0], "a list"
        if Ellipsis not in args:
            size, expected = len(args), f"a list of {len(args)} items"
    else:
        raise TypeError(f"from_json cannot decode {tp!r}")
    decode_item = _decoder(item_type)
    ok = _SCALARS[item_type][1] if kind is not dict and item_type in _SCALARS else None

    def container(value):
        if not isinstance(value, kind) or (size is not None and len(value) != size):
            raise _Mismatch(expected, repr(value))
        # a list of scalars is checked in C first (by type, and floats by isfinite);
        # the loop then finds a bad item
        if ok is not None and (
                set(map(type, value)) <= {item_type}
                and (item_type is not float or all(map(math.isfinite, value)))
                or all(map(ok, value))):
            return build(value)
        out = {}
        try:
            for key, item in (value.items() if kind is dict else enumerate(value)):
                out[key] = decode_item(item)
        except _Mismatch as exc:
            exc.path.append(f"[{key!r}]")
            raise
        return out if kind is dict else build(out.values())
    return container


@functools.lru_cache(maxsize=None)
def _field_decoders(cls) -> tuple:
    """``(name, decoder)`` for each field of the dataclass ``cls``, built once."""
    hints = typing.get_type_hints(cls)
    return tuple((name, _decoder(hints[name])) for name in _field_names(cls))


def _dataclass_decoder(cls):
    decoders = _field_decoders(cls)
    keys = frozenset(_field_names(cls))
    expected = f"a JSON object with keys {sorted(keys)}"

    def decode(value):
        if not isinstance(value, dict) or value.keys() != keys:
            raise _Mismatch(expected, f"keys {sorted(map(str, value))}"
                            if isinstance(value, dict) else repr(value))
        kwargs = {}
        try:
            for name, decode_field in decoders:
                kwargs[name] = decode_field(value[name])
        except _Mismatch as exc:
            exc.path.append(f".{name}")
            raise
        return cls(**kwargs)
    return decode


def read_csv(path) -> list[list[str]]:
    """The rows of a CSV file; DataValidationError when it is not UTF-8 CSV.
    File-system errors pass through."""
    try:
        with open(str(path), "r", newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path} is malformed: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise DataValidationError(f"{path} is malformed: not valid CSV ({exc})") from exc


def write_csv(path, rows) -> None:
    """Write ``rows``, the header first, as UTF-8 CSV."""
    with open(str(path), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def read_raw(path, dtype, n, mismatch) -> np.ndarray:
    """The n items of ``dtype`` that fill the file at ``path``, read into one array;
    ``DataValidationError(mismatch(size, expected))`` for a file of another length.

    The size is checked before the array exists, so a header that names a huge
    array beside a short file fails on its length, not on memory.
    """
    expected = n * np.dtype(dtype).itemsize
    with open(str(path), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == expected:
            out = np.empty(n, dtype)
            size = fh.readinto(out)  # short if the file shrank since the check
    if size != expected:
        raise DataValidationError(mismatch(size, expected))
    return out
