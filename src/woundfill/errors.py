"""Exception hierarchy shared across the package, and its one JSON reader and writer.

The CLI maps these onto exit codes: config problems -> 1, data problems
(bad meshes, bad datasets, nothing to extract) -> 2, numerical failures -> 3.

The config, manifest.json and the checkpoint's scalar header are read by
:func:`read_json`, which checks each JSON value against the annotation of the
field it fills; :func:`from_json` builds a dataclass that way, so a damaged
file, one with a key the dataclass does not declare at any depth, or one
whose values break a rule the dataclass checks when it is built, raises
DataError naming it, and :func:`as_json` writes one back. Arrays do not go
through JSON: the checkpoint stores them as raw blocks.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import fields, is_dataclass
from functools import cache
from types import UnionType


class WoundfillError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WoundfillError):
    """Invalid configuration: unknown keys, bad ranges, inconsistent flags."""


class MeshError(WoundfillError):
    """Invalid mesh data or an operation applied to an unsuitable mesh."""


class MeshFormatError(MeshError):
    """Unparseable or unsupported mesh file content."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonManifoldError(MeshError):
    """An edge is incident to more than two faces."""

    def __init__(self, edge, count):
        edge = tuple(int(v) for v in edge)
        super().__init__(f"non-manifold edge {edge}: {count} incident faces")
        self.edge = edge
        self.count = count


class DataError(WoundfillError):
    """Dataset-level problem: missing files, mismatched topology, empty split."""


class NoFillingError(DataError):
    """Outlier analysis found nothing to extract."""


class NumericalError(WoundfillError):
    """Non-finite values where finite ones are required, or divergence."""


def located(exc: MeshError | NumericalError, where: str) -> WoundfillError:
    """A NumericalError, or else a MeshError, whose message is exc's prefixed with where;
    the class decides the CLI exit code, so it stays what exc's class gives."""
    kind = NumericalError if isinstance(exc, NumericalError) else MeshError
    return kind(f"{where}: {exc}")


_SCALARS = {int: int, float: (int, float), str: str, bool: bool, type(None): type(None)}


@cache
def _json_fields(cls) -> tuple[tuple[str, str, object], ...]:
    """(attribute, JSON key, annotation) per field; a field's metadata["json"] renames its key."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("json", f.name), hints[f.name]) for f in fields(cls))


def read_json(value, hint, path, what: str):
    """A JSON value read as the annotation `hint`; TypeError if it does not fit.

    int, str, bool and None take their own JSON type, float any finite number
    (not NaN or Infinity, which Python's json reads, nor an integer too large
    for float64), and no other class a bool; `X | Y` takes what fits either;
    tuple[X, Y] a list of that length and tuple[X, ...] one of any length,
    both read as tuples; a dataclass an object, read by from_json, whose
    errors name path and what. Any other class (dict, list) takes its
    instances as they are.

    Generic hints are matched on their origin before the plain-class branch:
    on Python 3.10, isinstance(tuple[int, ...], type) is True.
    """
    kinds = _SCALARS.get(hint)
    if kinds is not None:
        if isinstance(value, kinds) and (hint is bool or not isinstance(value, bool)):
            if hint is not float or abs(value) <= sys.float_info.max:  # False for NaN
                return value
    elif is_dataclass(hint):
        return from_json(hint, value, path, what)
    elif (origin := typing.get_origin(hint)) in (UnionType, typing.Union):
        for arg in typing.get_args(hint):
            try:
                return read_json(value, arg, path, what)
            except TypeError:
                pass
    elif origin is tuple:
        args = typing.get_args(hint)
        if isinstance(value, (list, tuple)):
            if args[1:] == (Ellipsis,):
                return tuple(read_json(v, args[0], path, what) for v in value)
            if len(value) == len(args):
                return tuple(read_json(v, a, path, what) for v, a in zip(value, args))
    elif isinstance(hint, type):
        if isinstance(value, hint):
            return value
    raise TypeError(hint)


def from_json(cls, doc, path, what: str):
    """The dataclass `cls` from a JSON object holding exactly its fields, each read as its
    annotation; a missing, mistyped or unknown key is a DataError naming it and path, and
    so is a ConfigError or DataError that cls raises when it is built from the values."""
    specs = _json_fields(cls)
    values = []
    for _, key, hint in specs:
        if not isinstance(doc, dict) or key not in doc:
            raise DataError(f"{path}: {what} lacks {key!r}")
        try:
            values.append(read_json(doc[key], hint, path, what))
        except TypeError:
            raise DataError(f"{path}: {what} {key!r} has the wrong type") from None
    if len(doc) > len(specs):  # every declared key is present, so the others are unknown
        unknown = min(doc.keys() - {key for _, key, _ in specs})
        raise DataError(f"{path}: {what} has unknown key {unknown!r} in {cls.__name__}")
    try:
        return cls(*values)
    except (ConfigError, DataError) as exc:
        raise DataError(f"{path}: invalid {what}: {exc}") from exc


def as_json(value):
    """The inverse of from_json: dataclasses as objects, tuples as lists."""
    if is_dataclass(value):
        return {key: as_json(getattr(value, name)) for name, key, _ in _json_fields(type(value))}
    if isinstance(value, (tuple, list)):
        return [as_json(v) for v in value]
    return value
