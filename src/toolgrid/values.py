"""Typed values that travel over workflow connections.

Five value kinds exist: boolean, integer (signed 64-bit), float (binary64),
text (UTF-8), and file references (blob digest + suggested filename). The only
implicit conversion anywhere in the system is integer -> float on a connection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

INT64_MIN = -(2 ** 63)
INT64_MAX = 2 ** 63 - 1


class DatumType(enum.Enum):
    BOOLEAN = "boolean"
    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    FILE = "file"

    @classmethod
    def parse(cls, text: str) -> "DatumType":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown value type {text!r}") from None


@dataclass(frozen=True)
class FileRef:
    """Reference to immutable stored bytes plus the name to materialize under."""

    digest: str
    filename: str

    def __post_init__(self):
        if len(self.digest) != 64 or any(c not in "0123456789abcdef" for c in self.digest):
            raise ValueError(f"not a sha256 hex digest: {self.digest!r}")
        if not self.filename or "/" in self.filename or self.filename in (".", ".."):
            raise ValueError(f"bad suggested filename: {self.filename!r}")


@dataclass(frozen=True)
class Datum:
    """One typed value on a connection."""

    type: DatumType
    value: bool | int | float | str | FileRef

    def __post_init__(self):
        t, v = self.type, self.value
        if t is DatumType.BOOLEAN:
            ok = isinstance(v, bool)
        elif t is DatumType.INTEGER:
            ok = isinstance(v, int) and not isinstance(v, bool) and INT64_MIN <= v <= INT64_MAX
        elif t is DatumType.FLOAT:
            ok = isinstance(v, float)
        elif t is DatumType.TEXT:
            ok = isinstance(v, str)
        else:
            ok = isinstance(v, FileRef)
        if not ok:
            raise ValueError(f"value {v!r} does not fit datum type {t.value}")

    @classmethod
    def boolean(cls, v: bool) -> "Datum":
        return cls(DatumType.BOOLEAN, v)

    @classmethod
    def integer(cls, v: int) -> "Datum":
        return cls(DatumType.INTEGER, v)

    @classmethod
    def of_float(cls, v: float) -> "Datum":
        return cls(DatumType.FLOAT, float(v))

    @classmethod
    def text(cls, v: str) -> "Datum":
        return cls(DatumType.TEXT, v)

    @classmethod
    def file(cls, digest: str, filename: str) -> "Datum":
        return cls(DatumType.FILE, FileRef(digest, filename))

    def literal(self) -> str:
        """Command-line text form for scalar values (files are path-rendered by callers)."""
        if self.type is DatumType.BOOLEAN:
            return "true" if self.value else "false"
        if self.type is DatumType.FILE:
            raise ValueError("file references have no scalar literal")
        if self.type is DatumType.FLOAT:
            return repr(self.value)
        return str(self.value)

    def to_json(self) -> dict:
        if self.type is DatumType.FILE:
            ref = self.value
            return {"type": "file", "digest": ref.digest, "filename": ref.filename}
        return {"type": self.type.value, "value": self.value}


def datum_from_json(obj: dict) -> Datum:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"not a datum object: {obj!r}")
    dtype = DatumType.parse(obj["type"])
    if dtype is DatumType.FILE:
        return Datum(dtype, FileRef(obj["digest"], obj["filename"]))
    return scalar_datum(obj["value"], dtype)


def scalar_datum(value, dtype: DatumType) -> Datum:
    """Build a datum of a declared type from a plain JSON scalar.

    The one rule for seeds, tool outputs and datums read back from JSON.
    Integers are accepted for float endpoints (the one implicit conversion);
    everything else must match exactly. Raises ValueError for a value that
    does not fit, an integer too large for a float included.
    """
    if dtype is DatumType.FLOAT and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError as exc:
            raise ValueError("integer too large for datum type float") from exc
    return Datum(dtype, value)


TEXT = "non-empty text"  # a shape kind: a str that is not empty
_JSON_NAMES = {str: "text", int: "integer", bool: "boolean", dict: "object", list: "list"}


def misfit(shape, doc, where: str = "", *,
           closed: bool = False) -> Optional[tuple[str, str]]:
    """Where a JSON document first departs from ``shape``: ``(location,
    reason)``, with a location like ``components[1].placement``, or None.

    A shape maps each key to its kind: ``str``, ``TEXT``, ``int`` (not a
    bool), ``bool``, ``dict``, ``list``, ``[kind]`` (a list of that kind),
    ``{"*": kind}`` (an object of values of that kind) or a nested shape. A
    key ending in ``?`` may be absent or null. With ``closed``, a key the
    shape does not name is an ``unknown field``.
    """
    if shape is TEXT:
        return None if type(doc) is str and doc else (where, f"expected {TEXT}")
    if type(shape) is type:
        return None if type(doc) is shape else (where, f"expected {_JSON_NAMES[shape]}")
    if type(shape) is list:
        if type(doc) is not list:
            return where, "expected list"
        for i, item in enumerate(doc):
            if found := misfit(shape[0], item, f"{where}[{i}]", closed=closed):
                return found
        return None
    if type(doc) is not dict:
        return where, "expected object"
    prefix = f"{where}." if where else ""
    if "*" in shape:
        for key, item in doc.items():
            if found := misfit(shape["*"], item, f"{prefix}{key}", closed=closed):
                return found
        return None
    if closed:
        for key in doc:
            if f"{key}?" not in shape and (key not in shape or key.endswith("?")):
                return f"{prefix}{key}", "unknown field"
    for key, kind in shape.items():
        name = key[:-1] if key.endswith("?") else key
        item = doc.get(name)
        if item is None:
            if name == key:
                return prefix + name, "missing"
        elif type(kind) is type:  # the common case, checked without a call
            if type(item) is not kind:
                return prefix + name, f"expected {_JSON_NAMES[kind]}"
        elif found := misfit(kind, item, prefix + name, closed=closed):
            return found
    return None


def infer_scalar_type(value) -> DatumType:
    """Value-type inference for config-supplied scalars."""
    if isinstance(value, bool):
        return DatumType.BOOLEAN
    if isinstance(value, int):
        return DatumType.INTEGER
    if isinstance(value, float):
        return DatumType.FLOAT
    if isinstance(value, str):
        return DatumType.TEXT
    raise ValueError(f"unsupported scalar {value!r}")


def convertible(from_type: DatumType, to_type: DatumType) -> bool:
    """Connection-type compatibility: equal, or integer into float."""
    return from_type is to_type or (
        from_type is DatumType.INTEGER and to_type is DatumType.FLOAT
    )


def convert(datum: Datum, to_type: DatumType) -> Datum:
    if datum.type is to_type:
        return datum
    if datum.type is DatumType.INTEGER and to_type is DatumType.FLOAT:
        return Datum(DatumType.FLOAT, float(datum.value))
    raise ValueError(f"no conversion {datum.type.value} -> {to_type.value}")
