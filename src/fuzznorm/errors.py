"""Exception types shared across the package, and the readers of JSON
input files: one for a file's top-level object, one for the ``entries``
list of a table file and one for a name field. Each turns whatever
makes a file unusable into an ``InputFormatError`` that names the file
and the field."""

import json
from typing import Callable


class FuzznormError(Exception):
    """Base class for package-specific errors."""


class UnknownOperatorError(FuzznormError):
    """An operator id does not name any known connective."""


class DegenerateParameterError(FuzznormError):
    """A construction parameter sits on a degenerate boundary (e or k in {0, 1})."""


class DomainError(FuzznormError):
    """Inputs violate a documented precondition."""


class BudgetExceededError(FuzznormError):
    """A requested enumeration or nested loop exceeds the configured budget."""

    def __init__(self, message: str, size_estimate: int | None = None):
        super().__init__(message)
        self.size_estimate = size_estimate


class TotalityError(FuzznormError):
    """A membership table has no value for a required carrier point."""


class NotALatticeError(FuzznormError):
    """A poset has a pair without a unique meet or join."""


class UnboundedPosetError(FuzznormError):
    """A poset is missing its top or bottom element."""


class InputFormatError(FuzznormError):
    """An input file does not match its documented JSON schema."""

    def __init__(self, message: str, *, path: str | None = None,
                 field: str | None = None, line: int | None = None):
        detail = message
        if path is not None:
            detail += f" (file: {path}"
            if line is not None:
                detail += f", line {line}"
            if field is not None:
                detail += f", field {field!r}"
            detail += ")"
        elif field is not None:
            detail += f" (field {field!r})"
        super().__init__(detail)
        self.path = path
        self.field = field
        self.line = line


def read_json_object(path: str) -> dict:
    """The JSON object stored at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputFormatError(str(exc), path=path) from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc.msg}", path=path,
                              line=exc.lineno) from None
    if not isinstance(obj, dict):
        raise InputFormatError("top-level value must be an object", path=path)
    return obj


def read_entries(obj: dict, arity: int, parse_key: Callable,
                 parse_value: Callable, describe: Callable, *,
                 path: str | None = None) -> dict:
    """The ``entries`` list of a table file as a dict from key tuples to
    values: each entry is ``arity`` key components and a value, read by
    ``parse_key`` and ``parse_value`` (which raise ``ValueError`` on a bad
    one); ``describe(key)`` names a key listed twice."""
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise InputFormatError("a table needs an entries list", path=path,
                               field="entries")
    mapping = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != arity + 1:
            raise InputFormatError(
                f"entry {i} must be [{'key, ' * arity}value]",
                path=path, field="entries")
        try:
            key = tuple(parse_key(k) for k in entry[:arity])
            value = parse_value(entry[arity])
        except ValueError as exc:
            raise InputFormatError(str(exc), path=path, field="entries") from None
        if key in mapping:
            raise InputFormatError(f"{describe(key)} is listed twice",
                                   path=path, field="entries")
        mapping[key] = value
    return mapping


def read_name(obj: dict, field: str, default: str, *,
              path: str | None = None) -> str:
    """``obj[field]``, which must be a string, or ``default`` when absent."""
    name = obj.get(field, default)
    if not isinstance(name, str):
        raise InputFormatError(f"{field} must be a string", path=path,
                               field=field)
    return name
