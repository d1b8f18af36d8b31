"""Exception types shared across the package, and the one reader that
turns an unusable JSON input file into an ``InputFormatError``."""

import json


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
