"""Exception hierarchy shared across the package, and the one reader and
writer of JSON files; the reader reports a file that is no JSON document
as SchemaError."""

import json


class ItlcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ItlcError):
    """Malformed formula text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FragmentError(ItlcError):
    """Formula lies outside the fragment an operation supports."""


class SigmaMismatchError(ItlcError):
    """Two values built over different subformula contexts were combined."""


class KitError(ItlcError):
    """Grafting attempted with a root type and children that do not form a kit."""


class SchemaError(ItlcError):
    """A JSON document violated the expected file schema; names the field."""


class CapExceeded(ItlcError):
    """A configured resource cap was exhausted before the search finished."""


class InvariantViolation(ItlcError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def read_json(path):
    """The JSON document in a file; SchemaError if there is none."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:
            raise SchemaError(f"{path}: not a JSON document ({err})") from None


def write_json(path, data) -> None:
    """Write data as JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")
