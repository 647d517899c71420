"""The one JSON writer behind every JSON artifact, the one JSON reader and
the one CSV reader.

Keys are sorted, the indent is two spaces and the file ends in a newline, so
a rerun on the same inputs writes the same bytes.
"""

from __future__ import annotations

import csv
import json

from .errors import DataValidationError


def write_json(obj, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


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
