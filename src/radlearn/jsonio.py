"""The one JSON writer behind every JSON artifact.

Keys are sorted, the indent is two spaces and the file ends in a newline, so
a rerun on the same inputs writes the same bytes.
"""

from __future__ import annotations

import json


def write_json(obj, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
