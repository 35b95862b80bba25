"""Readers for the report files, for tests only."""

import json
from pathlib import Path

from frfselect.dataio import DatasetFormatError

# characters at which str.splitlines breaks a line, beyond \n and \r; in a
# data file they are cell text
LINE_BREAKS_INSIDE_A_LINE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def load_report(path) -> dict:
    """Re-parse a report.json bundle."""
    return json.loads(Path(path).read_text())


def load_delimited_table(path) -> list[dict[str, str]]:
    """Re-parse any of the emitted CSV tables into a list of string dicts."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise DatasetFormatError(f"{path}: empty file")
    columns = lines[0].split(",")
    out = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(columns):
            raise DatasetFormatError(
                f"{path}: inconsistent row width, line {lineno}"
            )
        out.append(dict(zip(columns, cells)))
    return out
