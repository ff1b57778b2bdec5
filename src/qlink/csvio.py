"""Result tables: CSV emission with a commented metadata header.

Numeric cells are serialized with ``repr``, which round-trips 64-bit floats
exactly; the bundled reader restores ints, floats (including inf) and
empty-cell None values, so ``read_result_table(write(...))`` reproduces the
table bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

# The interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto,
# about 3.5 MB of every run's peak RSS, for one digest of a short string.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # built without it
        from hashlib import sha256

Cell = Union[int, float, str, None]


def config_hash(config: dict) -> str:
    """Stable hash of the semantic config content (key order ignored): the
    hex SHA-256 of its canonical JSON, the digest ``hashlib`` gives."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)

    def append(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"row with {len(cells)} cells against "
                             f"{len(self.columns)} columns")
        self.rows.append(tuple(cells))


def _format_cell(cell: Cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        raise TypeError("boolean cells are ambiguous; use 0/1")
    if isinstance(cell, (int, float)):
        return repr(cell)
    return str(cell)


def _parse_cell(text: str) -> Cell:
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def write_result_table(table: ResultTable, path: str) -> None:
    """Write ``table`` to ``path``, one line at a time.  A ragged row raises
    before the file is opened."""
    width = len(table.columns)
    if any(len(row) != width for row in table.rows):
        raise ValueError("ragged row in result table")
    with open(path, "w", newline="\n") as handle:
        handle.writelines(f"# {key} = {value}\n" for key, value in table.metadata.items())
        handle.write(",".join(table.columns) + "\n")
        handle.writelines(",".join(map(_format_cell, row)) + "\n" for row in table.rows)


def read_result_table(path: str) -> ResultTable:
    metadata: dict[str, str] = {}
    columns: Optional[list[str]] = None
    rows: list[tuple] = []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            rows.append(tuple(_parse_cell(c) for c in line.split(",")))
    if columns is None:
        raise ValueError(f"no header line found in {path}")
    return ResultTable(columns=columns, rows=rows, metadata=metadata)
