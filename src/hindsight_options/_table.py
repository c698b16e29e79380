"""CSV text of whole columns, the one writer behind every CSV artifact."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# Rows written per piece, which bounds the cell strings alive at once.
_PIECE_ROWS = 1024


def _cells(column: Sequence) -> Iterator[str]:
    values = np.asarray(column)
    if values.dtype == np.float64:
        return map(repr, values.tolist())  # shortest round-trip, plain-float repr
    return map(str, column)


def csv_table(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """A header row, then one row per index of the equal-length ``columns``.

    A column of float64 values prints ``repr(float(x))`` of each value, the
    shortest repr that reads back to the same float; any other column prints
    ``str`` of each cell.  Rows are formatted a piece at a time, each cell by
    a builtin mapped over the piece, never by a Python function per cell.
    """
    rows = len(columns[0]) if columns else 0
    pieces = [",".join(header), "\n"]
    for first in range(0, rows, _PIECE_ROWS):
        cells = [_cells(column[first:first + _PIECE_ROWS]) for column in columns]
        pieces += ["\n".join(map(",".join, zip(*cells))), "\n"]
    return "".join(pieces)
