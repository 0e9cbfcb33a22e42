"""Row/cell bookkeeping for reproduced parameter tables.

Every table builder emits TableRow objects whose cells pair a stored reference
value with the value this package derives.  Reference values are kept verbatim;
when a stored value is judged a transcription error, the cell carries the
derived correction and matching is judged against the correction, with the
original value preserved for the diff.  Renderers are deterministic: identical
rows produce byte-identical CSV and markdown.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


@dataclass(frozen=True)
class Cell:
    """One table cell: stored reference value vs. derived value."""

    printed: object = None
    computed: object = None
    correction: object = None
    note: str = ""

    @property
    def expected(self):
        return self.printed if self.correction is None else self.correction

    @property
    def match(self) -> bool:
        if self.printed is None or self.computed is None:
            return True  # blank cell or literal (underived) fixture value
        return self.computed == self.expected

    @property
    def is_correction(self) -> bool:
        return self.correction is not None

    def render(self) -> str:
        if self.computed is None:
            return _fmt(self.printed)
        return _fmt(self.computed)


@dataclass(frozen=True)
class TableRow:
    """A full table row with per-cell match state and an optional scheme."""

    label: str
    style: str = ""  # "shaded" | "bold" | ""
    cells: dict = field(default_factory=dict)
    scheme: object = None

    @property
    def ok(self) -> bool:
        return all(c.match for c in self.cells.values())


def columns_of(rows) -> list[str]:
    cols: list[str] = []
    for row in rows:
        for name in row.cells:
            if name not in cols:
                cols.append(name)
    return cols


def to_markdown(rows, columns=None) -> str:
    columns = columns or columns_of(rows)
    head = ["row", "style", *columns]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for row in rows:
        vals = [row.label, row.style]
        for name in columns:
            cell = row.cells.get(name)
            vals.append("" if cell is None else cell.render())
        lines.append("| " + " | ".join(vals) + " |")
    return "\n".join(lines) + "\n"


def to_csv(rows, columns=None) -> str:
    columns = columns or columns_of(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["row", "style", *columns])
    for row in rows:
        vals = [row.label, row.style]
        for name in columns:
            cell = row.cells.get(name)
            vals.append("" if cell is None else cell.render())
        writer.writerow(vals)
    return buf.getvalue()


def check_report(rows) -> tuple[bool, list[str]]:
    """(all_match, diff lines).  Annotated corrections are informational."""
    ok = True
    lines: list[str] = []
    for row in rows:
        for name, cell in row.cells.items():
            if cell.is_correction:
                status = "corrected" if cell.match else "MISMATCH"
                lines.append(
                    f"{row.label} [{name}]: stored {_fmt(cell.printed)} -> derived "
                    f"{_fmt(cell.computed)} ({status}"
                    + (f": {cell.note})" if cell.note else ")")
                )
            elif not cell.match:
                lines.append(
                    f"{row.label} [{name}]: stored {_fmt(cell.printed)} != derived {_fmt(cell.computed)}"
                )
            if not cell.match:
                ok = False
    return ok, lines
