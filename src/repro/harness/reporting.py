"""Plain-text tables for experiment output.

Every experiment driver returns a :class:`Table`; the benchmark suite
prints it (so ``pytest benchmarks/ -s`` regenerates the paper's rows)
and writes it under ``results/``.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def _format_cell(cell: Cell, precision: int) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


class Table:
    """A titled table with aligned text rendering.

    Args:
        title: table caption (e.g. ``"Fig. 9a: output error"``).
        headers: column names; the first column is left-aligned.
        precision: decimal places for float cells.
    """

    def __init__(self, title: str, headers: Sequence[str], precision: int = 3):
        self.title = title
        self.headers = list(headers)
        self.precision = precision
        self.rows: List[List[Cell]] = []
        self.notes: List[str] = []

    def add_row(self, *cells: Cell) -> None:
        """Append one row; cell count must match the headers."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Append a footnote line."""
        self.notes.append(note)

    def column(self, name: str) -> List[Cell]:
        """All values of a named column."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def row_map(self, key_column: int = 0) -> dict:
        """Rows keyed by one column's value."""
        return {row[key_column]: row for row in self.rows}

    def render(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[_format_cell(c, self.precision) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_row(parts: Iterable[str]) -> str:
            """Pad one row: first column left-aligned, the rest right."""
            out = []
            for i, part in enumerate(parts):
                if i == 0:
                    out.append(part.ljust(widths[i]))
                else:
                    out.append(part.rjust(widths[i]))
            return "  ".join(out)

        lines = [self.title, "=" * len(self.title)]
        lines.append(fmt_row(self.headers))
        lines.append(fmt_row("-" * w for w in widths))
        lines.extend(fmt_row(row) for row in cells)
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def render_bars(self, width: int = 44, max_value: Optional[float] = None) -> str:
        """ASCII grouped-bar rendering — the paper's figures as text.

        Each row becomes a group; each numeric column a bar scaled to
        the table's maximum (or ``max_value``).
        """
        numeric_cols = [
            i
            for i in range(1, len(self.headers))
            if any(isinstance(row[i], (int, float)) for row in self.rows)
        ]
        if not numeric_cols:
            return self.render()
        peak = max_value
        if peak is None:
            peak = max(
                (abs(row[i]) for row in self.rows for i in numeric_cols
                 if isinstance(row[i], (int, float))),
                default=1.0,
            )
        peak = peak or 1.0
        label_w = max(
            [len(str(row[0])) for row in self.rows]
            + [len(self.headers[i]) for i in numeric_cols]
        )
        lines = [self.title, "=" * len(self.title)]
        for row in self.rows:
            lines.append(str(row[0]))
            for i in numeric_cols:
                cell = row[i]
                if not isinstance(cell, (int, float)):
                    continue
                filled = int(round(abs(cell) / peak * width))
                bar = "#" * filled
                lines.append(
                    f"  {self.headers[i]:>{label_w}} |{bar:<{width}}| "
                    f"{_format_cell(cell, self.precision)}"
                )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "precision": self.precision,
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    #: Unified serialization name shared with ``SystemResult``,
    #: ``EnergyReport``, ``ConfigSpec`` and ``RunRecord`` (docs/api.md).
    to_dict = as_dict

    @classmethod
    def from_dict(cls, data: dict) -> "Table":
        """Rebuild a table serialized by :meth:`as_dict`."""
        table = cls(data["title"], data["headers"], data.get("precision", 3))
        for row in data.get("rows", []):
            table.add_row(*row)
        for note in data.get("notes", []):
            table.add_note(note)
        return table

    def save(self, directory: str = "results", filename: Optional[str] = None) -> str:
        """Write the rendering to ``directory/filename``; returns path."""
        os.makedirs(directory, exist_ok=True)
        if filename is None:
            slug = "".join(
                ch if ch.isalnum() else "_" for ch in self.title.lower()
            ).strip("_")
            filename = f"{slug[:60]}.txt"
        path = os.path.join(directory, filename)
        with open(path, "w") as fh:
            fh.write(self.render() + "\n")
        return path

    def __str__(self) -> str:
        return self.render()


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate for ratios)."""
    vals = [v for v in values if v is not None]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    log_sum = sum(math.log(v) for v in vals)
    return math.exp(log_sum / len(vals))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average, ignoring missing cells."""
    vals = [v for v in values if v is not None]
    return sum(vals) / len(vals) if vals else 0.0
