"""ASCII table rendering for experiment results."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

Cell = Union[str, int, float, None]


def _fmt(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


@dataclass
class ExperimentTable:
    """One table/figure of the paper, as rows ready to print."""

    experiment: str          # e.g. "Figure 7"
    title: str
    headers: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *cells: Cell) -> None:
        self.rows.append(list(cells))

    def render(self) -> str:
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            f"== {self.experiment}: {self.title} ==",
            " | ".join(h.ljust(w) for h, w in zip(self.headers, widths)),
            sep,
        ]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def column(self, header: str) -> List[Cell]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def render_bars(self, value_header: str, label_header: Optional[str] = None,
                    width: int = 48, mark: float = 1.0) -> str:
        """Render one numeric column as a horizontal ASCII bar chart
        (the shape the paper's figures show).  ``mark`` draws a baseline
        tick (the 1.0x parity line for speedup/efficiency figures)."""
        label_idx = 0 if label_header is None else self.headers.index(label_header)
        value_idx = self.headers.index(value_header)
        rows = [
            (str(r[label_idx]), float(r[value_idx]))
            for r in self.rows
            if isinstance(r[value_idx], (int, float))
            and r[value_idx] is not None
            and math.isfinite(r[value_idx])  # NaN rows (empty-sweep means)
        ]
        if not rows:
            return "(no data)"
        peak = max(max(v for _, v in rows), mark)
        label_w = max(len(l) for l, _ in rows)
        mark_pos = int(width * mark / peak)
        lines = [f"{self.experiment}: {self.title} ({value_header})"]
        for label, value in rows:
            bar_len = int(width * value / peak)
            bar = "#" * bar_len
            if mark_pos < width and len(bar) <= mark_pos:
                bar = bar.ljust(mark_pos) + "|"
            lines.append(f"{label.ljust(label_w)} {bar.ljust(width + 1)} {_fmt(value)}")
        return "\n".join(lines)


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v is not None]
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def arithmean(values: Iterable[float]) -> float:
    vals = [v for v in values if v is not None]
    if not vals:
        return float("nan")
    return sum(vals) / len(vals)
