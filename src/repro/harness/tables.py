"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import Any, Sequence


def _cell(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.2f}"
    return str(v)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str = "") -> str:
    """Fixed-width table with a box, like the paper's result tables."""
    cells = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    out = []
    if title:
        out.append(title)
    out.append(sep)
    out.append(
        "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|"
    )
    out.append(sep)
    for r in cells:
        out.append(
            "|" + "|".join(f" {v:<{w}} " for v, w in zip(r, widths)) + "|"
        )
    out.append(sep)
    return "\n".join(out)

