"""Deterministic CSV writing: 9 significant digits for floats, plain ints,
LF newlines, rows stable-sorted by the caller's key columns."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[dict]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(row[col]) for col in header))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
