"""Plain-text rendering of experiment outputs.

The benchmark harness prints every figure's underlying rows/series with
these helpers, so a bench run reproduces the paper's reported data as text.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - numpy loads where series are rendered
    import numpy as np

__all__ = ["format_table", "format_series", "format_gains"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table; floats rendered with one decimal."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            return f"{value:.1f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in text_rows))
        if text_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    label: str,
    times: np.ndarray,
    values: np.ndarray,
    resample_s: float = 1.0,
    width_unit: float = 10.0,
) -> str:
    """One-line-per-sample rendering of a throughput series.

    The series is resampled (mean) to ``resample_s`` so the output stays
    readable, with a crude bar of '#' characters (one per ``width_unit``)
    so timeline *shapes* — bursts, plateaus, step-downs — are visible in
    bench logs without plotting.
    """
    import numpy as np

    if len(times) == 0:
        return f"{label}: (empty)"
    step = max(1, int(round(resample_s / (times[1] - times[0])))) if len(times) > 1 else 1
    lines = [f"{label} (MiB/s, {resample_s:.1f}s buckets)"]
    for start in range(0, len(values), step):
        chunk = values[start : start + step]
        mean = float(np.mean(chunk))
        bar = "#" * int(mean / width_unit)
        lines.append(f"  t={times[start]:7.1f}s  {mean:8.1f}  {bar}")
    return "\n".join(lines)


def format_gains(gains: Dict[str, float], title: str) -> str:
    """Render a per-job gain/loss map as a table."""
    rows: List[List[object]] = [
        [job, gains[job]] for job in sorted(gains) if job != "aggregate"
    ]
    if "aggregate" in gains:
        rows.append(["aggregate", gains["aggregate"]])
    return format_table(["job", "gain_%"], rows, title=title)
