"""Deterministic report rendering: Markdown, JSON (`abch-report-1`) and CSV.

All emitters sort keys, use the fixed basis order, and render exact scalars
as canonical strings, so identical configurations produce byte-identical
output.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Dict, List, Sequence

import numpy as np

from abch.linalg import Mat
from abch.scalars import QQi, render_coeff

MATRIX_SCHEMA = "abch-matrix-1"
REPORT_SCHEMA = "abch-report-1"


def matrix_payload(m: Mat) -> dict:
    """Exact matrix as row-major [re_num, re_den, im_num, im_den] entries."""
    return {
        "schema": MATRIX_SCHEMA,
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [
            [
                x.re.numerator,
                x.re.denominator,
                x.im.numerator,
                x.im.denominator,
            ]
            for row in m.rows
            for x in row
        ],
    }


def metric_hash(H: Mat) -> str:
    text = ";".join(render_coeff(x) for row in H.rows for x in row)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _encode(obj):
    """JSON value of a report object that `json` cannot encode itself."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, QQi):
        return render_coeff(obj)
    if isinstance(obj, Mat):
        return matrix_payload(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_encode) + "\n"


def grid_md(title: str, grid: Sequence[Sequence], row_label: str = "p\\q") -> List[str]:
    ncols = len(grid[0]) if grid else 0
    lines = [f"### {title}", ""]
    lines.append("| " + row_label + " | " + " | ".join(str(q) for q in range(ncols)) + " |")
    lines.append("|" + " --- |" * (ncols + 1))
    for p, row in enumerate(grid):
        lines.append("| " + str(p) + " | " + " | ".join(_cell(x) for x in row) + " |")
    lines.append("")
    return lines


def _cell(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def list_md(title: str, values: Sequence, label: str = "k") -> List[str]:
    lines = [f"### {title}", ""]
    lines.append("| " + label + " | " + " | ".join(str(i) for i in range(len(values))) + " |")
    lines.append("|" + " --- |" * (len(values) + 1))
    lines.append("| dim | " + " | ".join(_cell(v) for v in values) + " |")
    lines.append("")
    return lines


def render_csv_grid(title: str, grid: Sequence[Sequence]) -> List[str]:
    lines = [f"# {title}"]
    for row in grid:
        lines.append(",".join(_cell(x) for x in row))
    return lines


def checks_md(checks: Dict[str, bool]) -> List[str]:
    lines = ["### checks", ""]
    for name in sorted(checks):
        lines.append(f"- {name}: {'ok' if checks[name] else 'FAIL'}")
    lines.append("")
    return lines
