"""Deterministic report rendering: Markdown, JSON (`abch-report-1`) and CSV.

All emitters sort keys, use the fixed basis order, and render exact scalars
as canonical strings, so identical configurations produce byte-identical
output.

`render_json` writes, in one recursive pass, exactly the bytes of
`json.dumps(payload, sort_keys=True, indent=2)` and a newline.  It takes
dicts with `str` keys (written in sorted order), lists, tuples, `str`
(escaped by `json`'s own C encoder), `int`, `bool`, `None` and `float` (its
repr, with NaN and the infinities spelled `NaN`, `Infinity` and
`-Infinity`).  A `Fraction` is written as its canonical string and a `Mat`
as the `abch-matrix-1` object of `matrix_payload`.  Any other value, and
any key that is not a `str`, raises `TypeError`.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, inf
from typing import Dict, List, Sequence

from abch.linalg import Mat
from abch.scalars import render_coeff

MATRIX_SCHEMA = "abch-matrix-1"
REPORT_SCHEMA = "abch-report-1"


def matrix_payload(m: Mat, nl: str) -> str:
    """JSON text of the exact matrix as row-major [re_num, re_den, im_num,
    im_den] entries, each part reduced, indented for a line that starts after
    `nl`.  It reads the canonical integer rows over one denominator that
    `linalg` keeps (its "Storage" paragraph): a stored (re, im) is
    (re + im i) / den, and an entry a row does not store is zero."""
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    den, sep, tail = m._d, "," + i3, i2 + "]"
    zero = f"[{i3}0{sep}1{sep}0{sep}1{tail}"
    entries = []
    for row in m._r:
        for j in range(m.ncols):
            ab = row.get(j)
            if ab is None:
                entries.append(zero)
                continue
            a, b = ab
            g, h = gcd(a, den), gcd(b, den)
            entries.append(f"[{i3}{a // g}{sep}{den // g}{sep}{b // h}{sep}{den // h}{tail}")
    listed = f"[{i2}" + f",{i2}".join(entries) + f"{i1}]" if entries else "[]"
    return (f'{{{i1}"cols": {m.ncols},{i1}"entries": {listed},{i1}"rows": {m.nrows},'
            f'{i1}"schema": "{MATRIX_SCHEMA}"{nl}}}')


def metric_hash(H: Mat) -> str:
    text = ";".join(render_coeff(x) for row in H.rows for x in row)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _write(o, nl: str, out: List[str]) -> None:
    """Append the JSON text of `o` to `out`; `nl` is the newline and indent
    of the line that `o` starts on."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + _quote(k) + ": ")
            _write(o[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, Mat):
        out.append(matrix_payload(o, nl))
    elif isinstance(o, Fraction):
        out.append(_quote(str(o)))
    else:
        raise TypeError(f"{type(o).__name__} is not JSON serializable")


def render_json(payload: dict) -> str:
    out: List[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def grid_md(title: str, grid: Sequence[Sequence]) -> List[str]:
    ncols = len(grid[0]) if grid else 0
    lines = [f"### {title}", ""]
    lines.append("| p\\q | " + " | ".join(str(q) for q in range(ncols)) + " |")
    lines.append("|" + " --- |" * (ncols + 1))
    for p, row in enumerate(grid):
        lines.append("| " + str(p) + " | " + " | ".join(_cell(x) for x in row) + " |")
    lines.append("")
    return lines


def _cell(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def list_md(title: str, values: Sequence) -> List[str]:
    lines = [f"### {title}", ""]
    lines.append("| k | " + " | ".join(str(i) for i in range(len(values))) + " |")
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
