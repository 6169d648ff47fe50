"""Parser for structure-equation model files (`.cplx`).

A model file describes a complex nilmanifold or torus through the exterior
derivatives of an invariant (1,0)-coframe phi1..phiN:

    n = 3
    name = iwasawa
    d phi3 = -1 * phi1 ^ phi2

Coefficients are Gaussian rationals written as `a`, `a/b`, `i`, `3i` or
`(a/b + c/d i)`.  Conjugate equations are never written; they are generated
by conjugation downstream.  Every wedge monomial is normalised to strictly
increasing holomorphic indices followed by increasing antiholomorphic
indices, with the reordering sign absorbed into the coefficient, so equal
models have equal canonical forms.  The dimension n is at most MAX_N: the
algebra is 4^n-dimensional, so a larger n is refused before anything is
built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from abch.scalars import QQi, render_coeff


# Largest complex dimension a `.cplx` or `.herm` file may declare.  At n = 6
# the largest bidegree, A^{3,3}, is 400-dimensional.
MAX_N = 6


class ModelError(Exception):
    """Base class for model-file rejections; carries line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


class UnknownGenerator(ModelError):
    """Generator index outside 1..n."""


class BidegreeViolation(ModelError):
    """A phibar ^ phibar term appeared in d phi: the input is not the
    structure of an integrable complex coframe."""


class ModelSyntaxError(ModelError):
    """Malformed coefficient, wedge or statement."""


class DuplicateEquation(ModelError):
    """A statement repeated for the same key, e.g. two `d phiK =` lines for
    the same K."""


class InputTooLarge(ModelError):
    """A declared size exceeds its documented limit."""


@dataclass(frozen=True)
class ComplexModel:
    """Structure constants of d on the (1,0)-coframe.

    d20[k] maps (i, j) with i < j to the coefficient of phi_i ^ phi_j in
    d phi_k; d11[k] maps (i, j) to the coefficient of phi_i ^ phibar_j.
    Generators absent from both maps have d phi_k = 0.
    """

    n: int
    name: str = ""
    d20: Dict[int, Dict[Tuple[int, int], QQi]] = field(default_factory=dict)
    d11: Dict[int, Dict[Tuple[int, int], QQi]] = field(default_factory=dict)


_GEN_RE = re.compile(r"^(phibar|phi)([0-9]+)$")
_NAT_RE = re.compile(r"^[0-9]+$")
_RAT_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")
_IMAG_RE = re.compile(r"^(-?)(?:([0-9]+(?:/[0-9]+)?)\s*)?i$")


def parse_int(text: str, line: int = 0, col: int = 0) -> int:
    """A decimal integer; one too long to convert is a syntax error."""
    try:
        return int(text)
    except ValueError as exc:
        raise ModelSyntaxError(f"bad integer {text[:20]!r}", line, col) from exc


def parse_dimension(text: str, line: int, limit: int = MAX_N) -> int:
    """The right-hand side of `n = <int>`: an integer in 1..limit.  The digit
    count is checked first, so no oversized integer is ever built."""
    digits = text.lstrip("0")
    if not _NAT_RE.match(text) or not digits:
        raise ModelSyntaxError(f"bad dimension {text[:20]!r}", line, 1)
    if len(digits) > len(str(limit)) or int(digits) > limit:
        raise InputTooLarge(f"dimension n = {text[:20]} exceeds the limit {limit}", line, 1)
    return int(digits)


def statements(text: str) -> List[Tuple[int, str, str]]:
    """The `lhs = rhs` statements of an input file as (line, lhs, rhs), each
    side stripped.  `#` starts a comment and blank lines are skipped; any
    other line without '=' is a ModelSyntaxError at that line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelSyntaxError("statement needs '='", lineno, 1)
        lhs, rhs = line.split("=", 1)
        out.append((lineno, lhs.strip(), rhs.strip()))
    return out


def record_once(seen: set, key: str, line: int) -> None:
    """Add the canonical key of a statement to `seen`; a repeat raises
    DuplicateEquation, so no statement silently overrides an earlier one."""
    if key in seen:
        raise DuplicateEquation(f"{key} given twice", line, 1)
    seen.add(key)


def _parse_rational(text: str, line: int, col: int) -> Fraction:
    m = _RAT_RE.match(text)
    if not m:
        raise ModelSyntaxError(f"bad rational {text!r}", line, col)
    num = parse_int(m.group(1), line, col)
    den = parse_int(m.group(2), line, col) if m.group(2) else 1
    if den == 0:
        raise ModelSyntaxError("zero denominator", line, col)
    return Fraction(num, den)


def parse_coeff(text: str, line: int = 0, col: int = 0) -> QQi:
    """Parse `a`, `a/b`, `i`, `-i`, `3i`, `1/2i` or `(a/b + c/d i)`."""
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        inner = t[1:-1].strip()
        m = re.match(r"^(.*?)\s*([+-])\s*((?:[0-9]+(?:/[0-9]+)?\s*)?i)$", inner)
        if not m:
            raise ModelSyntaxError(f"bad complex coefficient {text!r}", line, col)
        re_part = _parse_rational(m.group(1).strip(), line, col)
        im_text = m.group(3).strip()
        im_mag = Fraction(1) if im_text == "i" else _parse_rational(im_text[:-1].strip(), line, col)
        im_part = im_mag if m.group(2) == "+" else -im_mag
        return QQi(re_part, im_part)
    m = _IMAG_RE.match(t)
    if m:
        mag = Fraction(1) if m.group(2) is None else _parse_rational(m.group(2), line, col)
        return QQi(0, -mag if m.group(1) == "-" else mag)
    return QQi(_parse_rational(t, line, col))


def _parse_gen(token: str, n: int, line: int, col: int) -> Tuple[bool, int]:
    """Returns (is_conjugate, index)."""
    m = _GEN_RE.match(token.strip())
    if not m:
        raise ModelSyntaxError(f"bad generator {token!r}", line, col)
    k = parse_int(m.group(2), line, col)
    if not 1 <= k <= n:
        raise UnknownGenerator(f"generator index {k} outside 1..{n}", line, col)
    return m.group(1) == "phibar", k


def _split_terms(rhs: str, line: int):
    """Split on top-level + and - (respecting parentheses); yields (sign, term, col)."""
    terms = []
    depth = 0
    cur = []
    sign = 1
    col = 1
    start_col = 1
    for idx, ch in enumerate(rhs):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ModelSyntaxError("unbalanced parenthesis", line, idx + 1)
        if depth == 0 and ch in "+-" and cur and "".join(cur).strip():
            terms.append((sign, "".join(cur).strip(), start_col))
            sign = 1 if ch == "+" else -1
            cur = []
            start_col = idx + 2
            continue
        if depth == 0 and ch == "-" and not "".join(cur).strip():
            sign = -sign
            continue
        cur.append(ch)
    if depth != 0:
        raise ModelSyntaxError("unbalanced parenthesis", line, len(rhs))
    tail = "".join(cur).strip()
    if not tail:
        raise ModelSyntaxError("empty term", line, start_col)
    terms.append((sign, tail, start_col))
    return terms


def _parse_term(term: str, n: int, line: int, col: int):
    """One `[coeff *] gen ^ gen` term -> (coeff, (bar1, i1), (bar2, i2))."""
    if "^" not in term:
        raise ModelSyntaxError("term lacks a wedge", line, col)
    left, right = term.split("^", 1)
    if "^" in right:
        raise ModelSyntaxError("only two-generator wedges are allowed", line, col)
    right_gen = right.strip()
    left = left.strip()
    if "*" in left:
        coeff_text, gen_text = left.rsplit("*", 1)
        coeff = parse_coeff(coeff_text.strip(), line, col)
    else:
        coeff_text, gen_text = None, left
        coeff = QQi(1)
    g1 = _parse_gen(gen_text.strip(), n, line, col)
    g2 = _parse_gen(right_gen, n, line, col)
    return coeff, g1, g2


def parse_model(text: str) -> ComplexModel:
    """Parse a `.cplx` model description; raises a ModelError subclass on
    any malformed input."""
    n: Optional[int] = None
    name = ""
    d20: Dict[int, Dict[Tuple[int, int], QQi]] = {}
    d11: Dict[int, Dict[Tuple[int, int], QQi]] = {}
    seen = set()

    for lineno, lhs, rhs in statements(text):
        if lhs == "n":
            record_once(seen, lhs, lineno)
            n = parse_dimension(rhs, lineno)
            continue
        if lhs == "name":
            record_once(seen, lhs, lineno)
            name = rhs
            continue
        head = lhs.split(None, 1)
        m = _GEN_RE.match(head[1]) if len(head) == 2 and head[0] == "d" else None
        if not m or m.group(1) != "phi":
            raise ModelSyntaxError(f"bad statement {lhs!r}", lineno, 1)
        if n is None:
            raise ModelSyntaxError("n must be declared before d equations", lineno, 1)
        k = parse_int(m.group(2), lineno, 1)
        if not 1 <= k <= n:
            raise UnknownGenerator(f"generator index {k} outside 1..{n}", lineno, 1)
        record_once(seen, f"d phi{k}", lineno)

        part20: Dict[Tuple[int, int], QQi] = {}
        part11: Dict[Tuple[int, int], QQi] = {}
        for sign, term, col in _split_terms(rhs, lineno):
            coeff, (bar1, i1), (bar2, i2) = _parse_term(term, n, lineno, col)
            coeff = coeff if sign == 1 else -coeff
            if bar1 and bar2:
                raise BidegreeViolation(
                    f"phibar{i1} ^ phibar{i2} in d phi{k} has bidegree (0,2)", lineno, col
                )
            if not bar1 and not bar2:
                if i1 == i2:
                    continue  # phi ^ phi with equal index vanishes
                key = (i1, i2) if i1 < i2 else (i2, i1)
                if i1 > i2:
                    coeff = -coeff
                part20[key] = part20.get(key, QQi(0)) + coeff
            else:
                if bar1:  # phibar ^ phi = - phi ^ phibar
                    i1, i2 = i2, i1
                    coeff = -coeff
                part11[(i1, i2)] = part11.get((i1, i2), QQi(0)) + coeff
        part20 = {key: c for key, c in sorted(part20.items()) if not c.is_zero()}
        part11 = {key: c for key, c in sorted(part11.items()) if not c.is_zero()}
        if part20:
            d20[k] = part20
        if part11:
            d11[k] = part11

    if n is None:
        raise ModelSyntaxError("missing `n = <int>`", 0, 0)
    return ComplexModel(n=n, name=name, d20=d20, d11=d11)


def render_model(model: ComplexModel) -> str:
    """Canonical text form; parse(render(model)) == model."""
    lines = [f"n = {model.n}"]
    if model.name:
        lines.append(f"name = {model.name}")
    for k in sorted(set(model.d20) | set(model.d11)):
        terms = []
        for (i, j), c in sorted(model.d20.get(k, {}).items()):
            terms.append(f"{render_coeff(c)} * phi{i} ^ phi{j}")
        for (i, j), c in sorted(model.d11.get(k, {}).items()):
            terms.append(f"{render_coeff(c)} * phi{i} ^ phibar{j}")
        lines.append(f"d phi{k} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def load_model(path: str) -> ComplexModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
