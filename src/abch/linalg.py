"""Exact linear algebra over Q(i): Gaussian elimination, ranks, nullspaces,
subspace arithmetic, Gram adjoints, complements and orthogonal projections.

Storage.  A `Mat` holds one positive integer denominator `den` and sparse
rows `{column: (re, im)}` of Python ints, so entry (i, j) is
(re + im i) / den.  Every matrix is kept canonical: no row stores a zero
entry, and gcd(den, every part) == 1 (a zero matrix has den 1).  Equal
matrices therefore have equal storage, and `==` compares it structurally.
Every operation works on the integer parts of the nonzero entries only and
normalises its result with one gcd pass over them (`_canon`, which stops at
the first part coprime to the denominator); operations that cannot create a
common factor (negation, conjugation, transposition, and stacking of
canonical blocks over the lcm of their denominators) skip it.  A product,
sum, difference or elimination with an all-zero operand returns at once,
with no row work: the zero matrix, the other operand (or its negation), or
the zero echelon form.  `QQi` values
appear only at the edges: the constructors fed by the parsers
(`Mat(rows)`, `Mat.from_entries`), `m[i, j]`, `col`, `rows` and `matvec`,
which rendering and witnesses read.  `Mat.from_parts` takes integer rows
over a denominator directly, as the differentials and conjugations are
built.  Row dicts are never changed in place once a `Mat` holds them, so
results may share rows with their operands.

Every rank, nullspace, image and solve goes through `Mat.rref`, which
eliminates over the Gaussian integers Z[i] starting from the stored rows,
each divided by the gcd of its parts.  Gauss-Jordan steps
`row <- pivot * row - factor * pivot_row` touch only the nonzero entries of
the two rows, and each result is divided by the rational-integer gcd of all
its parts (after Bareiss, Math. Comp. 22 (1968)).  That keeps numerators
small only while every pivot is a rational integer.  A Gaussian-integer
common factor, such as a complex pivot, never leaves the row: under the
dense complex metric `dense5` of ROADMAP's Baseline, degree-2 rows reach
632,850-bit parts.  ROADMAP item 3 is the fix (exact division by the
previous pivot, or a certified modular elimination).  Only at the end is
each pivot row divided by its pivot, and the rows are put over one common
denominator.  Each unfinished row is filed under its leading column: the
pivot column is the smallest one filed and the pivot row the lowest-index
row filed there, and column c is eliminated only from the rows filed under
c (then refiled) and from the finished rows that an index of their columns
names.  The reduced row echelon form of a matrix is unique, so every rank,
echelon form and nullspace basis is bit-reproducible and independent of how
the elimination is carried out.  `det`, `compound` and `leading_minors`
use Bareiss's exact-division elimination over Z[i].

`to_numpy` gives the same floats as converting each entry through
`Fraction`: `float(Fraction)` divides the reduced numerator by the reduced
denominator, Python's `int / int` is correctly rounded, and the correctly
rounded value of a rational does not depend on the fraction that names it,
so `re / den` and `im / den` are bit-identical to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from abch.scalars import QQi, ZERO

Row = Dict[int, Tuple[int, int]]


class ShapeMismatch(Exception):
    """Operands have incompatible shapes."""


def _new(rows: List[Row], den: int, ncols: int) -> "Mat":
    """A Mat over storage that is already canonical."""
    m = object.__new__(Mat)
    m._r, m._d, m.nrows, m.ncols = rows, den, len(rows), ncols
    return m


def _canon(rows: List[Row], den: int, ncols: int) -> "Mat":
    """A Mat over zero-free rows with a positive denominator, divided by the
    gcd of the denominator and every part."""
    g = den
    if g != 1:
        for row in rows:
            for a, b in row.values():
                g = gcd(g, a, b)
                if g == 1:
                    break
            if g == 1:
                break
        if g != 1:
            rows = [{j: (a // g, b // g) for j, (a, b) in row.items()} for row in rows]
            den //= g
    return _new(rows, den, ncols)


def _primitive(row: Row) -> Row:
    """Divide a sparse Z[i] row by the integer gcd of all its parts."""
    g = gcd(*(v for ab in row.values() for v in ab))
    if g <= 1:
        return row
    return {j: (a // g, b // g) for j, (a, b) in row.items()}


def _qqi(a: int, b: int, den: int) -> QQi:
    return QQi(Fraction(a, den), Fraction(b, den))


def _parts(c: QQi) -> Tuple[int, int, int]:
    """c as (re, im, den) with integer parts and a positive denominator."""
    den = lcm(c.re.denominator, c.im.denominator)
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator), den


def _from_qqi(nrows: int, ncols: int, entries: Iterable[Tuple[int, int, QQi]]) -> "Mat":
    """The matrix with the (i, j, value) entries and zeros elsewhere.  Over
    the lcm of the reduced denominators it is canonical with no gcd pass."""
    nz = [(i, j, x.re, x.im) for i, j, x in ((i, j, QQi.of(x)) for i, j, x in entries) if x.re or x.im]
    den = lcm(*(q.denominator for _, _, re, im in nz for q in (re, im)))
    rows: List[Row] = [{} for _ in range(nrows)]
    for i, j, re, im in nz:
        rows[i][j] = (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator))
    return _new(rows, den, ncols)


def _mul_rows(A: "Mat", B: "Mat") -> List[Row]:
    """The integer rows of A @ B, over the denominator A.den * B.den."""
    Br = B._r
    out: List[Row] = []
    for ra in A._r:
        acc: Dict[int, List[int]] = {}
        get = acc.get
        for k, (a, b) in ra.items():
            if b:
                for j, (c, d) in Br[k].items():
                    e = get(j)
                    if e is None:
                        acc[j] = [a * c - b * d, a * d + b * c]
                    else:
                        e[0] += a * c - b * d
                        e[1] += a * d + b * c
            else:
                for j, (c, d) in Br[k].items():
                    e = get(j)
                    if e is None:
                        acc[j] = [a * c, a * d]
                    else:
                        e[0] += a * c
                        e[1] += a * d
        out.append({j: (x, y) for j, (x, y) in acc.items() if x or y})
    return out


def _bareiss(rows: List[Row], n: int, exchange: bool = True) -> Tuple[int, List[Tuple[int, int]]]:
    """Bareiss's fraction-free elimination of an n x n Z[i] matrix, every
    division by the previous pivot exact: the sign of its row exchanges and
    its pivots, as many as it finds before a column has none.  A full list's
    last pivot times the sign is the determinant.  Without `exchange` no row
    moves, so the k-th pivot is the leading k x k minor, and the list stops
    before the first zero one."""
    rows = list(rows)
    sign = 1
    pivots: List[Tuple[int, int]] = []
    qa, qb = 1, 0  # previous pivot
    for c in range(n):
        pr = next((i for i in range(c, n if exchange else c + 1) if c in rows[i]), None)
        if pr is None:
            break
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        prow = rows[c]
        pa, pb = prow[c]
        qn = qa * qa + qb * qb
        for i in range(c + 1, n):
            row = rows[i]
            new = {j: (pa * a - pb * b, pa * b + pb * a) for j, (a, b) in row.items() if j != c}
            if c in row:
                fa, fb = row[c]
                for j, (a, b) in prow.items():
                    if j != c:
                        x, y = new.get(j, (0, 0))
                        new[j] = (x - fa * a + fb * b, y - fa * b - fb * a)
            if (qa, qb) != (1, 0):  # divide by the previous pivot q: times conj(q) / |q|^2
                new = {j: ((x * qa + y * qb) // qn, (y * qa - x * qb) // qn) for j, (x, y) in new.items()}
            rows[i] = {j: v for j, v in new.items() if v[0] or v[1]}
        qa, qb = pa, pb
        pivots.append((pa, pb))
    return sign, pivots


def _det(rows: List[Row], n: int) -> Tuple[int, int]:
    """Determinant of an n x n Z[i] matrix, by `_bareiss`."""
    sign, pivots = _bareiss(rows, n)
    if len(pivots) < n:
        return 0, 0
    a, b = pivots[-1] if pivots else (1, 0)
    return sign * a, sign * b


class Mat:
    """Matrix over Q(i): sparse Gaussian-integer rows over one positive
    denominator, kept canonical (module docstring)."""

    __slots__ = ("_r", "_d", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[QQi]], ncols: Optional[int] = None):
        """The matrix with these rows of Q(i) entries."""
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ShapeMismatch("ragged rows")
        elif ncols is None:
            raise ShapeMismatch("empty matrix needs explicit ncols")
        m = _from_qqi(len(rows), ncols, ((i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r)))
        self._r, self._d, self.nrows, self.ncols = m._r, m._d, m.nrows, m.ncols

    # -- constructors --------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        return _new([{} for _ in range(nrows)], 1, ncols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _new([{i: (1, 0)} for i in range(n)], 1, n)

    @staticmethod
    def column(entries: Sequence[QQi]) -> "Mat":
        return Mat([[e] for e in entries], ncols=1)

    @staticmethod
    def from_entries(nrows: int, ncols: int, entries: Mapping[Tuple[int, int], QQi]) -> "Mat":
        """The nrows x ncols matrix with the given (i, j) -> entry values
        and zeros elsewhere."""
        for i, j in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ShapeMismatch(f"entry ({i}, {j}) outside {nrows}x{ncols}")
        return _from_qqi(nrows, ncols, ((i, j, x) for (i, j), x in entries.items()))

    @staticmethod
    def from_parts(rows: Sequence[Mapping[int, Tuple[int, int]]], den: int, ncols: int) -> "Mat":
        """The matrix with entry (i, j) = (re + im i) / den for each
        rows[i][j] = (re, im) of Python ints, every column below ncols, and
        zeros elsewhere; den must be positive."""
        return _canon([{j: v for j, v in row.items() if v[0] or v[1]} for row in rows], den, ncols)

    @staticmethod
    def from_blocks(nrows: int, ncols: int, blocks: Iterable[Tuple[int, int, "Mat"]]) -> "Mat":
        """The nrows x ncols matrix with each block (r0, c0, M) placed with
        its top-left corner at (r0, c0), and zeros elsewhere; blocks must
        not overlap."""
        blocks = list(blocks)
        den = lcm(*(m._d for _, _, m in blocks))
        rows: List[Row] = [{} for _ in range(nrows)]
        for r0, c0, m in blocks:
            if r0 < 0 or c0 < 0 or r0 + m.nrows > nrows or c0 + m.ncols > ncols:
                raise ShapeMismatch(f"block {m.shape} at ({r0}, {c0}) outside {nrows}x{ncols}")
            s = den // m._d
            for i, row in enumerate(m._r, r0):
                if not row:
                    continue
                if s == 1 and c0 == 0 and not rows[i]:
                    rows[i] = row
                    continue
                tgt = rows[i] = dict(rows[i])
                for j, (a, b) in row.items():
                    tgt[c0 + j] = (a * s, b * s)
        # each block is canonical over its own denominator, so the whole is
        # canonical over their lcm
        return _new(rows, den, ncols)

    # -- shape & access --------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij) -> QQi:
        i, j = ij
        v = self._r[i].get(j)
        return ZERO if v is None else _qqi(v[0], v[1], self._d)

    @property
    def rows(self) -> Tuple[Tuple[QQi, ...], ...]:
        """Every entry as a QQi, row by row (a read-only dense view)."""
        return tuple(tuple(self[i, j] for j in range(self.ncols)) for i in range(self.nrows))

    def col(self, j: int) -> List[QQi]:
        return [self[i, j] for i in range(self.nrows)]

    def take_rows(self, idx: Sequence[Optional[int]]) -> "Mat":
        """The matrix whose row k is row idx[k] of self, or zero where
        idx[k] is None."""
        return _canon([{} if i is None else self._r[i] for i in idx], self._d, self.ncols)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Mat", sign: int, what: str) -> "Mat":
        """self + sign * other."""
        if self.shape != other.shape:
            raise ShapeMismatch(f"{what} {self.shape} vs {other.shape}")
        # stored rows are never changed, so an operand can be the result
        if not any(other._r):
            return self
        if not any(self._r):
            return other if sign == 1 else -other
        d1, d2 = self._d, other._d
        den = d1 if d1 == d2 else lcm(d1, d2)
        s1, s2 = den // d1, sign * (den // d2)
        rows: List[Row] = []
        for ra, rb in zip(self._r, other._r):
            if not rb:
                rows.append(ra if s1 == 1 else {j: (a * s1, b * s1) for j, (a, b) in ra.items()})
                continue
            row = dict(ra) if s1 == 1 else {j: (a * s1, b * s1) for j, (a, b) in ra.items()}
            for j, (c, d) in rb.items():
                v = row.get(j)
                if v is None:
                    row[j] = (c * s2, d * s2)
                else:
                    x, y = v[0] + c * s2, v[1] + d * s2
                    if x or y:
                        row[j] = (x, y)
                    else:
                        del row[j]
            rows.append(row)
        return _canon(rows, den, self.ncols)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1, "sub")

    def __neg__(self) -> "Mat":
        return _new([{j: (-a, -b) for j, (a, b) in r.items()} for r in self._r], self._d, self.ncols)

    def scale(self, c) -> "Mat":
        cr, ci, cd = _parts(QQi.of(c))
        if not (cr or ci):
            return Mat.zeros(self.nrows, self.ncols)
        rows = [{j: (a * cr - b * ci, a * ci + b * cr) for j, (a, b) in r.items()} for r in self._r]
        return _canon(rows, self._d * cd, self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"matmul {self.shape} @ {other.shape}")
        if not (any(self._r) and any(other._r)):
            return Mat.zeros(self.nrows, other.ncols)
        return _canon(_mul_rows(self, other), self._d * other._d, other.ncols)

    def matvec(self, v: Sequence[QQi]) -> List[QQi]:
        if self.ncols != len(v):
            raise ShapeMismatch("matvec shape")
        x = Mat.column(v)
        return _canon(_mul_rows(self, x), self._d * x._d, 1).col(0)

    def transpose(self) -> "Mat":
        cols: List[Row] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._r):
            for j, v in row.items():
                cols[j][i] = v
        return _new(cols, self._d, self.nrows)

    def conj(self) -> "Mat":
        return _new([{j: (a, -b) for j, (a, b) in r.items()} for r in self._r], self._d, self.ncols)

    def conj_t(self) -> "Mat":
        cols: List[Row] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._r):
            for j, (a, b) in row.items():
                cols[j][i] = (a, -b)
        return _new(cols, self._d, self.nrows)

    def is_zero(self) -> bool:
        return not any(self._r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self._d == other._d and self._r == other._r

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Mat[{self.nrows}x{self.ncols}]({body})"

    # -- stacking -------------------------------------------------------

    @staticmethod
    def vstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = list(blocks)
        if not blocks:
            raise ShapeMismatch("vstack of nothing")
        ncols = blocks[0].ncols
        if any(b.ncols != ncols for b in blocks):
            raise ShapeMismatch("vstack ncols differ")
        placed, r0 = [], 0
        for b in blocks:
            placed.append((r0, 0, b))
            r0 += b.nrows
        return Mat.from_blocks(r0, ncols, placed)

    @staticmethod
    def hstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = list(blocks)
        if not blocks:
            raise ShapeMismatch("hstack of nothing")
        nrows = blocks[0].nrows
        if any(b.nrows != nrows for b in blocks):
            raise ShapeMismatch("hstack nrows differ")
        placed, c0 = [], 0
        for b in blocks:
            placed.append((0, c0, b))
            c0 += b.ncols
        return Mat.from_blocks(nrows, c0, placed)

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        placed, r0, c0 = [], 0, 0
        for b in blocks:
            placed.append((r0, c0, b))
            r0 += b.nrows
            c0 += b.ncols
        return Mat.from_blocks(r0, c0, placed)

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns).

        Gauss-Jordan elimination over Z[i] on the stored rows; each pivot
        row is divided by its pivot once, at the end.  Under complex pivots
        the parts are not kept small (module docstring)."""
        if not any(self._r):
            return Mat.zeros(self.nrows, self.ncols), []
        # each unfinished nonzero row, filed under its leading column
        buckets: Dict[int, Dict[int, Row]] = {}
        for i, row in enumerate(self._r):
            if row:
                buckets.setdefault(min(row), {})[i] = _primitive(row)
        rows: List[Row] = []  # the finished pivot rows, by pivot column
        holders: Dict[int, Set[int]] = {}  # column -> finished rows that may hold it
        pivots: List[int] = []
        while buckets:
            c = min(buckets)
            others = buckets.pop(c)
            prow = others.pop(min(others))  # the lowest-index row
            pa, pb = prow[c]

            def eliminate(row: Row) -> Row:
                # row <- pv * row - f * prow, so the entry in column c cancels
                fa, fb = row[c]
                new = {j: (pa * a - pb * b, pa * b + pb * a) for j, (a, b) in row.items() if j != c}
                for j, (a, b) in prow.items():
                    if j == c:
                        continue
                    x, y = new.get(j, (0, 0))
                    x -= fa * a - fb * b
                    y -= fa * b + fb * a
                    if x or y:
                        new[j] = (x, y)
                    else:
                        del new[j]
                return _primitive(new)

            for i, row in others.items():
                # nothing is left of c, so the leading column moves right
                if row := eliminate(row):
                    buckets.setdefault(min(row), {})[i] = row
            rows.append(prow)
            pivots.append(c)
            for k in holders.pop(c, ()):
                if c in rows[k]:  # the index may hold rows that lost c
                    rows[k] = eliminate(rows[k])
                    for j in rows[k]:
                        holders.setdefault(j, set()).add(k)
            for j in prow:
                holders.setdefault(j, set()).add(len(rows) - 1)
        # divide each pivot row by its pivot: row * conj(pv) / |pv|^2 (each
        # row is primitive, so a real pivot leaves nothing to cancel)
        out: List[Row] = []
        dens: List[int] = []
        for row, c in zip(rows, pivots):
            pa, pb = row[c]
            if pb == 0:
                if pa < 0:
                    row, pa = {j: (-a, -b) for j, (a, b) in row.items()}, -pa
                out.append(row)
                dens.append(pa)
                continue
            d = pa * pa + pb * pb
            row = {j: (a * pa + b * pb, b * pa - a * pb) for j, (a, b) in row.items()}
            g = gcd(d, *(v for ab in row.values() for v in ab))
            out.append({j: (a // g, b // g) for j, (a, b) in row.items()})
            dens.append(d // g)
        # over the lcm of the row denominators; canonical because every row is
        den = lcm(*dens)
        out = [row if dr == den else {j: (a * (den // dr), b * (den // dr)) for j, (a, b) in row.items()}
               for row, dr in zip(out, dens)]
        out.extend({} for _ in range(self.nrows - len(out)))
        return _new(out, den, self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Columns form a basis of ker(self); shape ncols x nullity."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = {f: k for k, f in enumerate(j for j in range(self.ncols) if j not in pivot_set)}
        out: List[Row] = [{} for _ in range(self.ncols)]
        for f, k in free.items():
            out[f] = {k: (R._d, 0)}
        for row, p in zip(R._r, pivots):
            out[p] = {free[j]: (-a, -b) for j, (a, b) in row.items() if j in free}
        return _canon(out, R._d, len(free))

    def column_space(self) -> "Mat":
        """Columns form a basis of the image: the pivot columns of self."""
        _, piv = self.rref()
        pos = {j: k for k, j in enumerate(piv)}
        return _canon([{pos[j]: v for j, v in row.items() if j in pos} for row in self._r], self._d, len(piv))

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """Solve self @ X = b exactly; None if inconsistent (least solution
        with free variables set to zero otherwise)."""
        if b.nrows != self.nrows:
            raise ShapeMismatch("solve shape")
        aug = Mat.hstack([self, b])
        R, pivots = aug.rref()
        n = self.ncols
        if any(p >= n for p in pivots):
            return None
        X: List[Row] = [{} for _ in range(n)]
        for row, p in zip(R._r, pivots):
            X[p] = {j - n: v for j, v in row.items() if j >= n}
        return _canon(X, R._d, b.ncols)

    def inv(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of non-square")
        X = self.solve(Mat.identity(self.nrows))
        if X is None or self @ X != Mat.identity(self.nrows):
            raise ZeroDivisionError("matrix is singular")
        return X

    def det(self) -> QQi:
        """Determinant (square matrices)."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("det of non-square")
        a, b = _det(self._r, self.nrows)
        return _qqi(a, b, self._d ** self.nrows)

    # -- numeric bridge ----------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=complex)
        d = self._d
        for i, row in enumerate(self._r):
            for j, (a, b) in row.items():
                out[i, j] = complex(a / d, b / d)
        return out


def compound(M: Mat, k: int) -> Mat:
    """The k-th compound matrix: entry (I, K) is det M[I, K], for the k-subsets
    I of rows and K of columns in lexicographic order.  By Cauchy-Binet,
    compound(A @ B, k) == compound(A, k) @ compound(B, k)."""
    csets = list(combinations(range(M.ncols), k))
    rows: List[Row] = []
    for I in combinations(range(M.nrows), k):
        row: Row = {}
        for c, K in enumerate(csets):
            sub = [{pos: M._r[i][j] for pos, j in enumerate(K) if j in M._r[i]} for i in I]
            a, b = _det(sub, k)
            if a or b:
                row[c] = (a, b)
        rows.append(row)
    return _canon(rows, M._d ** k, len(csets))


def leading_minors(M: Mat) -> List[QQi]:
    """det M[:k, :k] for k = 1..n of a square M: the pivots of `_bareiss`
    without row exchanges, up to and including the first zero minor."""
    if M.nrows != M.ncols:
        raise ShapeMismatch("leading minors of non-square")
    _, pivots = _bareiss(M._r, M.nrows, exchange=False)
    minors = [_qqi(a, b, M._d ** k) for k, (a, b) in enumerate(pivots, 1)]
    return minors if len(minors) == M.nrows else minors + [ZERO]


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product: entry (a * B.nrows + b, c * B.ncols + d) is A[a][c] * B[b][d]."""
    w = B.ncols
    rows: List[Row] = []
    for ra in A._r:
        for rb in B._r:
            # Z[i] has no zero divisors, so no product of nonzeros vanishes
            rows.append({c * w + d: (a * x - b * y, a * y + b * x) for c, (a, b) in ra.items() for d, (x, y) in rb.items()})
    return _canon(rows, A._d * B._d, A.ncols * w)


# -- subspaces ------------------------------------------------------------
#
# A subspace of Q(i)^n is represented by a Mat whose columns span it (not
# necessarily a basis).  `span_basis`, `subspace_sum` and `subspace_intersect`
# return its canonical basis (the unique rref of A^T, stored canonically):
# spans are equal exactly when those bases are `==`, of dimension `ncols`.


def span_basis(A: Mat) -> Mat:
    """Canonical basis of the column span: the nonzero rows of the rref of
    A^T, as columns."""
    if A.ncols == 0:
        return A
    R, pivots = A.transpose().rref()
    return R.take_rows(range(len(pivots))).transpose()


def subspace_dim(A: Mat) -> int:
    return A.rank()


def subspace_contains(A: Mat, v: Mat) -> bool:
    """Do the columns of v all lie in span(A)?"""
    return Mat.hstack([A, v]).rank() == A.rank()


def subspace_eq(A: Mat, B: Mat) -> bool:
    if A.nrows != B.nrows:
        raise ShapeMismatch("subspace ambient dims differ")
    return span_basis(A) == span_basis(B)


def subspace_sum(*parts: Mat) -> Mat:
    return span_basis(Mat.hstack(list(parts)))


def subspace_intersect(A: Mat, B: Mat) -> Mat:
    """Basis of span(A) ∩ span(B): A x over the x-parts of ker [A | B],
    i.e. of the solutions of A x = -B y."""
    if A.nrows != B.nrows:
        raise ShapeMismatch("intersect ambient dims differ")
    if A.ncols == 0 or B.ncols == 0:
        return Mat.zeros(A.nrows, 0)
    K = Mat.hstack([A, B]).nullspace()  # columns (x; y) with A x = -B y
    xs = K.take_rows(range(A.ncols))
    return span_basis(A @ xs)


def intersect_many(parts: Iterable[Mat]) -> Mat:
    return reduce(subspace_intersect, parts)


# -- Gram inner products -----------------------------------------------------
#
# Convention: for coefficient column vectors u, v and Gram matrix
# G[a][b] = h(e_a, e_b), the inner product is <u,v> = u^T G conj(v),
# linear in u and antilinear in v.


def gram_adjoint(T: Mat, G_src_inv: Mat, G_dst: Mat) -> Mat:
    """S with <T u, v>_dst = <u, S v>_src for all u, v, given the inverse of
    the source Gram: S = conj(G_src)^{-1} T^H conj(G_dst).  Both Grams must
    be Hermitian, so that each conjugate is the transpose, which builds no
    new entries."""
    return G_src_inv.transpose() @ T.conj_t() @ G_dst.transpose()


def common_kernel(maps: List[Mat], images: List[Mat], G: Mat) -> Mat:
    """Exact basis (columns) of ker T ∩ ker S* for each T in `maps` and each
    S with image basis C in `images`, under the Hermitian Gram G: ker S* =
    (im S)^⊥ (or im T* = (ker T)^⊥ with C a basis of ker T) is cut out by the
    rows C^H conj(G), independent unlike S*'s own, which grow in `Mat.rref`."""
    return Mat.vstack(maps + [C.conj_t() @ G.transpose() for C in images]).nullspace()


def basis_gram(B: Mat, G: Mat) -> Mat:
    """M[j][k] = <b_k, b_j> for the columns b_* of B, i.e. B^H conj(G) B;
    G must be Hermitian (conj(G) is taken as its transpose)."""
    return B.conj_t() @ G.transpose() @ B


def projection_coords(S: Mat, B: Mat, G: Mat) -> Mat:
    """X with B X = Gram-orthogonal projection of the columns of S onto
    span(B), from one solve of (B^H conj(G) B) X = B^H conj(G) S; G must be
    Hermitian (conj(G) is taken as its transpose)."""
    if B.ncols == 0:
        return Mat.zeros(0, S.ncols)
    X = basis_gram(B, G).solve(B.conj_t() @ G.transpose() @ S)
    if X is None:
        raise ZeroDivisionError("degenerate basis Gram")
    return X


def project_coords(x: Sequence[QQi], B: Mat, G: Mat) -> List[QQi]:
    """Coordinates c with B c = Gram-orthogonal projection of x onto span(B)."""
    return projection_coords(Mat.column(x), B, G).col(0)


def project(x: Sequence[QQi], B: Mat, G: Mat) -> List[QQi]:
    return B.matvec(project_coords(x, B, G))
