"""Exact linear algebra over Q(i): Gaussian elimination, ranks, nullspaces,
subspace arithmetic and Gram-orthogonal projections.

Every rank, nullspace, image and solve goes through `Mat.rref`, which
eliminates over the Gaussian integers Z[i] on sparse rows.  Each row is scaled
once by the lcm of its denominators and stored as {column: (re, im)} with
integer parts.  Gauss-Jordan steps `row <- pivot * row - factor * pivot_row`
touch only the nonzero entries of the two rows, and each result is divided by
the integer gcd of all its parts, so numerators stay small without a gcd per
entry (fraction-free elimination after Bareiss, Math. Comp. 22 (1968)).  Only
at the end is each pivot row divided by its pivot and converted back to Q(i).
The pivot is the first nonzero entry, scanning rows top-down, in the leftmost
unfinished column.  The reduced row echelon form of a matrix is unique, so
every rank, echelon form and nullspace basis is bit-reproducible and
independent of how the elimination is carried out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence

import numpy as np

from abch.scalars import QQi, ZERO, ONE


class ShapeMismatch(Exception):
    """Operands have incompatible shapes."""


def _primitive(row: dict) -> dict:
    """Divide a sparse Z[i] row by the integer gcd of all its parts."""
    g = gcd(*(v for ab in row.values() for v in ab))
    if g <= 1:
        return row
    return {j: (a // g, b // g) for j, (a, b) in row.items()}


def _zi_row(row: Sequence[QQi]) -> dict:
    """A row over Q(i) as a primitive sparse Z[i] row {col: (re, im)}: scaled
    by the lcm of its denominators, then by the gcd of its parts."""
    nz = [(j, x.re, x.im) for j, x in enumerate(row) if x.re or x.im]
    den = lcm(*(q.denominator for _, re, im in nz for q in (re, im)))
    return _primitive(
        {j: (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)) for j, re, im in nz}
    )


class Mat:
    """Dense matrix over Q(i); rows is a list of lists of QQi."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[QQi]], ncols: Optional[int] = None):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ShapeMismatch("ragged rows")
        else:
            if ncols is None:
                raise ShapeMismatch("empty matrix needs explicit ncols")
            self.ncols = ncols

    # -- constructors --------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "Mat":
        return Mat([[ZERO] * ncols for _ in range(nrows)], ncols=ncols)

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = ONE
        return m

    @staticmethod
    def column(entries: Sequence[QQi]) -> "Mat":
        return Mat([[QQi.of(e)] for e in entries], ncols=1)

    def copy(self) -> "Mat":
        return Mat([list(r) for r in self.rows], ncols=self.ncols)

    # -- shape & access --------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> List[QQi]:
        return [self.rows[i][j] for i in range(self.nrows)]

    def cols(self) -> List[List[QQi]]:
        return [self.col(j) for j in range(self.ncols)]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ShapeMismatch(f"add {self.shape} vs {other.shape}")
        return Mat(
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.ncols)] for i in range(self.nrows)],
            ncols=self.ncols,
        )

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ShapeMismatch(f"sub {self.shape} vs {other.shape}")
        return Mat(
            [[self.rows[i][j] - other.rows[i][j] for j in range(self.ncols)] for i in range(self.nrows)],
            ncols=self.ncols,
        )

    def __neg__(self) -> "Mat":
        return Mat([[-x for x in r] for r in self.rows], ncols=self.ncols)

    def scale(self, c) -> "Mat":
        c = QQi.of(c)
        return Mat([[c * x for x in r] for r in self.rows], ncols=self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"matmul {self.shape} @ {other.shape}")
        out = Mat.zeros(self.nrows, other.ncols)
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out.rows[i]
            for k in range(self.ncols):
                a = ri[k]
                if a.is_zero():
                    continue
                rk = other.rows[k]
                for j in range(other.ncols):
                    b = rk[j]
                    if not b.is_zero():
                        oi[j] = oi[j] + a * b
        return out

    def matvec(self, v: Sequence[QQi]) -> List[QQi]:
        if self.ncols != len(v):
            raise ShapeMismatch("matvec shape")
        out = []
        for i in range(self.nrows):
            s = ZERO
            for k, a in enumerate(self.rows[i]):
                if not a.is_zero() and not v[k].is_zero():
                    s = s + a * v[k]
            out.append(s)
        return out

    def transpose(self) -> "Mat":
        return Mat([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)], ncols=self.nrows)

    def conj(self) -> "Mat":
        return Mat([[x.conj() for x in r] for r in self.rows], ncols=self.ncols)

    def conj_t(self) -> "Mat":
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and all(
            self.rows[i][j] == other.rows[i][j] for i in range(self.nrows) for j in range(self.ncols)
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in r) for r in self.rows)
        return f"Mat[{self.nrows}x{self.ncols}]({body})"

    # -- stacking -------------------------------------------------------

    @staticmethod
    def vstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = [b for b in blocks]
        if not blocks:
            raise ShapeMismatch("vstack of nothing")
        ncols = blocks[0].ncols
        if any(b.ncols != ncols for b in blocks):
            raise ShapeMismatch("vstack ncols differ")
        rows: List[List[QQi]] = []
        for b in blocks:
            rows.extend(list(r) for r in b.rows)
        return Mat(rows, ncols=ncols)

    @staticmethod
    def hstack(blocks: Sequence["Mat"]) -> "Mat":
        blocks = [b for b in blocks]
        if not blocks:
            raise ShapeMismatch("hstack of nothing")
        nrows = blocks[0].nrows
        if any(b.nrows != nrows for b in blocks):
            raise ShapeMismatch("hstack nrows differ")
        rows = [sum((list(b.rows[i]) for b in blocks), []) for i in range(nrows)]
        return Mat(rows, ncols=sum(b.ncols for b in blocks))

    @staticmethod
    def block_diag(blocks: Sequence["Mat"]) -> "Mat":
        blocks = [b for b in blocks]
        nr = sum(b.nrows for b in blocks)
        nc = sum(b.ncols for b in blocks)
        out = Mat.zeros(nr, nc)
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.nrows):
                out.rows[r0 + i][c0 : c0 + b.ncols] = list(b.rows[i])
            r0 += b.nrows
            c0 += b.ncols
        return out

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns).

        Gauss-Jordan elimination over Z[i] on sparse rows (see the module
        docstring); each pivot row is divided by its pivot once, at the end."""
        rows = [_zi_row(r) for r in self.rows]
        nrows = len(rows)
        pivots: List[int] = []
        r = 0
        for c in range(self.ncols):
            if r >= nrows:
                break
            # first nonzero entry scanning rows top-down
            pr = next((i for i in range(r, nrows) if c in rows[i]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            prow = rows[r]
            pa, pb = prow[c]
            for i in range(nrows):
                row = rows[i]
                if i == r or c not in row:
                    continue
                # row <- pv * row - f * prow, so the entry in column c cancels
                fa, fb = row.pop(c)
                new = {j: (pa * a - pb * b, pa * b + pb * a) for j, (a, b) in row.items()}
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
                rows[i] = _primitive(new)
            pivots.append(c)
            r += 1
        out = []
        for row, c in zip(rows, pivots):
            pa, pb = row[c]
            d = pa * pa + pb * pb
            dense = [ZERO] * self.ncols
            for j, (a, b) in row.items():
                dense[j] = QQi(Fraction(a * pa + b * pb, d), Fraction(b * pa - a * pb, d))
            out.append(dense)
        out.extend([ZERO] * self.ncols for _ in range(nrows - r))
        return Mat(out, ncols=self.ncols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Columns form a basis of ker(self); shape ncols x nullity."""
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        for f in free:
            v = [ZERO] * self.ncols
            v[f] = ONE
            for r, p in enumerate(pivots):
                v[p] = -R.rows[r][f]
            cols.append(v)
        out = Mat.zeros(self.ncols, len(cols))
        for j, v in enumerate(cols):
            for i in range(self.ncols):
                out.rows[i][j] = v[i]
        return out

    def column_space(self) -> "Mat":
        """Columns form a basis of the image: the pivot columns of self."""
        _, piv = self.rref()
        out = Mat.zeros(self.nrows, len(piv))
        for k, j in enumerate(piv):
            for i in range(self.nrows):
                out.rows[i][k] = self.rows[i][j]
        return out

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
        X = Mat.zeros(n, b.ncols)
        for r, p in enumerate(pivots):
            for j in range(b.ncols):
                X.rows[p][j] = R.rows[r][n + j]
        return X

    def inv(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of non-square")
        X = self.solve(Mat.identity(self.nrows))
        if X is None or self @ X != Mat.identity(self.nrows):
            raise ZeroDivisionError("matrix is singular")
        return X

    def det(self) -> QQi:
        """Determinant by fraction elimination (square matrices)."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("det of non-square")
        m = self.copy()
        n = m.nrows
        d = ONE
        for c in range(n):
            pr = None
            for i in range(c, n):
                if not m.rows[i][c].is_zero():
                    pr = i
                    break
            if pr is None:
                return ZERO
            if pr != c:
                m.rows[c], m.rows[pr] = m.rows[pr], m.rows[c]
                d = -d
            pv = m.rows[c][c]
            d = d * pv
            for i in range(c + 1, n):
                if not m.rows[i][c].is_zero():
                    f = m.rows[i][c] / pv
                    m.rows[i] = [a - f * b for a, b in zip(m.rows[i], m.rows[c])]
        return d

    # -- numeric bridge ----------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols), dtype=complex)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out[i, j] = self.rows[i][j].to_complex()
        return out


def compound(M: Mat, k: int) -> Mat:
    """The k-th compound matrix: entry (I, K) is det M[I, K], for the k-subsets
    I of rows and K of columns in lexicographic order.  By Cauchy-Binet,
    compound(A @ B, k) == compound(A, k) @ compound(B, k)."""
    rsets = list(combinations(range(M.nrows), k))
    csets = list(combinations(range(M.ncols), k))
    return Mat(
        [[Mat([[M.rows[i][j] for j in K] for i in I], ncols=k).det() for K in csets] for I in rsets],
        ncols=len(csets),
    )


def kron(A: Mat, B: Mat) -> Mat:
    """Kronecker product: entry (a * B.nrows + b, c * B.ncols + d) is A[a][c] * B[b][d]."""
    zeros = [ZERO] * B.ncols
    rows = []
    for ra in A.rows:
        for rb in B.rows:
            row: List[QQi] = []
            for x in ra:
                row.extend(zeros if x.is_zero() else [ZERO if y.is_zero() else x * y for y in rb])
            rows.append(row)
    return Mat(rows, ncols=A.ncols * B.ncols)


# -- subspaces ------------------------------------------------------------
#
# A subspace of Q(i)^n is represented by a Mat whose columns span it (not
# necessarily a basis).  `span_basis` reduces to a canonical basis.


def span_basis(A: Mat) -> Mat:
    """Canonical basis of the column span (pivot columns of the rref of A^T
    re-expressed through elimination on columns)."""
    if A.ncols == 0:
        return A
    R, pivots = A.transpose().rref()
    # Rows of R with pivots are a reduced generating set; transpose back.
    rows = [R.rows[r] for r in range(len(pivots))]
    out = Mat.zeros(A.nrows, len(pivots))
    for j, row in enumerate(rows):
        for i in range(A.nrows):
            out.rows[i][j] = row[i]
    return out


def subspace_dim(A: Mat) -> int:
    return A.rank()


def subspace_contains(A: Mat, v: Mat) -> bool:
    """Do the columns of v all lie in span(A)?"""
    return Mat.hstack([A, v]).rank() == A.rank()


def subspace_eq(A: Mat, B: Mat) -> bool:
    ra, rb = A.rank(), B.rank()
    return ra == rb and Mat.hstack([A, B]).rank() == ra


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
    xs = Mat(K.rows[: A.ncols], ncols=K.ncols)
    return span_basis(A @ xs)


def intersect_many(parts: Iterable[Mat]) -> Mat:
    parts = list(parts)
    out = parts[0]
    for p in parts[1:]:
        out = subspace_intersect(out, p)
    return out


# -- Gram inner products -----------------------------------------------------
#
# Convention: for coefficient column vectors u, v and Gram matrix
# G[a][b] = h(e_a, e_b), the inner product is <u,v> = u^T G conj(v),
# linear in u and antilinear in v.


def ip(u: Sequence[QQi], v: Sequence[QQi], G: Mat) -> QQi:
    Gv = G.matvec([x.conj() for x in v])
    s = ZERO
    for a, b in zip(u, Gv):
        if not a.is_zero() and not b.is_zero():
            s = s + a * b
    return s


def gram_adjoint(T: Mat, G_src_inv: Mat, G_dst: Mat) -> Mat:
    """S with <T u, v>_dst = <u, S v>_src for all u, v, given the inverse of
    the source Gram: S = conj(G_src)^{-1} T^H conj(G_dst)."""
    return G_src_inv.conj() @ T.conj_t() @ G_dst.conj()


def basis_gram(B: Mat, G: Mat) -> Mat:
    """M[j][k] = <b_k, b_j> for the columns b_* of B, i.e. B^H conj(G) B."""
    return B.conj_t() @ G.conj() @ B


def projection_coords(S: Mat, B: Mat, G: Mat) -> Mat:
    """X with B X = Gram-orthogonal projection of the columns of S onto
    span(B), from one solve of (B^H conj(G) B) X = B^H conj(G) S."""
    if B.ncols == 0:
        return Mat.zeros(0, S.ncols)
    X = basis_gram(B, G).solve(B.conj_t() @ G.conj() @ S)
    if X is None:
        raise ZeroDivisionError("degenerate basis Gram")
    return X


def project_coords(x: Sequence[QQi], B: Mat, G: Mat) -> List[QQi]:
    """Coordinates c with B c = Gram-orthogonal projection of x onto span(B)."""
    return projection_coords(Mat.column(x), B, G).col(0)


def project(x: Sequence[QQi], B: Mat, G: Mat) -> List[QQi]:
    return B.matvec(project_coords(x, B, G))


def gram_schmidt(B: Mat, G: Mat) -> Mat:
    """Gram-orthogonalise the columns of B (no normalisation, stays exact)."""
    ws: List[List[QQi]] = []
    for b in B.cols():
        w = list(b)
        for prev in ws:
            denom = ip(prev, prev, G)
            coef = ip(b, prev, G) / denom
            w = [wi - coef * pi for wi, pi in zip(w, prev)]
        if any(not x.is_zero() for x in w):
            ws.append(w)
    out = Mat.zeros(B.nrows, len(ws))
    for j, w in enumerate(ws):
        for i in range(B.nrows):
            out.rows[i][j] = w[i]
    return out


def cross_gram(U: Mat, V: Mat, G: Mat) -> Mat:
    """Matrix of inner products <u_a, v_b>; zero iff the spans are orthogonal."""
    ucols, vcols = U.cols(), V.cols()
    out = Mat.zeros(len(ucols), len(vcols))
    for a, u in enumerate(ucols):
        for b, v in enumerate(vcols):
            out.rows[a][b] = ip(u, v, G)
    return out
