"""Every operation of `abch.linalg` against the dense Q(i) reference oracle.

`tests/dense_linalg.py` is the dense `QQi` matrix abch used before its
sparse Gaussian-integer storage: every operation works cell by cell in
`QQi` arithmetic.  `oracle_rref` is the Gauss-Jordan loop `Mat.rref` ran
before the sparse Gaussian-integer kernel: it divides the pivot row by the
pivot and eliminates with `QQi` arithmetic on dense rows, and it stands in
for the reference's own `rref` here.  The reduced row echelon form is
unique, so every result built on `rref` must be the same under both.  Every
matrix `abch.linalg` returns must also be in canonical form.
"""

from fractions import Fraction
from math import gcd
from typing import List

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dense_linalg as dense
import oracles
from abch import linalg
from abch.linalg import Mat
from abch.scalars import ONE, QQi, ZERO


def oracle_rref(self):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    m = self.copy()
    pivots: List[int] = []
    r = 0
    for c in range(m.ncols):
        if r >= m.nrows:
            break
        # first nonzero entry scanning rows top-down
        pr = None
        for i in range(r, m.nrows):
            if not m.rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m.rows[r], m.rows[pr] = m.rows[pr], m.rows[r]
        pv = m.rows[r][c]
        m.rows[r] = [x / pv for x in m.rows[r]]
        for i in range(m.nrows):
            if i != r and not m.rows[i][c].is_zero():
                f = m.rows[i][c]
                m.rows[i] = [a - f * b for a, b in zip(m.rows[i], m.rows[r])]
        pivots.append(c)
        r += 1
    return m, pivots


# large coprime denominators next to small ones; 2**61 - 1 and 65537 are prime
dens = st.sampled_from([1, 1, 2, 3, 7, 10007, 65537, 2**61 - 1])
rats = st.builds(Fraction, st.integers(-5, 5), dens)
entries = st.one_of(st.just(ZERO), st.builds(QQi, rats, rats))


def mats(nrows, ncols):
    """Matrices of `entries`, rows dependent as often as not."""
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows).map(
        lambda rows: Mat(rows, ncols=ncols)
    )


@st.composite
def systems(draw):
    """(A, b) for A @ X = b: 0-row, wide and tall A, with duplicated and
    dependent rows, and 0 to 3 right-hand sides."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 7))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entries)
        # c == 0 duplicates row a
        rows.insert(draw(st.integers(0, len(rows))), [x + c * y for x, y in zip(a, b)])
    nrhs = draw(st.integers(0, 3))
    b = [draw(st.lists(entries, min_size=nrhs, max_size=nrhs)) for _ in rows]
    return Mat(rows, ncols=ncols), Mat(b, ncols=nrhs)


@st.composite
def operands(draw):
    """A, B (r x c), C (c x k), a square S, a vector v (length c), a scalar s
    and a Hermitian positive-definite Gram G on Q(i)^r."""
    r, c, k, n = (draw(st.integers(0, 4)) for _ in range(4))
    A, B, C, S = draw(mats(r, c)), draw(mats(r, c)), draw(mats(c, k)), draw(mats(n, n))
    v = draw(st.lists(entries, min_size=c, max_size=c))
    M = draw(mats(r, r))
    G = M.conj_t() @ M + Mat.identity(r)
    return A, B, C, S, v, draw(entries), G


def to_dense(m: Mat) -> dense.Mat:
    return dense.Mat([list(row) for row in m.rows], ncols=m.ncols)


def plain(x):
    """Results of either implementation in one comparable form."""
    if isinstance(x, (Mat, dense.Mat)):
        return ("Mat", x.shape, tuple(tuple(row) for row in x.rows))
    if isinstance(x, np.ndarray):
        return ("ndarray", x.shape, x.dtype.str, x.tobytes())
    if isinstance(x, (list, tuple)):
        return tuple(plain(y) for y in x)
    return x


def assert_canonical(x):
    """No stored zero entry, and gcd(den, every part) == 1 with den > 0."""
    if isinstance(x, Mat):
        assert len(x._r) == x.nrows
        assert isinstance(x._d, int) and x._d > 0
        g = x._d
        for row in x._r:
            for j, (a, b) in row.items():
                assert 0 <= j < x.ncols
                assert a or b, "zero entry stored"
                g = gcd(g, a, b)
        assert g == 1, "denominator not reduced"
    elif isinstance(x, (list, tuple)):
        for y in x:
            assert_canonical(y)


def run(thunk):
    try:
        return thunk()
    except Exception as exc:  # both sides must fail alike
        return ("raises", type(exc).__name__)


def _results(A, b):
    if A.nrows == A.ncols:
        try:
            inv = A.inv()
        except ZeroDivisionError:
            inv = "singular"
    else:
        inv = None
    return A.rref(), A.rank(), A.nullspace(), A.column_space(), A.solve(b), inv


q = QQi
P = 2**61 - 1
# the pivot of column 0 is 2i/P, in row 1; row 2 is twice row 1
IMAG_PIVOT = [
    [ZERO, q(Fraction(1, 65537), 3), q(1, -1)],
    [q(0, Fraction(2, P)), q(1), ZERO],
    [q(0, Fraction(4, P)), q(2), ZERO],
]


# a 3 x 2 matrix with a 1/65537 entry and an imaginary one; the zero-exit
# examples below pair it and its transpose with all-zero and zero-size operands
NZ = Mat([[q(1, 2), q(Fraction(1, 3))], [ZERO, q(0, 1)], [q(Fraction(2, 65537)), ZERO]], ncols=2)


@settings(max_examples=300, deadline=None)
@given(systems())
@example((Mat([], ncols=4), Mat([], ncols=2)))
@example((Mat.zeros(3, 4), NZ))
@example((Mat.zeros(3, 4), Mat.zeros(3, 2)))
@example((Mat.zeros(2, 0), Mat.zeros(2, 1)))
@example((Mat(IMAG_PIVOT, ncols=3), Mat([[q(1)], [q(0, 1)], [q(0, 2)]], ncols=1)))
def test_rref_and_its_users_match_oracle(system):
    A, b = system
    before = A.rows
    A.rref()
    assert A.rows == before, "rref mutated its input"
    fast = _results(A, b)
    assert_canonical(fast)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense.Mat, "rref", oracle_rref)
        slow = _results(to_dense(A), to_dense(b))
    assert plain(fast) == plain(slow)


def operations(L, ip, A, B, C, S, v, s, G):
    """Every public operation of the linear-algebra module L, plus the Gram
    inner product `ip` on L's matrices, on operands that are L's own
    matrices."""
    M = L.Mat
    r, c = A.shape
    Gc = M.identity(c) + C @ C.conj_t()  # a Hermitian positive-definite Gram on Q(i)^c
    return {
        "shape": lambda: A.shape,
        "getitem": lambda: [A[i, j] for i in range(r) for j in range(c)],
        "rows": lambda: A.rows,
        "col": lambda: [A.col(j) for j in range(c)],
        "add": lambda: A + B,
        "sub": lambda: A - B,
        "sub_self": lambda: A - A,
        "neg": lambda: -A,
        "scale": lambda: A.scale(s),
        "scale_int": lambda: A.scale(3),
        "matmul": lambda: A @ C,
        "matmul_mismatch": lambda: A @ A if r != c else "square",
        "matvec": lambda: A.matvec(v),
        "transpose": lambda: A.transpose(),
        "conj": lambda: A.conj(),
        "conj_t": lambda: A.conj_t(),
        "is_zero": lambda: (A.is_zero(), (A - A).is_zero()),
        "eq": lambda: (A == B, A == M(A.rows, c), A == A.scale(s), A == -A),
        "repr": lambda: repr(A),
        "vstack": lambda: M.vstack([A, B, A.scale(s)]),
        "hstack": lambda: M.hstack([A, B.scale(s), A @ C]),
        "block_diag": lambda: M.block_diag([A, C, S]),
        "zeros": lambda: M.zeros(r, c),
        "identity": lambda: M.identity(c),
        "column": lambda: M.column(v),
        "rref": lambda: A.rref(),
        "rank": lambda: A.rank(),
        "nullspace": lambda: A.nullspace(),
        "column_space": lambda: A.column_space(),
        "solve": lambda: (A.solve(B), A.solve(A @ C)),
        "inv": lambda: S.inv(),
        "det": lambda: (S.det(), (S @ S).det(), A.transpose().det() if r == c else None),
        "to_numpy": lambda: (A.scale(s).to_numpy(), S.to_numpy()),
        "compound": lambda: [L.compound(A, k) for k in range(min(r, c) + 2)],
        "kron": lambda: (L.kron(A, C), L.kron(C, S.scale(s))),
        "span_basis": lambda: L.span_basis(M.hstack([A, B])),
        "subspace_dim": lambda: L.subspace_dim(A),
        "subspace_contains": lambda: (L.subspace_contains(A, B), L.subspace_contains(A, A @ C)),
        "subspace_eq": lambda: (L.subspace_eq(A, B), L.subspace_eq(A, M.hstack([A, A @ C]))),
        "subspace_sum": lambda: L.subspace_sum(A, B),
        "subspace_intersect": lambda: L.subspace_intersect(A, B),
        "intersect_many": lambda: L.intersect_many([A, B, M.hstack([A, B])]),
        "gram_adjoint": lambda: L.gram_adjoint(A, Gc.inv(), G),
        "basis_gram": lambda: L.basis_gram(A, G),
        "projection_coords": lambda: L.projection_coords(B, A.column_space(), G),
        "ip": lambda: [ip(A.col(j), B.col(k), G) for j in range(c) for k in range(B.ncols)],
        "project": lambda: [L.project(B.col(k), A.column_space(), G) for k in range(B.ncols)],
    }


@settings(max_examples=150, deadline=None)
@given(operands())
# all-zero operands on either side of @, + and -, and as the input of rref
# and its users (A, B, C, S, v, s, G as `operands` draws them)
@example((NZ, Mat.zeros(3, 2), Mat.zeros(2, 2), Mat.zeros(2, 2), [ZERO, ONE], q(2), Mat.identity(3)))
@example((Mat.zeros(3, 2), NZ, NZ.transpose(), Mat.identity(2), [q(0, 1), ZERO], q(0, -3), Mat.identity(3)))
# zero-size operands: no rows, and no columns
@example((Mat.zeros(0, 3), Mat.zeros(0, 3), NZ, Mat.zeros(0, 0), [ZERO, ONE, ZERO], q(5), Mat.identity(0)))
@example((Mat.zeros(3, 0), Mat.zeros(3, 0), Mat.zeros(0, 2), Mat.zeros(1, 1), [], ONE, Mat.identity(3)))
def test_every_operation_matches_dense_oracle(ops):
    A, B, C, S, v, s, G = ops
    fast = operations(linalg, oracles.ip, A, B, C, S, v, s, G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense.Mat, "rref", oracle_rref)
        slow = operations(dense, dense.ip, *(to_dense(m) for m in (A, B, C, S)), v, s, to_dense(G))
        expected = {name: plain(run(f)) for name, f in slow.items()}
    for name, f in fast.items():
        got = run(f)
        assert_canonical(got)
        assert plain(got) == expected[name], name


nonzero = st.builds(QQi, rats, rats).filter(lambda x: not x.is_zero())


@st.composite
def span_pairs(draw):
    """A (r x c), an invertible c x c matrix and B (r x k), with 0 to 4 of
    each: B is drawn at random, from span(A) as A @ C (equal to it when C
    keeps A's rank), or as A times the invertible matrix beside a multiple
    of A (always equal)."""
    r, c, k = (draw(st.integers(0, 4)) for _ in range(3))
    A = draw(mats(r, c))
    # L U Q: unit lower triangular, upper triangular with a nonzero
    # diagonal, and a column permutation
    L = Mat.from_entries(c, c, {(i, j): ONE if i == j else draw(entries) for i in range(c) for j in range(i + 1)})
    U = Mat.from_entries(c, c, {(i, j): draw(nonzero if i == j else entries) for i in range(c) for j in range(i, c)})
    invertible = L @ U @ Mat.identity(c).take_rows(draw(st.permutations(range(c))))
    route = draw(st.integers(0, 2))
    if route == 0:
        B = draw(mats(r, k))
    elif route == 1:
        B = A @ draw(mats(c, k))
    else:
        B = Mat.hstack([A @ invertible, A.scale(draw(entries))])
    return A, invertible, B


def _col(*xs):
    return Mat([[x] for x in xs], ncols=1)


# a rank-1 span over 1/65537 and over 1/(2**61 - 1), beside rank-0 and
# zero-column inputs
RANK1 = Mat([[q(Fraction(1, 65537)), q(0, Fraction(2, 3))], [q(Fraction(2, 65537)), q(0, Fraction(4, 3))]], ncols=2)


@settings(max_examples=200, deadline=None)
@given(span_pairs())
@example((RANK1, Mat.identity(2), _col(q(Fraction(5, P)), q(Fraction(10, P)))))
@example((RANK1, Mat.identity(2), Mat.zeros(2, 3)))
@example((RANK1 - RANK1, Mat.identity(2), Mat.zeros(2, 0)))
@example((Mat.zeros(3, 0), Mat.identity(0), Mat.zeros(3, 2)))
@example((Mat.zeros(3, 0), Mat.identity(0), _col(ZERO, q(Fraction(1, 3)), ZERO)))
def test_canonical_bases_are_equal_exactly_when_the_spans_are(case):
    A, invertible, B = case
    assert linalg.span_basis(A @ invertible) == linalg.span_basis(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense.Mat, "rref", oracle_rref)
        same = dense.subspace_eq(to_dense(A), to_dense(B))  # the rank test
    assert (linalg.span_basis(A) == linalg.span_basis(B)) == same
    assert linalg.subspace_eq(A, B) == same


@settings(max_examples=100, deadline=None)
@given(mats(3, 4), mats(2, 2), st.lists(st.integers(-1, 2), min_size=0, max_size=5), entries)
def test_sparse_constructors_match_dense_placement(A, B, picks, x):
    # take_rows: a gather with zero rows for None
    idx = [None if i < 0 else i for i in picks]
    taken = A.take_rows(idx)
    assert_canonical(taken)
    zero_row = (ZERO,) * A.ncols
    assert taken.shape == (len(idx), A.ncols)
    assert taken.rows == tuple(zero_row if i is None else A.rows[i] for i in idx)
    # from_blocks: blocks placed on a zero matrix
    placed = Mat.from_blocks(6, 7, [(0, 0, A), (3, 5, B), (4, 1, B.scale(x))])
    assert_canonical(placed)
    cells = [[ZERO] * 7 for _ in range(6)]
    for r0, c0, m in ((0, 0, A), (3, 5, B), (4, 1, B.scale(x))):
        for i, row in enumerate(m.rows):
            cells[r0 + i][c0 : c0 + m.ncols] = row
    assert placed == Mat(cells, ncols=7)
    with pytest.raises(linalg.ShapeMismatch):
        Mat.from_blocks(2, 2, [(1, 1, B)])
    # from_entries: the cells named, zero elsewhere (a zero value stores nothing)
    made = Mat.from_entries(3, 4, {(0, 1): x, (2, 3): A[2, 3], (1, 0): ZERO})
    assert_canonical(made)
    want = [[ZERO] * 4 for _ in range(3)]
    want[0][1], want[2][3] = x, A[2, 3]
    assert made == Mat(want, ncols=4)
