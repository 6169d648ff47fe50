"""The Z[i] elimination behind `Mat.rref` against the Q(i) reference oracle.

`oracle_rref` is the Gauss-Jordan loop `Mat.rref` ran before the sparse
Gaussian-integer kernel: it divides the pivot row by the pivot and eliminates
with `QQi` arithmetic on dense rows.  The reduced row echelon form is unique,
so every result built on `rref` must be the same under both.
"""

from fractions import Fraction
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from abch.linalg import Mat
from abch.scalars import QQi, ZERO


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


def _results(A: Mat, b: Mat):
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
IMAG_PIVOT = Mat(
    [[ZERO, q(Fraction(1, 65537), 3), q(1, -1)],
     [q(0, Fraction(2, P)), q(1), ZERO],
     [q(0, Fraction(4, P)), q(2), ZERO]],
    ncols=3,
)


@settings(max_examples=300, deadline=None)
@given(systems())
@example((Mat([], ncols=4), Mat([], ncols=2)))
@example((IMAG_PIVOT, Mat([[q(1)], [q(0, 1)], [q(0, 2)]], ncols=1)))
def test_rref_and_its_users_match_oracle(system):
    A, b = system
    before = [list(r) for r in A.rows]
    A.rref()
    assert A.rows == before, "rref mutated its input"
    fast = _results(A, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Mat, "rref", oracle_rref)
        slow = _results(A, b)
    assert fast == slow
