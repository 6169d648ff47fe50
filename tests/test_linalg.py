"""Exact elimination, subspaces and Gram projections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abch.linalg import (
    Mat,
    ShapeMismatch,
    common_kernel,
    gram_adjoint,
    kron,
    project,
    projection_coords,
    span_basis,
    subspace_contains,
    subspace_dim,
    subspace_eq,
    subspace_intersect,
    subspace_sum,
)
from abch.scalars import QQi, ONE, ZERO
from oracles import ip

small = st.integers(min_value=-4, max_value=4)
entries = st.builds(lambda a, b: QQi(Fraction(a), Fraction(b)), small, small)


def mats(nrows, ncols):
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ).map(lambda rows: Mat(rows, ncols=ncols))


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
gaussian_rationals = st.builds(QQi, fractions, fractions)


@st.composite
def kron_operands(draw):
    """A (a x b), C (b x c), B (d x e) and D (e x f), with 0 <= a..f <= 3."""
    a, b, c, d, e, f = (draw(st.integers(0, 3)) for _ in range(6))

    def mat(r, k):
        return Mat([draw(st.lists(gaussian_rationals, min_size=k, max_size=k)) for _ in range(r)], ncols=k)

    return mat(a, b), mat(b, c), mat(d, e), mat(e, f)


@settings(max_examples=60, deadline=None)
@given(kron_operands())
def test_kron_mixed_product(ops):
    # the per-factor Gram inverse check in `metric` rests on this identity
    A, C, B, D = ops
    assert kron(A, B) @ kron(C, D) == kron(A @ C, B @ D)


@settings(max_examples=60, deadline=None)
@given(mats(3, 4))
def test_nullspace_is_kernel(A):
    N = A.nullspace()
    assert (A @ N).is_zero()
    assert A.rank() + N.ncols == A.ncols


@settings(max_examples=60, deadline=None)
@given(mats(4, 3))
def test_column_space_rank(A):
    C = A.column_space()
    assert C.ncols == A.rank()
    assert subspace_contains(C, A)


@settings(max_examples=40, deadline=None)
@given(mats(3, 3))
def test_inverse_or_singular(A):
    if A.rank() == 3:
        assert A @ A.inv() == Mat.identity(3)
    else:
        with pytest.raises(ZeroDivisionError):
            A.inv()


@settings(max_examples=40, deadline=None)
@given(mats(3, 3), mats(3, 2))
def test_solve(A, b):
    X = A.solve(b)
    if X is not None:
        assert A @ X == b


@settings(max_examples=30, deadline=None)
@given(mats(4, 2), mats(4, 2))
def test_intersection_and_sum(A, B):
    inter = subspace_intersect(A, B)
    assert subspace_contains(A, inter) and subspace_contains(B, inter)
    total = subspace_sum(A, B)
    assert subspace_dim(total) == A.rank() + B.rank() - inter.ncols


def _pd_gram(n):
    # a fixed rational Hermitian positive definite Gram
    B = Mat(
        [[QQi(Fraction(1, 1 + ((i * 3 + j) % 4)), Fraction((i + 2 * j) % 3, 5)) for j in range(n)] for i in range(n)],
        ncols=n,
    )
    return B.conj_t() @ B + Mat.identity(n)


@settings(max_examples=30, deadline=None)
@given(mats(3, 2), mats(2, 3))
def test_gram_adjoint_property(U, T):
    Gs, Gd = _pd_gram(3), _pd_gram(2)
    S = gram_adjoint(T, Gs.inv(), Gd)
    for u in [U.col(j) for j in range(U.ncols)]:
        for v in [Mat.identity(2).col(j) for j in range(2)]:
            lhs = ip(T.matvec(u), v, Gd)
            rhs = ip(u, S.matvec(v), Gs)
            assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(mats(2, 4), mats(4, 2))
def test_common_kernel_is_killed_and_gram_orthogonal(T, C):
    # ker T ∩ (span C)^⊥ under a Gram with nonreal entries; without T it is
    # the whole Gram complement of span C
    G = _pd_gram(4)
    K, complement = common_kernel([T], [C], G), common_kernel([], [C], G)
    assert (T @ K).is_zero()
    assert complement.ncols == 4 - C.rank()
    for X in (K, complement):
        for k in range(X.ncols):
            for c in range(C.ncols):
                assert ip(X.col(k), C.col(c), G) == QQi(0)


def test_projection_is_orthogonal():
    G = _pd_gram(4)
    B = Mat(
        [[ONE, ZERO], [ZERO, ONE], [QQi(2), QQi(0, 1)], [ZERO, ZERO]],
        ncols=2,
    )
    x = [QQi(1), QQi(2), QQi(3), QQi(4)]
    px = project(x, B, G)
    res = [a - b for a, b in zip(x, px)]
    for b in [B.col(j) for j in range(B.ncols)]:
        assert ip(res, b, G) == QQi(0)
    assert subspace_contains(B, Mat.column(px))
    # several columns in one solve
    S = Mat(
        [[QQi(1), QQi(0, 1), ZERO], [QQi(2), ONE, QQi(1, -1)], [QQi(3), ZERO, ONE], [QQi(4), QQi(-1), QQi(0, 2)]],
        ncols=3,
    )
    BX = B @ projection_coords(S, B, G)
    for j in range(S.ncols):
        assert BX.col(j) == project(S.col(j), B, G)
    assert ((S - BX).transpose() @ G @ B.conj()).is_zero()


def test_span_basis_canonical():
    A = Mat([[ONE, QQi(2)], [QQi(2), QQi(4)]], ncols=2)
    S = span_basis(A)
    assert S.ncols == 1
    assert subspace_eq(S, A)


def test_subspace_eq_needs_one_ambient_space():
    # also when the ranks differ, so no rank decides it first
    with pytest.raises(ShapeMismatch):
        subspace_eq(Mat.identity(2), Mat.zeros(3, 1))
