"""Bigraded expansion: wedge algebra, conjugation, Leibniz matrices."""

import math
import os

import pytest
from hypothesis import given, settings
from test_model import models

from abch.complexes import (
    DegreeOverflow,
    _differentials,
    FormVector,
    Monomial,
    NotAComplex,
    bidegrees,
    build_complex,
    conjugate,
    conjugation_matrix,
    dim_pq,
    grid,
    monomial_basis,
    total_d,
    wedge,
)
from abch.linalg import Mat
from abch.model import load_model, parse_model
from abch.scalars import QQi, ZERO
from oracles import d_operator

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

TORUS2 = parse_model("n=2\nname = torus2")
IWASAWA = parse_model("n=3\nname = iwasawa\nd phi3 = -1 * phi1 ^ phi2")
KT = parse_model("n=2\nname = kt\nd phi2 = phi1 ^ phibar1")


@pytest.fixture(scope="module")
def iwasawa():
    return build_complex(IWASAWA)


@pytest.fixture(scope="module")
def kt():
    return build_complex(KT)


def mono(n, hol, anti, c=1):
    return FormVector.monomial(n, Monomial(tuple(hol), tuple(anti)), QQi.of(c))


def test_basis_dimensions():
    for n in (1, 2, 3):
        for p in range(n + 1):
            for q in range(n + 1):
                assert dim_pq(n, p, q) == math.comb(n, p) * math.comb(n, q)
                assert len(monomial_basis(n, p, q)) == dim_pq(n, p, q)


def test_the_bidegree_grid_is_p_major():
    for n in range(7):
        assert len(bidegrees(n)) == (n + 1) ** 2
        assert list(bidegrees(n)) == sorted(bidegrees(n))  # p-major: (0, 0), (0, 1), ..., (n, n)
        table = grid(n, lambda b: b)
        assert len(table) == n + 1 and all(len(row) == n + 1 for row in table)
        assert all(table[p][q] == (p, q) for p, q in bidegrees(n))
    seen = []
    grid(2, seen.append)  # cells are computed in bidegrees(n) order
    assert seen == list(bidegrees(2))


def test_wedge_basis_products():
    a = mono(2, [1], [])
    b = mono(2, [2], [])
    ab = wedge(a, b)
    assert ab.coeffs[monomial_index(2, (1, 2), ())] == QQi(1)
    ba = wedge(b, a)
    assert ba.coeffs[monomial_index(2, (1, 2), ())] == QQi(-1)


def monomial_index(n, hol, anti):
    from abch.complexes import basis_index

    return basis_index(n, len(hol), len(anti))[Monomial(tuple(hol), tuple(anti))]


def test_wedge_bilinear():
    a = mono(2, [1], []) + mono(2, [2], [])
    b = mono(2, [], [1])
    out = wedge(a, b)
    assert out.coeffs[monomial_index(2, (1,), (1,))] == QQi(1)
    assert out.coeffs[monomial_index(2, (2,), (1,))] == QQi(1)


def test_wedge_graded_commutative():
    # a ^ b = (-1)^{|a||b|} b ^ a for random monomial pairs
    n = 3
    import itertools

    for (h1, a1), (h2, a2) in itertools.product(
        [((1,), ()), ((), (2,)), ((1, 2), ()), ((3,), (1,))],
        repeat=2,
    ):
        da, db = len(h1) + len(a1), len(h2) + len(a2)
        x, y = mono(n, h1, a1), mono(n, h2, a2)
        try:
            xy = wedge(x, y)
            yx = wedge(y, x)
        except DegreeOverflow:
            continue
        sign = -1 if (da * db) % 2 == 1 else 1
        assert xy.coeffs == tuple(c * sign for c in yx.coeffs)


def test_wedge_associative():
    n = 3
    x, y, z = mono(n, [1], []), mono(n, [], [2]), mono(n, [3], [1])
    assert wedge(wedge(x, y), z).coeffs == wedge(x, wedge(y, z)).coeffs


def test_degree_overflow():
    with pytest.raises(DegreeOverflow):
        wedge(mono(1, [1], []), mono(1, [1], []))


def test_conjugation_involution_and_bidegree():
    v = mono(2, [1], [2], QQi(0, 1)) + mono(2, [2], [1], QQi(2))
    w = conjugate(v)
    assert w.bidegree == (1, 1)
    assert conjugate(w).coeffs == v.coeffs
    # conj(i phi1 ^ phibar2) = (-i)(phibar1 ^ phi2) = i phi2 ^ phibar1
    assert w.coeffs[monomial_index(2, (2,), (1,))] == QQi(0, 1)


def test_torus_differentials_vanish():
    comp = build_complex(TORUS2)
    for p in range(3):
        for q in range(3):
            assert comp.map("del", (p, q)).is_zero()
            assert comp.map("delbar", (p, q)).is_zero()


def test_iwasawa_del_rank_one(iwasawa):
    m = iwasawa.map("del", (1, 0))
    # columns phi1, phi2, phi3 -> rows (1,2),(1,3),(2,3) of A^{2,0}
    expected = Mat.from_entries(3, 3, {(0, 2): QQi(-1)})
    assert m == expected
    assert m.rank() == 1
    assert iwasawa.map("delbar", (1, 0)).is_zero()


def test_kt_delbar_rank_one(kt):
    m = kt.map("delbar", (1, 0))
    # phi2 maps to phi1 ^ phibar1
    col = m.col(1)
    assert col[monomial_index(2, (1,), (1,))] == QQi(1)
    assert m.rank() == 1


def test_complex_identities_all_fixtures():
    for model in (TORUS2, IWASAWA, KT):
        comp = build_complex(model)
        n = comp.n
        for p in range(n + 1):
            for q in range(n + 1):
                b = (p, q)
                assert (comp.map("del", (p + 1, q)) @ comp.map("del", b)).is_zero()
                assert (comp.map("delbar", (p, q + 1)) @ comp.map("delbar", b)).is_zero()
                anti = (comp.map("del", (p, q + 1)) @ comp.map("delbar", b)
                        + comp.map("delbar", (p + 1, q)) @ comp.map("del", b))
                assert anti.is_zero()


def test_not_a_complex_reports_bidegree():
    bad = parse_model("n=3\nd phi2 = phi3 ^ phibar1\nd phi3 = phi1 ^ phi2")
    with pytest.raises(NotAComplex) as err:
        build_complex(bad)
    assert err.value.bidegree == (0, 1)


def test_conjugation_intertwines(iwasawa, kt):
    for comp in (iwasawa, kt):
        n = comp.n
        for p in range(n + 1):
            for q in range(n + 1):
                lhs = conjugation_matrix(n, p + 1, q) @ comp.map("del", (p, q)).conj()
                rhs = comp.map("delbar", (q, p)) @ conjugation_matrix(n, p, q)
                assert lhs == rhs


def test_d_operator_stack_and_square(iwasawa):
    op = d_operator(iwasawa, (1, 0))
    assert op.mat.rank() == 1
    # composing consecutive total-degree d gives zero
    for k in range(6):
        dk = total_d(iwasawa, k)
        dk1 = total_d(iwasawa, k + 1)
        assert (dk1.mat @ dk.mat).is_zero()


def test_torus_d_operator_shape():
    comp = build_complex(TORUS2)
    op = d_operator(comp, (1, 1))
    assert op.mat.is_zero()
    assert op.mat.shape == (dim_pq(2, 2, 1) + dim_pq(2, 1, 2), dim_pq(2, 1, 1))


# -- oracle: the graded Leibniz rule by FormVector wedges ----------------------
#
# d of each coframe generator as FormVectors, then del/delbar of a monomial by
# wedging d g_t with the generators before and after it, one `wedge` at a
# time.  It shares nothing with `build_complex` but the monomial basis, so it
# checks the derivation kernel column by column.


def _zero_form(n, b):
    return FormVector(n, b, (ZERO,) * dim_pq(n, *b))


def _oracle_d_of_generator(model, bar, k):
    n = model.n
    if not bar:
        del_part, dbar_part = _zero_form(n, (2, 0)), _zero_form(n, (1, 1))
        for (i, j), c in model.d20.get(k, {}).items():
            del_part = del_part + FormVector.monomial(n, Monomial((i, j), ()), c)
        for (i, j), c in model.d11.get(k, {}).items():
            dbar_part = dbar_part + FormVector.monomial(n, Monomial((i,), (j,)), c)
        return del_part, dbar_part
    # d phibar_k = conj(d phi_k)
    del_part, dbar_part = _zero_form(n, (1, 1)), _zero_form(n, (0, 2))
    for (i, j), c in model.d11.get(k, {}).items():
        # conj(phi_i ^ phibar_j) = -(phi_j ^ phibar_i)
        del_part = del_part + FormVector.monomial(n, Monomial((j,), (i,)), -c.conj())
    for (i, j), c in model.d20.get(k, {}).items():
        dbar_part = dbar_part + FormVector.monomial(n, Monomial((), (i, j)), c.conj())
    return del_part, dbar_part


def _oracle_leibniz_column(model, m, which):
    n = model.n
    p, q = len(m.hol), len(m.anti)
    out = _zero_form(n, (p + 1, q) if which == "del" else (p, q + 1))
    factors = [(False, i) for i in m.hol] + [(True, j) for j in m.anti]
    for t, (bar, k) in enumerate(factors):
        dgen = _oracle_d_of_generator(model, bar, k)[0 if which == "del" else 1]
        # (-1)^t from moving d past the first t degree-one factors
        piece = FormVector(n, dgen.bidegree, tuple(c * (-1) ** t for c in dgen.coeffs))
        for bar2, k2 in reversed(factors[:t]):
            piece = wedge(mono(n, [] if bar2 else [k2], [k2] if bar2 else []), piece)
        for bar2, k2 in factors[t + 1 :]:
            piece = wedge(piece, mono(n, [] if bar2 else [k2], [k2] if bar2 else []))
        out = out + piece
    return out


def _assert_matches_oracle(model):
    """Every del/delbar column equals the oracle's, before certification
    (random structure constants need not satisfy d^2 = 0)."""
    n = model.n
    mats = _differentials(model)
    for which in ("del", "delbar"):
        for (p, q), M in mats[which].items():
            for j, m in enumerate(monomial_basis(n, p, q)):
                assert tuple(M.col(j)) == _oracle_leibniz_column(model, m, which).coeffs, (which, m)
    assert len(mats["del"]) == n * (n + 1) and len(mats["delbar"]) == n * (n + 1)


@settings(max_examples=60, deadline=None)
@given(models())
def test_differentials_match_leibniz_oracle(model):
    _assert_matches_oracle(model)


@pytest.mark.parametrize("name", ["torus1", "torus2", "kodaira_thurston", "iwasawa", "n4_chain"])
def test_fixture_differentials_match_leibniz_oracle(name):
    _assert_matches_oracle(load_model(os.path.join(FIXTURES, f"{name}.cplx")))
