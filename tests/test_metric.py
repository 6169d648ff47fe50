"""Hermitian metrics: Grams, volume, star, adjoints."""

import itertools
import os
from fractions import Fraction

import numpy as np
import pytest

from abch.complexes import FormVector, Monomial, build_complex, dim_pq, monomial_basis, wedge
from abch.linalg import Mat, ip
from abch.metric import (
    HermitianMetric,
    NotHermitian,
    NotPositiveDefinite,
    diagonal_metric,
    identity_metric,
    is_kahler,
    load_metric,
    parse_metric,
)
from abch.model import parse_model
from abch.scalars import QQi, I, ONE
from abch.setting import ExactSetting, NumericSetting, compose


def perm_det(M: Mat) -> QQi:
    """Independent determinant by the permutation-sum formula."""
    n = M.nrows
    total = QQi(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = QQi(sign)
        for i in range(n):
            term = term * M.rows[i][perm[i]]
        total = total + term
    return total


def random_rational_hermitian(n, seed=7):
    rng = np.random.default_rng(seed)
    B = Mat(
        [
            [
                QQi(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                    Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
                for _ in range(n)
            ]
            for _ in range(n)
        ],
        ncols=n,
    )
    return B.conj_t() @ B + Mat.identity(n)


def test_identity_grams():
    m = identity_metric(2)
    for p in range(3):
        for q in range(3):
            assert m.gram((p, q)) == Mat.identity(dim_pq(2, p, q))


def test_diag_gram_example():
    m = diagonal_metric([2, 1])
    G = m.gram((1, 1))
    diag = [G.rows[i][i] for i in range(4)]
    assert diag == [QQi(4), QQi(2), QQi(2), QQi(1)]
    assert m.gram((1, 0)) == Mat([[QQi(2), QQi(0)], [QQi(0), QQi(1)]], ncols=2)


def test_gram_against_permanent_determinant_oracle():
    H = random_rational_hermitian(3)
    m = HermitianMetric(3, H)
    G = m.gram((2, 1))
    basis = monomial_basis(3, 2, 1)
    Hc = H.conj()
    for a, ma in enumerate(basis):
        for b, mb in enumerate(basis):
            sub_h = Mat([[H.rows[i - 1][j - 1] for j in mb.hol] for i in ma.hol], ncols=2)
            sub_a = Mat([[Hc.rows[i - 1][j - 1] for j in mb.anti] for i in ma.anti], ncols=1)
            assert G.rows[a][b] == perm_det(sub_h) * perm_det(sub_a)


def test_gram_positive_definite():
    H = random_rational_hermitian(2, seed=11)
    m = HermitianMetric(2, H)
    for p in range(3):
        for q in range(3):
            G = m.gram((p, q))
            ev = np.linalg.eigvalsh(G.to_numpy())
            if len(ev):
                assert ev.min() > 0


def test_vol_coeff_small_dimensions():
    # omega^n / n! computed through the wedge product must match vol_coeff
    for n in (1, 2, 3):
        m = identity_metric(n)
        omega = m.fundamental_form()
        power = omega
        fact = 1
        for k in range(2, n + 1):
            power = wedge(power, omega)
            fact *= k
        top = power.coeffs[0] / fact
        assert top == m.vol_coeff
    assert identity_metric(1).vol_coeff == I
    assert identity_metric(2).vol_coeff == ONE
    assert identity_metric(3).vol_coeff == I


def test_vol_coeff_scales_with_det():
    m = diagonal_metric([2, 1])
    assert m.vol_coeff == QQi(Fraction(1, 2))  # i^2 * (-1) / det = 1/2


def test_star_defining_equation():
    # alpha ^ *(conj beta) = <alpha, beta> vol for basis alpha, beta
    for H in (Mat.identity(2), random_rational_hermitian(2, seed=3).copy()):
        m = HermitianMetric(2, H)
        n = 2
        for p in range(n + 1):
            for q in range(n + 1):
                star = m.star((p, q))
                G = m.gram((p, q))
                basis = monomial_basis(n, p, q)
                for jb, mb in enumerate(basis):
                    sβ = conj_form(FormVector.monomial(n, mb))
                    starred = star_apply(m, sβ)
                    for ia, ma in enumerate(basis):
                        lhs = wedge(FormVector.monomial(n, ma), starred)
                        expected = G.rows[ia][jb] * m.vol_coeff
                        assert lhs.coeffs[0] == expected


def conj_form(v: FormVector) -> FormVector:
    from abch.complexes import conjugate

    return conjugate(v)


def star_apply(m: HermitianMetric, v: FormVector) -> FormVector:
    op = m.star(v.bidegree)
    out = op.mat.matvec(list(v.coeffs))
    (dst,) = op.dst
    return FormVector(m.n, dst, tuple(out))


def test_star_hand_values_dimension_one():
    m = identity_metric(1)
    one = FormVector.monomial(1, Monomial((), ()))
    phi = FormVector.monomial(1, Monomial((1,), ()))
    phibar = FormVector.monomial(1, Monomial((), (1,)))
    top = FormVector.monomial(1, Monomial((1,), (1,)))
    assert star_apply(m, one).coeffs == (I,)
    assert star_apply(m, phi).coeffs == (-I,)
    assert star_apply(m, phibar).coeffs == (I,)
    assert star_apply(m, top).coeffs == (-I,)


def test_star_involution_sign():
    for n, H in ((2, Mat.identity(2)), (2, random_rational_hermitian(2, seed=5)), (3, Mat.identity(3))):
        m = HermitianMetric(n, H)
        for p in range(n + 1):
            for q in range(n + 1):
                s1 = m.star((p, q))
                s2 = m.star((n - q, n - p))
                comp = s2.mat @ s1.mat
                sign = -1 if (p + q) % 2 == 1 else 1
                assert comp == Mat.identity(dim_pq(n, p, q)).scale(QQi(sign))


def test_star_is_isometry():
    # <*a, *b> = <a, b>: the C-linear star extends a real isometry, so no
    # conjugation swap appears (for real H both readings coincide)
    H = random_rational_hermitian(2, seed=13)
    m = HermitianMetric(2, H)
    for p in range(3):
        for q in range(3):
            star = m.star((p, q))
            G_src = m.gram((p, q))
            (dst,) = star.dst
            G_dst = m.gram(dst)
            basis = monomial_basis(2, p, q)
            for a in range(len(basis)):
                for b in range(len(basis)):
                    ea = [QQi(int(i == a)) for i in range(len(basis))]
                    eb = [QQi(int(i == b)) for i in range(len(basis))]
                    lhs = ip(star.mat.matvec(ea), star.mat.matvec(eb), G_dst)
                    assert lhs == ip(ea, eb, G_src)


IWASAWA = parse_model("n=3\nd phi3 = -1 * phi1 ^ phi2")


def test_adjoint_property_random_forms():
    comp = build_complex(IWASAWA)
    m = HermitianMetric(3, random_rational_hermitian(3, seed=17))
    s = ExactSetting(comp, m)
    rng = np.random.default_rng(23)
    for b in [(1, 0), (1, 1), (2, 1)]:
        for op in (s.del_op(b), s.delbar_op(b), s.deldbar_op(b)):
            adj = s.adjoint(op)
            G_src = s.gram(op.src)
            G_dst = s.gram(op.dst)
            for _ in range(3):
                u = [QQi(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) for _ in range(op.mat.ncols)]
                v = [QQi(int(rng.integers(-3, 4)), int(rng.integers(-3, 4))) for _ in range(op.mat.nrows)]
                assert ip(op.mat.matvec(u), v, G_dst) == ip(u, adj.mat.matvec(v), G_src)


def test_star_formula_for_adjoints():
    """-*delbar* equals the Gram adjoint of del, -*del* the adjoint of
    delbar, and (del delbar)* = delbar* del* (no extra sign shows up)."""
    comp = build_complex(IWASAWA)
    for H in (Mat.identity(3), diagonal_metric([2, 1, 1]).H):
        m = HermitianMetric(3, H)
        s = ExactSetting(comp, m)
        n = 3
        for p in range(n + 1):
            for q in range(n + 1):
                dl = s.del_op((p, q))
                # -*delbar*: A^{p+1,q} -> A^{n-q,n-p-1} -> A^{n-q,n-p} -> A^{p,q}
                s1 = m.star((p + 1, q))
                mid = comp.delbar((n - q, n - p - 1))
                s2 = m.star((n - q, n - p))
                via_star = (s2.mat @ (mid @ s1.mat)).scale(QQi(-1))
                assert via_star == s.adjoint(dl).mat
                db = s.delbar_op((p, q))
                t1 = m.star((p, q + 1))
                tmid = comp.del_((n - q - 1, n - p))
                t2 = m.star((n - q, n - p))
                via_star2 = (t2.mat @ (tmid @ t1.mat)).scale(QQi(-1))
                assert via_star2 == s.adjoint(db).mat
                # adjoint of the corner composition
                corner = s.deldbar_op((p, q))
                lhs = s.adjoint(corner).mat
                rhs = s.adjoint(s.delbar_op((p, q))).mat @ s.adjoint(s.del_op((p, q + 1))).mat
                assert lhs == rhs


def test_kahler_detection():
    torus = build_complex(parse_model("n=2"))
    assert is_kahler(torus, identity_metric(2))
    assert is_kahler(torus, diagonal_metric([2, 1]))
    kt = build_complex(parse_model("n=2\nd phi2 = phi1 ^ phibar1"))
    assert not is_kahler(kt, identity_metric(2))
    iw = build_complex(IWASAWA)
    assert not is_kahler(iw, identity_metric(3))


def test_metric_validation():
    bad = Mat([[QQi(1), QQi(2)], [QQi(3), QQi(1)]], ncols=2)
    with pytest.raises(NotHermitian):
        HermitianMetric(2, bad)
    neg = Mat([[QQi(-1), QQi(0)], [QQi(0), QQi(1)]], ncols=2)
    with pytest.raises(NotPositiveDefinite):
        HermitianMetric(2, neg)


def test_parse_herm():
    n, H = parse_metric("n = 2\nH[1][1] = 2\nH[1][2] = (0 + 1/2 i)\n")
    assert n == 2
    assert H.rows[0][0] == QQi(2)
    assert H.rows[0][1] == QQi(0, Fraction(1, 2))
    assert H.rows[1][0] == QQi(0, Fraction(-1, 2))
    assert H.rows[1][1] == QQi(1)


def test_iwasawa_delbar_star_hand_value():
    # delbar* on A^{0,2} with H = id sends phibar1 ^ phibar2 to -phibar3,
    # matching the Gram adjoint of delbar: A^{0,1} -> A^{0,2}
    comp = build_complex(IWASAWA)
    s = ExactSetting(comp, identity_metric(3))
    adj = s.adjoint(s.delbar_op((0, 1)))
    from abch.complexes import basis_index, Monomial as Mono

    src_idx = basis_index(3, 0, 2)[Mono((), (1, 2))]
    col = adj.mat.col(src_idx)
    expected = [QQi(0), QQi(0), QQi(-1)]
    assert col == expected


def test_numeric_star_adjoint_residual():
    # numeric backend: -*delbar* (the exact star converted to floats) agrees
    # with the numeric setting's adjoint of del to a relative 1e-10
    comp = build_complex(IWASAWA)
    em = HermitianMetric(3, random_rational_hermitian(3, seed=31))
    ns = NumericSetting(ExactSetting(comp, em))
    n = 3
    for p in range(n + 1):
        for q in range(n + 1):
            dl = ns.del_op((p, q))
            if dl.mat.size == 0:
                continue
            s1 = em.star((p + 1, q)).mat.to_numpy()
            mid = comp.delbar((n - q, n - p - 1)).to_numpy()
            s2 = em.star((n - q, n - p)).mat.to_numpy()
            via_star = -(s2 @ mid @ s1)
            adj = ns.adjoint(dl).mat
            norm = np.linalg.norm(dl.mat)
            if norm == 0:
                assert np.allclose(via_star, adj, atol=1e-12)
            else:
                assert np.linalg.norm(via_star - adj) <= 1e-10 * norm


def test_total_d_adjoint_property():
    comp = build_complex(IWASAWA)
    m = HermitianMetric(3, random_rational_hermitian(3, seed=37))
    s = ExactSetting(comp, m)
    rng = np.random.default_rng(43)
    for k in (1, 2, 3):
        op = s.total_d(k)
        adj = s.adjoint(op)
        G_src = s.gram(op.src)
        G_dst = s.gram(op.dst)
        for _ in range(3):
            u = [QQi(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))) for _ in range(op.mat.ncols)]
            v = [QQi(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))) for _ in range(op.mat.nrows)]
            assert ip(op.mat.matvec(u), v, G_dst) == ip(u, adj.mat.matvec(v), G_src)


DENSE3 = load_metric(os.path.join(os.path.dirname(__file__), "..", "fixtures", "dense3.herm"))


@pytest.mark.parametrize("metric", [HermitianMetric(*DENSE3), diagonal_metric([2, 3, 1, 5])], ids=["dense3", "diag4"])
def test_gram_inverse_by_cauchy_binet(metric):
    n = metric.n
    for p in range(n + 1):
        for q in range(n + 1):
            G, G_inv = metric.gram((p, q)), metric.gram_inv((p, q))
            assert G @ G_inv == Mat.identity(G.nrows)
            assert G_inv == G.inv()


def test_memoised_adjoints_match_uncached_formula():
    comp = build_complex(parse_model("n = 2\nd phi2 = phi1 ^ phibar1"))
    s = ExactSetting(comp, HermitianMetric(*parse_metric("n = 2\nH[1][2] = (1/2 + 1/3 i)")))
    ops = [s.total_d(k) for k in range(-1, 5)]
    for p in range(-1, 3):
        for q in range(-1, 3):
            ops += [s.del_op((p, q)), s.delbar_op((p, q)), s.deldbar_op((p, q))]
    for op in ops:
        uncached = s.gram(op.src).conj().inv() @ op.mat.conj_t() @ s.gram(op.dst).conj()
        adj = s.adjoint(op)
        assert adj.mat == uncached
        assert (adj.src, adj.dst) == (op.dst, op.src)
        assert s.adjoint(op) is adj
    # a composite is not memoised, but has the same adjoint
    corner = compose(s.del_op((0, 1)), s.delbar_op((0, 0)))
    assert s.adjoint(corner) is not s.adjoint(corner)
    assert s.adjoint(corner).mat == s.adjoint(s.deldbar_op((0, 0))).mat


def test_numeric_setting_is_a_float_view_of_the_exact_one():
    # under a dense complex metric: the numeric Grams are the exact ones
    # converted, each numeric primitive's adjoint is memoised, and it is the
    # exact adjoint converted, to a relative 1e-12
    em = HermitianMetric(*DENSE3)
    s = ExactSetting(build_complex(IWASAWA), em)
    ns = NumericSetting(s)
    for p in range(4):
        for q in range(4):
            b = (p, q)
            assert np.array_equal(ns.gram((b,)), em.gram_space((b,)).to_numpy())
            prims = [(ns.del_op(b), s.del_op(b)), (ns.delbar_op(b), s.delbar_op(b)),
                     (ns.deldbar_op(b), s.deldbar_op(b)), (ns.total_d(p + q), s.total_d(p + q))]
            for nop, op in prims:
                adj = ns.adjoint(nop)
                assert ns.adjoint(nop) is adj
                assert (adj.src, adj.dst) == (op.dst, op.src)
                expected = s.adjoint(op).mat.to_numpy()
                assert adj.mat.shape == expected.shape
                assert np.linalg.norm(adj.mat - expected) <= 1e-12 * np.linalg.norm(expected)
