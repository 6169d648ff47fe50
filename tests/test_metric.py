"""Hermitian metrics: Grams, volume, star, adjoints."""

import itertools
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abch.complexes import FormVector, Monomial, build_complex, dim_pq, monomial_basis, total_bidegrees, wedge
from abch.linalg import Mat
from abch.metric import (
    HermitianMetric,
    NotHermitian,
    NotPositiveDefinite,
    cholesky_factor,
    diagonal_metric,
    identity_metric,
    is_kahler,
    load_metric,
    parse_metric,
)
from abch.model import load_model, parse_model
from abch.scalars import QQi, I, ONE
from abch.setting import ExactSetting, NumericSetting, compose
from oracles import ip


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
    # n = 0: the empty determinant is 1
    assert identity_metric(0).vol_coeff == ONE
    assert identity_metric(1).vol_coeff == I
    assert identity_metric(2).vol_coeff == ONE
    assert identity_metric(3).vol_coeff == I


def test_vol_coeff_scales_with_det():
    m = diagonal_metric([2, 1])
    assert m.vol_coeff == QQi(Fraction(1, 2))  # i^2 * (-1) / det = 1/2


def test_star_defining_equation():
    # alpha ^ *(conj beta) = <alpha, beta> vol for basis alpha, beta
    for H in (Mat.identity(2), random_rational_hermitian(2, seed=3)):
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
        for op in (s.out("del", b), s.out("delbar", b), s.deldbar_op(b)):
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
                dl = s.out("del", (p, q))
                # -*delbar*: A^{p+1,q} -> A^{n-q,n-p-1} -> A^{n-q,n-p} -> A^{p,q}
                s1 = m.star((p + 1, q))
                mid = comp.map("delbar", (n - q, n - p - 1))
                s2 = m.star((n - q, n - p))
                via_star = (s2.mat @ (mid @ s1.mat)).scale(QQi(-1))
                assert via_star == s.adjoint(dl).mat
                db = s.out("delbar", (p, q))
                t1 = m.star((p, q + 1))
                tmid = comp.map("del", (n - q - 1, n - p))
                t2 = m.star((n - q, n - p))
                via_star2 = (t2.mat @ (tmid @ t1.mat)).scale(QQi(-1))
                assert via_star2 == s.adjoint(db).mat
                # adjoint of the corner composition
                corner = s.deldbar_op((p, q))
                lhs = s.adjoint(corner).mat
                rhs = s.adjoint(s.out("delbar", (p, q))).mat @ s.adjoint(s.out("del", (p, q + 1))).mat
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


@pytest.mark.parametrize("rows, message", [
    ([[-2, 0, 0], [0, 1, 0], [0, 0, 1]], "leading minor 1 is -2"),
    ([[1, 2, 0], [2, 1, 0], [0, 0, 1]], "leading minor 2 is -3"),
    ([[2, I, 0], [-I, 1, 1], [0, 1, Fraction(1, 2)]], "leading minor 3 is -3/2"),
    ([[0, 1], [1, 0]], "leading minor 1 is 0"),
    ([[1, I, 0], [-I, 1, 0], [0, 0, -1]], "leading minor 2 is 0"),
], ids=["k1", "k2", "k3", "zero_k1", "zero_k2"])
def test_positivity_names_the_first_non_positive_leading_minor(rows, message):
    H = Mat([[QQi.of(x) for x in row] for row in rows], ncols=len(rows))
    with pytest.raises(NotPositiveDefinite) as err:
        HermitianMetric(len(rows), H)
    assert str(err.value) == message


def test_a_metric_builds_no_compound_before_its_first_gram(monkeypatch, capsys):
    import abch.metric
    from abch.cli import main

    calls = []
    real = abch.metric.compound
    monkeypatch.setattr(abch.metric, "compound", lambda M, k: calls.append(k) or real(M, k))
    metric = HermitianMetric(3, random_rational_hermitian(3))
    assert calls == [] and metric._memo == {}
    metric.gram((1, 1))
    assert sorted(set(calls)) == [1]
    # neither command reads a Gram, so neither builds a compound
    calls.clear()
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    for command in ("check", "ddbar"):
        assert main([command, os.path.join(fixtures, "iwasawa.cplx"), "--metric", os.path.join(fixtures, "dense3.herm")]) == 0
    capsys.readouterr()
    assert calls == []


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
    adj = s.adjoint(s.out("delbar", (0, 1)))
    from abch.complexes import basis_index, Monomial as Mono

    src_idx = basis_index(3, 0, 2)[Mono((), (1, 2))]
    col = adj.mat.col(src_idx)
    expected = [QQi(0), QQi(0), QQi(-1)]
    assert col == expected


def test_numeric_star_adjoint_residual():
    # numeric backend: -*delbar* (the exact star converted to floats), written
    # in orthonormal coordinates by the whitening factors of its two spaces,
    # agrees with the numeric setting's adjoint of del to a relative 1e-10
    comp = build_complex(IWASAWA)
    em = HermitianMetric(3, random_rational_hermitian(3, seed=31))
    ns = NumericSetting(ExactSetting(comp, em))
    n = 3
    for p in range(n + 1):
        for q in range(n + 1):
            dl = ns.out("del", (p, q))
            if dl.mat.size == 0:
                continue
            s1 = em.star((p + 1, q)).mat.to_numpy()
            mid = comp.map("delbar", (n - q, n - p - 1)).to_numpy()
            s2 = em.star((n - q, n - p)).mat.to_numpy()
            A_src, A_dst_inv = ns.metric.gram_factor(dl.src)[0], ns.metric.gram_factor(dl.dst)[1]
            via_star = A_src @ -(s2 @ mid @ s1) @ A_dst_inv
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


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
DENSE3 = load_metric(os.path.join(FIXTURES, "dense3.herm"))


@pytest.mark.parametrize("metric", [HermitianMetric(*DENSE3), diagonal_metric([2, 3, 1, 5])], ids=["dense3", "diag4"])
def test_gram_inverse_by_cauchy_binet(metric):
    n = metric.n
    for p in range(n + 1):
        for q in range(n + 1):
            G, G_inv = metric.gram((p, q)), metric.gram_inv_space(((p, q),))
            assert G @ G_inv == Mat.identity(G.nrows)
            assert G_inv == G.inv()


small_rats = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def dominant_hermitian(draw):
    """(n, H): a Hermitian H over the Gaussian rationals, n <= 3, whose real
    diagonal exceeds the sum of |re| + |im| over the rest of its row, so it
    is positive definite."""
    n = draw(st.integers(1, 3))
    cells = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = QQi(draw(small_rats), draw(small_rats))
            cells[(i, j)], cells[(j, i)] = c, c.conj()
    for i in range(n):
        off = sum((abs(c.re) + abs(c.im) for (r, _), c in cells.items() if r == i), Fraction(0))
        cells[(i, i)] = QQi(off + draw(st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(5, 2)])))
    return n, Mat.from_entries(n, n, cells)


@settings(max_examples=25, deadline=None)
@given(dominant_hermitian())
def test_every_gram_times_its_inverse_is_the_identity(nH):
    # the full-size identity that the per-factor check certifies through the
    # mixed-product property of kron: every bidegree and every total degree
    n, H = nH
    metric = HermitianMetric(n, H)
    spaces = [((p, q),) for p in range(n + 1) for q in range(n + 1)]
    spaces += [total_bidegrees(n, k) for k in range(2 * n + 1)]
    for space in spaces:
        G = metric.gram_space(space)
        assert G @ metric.gram_inv_space(space) == Mat.identity(G.nrows)


def test_memoised_adjoints_match_uncached_formula():
    comp = build_complex(parse_model("n = 2\nd phi2 = phi1 ^ phibar1"))
    s = ExactSetting(comp, HermitianMetric(*parse_metric("n = 2\nH[1][2] = (1/2 + 1/3 i)")))
    # every primitive, off-range ones included, and its memoised adjoint
    named = [("d", k) for k in range(-1, 5)]
    for p in range(-1, 3):
        for q in range(-1, 3):
            named += [("del", (p, q)), ("delbar", (p, q)), ("deldbar", (p, q))]
    for name, b in named:
        op = s.out(name, b)
        uncached = s.gram(op.src).conj().inv() @ op.mat.conj_t() @ s.gram(op.dst).conj()
        adj = s.out(name, b, True)
        assert adj.mat == uncached
        assert (adj.src, adj.dst) == (op.dst, op.src)
        assert s.out(name, b, True) is adj
        assert adj == s.adjoint(op)
    # a composite is not memoised, but has the same adjoint
    corner = compose(s.out("del", (0, 1)), s.out("delbar", (0, 0)))
    assert s.adjoint(corner) is not s.adjoint(corner)
    assert s.adjoint(corner).mat == s.adjoint(s.deldbar_op((0, 0))).mat


def test_numeric_setting_is_a_float_view_of_the_exact_one():
    # under a dense complex metric: the numeric Grams are the exact ones
    # converted, each numeric primitive is the exact one converted and
    # whitened, A_dst T A_src^{-1}, its adjoint is memoised, it is the
    # unmemoised float adjoint bit for bit, and taken back to the original
    # coordinates it is the exact adjoint converted, to a relative 1e-12
    em = HermitianMetric(*DENSE3)
    s = ExactSetting(build_complex(IWASAWA), em)
    ns = NumericSetting(s)
    for p in range(4):
        for q in range(4):
            b = (p, q)
            assert np.array_equal(ns.gram((b,)), em.gram_space((b,)).to_numpy())
            for name, k in (("del", b), ("delbar", b), ("deldbar", b), ("d", p + q)):
                nop, op = ns.out(name, k), s.out(name, k)
                (A_src, A_src_inv), (A_dst, A_dst_inv) = ns.metric.gram_factor(op.src), ns.metric.gram_factor(op.dst)
                whitened = A_dst @ op.mat.to_numpy() @ A_src_inv
                if name == "deldbar":  # the product of its two whitened factors
                    assert np.linalg.norm(nop.mat - whitened) <= 1e-12 * max(np.linalg.norm(whitened), 1.0)
                else:
                    assert np.array_equal(nop.mat, whitened)
                adj = ns.out(name, k, True)
                assert ns.out(name, k, True) is adj
                assert (adj.src, adj.dst) == (op.dst, op.src)
                assert np.array_equal(adj.mat, ns.adjoint(nop).mat)
                expected = s.adjoint(op).mat.to_numpy()
                back = A_src_inv @ adj.mat @ A_dst
                assert back.shape == expected.shape
                assert np.linalg.norm(back - expected) <= 1e-12 * np.linalg.norm(expected)


def test_del_delbar_is_multiplied_once_per_complex():
    # build_complex's anticommutator check and the exact setting read one
    # memoised del delbar per bidegree; a numeric setting composes its own
    # two scaled whitened float factors, so its corner carries scale**2
    comp = build_complex(IWASAWA)
    s = ExactSetting(comp, HermitianMetric(*DENSE3))
    ns = NumericSetting(s, scale=3.0)
    for p in range(4):
        for q in range(4):
            b = (p, q)
            op = s.deldbar_op(b)
            assert op.mat is comp.map("deldbar", b)
            assert (op.src, op.dst) == ((b,), ((p + 1, q + 1),))
            assert op.mat == compose(s.out("del", (p, q + 1)), s.out("delbar", b)).mat
            nop = ns.deldbar_op(b)
            assert np.array_equal(nop.mat, ns.out("del", (p, q + 1)).mat @ ns.out("delbar", b).mat)
            A_dst, A_src_inv = ns.metric.gram_factor(op.dst)[0], ns.metric.gram_factor(op.src)[1]
            assert np.allclose(nop.mat, 9.0 * A_dst @ op.mat.to_numpy() @ A_src_inv, rtol=0, atol=1e-12)


def test_numeric_adjoints_are_conjugate_transposes():
    # in orthonormal coordinates adjoint_mat is the conjugate transpose, bit
    # for bit, on every call, and it reads no Gram and no factor
    nm = HermitianMetric(*DENSE3).numeric
    src, dst = ((1, 1),), ((2, 1),)
    T = np.arange(81, dtype=complex).reshape(9, 9) * (1 - 0.5j)
    first = nm.adjoint_mat(T, src, dst)
    assert np.array_equal(nm.adjoint_mat(T, src, dst), first)
    assert np.array_equal(first, T.conj().T)
    assert not nm._memo


@pytest.mark.parametrize("model, metric", [("iwasawa.cplx", "dense3.herm"), ("kodaira_thurston.cplx", "kt_complex.herm")])
def test_float_adjoints_and_cholesky_factors_conjugate_once_at_the_end(model, metric):
    # conjugating every input of a float product or factorisation conjugates
    # its result exactly, so cholesky_factor, which conjugates once at the
    # end, gives bit for bit what conjugating the Gram first gives, on every
    # bidegree and total-degree space; and every float primitive's adjoint,
    # in orthonormal coordinates, is its conjugate transpose bit for bit
    # (test_numeric_setting_is_a_float_view_of_the_exact_one takes it back
    # to the exact adjoint)
    ns = NumericSetting(ExactSetting(build_complex(load_model(os.path.join(FIXTURES, model))),
                                     HermitianMetric(*load_metric(os.path.join(FIXTURES, metric)))))
    nm, n = ns.metric, ns.n
    named = [(name, (p, q)) for p in range(n + 1) for q in range(n + 1) for name in ("del", "delbar", "deldbar")]
    named += [("d", k) for k in range(2 * n + 1)]
    for name, b in named:
        op = ns.out(name, b)
        assert np.array_equal(nm.adjoint_mat(op.mat, op.src, op.dst), op.mat.conj().T)
    spaces = [((p, q),) for p in range(n + 1) for q in range(n + 1)]
    for space in spaces + [total_bidegrees(n, k) for k in range(2 * n + 1)]:
        G = nm.gram_space(space)
        assert np.array_equal(cholesky_factor(G)[0], np.linalg.cholesky(G.conj()).conj().T)
