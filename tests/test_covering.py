"""Fourier coverings: mode sets, Gamma-dimensions, gaps, independence."""

import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import abch.cli
from abch.cli import main
from abch.complexes import DegreeOverflow, FormVector, bidegrees, dim_pq, monomial_basis, total_bidegrees, wedge
from abch.covering import (
    CoveringSpec,
    Mode,
    ModeOps,
    NotASublattice,
    build_cover,
    gamma_dimension,
    gamma_tables,
    gap_and_closed_image,
    hermite_normal_form,
    load_cover,
    metric_independence_check,
    parse_cover,
)
import abch.covering
import abch.laplacians
from abch.laplacians import THEORY_KINDS, LaplacianKind, assemble, spectrum
from abch.linalg import Mat, ShapeMismatch, subspace_eq
from abch.metric import load_metric
from abch.scalars import QQi
from abch.setting import NumericSetting

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SPEC2 = CoveringSpec(n=1, base=((1, 0), (0, 1)), sub=((2, 0), (0, 1)), radius=Fraction(1))


@pytest.fixture(scope="module")
def cover2():
    return build_cover(SPEC2)


def test_parse_cover():
    text = "n = 1\nbase = [[1, 0], [0, 1]]\nsub = [[2, 0], [0, 1]]\nradius = 1\n"
    spec = parse_cover(text)
    assert spec == SPEC2


def test_index_and_mode_set(cover2):
    assert cover2.index == 2
    mus = sorted(tuple(m.mu) for m in cover2.modes)
    expected = sorted(
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(-1, 2), Fraction(0)),
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1)),
        ]
    )
    assert mus == expected


def test_trivial_cover_is_base_complex():
    spec = CoveringSpec(n=1, base=((1, 0), (0, 1)), sub=((1, 0), (0, 1)), radius=Fraction(1, 2))
    fc = build_cover(spec)
    assert fc.index == 1
    assert fc.mode_count() == 1
    assert fc.modes[0].is_zero
    st = fc.settings[0]
    for p in range(2):
        for q in range(2):
            assert st.out("del", (p, q)).mat.is_zero()
            assert st.out("delbar", (p, q)).mat.is_zero()


def test_mode_complex_identities(cover2):
    for st in cover2.settings:
        ops = st.ops
        for p in range(2):
            for q in range(2):
                b = (p, q)
                assert (ops.map("del", (p + 1, q)) @ ops.map("del", b)).is_zero()
                assert (ops.map("delbar", (p, q + 1)) @ ops.map("delbar", b)).is_zero()
                anti = (ops.map("del", (p, q + 1)) @ ops.map("delbar", b)
                        + ops.map("delbar", (p + 1, q)) @ ops.map("del", b))
                assert anti.is_zero()


def test_twist_matches_frequency(cover2):
    # the (0,0) -> (1,0) reduced matrix is multiplication by i mu^{1,0}
    for md, st in zip(cover2.modes, cover2.settings):
        a, b = md.mu
        m = st.out("del", (0, 0)).mat
        assert m.rows[0][0] == QQi(Fraction(b, 2), Fraction(a, 2))


def _assert_twists_are_wedges(ops):
    """Each del/delbar column of a mode is the wedge of its twist form with
    the basis monomial, computed by `wedge`."""
    n = ops.n
    xis = (FormVector(n, (1, 0), ops.mode.c10), FormVector(n, (0, 1), ops.mode.c01))
    for p in range(n + 1):
        for q in range(n + 1):
            for M, xi in zip((ops.map("del", (p, q)), ops.map("delbar", (p, q))), xis):
                for j, m in enumerate(monomial_basis(n, p, q)):
                    try:
                        want = wedge(xi, FormVector.monomial(n, m)).coeffs
                    except DegreeOverflow:
                        want = ()
                    assert tuple(M.col(j)) == want, (p, q, m)


@pytest.mark.parametrize("name", ["index2", "index2_n2"])
def test_mode_twists_are_wedges(name):
    fc = build_cover(load_cover(os.path.join(FIXTURES, f"{name}.cover")))
    for st in fc.settings:
        _assert_twists_are_wedges(st.ops)


def test_twist_with_several_complex_coefficients_is_a_wedge():
    # the fixture modes have one nonzero coordinate each
    c = (QQi(Fraction(1, 2), 3), QQi(0, -1), QQi(Fraction(-2, 3), Fraction(1, 5)))
    zero = (Fraction(0),) * 6
    mode = Mode(m=(0,) * 6, mu=zero, c10=c, c01=tuple(-x.conj() for x in c), norm2=Fraction(0))
    _assert_twists_are_wedges(ModeOps(3, mode))


def test_mode_norm_is_the_metric_norm():
    # |mu|^2 = 4 h(mu^{1,0}, mu^{1,0}) under a metric with imaginary entries
    H = Mat([[QQi(2), QQi(1, 1)], [QQi(1, -1), QQi(3)]])
    spec = CoveringSpec(
        n=2,
        base=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        sub=((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        radius=Fraction(2),
    )
    fc = build_cover(spec, H)
    assert fc.mode_count() > 1
    for md in fc.modes:
        u = [QQi(a / 2, -b / 2) for a, b in zip(md.mu[:2], md.mu[2:])]
        h = sum((H.rows[j][k] * u[j] * u[k].conj() for j in range(2) for k in range(2)), QQi(0))
        assert h.im == 0 and md.norm2 == 4 * h.re
        assert type(md.norm2) is Fraction and md.norm2 <= spec.radius**2


def test_gamma_dimension_harmonics(cover2):
    K = cover2.mode_kernels(LaplacianKind.DELBAR, (0, 0))
    assert [B.ncols for B in K] == [int(i == cover2.zero) for i in range(cover2.mode_count())]  # zero mode only
    assert gamma_dimension(cover2, K) == Fraction(1, 2)


def test_gamma_dimension_trivial_group():
    spec = CoveringSpec(n=1, base=((1, 0), (0, 1)), sub=((1, 0), (0, 1)), radius=Fraction(1))
    fc = build_cover(spec)
    V = fc.mode_kernels(LaplacianKind.DELBAR, (0, 0))
    assert gamma_dimension(fc, V) == Mat.block_diag(V).rank()


def test_gamma_dimension_zero_iff_zero(cover2):
    assert gamma_dimension(cover2, [Mat.zeros(dim_pq(1, 0, 0), 0)] * cover2.mode_count()) == 0
    assert gamma_dimension(cover2, cover2.mode_kernels(LaplacianKind.DELBAR, (0, 0))) > 0


def test_gamma_dimension_additivity(cover2):
    # full mode blocks are invariant and mutually orthogonal
    w = dim_pq(1, 0, 0)
    none = [Mat.zeros(w, 0)] * (cover2.mode_count() - 1)
    V = [Mat.identity(w)] + none
    W = none[:1] + [Mat.identity(w)] + none[1:]
    VW = [Mat.hstack([v, u]) for v, u in zip(V, W)]
    assert gamma_dimension(cover2, VW) == gamma_dimension(cover2, V) + gamma_dimension(cover2, W)


@pytest.mark.parametrize("cover, metric", [("index2.cover", None), ("index2_n2.cover", None),
                                           ("index2.cover", "h3.herm")])
def test_gamma_dimension_is_the_rank_of_the_block_diagonal_bases(cover, metric):
    # the oracle places the per-mode bases in one block-diagonal matrix over
    # every mode and takes its rank, the dimension of the subspace they span.
    # The harmonic spaces lie in the zero mode; ker delbar, which the
    # monotonicity check reads, spans the other modes too
    fc = build_cover(load_cover(os.path.join(FIXTURES, cover)), _fixture_metric(metric) if metric else None)
    cases = [(kind, b, fc.mode_kernels(kind, b)) for kind in THEORY_KINDS.values() for b in bidegrees(fc.n)]
    cases += [(LaplacianKind.D, k, fc.mode_kernels(LaplacianKind.D, total_bidegrees(fc.n, k)[0]))
              for k in range(2 * fc.n + 1)]
    cases += [("ker delbar", b, [st.ker("delbar", b) for st in fc.settings]) for b in bidegrees(fc.n)]
    for kind, b, bases in cases:
        assert gamma_dimension(fc, bases) == Fraction(Mat.block_diag(bases).rank(), fc.index), (kind, b)
    for wrong in (bases[1:], bases + bases[:1]):
        with pytest.raises(ShapeMismatch):
            gamma_dimension(fc, wrong)


def test_gamma_tables(cover2):
    rep = gamma_tables(cover2)
    assert rep.index == 2
    for t in ("bc", "a", "del", "delbar"):
        for p in range(2):
            for q in range(2):
                assert rep.grids[t][p][q] == Fraction(dim_pq(1, p, q), 2)
    assert rep.grids["deRham"] == [Fraction(1, 2), Fraction(1), Fraction(1, 2)]
    assert rep.inequality_ok and rep.equality_everywhere
    assert rep.monotonicity_ok and rep.harmonic_support_ok


def test_gap_ratio(cover2):
    rep = gamma_tables(cover2)
    gd, gdb, gdl = rep.gaps["d"], rep.gaps["delbar"], rep.gaps["del"]
    assert abs(gd - 2 * gdb) <= 1e-9 * gd
    assert abs(gdl - gdb) <= 1e-9 * gd
    # documented normalisation: lap_d on functions has eigenvalue
    # 2 pi^2 |mu|^2 for H = id, so the gap is pi^2 / 2 at |mu|^2 = 1/4
    assert abs(gd - math.pi**2 / 2) <= 1e-9


def test_every_mode_shares_the_metric_float_view(cover2):
    # one float view per metric: every mode's numeric setting reads the same
    # float Grams and Cholesky factors
    assert all(nst.metric is cover2.metric.numeric for nst in cover2.numeric)
    assert NumericSetting(cover2.settings[0]).metric is cover2.metric.numeric


@pytest.mark.parametrize("fixture, n", [("index2.cover", 1), ("index2_n2.cover", 2)])
def test_cover_factors_each_gram_once(monkeypatch, capsys, fixture, n):
    # every mode's spectra on a space reuse that space's one Cholesky factor
    factored = []
    cholesky = np.linalg.cholesky

    def counted(A):
        factored.append(A.shape)
        return cholesky(A)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    assert main(["cover", os.path.join(FIXTURES, fixture), "--format", "json"]) == 0
    capsys.readouterr()
    spaces = {((p, q),) for p in range(n + 1) for q in range(n + 1)}
    spaces |= {total_bidegrees(n, k) for k in range(2 * n + 1)}
    # one more call factors the second coframe metric of the quasi-isometry
    # constant
    assert 0 < len(factored) <= len(spaces) + 1


def test_mode_eigenvalue_oracle(cover2):
    # per-mode delbar spectrum at (0,0) is exactly pi^2 |mu|^2
    for md, nst in zip(cover2.modes, cover2.numeric):
        op = assemble(nst, LaplacianKind.DELBAR, (0, 0))
        ev = spectrum(op.mat, nst.metric.gram_factor(op.src))
        expected = math.pi**2 * float(md.norm2)
        assert len(ev) == 1
        assert abs(ev[0] - expected) <= 1e-9 * max(1.0, expected)


def test_kahler_kernel_coincidence_per_mode(cover2):
    for st in cover2.settings:
        for p in range(2):
            for q in range(2):
                b = (p, q)
                kers = [
                    assemble(st, kind, b).mat.nullspace()
                    for kind in (LaplacianKind.DELBAR, LaplacianKind.DEL, LaplacianKind.BC, LaplacianKind.A)
                ]
                for k in kers[1:]:
                    assert subspace_eq(kers[0], k)


def test_eckmann_alternating_sums_on_cover(cover2):
    # per bidegree: the Gamma-dimensions of the five nodes of each sequence
    # sum to zero with alternating signs (per-mode exactness summed over
    # modes, divided by |Gamma|)
    from abch.cohomology import abc_subspaces

    n = cover2.n
    for p in range(n + 1):
        for q in range(n + 1):
            b = (p, q)
            tot = {x: Fraction(0) for x in "abcdef"}
            h_db = Fraction(0)
            h_a = Fraction(0)
            h_bc = Fraction(0)
            for st in cover2.settings:
                grids = abc_subspaces(st)
                for x in "abcdef":
                    tot[x] += grids.dims[x][p][q]
                from abch.laplacians import harmonic_space

                h_db += harmonic_space(st, LaplacianKind.DELBAR, b).ncols
                h_a += harmonic_space(st, LaplacianKind.A, b).ncols
                h_bc += harmonic_space(st, LaplacianKind.BC, b).ncols
            idx = cover2.index
            seq1 = tot["a"] - tot["b"] + h_db - h_a + tot["c"]
            seq2 = tot["d"] - h_bc + h_db - tot["e"] + tot["f"]
            assert seq1 / idx == 0
            assert seq2 / idx == 0


def test_metric_independence():
    H1 = Mat.identity(1)
    H2 = Mat([[QQi(2)]], ncols=1)
    rep = metric_independence_check(build_cover(SPEC2, H1), H2)
    assert rep["gamma_dims_agree"]
    assert rep["cross_projection_full_rank"]
    assert abs(rep["quasi_isometry_constant"] - 2.0) < 1e-9
    assert rep["sampled_ratios_within_bound"]


def _record_metric_independence_samples(monkeypatch, tmp_path):
    """A list that collects each sample matrix `metric_independence_check`
    draws, and the path of a small cover file to run `abch cover` on."""
    drawn = []
    original = abch.covering._samples

    def recorded(rng, rows, cols):
        V = original(rng, rows, cols)
        if sys._getframe(1).f_code.co_name == "metric_independence_check":
            drawn.append(V)
        return V

    monkeypatch.setattr(abch.covering, "_samples", recorded)
    path = tmp_path / "half.cover"
    path.write_text("n = 1\nbase = [[1, 0], [0, 1]]\nsub = [[2, 0], [0, 1]]\nradius = 1/2\n")
    return drawn, path


def test_the_seed_reaches_the_metric_independence_samples(monkeypatch, tmp_path):
    # `cover --seed N` draws every sample from random.Random(N), the sampled
    # quasi-isometry ratios included
    drawn, path = _record_metric_independence_samples(monkeypatch, tmp_path)
    for seed in (5, 6, 5):
        assert main(["cover", str(path), "--seed", str(seed), "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert len(drawn) == 3
    assert not np.array_equal(drawn[0], drawn[1])
    assert np.array_equal(drawn[0], drawn[2])


def test_the_sample_count_reaches_the_metric_independence_samples(monkeypatch, tmp_path):
    drawn, path = _record_metric_independence_samples(monkeypatch, tmp_path)
    assert main(["cover", str(path), "--samples", "7", "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert [V.shape for V in drawn] == [(1, 7)]


def test_n2_cover_metric_independence():
    spec = CoveringSpec(
        n=2,
        base=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        sub=((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        radius=Fraction(1, 2),
    )
    from abch.metric import diagonal_metric

    H1 = Mat.identity(2)
    H2 = diagonal_metric([2, 1]).H
    rep = metric_independence_check(build_cover(spec, H1), H2)
    assert rep["gamma_dims_agree"]
    assert rep["cross_projection_full_rank"]
    assert abs(rep["quasi_isometry_constant"] - 2.0) < 1e-9



def _fixture_metric(name):
    return load_metric(os.path.join(FIXTURES, name))[1]


@pytest.mark.parametrize("cover, metric, expected", [("index2_n2.cover", "diag21.herm", 2.0),
                                                     ("index2.cover", "h3.herm", 3.0)])
def test_quasi_isometry_constant_on_diagonal_pairs(cover, metric, expected):
    # against the identity the generalized eigenvalues are the diagonal of H1
    spec = load_cover(os.path.join(FIXTURES, cover))
    rep = metric_independence_check(build_cover(spec, _fixture_metric(metric)), Mat.identity(spec.n))
    assert rep["quasi_isometry_constant"] == expected
    assert rep["sampled_ratios_within_bound"]


@pytest.mark.parametrize("complex_is_h2", [False, True])
def test_quasi_isometry_constant_under_a_complex_metric(complex_is_h2):
    # the Cholesky reduction against the eigenvalues of H2^{-1} H1; with the
    # complex metric as H2, its factor L enters as L^-H, and L^-T in its place
    # gives a different answer
    spec = load_cover(os.path.join(FIXTURES, "index2_n2.cover"))
    K, I = _fixture_metric("kt_complex.herm"), Mat.identity(2)
    H1, H2 = (I, K) if complex_is_h2 else (K, I)
    rep = metric_independence_check(build_cover(spec, H1), H2)
    lam = np.linalg.eigvals(np.linalg.solve(H2.to_numpy(), H1.to_numpy())).real
    assert rep["quasi_isometry_constant"] == pytest.approx(max(lam.max(), 1 / lam.min()), rel=1e-12)
    assert rep["sampled_ratios_within_bound"]

def test_cover_builds_each_cover_once(monkeypatch, tmp_path):
    # `abch cover` builds the cover under H and under 2 H, and nothing twice
    import abch.cli
    import abch.covering

    built = []

    def counted(*args, **kwargs):
        built.append(build_cover(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(abch.cli, "build_cover", counted)
    monkeypatch.setattr(abch.covering, "build_cover", counted)
    path = tmp_path / "half.cover"
    path.write_text("n = 1\nbase = [[1, 0], [0, 1]]\nsub = [[2, 0], [0, 1]]\nradius = 1/2\n")
    assert main(["cover", str(path), "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    assert len(built) == 2
    # the kernels the report used are kept, not recomputed
    K = built[0].mode_kernels(LaplacianKind.BC, (1, 0))
    assert all(a is b for a, b in zip(built[0].mode_kernels(LaplacianKind.BC, (1, 0)), K))


@pytest.mark.parametrize("cover, metric", [("index2.cover", None), ("index2_n2.cover", None),
                                           ("index2.cover", "h3.herm")])
def test_the_zero_mode_index(cover, metric):
    spec = load_cover(os.path.join(FIXTURES, cover))
    fc = build_cover(spec, _fixture_metric(metric) if metric else None)
    assert [i for i, md in enumerate(fc.modes) if not any(md.mu)] == [fc.zero]
    assert fc.modes[fc.zero].is_zero and 0 < fc.zero < fc.mode_count() - 1
    # the untwisted mode: its differentials are those of the flat torus, zero
    st = fc.settings[fc.zero]
    assert all(st.out("del", b).mat.is_zero() and st.out("delbar", b).mat.is_zero() for b in [(0, 0), (0, 1), (1, 0)])
    assert fc.zero_mode_kernel(LaplacianKind.BC, (0, 0)) is fc.mode_kernels(LaplacianKind.BC, (0, 0))[fc.zero]


def _with_stray_harmonic_form(fc, kind=LaplacianKind.BC, b=(0, 0)):
    """fc with a memoised harmonic form of `kind` at b in a nonzero mode."""
    st = fc.settings[next(i for i, md in enumerate(fc.modes) if not md.is_zero)]
    st.cached(("harmonic", kind, b), lambda: Mat.identity(st.dim(b)))
    return fc


def test_a_harmonic_form_outside_the_zero_mode_fails_the_support_checks(monkeypatch, capsys):
    fc = _with_stray_harmonic_form(build_cover(SPEC2))
    assert fc.zero_mode_kernel(LaplacianKind.BC, (0, 0)) is None
    assert not gamma_tables(fc).harmonic_support_ok
    with pytest.raises(AssertionError, match="zero mode"):
        metric_independence_check(fc, Mat([[QQi(2)]], ncols=1))

    def stray(spec, H):
        return _with_stray_harmonic_form(build_cover(spec, H))

    # the second metric's cover is checked there too
    monkeypatch.setattr(abch.covering, "build_cover", stray)
    with pytest.raises(AssertionError, match="zero mode"):
        metric_independence_check(build_cover(SPEC2), Mat([[QQi(2)]], ncols=1))
    # and `abch cover` exits 1
    monkeypatch.setattr(abch.cli, "build_cover", stray)
    assert main(["cover", os.path.join(FIXTURES, "index2.cover"), "--format", "json"]) == 1
    assert "verification failure: harmonic basis not supported in the zero mode" in capsys.readouterr().err


def _with_wrong_del_laplacian(fc, b=(1, 0)):
    """fc with the spectrum of the float lap_del at b, halved, memoised in a
    mode of least nonzero norm, which alone holds the least del gap at b then."""
    i = min((i for i, md in enumerate(fc.modes) if not md.is_zero), key=lambda i: fc.modes[i].norm2)
    nst = fc.numeric[i]
    op = assemble(nst, LaplacianKind.DEL, b)
    nst.cached(("spectrum", LaplacianKind.DEL, b), lambda: spectrum(0.5 * op.mat, nst.metric.gram_factor(op.src)))
    return fc


@pytest.mark.parametrize("cover", ["index2.cover", "index2_n2.cover"])
def test_a_wrong_del_laplacian_breaks_the_kahler_gap_identities(monkeypatch, capsys, cover):
    path = os.path.join(FIXTURES, cover)
    assert gamma_tables(build_cover(load_cover(path))).kahler_gaps_ok
    rep = gamma_tables(_with_wrong_del_laplacian(build_cover(load_cover(path))))
    assert not rep.kahler_gaps_ok
    # its kernel is right, so no other check sees it
    assert rep.inequality_ok and rep.monotonicity_ok and rep.harmonic_support_ok
    monkeypatch.setattr(abch.cli, "build_cover", lambda spec, H: _with_wrong_del_laplacian(build_cover(spec, H)))
    assert main(["cover", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] == ["the del, delbar and d gaps break lap_del = lap_delbar = lap_d / 2"]


@pytest.mark.parametrize("cover", ["index2.cover", "index2_n2.cover"])
def test_per_bidegree_delbar_gaps_are_the_smallest_nonzero_frequency(cover):
    # under H = id lap_delbar on the mode mu is pi^2 |mu|^2 times the identity
    # at every bidegree, so each bidegree's gap over the modes is pi^2 times
    # the smallest nonzero |mu|^2
    fc = build_cover(load_cover(os.path.join(FIXTURES, cover)))
    want = math.pi**2 * float(min(md.norm2 for md in fc.modes if not md.is_zero))
    gaps = gamma_tables(fc).gaps
    per_bidegree = gaps["per_bidegree_delbar"]
    assert len(per_bidegree) == (fc.n + 1) ** 2
    assert all(g == pytest.approx(want, rel=1e-12) for g in per_bidegree.values())
    assert gaps["delbar"] == min(per_bidegree.values())


def test_gap_and_closed_image(cover2):
    rep = gap_and_closed_image(cover2, samples=100)
    assert rep["tilde4_equals_delbar_squared"]
    assert rep["prestage_box_identity"]
    assert rep["all_ok"]


def test_gap_report_reads_the_delbar_spectra_of_gamma_tables(monkeypatch):
    fourier = build_cover(SPEC2)
    gamma_tables(fourier)
    numeric_delbar = []

    def counted(setting, kind, b):
        if isinstance(setting, NumericSetting) and kind is LaplacianKind.DELBAR:
            numeric_delbar.append(b)
        return assemble(setting, kind, b)

    monkeypatch.setattr(abch.laplacians, "assemble", counted)
    monkeypatch.setattr(abch.covering, "assemble", counted, raising=False)
    assert gap_and_closed_image(fourier, samples=20)["all_ok"]
    assert numeric_delbar == []


def test_cover_assembles_each_laplacian_once(monkeypatch, capsys):
    # one assembled Laplacian per (setting, kind, space): each float spectrum
    # its own, and gap_and_closed_image and prestage_box_check one exact
    # lap_delbar per mode and bidegree; the harmonic spaces assemble none
    calls = Counter()

    def counted(setting, kind, b):
        calls[(id(setting), kind, sum(b) if kind is LaplacianKind.D else b)] += 1
        return assemble(setting, kind, b)

    monkeypatch.setattr(abch.laplacians, "assemble", counted)
    assert main(["cover", os.path.join(FIXTURES, "index2.cover"), "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 133
    assert sum(calls.values()) == 133


def test_not_a_sublattice():
    with pytest.raises(NotASublattice):
        build_cover(CoveringSpec(n=1, base=((2, 0), (0, 1)), sub=((1, 0), (0, 1)), radius=Fraction(1)))


def test_hermite_normal_form_counts_cosets():
    X = [[2, 0], [0, 3]]
    H = hermite_normal_form(X)
    assert H[0][0] * H[1][1] == 6
    H2 = hermite_normal_form([[2, 1], [0, 1]])
    assert H2[0][0] * H2[1][1] == 2
