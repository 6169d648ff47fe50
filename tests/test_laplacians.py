"""Laplacian assembly: self-adjointness, kernels, spectra, dualities."""

import os
from collections import Counter

import numpy as np
import pytest

from abch.complexes import Memo, Op, build_complex, total_bidegrees
from abch.linalg import Mat
from abch.metric import (HermitianMetric, NumericMetric, cholesky_factor, diagonal_metric, identity_metric, load_metric,
                         parse_metric)
from abch.model import load_model, parse_model
from abch.scalars import QQi
from abch.setting import ExactSetting, NumericSetting, add_ops
import abch.laplacians
from abch.cli import main
from abch.laplacians import (
    A_KINDS,
    ALL_KINDS,
    BC_KINDS,
    EigSolverFailure,
    LaplacianBundle,
    LaplacianKind,
    THEORY_OPS,
    assemble,
    fourth_order_part,
    harmonic_characterization,
    harmonic_space,
    numeric_spectrum,
    prestage_box_check,
    spectral_gap,
    spectrum,
    _sum,
)
from oracles import (
    box_kernel_intersection,
    duality_residuals,
    ip,
    kahler_identities,
    kernel_coincidence,
    verify_gap_inequality,
)

TORUS1 = parse_model("n=1\nname = torus1")
TORUS2 = parse_model("n=2\nname = torus2")
IWASAWA = parse_model("n=3\nname = iwasawa\nd phi3 = -1 * phi1 ^ phi2")
KT = parse_model("n=2\nname = kt\nd phi2 = phi1 ^ phibar1")


def settings_for(model, metric=None):
    comp = build_complex(model)
    metric = metric or identity_metric(comp.n)
    return ExactSetting(comp, metric)


# the two fixture models under their complex metrics
DENSE = (("iwasawa.cplx", "dense3.herm"), ("kodaira_thurston.cplx", "kt_complex.herm"))


def fixture_setting(model, metric):
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    n, H = load_metric(os.path.join(fx, metric))
    return ExactSetting(build_complex(load_model(os.path.join(fx, model))), HermitianMetric(n, H))


@pytest.fixture(scope="module")
def iw():
    return settings_for(IWASAWA)


@pytest.fixture(scope="module")
def kt():
    return settings_for(KT)


def all_bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def test_harmonic_spaces_and_spectra_are_memoised_per_space(iw):
    # lap_d acts on the whole total degree, so (1, 0) and (0, 1) share it
    D = LaplacianKind.D
    assert harmonic_space(iw, D, (1, 0)) is harmonic_space(iw, D, (0, 1))
    numeric = NumericSetting(iw)
    assert numeric_spectrum(numeric, D, (1, 0)) is numeric_spectrum(numeric, D, (0, 1))
    BC = LaplacianKind.BC
    assert harmonic_space(iw, BC, (1, 0)) is not harmonic_space(iw, BC, (0, 1))
    # the tilde and box kinds read their theory's one space
    for kinds in (BC_KINDS, A_KINDS):
        for kind in kinds:
            assert harmonic_space(iw, kind, (1, 1)) is harmonic_space(iw, kinds[0], (1, 1)), kind


def test_a_memoised_spectrum_reads_no_laplacian(monkeypatch):
    # the float Laplacian is assembled only inside its spectrum's memo
    # build, so a second read of the spectrum touches no Laplacian, and the
    # numeric setting memoises none
    numeric = NumericSetting(settings_for(IWASAWA))
    first = {kind: numeric_spectrum(numeric, kind, (1, 1)) for kind in ALL_KINDS}

    def refuse(*args):
        raise AssertionError("a memoised spectrum read its Laplacian")

    monkeypatch.setattr(abch.laplacians, "laplacian", refuse)
    monkeypatch.setattr(abch.laplacians, "assemble", refuse)
    for kind in ALL_KINDS:
        assert numeric_spectrum(numeric, kind, (1, 1)) is first[kind]
    assert not [key for key in numeric._memo if key[0] == "laplacian"]


def test_spectra_keeps_no_conjugated_gram_and_no_float_laplacian(monkeypatch, capsys):
    # every memo after `spectra --backend both` under a complex metric:
    # no conjugated Gram anywhere, and no Laplacian in a numeric setting
    owners, cached = {}, Memo.cached
    monkeypatch.setattr(Memo, "cached", lambda self, key, build: cached(owners.setdefault(id(self), self), key, build))
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    argv = ["spectra", os.path.join(fx, "iwasawa.cplx"), "--metric", os.path.join(fx, "dense3.herm")]
    assert main(argv + ["--backend", "both", "--format", "json"]) == 0
    capsys.readouterr()
    assert {type(o) for o in owners.values()} >= {NumericMetric, NumericSetting, ExactSetting}
    for owner in owners.values():
        tags = {key if isinstance(key, str) else key[0] for key in owner._memo}
        assert "conj_view" not in tags
        assert "laplacian" not in tags or not isinstance(owner, NumericSetting)
        if type(owner) is ExactSetting:
            # each harmonic space is its theory's, from the theory's maps:
            # no Laplacian, and none of its terms or sums
            assert not tags & {"laplacian", "term", "down", "up"}
            assert {key[1] for key in owner._memo if isinstance(key, tuple) and key[0] == "harmonic"} == set(THEORY_OPS)


def test_spectra_crosschecks_the_tilde_kinds_against_their_theory(monkeypatch, capsys):
    # the tilde kinds lose their second-order part in both arithmetics: the
    # float spectrum then has extra zeros, which the exact kernel of the
    # Bott-Chern (Aeppli) theory, built from its maps, does not share
    real = abch.laplacians.assemble

    def fourth_order_only(setting, kind, b):
        if kind in (LaplacianKind.BC_TILDE, LaplacianKind.A_TILDE):
            return fourth_order_part(setting, kind, b)
        return real(setting, kind, b)

    monkeypatch.setattr(abch.laplacians, "assemble", fourth_order_only)
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    assert main(["spectra", os.path.join(fx, "iwasawa.cplx"), "--pq", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert "bc_tilde at (1, 1): exact kernel" in out + err


def test_spectra_crosschecks_lap_bc_against_its_theory(monkeypatch, capsys):
    # lap_bc without its delbar* delbar term in both arithmetics: its float
    # kernel gains the del-closed forms that delbar does not kill, and the
    # exact Bott-Chern kernel, which no Laplacian builds, stays right
    real = abch.laplacians.assemble

    def without_delbar_term(setting, kind, b):
        if kind is LaplacianKind.BC:
            return add_ops(_sum(setting, ("deldbar",), b, False), _sum(setting, ("del",), b, True))
        return real(setting, kind, b)

    monkeypatch.setattr(abch.laplacians, "assemble", without_delbar_term)
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    assert main(["spectra", os.path.join(fx, "iwasawa.cplx")]) == 1
    out, err = capsys.readouterr()
    assert "bc at (0, 1): exact kernel 2 != numeric multiplicity 3" in out + err


@pytest.mark.parametrize("argv", [["check"], ["cohomology", "--backend", "both"], ["spectra"], ["diagram"], ["ddbar"],
                                  ["inequality"], ["abc", "--pq", "2,1"]],
                         ids=["check", "cohomology_both", "spectra", "diagram", "ddbar", "inequality", "abc"])
def test_no_model_command_assembles_an_exact_laplacian(monkeypatch, capsys, argv):
    # only the float backend assembles Laplacians or forms adjoints; every
    # exact harmonic space, and every kernel or image of an exact adjoint, is
    # a Gram complement cut out by `common_kernel`
    real = abch.laplacians.assemble

    def numeric_only(setting, kind, b):
        assert isinstance(setting, NumericSetting), (kind, b)
        return real(setting, kind, b)

    def no_exact_adjoint(metric, op):
        raise AssertionError(f"exact adjoint of {op.src} -> {op.dst}")

    monkeypatch.setattr(abch.laplacians, "assemble", numeric_only)
    monkeypatch.setattr(HermitianMetric, "adjoint", no_exact_adjoint)
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    path, metric = os.path.join(fx, "iwasawa.cplx"), os.path.join(fx, "dense3.herm")
    assert main([argv[0], path] + argv[1:] + ["--metric", metric, "--format", "json"]) == 0
    capsys.readouterr()


def test_bundles_assemble_each_laplacian_once(monkeypatch):
    s = settings_for(IWASAWA)
    numeric = NumericSetting(s)
    calls = Counter()

    def counted(setting, kind, b):
        calls[(id(setting), kind, sum(b) if kind is LaplacianKind.D else b)] += 1
        return assemble(setting, kind, b)

    monkeypatch.setattr(abch.laplacians, "assemble", counted)
    for b in all_bidegrees(3):
        LaplacianBundle.build(s, numeric, b)
    # lap_d on the 7 total degrees and the 8 other kinds on the 16 bidegrees,
    # in floats only: every exact harmonic space is its theory's common kernel
    per_setting = Counter(key[0] for key in calls)
    assert per_setting == {id(numeric): 7 + 8 * 16}
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("family", ["bc", "a"])
@pytest.mark.parametrize("backend", ["exact", "numeric"])
def test_a_family_reads_one_memoised_second_order_sum_and_corner(monkeypatch, family, backend):
    # the three Bott-Chern kinds at one bidegree all read the same memoised
    # sum del* del + delbar* delbar and corner P P*; the Aeppli kinds read
    # the dual del del* + delbar delbar* and Q* Q
    s = settings_for(IWASAWA)
    if backend == "numeric":
        s = NumericSetting(s)
    kinds, leaving = (BC_KINDS, True) if family == "bc" else (A_KINDS, False)
    b = (1, 1)
    read = {}
    compose, add_ops = abch.laplacians.compose, abch.laplacians.add_ops

    def spy(fn):
        def wrapped(*ops):
            read[kind].extend(ops)
            return fn(*ops)
        return wrapped

    monkeypatch.setattr(abch.laplacians, "compose", spy(compose))
    monkeypatch.setattr(abch.laplacians, "add_ops", spy(add_ops))
    for kind in kinds:
        read[kind] = []
        assemble(s, kind, b)
    second, corner = _sum(s, ("del", "delbar"), b, leaving), _sum(s, ("deldbar",), b, not leaving)
    for kind in kinds:
        assert any(op is second for op in read[kind]), kind
        assert any(op is corner for op in read[kind]), kind


def test_spectra_factors_each_gram_once(monkeypatch, capsys):
    # every spectrum on a space reuses that space's Cholesky factor
    factored = []
    cholesky = np.linalg.cholesky

    def counted(A):
        factored.append(A.shape)
        return cholesky(A)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "iwasawa.cplx")
    assert main(["spectra", path, "--backend", "both", "--format", "json"]) == 0
    capsys.readouterr()
    # the 16 bidegree spaces and the 7 total-degree ones, degrees 0 and 6
    # being the bidegrees (0, 0) and (3, 3)
    spaces = {(b,) for b in all_bidegrees(3)} | {total_bidegrees(3, k) for k in range(7)}
    assert len(spaces) == 21
    assert 0 < len(factored) <= len(spaces)


@pytest.mark.parametrize("model, metric", [("iwasawa.cplx", "dense3.herm"), ("kodaira_thurston.cplx", "kt_complex.herm")])
def test_non_hermitian_symmetrisation_is_a_verification_failure(monkeypatch, capsys, model, metric):
    # re-inject the Cholesky factor of conj(G) in place of G's: under a metric
    # with complex entries the symmetrised operator is then far from Hermitian
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda A: cholesky(A.conj()))
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    argv = ["spectra", os.path.join(fx, model), "--metric", os.path.join(fx, metric), "--backend", "both"]
    assert main(argv + ["--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "verification failure: Gram-symmetrised operator is not Hermitian" in err


def test_a_negative_eigenvalue_is_a_verification_failure(monkeypatch, capsys):
    # a Laplacian is positive semidefinite: an eigenvalue at or below minus
    # the zero threshold raises, where it would otherwise be left out of the
    # zero multiplicity and the gap; a rounding-size one is still a zero
    with pytest.raises(AssertionError, match="not positive semidefinite: eigenvalue -2"):
        spectrum(-np.diag([1.0, 2.0, 0.0]), cholesky_factor(np.eye(3)))
    assert list(spectrum(np.diag([-1e-13, 1.0]), cholesky_factor(np.eye(2)))) == [0.0, 1.0]
    # every float Laplacian negated: still Gram-self-adjoint, with the exact
    # kernel's zero multiplicity, so only this check sees it (exit 1)
    real = abch.laplacians.assemble

    def negated(setting, kind, b):
        op = real(setting, kind, b)
        return Op(op.src, op.dst, -op.mat) if isinstance(setting, NumericSetting) else op

    monkeypatch.setattr(abch.laplacians, "assemble", negated)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "kodaira_thurston.cplx")
    assert main(["spectra", path, "--pq", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line.split(":")[0] for line in err.splitlines()] == ["verification failure"]
    assert "Laplacian is not positive semidefinite" in err



def test_eigensolver_failure_is_an_input_error(monkeypatch, capsys):
    # a LAPACK failure in the eigensolve raises EigSolverFailure, which the
    # CLI reports as an error (exit 2); a failed Hermiticity check comes
    # before the eigensolve and stays a verification failure (exit 1)
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(EigSolverFailure, match="did not converge"):
        spectrum(np.eye(2), cholesky_factor(np.eye(2)))
    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    argv = ["spectra", os.path.join(fx, "kodaira_thurston.cplx"), "--backend", "both"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: EigSolverFailure: Eigenvalues did not converge")
    # not Gram-self-adjoint: the Hermiticity check raises before any eigensolve
    # (the CLI's exit 1 for it is test_non_hermitian_symmetrisation_is_a_verification_failure)
    with pytest.raises(AssertionError, match="not Hermitian"):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), cholesky_factor(np.eye(2)))


def test_torus_laplacians_vanish():
    s = settings_for(TORUS2)
    for b in all_bidegrees(2):
        for kind in ALL_KINDS:
            assert assemble(s, kind, b).mat.is_zero()
            # harmonic space is everything
            assert harmonic_space(s, kind, b).ncols == assemble(s, kind, b).mat.ncols


def test_gram_self_adjoint_and_psd(iw, kt):
    for s in (iw, kt):
        for b in all_bidegrees(s.n):
            for kind in ALL_KINDS:
                op = assemble(s, kind, b)
                G = s.gram(op.src)
                m = op.mat
                # <Lu, v> = <u, Lv> on basis vectors
                dim = m.ncols
                for a in range(dim):
                    ea = [QQi(int(i == a)) for i in range(dim)]
                    for c in range(a, dim):
                        ec = [QQi(int(i == c)) for i in range(dim)]
                        assert ip(m.matvec(ea), ec, G) == ip(ea, m.matvec(ec), G)
                if dim:
                    ev = np.linalg.eigvalsh(
                        np.linalg.cholesky(G.to_numpy()).conj().T
                        @ m.to_numpy()
                        @ np.linalg.inv(np.linalg.cholesky(G.to_numpy()).conj().T)
                    )
                    assert ev.min() > -1e-9


def test_iwasawa_kernel_dims_at_1_0(iw):
    assert harmonic_space(iw, LaplacianKind.DELBAR, (1, 0)).ncols == 3
    assert harmonic_space(iw, LaplacianKind.BC, (1, 0)).ncols == 2


def test_kernels_match_characterisations(iw, kt):
    # each kind's own assembled Laplacian, the independent side, has its
    # theory's kernel, as the very bits that `harmonic_space` memoises from
    # `harmonic_characterization`
    for s in [iw, kt] + [fixture_setting(*pair) for pair in DENSE]:
        for b in all_bidegrees(s.n):
            for kind in ALL_KINDS:
                own = assemble(s, kind, b).mat.nullspace()
                assert own == harmonic_space(s, kind, b), (kind, b)
                assert own == harmonic_characterization(s, kind, b), (kind, b)


def test_kernel_coincidence_both_metrics():
    for model, diag in ((IWASAWA, [2, 1, 1]), (KT, [2, 1]), (TORUS2, [2, 1])):
        for metric in (None, diagonal_metric(diag)):
            s = settings_for(model, metric)
            for b in all_bidegrees(s.n):
                assert kernel_coincidence(s, b)
    for pair in DENSE:
        s = fixture_setting(*pair)
        for b in all_bidegrees(s.n):
            assert kernel_coincidence(s, b), (pair, b)


def test_duality_relations():
    for model, diag in ((IWASAWA, [2, 1, 1]), (KT, [2, 1])):
        for metric in (None, diagonal_metric(diag)):
            s = settings_for(model, metric)
            for b in all_bidegrees(s.n):
                assert all(duality_residuals(s, b).values())


def test_kahler_identities_on_tori():
    for model, diag in ((TORUS1, [3]), (TORUS2, [2, 1])):
        for metric in (None, diagonal_metric(diag)):
            s = settings_for(model, metric)
            rep = kahler_identities(s)
            assert all(rep.values()), rep


def test_box_kernel_is_intersection(iw, kt):
    for s in (iw, kt):
        for b in all_bidegrees(s.n):
            assert box_kernel_intersection(s, b)


def test_tilde_fourth_order_on_kahler():
    s = settings_for(TORUS2, diagonal_metric([2, 1]))
    for b in all_bidegrees(2):
        lapd = assemble(s, LaplacianKind.DELBAR, b).mat
        sq = lapd @ lapd
        assert (fourth_order_part(s, LaplacianKind.BC_TILDE, b).mat - sq).is_zero()
        assert (fourth_order_part(s, LaplacianKind.A_TILDE, b).mat - sq).is_zero()


def test_prestage_box_on_kahler():
    s = settings_for(TORUS2, diagonal_metric([2, 1]))
    for b in all_bidegrees(2):
        assert prestage_box_check(s, b)


def test_d_plus_dstar_squared_is_blockwise_laplacian(iw):
    """(d + d*)^2 on the full complex equals the graded direct sum of the
    degree-k Hodge Laplacians."""
    s = iw
    n = s.n
    degrees = list(range(2 * n + 1))
    spaces = [total_bidegrees(n, k) for k in degrees]
    dims = [s.space_dim(sp) for sp in spaces]
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    total = offs[-1]
    D = Mat.from_blocks(total, total, [(offs[k + 1], offs[k], s.total_d(k).mat) for k in range(2 * n)])
    G = Mat.block_diag([s.gram(sp) for sp in spaces])
    from abch.linalg import gram_adjoint

    Dstar = gram_adjoint(D, Mat.block_diag([s.metric.gram_inv_space(sp) for sp in spaces]), G)
    S = D + Dstar
    S2 = S @ S
    expected = Mat.block_diag([assemble(s, LaplacianKind.D, spaces[k][0]).mat for k in degrees])
    assert S2 == expected


def test_numeric_crosscheck_and_gaps(iw, kt):
    # the complex off-diagonal entry makes conj(G) != G for every Gram
    kt_complex = settings_for(KT, HermitianMetric(*parse_metric("n = 2\nH[1][2] = (1/2 + 1/3 i)")))
    for s in (iw, kt, kt_complex):
        numeric = NumericSetting(s)
        for b in all_bidegrees(s.n):
            bundle = LaplacianBundle.build(s, numeric, b)
            assert bundle.crosscheck() == []
            for kind in ALL_KINDS:
                ev = bundle.spectra[kind]
                assert all(x >= 0 for x in ev)


def test_rayleigh_gap_property(kt):
    numeric = NumericSetting(kt)
    for b in all_bidegrees(kt.n):
        for kind in (LaplacianKind.DELBAR, LaplacianKind.BC, LaplacianKind.A_BOX):
            rep = verify_gap_inequality(kt, numeric, kind, b, samples=200)
            assert rep["ok"], rep
    # the oracle assembles its own float Laplacian and leaves none in the memo
    assert not [key for key in numeric._memo if (key if isinstance(key, str) else key[0]).startswith("laplacian")]


def test_spectrum_zero_padding():
    s = settings_for(TORUS2)
    numeric = NumericSetting(s)
    op = assemble(numeric, LaplacianKind.DELBAR, (1, 1))
    ev = spectrum(op.mat, numeric.metric.gram_factor(op.src))
    assert np.all(ev == 0)
    assert spectral_gap(ev) is None
