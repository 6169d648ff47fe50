"""`ExactSetting.out`/`into` and `ExactSetting.ker`/`im` against the same
operators written out the long way, with explicit shifted bidegrees, at every
bidegree and at the ends of the range (zero-column maps into (0, q) and
(p, 0), d at degrees 0 and 2n), under complex metrics."""

import os

import numpy as np
import pytest

from abch.complexes import SHIFTS, Op, build_complex
from abch.laplacians import ALL_KINDS, assemble
from abch.linalg import span_basis
from abch.metric import HermitianMetric, NumericMetric, load_metric, parse_metric
from abch.model import load_model
from abch.setting import ExactSetting, NumericSetting

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BIGRADED = ("del", "delbar", "deldbar")


def _setting(model_file, n, H):
    return ExactSetting(build_complex(load_model(os.path.join(FIX, model_file))), HermitianMetric(n, H))


@pytest.fixture(scope="module", params=["kt_complex_h12", "iwasawa_dense3"])
def setting(request):
    if request.param == "kt_complex_h12":
        n, H = parse_metric("n = 2\nH[1][1] = 2\nH[2][2] = 3\nH[1][2] = (1/2 + 1/3 i)")
        return _setting("kodaira_thurston.cplx", n, H)
    n, H = load_metric(os.path.join(FIX, "dense3.herm"))
    return _setting("iwasawa.cplx", n, H)


def old_out(s, name, b):
    # the complex's matrix with its target written out, converted as the
    # setting converts (a numeric one scales floats); del delbar is the
    # product of its two factors, in the setting's own arithmetic
    p, q = b
    if name == "deldbar":
        return Op(src=(b,), dst=((p + 1, q + 1),),
                  mat=old_out(s, "del", (p, q + 1)).mat @ old_out(s, "delbar", b).mat)
    mat = s.ops.map(name, b)
    return Op(src=(b,), dst=((p + 1, q) if name == "del" else (p, q + 1),),
              mat=mat.to_numpy() * s.scale if isinstance(s, NumericSetting) else mat)


def old_into(s, name, b):
    p, q = b
    return old_out(s, name, {"del": (p - 1, q), "delbar": (p, q - 1), "deldbar": (p - 1, q - 1)}[name])


def bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def same_op(a, b):
    return a.src == b.src and a.dst == b.dst and a.mat == b.mat


def test_shifts_are_the_raised_bidegrees(setting):
    assert SHIFTS == {"del": (1, 0), "delbar": (0, 1), "deldbar": (1, 1)}
    for name in BIGRADED:
        for p, q in bidegrees(setting.n):
            s = SHIFTS[name]
            assert setting.out(name, (p, q)).dst == ((p + s[0], q + s[1]),)
            assert setting.into(name, (p, q)).src == ((p - s[0], q - s[1]),)


def test_out_and_into_match_explicit_bidegrees(setting):
    for name in BIGRADED:
        for b in bidegrees(setting.n):
            assert same_op(setting.out(name, b), old_out(setting, name, b))
            assert same_op(setting.into(name, b), old_into(setting, name, b))
            assert setting.into(name, b).dst == (b,) and setting.out(name, b).src == (b,)
    for k in range(2 * setting.n + 1):
        assert same_op(setting.out("d", k), setting.total_d(k))
        assert same_op(setting.into("d", k), setting.total_d(k - 1))


def test_range_ends_are_zero_column_or_zero_row(setting):
    n = setting.n
    for q in range(n + 1):
        into = setting.into("deldbar", (0, q))
        assert into.dst == ((0, q),) and into.mat.shape == (setting.dim((0, q)), 0)
    for p in range(n + 1):
        assert setting.into("delbar", (p, 0)).mat.shape == (setting.dim((p, 0)), 0)
        assert setting.out("del", (n, p)).mat.shape == (0, setting.dim((n, p)))
    assert setting.into("d", 0).mat.shape == (1, 0)
    assert setting.out("d", 0).mat.shape == (2 * n, 1)
    assert setting.out("d", 2 * n).mat.shape == (0, 1)
    assert setting.into("d", 2 * n).mat.shape == (1, 2 * n)


def test_numeric_setting_inherits_the_vocabulary(setting):
    numeric = NumericSetting(setting)
    for name in BIGRADED:
        for b in bidegrees(setting.n):
            for new, old in ((numeric.out(name, b), old_out(numeric, name, b)),
                             (numeric.into(name, b), old_into(numeric, name, b))):
                assert new.src == old.src and new.dst == old.dst
                assert np.array_equal(new.mat, old.mat)
    for k in range(2 * setting.n + 1):
        assert np.array_equal(numeric.into("d", k).mat, setting.total_d(k - 1).mat.to_numpy())


def test_subspace_lib_matches_explicit_bidegrees(setting):
    adj = setting.adjoint
    for name in BIGRADED:
        for b in bidegrees(setting.n):
            assert setting.ker(name, b) == old_out(setting, name, b).mat.nullspace()
            assert setting.im(name, b) == old_into(setting, name, b).mat.column_space()
            # star: ker of the adjoint of the map entering, im of the adjoint of
            # the map leaving, each against the adjoint formed and eliminated.
            # A nullspace depends only on the kernel, so ker* keeps its bits;
            # im* is another basis of the same span
            assert setting.ker(name, b, star=True) == adj(old_into(setting, name, b)).mat.nullspace()
            assert (span_basis(setting.im(name, b, star=True))
                    == span_basis(adj(old_out(setting, name, b)).mat.column_space()))
            for sub in (setting.ker(name, b), setting.im(name, b),
                        setting.ker(name, b, True), setting.im(name, b, True)):
                assert sub.nrows == setting.dim(b)


def test_each_adjoint_is_built_once_under_its_name(monkeypatch):
    # every Laplacian kind at every bidegree of Iwasawa under dense3, each
    # assembled twice, and every starred ker and im: the exact and the float
    # adjoints built are as many as the ("star", name, b) memo entries, so
    # no primitive's adjoint is built twice or outside the memo
    calls = {"exact": 0, "numeric": 0}
    exact_adjoint, adjoint_mat = HermitianMetric.adjoint, NumericMetric.adjoint_mat

    def counted(backend, method):
        def spy(*args):
            calls[backend] += 1
            return method(*args)
        return spy

    monkeypatch.setattr(HermitianMetric, "adjoint", counted("exact", exact_adjoint))
    monkeypatch.setattr(NumericMetric, "adjoint_mat", counted("numeric", adjoint_mat))
    n, H = load_metric(os.path.join(FIX, "dense3.herm"))
    exact = _setting("iwasawa.cplx", n, H)
    numeric = NumericSetting(exact)
    for b in bidegrees(n):
        for kind in ALL_KINDS:
            for s in (exact, numeric, exact, numeric):
                assemble(s, kind, b)
        for name in BIGRADED:
            exact.ker(name, b, star=True)
            exact.im(name, b, star=True)
    for backend, s in (("exact", exact), ("numeric", numeric)):
        stars = [key for key in s._memo if isinstance(key, tuple) and key[0] == "star"]
        assert calls[backend] == len(stars) > 0, backend
