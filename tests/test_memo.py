"""Every memoising object reads through one `Memo.cached`: a second read is
the very object of the first, held in the owner's `_memo`, and a build that
raises stores nothing, so its check runs again on the next read."""

import os

import pytest

from abch.complexes import build_complex
from abch.linalg import Mat
from abch.metric import HermitianMetric, diagonal_metric, load_metric
from abch.model import load_model
from abch.setting import ExactSetting

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SPACE = ((1, 1), (2, 0))


def _iwasawa_dense3():
    n, H = load_metric(os.path.join(FIX, "dense3.herm"))
    return ExactSetting(build_complex(load_model(os.path.join(FIX, "iwasawa.cplx"))), HermitianMetric(n, H))


# read -> (a fresh object, the Memo that owns the entry, one read of it)
READS = {
    "BigradedComplex.map": (_iwasawa_dense3, lambda s: s.ops, lambda s: s.ops.map("deldbar", (1, 0))),
    "HermitianMetric.gram_space": (_iwasawa_dense3, lambda s: s.metric, lambda s: s.metric.gram_space(SPACE)),
    "HermitianMetric.gram_inv_space": (_iwasawa_dense3, lambda s: s.metric,
                                       lambda s: s.metric.gram_inv_space(SPACE)),
    "HermitianMetric.star": (_iwasawa_dense3, lambda s: s.metric, lambda s: s.metric.star((2, 1)).mat),
    "NumericMetric.gram_factor": (_iwasawa_dense3, lambda s: s.metric.numeric,
                                  lambda s: s.metric.numeric.gram_factor(SPACE)),
    "ExactSetting.out": (_iwasawa_dense3, lambda s: s, lambda s: s.out("deldbar", (1, 0), True)),
}


@pytest.mark.parametrize("read", sorted(READS))
def test_a_second_read_is_the_first(read):
    make, owner, get = READS[read]
    obj = make()
    first = get(obj)
    assert get(obj) is first
    assert any(value is first for value in owner(obj)._memo.values())


def test_a_failed_inverse_check_is_built_and_failed_again(monkeypatch):
    # an inversion that returns its input makes H^{-1} come back as H, as in
    # test_wrong_gram_inverse_exits_one: a memo that kept a placeholder, or
    # swallowed the failure, would pass the second read
    monkeypatch.setattr(Mat, "inv", lambda self: self)
    metric = diagonal_metric([2, 1])
    for _ in range(2):
        with pytest.raises(AssertionError, match="Gram inverse check failed"):
            metric.gram_inv_space(((1, 1),))
