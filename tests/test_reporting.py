"""The one-pass JSON renderer against the reference `json.dumps` report."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from abch import reporting
from abch.linalg import Mat
from abch.scalars import QQi

BIG_DEN = 2**61 - 1

text = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "日本", "\U0001f600", "\ud800"]
)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-320, 1e300, 0.1]
)
fractions = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, BIG_DEN))
qqis = st.builds(QQi, fractions, fractions) | st.builds(QQi, st.integers(-3, 3))


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.just(QQi(0)) | qqis | st.builds(
        QQi, st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 6, BIG_DEN])),
        st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 3, BIG_DEN])))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return Mat(rows, ncols)


leaves = (
    text | st.integers(-(2**80), 2**80) | st.booleans() | st.none() | floats
    | floats.map(np.float64) | fractions | matrices()
)
payloads = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(text, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_render_json_writes_the_bytes_of_json_dumps(payload):
    assert reporting.render_json(payload) == oracles.render_json(payload)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.integers(0, 4))
def test_matrix_payload_at_any_depth(m, depth):
    payload = m
    for _ in range(depth):
        payload = {"m": [payload]}
    assert reporting.render_json(payload) == oracles.render_json(payload)


def test_every_entry_is_reduced_part_by_part():
    # (2/6 + 3/6 i) over one denominator 6 is [1, 3, 1, 2]; a zero part is 0/1
    m = Mat([[QQi(Fraction(1, 3), Fraction(1, 2)), QQi(0), QQi(Fraction(-5, 6))]])
    assert reporting.render_json({"m": m}) == oracles.render_json({"m": m})
    assert "[\n        1,\n        3,\n        1,\n        2\n      ]" in reporting.render_json({"m": m})


# values that no report holds: the reference renderer refuses them too
FOREIGN_VALUES = [QQi(1, 2), np.int64(3), np.uint8(3), np.zeros((2, 2)), np.zeros(0)]


@pytest.mark.parametrize("payload", [{1: "a"}, {("a",): 1}, {"a": {None: 1}}, {"a": [object()]},
                                     {"a": 1j}, {"a": np.float32(1.0)}, {"a": np.bool_(True)}, {"a": {1, 2}},
                                     *({"a": x} for x in FOREIGN_VALUES)])
def test_anything_else_raises_type_error(payload):
    with pytest.raises(TypeError):
        reporting.render_json(payload)
    if any(payload.get("a") is x for x in FOREIGN_VALUES):
        with pytest.raises(TypeError):
            oracles.render_json(payload)
