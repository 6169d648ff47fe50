"""Structure-equation parser: canonical forms, errors, round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abch.covering import MAX_COVER_N, MAX_RADIUS, CoveringSpec, build_cover, parse_cover
from abch.metric import parse_metric
from abch.model import (
    MAX_N,
    BidegreeViolation,
    ComplexModel,
    DuplicateEquation,
    InputTooLarge,
    ModelError,
    ModelSyntaxError,
    UnknownGenerator,
    parse_model,
    render_model,
)
from abch.linalg import Mat
from abch.scalars import QQi


def test_torus_has_no_equations():
    m = parse_model("n=2")
    assert m.n == 2 and not m.d20 and not m.d11


def test_iwasawa_structure_constants():
    m = parse_model("n=3; d phi3 = -1 * phi1 ^ phi2".replace("; ", "\n"))
    assert m.d20 == {3: {(1, 2): QQi(-1)}}
    assert m.d11 == {}


def test_kodaira_thurston_structure_constants():
    m = parse_model("n=2\nd phi2 = phi1 ^ phibar1")
    assert m.d11 == {2: {(1, 1): QQi(1)}}
    assert m.d20 == {}


def test_sign_normalisation():
    # phi2 ^ phi1 = -phi1 ^ phi2; phibar1 ^ phi2 = -phi2 ^ phibar1
    m = parse_model("n=2\nd phi1 = phi2 ^ phi1 + phibar1 ^ phi2")
    assert m.d20 == {1: {(1, 2): QQi(-1)}}
    assert m.d11 == {1: {(2, 1): QQi(-1)}}


def test_term_merging_and_cancellation():
    m = parse_model("n=2\nd phi1 = phi1 ^ phi2 - phi1 ^ phi2")
    assert m.d20 == {} and m.d11 == {}


def test_complex_coefficients():
    m = parse_model("n=2\nd phi2 = (1/2 + 3/4i) * phi1 ^ phi2 + i * phi1 ^ phibar2")
    assert m.d20[2][(1, 2)] == QQi(Fraction(1, 2), Fraction(3, 4))
    assert m.d11[2][(1, 2)] == QQi(0, 1)


def test_bidegree_violation():
    with pytest.raises(BidegreeViolation) as err:
        parse_model("n=2\nd phi2 = phibar1 ^ phibar2")
    assert err.value.line == 2


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_model("n=2\nd phi2 = phi1 ^ phi3")
    with pytest.raises(UnknownGenerator):
        parse_model("n=2\nd phi5 = phi1 ^ phi2")


def test_duplicate_equation():
    with pytest.raises(DuplicateEquation):
        parse_model("n=2\nd phi1 = phi1 ^ phi2\nd phi1 = phi1 ^ phi2")


_COVER = "n = 1\nbase = [[1, 0], [0, 1]]\nsub = [[2, 0], [0, 1]]\nradius = 1\n"
REPEATS = {
    "cplx-n": (parse_model, "n = 2\nn = 2", 2),
    "cplx-name": (parse_model, "n = 2\nname = a\nname = b", 3),
    "cplx-d": (parse_model, "n = 2\nd phi2 = phi1 ^ phibar1\nd phi02 = phi1 ^ phibar1", 3),
    "herm-n": (parse_metric, "n = 2\nH[2][2] = 3\nn = 1", 3),  # was a bare IndexError
    "herm-H": (parse_metric, "n = 2\nH[1][2] = i\nH[01][2] = i", 3),
    "cover-n": (parse_cover, _COVER + "n = 1", 5),
    "cover-base": (parse_cover, _COVER + "base = [[1, 0], [0, 1]]", 5),
    "cover-sub": (parse_cover, _COVER + "sub = [[1, 0], [0, 2]]", 5),
    "cover-radius": (parse_cover, _COVER + "radius = 2", 5),
}


@pytest.mark.parametrize("parse,text,line", REPEATS.values(), ids=REPEATS.keys())
def test_repeated_statement_is_rejected(parse, text, line):
    # a repeated key, compared after parsing, is an error, not last-wins
    with pytest.raises(DuplicateEquation) as err:
        parse(text)
    assert err.value.line == line


def test_syntax_errors_carry_position():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("n=2\nd phi1 = phi1 * phi2")
    assert err.value.line == 2
    with pytest.raises(ModelSyntaxError):
        parse_model("n=2\nd phi1 = 1/0 * phi1 ^ phi2")
    with pytest.raises(ModelSyntaxError):
        parse_model("d phi1 = phi1 ^ phi2")  # n not declared yet


@pytest.mark.parametrize("head", ["d phi3", "d  phi3", "d\tphi3"])
def test_a_statement_head_is_d_then_a_generator(head):
    m = parse_model(f"n = 3\n{head} = phi1 ^ phi2\n")
    assert m.d20 == {3: {(1, 2): QQi(1)}}


@pytest.mark.parametrize("head", ["dphi3", "d phibar3", "D phi3", "d phi", "d phi3x", "d phi 3"])
def test_a_malformed_statement_head_is_a_syntax_error_at_its_line(head):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(f"n = 3\n\n{head} = phi1 ^ phi2\n")
    assert err.value.line == 3
    assert f"bad statement {head!r}" in str(err.value)


def test_comments_and_crlf():
    m = parse_model("# header\r\nn = 2\r\nname = t  \r\n# done\r\n")
    assert m.n == 2 and m.name == "t"
    n, H = parse_metric("# header\r\nn = 2  \r\n\r\nH[1][2] = i  # off-diagonal\r\nH[2][2] = 3 \t\r\n# done\r\n")
    assert n == 2 and H == Mat([[QQi(1), QQi(0, 1)], [QQi(0, -1), QQi(3)]])
    cover = "# header\r\nn = 1 \r\nbase = [[1, 0], [0, 1]]  # unit\r\n\r\nsub = [[2, 0], [0, 1]]\t\r\nradius = 1  \r\n#\r\n"
    assert parse_cover(cover) == CoveringSpec(n=1, base=((1, 0), (0, 1)), sub=((2, 0), (0, 1)), radius=Fraction(1))
    # a line without '=' is an error at its own line, after a comment line
    # and a blank one, and before any later statement is read
    for parse, text in [
        (parse_model, "n = 2\r\n# comment\r\n\r\nd phi2 phi1 ^ phibar1\r\nname = t"),
        (parse_metric, "n = 2\r\n# comment\r\n\r\nH[1][2] i\r\nH[2][2] = 3"),
        (parse_cover, "n = 1\r\n# comment = no\r\n\r\nbase [[1, 0], [0, 1]]\r\nradius = 1"),
    ]:
        with pytest.raises(ModelSyntaxError) as err:
            parse(text)
        assert err.value.line == 4 and "needs '='" in str(err.value), parse


@pytest.mark.parametrize("base", [
    "junk [1, 0] more junk [0, 1] trailing",  # text outside the brackets
    "[[1, 0], [0, 1]",  # a missing outer bracket
    "[[1, 0], [0, 1]]]]",  # unbalanced brackets
    "[[1, 0], [], [0, 1]]",  # an empty row
])
def test_a_malformed_lattice_matrix_is_a_syntax_error_at_its_line(base):
    # nothing outside the rows may be dropped: the whole right-hand side is the matrix
    with pytest.raises(ModelSyntaxError) as err:
        parse_cover(f"n = 1\nradius = 1\nbase = {base}\nsub = [[2, 0], [0, 1]]\n")
    assert err.value.line == 3 and "bad base matrix" in str(err.value)
    # the form the fixtures use, with any spacing
    assert parse_cover(f"n = 1\nradius = 1\nbase = [ [1,0] ,[ 0 , 1 ] ]\nsub = [[2, 0], [0, 1]]\n").base == ((1, 0), (0, 1))


small = st.integers(min_value=-3, max_value=3)
coeffs = st.builds(
    lambda a, b, c, d: QQi(Fraction(a, 1 + abs(c)), Fraction(b, 1 + abs(d))),
    small, small, small, small,
).filter(lambda c: not c.is_zero())


@st.composite
def models(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    d20, d11 = {}, {}
    for k in range(1, n + 1):
        if draw(st.booleans()):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
            entries = {pair: draw(coeffs) for pair in chosen}
            if entries:
                d20[k] = dict(sorted(entries.items()))
        if draw(st.booleans()):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3))
            entries = {pair: draw(coeffs) for pair in chosen}
            if entries:
                d11[k] = dict(sorted(entries.items()))
    return ComplexModel(n=n, name="rand", d20=d20, d11=d11)


@settings(max_examples=80, deadline=None)
@given(models())
def test_round_trip(model):
    assert parse_model(render_model(model)) == model


# -- fuzzing of the three input parsers -----------------------------------------

_KEYS = st.sampled_from(["n", "name", "d phi1", "d phi3", "d phi0", "H[1][2]", "H[2][2]", "H[3][1]",
                         "H[1][9]", "base", "sub", "radius", "x"])
_TOKENS = st.sampled_from([
    "phi1", "phi2", "phibar1", "phibar3", "phi99", "^", "*", "+", "-", "(", ")", "i", "3i",
    "1/2", "1/2i", "1/0", "0", "1", "2", "3", "7", "-3", "1.5", "1e9", "9" * 30, "9" * 5000,
    "[[1, 0], [0, 1]]", "[[2, 0], [0, 1]]", "[[1]]", "[", "]", ",", "=", "#", "x",
])
_LINES = st.one_of(
    st.builds(lambda key, rhs: f"{key} = {' '.join(rhs)}", _KEYS, st.lists(_TOKENS, min_size=1, max_size=5)),
    st.lists(_TOKENS, max_size=6).map(" ".join),
)
_HEADERS = st.sampled_from(["", "n = 1\n", "n = 2\n", "n = 3\n", "n = 7\n", "n = 100000\n"])
_TEXTS = st.one_of(
    st.text(max_size=60),
    st.builds(lambda head, lines: head + "\n".join(lines), _HEADERS, st.lists(_LINES, max_size=6)),
)


@pytest.mark.parametrize("parse", [parse_model, parse_metric, parse_cover], ids=["cplx", "herm", "cover"])
@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_parsers_accept_or_raise_model_error(parse, text):
    try:
        parse(text)
    except ModelError:
        pass


def test_input_caps():
    assert parse_model(f"n = {MAX_N}").n == MAX_N
    assert parse_metric(f"n = {MAX_N}")[0] == MAX_N
    cover = "base = [[1, 0], [0, 1]]\nsub = [[2, 0], [0, 1]]\n"
    assert parse_cover(f"n = 1\n{cover}radius = {MAX_RADIUS}").radius == MAX_RADIUS
    for parse, text in [
        (parse_model, f"n = {MAX_N + 1}"),
        (parse_model, "n = " + "9" * 5000),
        (parse_metric, f"n = {MAX_N + 1}"),
        (parse_cover, f"n = {MAX_COVER_N + 1}"),
        (parse_cover, f"n = 1\n{cover}radius = {MAX_RADIUS}.5"),
    ]:
        with pytest.raises(InputTooLarge):
            parse(text)
    # within both caps, but the mode scan would pass MAX_MODE_CANDIDATES points
    eye = tuple(tuple(int(i == j) for j in range(2 * MAX_COVER_N)) for i in range(2 * MAX_COVER_N))
    with pytest.raises(InputTooLarge):
        build_cover(CoveringSpec(n=MAX_COVER_N, base=eye, sub=eye, radius=Fraction(MAX_RADIUS)))
