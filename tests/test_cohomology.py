"""Cohomology tables, comparison maps, subspace grids, sequences, corners."""

import math
import os

import pytest

from abch.complexes import bidegrees, build_complex, d_between, dim_pq, total_bidegrees
from abch.laplacians import LaplacianKind, harmonic_space
from abch.linalg import Mat, span_basis, subspace_intersect
from abch.metric import diagonal_metric, identity_metric, HermitianMetric, load_metric
from abch.model import load_model, parse_model
from abch.setting import ExactSetting
from abch.scalars import ONE, QQi, ZERO
from abch.cohomology import (
    _coords_in,
    _witness,
    bigraded_arrow,
    InvalidBidegree,
    abc_subspaces,
    all_tables,
    ddbar_conditions,
    diagram_maps,
    exact_sequence_reports,
    full_abc_complex,
    harmonic_dims,
    homology,
    inequality_report,
    table_symmetries,
)
from oracles import stack_identities, verify_hodge_decomposition

TORUS2 = parse_model("n=2\nname = torus2")
IWASAWA = parse_model("n=3\nname = iwasawa\nd phi3 = -1 * phi1 ^ phi2")
KT = parse_model("n=2\nname = kt\nd phi2 = phi1 ^ phibar1")
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.fixture(scope="module")
def torus():
    return ExactSetting(build_complex(TORUS2), identity_metric(2))


@pytest.fixture(scope="module")
def iw():
    return ExactSetting(build_complex(IWASAWA), identity_metric(3))


@pytest.fixture(scope="module")
def kt():
    return ExactSetting(build_complex(KT), identity_metric(2))


def test_torus_binomial_grids(torus):
    tables = all_tables(torus)
    for t in ("del", "delbar", "bc", "a"):
        for p in range(3):
            for q in range(3):
                assert tables[t][p][q] == math.comb(2, p) * math.comb(2, q)
    assert tables["deRham"] == [1, 4, 6, 4, 1]


# Frozen expected grids for the Iwasawa fixture; they agree with the exact
# rank oracle and with the published tables (Angella, J. Geom. Anal. 23 (2013)
# 1355-1378).
IWASAWA_DELBAR = [[1, 2, 2, 1], [3, 6, 6, 3], [3, 6, 6, 3], [1, 2, 2, 1]]
IWASAWA_BC = [[1, 2, 3, 1], [2, 4, 6, 2], [3, 6, 8, 3], [1, 2, 3, 1]]


def test_iwasawa_tables(iw):
    tables = all_tables(iw)
    assert tables["delbar"] == IWASAWA_DELBAR
    assert tables["bc"] == IWASAWA_BC
    assert tables["delbar"][1][0] == 3
    assert tables["delbar"][0][1] == 2
    assert tables["bc"][1][0] == 2
    assert tables["deRham"] == [1, 4, 8, 10, 8, 4, 1]
    # star duality h_bc^{p,q} = h_a^{n-q,n-p}
    for p in range(4):
        for q in range(4):
            assert tables["bc"][p][q] == tables["a"][3 - q][3 - p]


def test_kodaira_thurston_tables(kt):
    tables = all_tables(kt)
    assert tables["delbar"][1][0] == 1
    assert tables["delbar"][0][1] == 2
    assert tables["deRham"] == [1, 3, 4, 3, 1]


def test_hodge_isomorphism_two_routes():
    # the whole rank-nullity table equals the whole harmonic one on every
    # valid model, and both hold plain lists
    for name in sorted(os.listdir(FIXTURES)):
        if not name.endswith(".cplx") or name == "bad.cplx":
            continue
        comp = build_complex(load_model(os.path.join(FIXTURES, name)))
        s = ExactSetting(comp, identity_metric(comp.n))
        tables, harm = all_tables(s), harmonic_dims(s)
        assert harm == tables, name
        assert all(type(v) is list for v in (*tables.values(), *harm.values())), name


# the degrees k at which sum_{p+q=k} (h_BC + h_A) > 2 b_k, per valid model
STRICT_DEGREES = {
    "iwasawa": [1, 2, 3, 4, 5],
    "kodaira_thurston": [2],
    "n4_chain": [1, 2, 3, 4, 5, 6, 7],
    "n4_mixed": [1, 2, 3, 4, 5, 6, 7],
    "torus1": [],
    "torus2": [],
}


def test_froelicher_and_angella_tomassini_inequalities():
    # Frolicher (PNAS 41 (1955)): b_k <= sum_{p+q=k} h_delbar, and the same
    # for h_del; Angella-Tomassini (Invent. Math. 192 (2013), Thms A, B):
    # sum_{p+q=k} (h_BC + h_A) >= 2 b_k, with equality at every k exactly
    # when the del delbar lemma holds, i.e. when every condition holds
    names = sorted(f[:-5] for f in os.listdir(FIXTURES) if f.endswith(".cplx") and f != "bad.cplx")
    assert names == sorted(STRICT_DEGREES)
    for name in names:
        comp = build_complex(load_model(os.path.join(FIXTURES, f"{name}.cplx")))
        s, n = ExactSetting(comp, identity_metric(comp.n)), comp.n
        tables = all_tables(s)

        def degree_sum(theory, k):
            return sum(tables[theory][p][k - p] for p in range(max(0, k - n), min(n, k) + 1))

        strict = []
        for k, b in enumerate(tables["deRham"]):
            assert b <= degree_sum("delbar", k) and b <= degree_sum("del", k), (name, k)
            bc_a = degree_sum("bc", k) + degree_sum("a", k)
            assert bc_a >= 2 * b, (name, k)
            if bc_a > 2 * b:
                strict.append(k)
        assert strict == STRICT_DEGREES[name], name
        assert inequality_report(s).strict_degrees == STRICT_DEGREES[name], name
        assert (strict == []) == all(ddbar_conditions(s)["holds"].values()), name
        if name == "kodaira_thurston":
            assert degree_sum("bc", 2) + degree_sum("a", 2) == 10 and 2 * tables["deRham"][2] == 8


def test_harmonic_dims_metric_independent():
    comp = build_complex(IWASAWA)
    dims = []
    for metric in (identity_metric(3), diagonal_metric([2, 1, 1])):
        s = ExactSetting(comp, metric)
        dims.append(harmonic_dims(s))
    assert dims[0] == dims[1]


def test_symmetries(iw, kt):
    for s in (iw, kt):
        assert all(table_symmetries(all_tables(s), s.n).values())


def test_hodge_decompositions():
    for model, diag in ((TORUS2, [2, 1]), (IWASAWA, [2, 1, 1]), (KT, [2, 1])):
        comp = build_complex(model)
        for metric in (identity_metric(comp.n), diagonal_metric(diag)):
            s = ExactSetting(comp, metric)
            for p in range(comp.n + 1):
                for q in range(comp.n + 1):
                    rep = verify_hodge_decomposition(s, (p, q))
                    for side in ("bc", "a"):
                        r = rep[side]
                        assert r["orthogonal"], (model.name, p, q, side)
                        assert r["sum_matches"], (model.name, p, q, side)
                        assert r["kernel_identity"], (model.name, p, q, side)


def test_decomposition_orthogonality_random_rational_metric():
    import numpy as np

    comp = build_complex(IWASAWA)
    rng = np.random.default_rng(41)
    from fractions import Fraction

    B = Mat(
        [
            [QQi(Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3))),
                 Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))) for _ in range(3)]
            for _ in range(3)
        ],
        ncols=3,
    )
    H = B.conj_t() @ B + Mat.identity(3)
    s = ExactSetting(comp, HermitianMetric(3, H))
    rep = verify_hodge_decomposition(s, (1, 1))
    assert rep["bc"]["orthogonal"] and rep["a"]["orthogonal"]
    assert rep["bc"]["sum_matches"] and rep["a"]["sum_matches"]


def test_diagram_torus_all_isomorphisms(torus):
    for k in range(5):
        rep = diagram_maps(torus, k)
        assert rep.commutes
        assert rep.all_isomorphisms


def test_diagram_iwasawa_flags(iw):
    arrow = bigraded_arrow(iw, "bc", "delbar", (1, 0))
    assert arrow.injective and not arrow.surjective  # 2 into 3
    rep = diagram_maps(iw, 1)
    assert rep.commutes
    assert not rep.all_isomorphisms


def test_diagram_commutes_everywhere(iw, kt):
    for s in (iw, kt):
        for k in range(2 * s.n + 1):
            assert diagram_maps(s, k).commutes


def test_ddbar_conditions_torus(torus):
    rep = ddbar_conditions(torus)
    assert all(rep["holds"].values())
    assert rep["all_agree"]


def test_ddbar_conditions_iwasawa(iw):
    rep = ddbar_conditions(iw)
    assert not any(rep["holds"].values())
    assert rep["all_agree"]  # all six agree (all false)
    assert rep["witnesses"]  # an explicit witness form was produced


def test_the_witness_is_the_first_column_of_big_outside_small():
    # big's first column is s1 + 2 s2, inside span(small); its second is the
    # first outside, so the witness is the first pivot past small's columns
    small = Mat([[ONE, ZERO], [ZERO, ONE], [ONE, ZERO]], ncols=2)
    big = Mat([[ONE, ZERO, ONE], [QQi(2), ZERO, ZERO], [ONE, QQi(0, 1), ZERO]], ncols=3)
    assert _witness((1, 2), small, big) == {"bidegree": (1, 2), "form": ["0", "0", "i"]}
    assert _witness((1, 2), big, small) is None  # span(small) lies in span(big)


def test_conditions_d_and_f_have_one_right_hand_side():
    # f puts ker d in place of kk; at one bidegree ker d ∩ A^{p,q} is
    # ker del ∩ ker delbar, so f's right-hand side is d's
    s = ExactSetting(build_complex(load_model(os.path.join(FIXTURES, "n4_mixed.cplx"))), identity_metric(4))
    for p in range(5):
        for q in range(5):
            b = (p, q)
            d_at_b = d_between(s.ops, (b,), total_bidegrees(4, p + q + 1)).mat
            assert span_basis(d_at_b.nullspace()) == subspace_intersect(s.ker("del", b), s.ker("delbar", b))
    rep = ddbar_conditions(s)
    assert rep["holds"]["f"] == rep["holds"]["d"] is False
    assert rep["witnesses"]["f"] == rep["witnesses"]["d"] == {"bidegree": (0, 1), "form": ["0", "0", "1", "0"]}


def test_a_vector_outside_the_subspace_is_a_broken_invariant():
    with pytest.raises(AssertionError, match="vector outside subspace"):
        _coords_in(Mat([[ONE], [ZERO]], ncols=1), Mat([[ZERO], [ONE]], ncols=1))


def test_subspace_routes_and_conjugation(iw, kt):
    for s in (iw, kt):
        grids = abc_subspaces(s)
        assert grids.routes_agree
        assert grids.conjugation_ok


def test_torus_subspaces_vanish(torus):
    grids = abc_subspaces(torus)
    for x in "abcdef":
        assert all(all(v == 0 for v in row) for row in grids.dims[x])


def test_exact_sequences(iw, kt, torus):
    for s in (torus, iw, kt):
        rep = exact_sequence_reports(s)
        assert rep["all_exact"]
        for res in rep["per_bidegree"].values():
            assert res["seq1"]["alternating_sum"] == 0
            assert res["seq2"]["alternating_sum"] == 0


@pytest.mark.parametrize("route, name, seq, alt", [("quotient", "c", "seq1", 1), ("table", "bc", "seq2", -1)])
def test_an_altered_node_dimension_breaks_the_alternating_sum(route, name, seq, alt):
    # the sums read each node's dimension from the quotient grids or the
    # rank-nullity tables, not from the shapes of the maps, so one wrong cell
    # shows; the setting is fresh because the cell is altered in its memo
    s = ExactSetting(build_complex(KT), identity_metric(2))
    grid = abc_subspaces(s).quotient_dims[name] if route == "quotient" else all_tables(s)[name]
    grid[1][1] += 1
    rep = exact_sequence_reports(s)
    assert not rep["all_exact"]
    assert rep["per_bidegree"][(1, 1)][seq] == {"exact": True, "alternating_sum": alt}
    other = "seq2" if seq == "seq1" else "seq1"
    assert rep["per_bidegree"][(1, 1)][other]["alternating_sum"] == 0


def _m(rows, ncols):
    return Mat([[QQi(*x) if isinstance(x, tuple) else QQi(x) for x in row] for row in rows], ncols=ncols)


def test_homology_of_an_exact_short_sequence():
    # 0 -> C -> C^2 -> C -> 0 with the inclusion of e1 and the projection onto e2 (times i)
    assert homology([_m([[1], [0]], 1), _m([[0, (0, 1)]], 2)]) == [0, 0, 0]


def test_homology_of_a_sequence_not_exact_in_the_middle():
    # C -> C^3 -> C hits e1 and kills e1, e2: e2 is a class at the middle node only
    assert homology([_m([[1], [0], [0]], 1), _m([[0, 0, 1]], 3)]) == [0, 1, 0]


def test_homology_of_a_first_map_that_is_not_injective():
    # C^2 -> C^2 has kernel e1 - e2; its image is span e1 = ker of the last map
    assert homology([_m([[1, 1], [0, 0]], 2), _m([[0, 1]], 2)]) == [1, 0, 0]


def test_homology_of_a_last_map_that_is_not_surjective():
    # C^2 -> C^2 has image span e1, which the incoming map already fills
    assert homology([_m([[1], [0]], 1), _m([[0, 1], [0, 0]], 2)]) == [0, 0, 1]


def test_homology_of_one_map_and_of_empty_nodes():
    assert homology([_m([[1, 2], [2, 4]], 2)]) == [1, 1]
    assert homology([Mat.zeros(2, 0), Mat.zeros(0, 2)]) == [0, 2, 0]


def test_inequality_kt_strict(kt):
    rep = inequality_report(kt)
    assert rep.identity_holds and rep.criterion_consistent
    assert rep.defect[1][1] == 2
    assert rep.lhs[1][1] == 4 and rep.rhs[1][1] == 6
    assert (1, 1) not in rep.equality_bidegrees


def test_total_degree_inequality_kt(kt):
    # Angella-Tomassini, Invent. Math. 192 (2013) 71-81: the sum over p+q=k
    # of h_bc + h_a is >= 2 b_k, strict at some k when del-delbar fails.
    tables = all_tables(kt)
    betti = tables["deRham"]

    def h(k):
        return sum(
            tables["bc"][p][k - p] + tables["a"][p][k - p]
            for p in range(max(0, k - 2), min(2, k) + 1)
        )

    assert (h(1), 2 * betti[1]) == (6, 6)
    assert (h(2), 2 * betti[2]) == (10, 8)
    assert all(h(k) >= 2 * betti[k] for k in range(5))


def test_inequality_iwasawa_equality_everywhere(iw):
    # The published Iwasawa grids (Angella 2013) give h_bc + h_a = h_del +
    # h_delbar at all 16 bidegrees; its strictness is total-degree only.
    rep = inequality_report(iw)
    assert rep.identity_holds and rep.criterion_consistent
    assert all(all(v == 0 for v in row) for row in rep.defect)
    assert len(rep.equality_bidegrees) == 16


def test_inequality_torus_equality(torus):
    rep = inequality_report(torus)
    assert all(all(v == 0 for v in row) for row in rep.defect)
    assert rep.identity_holds


def test_full_abc_torus(torus):
    fc = full_abc_complex(torus, (1, 1))
    for op in fc.deltas:
        assert op.mat.is_zero()
    for k, sp in enumerate(fc.spaces):
        assert fc.h[k] == torus.space_dim(sp)
    assert fc.euler_spaces == fc.euler_h


def test_full_abc_iwasawa_nodes(iw):
    tables = all_tables(iw)
    for target in ((1, 1), (2, 1), (2, 2)):
        fc = full_abc_complex(iw, target)
        p, q = target
        assert fc.h == fc.harmonic_dims
        assert fc.node_bc == tables["bc"][p][q]
        assert fc.node_a == tables["a"][p - 1][q - 1]
        assert fc.euler_spaces == fc.euler_h


@pytest.mark.parametrize(
    "model, metric",
    [("kodaira_thurston", None), ("kodaira_thurston", "kt_complex"), ("iwasawa", None), ("iwasawa", "dense3")],
)
def test_full_abc_corner_nodes_are_bc_and_a_spaces(model, metric):
    # the node after the order-2 corner delta is A^{p,q} between del delbar
    # and (del, delbar), the one before it A^{p-1,q-1} between (del, delbar)
    # and del delbar: their harmonic spaces are the Bott-Chern and Aeppli ones
    comp = build_complex(load_model(os.path.join(FIXTURES, f"{model}.cplx")))
    H = load_metric(os.path.join(FIXTURES, f"{metric}.herm"))[1] if metric else Mat.identity(comp.n)
    s = ExactSetting(comp, HermitianMetric(comp.n, H))
    for p, q in bidegrees(s.n):
        if p + q < 2:
            continue
        hdims = full_abc_complex(s, (p, q)).harmonic_dims
        assert hdims[p + q - 1] == harmonic_space(s, LaplacianKind.BC, (p, q)).ncols, (p, q)
        if p >= 1 and q >= 1:
            assert hdims[p + q - 2] == harmonic_space(s, LaplacianKind.A, (p - 1, q - 1)).ncols, (p, q)


@pytest.mark.parametrize(
    "model, metric, target",
    [("iwasawa", "dense3", (1, 1)), ("iwasawa", "dense3", (2, 1)), ("iwasawa", "dense3", (0, 2)),
     ("iwasawa", "dense3", (2, 0)), ("n4_chain", None, (2, 2))],
)
def test_full_abc_takes_no_adjoint(monkeypatch, model, metric, target):
    # each node's harmonic space is cut out by the map leaving it and by the
    # Gram orthogonality to the image of the one entering it: no adjoint
    comp = build_complex(load_model(os.path.join(FIXTURES, f"{model}.cplx")))
    H = load_metric(os.path.join(FIXTURES, f"{metric}.herm"))[1] if metric else Mat.identity(comp.n)
    s = ExactSetting(comp, HermitianMetric(comp.n, H))
    calls, adjoint = [], HermitianMetric.adjoint
    monkeypatch.setattr(HermitianMetric, "adjoint", lambda self, op: calls.append(op) or adjoint(self, op))
    fc = full_abc_complex(s, target)
    assert calls == []
    p, q = target
    if p == 0 or q == 0:
        # the corner map has no source: the del delbar product into A^{p,q}
        corner = fc.deltas[p + q - 2].mat
        assert (corner.nrows, corner.ncols) == (dim_pq(s.n, p, q), 0)
        assert fc.h == fc.harmonic_dims


def test_full_abc_degenerate_target(iw):
    fc = full_abc_complex(iw, (1, 0))
    assert fc.h == fc.harmonic_dims
    assert fc.euler_spaces == fc.euler_h
    with pytest.raises(InvalidBidegree):
        full_abc_complex(iw, (4, 0))


def test_stack_identities(iw, kt):
    for s in (iw, kt):
        assert stack_identities(s)


def test_subspace_grids_complex_rational_metric():
    # conjugation symmetry and route agreement persist for a genuinely
    # complex Gaussian-rational metric
    from fractions import Fraction
    import numpy as np

    comp = build_complex(IWASAWA)
    rng = np.random.default_rng(47)
    B = Mat(
        [
            [QQi(Fraction(int(rng.integers(-2, 3)), 2), Fraction(int(rng.integers(-2, 3)), 3)) for _ in range(3)]
            for _ in range(3)
        ],
        ncols=3,
    )
    H = B.conj_t() @ B + Mat.identity(3)
    s = ExactSetting(comp, HermitianMetric(3, H))
    grids = abc_subspaces(s)
    assert grids.routes_agree
    assert grids.conjugation_ok
    rep = inequality_report(s)
    assert rep.identity_holds and rep.criterion_consistent
