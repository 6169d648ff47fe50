"""Acceptance suite.

One test per criterion; each prints a single `[ACCEPTANCE] criterion N:
PASS/FAIL` line and fails loudly when any sub-check fails.  Tolerances are
pinned here: exact checks use zero tolerance, eigenvalue zero-detection uses
tol_abs = 1e-12 / tol_rel = 1e-9, the covering gap ratio is checked to a
relative 1e-9, and Rayleigh sampling uses 1000 seeded samples per operator.
"""

import math
from fractions import Fraction

from abch.complexes import build_complex, dim_pq
from abch.covering import (
    CoveringSpec,
    build_cover,
    gamma_dimension,
    gamma_tables,
    metric_independence_check,
)
from abch.laplacians import (
    ALL_KINDS,
    DEFAULT_SEED,
    LaplacianBundle,
    LaplacianKind,
)
from abch.linalg import Mat
from abch.metric import diagonal_metric, identity_metric
from abch.model import parse_model
from abch.scalars import QQi
from abch.setting import ExactSetting, NumericSetting
from abch import cohomology as coh
from oracles import (
    duality_residuals,
    kahler_identities,
    kernel_coincidence,
    verify_gap_inequality,
    verify_hodge_decomposition,
)

MODELS = {
    "torus1": parse_model("n=1\nname = torus1"),
    "torus2": parse_model("n=2\nname = torus2"),
    "iwasawa": parse_model("n=3\nname = iwasawa\nd phi3 = -1 * phi1 ^ phi2"),
    "kodaira_thurston": parse_model("n=2\nname = kodaira_thurston\nd phi2 = phi1 ^ phibar1"),
}

COMPLEXES = {name: build_complex(m) for name, m in MODELS.items()}


def metrics_for(n):
    return {
        "id": identity_metric(n),
        "diag2": diagonal_metric([2] + [1] * (n - 1)),
    }


SETTINGS = {
    (name, mname): ExactSetting(comp, metric)
    for name, comp in COMPLEXES.items()
    for mname, metric in metrics_for(comp.n).items()
}


def bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def conclude(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({description}): {status}")
    assert not failures, f"criterion {num}: {failures}"


def test_criterion_1_complex_identities():
    failures = []
    for name, comp in COMPLEXES.items():
        n = comp.n
        for p, q in bidegrees(n):
            b = (p, q)
            if not (comp.map("del", (p + 1, q)) @ comp.map("del", b)).is_zero():
                failures.append(f"{name} del^2 at {b}")
            if not (comp.map("delbar", (p, q + 1)) @ comp.map("delbar", b)).is_zero():
                failures.append(f"{name} delbar^2 at {b}")
            anti = (comp.map("del", (p, q + 1)) @ comp.map("delbar", b)
                    + comp.map("delbar", (p + 1, q)) @ comp.map("del", b))
            if not anti.is_zero():
                failures.append(f"{name} anticommutator at {b}")
    conclude(1, "complex identities exactly zero on all fixtures", failures)


def total_degree_sums(tables, n):
    """(k, sum over p+q=k of h_bc + h_a, 2 b_k) for k = 0..2n.

    Angella-Tomassini (Invent. Math. 192 (2013) 71-81, Thms A and B): the
    sum is >= 2 b_k at every k, with equality at every k exactly when the
    del-delbar-lemma holds.
    """
    betti = tables["deRham"]
    rows = []
    for k in range(2 * n + 1):
        ps = range(max(0, k - n), min(n, k) + 1)
        h = sum(tables["bc"][p][k - p] + tables["a"][p][k - p] for p in ps)
        rows.append((k, h, 2 * betti[k]))
    return rows


def test_criterion_2_torus_suite():
    failures = []
    s = SETTINGS[("torus2", "id")]
    tables = coh.all_tables(s)
    for t in ("del", "delbar", "bc", "a"):
        for p, q in bidegrees(2):
            if tables[t][p][q] != math.comb(2, p) * math.comb(2, q):
                failures.append(f"table {t} at {(p, q)}")
    if tables["deRham"] != [math.comb(4, k) for k in range(5)]:
        failures.append("betti numbers are not binomial")
    for k in range(5):
        rep = coh.diagram_maps(s, k)
        if not rep.all_isomorphisms or not rep.commutes:
            failures.append(f"diagram at degree {k}")
    dd = coh.ddbar_conditions(s)
    if not all(dd["holds"].values()):
        failures.append("a del-delbar condition fails on the torus")
    ineq = coh.inequality_report(s)
    if any(v != 0 for row in ineq.defect for v in row):
        failures.append("torus defect nonzero")
    if not ineq.identity_holds:
        failures.append("torus defect identity")
    # control for criterion 3: the del-delbar-lemma holds, so the
    # total-degree Angella-Tomassini inequality is an equality at every k
    sums = total_degree_sums(tables, 2)
    if [h for _, h, _ in sums] != [2, 8, 12, 8, 2]:
        failures.append(f"torus h_bc + h_a by degree: {sums}")
    for k, h, twice_b in sums:
        if h != twice_b:
            failures.append(f"torus total degree {k}: {h} != 2 b_k = {twice_b}")
    conclude(2, "torus n=2 binomial tables, isomorphisms, conditions, equality", failures)


# The invariant cohomology of the Iwasawa manifold, grid[p][q]: Angella,
# J. Geom. Anal. 23 (2013) 1355-1378, the table for the Iwasawa manifold.
IWASAWA_GRIDS = {
    "del": [[1, 3, 3, 1], [2, 6, 6, 2], [2, 6, 6, 2], [1, 3, 3, 1]],
    "delbar": [[1, 2, 2, 1], [3, 6, 6, 3], [3, 6, 6, 3], [1, 2, 2, 1]],
    "bc": [[1, 2, 3, 1], [2, 4, 6, 2], [3, 6, 8, 3], [1, 2, 3, 1]],
    "a": [[1, 3, 2, 1], [3, 8, 6, 3], [2, 6, 4, 2], [1, 3, 2, 1]],
}
IWASAWA_BETTI = [1, 4, 8, 10, 8, 4, 1]


def test_criterion_3_iwasawa():
    failures = []
    s = SETTINGS[("iwasawa", "id")]
    tables = coh.all_tables(s)
    for t, grid in IWASAWA_GRIDS.items():
        if tables[t] != grid:
            failures.append(f"h_{t} grid {tables[t]} != published {grid}")
    if tables["deRham"] != IWASAWA_BETTI:
        failures.append(f"betti {tables['deRham']} != published {IWASAWA_BETTI}")
    ineq = coh.inequality_report(s)
    if not ineq.identity_holds:
        failures.append("defect identity h_bc+h_a = h_del+h_delbar+a+f fails")
    for p, q in bidegrees(3):
        if not ineq.lhs[p][q] <= ineq.rhs[p][q]:
            failures.append(f"h_del + h_delbar > h_bc + h_a at {(p, q)}")
    # The published grids give per-bidegree equality, so strictness is the
    # total-degree one of Angella-Tomassini, Invent. Math. 192 (2013) 71-81.
    sums = total_degree_sums(tables, 3)
    strict = [(k, h, twice_b) for k, h, twice_b in sums if h > twice_b]
    if strict:
        k, h, twice_b = strict[0]
        detail = f"strict at k = {k}: {h} > 2 b_k = {twice_b}"
    else:
        detail = "no strict degree"
        failures.append(f"no degree k with sum h_bc + h_a > 2 b_k on Iwasawa: {sums}")
    dd = coh.ddbar_conditions(s)
    if bool(strict) != (not all(dd["holds"].values())):
        failures.append(
            f"strict degrees {[k for k, _, _ in strict]} disagree with the "
            f"del-delbar conditions {dd['holds']}"
        )
    conclude(3, f"Iwasawa published tables, defect identity, total-degree strictness, {detail}", failures)


def test_criterion_4_kernel_coincidence():
    failures = []
    for (name, mname), s in SETTINGS.items():
        for b in bidegrees(s.n):
            if not kernel_coincidence(s, b):
                failures.append(f"{name}/{mname} at {b}")
    conclude(4, "kernel coincidence of the BC and A Laplacian triples", failures)


def test_criterion_5_duality():
    failures = []
    for (name, mname), s in SETTINGS.items():
        for b in bidegrees(s.n):
            res = duality_residuals(s, b)
            for key, ok in res.items():
                if not ok:
                    failures.append(f"{name}/{mname} {key} at {b}")
    for name in MODELS:
        s = SETTINGS[(name, "id")]
        tables = coh.all_tables(s)
        n = s.n
        for p, q in bidegrees(n):
            if tables["bc"][p][q] != tables["a"][n - q][n - p]:
                failures.append(f"{name} table duality at {(p, q)}")
    conclude(5, "star duality of Laplacians and tables", failures)


def test_criterion_6_decompositions():
    failures = []
    for (name, mname), s in SETTINGS.items():
        for b in bidegrees(s.n):
            rep = verify_hodge_decomposition(s, b)
            for side in ("bc", "a"):
                r = rep[side]
                if not r["orthogonal"]:
                    failures.append(f"{name}/{mname} {side} orthogonality at {b}")
                if not r["sum_matches"] or r["ambient_dim"] != dim_pq(s.n, *b):
                    failures.append(f"{name}/{mname} {side} dimension sum at {b}")
                if not r["kernel_identity"]:
                    failures.append(f"{name}/{mname} {side} kernel identity at {b}")
    conclude(6, "three-part orthogonal decompositions", failures)


def test_criterion_7_kahler_suite():
    failures = []
    for name in ("torus1", "torus2"):
        for mname in ("id", "diag2"):
            s = SETTINGS[(name, mname)]
            rep = kahler_identities(s)
            for key, ok in rep.items():
                if not ok:
                    failures.append(f"{name}/{mname} {key}")
            dd = coh.ddbar_conditions(s)
            if not all(dd["holds"].values()):
                failures.append(f"{name}/{mname} del-delbar conditions")
    conclude(7, "Kahler suite on torus models", failures)


IWASAWA_ABC_TARGETS = ((1, 1), (2, 1), (2, 2))


def test_criterion_8_sequences_and_full_complex():
    failures = []
    for (name, mname), s in SETTINGS.items():
        rep = coh.exact_sequence_reports(s)
        if not rep["all_exact"]:
            failures.append(f"{name}/{mname} sequences")
        for b, res in rep["per_bidegree"].items():
            if res["seq1"]["alternating_sum"] != 0 or res["seq2"]["alternating_sum"] != 0:
                failures.append(f"{name}/{mname} alternating sum at {b}")
    for name in MODELS:
        s = SETTINGS[(name, "id")]
        fc = coh.full_abc_complex(s, (1, 1))
        if fc.euler_spaces != fc.euler_h:
            failures.append(f"{name} Euler identity at (1,1)")
    s = SETTINGS[("iwasawa", "id")]
    tables = coh.all_tables(s)
    for target in IWASAWA_ABC_TARGETS:
        fc = coh.full_abc_complex(s, target)
        p, q = target
        if fc.node_bc != tables["bc"][p][q]:
            failures.append(f"iwasawa node_bc at {target}")
        if fc.node_a != tables["a"][p - 1][q - 1]:
            failures.append(f"iwasawa node_a at {target}")
        if fc.euler_spaces != fc.euler_h:
            failures.append(f"iwasawa Euler at {target}")
        if fc.h != fc.harmonic_dims:
            failures.append(f"iwasawa harmonic mismatch at {target}")
    conclude(8, "exact sequences and the full corner complex", failures)


def test_criterion_9_covering_suite():
    failures = []
    spec = CoveringSpec(n=1, base=((1, 0), (0, 1)), sub=((2, 0), (0, 1)), radius=Fraction(1))
    fc = build_cover(spec)
    if fc.index != 2:
        failures.append("|Gamma| != 2")
    # Gamma-dimension is rank/|Gamma| for every harmonic space, the rank of
    # its per-mode bases placed in one block-diagonal matrix
    kinds = {
        "del": LaplacianKind.DEL,
        "delbar": LaplacianKind.DELBAR,
        "bc": LaplacianKind.BC,
        "a": LaplacianKind.A,
    }
    for tname, kind in kinds.items():
        for b in bidegrees(1):
            K = fc.mode_kernels(kind, b)
            if gamma_dimension(fc, K) != Fraction(Mat.block_diag(K).rank(), 2):
                failures.append(f"gamma dim of {tname} at {b}")
    rep = gamma_tables(fc)
    if rep.grids["deRham"][1] != 1:
        failures.append("b^1_Gamma != 1")
    for p, q in bidegrees(1):
        if rep.grids["bc"][p][q] != Fraction(dim_pq(1, p, q), 2):
            failures.append(f"h_bc_Gamma at {(p, q)}")
    gd, gdb = rep.gaps["d"], rep.gaps["delbar"]
    if gd is None or gdb is None or abs(gdb - gd / 2) > 1e-9 * gd:
        failures.append("gap(lap_delbar) != gap(lap_d)/2")
    if not rep.equality_everywhere or not rep.inequality_ok:
        failures.append("covering inequality is not an equality")
    mi = metric_independence_check(build_cover(spec, Mat.identity(1)), Mat([[QQi(2)]], ncols=1))
    if not (mi["gamma_dims_agree"] and mi["cross_projection_full_rank"] and mi["sampled_ratios_within_bound"]):
        failures.append("metric independence for H in {1, 2}")
    conclude(9, "index-2 covering suite", failures)


def test_criterion_10_cross_backend():
    failures = []
    for name in MODELS:
        s = SETTINGS[(name, "id")]
        numeric = NumericSetting(s)
        for b in bidegrees(s.n):
            bundle = LaplacianBundle.build(s, numeric, b)
            failures.extend(bundle.crosscheck())
            for kind in ALL_KINDS:
                if bundle.gaps[kind] is None:
                    continue
                rep = verify_gap_inequality(s, numeric, kind, b, samples=1000, seed=DEFAULT_SEED)
                if not rep["ok"]:
                    failures.append(f"{name} Rayleigh bound for {kind.value} at {b}")
    conclude(10, "cross-backend kernels and Rayleigh gap bounds", failures)
