"""Checks of abch's identities that only the tests run.

Each function is an exact (or, for `verify_gap_inequality`, sampled)
statement of the theory that no CLI command needs: the Laplacian duality
under the Hodge star, kernel coincidences, the Kahler identities, the
three-part Hodge decompositions, the stacked-vs-separate kernel and image
identities, the del-delbar conditions as equalities of subspaces (the route
`cohomology.ddbar_conditions` took before it counted ranks), the stacked
`d` map of one bidegree, the Gram inner product
of two coefficient vectors and the Gram norms and projections that the
sampled Rayleigh bound reads in the original coordinates.  `render_json`
is the reference JSON report: `json.dumps` with a `default` that maps each
report object to its JSON value.  They live here, not in `src/abch`, so
the package holds only what its commands reach; the tests import them
from this module.
"""

import json
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import numpy as np

from abch.cohomology import CONDITION_NAMES, _witness
from abch.complexes import Bidegree, BigradedComplex, Op, bidegrees, d_between, total_bidegrees
from abch.laplacians import (
    ALL_KINDS,
    DEFAULT_SEED,
    LaplacianKind,
    _sum,
    assemble,
    harmonic_characterization,
    harmonic_space,
    numeric_spectrum,
    spectral_gap,
)
from abch.linalg import (
    Mat,
    intersect_many,
    span_basis,
    subspace_dim,
    subspace_eq,
    subspace_intersect,
    subspace_sum,
)
from abch.reporting import MATRIX_SCHEMA
from abch.scalars import ONE, QQi, ZERO
from abch.setting import ExactSetting, NumericSetting, add_ops, compose


# -- Gram inner product and the stacked d (linalg, complexes) ------------------


def ip(u: Sequence[QQi], v: Sequence[QQi], G: Mat) -> QQi:
    Gv = G.matvec([x.conj() for x in v])
    s = ZERO
    for a, b in zip(u, Gv):
        if not a.is_zero() and not b.is_zero():
            s = s + a * b
    return s


def d_operator(comp: BigradedComplex, b: Bidegree) -> Op:
    """d = del + delbar as the stacked block map
    A^{p,q} -> A^{p+1,q} (+) A^{p,q+1}."""
    p, q = b
    return d_between(comp, (b,), ((p + 1, q), (p, q + 1)))


# -- spectral-gap Rayleigh bound (laplacians) ---------------------------------


def project_off_kernel(X: np.ndarray, K: np.ndarray, G: np.ndarray) -> np.ndarray:
    """The columns of X minus their Gram projections onto the span of the
    columns of K, i.e. onto the orthogonal complement of that span."""
    if not K.shape[1]:
        return X
    B = K.T @ G @ np.conj(K)  # B[l,j] = <k_l, k_j>, with <u,v> = u^T G conj(v)
    rhs = (X.T @ G @ np.conj(K)).T  # rhs[j, sample] = <x, k_j>
    return X - K @ np.linalg.solve(B.T, rhs)


def gram_norms(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Re <x, x> = Re x^T G conj(x) for each column x of X."""
    return np.real(np.einsum("ij,ij->j", X, G @ np.conj(X)))


def rayleigh_check(
    L: np.ndarray,
    G: np.ndarray,
    kernel: np.ndarray,
    gap: float,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
) -> Tuple[float, bool]:
    """Sample Rayleigh quotients on the orthogonal complement of the kernel:
    <x, Lx> >= gap <x, x> must hold there.  Returns (min quotient, ok)."""
    dim = L.shape[0]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dim, samples)) + 1j * rng.standard_normal((dim, samples))
    X = project_off_kernel(X, kernel, G)
    # quotients Re<Lx,x> / Re<x,x>
    num = np.real(np.einsum("ij,ij->j", L @ X, G @ np.conj(X)))
    den = gram_norms(X, G)
    keep = den > 1e-20
    quot = num[keep] / den[keep]
    mn = float(quot.min()) if len(quot) else float("inf")
    return mn, bool(mn >= gap - 1e-9 * max(1.0, gap))


def verify_gap_inequality(
    setting: ExactSetting,
    numeric: NumericSetting,
    kind: LaplacianKind,
    b: Bidegree,
    samples: int = 1000,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Spectral-gap Rayleigh bound on (ker)^perp for one operator: the gap of
    the numeric spectrum, taken in orthonormal coordinates, against Rayleigh
    quotients of the exact Laplacian in the original coordinates, with the
    exact Gram, so that a wrong whitening factor shows."""
    gap = spectral_gap(numeric_spectrum(numeric, kind, b))
    if gap is None:
        return {"kind": kind.value, "bidegree": b, "gap": None, "vacuous": True, "ok": True}
    op = assemble(setting, kind, b)
    kernel = harmonic_space(setting, kind, b).to_numpy()
    mn, ok = rayleigh_check(op.mat.to_numpy(), setting.gram(op.src).to_numpy(), kernel, gap,
                            samples=samples, seed=seed)
    return {
        "kind": kind.value,
        "bidegree": b,
        "gap": gap,
        "min_rayleigh": mn,
        "samples": samples,
        "vacuous": False,
        "ok": ok,
    }


# -- structural identity checks (laplacians) ----------------------------------


def duality_residuals(setting, b: Bidegree) -> Dict[str, bool]:
    """star lap_A = lap_BC star (and tilde/box pairs) at bidegree b:
    star_{(p,q)} after the A-kind at (p,q) equals the BC-kind at
    (n-q, n-p) after star."""
    n = setting.n
    p, q = b
    star = setting.metric.star(b)
    out = {}
    pairs = [
        (LaplacianKind.A, LaplacianKind.BC),
        (LaplacianKind.A_TILDE, LaplacianKind.BC_TILDE),
        (LaplacianKind.A_BOX, LaplacianKind.BC_BOX),
        (LaplacianKind.BC, LaplacianKind.A),
        (LaplacianKind.BC_TILDE, LaplacianKind.A_TILDE),
        (LaplacianKind.BC_BOX, LaplacianKind.A_BOX),
    ]
    for src_kind, dst_kind in pairs:
        lhs = star.mat @ assemble(setting, src_kind, b).mat
        rhs = assemble(setting, dst_kind, (n - q, n - p)).mat @ star.mat
        out[f"star_{src_kind.value}_eq_{dst_kind.value}_star"] = (lhs - rhs).is_zero()
    return out


def kernel_coincidence(setting: ExactSetting, b: Bidegree) -> bool:
    """ker lap_BC = ker tilde_BC = ker box_BC and the Aeppli triple, and each
    of the nine kinds' kernels is its theory's harmonic space, as exact
    subspace equalities.  The independent side is the kernel of each kind's
    own assembled Laplacian, which no command builds; the other is the
    theory's memoised `harmonic_space` and a fresh
    `harmonic_characterization`, both the common kernel of the THEORY_OPS
    maps."""
    for kind in ALL_KINDS:
        own = span_basis(assemble(setting, kind, b).mat.nullspace())
        if own != span_basis(harmonic_space(setting, kind, b)):
            return False
        if own != span_basis(harmonic_characterization(setting, kind, b)):
            return False
    return True


def kahler_identities(setting: ExactSetting) -> Dict[str, bool]:
    """On Kahler models: lap_d = 2 lap_del = 2 lap_delbar blockwise on every
    total degree, the two anticommutators vanish, tilde_BC collapses to
    lap_delbar^2 + del* del + delbar* delbar, and all nine harmonic spaces
    coincide bidegree-wise."""
    n = setting.n
    ok_factor = True
    ok_anti = True
    ok_tilde = True
    ok_kernels = True
    for k in range(0, 2 * n + 1):
        space = total_bidegrees(n, k)
        lap_d = assemble(setting, LaplacianKind.D, space[0] if space else (0, k)).mat
        blocks_del = Mat.block_diag([assemble(setting, LaplacianKind.DEL, b).mat for b in space])
        blocks_dbar = Mat.block_diag([assemble(setting, LaplacianKind.DELBAR, b).mat for b in space])
        if not (lap_d - blocks_del.scale(2)).is_zero() or not (lap_d - blocks_dbar.scale(2)).is_zero():
            ok_factor = False
    for p in range(n + 1):
        for q in range(n + 1):
            b = (p, q)
            adj = setting.adjoint
            dl, db = setting.out("del", b), setting.out("delbar", b)
            dbs = adj(setting.into("delbar", b))  # delbar*: (p,q) -> (p,q-1)
            a1 = add_ops(
                compose(setting.out("del", dbs.dst[0]), dbs),
                compose(adj(setting.into("delbar", dl.dst[0])), dl),
            )
            if not a1.mat.is_zero():
                ok_anti = False
            dls = adj(setting.into("del", b))  # del*: (p,q) -> (p-1,q)
            a2 = add_ops(
                compose(setting.out("delbar", dls.dst[0]), dls),
                compose(adj(setting.into("del", db.dst[0])), db),
            )
            if not a2.mat.is_zero():
                ok_anti = False
            lap_dbar = assemble(setting, LaplacianKind.DELBAR, b)
            tilde = assemble(setting, LaplacianKind.BC_TILDE, b)
            concise = add_ops(compose(lap_dbar, lap_dbar), _sum(setting, ("del", "delbar"), b, True))
            if not (tilde.mat - concise.mat).is_zero():
                ok_tilde = False
            kernels = [harmonic_space(setting, kind, b) for kind in ALL_KINDS if kind is not LaplacianKind.D]
            base = kernels[0]
            for kmat in kernels[1:]:
                if not subspace_eq(base, kmat):
                    ok_kernels = False
    return {
        "factor_two": ok_factor,
        "anticommutators_zero": ok_anti,
        "tilde_bc_concise": ok_tilde,
        "harmonic_spaces_coincide": ok_kernels,
    }


def box_kernel_intersection(setting: ExactSetting, b: Bidegree) -> bool:
    """ker box_BC equals ker(delbar* del*) ∩ ker(del* del + delbar* delbar):
    the kernel of a sum of P_j* P_j is the intersection of the ker P_j."""
    P1 = setting.into("deldbar", b, True)
    P2 = _sum(setting, ("del", "delbar"), b, True)
    box = assemble(setting, LaplacianKind.BC_BOX, b)
    lhs = box.mat.nullspace()
    rhs = intersect_many([P1.mat.nullspace(), P2.mat.nullspace()])
    return subspace_eq(lhs, rhs)


# -- orthogonal decompositions and stacked identities (cohomology) ------------


def verify_hodge_decomposition(setting: ExactSetting, b: Bidegree) -> Dict[str, dict]:
    """Three-part orthogonal decompositions at (p,q):

      A^{p,q} = H_BC  (+)  im(del delbar)  (+)  (im del* + im delbar*)
      A^{p,q} = H_A   (+)  (im del + im delbar)  (+)  im (del delbar)*

    with exactly-zero cross Grams, dimension sums, and the kernel identities
      ker(del (+) delbar) = H_BC (+) im del delbar,
      ker(del delbar)     = H_A  (+) (im del + im delbar).
    """
    ker, im = setting.ker, setting.im
    G = setting.gram((b,))
    out = {}
    h_bc = harmonic_space(setting, LaplacianKind.BC, b)
    part2 = im("deldbar", b)
    part3 = subspace_sum(im("del", b, True), im("delbar", b, True))
    stacked = Mat.vstack([setting.out("del", b).mat, setting.out("delbar", b).mat])
    out["bc"] = _decomposition_report(
        setting, b, G, [h_bc, part2, part3], kernel=stacked.nullspace(), kernel_parts=[h_bc, part2]
    )
    h_a = harmonic_space(setting, LaplacianKind.A, b)
    parts_a2 = subspace_sum(im("del", b), im("delbar", b))
    parts_a3 = im("deldbar", b, True)
    out["a"] = _decomposition_report(
        setting, b, G, [h_a, parts_a2, parts_a3], kernel=ker("deldbar", b), kernel_parts=[h_a, parts_a2]
    )
    return out


def _decomposition_report(setting, b, G, parts, kernel, kernel_parts) -> dict:
    dims = [subspace_dim(p) for p in parts]
    orth = all(
        (parts[i].transpose() @ G @ parts[j].conj()).is_zero() for i in range(3) for j in range(i + 1, 3)
    )
    total = setting.dim(b)
    kernel_ok = subspace_eq(kernel, subspace_sum(*kernel_parts))
    return {
        "dims": dims,
        "orthogonal": orth,
        "sum_matches": sum(dims) == total,
        "ambient_dim": total,
        "kernel_identity": kernel_ok,
    }


def stack_identities(setting: ExactSetting) -> bool:
    """ker(del stacked with delbar) = ker del ∩ ker delbar and
    im(del joined with delbar) = im del + im delbar, at every bidegree."""
    n, ker, im = setting.n, setting.ker, setting.im
    for p in range(n + 1):
        for q in range(n + 1):
            b = (p, q)
            stacked = Mat.vstack([setting.out("del", b).mat, setting.out("delbar", b).mat])
            if not subspace_eq(stacked.nullspace(), subspace_intersect(ker("del", b), ker("delbar", b))):
                return False
            joined = Mat.hstack([setting.into("del", b).mat, setting.into("delbar", b).mat])
            if not subspace_eq(joined.column_space(), subspace_sum(im("del", b), im("delbar", b))):
                return False
    return True


# -- the del-delbar conditions as subspace equalities (cohomology) -------------


def ddbar_sides(setting: ExactSetting, b: Bidegree) -> Dict[str, Tuple[Mat, Mat]]:
    """The two sides (left, right) of conditions a..e at b as canonical
    bases: im del delbar against kk ∩ im_d, ker del ∩ im delbar and
    kk ∩ (im del + im delbar), ker del delbar against im del + im delbar + kk
    and ker del + im delbar, with kk = ker del ∩ ker delbar (one nullspace
    of del and delbar stacked) and im_d = im d ∩ A^{p,q}."""
    ker, im = setting.ker, setting.im
    kk = Mat.vstack([setting.out("del", b).mat, setting.out("delbar", b).mat]).nullspace()
    sums = subspace_sum(im("del", b), im("delbar", b))
    im_dd, ker_dd = span_basis(im("deldbar", b)), span_basis(ker("deldbar", b))
    # im d ∩ A^{p,q}: the image of d into degree p+q met with the coordinate
    # subspace of A^{p,q}, which sits in d's target in total_bidegrees order
    space = total_bidegrees(setting.n, sum(b))
    start, N = sum(setting.dim(c) for c in space[: space.index(b)]), setting.dim(b)
    D = d_between(setting.ops, total_bidegrees(setting.n, sum(b) - 1), space).mat
    E = Mat.from_entries(D.nrows, N, {(start + i, i): ONE for i in range(N)})
    im_d = span_basis(subspace_intersect(D.column_space(), E).take_rows(range(start, start + N)))
    return {
        "a": (im_dd, subspace_intersect(kk, im_d)),
        "b": (im_dd, subspace_intersect(ker("del", b), im("delbar", b))),
        "c": (im_dd, subspace_intersect(kk, sums)),
        "d": (ker_dd, subspace_sum(sums, kk)),
        "e": (ker_dd, subspace_sum(ker("del", b), im("delbar", b))),
    }


def ddbar_by_subspaces(setting: ExactSetting) -> dict:
    """`cohomology.ddbar_conditions` by subspace equality: each condition is
    tested by comparing the canonical bases of its two sides at every
    bidegree, with the witness of the first failure taken as
    `_witness(b, small, big)`, small inside big.  Also returns
    `dims[b][name] = (dim left, dim right)`."""
    holds = {name: True for name in CONDITION_NAMES}
    witnesses: Dict[str, dict] = {}
    dims = {}
    for b in bidegrees(setting.n):
        sides = ddbar_sides(setting, b)
        dims[b] = {name: (lhs.ncols, rhs.ncols) for name, (lhs, rhs) in sides.items()}
        for name, (lhs, rhs) in sides.items():
            if lhs != rhs:
                holds[name] = False
                small_big = (lhs, rhs) if name in "abc" else (rhs, setting.ker("deldbar", b))
                if name not in witnesses and (w := _witness(b, *small_big)):
                    witnesses[name] = w
    holds["f"] = holds["d"]
    if "d" in witnesses:
        witnesses["f"] = witnesses["d"]
    return {"holds": holds, "all_agree": len(set(holds.values())) == 1, "witnesses": witnesses, "dims": dims}


# -- the reference JSON report (reporting) -------------------------------------


def _encode(obj):
    """JSON value of a report object that `json` cannot encode itself: a
    Fraction, or a matrix through its `QQi` entries."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Mat):
        return {
            "schema": MATRIX_SCHEMA,
            "rows": obj.nrows,
            "cols": obj.ncols,
            "entries": [
                [x.re.numerator, x.re.denominator, x.im.numerator, x.im.denominator]
                for row in obj.rows
                for x in row
            ],
        }
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_encode) + "\n"
