"""Assembly of the nine Laplacians, harmonic spaces, spectra and gaps.

At a bidegree (p,q) the second-order Laplacians are

    lap_d      = d d* + d* d                      (on the whole degree p+q)
    lap_del    = del del* + del* del
    lap_delbar = delbar delbar* + delbar* delbar

and the Bott-Chern / Aeppli family (P = del delbar into (p,q),
Q = del delbar out of (p,q)):

    lap_bc  = P P* + del* del + delbar* delbar
    box_bc  = P P* + (del* del + delbar* delbar)^2
    tilde_bc = P P* + Q* Q + del* delbar delbar* del
               + delbar* del del* delbar + del* del + delbar* delbar
    lap_a   = Q* Q + del del* + delbar delbar*
    box_a   = Q* Q + (del del* + delbar delbar*)^2
    tilde_a = Q* Q + P P* + del delbar* delbar del*
              + delbar del* del delbar* + del del* + delbar delbar*

All are Gram-self-adjoint and positive semidefinite.  Kernel dimensions are
taken from the exact backend; the numeric backend computes spectra of the
Gram-symmetrised operator and its zero-multiplicity is cross-checked against
the exact kernel.

In finite dimension every operator is bounded with closed image, so the
closed-image characterisation of a spectral gap holds automatically and only
the Rayleigh-quotient form is sampled; likewise minimal and maximal closed
extensions coincide, so no domain bookkeeping appears anywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg

from abch.complexes import Bidegree, Op, Space, d_between, total_bidegrees
from abch.linalg import Mat, intersect_many, subspace_eq
from abch.setting import ExactSetting, NumericSetting, add_ops, compose

TOL_ABS = 1e-12
TOL_REL = 1e-9
DEFAULT_SEED = 271828


def tol_rel() -> float:
    env = os.environ.get("ABCH_TOL_REL")
    return float(env) if env else TOL_REL


class EigSolverFailure(Exception):
    """scipy failed to diagonalise a Gram-symmetrised operator."""


class LaplacianKind(str, Enum):
    D = "d"
    DEL = "del"
    DELBAR = "delbar"
    BC = "bc"
    BC_TILDE = "bc_tilde"
    BC_BOX = "bc_box"
    A = "a"
    A_TILDE = "a_tilde"
    A_BOX = "a_box"


ALL_KINDS = tuple(LaplacianKind)
BC_KINDS = (LaplacianKind.BC, LaplacianKind.BC_TILDE, LaplacianKind.BC_BOX)
A_KINDS = (LaplacianKind.A, LaplacianKind.A_TILDE, LaplacianKind.A_BOX)


# the Laplacian whose kernel realises each bigraded cohomology
THEORY_KINDS = {
    "del": LaplacianKind.DEL,
    "delbar": LaplacianKind.DELBAR,
    "bc": LaplacianKind.BC,
    "a": LaplacianKind.A,
}


def _sq(op: Op) -> Op:
    return compose(op, op)


def _second_down(setting, b: Bidegree) -> Op:
    """del* del + delbar* delbar on A^{p,q}."""
    adj = setting.adjoint
    dl_out, db_out = setting.del_op(b), setting.delbar_op(b)
    return add_ops(compose(adj(dl_out), dl_out), compose(adj(db_out), db_out))


def _second_up(setting, b: Bidegree) -> Op:
    """del del* + delbar delbar* on A^{p,q}."""
    p, q = b
    adj = setting.adjoint
    dl_in, db_in = setting.del_op((p - 1, q)), setting.delbar_op((p, q - 1))
    return add_ops(compose(dl_in, adj(dl_in)), compose(db_in, adj(db_in)))


def assemble(setting, kind: LaplacianKind, b: Bidegree) -> Op:
    """Gram-self-adjoint PSD matrix of the requested Laplacian.

    For kind `d` the operator lives on the full degree-(p+q) space; all other
    kinds act on A^{p,q} itself.
    """
    p, q = b
    adj = setting.adjoint
    if kind is LaplacianKind.D:
        k = p + q
        d_out = setting.total_d(k)
        d_in = setting.total_d(k - 1)
        return add_ops(compose(adj(d_out), d_out), compose(d_in, adj(d_in)))
    if kind is LaplacianKind.DEL:
        dl_out, dl_in = setting.del_op(b), setting.del_op((p - 1, q))
        return add_ops(compose(adj(dl_out), dl_out), compose(dl_in, adj(dl_in)))
    if kind is LaplacianKind.DELBAR:
        db_out, db_in = setting.delbar_op(b), setting.delbar_op((p, q - 1))
        return add_ops(compose(adj(db_out), db_out), compose(db_in, adj(db_in)))
    if kind in BC_KINDS:
        second_down = _second_down(setting, b)
        if kind is LaplacianKind.BC_TILDE:
            return add_ops(fourth_order_part(setting, kind, b), second_down)
        P = setting.deldbar_op((p - 1, q - 1))  # into (p,q)
        PPs = compose(P, adj(P))
        return add_ops(PPs, second_down if kind is LaplacianKind.BC else _sq(second_down))
    if kind in A_KINDS:
        second_up = _second_up(setting, b)
        if kind is LaplacianKind.A_TILDE:
            return add_ops(fourth_order_part(setting, kind, b), second_up)
        Q = setting.deldbar_op(b)  # out of (p,q)
        QsQ = compose(adj(Q), Q)
        return add_ops(QsQ, second_up if kind is LaplacianKind.A else _sq(second_up))
    raise ValueError(f"unknown kind {kind}")


def fourth_order_part(setting, kind: LaplacianKind, b: Bidegree) -> Op:
    """The fourth-order terms of the tilde Laplacians (on Kahler models these
    equal lap_delbar squared)."""
    p, q = b
    adj = setting.adjoint
    P = setting.deldbar_op((p - 1, q - 1))
    Q = setting.deldbar_op(b)
    PPs = compose(P, adj(P))
    QsQ = compose(adj(Q), Q)
    if kind is LaplacianKind.BC_TILDE:
        dl_out, db_out = setting.del_op(b), setting.delbar_op(b)
        # del* delbar delbar* del : through (p+1,q) and (p+1,q-1)
        db_mid = setting.delbar_op((p + 1, q - 1))
        r1 = compose(adj(dl_out), compose(db_mid, compose(adj(db_mid), dl_out)))
        # delbar* del del* delbar : through (p,q+1) and (p-1,q+1)
        dl_mid = setting.del_op((p - 1, q + 1))
        r2 = compose(adj(db_out), compose(dl_mid, compose(adj(dl_mid), db_out)))
        return add_ops(PPs, QsQ, r1, r2)
    if kind is LaplacianKind.A_TILDE:
        dl_in, db_in = setting.del_op((p - 1, q)), setting.delbar_op((p, q - 1))
        # del delbar* delbar del* : through (p-1,q) and (p-1,q+1)
        db_mid = setting.delbar_op((p - 1, q))
        s1 = compose(dl_in, compose(adj(db_mid), compose(db_mid, adj(dl_in))))
        # delbar del* del delbar* : through (p,q-1) and (p+1,q-1)
        dl_mid = setting.del_op((p, q - 1))
        s2 = compose(db_in, compose(adj(dl_mid), compose(dl_mid, adj(db_in))))
        return add_ops(QsQ, PPs, s1, s2)
    raise ValueError("fourth-order part is defined for the tilde kinds only")


# -- harmonic spaces (exact) ---------------------------------------------------


def harmonic_space(setting: ExactSetting, kind: LaplacianKind, b: Bidegree) -> Mat:
    """Exact nullspace basis of the assembled Laplacian (columns)."""
    return assemble(setting, kind, b).mat.nullspace()


def harmonic_characterization(setting: ExactSetting, kind: LaplacianKind, b: Bidegree) -> Mat:
    """The independent kernel characterisation:

    BC kinds:  ker del  ∩ ker delbar ∩ ker (del delbar)*
    A kinds:   ker (del delbar) ∩ ker del* ∩ ker delbar*
    second-order kinds: ker(outgoing) ∩ ker(adjoint of incoming).
    """
    p, q = b
    adj = setting.adjoint
    if kind in BC_KINDS:
        P = setting.deldbar_op((p - 1, q - 1))
        stacked = Mat.vstack([setting.del_op(b).mat, setting.delbar_op(b).mat, adj(P).mat])
        return stacked.nullspace()
    if kind in A_KINDS:
        Q = setting.deldbar_op(b)
        stacked = Mat.vstack(
            [Q.mat, adj(setting.del_op((p - 1, q))).mat, adj(setting.delbar_op((p, q - 1))).mat]
        )
        return stacked.nullspace()
    if kind is LaplacianKind.DEL:
        return Mat.vstack([setting.del_op(b).mat, adj(setting.del_op((p - 1, q))).mat]).nullspace()
    if kind is LaplacianKind.DELBAR:
        return Mat.vstack([setting.delbar_op(b).mat, adj(setting.delbar_op((p, q - 1))).mat]).nullspace()
    if kind is LaplacianKind.D:
        k = p + q
        return Mat.vstack([setting.total_d(k).mat, adj(setting.total_d(k - 1)).mat]).nullspace()
    raise ValueError(kind)


# -- numeric spectra --------------------------------------------------------------


def gram_symmetrize(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """C^H L (C^H)^{-1} for the Cholesky factor conj(G) = C C^H.  With
    <u,v> = u^T G conj(v), a Gram-self-adjoint L makes conj(G) L Hermitian,
    so the result is Hermitian too."""
    if L.shape[0] == 0:
        return L
    C = np.linalg.cholesky(G.conj())
    A = C.conj().T
    S = A @ L @ np.linalg.inv(A)
    return 0.5 * (S + S.conj().T)


def spectrum(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the Gram-symmetrised operator, clamped at 0."""
    if L.shape[0] == 0:
        return np.zeros(0)
    try:
        ev = scipy.linalg.eigvalsh(gram_symmetrize(L, G))
    except Exception as exc:  # pragma: no cover - depends on LAPACK failure
        raise EigSolverFailure(str(exc)) from exc
    lam_max = float(ev[-1]) if len(ev) else 0.0
    thresh = TOL_ABS + tol_rel() * max(lam_max, 0.0)
    return np.array([0.0 if abs(x) < thresh else float(x) for x in ev])


def zero_multiplicity(ev: np.ndarray) -> int:
    return int(np.count_nonzero(ev == 0.0))


def spectral_gap(ev: np.ndarray) -> Optional[float]:
    """Smallest nonzero eigenvalue, or None when the spectrum is {0} (AllZero)."""
    nz = ev[ev > 0.0]
    return float(nz.min()) if len(nz) else None


@dataclass
class LaplacianBundle:
    """All Laplacians at one bidegree with kernels, spectra and gaps."""

    bidegree: Bidegree
    matrices: Dict[LaplacianKind, Op]
    kernels: Dict[LaplacianKind, Mat]
    spectra: Dict[LaplacianKind, np.ndarray]
    gaps: Dict[LaplacianKind, Optional[float]]

    @staticmethod
    def build(setting: ExactSetting, numeric: NumericSetting, b: Bidegree) -> "LaplacianBundle":
        matrices, kernels, spectra, gaps = {}, {}, {}, {}
        for kind in ALL_KINDS:
            op = assemble(setting, kind, b)
            matrices[kind] = op
            kernels[kind] = op.mat.nullspace()
            nop = assemble(numeric, kind, b)
            ev = spectrum(nop.mat, numeric.gram(nop.src))
            spectra[kind] = ev
            gaps[kind] = spectral_gap(ev)
        return LaplacianBundle(b, matrices, kernels, spectra, gaps)

    def crosscheck(self) -> List[str]:
        """Exact kernel dimension vs numeric zero multiplicity, per kind."""
        problems = []
        for kind in ALL_KINDS:
            exact_dim = self.kernels[kind].ncols
            numeric_dim = zero_multiplicity(self.spectra[kind])
            if exact_dim != numeric_dim:
                problems.append(
                    f"{kind.value} at {self.bidegree}: exact kernel {exact_dim} != numeric multiplicity {numeric_dim}"
                )
        return problems


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
    LX = L @ X
    GXc = G @ np.conj(X)
    num = np.real(np.einsum("ij,ij->j", LX, GXc))
    den = np.real(np.einsum("ij,ij->j", X, GXc))
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
    """Spectral-gap Rayleigh bound on (ker)^perp for one operator."""
    op = assemble(numeric, kind, b)
    G = numeric.gram(op.src)
    ev = spectrum(op.mat, G)
    gap = spectral_gap(ev)
    if gap is None:
        return {"kind": kind.value, "bidegree": b, "gap": None, "vacuous": True, "ok": True}
    kernel = assemble(setting, kind, b).mat.nullspace().to_numpy()
    mn, ok = rayleigh_check(op.mat, G, kernel, gap, samples=samples, seed=seed)
    return {
        "kind": kind.value,
        "bidegree": b,
        "gap": gap,
        "min_rayleigh": mn,
        "samples": samples,
        "vacuous": False,
        "ok": ok,
    }


# -- structural identity checks -------------------------------------------------


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
    """ker lap_BC = ker tilde_BC = ker box_BC and the Aeppli triple, as exact
    subspace equalities, including the triple-intersection characterisation."""
    for kinds in (BC_KINDS, A_KINDS):
        spaces = [harmonic_space(setting, k, b) for k in kinds]
        char = harmonic_characterization(setting, kinds[0], b)
        for s in spaces:
            if not subspace_eq(s, char):
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
            dl = setting.del_op(b)
            dbs = adj(setting.delbar_op((p, q - 1)))  # delbar*: (p,q) -> (p,q-1)
            a1 = add_ops(
                compose(setting.del_op((p, q - 1)), dbs),
                compose(adj(setting.delbar_op((p + 1, q - 1))), dl),
            )
            if not a1.mat.is_zero():
                ok_anti = False
            dls = adj(setting.del_op((p - 1, q)))  # del*: (p,q) -> (p-1,q)
            a2 = add_ops(
                compose(setting.delbar_op((p - 1, q)), dls),
                compose(adj(setting.del_op((p - 1, q + 1))), setting.delbar_op(b)),
            )
            if not a2.mat.is_zero():
                ok_anti = False
            lap_dbar = assemble(setting, LaplacianKind.DELBAR, b)
            tilde = assemble(setting, LaplacianKind.BC_TILDE, b)
            concise = add_ops(_sq(lap_dbar), _second_down(setting, b))
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
    p, q = b
    adj = setting.adjoint
    P1 = adj(setting.deldbar_op((p - 1, q - 1)))
    P2 = _second_down(setting, b)
    box = assemble(setting, LaplacianKind.BC_BOX, b)
    lhs = box.mat.nullspace()
    rhs = intersect_many([P1.mat.nullspace(), P2.mat.nullspace()])
    return subspace_eq(lhs, rhs)


def prestage_box_check(setting: ExactSetting, b: Bidegree) -> bool:
    """On Kahler models the Laplacian of the stage before (p,q) in the
    Bott-Chern/Aeppli chain equals lap_delbar + (del del*) (+) (delbar delbar*)
    on A^{p,q-1} (+) A^{p-1,q} (matrix identity)."""
    p, q = b
    adj = setting.adjoint
    src: Space = ((p, q - 1), (p - 1, q))
    pre: Space = ((p, q - 2), (p - 1, q - 1), (p - 2, q))
    # D2 = (delbar (+) del): A^{p,q-1} (+) A^{p-1,q} -> A^{p,q}
    D2 = d_between(setting.ops, src, ((p, q),))
    # D1 = (delbar (+) d (+) del) into A^{p,q-1} (+) A^{p-1,q}
    D1 = d_between(setting.ops, pre, src)
    box = add_ops(compose(adj(D2), D2), compose(D1, adj(D1)))
    lap_dbar_blocks = Mat.block_diag(
        [assemble(setting, LaplacianKind.DELBAR, (p, q - 1)).mat, assemble(setting, LaplacianKind.DELBAR, (p - 1, q)).mat]
    )
    # del del* on A^{p,q-1} and delbar delbar* on A^{p-1,q}
    dl1 = setting.del_op((p - 1, q - 1))
    db1 = setting.delbar_op((p - 1, q - 1))
    extra = Mat.block_diag([compose(dl1, adj(dl1)).mat, compose(db1, adj(db1)).mat])
    return (box.mat - (lap_dbar_blocks + extra)).is_zero()
