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

Aeppli is the dual of Bott-Chern: one code path assembles both families,
and Aeppli exchanges the maps leaving A^{p,q} with those entering it, so
every T* T with a T T*.

All are Gram-self-adjoint and positive semidefinite, each a sum of Gram-PSD
terms T* T (a square S^2 = S* S included), so its kernel is the common
kernel of its factors T: that of the maps THEORY_OPS lists for its theory,
those leaving the space and the adjoints of those entering it.  So the three
Bott-Chern kinds share one kernel, as do the three Aeppli kinds, and
`harmonic_space` cuts it out of those maps with `linalg.common_kernel`, once
per theory, with no adjoint and no Laplacian.  A matrix's row space is the
annihilator of its kernel and its RREF is unique, so `Mat.nullspace` gives
the same bits for every matrix with that kernel, each Laplacian included.
The numeric backend takes each kind's own spectrum, whose zero multiplicity
is cross-checked against the theory's exact kernel.

In finite dimension every operator is bounded with closed image, so the
closed-image characterisation of a spectral gap holds automatically and only
the Rayleigh-quotient form is sampled; likewise minimal and maximal closed
extensions coincide, so no domain bookkeeping appears anywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np

from abch.complexes import Bidegree, Op, Space, d_between
from abch.linalg import Mat, common_kernel
from abch.model import ModelError
from abch.setting import ExactSetting, NumericSetting, add_ops, compose

TOL_ABS = 1e-12
TOL_REL = 1e-9
# bound on ||S - S^H||_F / ||S||_F for a Gram-symmetrised operator S
HERMITIAN_TOL = 1e-9
# the sampling seed and the sample count of each sampled check on a cover
DEFAULT_SEED = 271828
DEFAULT_SAMPLES = 200
# 50x the default: a draw is 16 bytes x rows x samples, and a cover's spaces
# have at most 9 rows (n <= 3), so one draw stays under 1.5 MB
MAX_SAMPLES = 10_000


def tol_rel() -> float:
    """ABCH_TOL_REL, or TOL_REL when it is unset; a value that is not a
    finite float >= 0 is an input error."""
    env = os.environ.get("ABCH_TOL_REL")
    try:
        tol = float(env) if env else TOL_REL
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:  # nan fails both comparisons
        raise ModelError(f"ABCH_TOL_REL must be a finite number >= 0, not {env[:20]!r}")
    return tol


class EigSolverFailure(Exception):
    """LAPACK failed to diagonalise a Gram-symmetrised operator."""


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

# the theory of each kind: the cohomology its kernel is the harmonic space of
THEORY_OF = {kind: "deRham" if kind is LaplacianKind.D else kind.value.split("_")[0] for kind in LaplacianKind}

# the differentials leaving and entering A^{p,q} (A^k for de Rham) that
# define each cohomology: ker of the leaving ones over im of the entering ones
THEORY_OPS = {
    "deRham": (("d",), ("d",)),
    "del": (("del",), ("del",)),
    "delbar": (("delbar",), ("delbar",)),
    "bc": (("del", "delbar"), ("deldbar",)),
    "a": (("deldbar",), ("del", "delbar")),
}


def _acts_on(kind: LaplacianKind, b: Bidegree):
    return sum(b) if kind is LaplacianKind.D else b  # lap_d acts on the whole total degree


def _pair(setting, name: str, b: Bidegree, leaving: bool) -> Tuple[Op, Op]:
    """The map T named `name` leaving A^b as (T*, T), the factors of T* T, or
    the one entering A^b as (T, T*), the factors of T T*."""
    if leaving:
        return setting.out(name, b, True), setting.out(name, b)
    return setting.into(name, b), setting.into(name, b, True)


def _term(setting, name: str, b, leaving: bool) -> Op:
    """T* T for the map T named `name` leaving A^b, or T T* for the one
    entering it; memoised in the setting, so every kind at a space reads one
    product."""
    return setting.cached(("term", name, b, leaving), lambda: compose(*_pair(setting, name, b, leaving)))


def _sum(setting, names, b, leaving: bool) -> Op:
    """Sum of T* T over the maps T named `names` leaving A^b, or of T T* over
    those entering it; memoised under "down" or "up"."""
    return setting.cached(("down" if leaving else "up", names, b),
                          lambda: add_ops(*[_term(setting, name, b, leaving) for name in names]))


def assemble(setting, kind: LaplacianKind, b: Bidegree) -> Op:
    """Gram-self-adjoint PSD matrix of the requested Laplacian.

    For kind `d` the operator lives on the full degree-(p+q) space; all other
    kinds act on A^{p,q} itself.
    """
    if kind in (LaplacianKind.D, LaplacianKind.DEL, LaplacianKind.DELBAR):
        name, key = kind.value, _acts_on(kind, b)
        return add_ops(_sum(setting, (name,), key, True), _sum(setting, (name,), key, False))
    if kind not in BC_KINDS + A_KINDS:
        raise ValueError(f"unknown kind {kind}")
    # Aeppli is Bott-Chern with every T* T and T T* exchanged
    leaving = kind in BC_KINDS
    second = _sum(setting, ("del", "delbar"), b, leaving)
    if kind in (LaplacianKind.BC_TILDE, LaplacianKind.A_TILDE):
        return add_ops(fourth_order_part(setting, kind, b), second)
    corner = _sum(setting, ("deldbar",), b, not leaving)
    return add_ops(corner, second if kind in (LaplacianKind.BC, LaplacianKind.A) else compose(second, second))


def fourth_order_part(setting, kind: LaplacianKind, b: Bidegree) -> Op:
    """The fourth-order terms of the tilde Laplacians (on Kahler models these
    equal lap_delbar squared): the corner terms P P* and Q* Q and, for each
    ordered pair (x, y) of del and delbar, x* y y* x through A^{b + shift x}
    for bc_tilde and the dual x y* y x* through A^{b - shift x} for a_tilde."""
    if kind not in (LaplacianKind.BC_TILDE, LaplacianKind.A_TILDE):
        raise ValueError("fourth-order part is defined for the tilde kinds only")
    leaving = kind == LaplacianKind.BC_TILDE
    terms = [_sum(setting, ("deldbar",), b, side) for side in (not leaving, leaving)]
    for x, y in (("del", "delbar"), ("delbar", "del")):
        x0, x1 = _pair(setting, x, b, leaving)
        y0, y1 = _pair(setting, y, x0.src[0], not leaving)  # x0 starts at the far end of x
        terms.append(compose(x0, compose(y0, compose(y1, x1))))
    return add_ops(*terms)


def laplacian(setting, kind: LaplacianKind, b: Bidegree) -> Op:
    """The assembled Laplacian of one kind, memoised in the setting per kind
    and space."""
    return setting.cached(("laplacian", kind, _acts_on(kind, b)), lambda: assemble(setting, kind, b))


# -- harmonic spaces (exact) ---------------------------------------------------


def harmonic_space(setting: ExactSetting, kind: LaplacianKind, b: Bidegree) -> Mat:
    """Exact nullspace basis (columns) of every Laplacian of the theory of
    `kind` (module docstring), memoised in the setting per theory and space."""
    return setting.cached(("harmonic", THEORY_OF[kind], _acts_on(kind, b)),
                          lambda: harmonic_characterization(setting, kind, b))


def harmonic_characterization(setting: ExactSetting, kind: LaplacianKind, b: Bidegree) -> Mat:
    """The harmonic space of the theory of `kind` at A^{p,q} (A^{p+q} for
    `d`), the `common_kernel` of the maps THEORY_OPS lists leaving it and of
    the adjoints of those entering it:

    BC kinds:  ker del  ∩ ker delbar ∩ ker (del delbar)*
    A kinds:   ker (del delbar) ∩ ker del* ∩ ker delbar*
    second-order kinds: ker(outgoing) ∩ ker(adjoint of incoming).
    """
    key = _acts_on(kind, b)
    leaving, entering = THEORY_OPS[THEORY_OF[kind]]
    G = setting.gram(setting.out(leaving[0], key).src)
    return common_kernel([setting.out(name, key).mat for name in leaving],
                         [setting.im(name, key) for name in entering], G)


# -- numeric spectra --------------------------------------------------------------


def gram_symmetrize(L: np.ndarray, factor: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A L A^{-1} for the factor pair (A, A^{-1}) = (C^H, (C^H)^{-1}) of the
    Cholesky factor conj(G) = C C^H (`metric.cholesky_factor`).  With
    <u,v> = u^T G conj(v), a Gram-self-adjoint L makes conj(G) L Hermitian,
    so the result S is Hermitian up to rounding; a relative residual
    ||S - S^H||_F above HERMITIAN_TOL is a broken invariant (AssertionError),
    and below it S is averaged with S^H."""
    A, A_inv = factor
    S = A @ L @ A_inv
    residual, size = np.linalg.norm(S - S.conj().T), np.linalg.norm(S)
    if residual > HERMITIAN_TOL * size:
        raise AssertionError(f"Gram-symmetrised operator is not Hermitian: ||S - S^H|| = {residual:.3g}, "
                             f"||S|| = {size:.3g}")
    return 0.5 * (S + S.conj().T)


def spectrum(L: np.ndarray, factor: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sorted eigenvalues of the Gram-symmetrised operator, each of size below
    the zero threshold set to 0; `factor` is the `cholesky_factor` of the Gram
    of L's space.  A Laplacian is positive semidefinite, so an eigenvalue at
    or below -threshold is a broken invariant (AssertionError)."""
    if L.shape[0] == 0:
        return np.zeros(0)
    try:
        ev = np.linalg.eigvalsh(gram_symmetrize(L, factor))
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(str(exc)) from exc
    lam_max = float(ev[-1])
    thresh = TOL_ABS + tol_rel() * max(lam_max, 0.0)
    if ev[0] <= -thresh:
        raise AssertionError(f"Laplacian is not positive semidefinite: eigenvalue {ev[0]:.3g} <= -{thresh:.3g}")
    return np.where(np.abs(ev) < thresh, 0.0, ev)


def zero_multiplicity(ev: np.ndarray) -> int:
    return int(np.count_nonzero(ev == 0.0))


def spectral_gap(ev: np.ndarray) -> Optional[float]:
    """Smallest nonzero eigenvalue, or None when the spectrum is {0} (AllZero)."""
    nz = ev[ev > 0.0]
    return float(nz.min()) if len(nz) else None


def numeric_spectrum(numeric: NumericSetting, kind: LaplacianKind, b: Bidegree) -> np.ndarray:
    """The spectrum of the float Laplacian of one kind, memoised per kind and
    space; the Laplacian is assembled inside that entry's build, and not kept."""
    def build() -> np.ndarray:
        op = assemble(numeric, kind, b)
        return spectrum(op.mat, numeric.metric.gram_factor(op.src))
    return numeric.cached(("spectrum", kind, _acts_on(kind, b)), build)


@dataclass
class LaplacianBundle:
    """All Laplacians at one bidegree with kernels, spectra and gaps."""

    bidegree: Bidegree
    kernels: Dict[LaplacianKind, Mat]
    spectra: Dict[LaplacianKind, np.ndarray]
    gaps: Dict[LaplacianKind, Optional[float]]

    @staticmethod
    def build(setting: ExactSetting, numeric: NumericSetting, b: Bidegree) -> "LaplacianBundle":
        kernels, spectra, gaps = {}, {}, {}
        for kind in ALL_KINDS:
            kernels[kind] = harmonic_space(setting, kind, b)
            spectra[kind] = numeric_spectrum(numeric, kind, b)
            gaps[kind] = spectral_gap(spectra[kind])
        return LaplacianBundle(b, kernels, spectra, gaps)

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


# -- structural identity checks -------------------------------------------------


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
    lap_dbar_blocks = Mat.block_diag([laplacian(setting, LaplacianKind.DELBAR, c).mat for c in src])
    # del del* on A^{p,q-1} and delbar delbar* on A^{p-1,q}
    extra = Mat.block_diag([_sum(setting, (name,), c, False).mat for name, c in zip(("del", "delbar"), src)])
    return (box.mat - (lap_dbar_blocks + extra)).is_zero()
