"""Hermitian metrics on the bigraded algebra: Gram matrices, volume form,
the C-linear Hodge star and Gram adjoints.

The metric is given by a positive-definite Hermitian matrix H with
H[j][k] = h(phi_j, phi_k) on the (1,0)-coframe.  On monomials the inner
product is the product of two minor determinants,

    h(phi_I ^ phibar_J, phi_K ^ phibar_L) = det(H[I,K]) * det(conj(H)[J,L]),

distinct bidegrees being orthogonal.  In the lexicographic monomial order
the (p,q) Gram is the Kronecker product C_p(H) (x) C_q(conj H) of compound
matrices, so each minor is computed once per index pair and shared by every
entry and bidegree that uses it.  By Cauchy-Binet C_p(H)^{-1} = C_p(H^{-1}),
so the inverse Gram is the same construction applied to H^{-1}: no Gram is
ever eliminated.  Each inverse is checked exactly against its Gram,
gram(b) @ gram_inv(b) == I, once per bidegree; a failed check is an
AssertionError, which the CLI reports as a verification failure.  Gram
adjoints take the block-diagonal of these cached inverses.

The fundamental form lives on the vector side,
omega = i * sum_jk ((conj H)^{-1})_jk phi_j ^ phibar_k, and
vol = omega^n / n! fixes vol_coeff = i^n (-1)^{n(n-1)/2} / det(H) on the
canonical top monomial.  (conj H)^{-1} is the one exact inversion a metric
makes; its conjugate is H^{-1}.

The star on A^{a,b} -> A^{n-b,n-a} is solved column-by-column from its
defining equation  alpha ^ *(conj beta) = h(alpha, beta) vol; the wedge
pairing with the complementary bidegree is a signed permutation, so the
solve is exact.  Gram adjoints are the primary notion of formal adjoint;
the star formulas -*delbar* and -*del* are verified against them in tests
rather than trusted.

NumericMetric is the float view used for spectra: to_numpy() of these same
cached Grams and inverse Grams, so the numeric adjoint is the exact formula
evaluated in floating point, with no float Gram, determinant or inversion.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from abch.complexes import (
    Bidegree,
    BigradedComplex,
    FormVector,
    Monomial,
    Op,
    Space,
    basis_index,
    dim_pq,
    monomial_basis,
    wedge_monomials,
)
from abch.linalg import Mat, ShapeMismatch, compound, gram_adjoint, kron
from abch.model import ModelSyntaxError, parse_coeff, parse_dimension, parse_int
from abch.scalars import QQi, ONE, ZERO, I


class NotHermitian(Exception):
    """H differs from its conjugate transpose."""


class NotPositiveDefinite(Exception):
    """Some leading principal minor of H is not positive."""


class SingularPairing(Exception):
    """Internal inconsistency: the wedge pairing with the complementary
    bidegree failed to be a signed permutation."""


# -- shared combinatorics ----------------------------------------------------


@lru_cache(maxsize=None)
def _conj_perm(n: int, a: int, b: int) -> Tuple[Tuple[int, ...], int]:
    """Permutation J -> index of (anti, hol) in the (b,a)-basis, and the
    reordering sign (-1)^{ab}."""
    idx = basis_index(n, b, a)
    perm = tuple(idx[Monomial(m.anti, m.hol)] for m in monomial_basis(n, a, b))
    sign = -1 if (a * b) % 2 == 1 else 1
    return perm, sign


@lru_cache(maxsize=None)
def _pairing(n: int, c: int, d: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """For alpha_I in A^{c,d}: the unique K with alpha_I ^ tau_K = +-Top and
    the sign; returns (K-per-I, sign-per-I)."""
    target = monomial_basis(n, n - c, n - d)
    tidx = {m: k for k, m in enumerate(target)}
    ks: List[int] = []
    signs: List[int] = []
    for m in monomial_basis(n, c, d):
        comp = Monomial(
            tuple(sorted(set(range(1, n + 1)) - set(m.hol))),
            tuple(sorted(set(range(1, n + 1)) - set(m.anti))),
        )
        s, top = wedge_monomials(m, comp)
        if s == 0 or top is None:
            raise SingularPairing(f"no complementary monomial for {m}")
        ks.append(tidx[comp])
        signs.append(s)
    return tuple(ks), tuple(signs)


class HermitianMetric:
    """Exact Hermitian structure for complex dimension n."""

    def __init__(self, n: int, H: Mat):
        if H.shape != (n, n):
            raise ShapeMismatch(f"H must be {n}x{n}")
        if H != H.conj_t():
            raise NotHermitian("H is not equal to its conjugate transpose")
        self.n = n
        self.H = H
        # (inverse, k) -> the compound C_k(H), or C_k(H^{-1}) if inverse, and
        # its conjugate; entry [0][0] is the leading k x k minor
        self._compounds: Dict[Tuple[bool, int], Tuple[Mat, Mat]] = {}
        for k in range(1, n + 1):
            mk = self._compound(False, k)[0].rows[0][0]
            if not mk.is_real() or mk.re <= 0:
                raise NotPositiveDefinite(f"leading minor {k} is {mk}")
        # the fundamental form lives on the vector side: its coefficient
        # matrix is the inverse of the conjugated coframe Gram, and
        # vol = omega^n / n! picks up 1/det(H)
        self.omega_matrix = H.conj().inv()
        self._H_inv = self.omega_matrix.conj()
        det = self._compound(False, n)[0].rows[0][0]
        i_pow = [ONE, I, -ONE, -I][n % 4]
        sign = -ONE if (n * (n - 1) // 2) % 2 == 1 else ONE
        self.vol_coeff: QQi = i_pow * sign / det
        self._gram: Dict[Bidegree, Mat] = {}
        self._gram_inv: Dict[Bidegree, Mat] = {}
        self._star: Dict[Bidegree, Mat] = {}

    # -- Gram matrices ---------------------------------------------------

    def _compound(self, inverse: bool, k: int) -> Tuple[Mat, Mat]:
        if (inverse, k) not in self._compounds:
            C = compound(self._H_inv if inverse else self.H, k)
            self._compounds[(inverse, k)] = (C, C.conj())
        return self._compounds[(inverse, k)]

    def _compound_gram(self, b: Bidegree, inverse: bool) -> Mat:
        """C_p(M) (x) C_q(conj M) for M = H, or M = H^{-1} for the inverse."""
        p, q = b
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            return Mat.zeros(0, 0)
        return kron(self._compound(inverse, p)[0], self._compound(inverse, q)[1])

    def gram(self, b: Bidegree) -> Mat:
        if b not in self._gram:
            self._gram[b] = self._compound_gram(b, inverse=False)
        return self._gram[b]

    def gram_inv(self, b: Bidegree) -> Mat:
        """The inverse of gram(b): the Gram of H^{-1} (Cauchy-Binet),
        checked exactly against gram(b) the first time it is built."""
        if b not in self._gram_inv:
            G_inv = self._compound_gram(b, inverse=True)
            if self.gram(b) @ G_inv != Mat.identity(G_inv.nrows):
                raise AssertionError(f"Gram inverse check failed at bidegree {b}")
            self._gram_inv[b] = G_inv
        return self._gram_inv[b]

    def gram_space(self, space: Space) -> Mat:
        return Mat.block_diag([self.gram(b) for b in space]) if space else Mat.zeros(0, 0)

    def gram_inv_space(self, space: Space) -> Mat:
        return Mat.block_diag([self.gram_inv(b) for b in space]) if space else Mat.zeros(0, 0)

    # -- fundamental form -----------------------------------------------

    def fundamental_form(self) -> FormVector:
        n = self.n
        idx = basis_index(n, 1, 1)
        coeffs = [ZERO] * dim_pq(n, 1, 1)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                coeffs[idx[Monomial((j,), (k,))]] = I * self.omega_matrix.rows[j - 1][k - 1]
        return FormVector(n, (1, 1), tuple(coeffs))

    # -- Hodge star --------------------------------------------------------

    def star(self, b: Bidegree) -> Op:
        """The C-linear star A^{a,b} -> A^{n-b,n-a}."""
        if b not in self._star:
            n = self.n
            a, bb = b
            perm, conj_sign = _conj_perm(n, a, bb)
            ks, signs = _pairing(n, bb, a)
            G = self.gram((bb, a))
            rows_out = dim_pq(n, n - bb, n - a)
            M = Mat.zeros(rows_out, dim_pq(n, a, bb))
            for j in range(dim_pq(n, a, bb)):
                jp = perm[j]
                scale = self.vol_coeff if conj_sign == 1 else -self.vol_coeff
                # solve W sigma = scale * G[:, jp] with W the signed permutation
                for i in range(G.nrows):
                    entry = scale * G.rows[i][jp]
                    if not entry.is_zero():
                        s = signs[i]
                        M.rows[ks[i]][j] = entry if s == 1 else -entry
            self._star[b] = M
        src: Space = (b,)
        dst: Space = ((self.n - b[1], self.n - b[0]),)
        return Op(src=src, dst=dst, mat=self._star[b])

    # -- adjoints -----------------------------------------------------------

    def adjoint(self, op: Op) -> Op:
        return Op(
            src=op.dst,
            dst=op.src,
            mat=gram_adjoint(op.mat, self.gram_inv_space(op.src), self.gram_space(op.dst)),
        )


def identity_metric(n: int) -> HermitianMetric:
    return HermitianMetric(n, Mat.identity(n))


def diagonal_metric(entries: Sequence[int]) -> HermitianMetric:
    n = len(entries)
    H = Mat.zeros(n, n)
    for i, e in enumerate(entries):
        H.rows[i][i] = QQi(e)
    return HermitianMetric(n, H)


def build_metric(comp_or_n, H: Mat) -> HermitianMetric:
    """Build and validate the metric; accepts n or a BigradedComplex."""
    n = comp_or_n.n if isinstance(comp_or_n, BigradedComplex) else int(comp_or_n)
    return HermitianMetric(n, H)


def is_kahler(comp: BigradedComplex, metric: HermitianMetric) -> bool:
    """Exact test that the fundamental form is d-closed."""
    omega = metric.fundamental_form()
    v = list(omega.coeffs)
    del_w = comp.del_((1, 1)).matvec(v)
    dbar_w = comp.delbar((1, 1)).matvec(v)
    return all(c.is_zero() for c in del_w) and all(c.is_zero() for c in dbar_w)


# -- metric files -------------------------------------------------------------

_HENTRY_RE = re.compile(r"^H\[([0-9]+)\]\[([0-9]+)\]$")


def parse_metric(text: str) -> Tuple[int, Mat]:
    """Parse a `.herm` file: `n = <int>` (at most MAX_N) then
    `H[i][j] = <coeff>` for i <= j; omitted entries default to the identity."""
    n: Optional[int] = None
    entries: Dict[Tuple[int, int], QQi] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelSyntaxError("statement needs '='", lineno, 1)
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        if lhs == "n":
            n = parse_dimension(rhs, lineno)
            continue
        m = _HENTRY_RE.match(lhs)
        if not m:
            raise ModelSyntaxError(f"bad statement {lhs!r}", lineno, 1)
        if n is None:
            raise ModelSyntaxError("n must be declared first", lineno, 1)
        i, j = parse_int(m.group(1), lineno, 1), parse_int(m.group(2), lineno, 1)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ModelSyntaxError(f"index H[{i}][{j}] outside 1..{n}", lineno, 1)
        if i > j:
            raise ModelSyntaxError("give only the upper triangle i <= j", lineno, 1)
        entries[(i, j)] = parse_coeff(rhs, lineno, 1)
    if n is None:
        raise ModelSyntaxError("missing `n = <int>`", 0, 0)
    H = Mat.identity(n)
    for (i, j), c in entries.items():
        H.rows[i - 1][j - 1] = c
        H.rows[j - 1][i - 1] = c.conj()
    return n, H


def load_metric(path: str) -> Tuple[int, Mat]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric(fh.read())


# -- numeric view ---------------------------------------------------------------


class NumericMetric:
    """Float view of a HermitianMetric: its exact Grams and inverse Grams,
    each converted to numpy once.  Nothing is built or inverted in floating
    point, and H needs no float checks: it was certified exactly when the
    HermitianMetric was made."""

    def __init__(self, metric: HermitianMetric):
        self.exact = metric
        self.n = metric.n
        # (space, inverse) -> to_numpy() of gram_space(space), or of
        # gram_inv_space(space) if inverse
        self._views: Dict[Tuple[Space, bool], np.ndarray] = {}

    def _view(self, space: Space, inverse: bool) -> np.ndarray:
        key = (space, inverse)
        if key not in self._views:
            exact = self.exact.gram_inv_space(space) if inverse else self.exact.gram_space(space)
            self._views[key] = exact.to_numpy()
        return self._views[key]

    def gram(self, b: Bidegree) -> np.ndarray:
        return self._view((b,), False)

    def gram_space(self, space: Space) -> np.ndarray:
        return self._view(space, False)

    def adjoint_mat(self, T: np.ndarray, src: Space, dst: Space) -> np.ndarray:
        """conj(G_src)^{-1} T^H conj(G_dst), as gram_adjoint computes it exactly."""
        return self._view(src, True).conj() @ T.conj().T @ self._view(dst, False).conj()
