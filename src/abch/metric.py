"""Hermitian metrics on the bigraded algebra: Gram matrices, volume form,
the C-linear Hodge star and Gram adjoints.

The metric is given by a positive-definite Hermitian matrix H with
H[j][k] = h(phi_j, phi_k) on the (1,0)-coframe.  On monomials the inner
product is the product of two minor determinants,

    h(phi_I ^ phibar_J, phi_K ^ phibar_L) = det(H[I,K]) * det(conj(H)[J,L]),

distinct bidegrees being orthogonal.  In the lexicographic monomial order
the (p,q) Gram is the Kronecker product C_p(H) (x) C_q(conj H) of compound
matrices; the metric memoises the factors C_k(H), k = 0..n, and each
space's block-diagonal Gram built from them.  By Cauchy-Binet C_k(H)^{-1}
= C_k(H^{-1}), so no Gram is ever eliminated.  Each inverse factor is
checked when first built, C_k(H) @ C_k(H^{-1}) == I; a failure raises
AssertionError (exit 1 in the CLI) and stores nothing.  Conjugation is a
ring map and kron has the mixed-product property, so the n + 1 checks
certify every inverse Gram: (C_p(H) (x) conj C_q(H)) (C_p(H^{-1}) (x)
conj C_q(H^{-1})) = I (x) I.  Gram adjoints use the inverse block diagonals.

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

NumericMetric is the float view used for spectra, made once per metric as
`metric.numeric` and shared by every setting over it (every mode of a
cover): to_numpy() of these same cached Grams and inverse Grams, so the
numeric adjoint is the exact formula evaluated in floating point, with no
float Gram, determinant or inversion.  Each space's Gram is converted and
Cholesky-factored once, and the float adjoint conjugates its whole product.
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
    Memo,
    Monomial,
    Op,
    Space,
    basis_index,
    conjugation_perm,
    dim_pq,
    monomial_basis,
    wedge_monomials,
)
from abch.linalg import Mat, ShapeMismatch, compound, gram_adjoint, kron
from abch.model import ModelSyntaxError, parse_coeff, parse_dimension, parse_int, record_once, statements
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


class HermitianMetric(Memo):
    """Exact Hermitian structure for complex dimension n."""

    def __init__(self, n: int, H: Mat):
        super().__init__()
        if H.shape != (n, n):
            raise ShapeMismatch(f"H must be {n}x{n}")
        if H != H.conj_t():
            raise NotHermitian("H is not equal to its conjugate transpose")
        self.n = n
        self.H = H
        for k in range(n + 1):
            # entry [0][0] of the compound C_k(H) is the leading k x k minor
            mk = self._factor(k, False)[0][0, 0]
            if not mk.is_real() or mk.re <= 0:
                raise NotPositiveDefinite(f"leading minor {k} is {mk}")
        # the fundamental form lives on the vector side: its coefficient
        # matrix is the inverse of the conjugated coframe Gram, and
        # vol = omega^n / n! picks up 1/det(H)
        self.omega_matrix = H.conj().inv()
        i_pow = [ONE, I, -ONE, -I][n % 4]
        sign = -ONE if (n * (n - 1) // 2) % 2 == 1 else ONE
        self.vol_coeff: QQi = i_pow * sign / self._factor(n, False)[0][0, 0]

    @property
    def numeric(self) -> "NumericMetric":
        """The one float view of this metric, shared by every setting over it."""
        return self.cached("numeric", lambda: NumericMetric(self))

    # -- Gram matrices ---------------------------------------------------

    def _factor(self, k: int, inverse: bool) -> Tuple[Mat, Mat]:
        """(C_k(M), conj C_k(M)) for M = H, or M = H^{-1} if inverse; each
        inverse factor is checked once, when built: C_k(H) C_k(H^{-1}) == I."""
        def build() -> Tuple[Mat, Mat]:
            C = compound(self.omega_matrix.conj() if inverse else self.H, k)
            if inverse and self._factor(k, False)[0] @ C != Mat.identity(C.nrows):
                raise AssertionError(f"Gram inverse check failed at compound degree {k}")
            return C, C.conj()
        return self.cached(("factor", k, inverse), build)

    def gram(self, b: Bidegree) -> Mat:
        return self.gram_space((b,))

    def gram_space(self, space: Space) -> Mat:
        return self._block_diag(space, False)

    def gram_inv_space(self, space: Space) -> Mat:
        return self._block_diag(space, True)

    def _block_diag(self, space: Space, inverse: bool) -> Mat:
        """The block diagonal of the (inverse) Grams C_p(M) (x) C_q(conj M)
        of `space`, built once from the factors; empty outside 0..n."""
        n = self.n
        return self.cached(("gram", space, inverse), lambda: Mat.block_diag(
            [kron(self._factor(p, inverse)[0], self._factor(q, inverse)[1])
             for p, q in space if 0 <= p <= n and 0 <= q <= n]))

    # -- fundamental form -----------------------------------------------

    def fundamental_form(self) -> FormVector:
        n = self.n
        idx = basis_index(n, 1, 1)
        coeffs = [ZERO] * dim_pq(n, 1, 1)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                coeffs[idx[Monomial((j,), (k,))]] = I * self.omega_matrix[j - 1, k - 1]
        return FormVector(n, (1, 1), tuple(coeffs))

    # -- Hodge star --------------------------------------------------------

    def star(self, b: Bidegree) -> Op:
        """The C-linear star A^{a,b} -> A^{n-b,n-a}."""
        def build() -> Mat:
            n = self.n
            a, bb = b
            perm, conj_sign = conjugation_perm(n, a, bb)
            ks, signs = _pairing(n, bb, a)
            # solve W sigma = conj_sign * vol_coeff * G[:, perm[j]] for each
            # column j, with W the signed permutation: row ks[i] of the star
            # is signs[i] * conj_sign * vol_coeff times row i of G[:, perm]
            G = self.gram((bb, a)).transpose().take_rows(perm).transpose()
            at = {k: i for i, k in enumerate(ks)}
            pos = G.take_rows([at[k] if signs[at[k]] > 0 else None for k in range(len(ks))])
            neg = G.take_rows([at[k] if signs[at[k]] < 0 else None for k in range(len(ks))])
            return (pos - neg).scale(self.vol_coeff * conj_sign)
        return Op(src=(b,), dst=((self.n - b[1], self.n - b[0]),), mat=self.cached(("star", b), build))

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
    return HermitianMetric(n, Mat.from_entries(n, n, {(i, i): QQi(e) for i, e in enumerate(entries)}))


def is_kahler(comp: BigradedComplex, metric: HermitianMetric) -> bool:
    """Exact test that the fundamental form is d-closed."""
    omega = metric.fundamental_form()
    v = list(omega.coeffs)
    return all(c.is_zero() for name in ("del", "delbar") for c in comp.map(name, (1, 1)).matvec(v))


# -- metric files -------------------------------------------------------------

_HENTRY_RE = re.compile(r"^H\[([0-9]+)\]\[([0-9]+)\]$")


def parse_metric(text: str) -> Tuple[int, Mat]:
    """Parse a `.herm` file: `n = <int>` (at most MAX_N) then
    `H[i][j] = <coeff>` for i <= j; omitted entries default to the identity."""
    n: Optional[int] = None
    entries: Dict[Tuple[int, int], QQi] = {}
    seen: set = set()
    for lineno, lhs, rhs in statements(text):
        if lhs == "n":
            record_once(seen, lhs, lineno)
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
        record_once(seen, f"H[{i}][{j}]", lineno)
        entries[(i, j)] = parse_coeff(rhs, lineno, 1)
    if n is None:
        raise ModelSyntaxError("missing `n = <int>`", 0, 0)
    cells = {(i, i): ONE for i in range(n)}
    for (i, j), c in entries.items():
        cells[(i - 1, j - 1)] = c
        cells[(j - 1, i - 1)] = c.conj()
    return n, Mat.from_entries(n, n, cells)


def load_metric(path: str) -> Tuple[int, Mat]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_metric(fh.read())


# -- numeric view ---------------------------------------------------------------


def cholesky_factor(G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(A, A^{-1}) for A = C^H and the Cholesky factor conj(G) = C C^H of a
    positive-definite Hermitian Gram G: the transposed Cholesky factor of G."""
    A = np.linalg.cholesky(G).T
    return A, np.linalg.inv(A)


class NumericMetric(Memo):
    """Float view of a HermitianMetric, made once per metric as
    `metric.numeric`: its exact Grams and inverse Grams, each converted to
    numpy once and never conjugated, and each Gram's `cholesky_factor`, taken
    once per space.  No Gram is built or inverted in floating point, and H
    needs no float checks: it was certified exactly when it was made."""

    def __init__(self, metric: HermitianMetric):
        super().__init__()
        self.exact = metric
        self.n = metric.n

    def _view(self, space: Space, inverse: bool) -> np.ndarray:
        """to_numpy() of gram_space(space), or of gram_inv_space(space) if inverse."""
        return self.cached(("view", space, inverse), lambda: (
            self.exact.gram_inv_space(space) if inverse else self.exact.gram_space(space)).to_numpy())

    def gram(self, b: Bidegree) -> np.ndarray:
        return self._view((b,), False)

    def gram_space(self, space: Space) -> np.ndarray:
        return self._view(space, False)

    def gram_factor(self, space: Space) -> Tuple[np.ndarray, np.ndarray]:
        """`cholesky_factor` of the Gram of `space`, computed once."""
        return self.cached(("cholesky", space), lambda: cholesky_factor(self._view(space, False)))

    def adjoint(self, op: Op) -> Op:
        return Op(src=op.dst, dst=op.src, mat=self.adjoint_mat(op.mat, op.src, op.dst))

    def adjoint_mat(self, T: np.ndarray, src: Space, dst: Space) -> np.ndarray:
        """conj(G_src)^{-1} T^H conj(G_dst) as gram_adjoint computes it, conjugated as a whole."""
        return (self._view(src, True) @ T.T @ self._view(dst, False)).conj()
