"""Hermitian metrics on the bigraded algebra: Gram matrices, volume form,
the C-linear Hodge star and Gram adjoints.

The metric is given by a positive-definite Hermitian matrix H with
H[j][k] = h(phi_j, phi_k) on the (1,0)-coframe.  Construction certifies it
from the n leading principal minors, the pivots of one fraction-free
elimination (`linalg.leading_minors`), and builds nothing else: the
compound factors below and (conj H)^{-1} are made on first use, so a
command that reads no Gram, star or fundamental form makes none.  On
monomials the inner product is the product of two minor determinants,

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
vol = omega^n / n! fixes vol_coeff = i^n (-1)^{n(n-1)/2} / det(H)
= i^{n^2} / det(H) on the canonical top monomial, det(H) being the last
leading minor.  (conj H)^{-1} is the one exact inversion a metric makes;
its conjugate is H^{-1}.

The star on A^{a,b} -> A^{n-b,n-a} is solved column-by-column from its
defining equation  alpha ^ *(conj beta) = h(alpha, beta) vol; the wedge
pairing with the complementary bidegree is a signed permutation, so the
solve is exact.  Gram adjoints are the primary notion of formal adjoint;
the star formulas -*delbar* and -*del* are verified against them in tests
rather than trusted.

NumericMetric is the float view used for spectra, made once per metric as
`metric.numeric` and shared by every setting over it (every mode of a
cover): to_numpy() of these same cached Grams, each factored once per
non-empty space as A^H A = conj(G), with A checked to HERMITIAN_TOL.  A
numeric setting writes each map T in orthonormal coordinates, A_dst T
A_src^{-1}, so the float adjoint is the conjugate transpose, with no float
inverse Gram, determinant or adjoint product.
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
from abch.linalg import Mat, ShapeMismatch, compound, gram_adjoint, kron, leading_minors
from abch.model import ModelSyntaxError, parse_coeff, parse_dimension, parse_int, record_once, statements
from abch.scalars import QQi, ONE, ZERO, I

# bound on ||A^H A - conj(G)|| / ||G|| for the whitening factor A of a float
# Gram G, and on ||L - L^H|| / ||L|| for a whitened Laplacian L (Frobenius)
HERMITIAN_TOL = 1e-9


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
        minors = leading_minors(H)
        for k, mk in enumerate(minors, 1):
            if not mk.is_real() or mk.re <= 0:
                raise NotPositiveDefinite(f"leading minor {k} is {mk}")
        # vol = omega^n / n! picks up 1/det(H), the last leading minor, and
        # i^n (-1)^{n(n-1)/2} = i^{n^2}, which is i for odd n and 1 for even
        inv_det = 1 / minors[-1].re if n else 1
        self.vol_coeff: QQi = QQi(0, inv_det) if n % 2 else QQi(inv_det)

    @property
    def omega_matrix(self) -> Mat:
        """The fundamental form lives on the vector side: its coefficient
        matrix is the inverse of the conjugated coframe Gram, built on first
        use."""
        return self.cached("omega", lambda: self.H.conj().inv())

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
    positive-definite Hermitian Gram G: the transposed Cholesky factor of G.
    A residual A^H A - conj(G) above HERMITIAN_TOL is a broken invariant
    (AssertionError, exit 1 in the CLI)."""
    A = np.linalg.cholesky(G).T
    residual, size = np.linalg.norm(A.conj().T @ A - G.conj()), np.linalg.norm(G)
    if residual > HERMITIAN_TOL * size:
        raise AssertionError(f"Gram whitening factor is wrong: ||A^H A - conj(G)|| = {residual:.3g}, ||G|| = {size:.3g}")
    return A, np.linalg.inv(A)


class NumericMetric(Memo):
    """Float view of a HermitianMetric, made once per metric as
    `metric.numeric`: its exact Grams, each converted to numpy once and never
    conjugated, and each Gram's checked `cholesky_factor`, taken once per
    non-empty space.  No Gram is built or inverted in floating point, and H
    needs no float checks: it was certified exactly when it was made."""

    def __init__(self, metric: HermitianMetric):
        super().__init__()
        self.exact = metric
        self.n = metric.n

    def _view(self, space: Space) -> np.ndarray:
        """to_numpy() of gram_space(space)."""
        return self.cached(("view", space), lambda: self.exact.gram_space(space).to_numpy())

    def gram(self, b: Bidegree) -> np.ndarray:
        return self._view((b,))

    def gram_space(self, space: Space) -> np.ndarray:
        return self._view(space)

    def gram_factor(self, space: Space) -> Tuple[np.ndarray, np.ndarray]:
        """The whitening pair (A, A^{-1}) of `space`, the `cholesky_factor` of
        its Gram, computed once; the empty spaces at the range ends keep
        their 0 x 0 Gram as both, unfactored."""
        def build() -> Tuple[np.ndarray, np.ndarray]:
            G = self._view(space)
            return cholesky_factor(G) if G.size else (G, G)
        return self.cached(("cholesky", space), build)

    def adjoint(self, op: Op) -> Op:
        return Op(src=op.dst, dst=op.src, mat=self.adjoint_mat(op.mat, op.src, op.dst))

    def adjoint_mat(self, T: np.ndarray, src: Space, dst: Space) -> np.ndarray:
        """The adjoint of a map T: src -> dst written in orthonormal
        coordinates (`NumericSetting`), its conjugate transpose."""
        return T.conj().T
