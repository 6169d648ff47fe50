"""Finite Galois coverings of flat complex tori via Fourier truncation.

A covering is specified by a base lattice L (columns of an integer 2n x 2n
matrix), a finite-index sublattice L' and a truncation radius R.  The deck
group is Gamma = L/L' with |Gamma| = det(sub)/det(base).  Square-integrable
forms on the covering torus decompose over characters e^{2 pi i <mu, x>}
with mu in the dual lattice of L'; the complex keeps the finitely many modes
with |mu| <= R and on each mode block the differentials act as

    del_mu    = 2 pi i mu^{1,0} ^ .        delbar_mu = 2 pi i mu^{0,1} ^ .

where mu^{1,0} = sum_k ((a_k - i b_k)/2) phi_k for mu = (a_1..a_n, b_1..b_n)
in coordinates z_k = x_k + i y_k, phi_k = dz_k.  Exact matrices store the
reduced twist i mu^{1,0} ^ . (the 2 pi pulled out), which has Gaussian
rational entries; ranks and kernels are scale-invariant, and the numeric
backend restores the factor 2 pi for spectra.  The truncation norm is
|mu|^2 := 4 h(mu^{1,0}, mu^{1,0}), which is the Euclidean norm for H = id.

The L2 inner product is normalised by 1/vol(covering torus), so the Gram of
each mode block is the invariant Gram of the metric.  With this convention
the Gamma-dimension (Atiyah) of a deck-invariant subspace V is dim(V)/|Gamma|:
integrated over the base, each orthonormal vector of V contributes
vol(base)/vol(cover) = 1/|Gamma| to the trace of the projection onto V.  The
code takes V as one basis per mode block, on which Gamma acts by a scalar
character, and returns dim(V)/|Gamma|; it does not evaluate the trace
integral as a second, independent route.

Every L2 harmonic form on the cover is Gamma-invariant, so it lives in the
mode mu = 0, which always passes the radius test; `build_cover` records its
position (`FourierComplex.zero`) and the support checks read the harmonic
spaces each mode's setting memoises.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import pi
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from abch.complexes import Bidegree, BigradedComplex, Monomial, bidegrees, bigraded_maps, grid, total_bidegrees
from abch.laplacians import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    THEORY_KINDS,
    LaplacianKind,
    fourth_order_part,
    harmonic_space,
    laplacian,
    numeric_spectrum,
    prestage_box_check,
    spectral_gap,
    tol_rel,
)
from abch.linalg import Mat, ShapeMismatch, projection_coords
from abch.metric import HermitianMetric, identity_metric
from abch.model import InputTooLarge, ModelSyntaxError, parse_dimension, parse_int, record_once, statements
from abch.scalars import QQi
from abch.setting import ExactSetting, NumericSetting

TWO_PI = 2.0 * pi


class NotASublattice(Exception):
    """sub columns do not generate a finite-index sublattice of base."""


# Limits on `.cover` input: the complex dimension of the torus, the
# truncation radius, and the number of candidate lattice points the mode
# enumeration may scan (it grows like radius^(2n) times the sublattice scale).
# Larger input is refused with InputTooLarge before any mode is built.
MAX_COVER_N = 3
MAX_RADIUS = 4
MAX_MODE_CANDIDATES = 100_000
_RADIUS_RE = re.compile(r"^[0-9]+(?:/[0-9]+|\.[0-9]+)?$")
# `[[a, b], [c, d]]`: one bracketed list of non-empty bracketed integer rows
_ROW = r"\[\s*[+-]?[0-9]+(?:\s*,\s*[+-]?[0-9]+)*\s*\]"
_MATRIX_RE = re.compile(rf"\[\s*{_ROW}(?:\s*,\s*{_ROW})*\s*\]")
# the body of each innermost bracketed row
_ROW_RE = re.compile(r"\[([^\[\]]*)\]")


@dataclass(frozen=True)
class CoveringSpec:
    n: int
    base: Tuple[Tuple[int, ...], ...]
    sub: Tuple[Tuple[int, ...], ...]
    radius: Fraction


def parse_cover(text: str) -> CoveringSpec:
    """Parse a `.cover` file: `n`, `base = [[..]]`, `sub = [[..]]`,
    `radius = <number>`, with n <= MAX_COVER_N and radius <= MAX_RADIUS."""
    n: Optional[int] = None
    mats: Dict[str, Tuple[Tuple[int, ...], ...]] = {}
    radius: Optional[Fraction] = None
    seen: set = set()
    for lineno, lhs, rhs in statements(text):
        record_once(seen, lhs, lineno)  # a bad lhs raises below on its first line
        if lhs == "n":
            n = parse_dimension(rhs, lineno, MAX_COVER_N)
        elif lhs in ("base", "sub"):
            if not _MATRIX_RE.fullmatch(rhs):
                raise ModelSyntaxError(f"bad {lhs} matrix {rhs[:20]!r}", lineno, 1)
            rows = _ROW_RE.findall(rhs)
            mats[lhs] = tuple(tuple(parse_int(x, lineno, 1) for x in row.split(",")) for row in rows)
        elif lhs == "radius":
            radius = _parse_radius(rhs, lineno)
        else:
            raise ModelSyntaxError(f"bad statement {lhs!r}", lineno, 1)
    if n is None or radius is None or "base" not in mats or "sub" not in mats:
        raise ModelSyntaxError("cover file needs n, base, sub and radius", 0, 0)
    for lhs in ("base", "sub"):
        if len(mats[lhs]) != 2 * n or any(len(row) != 2 * n for row in mats[lhs]):
            raise ModelSyntaxError(f"{lhs} must be a {2 * n}x{2 * n} integer matrix", 0, 0)
    return CoveringSpec(n=n, base=mats["base"], sub=mats["sub"], radius=radius)


def _parse_radius(text: str, line: int) -> Fraction:
    """`a`, `a/b` or `a.b`, at most MAX_RADIUS."""
    if _RADIUS_RE.match(text):
        try:
            radius = Fraction(text)
        except (ValueError, ZeroDivisionError):  # too many digits, or a zero denominator
            pass
        else:
            if radius > MAX_RADIUS:
                raise InputTooLarge(f"radius {text[:20]} exceeds the limit {MAX_RADIUS}", line, 1)
            return radius
    raise ModelSyntaxError(f"bad radius {text[:20]!r}", line, 1)


def load_cover(path: str) -> CoveringSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cover(fh.read())


# -- lattice utilities ----------------------------------------------------------


def hermite_normal_form(X: List[List[int]]) -> List[List[int]]:
    """Column-style HNF (lower triangular, positive diagonal) of a
    nonsingular integer matrix; column operations only."""
    n = len(X)
    A = [row[:] for row in X]
    for i in range(n):
        # clear row i to the right of column i by gcd steps
        j = i + 1
        while j < n:
            if A[i][j] != 0:
                if A[i][i] == 0:
                    for r in range(n):
                        A[r][i], A[r][j] = A[r][j], A[r][i]
                    continue
                qd = A[i][j] // A[i][i]
                for r in range(n):
                    A[r][j] -= qd * A[r][i]
                if A[i][j] != 0:
                    for r in range(n):
                        A[r][i], A[r][j] = A[r][j], A[r][i]
                    continue
            j += 1
        if A[i][i] == 0:
            raise NotASublattice("index is not finite")
        if A[i][i] < 0:
            for r in range(n):
                A[r][i] = -A[r][i]
        for j in range(i):
            qd = A[i][j] // A[i][i]
            if qd:
                for r in range(n):
                    A[r][j] -= qd * A[r][i]
    return A


@dataclass
class Mode:
    """One Fourier frequency: integer coordinates m in the dual of the
    sublattice, the rational covector mu, and the reduced twist forms."""

    m: Tuple[int, ...]
    mu: Tuple[Fraction, ...]
    c10: Tuple[QQi, ...]  # coefficients of i mu^{1,0} on phi_k
    c01: Tuple[QQi, ...]  # coefficients of i mu^{0,1} on phibar_k
    norm2: Fraction  # 4 h(mu^{1,0}, mu^{1,0})

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.mu)


class ModeOps(BigradedComplex):
    """Per-mode differentials: left wedge by the reduced twist forms."""

    def __init__(self, n: int, mode: Mode):
        # i mu^{1,0} and i mu^{0,1} as term lists
        xi = {
            "del": [(Monomial((k,), ()), c) for k, c in enumerate(mode.c10, 1) if not c.is_zero()],
            "delbar": [(Monomial((), (k,)), c) for k, c in enumerate(mode.c01, 1) if not c.is_zero()],
        }
        super().__init__(n, bigraded_maps(n, xi, lambda name, m: [(0, name, m)]))
        self.mode = mode


@dataclass
class FourierComplex:
    spec: CoveringSpec
    n: int
    index: int  # |Gamma|
    metric: HermitianMetric
    modes: List[Mode]
    settings: List[ExactSetting]  # reduced-scale exact, one per mode
    zero: int  # position of the mode mu = 0 in `modes`
    numeric: List[NumericSetting] = field(default_factory=list)  # true 2 pi scale

    def mode_count(self) -> int:
        return len(self.modes)

    def mode_kernels(self, kind: LaplacianKind, b: Bidegree) -> List[Mat]:
        """Harmonic space of one Laplacian kind in each mode, in mode order
        (each memoised in its mode's setting)."""
        return [harmonic_space(st, kind, b) for st in self.settings]

    def zero_mode_kernel(self, kind: LaplacianKind, b: Bidegree) -> Optional[Mat]:
        """The zero mode's harmonic space of one kind, in that mode's
        coordinates; None when another mode has harmonic forms too."""
        kernels = self.mode_kernels(kind, b)
        if any(K.ncols for i, K in enumerate(kernels) if i != self.zero):
            return None
        return kernels[self.zero]


def build_cover(spec: CoveringSpec, H: Optional[Mat] = None) -> FourierComplex:
    """Enumerate the truncated mode set and assemble per-mode complexes.

    The metric must be exact (Gaussian rational); it defaults to the
    identity.  Mode inclusion |mu| <= R is decided exactly.
    """
    n = spec.n
    two_n = 2 * n
    metric = HermitianMetric(n, H) if H is not None else identity_metric(n)

    B = Mat([[QQi(x) for x in row] for row in spec.base])
    S = Mat([[QQi(x) for x in row] for row in spec.sub])
    detB, detS = B.det().re, S.det().re  # integer matrices: real determinants
    if detB == 0 or detS == 0:
        raise NotASublattice("lattice matrices must be nonsingular")
    X = B.inv() @ S  # coordinates of the sub generators in the base
    if any(x.re.denominator != 1 for row in X.rows for x in row):
        raise NotASublattice("sub is not contained in base")
    index = abs(detS / detB)
    if index.denominator != 1 or index == 0:
        raise NotASublattice("index is not a positive integer")
    index = int(index)
    # cross-check the deck-group order against the coset count of the
    # Hermite form of the coordinate matrix
    hnf = hermite_normal_form([[int(x.re) for x in row] for row in X.rows])
    coset_count = math.prod(hnf[i][i] for i in range(two_n))
    if coset_count != index:
        raise AssertionError(f"coset count {coset_count} != index {index}")

    # rows of S^{-T}, as rationals
    SinvT = [[x.re for x in row] for row in S.inv().transpose().rows]

    def mu_of(m: Sequence[int]) -> Tuple[Fraction, ...]:
        # mu = S^{-T} m
        return tuple(sum(a * mj for a, mj in zip(row, m)) for row in SinvT)

    def twist_coeffs(mu: Sequence[Fraction]):
        a, bvec = mu[:n], mu[n:]
        c10 = tuple(QQi(Fraction(bk, 2), Fraction(ak, 2)) for ak, bk in zip(a, bvec))
        c01 = tuple(QQi(Fraction(-bk, 2), Fraction(ak, 2)) for ak, bk in zip(a, bvec))
        return c10, c01

    # |mu|^2 = 4 h(mu^{1,0}, mu^{1,0}) is mu^T Qr mu for the real symmetric
    # form Qr = [[Re H, -Im H], [Im H, Re H]] (H is Hermitian)
    Hrows = metric.H.rows
    Qr = [[h.re for h in row] + [-h.im for h in row] for row in Hrows]
    Qr += [[h.im for h in row] + [h.re for h in row] for row in Hrows]

    # box bound from the smallest eigenvalue of the real quadratic form
    lam_min = float(np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in Qr])).min())
    R = spec.radius
    bound = float(R) / np.sqrt(lam_min)
    S_np = S.to_numpy().real
    box = [int(np.ceil(np.linalg.norm(S_np[:, i]) * bound + 1e-9)) for i in range(two_n)]

    candidates = math.prod(2 * bi + 1 for bi in box)
    if candidates > MAX_MODE_CANDIDATES:
        raise InputTooLarge(f"{candidates} candidate modes exceed the limit {MAX_MODE_CANDIDATES}")
    R2 = R * R
    modes: List[Mode] = []
    for m in itertools.product(*[range(-bi, bi + 1) for bi in box]):
        mu = mu_of(m)
        nz = [(i, x) for i, x in enumerate(mu) if x]
        q2 = sum((x * y * Qr[i][j] for i, x in nz for j, y in nz), Fraction(0))
        if q2 <= R2:
            c10, c01 = twist_coeffs(mu)
            modes.append(Mode(m=tuple(m), mu=mu, c10=c10, c01=c01, norm2=q2))
    modes.sort(key=lambda md: md.m)
    mset = {md.m for md in modes}
    if any(tuple(-x for x in md.m) not in mset for md in modes):
        raise AssertionError("mode set is not closed under negation")

    settings = [ExactSetting(ModeOps(n, md), metric) for md in modes]
    numeric = [NumericSetting(st, scale=TWO_PI) for st in settings]
    zero = next(i for i, md in enumerate(modes) if md.is_zero)
    return FourierComplex(
        spec=spec, n=n, index=index, metric=metric, modes=modes, settings=settings, zero=zero, numeric=numeric
    )


# -- Gamma-dimension ------------------------------------------------------------


def gamma_dimension(fourier: FourierComplex, bases: Sequence[Mat]) -> Fraction:
    """Von Neumann dimension dim(V)/|Gamma| of the subspace V spanned by one
    basis per mode, in mode order (each a `nullspace`, so its column count is
    its rank).  V is deck-invariant by construction: the deck group acts on
    the mode block of mu by the scalar character of mu, so it maps each
    block's part of V onto itself.  The Gamma-trace of the orthogonal
    projection onto V is rank(V)/|Gamma|, because the L2 product is
    normalised by the volume of the covering torus.
    """
    if len(bases) != fourier.mode_count():
        raise ShapeMismatch("gamma_dimension needs one basis per mode")
    return Fraction(sum(B.ncols for B in bases), fourier.index)


# -- Gamma tables and verification reports -----------------------------------------


@dataclass
class GammaReport:
    index: int
    grids: Dict[str, object]  # per-theory Gamma-dimension grids (Fractions)
    gaps: Dict[str, object]
    inequality_ok: bool
    equality_everywhere: bool
    monotonicity_ok: bool
    harmonic_support_ok: bool
    kahler_gaps_ok: bool  # lap_del = lap_delbar = lap_d / 2 on the gaps


def gamma_tables(fourier: FourierComplex) -> GammaReport:
    n = fourier.n
    grids: Dict[str, object] = {}
    support_ok = True
    for name, kind in THEORY_KINDS.items():
        grids[name] = grid(n, lambda b: gamma_dimension(fourier, fourier.mode_kernels(kind, b)))
        support_ok = support_ok and all(fourier.zero_mode_kernel(kind, b) is not None for b in bidegrees(n))
    betti = []
    for k in range(2 * n + 1):
        b = total_bidegrees(n, k)[0]
        betti.append(gamma_dimension(fourier, fourier.mode_kernels(LaplacianKind.D, b)))
        support_ok = support_ok and fourier.zero_mode_kernel(LaplacianKind.D, b) is not None
    grids["deRham"] = betti

    sides = [(grids["del"][p][q] + grids["delbar"][p][q], grids["a"][p][q] + grids["bc"][p][q])
             for p, q in bidegrees(n)]
    ineq_ok = all(lhs <= rhs for lhs, rhs in sides)
    eq_all = all(lhs == rhs for lhs, rhs in sides)

    # monotonicity on nested invariant pairs: the delbar harmonics (their grid) inside ker delbar
    mono_ok = True
    for b in bidegrees(n):
        if grids["delbar"][b[0]][b[1]] > gamma_dimension(fourier, [st.ker("delbar", b) for st in fourier.settings]):
            mono_ok = False

    gaps, kahler_ok = gap_table(fourier)
    return GammaReport(
        index=fourier.index,
        grids=grids,
        gaps=gaps,
        inequality_ok=ineq_ok,
        equality_everywhere=eq_all,
        monotonicity_ok=mono_ok,
        harmonic_support_ok=support_ok,
        kahler_gaps_ok=kahler_ok,
    )


def _least_gaps(fourier: FourierComplex, kind: LaplacianKind) -> Dict[Bidegree, Optional[float]]:
    """Each bidegree's smallest spectral gap of `kind` over the modes, read
    from the memoised spectra (lap_d at (p, q) acts on degree p + q); None
    where every mode's spectrum is {0}."""
    least = {}
    for b in bidegrees(fourier.n):
        found = [spectral_gap(numeric_spectrum(st, kind, b)) for st in fourier.numeric]
        least[b] = min((g for g in found if g is not None), default=None)
    return least


def _kahler_gaps_agree(n: int, least: Dict[str, Dict[Bidegree, Optional[float]]]) -> bool:
    """The Kahler identities lap_del = lap_delbar = lap_d / 2, which hold on
    every mode of a flat torus with a constant metric, read on the least
    gaps: at each bidegree the del and delbar gaps agree, and the degree-k d
    gap is twice the least delbar gap over p + q = k (to relative tol_rel)."""
    tol = tol_rel()

    def agree(x: Optional[float], y: Optional[float]) -> bool:
        if x is None or y is None:
            return x is y
        return abs(x - y) <= tol * max(abs(x), abs(y))

    if not all(agree(least["del"][b], g) for b, g in least["delbar"].items()):
        return False
    for k in range(2 * n + 1):
        space = total_bidegrees(n, k)
        g = min((least["delbar"][b] for b in space if least["delbar"][b] is not None), default=None)
        if not agree(least["d"][space[0]], None if g is None else 2 * g):
            return False
    return True


def gap_table(fourier: FourierComplex) -> Tuple[Dict[str, object], bool]:
    """Global spectral gaps (over all bidegrees and modes) of the second
    order Laplacians, plus per-bidegree delbar gaps; and whether those gaps
    satisfy the Kahler identities (`_kahler_gaps_agree`)."""
    kinds = (LaplacianKind.D, LaplacianKind.DEL, LaplacianKind.DELBAR)
    least = {kind.value: _least_gaps(fourier, kind) for kind in kinds}
    gaps: Dict[str, object] = {k: min((g for g in per.values() if g is not None), default=None) for k, per in least.items()}
    gaps["per_bidegree_delbar"] = {f"delbar@{b}": g for b, g in least["delbar"].items()}
    return gaps, _kahler_gaps_agree(fourier.n, least)


def metric_independence_check(fc1: FourierComplex, H2: Mat, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> dict:
    """Gamma-dimensions of the Bott-Chern and Aeppli harmonic spaces must
    agree for the metric of `fc1` and a second invariant metric H2 on the
    same cover; also exhibits the quasi-isometry constant, checks it against
    `samples` ratios of the two metrics drawn from random.Random(seed), and
    checks the cross-projection between the two harmonic spaces has full
    rank.  A harmonic form outside the zero mode of either cover raises
    AssertionError."""
    H1 = fc1.metric.H
    fc2 = build_cover(fc1.spec, H2)
    n = fc1.n
    agree = True
    cross_full_rank = True
    for kind in (LaplacianKind.BC, LaplacianKind.A):
        for b in bidegrees(n):
            if gamma_dimension(fc1, fc1.mode_kernels(kind, b)) != gamma_dimension(fc2, fc2.mode_kernels(kind, b)):
                agree = False
            # cross projection: harmonics live in the zero mode of both
            # complexes, so compare there with the second metric
            k1, k2 = fc1.zero_mode_kernel(kind, b), fc2.zero_mode_kernel(kind, b)
            if k1 is None or k2 is None:
                raise AssertionError("harmonic basis not supported in the zero mode")
            if k2.ncols:
                M = projection_coords(k1, k2, fc2.metric.gram(b))
                if M.rank() != min(k1.ncols, k2.ncols):
                    cross_full_rank = False
            elif k1.ncols:
                cross_full_rank = False

    # quasi-isometry constant on the coframe metric
    H1n, H2n = H1.to_numpy(), H2.to_numpy()
    # H2 = L L^H (fc2 certified it positive definite): H1 x = lam H2 x <=> (L^-1 H1 L^-H) y = lam y, y = L^H x
    L = np.linalg.cholesky(H2n)
    lam = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, H1n).conj().T))
    C = max(float(lam.max()), 1.0 / float(lam.min()))
    V = _samples(random.Random(seed), n, samples)
    r = np.real(np.sum(V.conj() * (H1n @ V), axis=0)) / np.real(np.sum(V.conj() * (H2n @ V), axis=0))
    ratios_ok = bool(np.all((1.0 / C - 1e-9 <= r) & (r <= C + 1e-9)))
    return {
        "gamma_dims_agree": agree,
        "cross_projection_full_rank": cross_full_rank,
        "quasi_isometry_constant": C,
        "sampled_ratios_within_bound": ratios_ok,
    }


def _samples(rng: random.Random, rows: int, cols: int) -> np.ndarray:
    """rows x cols complex samples, drawn in one call, whose real and
    imaginary parts are uniform on the 53-bit grid of [-1, 1).  Every sampled
    inequality in this module is homogeneous and holds for all vectors, so
    the samples need only full support, not a particular law."""
    u = np.frombuffer(rng.randbytes(16 * rows * cols), dtype="<u8")
    x = ((u >> 11) * 2.0 ** -52 - 1.0).reshape(2, rows, cols)
    return x[0] + 1j * x[1]


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of each column of X."""
    return np.linalg.norm(X, axis=0) ** 2


def gap_and_closed_image(fourier: FourierComplex, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED) -> dict:
    """Quantitative closed-image bounds on the cover.

    Per bidegree: gap(lap_delbar) > 0 on the nonzero modes; the bound
    C |theta|^2 <= |del delbar theta|^2 with C = gap(tilde_A fourth-order
    part) = gap(lap_delbar)^2, sampled over theta in im((del delbar)*); and
    the two-operator bound of the spectral-gap characterisation for the
    Dolbeault complex.  Both are sampled in each mode's orthonormal
    coordinates (`NumericSetting`), where the norms are Euclidean.  Also checks
    the exact matrix identities tilde_BC_4 = tilde_A_4 = lap_delbar^2
    (reduced scale; both sides are fourth order so the scale cancels).
    """
    n = fourier.n
    rng = random.Random(seed)
    report: Dict[str, object] = {"bidegrees": {}}
    tilde4_ok = True
    prestage_ok = True
    for st in fourier.settings:
        for b in bidegrees(n):
            lapd = laplacian(st, LaplacianKind.DELBAR, b)
            t_bc4 = fourth_order_part(st, LaplacianKind.BC_TILDE, b)
            t_a4 = fourth_order_part(st, LaplacianKind.A_TILDE, b)
            sq = lapd.mat @ lapd.mat
            if not (t_bc4.mat - sq).is_zero() or not (t_a4.mat - sq).is_zero():
                tilde4_ok = False
            if not prestage_box_check(st, b):
                prestage_ok = False
    report["tilde4_equals_delbar_squared"] = tilde4_ok
    report["prestage_box_identity"] = prestage_ok

    all_ok = True
    for b, gap_db in _least_gaps(fourier, LaplacianKind.DELBAR).items():
        if gap_db is None:
            report["bidegrees"][str(b)] = {"gap_delbar": None, "vacuous": True}
            continue
        quantitative_ok = True
        two_op_ok = True
        kernels = fourier.mode_kernels(LaplacianKind.DELBAR, b)
        for nst, K in zip(fourier.numeric, kernels):
            # lap_delbar per mode, in orthonormal coordinates: its spectral gap
            g = spectral_gap(numeric_spectrum(nst, LaplacianKind.DELBAR, b))
            if g is None:
                continue
            # theta = T^H y samples im((del delbar)*), T the del delbar leaving b
            T = nst.out("deldbar", b).mat
            if T.shape[0]:
                theta = T.conj().T @ _samples(rng, T.shape[0], samples)
                lhs, rhs = _sq_norms(theta), _sq_norms(T @ theta)
                if not np.all(g * g * lhs <= rhs + 1e-9 * np.maximum(rhs, 1.0)):
                    quantitative_ok = False
            # two-operator bound: g|x|^2 <= |P* x|^2 + |Q x|^2 on (ker)^perp,
            # x projected off the whitened kernel by an orthonormal basis of it
            P_adj, Q = nst.into("delbar", b, True).mat, nst.out("delbar", b).mat
            X = _samples(rng, Q.shape[1], samples)
            if K.ncols:
                basis = np.linalg.qr(nst.metric.gram_factor((b,))[0] @ K.to_numpy())[0]
                X = X - basis @ (basis.conj().T @ X)
            norm2 = _sq_norms(X)
            val = _sq_norms(P_adj @ X) + _sq_norms(Q @ X)
            keep = norm2 > 1e-18
            if not np.all(g * norm2[keep] <= val[keep] + 1e-9 * np.maximum(val[keep], 1.0)):
                two_op_ok = False
        report["bidegrees"][str(b)] = {
            "gap_delbar": gap_db,
            "vacuous": False,
            "quantitative_bound_ok": quantitative_ok,
            "two_operator_bound_ok": two_op_ok,
        }
        if not (quantitative_ok and two_op_ok):
            all_ok = False
    report["all_ok"] = all_ok and tilde4_ok and prestage_ok
    return report
