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
each mode block is the invariant Gram of the metric; with this convention
the Gamma-dimension of an invariant subspace V is computed both from the
defining integral of pointwise norms over the base and as dim(V)/|Gamma|,
and the two must agree exactly.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import pi
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from abch.complexes import (
    Bidegree,
    FormVector,
    Space,
    dim_pq,
    monomial_basis,
    total_bidegrees,
    wedge,
)
from abch.laplacians import (
    THEORY_KINDS,
    LaplacianKind,
    assemble,
    fourth_order_part,
    gram_norms,
    prestage_box_check,
    project_off_kernel,
    spectral_gap,
    spectrum,
)
from abch.linalg import Mat, ShapeMismatch, gram_schmidt, ip as gram_ip, projection_coords, span_basis
from abch.metric import HermitianMetric, identity_metric
from abch.model import InputTooLarge, ModelSyntaxError, parse_dimension, parse_int
from abch.scalars import QQi, ONE, ZERO
from abch.setting import ExactSetting, NumericSetting

TWO_PI = 2.0 * pi


class NotASublattice(Exception):
    """sub columns do not generate a finite-index sublattice of base."""


class EmptyModeSet(Exception):
    """No Fourier mode survived the truncation (cannot happen: 0 is kept)."""


class NotGammaInvariant(Exception):
    """A subspace handed to the Gamma-dimension is not deck-invariant."""


# Limits on `.cover` input: the complex dimension of the torus, the
# truncation radius, and the number of candidate lattice points the mode
# enumeration may scan (it grows like radius^(2n) times the sublattice scale).
# Larger input is refused with InputTooLarge before any mode is built.
MAX_COVER_N = 3
MAX_RADIUS = 4
MAX_MODE_CANDIDATES = 100_000
_RADIUS_RE = re.compile(r"^[0-9]+(?:/[0-9]+|\.[0-9]+)?$")


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelSyntaxError("statement needs '='", lineno, 1)
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        if lhs == "n":
            n = parse_dimension(rhs, lineno, MAX_COVER_N)
        elif lhs in ("base", "sub"):
            rows = re.findall(r"\[([^\[\]]*)\]", rhs)
            mats[lhs] = tuple(tuple(parse_int(x, lineno, 1) for x in row.split(",")) for row in rows if row.strip())
        elif lhs == "radius":
            radius = _parse_radius(rhs, lineno)
        else:
            raise ModelSyntaxError(f"bad statement {lhs!r}", lineno, 1)
    if n is None or radius is None or "base" not in mats or "sub" not in mats:
        raise ModelSyntaxError("cover file needs n, base, sub and radius", 0, 0)
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


def _frac_mat(rows) -> List[List[Fraction]]:
    return [[Fraction(x) for x in r] for r in rows]


def _frac_inv(M: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(M)
    A = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            raise NotASublattice("lattice matrix is singular")
        A[c], A[piv] = A[piv], A[c]
        pv = A[c][c]
        A[c] = [x / pv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _frac_det(M: List[List[Fraction]]) -> Fraction:
    n = len(M)
    A = [row[:] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        pv = A[c][c]
        for r in range(c + 1, n):
            if A[r][c] != 0:
                f = A[r][c] / pv
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


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
    char_key: Tuple[Fraction, ...]  # mu mod dual of the base lattice

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.mu)


class ModeOps:
    """Per-mode differentials: left wedge by the reduced twist forms."""

    def __init__(self, n: int, mode: Mode):
        self.n = n
        self.mode = mode
        self._del: Dict[Bidegree, Mat] = {}
        self._delbar: Dict[Bidegree, Mat] = {}

    def dim(self, b: Bidegree) -> int:
        return dim_pq(self.n, *b)

    def _wedge_matrix(self, xi: FormVector, b: Bidegree) -> Mat:
        n = self.n
        p, q = b
        tp, tq = p + xi.bidegree[0], q + xi.bidegree[1]
        out = Mat.zeros(dim_pq(n, tp, tq), dim_pq(n, p, q))
        if out.nrows == 0 or out.ncols == 0:
            return out
        for j, m in enumerate(monomial_basis(n, p, q)):
            col = wedge(xi, FormVector.monomial(n, m))
            for i, c in enumerate(col.coeffs):
                out.rows[i][j] = c
        return out

    def del_(self, b: Bidegree) -> Mat:
        if b not in self._del:
            xi = FormVector(self.n, (1, 0), self.mode.c10)
            self._del[b] = self._wedge_matrix(xi, b)
        return self._del[b]

    def delbar(self, b: Bidegree) -> Mat:
        if b not in self._delbar:
            xi = FormVector(self.n, (0, 1), self.mode.c01)
            self._delbar[b] = self._wedge_matrix(xi, b)
        return self._delbar[b]


@dataclass
class FourierComplex:
    spec: CoveringSpec
    n: int
    index: int  # |Gamma|
    metric: HermitianMetric
    modes: List[Mode]
    settings: List[ExactSetting]  # reduced-scale exact, one per mode
    numeric: List[NumericSetting] = field(default_factory=list)  # true 2 pi scale

    def mode_count(self) -> int:
        return len(self.modes)

    def total_dim(self, b: Bidegree) -> int:
        return self.mode_count() * dim_pq(self.n, *b)

    def gram_total(self, space: Space) -> Mat:
        G = self.metric.gram_space(space)
        return Mat.block_diag([G] * self.mode_count())

    def embed_mode_basis(self, idx: int, B: Mat, space: Space) -> Mat:
        """Embed a per-mode coefficient basis into total-coordinate layout
        (modes are the outer blocks)."""
        w = self.metric.gram_space(space).nrows
        total = self.mode_count() * w
        out = Mat.zeros(total, B.ncols)
        off = idx * w
        for i in range(B.nrows):
            for j in range(B.ncols):
                out.rows[off + i][j] = B.rows[i][j]
        return out

    def total_kernel(self, kind, b: Bidegree) -> Mat:
        """Harmonic space of one Laplacian kind across all modes, as a basis
        in total coordinates."""
        cols = []
        space = None
        for idx, st in enumerate(self.settings):
            op = assemble(st, kind, b)
            space = op.src
            ker = op.mat.nullspace()
            if ker.ncols:
                cols.append(self.embed_mode_basis(idx, ker, op.src))
        if not cols:
            w = self.metric.gram_space(space).nrows if space else dim_pq(self.n, *b)
            return Mat.zeros(self.mode_count() * w, 0)
        return Mat.hstack(cols)


def build_cover(spec: CoveringSpec, H: Optional[Mat] = None) -> FourierComplex:
    """Enumerate the truncated mode set and assemble per-mode complexes.

    The metric must be exact (Gaussian rational); it defaults to the
    identity.  Mode inclusion |mu| <= R is decided exactly.
    """
    n = spec.n
    two_n = 2 * n
    if len(spec.base) != two_n or len(spec.sub) != two_n:
        raise ShapeMismatch(f"lattice matrices must be {two_n}x{two_n}")
    metric = HermitianMetric(n, H) if H is not None else identity_metric(n)

    B = _frac_mat(spec.base)
    S = _frac_mat(spec.sub)
    detB, detS = _frac_det(B), _frac_det(S)
    if detB == 0 or detS == 0:
        raise NotASublattice("lattice matrices must be nonsingular")
    Binv = _frac_inv(B)
    X = [[sum(Binv[i][k] * S[k][j] for k in range(two_n)) for j in range(two_n)] for i in range(two_n)]
    if any(x.denominator != 1 for row in X for x in row):
        raise NotASublattice("sub is not contained in base")
    index = abs(detS / detB)
    if index.denominator != 1 or index == 0:
        raise NotASublattice("index is not a positive integer")
    index = int(index)
    # cross-check the deck-group order against the coset count of the
    # Hermite form of the coordinate matrix
    hnf = hermite_normal_form([[int(x) for x in row] for row in X])
    coset_count = 1
    for i in range(two_n):
        coset_count *= hnf[i][i]
    if coset_count != index:
        raise AssertionError(f"coset count {coset_count} != index {index}")

    Sinv = _frac_inv(S)
    Bt = [[B[j][i] for j in range(two_n)] for i in range(two_n)]

    def mu_of(m: Sequence[int]) -> Tuple[Fraction, ...]:
        # mu = S^{-T} m
        return tuple(sum(Sinv[j][i] * m[j] for j in range(two_n)) for i in range(two_n))

    def twist_coeffs(mu: Sequence[Fraction]):
        a, bvec = mu[:n], mu[n:]
        c10 = tuple(QQi(Fraction(bk, 2), Fraction(ak, 2)) for ak, bk in zip(a, bvec))
        c01 = tuple(QQi(Fraction(-bk, 2), Fraction(ak, 2)) for ak, bk in zip(a, bvec))
        return c10, c01

    def norm2_of(mu: Sequence[Fraction]) -> Fraction:
        # 4 h(mu^{1,0}, mu^{1,0}) with mu^{1,0} = sum (a_k - i b_k)/2 phi_k
        a, bvec = mu[:n], mu[n:]
        u = [QQi(Fraction(ak, 2), Fraction(-bk, 2)) for ak, bk in zip(a, bvec)]
        s = ZERO
        for j in range(n):
            for k in range(n):
                s = s + metric.H.rows[j][k] * u[j] * u[k].conj()
        if not s.is_real():
            raise AssertionError("norm form is not real")
        return 4 * s.re

    # box bound from the smallest eigenvalue of the real quadratic form
    e = [[Fraction(int(i == j)) for j in range(two_n)] for i in range(two_n)]
    Qr = [[Fraction(0)] * two_n for _ in range(two_n)]
    base_vals = [norm2_of(e[i]) for i in range(two_n)]
    for i in range(two_n):
        Qr[i][i] = base_vals[i]
        for j in range(i + 1, two_n):
            mixed = norm2_of([e[i][k] + e[j][k] for k in range(two_n)])
            Qr[i][j] = Qr[j][i] = (mixed - base_vals[i] - base_vals[j]) / 2
    lam_min = float(np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in Qr])).min())
    R = spec.radius
    bound = float(R) / np.sqrt(lam_min)
    S_np = np.array([[float(x) for x in row] for row in S])
    box = [int(np.ceil(np.linalg.norm(S_np[:, i]) * bound + 1e-9)) for i in range(two_n)]

    candidates = math.prod(2 * bi + 1 for bi in box)
    if candidates > MAX_MODE_CANDIDATES:
        raise InputTooLarge(f"{candidates} candidate modes exceed the limit {MAX_MODE_CANDIDATES}")
    R2 = R * R
    modes: List[Mode] = []
    for m in itertools.product(*[range(-bi, bi + 1) for bi in box]):
        mu = mu_of(m)
        q2 = norm2_of(mu)
        if q2 <= R2:
            c10, c01 = twist_coeffs(mu)
            phases = tuple(
                (sum(Bt[i][j] * mu[j] for j in range(two_n))) % 1 for i in range(two_n)
            )
            modes.append(Mode(m=tuple(m), mu=mu, c10=c10, c01=c01, norm2=q2, char_key=phases))
    modes.sort(key=lambda md: md.m)
    if not modes:
        raise EmptyModeSet("no modes included")
    mset = {md.m for md in modes}
    if any(tuple(-x for x in md.m) not in mset for md in modes):
        raise AssertionError("mode set is not closed under negation")

    settings = [ExactSetting(ModeOps(n, md), metric) for md in modes]
    numeric = [NumericSetting(st, scale=TWO_PI) for st in settings]
    return FourierComplex(
        spec=spec, n=n, index=index, metric=metric, modes=modes, settings=settings, numeric=numeric
    )


# -- Gamma-dimension ------------------------------------------------------------


def _isotypic_classes(fourier: FourierComplex) -> Dict[Tuple, List[int]]:
    classes: Dict[Tuple, List[int]] = {}
    for i, md in enumerate(fourier.modes):
        classes.setdefault(md.char_key, []).append(i)
    return classes


def gamma_dimension(fourier: FourierComplex, V: Mat, space: Space) -> Fraction:
    """Von Neumann dimension of a deck-invariant subspace, by two routes.

    Route (i): split V into character-isotypic components, Gram-orthogonalise
    each exactly, and integrate the pointwise norm of each basis element over
    the base torus (mixed-frequency terms integrate to zero; diagonal terms
    are constants, so the integral is vol(base)/vol(cover) = 1/|Gamma| times
    the squared norm).  Route (ii): dim(V)/|Gamma|.  Returns the common
    value; raises NotGammaInvariant if V is not preserved by the deck group.
    """
    w = fourier.metric.gram_space(space).nrows
    nmodes = fourier.mode_count()
    if V.nrows != nmodes * w:
        raise ShapeMismatch("basis does not live in the total coordinate layout")
    G = fourier.gram_total(space)
    rank_V = V.rank()
    classes = _isotypic_classes(fourier)
    pieces: List[Mat] = []
    for _, idxs in sorted(classes.items()):
        P = Mat.zeros(V.nrows, V.nrows)
        for i in idxs:
            for r in range(i * w, (i + 1) * w):
                P.rows[r][r] = ONE
        PV = span_basis(P @ V)
        if PV.ncols and Mat.hstack([V, PV]).rank() != rank_V:
            raise NotGammaInvariant("a character-isotypic projection leaves the subspace")
        if PV.ncols:
            pieces.append(PV)
    # route (i)
    total = Fraction(0)
    for piece in pieces:
        ortho = gram_schmidt(piece, G)
        for col in ortho.cols():
            norm2 = gram_ip(col, col, G)
            if not norm2.is_real() or norm2.re <= 0:
                raise AssertionError("degenerate Gram norm")
            pointwise_integral = Fraction(1, fourier.index) * norm2.re
            total += pointwise_integral / norm2.re
    route_counting = Fraction(rank_V, fourier.index)
    if total != route_counting:
        raise AssertionError(
            f"Gamma-dimension routes disagree: integral {total} vs counting {route_counting}"
        )
    return total


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


def gamma_tables(fourier: FourierComplex) -> GammaReport:
    n = fourier.n
    grids: Dict[str, object] = {}
    support_ok = True
    for name, kind in THEORY_KINDS.items():
        grid = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for p in range(n + 1):
            for q in range(n + 1):
                b = (p, q)
                K = fourier.total_kernel(kind, b)
                grid[p][q] = gamma_dimension(fourier, K, (b,))
                for idx, st in enumerate(fourier.settings):
                    if not fourier.modes[idx].is_zero:
                        if assemble(st, kind, b).mat.nullspace().ncols:
                            support_ok = False
        grids[name] = grid
    betti = []
    for k in range(2 * n + 1):
        space = total_bidegrees(n, k)
        cols = []
        for idx, st in enumerate(fourier.settings):
            op = assemble(st, LaplacianKind.D, space[0])
            ker = op.mat.nullspace()
            if ker.ncols:
                cols.append(fourier.embed_mode_basis(idx, ker, space))
            if ker.ncols and not fourier.modes[idx].is_zero:
                support_ok = False
        K = Mat.hstack(cols) if cols else Mat.zeros(fourier.mode_count() * fourier.metric.gram_space(space).nrows, 0)
        betti.append(gamma_dimension(fourier, K, space))
    grids["deRham"] = betti

    ineq_ok = True
    eq_all = True
    for p in range(n + 1):
        for q in range(n + 1):
            lhs = grids["del"][p][q] + grids["delbar"][p][q]
            rhs = grids["a"][p][q] + grids["bc"][p][q]
            if lhs > rhs:
                ineq_ok = False
            if lhs != rhs:
                eq_all = False

    # monotonicity on nested invariant pairs: harmonics inside ker delbar
    mono_ok = True
    for p in range(n + 1):
        for q in range(n + 1):
            b = (p, q)
            U = fourier.total_kernel(LaplacianKind.DELBAR, b)
            cols = []
            for idx, st in enumerate(fourier.settings):
                kmat = st.delbar_op(b).mat.nullspace()
                if kmat.ncols:
                    cols.append(fourier.embed_mode_basis(idx, kmat, (b,)))
            V = Mat.hstack(cols) if cols else U
            if gamma_dimension(fourier, U, (b,)) > gamma_dimension(fourier, V, (b,)):
                mono_ok = False

    gaps = gap_table(fourier)
    return GammaReport(
        index=fourier.index,
        grids=grids,
        gaps=gaps,
        inequality_ok=ineq_ok,
        equality_everywhere=eq_all,
        monotonicity_ok=mono_ok,
        harmonic_support_ok=support_ok,
    )


def gap_table(fourier: FourierComplex) -> Dict[str, object]:
    """Global spectral gaps (over all bidegrees and modes) of the second
    order Laplacians, plus per-bidegree delbar gaps."""
    n = fourier.n
    gaps: Dict[str, object] = {}
    per_bidegree: Dict[str, Optional[float]] = {}
    for name, kind in (("d", LaplacianKind.D), ("del", LaplacianKind.DEL), ("delbar", LaplacianKind.DELBAR)):
        best: Optional[float] = None
        if kind is LaplacianKind.D:
            targets = [total_bidegrees(n, k)[0] for k in range(2 * n + 1)]
        else:
            targets = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        for b in targets:
            for st in fourier.numeric:
                op = assemble(st, kind, b)
                ev = spectrum(op.mat, st.gram(op.src))
                g = spectral_gap(ev)
                if g is not None:
                    best = g if best is None else min(best, g)
                if kind is LaplacianKind.DELBAR:
                    key = f"delbar@{b}"
                    cur = per_bidegree.get(key)
                    per_bidegree[key] = g if cur is None else (min(cur, g) if g is not None else cur)
        gaps[name] = best
    gaps["per_bidegree_delbar"] = per_bidegree
    return gaps


def metric_independence_check(spec: CoveringSpec, H1: Mat, H2: Mat) -> dict:
    """Gamma-dimensions of the Bott-Chern and Aeppli harmonic spaces must
    agree for any two invariant metrics; also exhibits the quasi-isometry
    constant and checks the cross-projection between the two harmonic
    spaces has full rank."""
    fc1 = build_cover(spec, H1)
    fc2 = build_cover(spec, H2)
    n = spec.n
    agree = True
    cross_full_rank = True
    for kind in (LaplacianKind.BC, LaplacianKind.A):
        for p in range(n + 1):
            for q in range(n + 1):
                b = (p, q)
                K1 = fc1.total_kernel(kind, b)
                K2 = fc2.total_kernel(kind, b)
                d1 = gamma_dimension(fc1, K1, (b,))
                d2 = gamma_dimension(fc2, K2, (b,))
                if d1 != d2:
                    agree = False
                # cross projection: harmonics live in the invariant block of
                # both complexes, so compare there with the second metric
                k1_inv = _invariant_block(fc1, K1, b)
                k2_inv = _invariant_block(fc2, K2, b)
                G2 = fc2.metric.gram(b)
                if k2_inv.ncols:
                    M = projection_coords(k1_inv, k2_inv, G2)
                    if M.rank() != min(k1_inv.ncols, k2_inv.ncols):
                        cross_full_rank = False
                elif k1_inv.ncols:
                    cross_full_rank = False

    # quasi-isometry constant on the coframe metric
    H1n, H2n = H1.to_numpy(), H2.to_numpy()
    import scipy.linalg as sla

    lam = sla.eigvalsh(H1n, H2n)
    C = max(float(lam.max()), 1.0 / float(lam.min()))
    rng = np.random.default_rng(271828)
    ratios_ok = True
    for _ in range(200):
        v = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
        r = float(np.real(v.conj() @ H1n @ v) / np.real(v.conj() @ H2n @ v))
        if not (1.0 / C - 1e-9 <= r <= C + 1e-9):
            ratios_ok = False
    return {
        "gamma_dims_agree": agree,
        "cross_projection_full_rank": cross_full_rank,
        "quasi_isometry_constant": C,
        "sampled_ratios_within_bound": ratios_ok,
    }


def _invariant_block(fourier: FourierComplex, K: Mat, b: Bidegree) -> Mat:
    """Restrict a total-coordinate basis to the zero-mode block; valid when
    every column is supported there (checked)."""
    w = dim_pq(fourier.n, *b)
    zero_idx = next(i for i, md in enumerate(fourier.modes) if md.is_zero)
    off = zero_idx * w
    for j in range(K.ncols):
        for i in range(K.nrows):
            if not K.rows[i][j].is_zero() and not (off <= i < off + w):
                raise AssertionError("harmonic basis not supported in the zero mode")
    return Mat(K.rows[off : off + w], ncols=K.ncols)


def gap_and_closed_image(fourier: FourierComplex, samples: int = 200, seed: int = 271828) -> dict:
    """Quantitative closed-image bounds on the cover.

    Per bidegree: gap(lap_delbar) > 0 on the nonzero modes; the bound
    C |theta|^2 <= |del delbar theta|^2 with C = gap(tilde_A fourth-order
    part) = gap(lap_delbar)^2, sampled over theta in
    im((del delbar out)* adjoint); and the two-operator bound of the
    spectral-gap characterisation for the Dolbeault complex.  Also checks
    the exact matrix identities tilde_BC_4 = tilde_A_4 = lap_delbar^2
    (reduced scale; both sides are fourth order so the scale cancels).
    """
    n = fourier.n
    rng = np.random.default_rng(seed)
    report: Dict[str, object] = {"bidegrees": {}}
    tilde4_ok = True
    prestage_ok = True
    for st in fourier.settings:
        for p in range(n + 1):
            for q in range(n + 1):
                b = (p, q)
                lapd = assemble(st, LaplacianKind.DELBAR, b)
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
    for p in range(n + 1):
        for q in range(n + 1):
            b = (p, q)
            # lap_delbar per mode: its Gram and spectral gap
            mode_gaps = []
            for nst in fourier.numeric:
                op = assemble(nst, LaplacianKind.DELBAR, b)
                G = nst.gram(op.src)
                mode_gaps.append((G, spectral_gap(spectrum(op.mat, G))))
            found = [g for _, g in mode_gaps if g is not None]
            if not found:
                report["bidegrees"][str(b)] = {"gap_delbar": None, "vacuous": True}
                continue
            gap_db = min(found)
            quantitative_ok = True
            two_op_ok = True
            for st, nst, (G, g) in zip(fourier.settings, fourier.numeric, mode_gaps):
                if g is None:
                    continue
                C = g * g
                # theta samples in im((del delbar out)* adjoint)
                corner_out = nst.deldbar_op(b)
                Simg = st.adjoint(st.deldbar_op(b)).mat.column_space().to_numpy()
                if Simg.shape[1]:
                    coeff = rng.standard_normal((Simg.shape[1], samples)) + 1j * rng.standard_normal(
                        (Simg.shape[1], samples)
                    )
                    theta = Simg @ coeff
                    lhs = gram_norms(theta, G)
                    rhs = gram_norms(corner_out.mat @ theta, nst.gram(corner_out.dst))
                    if not np.all(C * lhs <= rhs + 1e-9 * np.maximum(rhs, 1.0)):
                        quantitative_ok = False
                # two-operator bound: C|x|^2 <= |P^t x|^2 + |Q x|^2 on (ker)^perp
                Pop = nst.delbar_op((p, q - 1))
                Qop = nst.delbar_op(b)
                Padj = nst.adjoint(Pop)
                kernel = assemble(st, LaplacianKind.DELBAR, b).mat.nullspace().to_numpy()
                dim = Qop.mat.shape[1]
                X = rng.standard_normal((dim, samples)) + 1j * rng.standard_normal((dim, samples))
                X = project_off_kernel(X, kernel, G)
                norm2 = gram_norms(X, G)
                val = gram_norms(Padj.mat @ X, nst.gram(Padj.dst)) + gram_norms(Qop.mat @ X, nst.gram(Qop.dst))
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
