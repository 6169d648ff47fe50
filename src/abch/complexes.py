"""Expansion of a ComplexModel into the bigraded algebra of invariant forms.

The space of (p,q)-forms has the monomial basis

    phi_{i1} ^ ... ^ phi_{ip} ^ phibar_{j1} ^ ... ^ phibar_{jq},

with strictly increasing index sets, ordered lexicographically on the pair
(hol, anti).  The exterior derivative splits as d = del + delbar with
del raising p and delbar raising q; both are extended from the coframe by
the graded Leibniz rule del(a ^ b) = del a ^ b + (-1)^{deg a} a ^ del b.
`build_complex` certifies del^2 = delbar^2 = del delbar + delbar del = 0
exactly and rejects inconsistent structure constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, NamedTuple, Tuple

from abch.linalg import Mat, ShapeMismatch
from abch.model import ComplexModel
from abch.scalars import QQi, ZERO, ONE

Bidegree = Tuple[int, int]
Space = Tuple[Bidegree, ...]  # ordered direct sum of bidegree blocks


class NotAComplex(Exception):
    """The structure constants violate d^2 = 0; carries the offending
    bidegree and identity."""

    def __init__(self, bidegree: Bidegree, identity: str):
        super().__init__(f"{identity} fails at bidegree {bidegree}")
        self.bidegree = bidegree
        self.identity = identity


class DegreeOverflow(Exception):
    """Wedge product would exceed bidegree (n, n)."""


class Monomial(NamedTuple):
    hol: Tuple[int, ...]
    anti: Tuple[int, ...]


@lru_cache(maxsize=None)
def monomial_basis(n: int, p: int, q: int) -> Tuple[Monomial, ...]:
    """Lexicographically ordered basis of the (p,q)-monomials on n generators."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    return tuple(
        Monomial(h, a)
        for h in combinations(range(1, n + 1), p)
        for a in combinations(range(1, n + 1), q)
    )


@lru_cache(maxsize=None)
def basis_index(n: int, p: int, q: int) -> Dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomial_basis(n, p, q))}


def dim_pq(n: int, p: int, q: int) -> int:
    if not (0 <= p <= n and 0 <= q <= n):
        return 0
    return math.comb(n, p) * math.comb(n, q)


def _merge_sorted(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Merge two strictly increasing tuples counting transpositions.

    Returns (sign, merged) or (0, None) on a repeated index."""
    out: List[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] moves past the remaining len(a) - i elements of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def wedge_monomials(m1: Monomial, m2: Monomial):
    """Wedge of two basis monomials: (sign, Monomial) or (0, None)."""
    s_h, hol = _merge_sorted(m1.hol, m2.hol)
    if s_h == 0:
        return 0, None
    s_a, anti = _merge_sorted(m1.anti, m2.anti)
    if s_a == 0:
        return 0, None
    # move the hol part of m2 past the anti part of m1
    s_cross = -1 if (len(m2.hol) * len(m1.anti)) % 2 == 1 else 1
    return s_h * s_a * s_cross, Monomial(hol, anti)


@dataclass(frozen=True)
class FormVector:
    """A (p,q)-form as exact coefficients over the monomial basis."""

    n: int
    bidegree: Bidegree
    coeffs: Tuple[QQi, ...]

    def __post_init__(self):
        p, q = self.bidegree
        if len(self.coeffs) != dim_pq(self.n, p, q):
            raise ShapeMismatch("coefficient count does not match basis size")

    @staticmethod
    def zero(n: int, p: int, q: int) -> "FormVector":
        return FormVector(n, (p, q), tuple([ZERO] * dim_pq(n, p, q)))

    @staticmethod
    def monomial(n: int, m: Monomial, coeff: QQi = ONE) -> "FormVector":
        p, q = len(m.hol), len(m.anti)
        coeffs = [ZERO] * dim_pq(n, p, q)
        coeffs[basis_index(n, p, q)[m]] = coeff
        return FormVector(n, (p, q), tuple(coeffs))

    def __add__(self, other: "FormVector") -> "FormVector":
        if self.bidegree != other.bidegree or self.n != other.n:
            raise ShapeMismatch("adding forms of different bidegree")
        return FormVector(
            self.n,
            self.bidegree,
            tuple(a if b.is_zero() else b if a.is_zero() else a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def scale(self, c) -> "FormVector":
        c = QQi.of(c)
        return FormVector(self.n, self.bidegree, tuple(a if a.is_zero() else c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def wedge(a: FormVector, b: FormVector) -> FormVector:
    """Bilinear, associative, graded-commutative wedge product."""
    if a.n != b.n:
        raise ShapeMismatch("mismatched generator count")
    n = a.n
    p = a.bidegree[0] + b.bidegree[0]
    q = a.bidegree[1] + b.bidegree[1]
    if p > n or q > n:
        raise DegreeOverflow(f"target bidegree ({p},{q}) exceeds ({n},{n})")
    out = [ZERO] * dim_pq(n, p, q)
    idx = basis_index(n, p, q)
    ba = monomial_basis(n, *a.bidegree)
    bb = monomial_basis(n, *b.bidegree)
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b.coeffs):
            if cb.is_zero():
                continue
            s, m = wedge_monomials(ba[i], bb[j])
            if s == 0:
                continue
            k = idx[m]
            out[k] = out[k] + ca * cb * s
    return FormVector(n, (p, q), tuple(out))


def conjugate(a: FormVector) -> FormVector:
    """Complex conjugation A^{p,q} -> A^{q,p}; antilinear involution."""
    n = a.n
    p, q = a.bidegree
    out = [ZERO] * dim_pq(n, q, p)
    idx = basis_index(n, q, p)
    sign = -ONE if (p * q) % 2 == 1 else ONE
    for m, c in zip(monomial_basis(n, p, q), a.coeffs):
        if c.is_zero():
            continue
        k = idx[Monomial(m.anti, m.hol)]
        out[k] = out[k] + sign * c.conj()
    return FormVector(n, (q, p), tuple(out))


def conjugation_matrix(n: int, p: int, q: int) -> Mat:
    """Signed permutation C with conj(v) = C @ entrywise-conj(v),
    mapping (p,q)-coordinates to (q,p)-coordinates."""
    src = monomial_basis(n, p, q)
    idx = basis_index(n, q, p)
    C = Mat.zeros(dim_pq(n, q, p), dim_pq(n, p, q))
    sign = -ONE if (p * q) % 2 == 1 else ONE
    for j, m in enumerate(src):
        C.rows[idx[Monomial(m.anti, m.hol)]][j] = sign
    return C


@dataclass(frozen=True)
class Op:
    """A matrix together with its source and destination spaces (ordered
    direct sums of bidegrees)."""

    src: Space
    dst: Space
    mat: Mat


class BigradedComplex:
    """Bases of every A^{p,q} plus exact matrices of del and delbar."""

    def __init__(self, model: ComplexModel, del_mats, delbar_mats):
        self.model = model
        self.n = model.n
        self._del = del_mats
        self._delbar = delbar_mats

    def dim(self, b: Bidegree) -> int:
        return dim_pq(self.n, *b)

    def del_(self, b: Bidegree) -> Mat:
        """Matrix of del: A^{p,q} -> A^{p+1,q} (zero matrix off-range)."""
        p, q = b
        return self._del.get(b, Mat.zeros(dim_pq(self.n, p + 1, q), dim_pq(self.n, p, q)))

    def delbar(self, b: Bidegree) -> Mat:
        p, q = b
        return self._delbar.get(b, Mat.zeros(dim_pq(self.n, p, q + 1), dim_pq(self.n, p, q)))

    def bidegrees(self):
        n = self.n
        return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def _d_of_generator(model: ComplexModel, bar: bool, k: int):
    """d of a single coframe generator as ((2,0)+(1,1)) or ((1,1)+(0,2))
    FormVectors; conjugate equations are generated, never stored."""
    n = model.n
    if not bar:
        del_part = FormVector.zero(n, 2, 0)
        for (i, j), c in model.d20.get(k, {}).items():
            del_part = del_part + FormVector.monomial(n, Monomial((i, j), ()), c)
        dbar_part = FormVector.zero(n, 1, 1)
        for (i, j), c in model.d11.get(k, {}).items():
            dbar_part = dbar_part + FormVector.monomial(n, Monomial((i,), (j,)), c)
        return del_part, dbar_part
    # d phibar_k = conj(d phi_k)
    del_part = FormVector.zero(n, 1, 1)  # (1,1)-component of d phibar_k
    for (i, j), c in model.d11.get(k, {}).items():
        # conj(phi_i ^ phibar_j) = -(phi_j ^ phibar_i)
        del_part = del_part + FormVector.monomial(n, Monomial((j,), (i,)), -c.conj())
    dbar_part = FormVector.zero(n, 0, 2)
    for (i, j), c in model.d20.get(k, {}).items():
        dbar_part = dbar_part + FormVector.monomial(n, Monomial((), (i, j)), c.conj())
    return del_part, dbar_part


def _leibniz_column(model: ComplexModel, m: Monomial, which: str, gens: dict) -> FormVector:
    """del or delbar of a basis monomial by the graded Leibniz rule; `gens`
    memoises `_d_of_generator` by (bar, k)."""
    n = model.n
    p, q = len(m.hol), len(m.anti)
    target = (p + 1, q) if which == "del" else (p, q + 1)
    if target[0] > n or target[1] > n:
        return FormVector.zero(n, *target)
    out = FormVector.zero(n, *target)
    factors = [(False, i) for i in m.hol] + [(True, j) for j in m.anti]
    for t, (bar, k) in enumerate(factors):
        if (bar, k) not in gens:
            gens[(bar, k)] = _d_of_generator(model, bar, k)
        del_part, dbar_part = gens[(bar, k)]
        dgen = del_part if which == "del" else dbar_part
        if dgen.is_zero():
            continue
        # (-1)^{t} from moving d past the first t degree-one factors
        sgn = -ONE if t % 2 == 1 else ONE
        before = factors[:t]
        after = factors[t + 1 :]
        piece = dgen.scale(sgn)
        for bar2, k2 in reversed(before):
            g = FormVector.monomial(n, Monomial((), (k2,)) if bar2 else Monomial((k2,), ()))
            piece = wedge(g, piece)
        for bar2, k2 in after:
            g = FormVector.monomial(n, Monomial((), (k2,)) if bar2 else Monomial((k2,), ()))
            piece = wedge(piece, g)
        out = out + piece
    return out


def build_complex(model: ComplexModel) -> BigradedComplex:
    """Assemble del/delbar at every bidegree and certify the complex
    identities exactly; raises NotAComplex otherwise."""
    n = model.n
    del_mats: Dict[Bidegree, Mat] = {}
    delbar_mats: Dict[Bidegree, Mat] = {}
    gens: dict = {}
    for p in range(n + 1):
        for q in range(n + 1):
            basis = monomial_basis(n, p, q)
            if p < n:
                md = Mat.zeros(dim_pq(n, p + 1, q), dim_pq(n, p, q))
                for j, m in enumerate(basis):
                    fv = _leibniz_column(model, m, "del", gens)
                    for i, c in enumerate(fv.coeffs):
                        md.rows[i][j] = c
                del_mats[(p, q)] = md
            if q < n:
                mb = Mat.zeros(dim_pq(n, p, q + 1), dim_pq(n, p, q))
                for j, m in enumerate(basis):
                    fv = _leibniz_column(model, m, "delbar", gens)
                    for i, c in enumerate(fv.coeffs):
                        mb.rows[i][j] = c
                delbar_mats[(p, q)] = mb
    comp = BigradedComplex(model, del_mats, delbar_mats)
    for p in range(n + 1):
        for q in range(n + 1):
            b = (p, q)
            if p + 2 <= n and not (comp.del_((p + 1, q)) @ comp.del_(b)).is_zero():
                raise NotAComplex(b, "del^2 = 0")
            if q + 2 <= n and not (comp.delbar((p, q + 1)) @ comp.delbar(b)).is_zero():
                raise NotAComplex(b, "delbar^2 = 0")
            if p + 1 <= n and q + 1 <= n:
                anti = comp.del_((p, q + 1)) @ comp.delbar(b) + comp.delbar((p + 1, q)) @ comp.del_(b)
                if not anti.is_zero():
                    raise NotAComplex(b, "del delbar + delbar del = 0")
    return comp


def d_between(ops, src: Space, dst: Space) -> Op:
    """d = del + delbar from the direct sum `src` to the direct sum `dst`,
    keeping the blocks whose target bidegree lies in `dst`.  `ops` is any
    source of differentials with `.dim(b)`, `.del_(b)` and `.delbar(b)`."""
    row_off = {}
    nrows = 0
    for b in dst:
        row_off[b] = nrows
        nrows += ops.dim(b)
    mat = Mat.zeros(nrows, sum(ops.dim(b) for b in src))
    col = 0
    for b in src:
        p, q = b
        for target, block_of in (((p + 1, q), ops.del_), ((p, q + 1), ops.delbar)):
            if target in row_off:
                block, r0 = block_of(b), row_off[target]
                for i, row in enumerate(block.rows):
                    mat.rows[r0 + i][col : col + block.ncols] = row
        col += ops.dim(b)
    return Op(src=src, dst=dst, mat=mat)


def d_operator(comp: BigradedComplex, b: Bidegree) -> Op:
    """d = del + delbar as the stacked block map
    A^{p,q} -> A^{p+1,q} (+) A^{p,q+1}."""
    p, q = b
    return d_between(comp, (b,), ((p + 1, q), (p, q + 1)))


def total_bidegrees(n: int, k: int) -> Space:
    """Bidegrees of total degree k, ordered by increasing p."""
    return tuple((p, k - p) for p in range(max(0, k - n), min(n, k) + 1))


def total_d(ops, k: int) -> Op:
    """d on the full degree-k space as a block matrix over bidegrees."""
    return d_between(ops, total_bidegrees(ops.n, k), total_bidegrees(ops.n, k + 1))
