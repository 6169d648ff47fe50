"""Expansion of a ComplexModel into the bigraded algebra of invariant forms.

The space of (p,q)-forms has the monomial basis

    phi_{i1} ^ ... ^ phi_{ip} ^ phibar_{j1} ^ ... ^ phibar_{jq},

with strictly increasing index sets, ordered lexicographically on the pair
(hol, anti).  The exterior derivative splits as d = del + delbar; `SHIFTS`
is the one table of the bidegree that del, delbar and del delbar raise, and
`shifted(b, name)` applies it.  Both are derivations, and each dg is a
2-form, so on a basis monomial m = g_1 ^ ... ^ g_k

    d m = sum_t (-1)^t dg_t ^ (m without g_t),   t = 0..k-1.

One builder, `bigraded_maps(n, column)`, makes every del and delbar matrix:
`column` lists, for a basis monomial, the (terms, monomial, sign) triples
whose wedges sum to its image, and `wedge_into` adds each one.  A model
passes the Leibniz terms above; a Fourier mode of a covering passes its
twist form wedged with the monomial itself.  Every map is named `(name, b)`:
`BigradedComplex.map(name, b)` is its matrix.  `build_complex` certifies
del^2 = delbar^2 = del delbar + delbar del = 0 exactly and rejects
inconsistent structure constants.  `bidegrees(n)` and `grid(n, cell)` fix the
order in which every report visits the (p,q) and the layout of its tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Tuple

from abch.linalg import Mat, ShapeMismatch
from abch.model import ComplexModel
from abch.scalars import QQi, ZERO, ONE

Bidegree = Tuple[int, int]
Space = Tuple[Bidegree, ...]  # ordered direct sum of bidegree blocks

# the bidegree each differential raises: the one table of the bigrading
SHIFTS = {"del": (1, 0), "delbar": (0, 1), "deldbar": (1, 1)}


def shifted(b: Bidegree, name: str, sign: int = 1) -> Bidegree:
    """b raised by the map `name` (a key of SHIFTS), or lowered if sign = -1."""
    s = SHIFTS[name]
    return b[0] + sign * s[0], b[1] + sign * s[1]


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


Terms = List[Tuple[Monomial, QQi]]  # a form as (monomial, coefficient) pairs


def wedge_into(out: Dict[Tuple[int, int], QQi], j: int, idx: Dict[Monomial, int], terms: Terms, m: Monomial,
               sign: int) -> None:
    """Add sign * (sum of c * mono over `terms`) ^ m into column j of the
    matrix entries `out` ((row, column) -> value), whose rows are the
    monomials numbered by `idx`."""
    for mono, c in terms:
        s, w = wedge_monomials(mono, m)
        if s:
            key = (idx[w], j)
            out[key] = out.get(key, ZERO) + (c if s == sign else -c)


@lru_cache(maxsize=None)
def conjugation_perm(n: int, p: int, q: int) -> Tuple[Tuple[int, ...], int]:
    """Complex conjugation A^{p,q} -> A^{q,p} on basis monomials: the
    (q,p)-index of the conjugate of each (p,q)-monomial, and the common sign
    (-1)^{pq} of reordering it."""
    idx = basis_index(n, q, p)
    perm = tuple(idx[Monomial(m.anti, m.hol)] for m in monomial_basis(n, p, q))
    return perm, -1 if (p * q) % 2 else 1


def conjugate(a: FormVector) -> FormVector:
    """Complex conjugation A^{p,q} -> A^{q,p}; antilinear involution."""
    p, q = a.bidegree
    C = conjugation_matrix(a.n, p, q)
    return FormVector(a.n, (q, p), tuple(C.matvec([c.conj() for c in a.coeffs])))


def conjugation_matrix(n: int, p: int, q: int) -> Mat:
    """Signed permutation C with conj(v) = C @ entrywise-conj(v),
    mapping (p,q)-coordinates to (q,p)-coordinates."""
    perm, sign = conjugation_perm(n, p, q)
    return Mat.from_entries(len(perm), len(perm), {(i, j): ONE if sign == 1 else -ONE for j, i in enumerate(perm)})


@dataclass(frozen=True)
class Op:
    """A matrix together with its source and destination spaces (ordered
    direct sums of bidegrees)."""

    src: Space
    dst: Space
    mat: Mat


class Memo:
    """`cached(key, build)`: `build()`, stored under `key` on first request.
    A build that raises stores nothing, so a failed check fails again.  The
    complex, the metric, its float view and each setting keep what they
    derive in one `_memo`, each entry under a tag or a tagged tuple."""

    def __init__(self) -> None:
        self._memo: Dict[Hashable, Any] = {}

    def cached(self, key: Hashable, build: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


class BigradedComplex(Memo):
    """Bases of every A^{p,q} plus exact matrices of del and delbar, `maps[name][b]`."""

    def __init__(self, n: int, maps: Dict[str, Dict[Bidegree, Mat]]):
        super().__init__()
        self.n = n
        self._maps = maps

    def dim(self, b: Bidegree) -> int:
        return dim_pq(self.n, *b)

    def map(self, name: str, b: Bidegree) -> Mat:
        """Matrix of the map `name`: A^b -> A^{shifted(b, name)}, the zero
        matrix off-range; del delbar is their product, multiplied once."""
        if name == "deldbar":
            return self.cached(("deldbar", b), lambda: self.map("del", shifted(b, "delbar")) @ self.map("delbar", b))
        m = self._maps[name].get(b)
        return m if m is not None else Mat.zeros(dim_pq(self.n, *shifted(b, name)), dim_pq(self.n, *b))


# column(name, m) -> the (terms, monomial, sign) triples whose wedges
# sign * terms ^ monomial sum to the image of m under the map `name`
Column = Callable[[str, Monomial], List[Tuple[Terms, Monomial, int]]]


def bigraded_maps(n: int, column: Column) -> Dict[str, Dict[Bidegree, Mat]]:
    """The del and delbar matrices at every bidegree, column by column: one
    `wedge_into` per triple that `column` gives for each basis monomial."""
    maps: Dict[str, Dict[Bidegree, Mat]] = {"del": {}, "delbar": {}}
    for b in bidegrees(n):
        basis = monomial_basis(n, *b)
        for name, mats in maps.items():
            target = shifted(b, name)
            if max(target) > n:
                continue
            idx = basis_index(n, *target)
            entries: Dict[Tuple[int, int], QQi] = {}
            for j, m in enumerate(basis):
                for terms, rest, sign in column(name, m):
                    wedge_into(entries, j, idx, terms, rest, sign)
            mats[b] = Mat.from_entries(len(idx), len(basis), entries)
    return maps


def _d_of_generator(model: ComplexModel, bar: bool, k: int) -> Dict[str, Terms]:
    """The del and delbar parts of d phi_k, or of d phibar_k if `bar`, as
    term lists; conjugate equations are generated, never stored."""
    d20, d11 = model.d20.get(k, {}), model.d11.get(k, {})
    if not bar:
        return {
            "del": [(Monomial((i, j), ()), c) for (i, j), c in d20.items()],
            "delbar": [(Monomial((i,), (j,)), c) for (i, j), c in d11.items()],
        }
    # d phibar_k = conj(d phi_k), and conj(phi_i ^ phibar_j) = -(phi_j ^ phibar_i)
    return {
        "del": [(Monomial((j,), (i,)), -c.conj()) for (i, j), c in d11.items()],
        "delbar": [(Monomial((), (i, j)), c.conj()) for (i, j), c in d20.items()],
    }


def _drop(m: Monomial, t: int) -> Monomial:
    """m without its t-th factor, counting the hol factors first."""
    p = len(m.hol)
    if t < p:
        return Monomial(m.hol[:t] + m.hol[t + 1 :], m.anti)
    return Monomial(m.hol, m.anti[: t - p] + m.anti[t - p + 1 :])


def _differentials(model: ComplexModel) -> Dict[str, Dict[Bidegree, Mat]]:
    """The del and delbar matrices of `model`, not yet certified: the
    Leibniz terms of each basis monomial (module docstring)."""
    dgen = {(bar, k): _d_of_generator(model, bar, k) for bar in (False, True) for k in range(1, model.n + 1)}

    def column(name: str, m: Monomial):
        gens = [dgen[(False, k)] for k in m.hol] + [dgen[(True, k)] for k in m.anti]
        return [(dg[name], _drop(m, t), -1 if t % 2 else 1) for t, dg in enumerate(gens) if dg[name]]

    return bigraded_maps(model.n, column)


def build_complex(model: ComplexModel) -> BigradedComplex:
    """Assemble del/delbar at every bidegree and certify the complex
    identities exactly at each, off-range maps being zero-shaped; raises
    NotAComplex otherwise."""
    comp = BigradedComplex(model.n, _differentials(model))
    for b in bidegrees(model.n):
        for name in ("del", "delbar"):
            if not (comp.map(name, shifted(b, name)) @ comp.map(name, b)).is_zero():
                raise NotAComplex(b, f"{name}^2 = 0")
        if not (comp.map("deldbar", b) + comp.map("delbar", shifted(b, "del")) @ comp.map("del", b)).is_zero():
            raise NotAComplex(b, "del delbar + delbar del = 0")
    return comp


def d_between(ops: BigradedComplex, src: Space, dst: Space) -> Op:
    """d = del + delbar from the direct sum `src` to the direct sum `dst`:
    the block `ops.map(name, b)` for each b in `src` and each map `name`
    whose target `shifted(b, name)` lies in `dst`."""
    row_off = {}
    nrows = 0
    for b in dst:
        row_off[b] = nrows
        nrows += ops.dim(b)
    blocks = []
    col = 0
    for b in src:
        for name in ("del", "delbar"):
            if shifted(b, name) in row_off:
                blocks.append((row_off[shifted(b, name)], col, ops.map(name, b)))
        col += ops.dim(b)
    return Op(src=src, dst=dst, mat=Mat.from_blocks(nrows, col, blocks))


def bidegrees(n: int) -> Space:
    """Every bidegree (p, q) with 0 <= p, q <= n, p-major: the order in which
    every report visits its bidegrees."""
    return tuple((p, q) for p in range(n + 1) for q in range(n + 1))


def grid(n: int, cell: Callable[[Bidegree], Any]) -> List[List[Any]]:
    """The p x q table of a report, grid[p][q] = cell((p, q)), its cells
    computed in `bidegrees(n)` order."""
    return [[cell((p, q)) for q in range(n + 1)] for p in range(n + 1)]


def total_bidegrees(n: int, k: int) -> Space:
    """Bidegrees of total degree k, ordered by increasing p."""
    return tuple((p, k - p) for p in range(max(0, k - n), min(n, k) + 1))


def total_d(ops, k: int) -> Op:
    """d on the full degree-k space as a block matrix over bidegrees."""
    return d_between(ops, total_bidegrees(ops.n, k), total_bidegrees(ops.n, k + 1))
