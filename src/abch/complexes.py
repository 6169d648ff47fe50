"""Expansion of a ComplexModel into the bigraded algebra of invariant forms.

The space of (p,q)-forms has the monomial basis

    phi_{i1} ^ ... ^ phi_{ip} ^ phibar_{j1} ^ ... ^ phibar_{jq},

with strictly increasing index sets, ordered lexicographically on the pair
(hol, anti).  The exterior derivative splits as d = del + delbar; `SHIFTS`
is the one table of the bidegree that del, delbar and del delbar raise, and
`shifted(b, name)` applies it.  Both are derivations, and each dg is a
2-form, so on a basis monomial m = g_1 ^ ... ^ g_k

    d m = sum_t (-1)^t dg_t ^ (m without g_t),   t = 0..k-1.

One builder, `bigraded_maps(n, forms, column)`, makes every del and delbar
matrix straight in `Mat`'s integer storage.  A monomial is a bitmask, phi_k
at bit k - 1 and phibar_k at bit n + k - 1, so its factors are its bits in
ascending order, and the sign of a wedge t ^ r of disjoint monomials is the
parity of the pairs (x in t, y in r) with x above y: one popcount against
a mask of t.  The coefficients of `forms` are put over one common
denominator once per call; `column` lists, for a basis monomial, the
(parity, form, rest) triples whose wedges sum to its image, and each term
adds its signed integer parts to the row of its wedge, found by one dict
lookup.  A model passes the Leibniz terms above, the factor g of m with the
parity of the factors before it; a Fourier mode of a covering passes its
twist form wedged with the monomial itself.  Conjugations are signed
permutations, stored as such.  Every map is named `(name, b)`:
`BigradedComplex.map(name, b)` is its matrix.  `build_complex` certifies
del^2 = delbar^2 = del delbar + delbar del = 0 exactly and rejects
inconsistent structure constants.  `bidegrees(n)` and `grid(n, cell)` fix the
order in which every report visits the (p,q) and the layout of its tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
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


@lru_cache(maxsize=None)
def conjugation_perm(n: int, p: int, q: int) -> Tuple[Tuple[int, ...], int]:
    """Complex conjugation A^{p,q} -> A^{q,p} on basis monomials: the
    (q,p)-index of the conjugate of each (p,q)-monomial, and the common sign
    (-1)^{pq} of reordering it."""
    idx, low = _mask_index(n, q, p), (1 << n) - 1
    # the conjugate of a monomial swaps its hol and anti bits
    perm = tuple(idx[(m & low) << n | m >> n] for m in _mask_index(n, p, q))
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
    rows = [{} for _ in perm]
    for j, i in enumerate(perm):
        rows[i] = {j: (sign, 0)}
    return Mat.from_parts(rows, 1, len(perm))


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
        matrix off-range (one per (name, b), memoised); del delbar is their
        product, multiplied once."""
        if name == "deldbar":
            return self.cached(("deldbar", b), lambda: self.map("del", shifted(b, "delbar")) @ self.map("delbar", b))
        m = self._maps[name].get(b)
        return m if m is not None else self.cached(
            ("zeros", name, b), lambda: Mat.zeros(dim_pq(self.n, *shifted(b, name)), dim_pq(self.n, *b)))


def _mask(n: int, m: Monomial) -> int:
    """m as a bitmask: phi_k is bit k - 1 and phibar_k bit n + k - 1, so
    the factors of m are its bits in ascending order."""
    return sum(1 << (k - 1) for k in m.hol) | sum(1 << (n + k - 1) for k in m.anti)


@lru_cache(maxsize=None)
def _mask_index(n: int, p: int, q: int) -> Dict[int, int]:
    """The (p,q) basis as bitmasks, numbered in basis order."""
    bits = [1 << i for i in range(n)]
    anti = [sum(a) << n for a in combinations(bits, q)]
    return {sum(h) | a: i for i, (h, a) in enumerate(product(combinations(bits, p), anti))}


def _below(t: int) -> int:
    """The xor over the factors x of t of the bits below x: for a monomial
    r disjoint from t, popcount(r & _below(t)) has the parity of the pairs
    (x in t, y in r) with x above y, the transpositions that sort the
    factors of the wedge t ^ r."""
    out = 0
    while t:
        low = t & -t
        out ^= low - 1
        t ^= low
    return out


Terms = List[Tuple[Monomial, QQi]]  # a form as (monomial, coefficient) pairs
# column(name, m) -> the (parity, form key, rest) triples whose wedges
# (-1)^parity * forms[key] ^ rest sum to the image of the basis bitmask m
# under the map `name`, rest a bitmask too
Column = Callable[[str, int], List[Tuple[int, Hashable, int]]]


def bigraded_maps(n: int, forms: Dict[Hashable, Terms], column: Column) -> Dict[str, Dict[Bidegree, Mat]]:
    """The del and delbar matrices at every bidegree, column by column.
    The coefficients of `forms` are put over one common denominator once;
    each term t of a triple (parity, key, rest) disjoint from rest then adds
    its integer parts, with sign (-1)^(parity + popcount(rest & _below(t))),
    to row t | rest."""
    den = math.lcm(1, *(x.denominator for terms in forms.values() for _, c in terms for x in (c.re, c.im)))
    parts = {key: [(_mask(n, t), _below(_mask(n, t)), c.re.numerator * (den // c.re.denominator),
                    c.im.numerator * (den // c.im.denominator)) for t, c in terms] for key, terms in forms.items()}
    maps: Dict[str, Dict[Bidegree, Mat]] = {"del": {}, "delbar": {}}
    for b in bidegrees(n):
        basis = _mask_index(n, *b)
        for name, mats in maps.items():
            target = shifted(b, name)
            if max(target) > n:
                continue
            idx = _mask_index(n, *target)
            rows: List[Dict[int, Tuple[int, int]]] = [{} for _ in idx]
            for j, m in enumerate(basis):
                for parity, key, rest in column(name, m):
                    for t, below, re, im in parts[key]:
                        if t & rest:
                            continue
                        if (parity + (rest & below).bit_count()) & 1:
                            re, im = -re, -im
                        row = rows[idx[t | rest]]
                        v = row.get(j)
                        row[j] = (re, im) if v is None else (v[0] + re, v[1] + im)
            mats[b] = Mat.from_parts(rows, den, len(basis))
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


def _differentials(model: ComplexModel) -> Dict[str, Dict[Bidegree, Mat]]:
    """The del and delbar matrices of `model`, not yet certified: the
    Leibniz terms of each basis monomial (module docstring), the factor g of
    m contributing with parity the number of factors before it."""
    n = model.n
    # keyed by (bitmask of the generator g, map name)
    forms = {(1 << (k - 1 + n * bar), name): terms for bar in (False, True) for k in range(1, n + 1)
             for name, terms in _d_of_generator(model, bar, k).items()}
    # the generators whose d has a part of each type
    active = {name: sum(g for (g, nm), terms in forms.items() if nm == name and terms) for name in ("del", "delbar")}

    def column(name: str, m: int):
        out = []
        gens = m & active[name]
        while gens:
            g = gens & -gens
            gens ^= g
            out.append(((m & (g - 1)).bit_count(), (g, name), m ^ g))
        return out

    return bigraded_maps(n, forms, column)


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
