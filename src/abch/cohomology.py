"""The five cohomologies, comparison maps, del-delbar conditions, the
kernel/image subspace grids with their exact sequences, and the full
combined complex around a corner bidegree.

Every dimension comes from `homology`, dim ker(out) - rank(in) at each node
of a sequence of maps over Q(i): the tables at A^{p,q} (A^k for de Rham)
between the maps entering and leaving it, which `laplacians.THEORY_OPS`
names and `ExactSetting.out`/`into` builds, the exactness of the five-term
sequences and the nodes of the full ABC complex.  `ExactSetting.ker`/`im`
name kernel and image subspaces the same way.  Spans are equal exactly when
their canonical bases (`linalg.span_basis`, the form of every sum,
intersection, `im_d_at` and `abcdef` value) are `==`, of dimension `ncols`.
Tables, grids and subspaces are memoised in the setting
(`Memo.cached`), so every report that needs one shares it.  Every grid[p][q]
comes from `complexes.grid` and every walk over the bidegrees from
`complexes.bidegrees`, so all reports visit (p, q) in one p-major order.
Harmonic-space dimensions (`harmonic_dims`) give a second route to the
same numbers (finite-dimensional Hodge theory), not an independent one: a
harmonic space is ker T cut by the Gram complement of im S, of dimension
dim ker T - rank S, so it checks the `common_kernel`/`rref` plumbing
(ROADMAP item 14 has an independent route).  Both routes
and the cover's Gamma-dimensions (`GammaReport.grids`) share one table
shape of plain lists, {theory: grid[p][q], "deRham": betti[k]}, so
`abch cohomology` checks the Hodge isomorphism as one `==` of two tables.

Images of linear maps between finite-dimensional spaces are closed, so the
reduced and unreduced quotients coincide and only one notion of cohomology
appears here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from abch.complexes import Bidegree, Op, Space, bidegrees, d_between, grid, total_bidegrees
from abch.linalg import (Mat, common_kernel, intersect_many, projection_coords, span_basis, subspace_intersect,
                          subspace_sum)
from abch.laplacians import THEORY_KINDS, THEORY_OPS, LaplacianKind, harmonic_space
from abch.setting import ExactSetting


class InvalidBidegree(Exception):
    """Requested corner bidegree outside 0..n."""


# -- dimension grids (metric-free) ---------------------------------------------


def homology(maps: Sequence[Mat]) -> List[int]:
    """dim ker(out) - rank(in) at every node of 0 -> V_0 -> ... -> V_m -> 0,
    where maps[k] sends V_k to V_{k+1}, computing each map's rank once.  The
    sequence is exact where the entry is 0, at V_0 and V_m included."""
    ranks = [m.rank() for m in maps]
    dims = [m.ncols for m in maps] + [maps[-1].nrows]
    return [d - r_in - r_out for d, r_in, r_out in zip(dims, [0] + ranks, ranks + [0])]


def _rank_nullity(setting: ExactSetting, theory: str, b) -> int:
    """The homology at A^b of the joined maps entering it followed by the
    stacked maps leaving it (b a bidegree, or a total degree for de Rham)."""
    leaving, entering = THEORY_OPS[theory]
    joined = Mat.hstack([setting.into(name, b).mat for name in entering])
    stacked = Mat.vstack([setting.out(name, b).mat for name in leaving])
    return homology([joined, stacked])[1]


def betti_numbers(setting: ExactSetting) -> List[int]:
    return [_rank_nullity(setting, "deRham", k) for k in range(2 * setting.n + 1)]


def cohomology(theory: str, setting: ExactSetting) -> list:
    """Quotient dimensions by exact rank arithmetic: grid[p][q], or the
    Betti numbers for de Rham."""
    n = setting.n
    if theory not in THEORY_OPS:
        raise ValueError(f"unknown theory {theory}")
    if theory == "deRham":
        return betti_numbers(setting)
    return grid(n, lambda b: _rank_nullity(setting, theory, b))


def all_tables(setting: ExactSetting) -> Dict[str, list]:
    return setting.cached("all_tables", lambda: {t: cohomology(t, setting) for t in THEORY_OPS})


def harmonic_dims(setting: ExactSetting) -> Dict[str, list]:
    """Harmonic-space dimensions per theory: the Hodge route, dim ker T -
    rank S in effect (module docstring)."""
    n = setting.n
    betti = [harmonic_space(setting, LaplacianKind.D, total_bidegrees(n, k)[0]).ncols for k in range(2 * n + 1)]
    return {"deRham": betti, **{t: grid(n, lambda b: harmonic_space(setting, kind, b).ncols)
                                for t, kind in THEORY_KINDS.items()}}


def table_symmetries(tables: Dict[str, list], n: int) -> Dict[str, bool]:
    """Conjugation and star-duality symmetries of the dimension grids."""
    bc, a, dbar, dl = (tables[t] for t in ("bc", "a", "delbar", "del"))
    conj_ok = all(bc[p][q] == bc[q][p] and a[p][q] == a[q][p] and dbar[p][q] == dl[q][p] for p, q in bidegrees(n))
    star_ok = all(bc[p][q] == a[n - q][n - p] for p, q in bidegrees(n))
    return {"conjugation": conj_ok, "star_duality": star_ok}


# -- subspaces at a bidegree -----------------------------------------------------


def _rows_at(setting: ExactSetting, b: Bidegree) -> range:
    """The rows of A^{p,q} in the degree-(p+q) space, ordered by increasing p."""
    start = sum(setting.dim(c) for c in total_bidegrees(setting.n, sum(b)) if c[0] < b[0])
    return range(start, start + setting.dim(b))


def im_d_at(setting: ExactSetting, b: Bidegree) -> Mat:
    """The subspace im(d) ∩ A^{p,q}: the A^{p,q} rows of the memoised d
    from degree p+q-1, applied to the kernel of its rows into the other
    bidegrees of degree p+q."""
    D, rows = setting.total_d(sum(b) - 1).mat, _rows_at(setting, b)
    return span_basis(D.take_rows(rows) @ D.take_rows([i for i in range(D.nrows) if i not in rows]).nullspace())


def abcdef(setting: ExactSetting, b: Bidegree) -> Dict[str, Mat]:
    """The six subspaces a..f of A^{p,q}, each a triple intersection."""
    ker, im = setting.ker, setting.im
    return setting.cached(
        ("abcdef", b),
        lambda: {
            "a": intersect_many([im("delbar", b), im("del", b), ker("deldbar", b, True)]),
            "b": intersect_many([ker("delbar", b), im("del", b), ker("deldbar", b, True)]),
            "c": intersect_many([ker("deldbar", b), im("delbar", b, True), ker("del", b, True)]),
            "d": intersect_many([im("delbar", b), ker("del", b), ker("deldbar", b, True)]),
            "e": intersect_many([ker("deldbar", b), im("del", b, True), ker("delbar", b, True)]),
            "f": intersect_many([ker("deldbar", b), im("delbar", b, True), im("del", b, True)]),
        },
    )


# -- the comparison-map diagram -----------------------------------------------------


ARROWS = (
    ("bc", "del"),
    ("bc", "deRham"),
    ("bc", "delbar"),
    ("del", "a"),
    ("deRham", "a"),
    ("delbar", "a"),
    ("bc", "a"),
)


@dataclass
class DiagramArrow:
    name: str
    matrix: Mat
    injective: bool
    surjective: bool


@dataclass
class DiagramReport:
    degree: int
    arrows: Dict[str, DiagramArrow]
    commutes: bool
    all_isomorphisms: bool


def _total_harmonic(setting: ExactSetting, theory: str, k: int) -> Mat:
    """Harmonic space of a theory at total degree k, embedded in the full
    degree-k coordinate space (direct sum over p+q = k for the bigraded
    theories, the de Rham harmonic space itself otherwise)."""
    space = total_bidegrees(setting.n, k)
    if theory == "deRham":
        return harmonic_space(setting, LaplacianKind.D, space[0])
    return Mat.block_diag([harmonic_space(setting, THEORY_KINDS[theory], b) for b in space])


def _arrow(name: str, S: Mat, T: Mat, G: Mat) -> DiagramArrow:
    """The Gram projection of span S onto span T, flagged by exact rank."""
    M = projection_coords(S, T, G)
    r = M.rank()
    return DiagramArrow(name=name, matrix=M, injective=(r == S.ncols), surjective=(r == T.ncols))


def diagram_maps(setting: ExactSetting, k: int) -> DiagramReport:
    """The seven comparison maps at total degree k, realised on harmonic
    representatives: each source basis vector is mapped by the identity and
    Gram-projected onto the target harmonic space, with flags decided by
    exact rank.  The bigraded nodes are the direct sums over p+q = k."""
    space = total_bidegrees(setting.n, k)
    G_tot = setting.gram(space)
    harm = {t: _total_harmonic(setting, t, k) for t in ("bc", "del", "delbar", "a", "deRham")}

    arrows = {f"{src}_to_{dst}": _arrow(f"{src}_to_{dst}", harm[src], harm[dst], G_tot) for src, dst in ARROWS}

    direct = arrows["bc_to_a"].matrix
    commutes = True
    for mid in ("del", "deRham", "delbar"):
        composed = arrows[f"{mid}_to_a"].matrix @ arrows[f"bc_to_{mid}"].matrix
        if composed != direct:
            commutes = False
    all_iso = all(a.injective and a.surjective for a in arrows.values())
    return DiagramReport(degree=k, arrows=arrows, commutes=commutes, all_isomorphisms=all_iso)


def bigraded_arrow(setting: ExactSetting, src: str, dst: str, b: Bidegree) -> DiagramArrow:
    """One comparison map between bigraded theories at a single bidegree
    (the degree-level arrows are block-diagonal over bidegrees)."""
    S, T = (harmonic_space(setting, THEORY_KINDS[t], b) for t in (src, dst))
    return _arrow(f"{src}_to_{dst}@{b}", S, T, setting.gram((b,)))


# -- del-delbar conditions ----------------------------------------------------------


CONDITION_NAMES = ("a", "b", "c", "d", "e", "f")


def _witness(b: Bidegree, small: Mat, big: Mat) -> Optional[dict]:
    """The first column of big outside span(small), as a witness at b, or
    None: the first pivot past small's columns in the rref of [small | big]."""
    _, pivots = Mat.hstack([small, big]).rref()
    j = next((c - small.ncols for c in pivots if c >= small.ncols), None)
    return None if j is None else {"bidegree": b, "form": [str(x) for x in big.col(j)]}


def condition_dims(setting: ExactSetting, b: Bidegree, ranks: dict) -> Dict[str, Tuple[int, int]]:
    """The dimensions (left, right) of the two sides of conditions a..e at
    b = (p,q), from ranks alone (`ddbar_conditions`); `ranks` holds the rank
    of each map (name, c) leaving c already taken, and takes the new ones."""
    def r(name, c) -> int:
        if (name, c) not in ranks:
            ranks[name, c] = setting.out(name, c).mat.rank()
        return ranks[name, c]

    (p, q), N = b, setting.dim(b)
    D, rows = setting.total_d(p + q - 1).mat, _rows_at(setting, b)
    im_d = r("d", p + q - 1) - D.take_rows([i for i in range(D.nrows) if i not in rows]).rank()
    sums = Mat.hstack([setting.into("del", b).mat, setting.into("delbar", b).mat]).rank()
    kk = N - Mat.vstack([setting.out("del", b).mat, setting.out("delbar", b).mat]).rank()
    b_dim = r("delbar", (p, q - 1)) - r("deldbar", (p, q - 1))
    c_dim = sums - r("deldbar", (p, q - 1)) - r("deldbar", (p - 1, q))
    im_dd, ker_dd = r("deldbar", (p - 1, q - 1)), N - r("deldbar", b)
    return {"a": (im_dd, im_d), "b": (im_dd, b_dim), "c": (im_dd, c_dim), "d": (ker_dd, sums + kk - c_dim),
            "e": (ker_dd, N - r("del", b) + r("delbar", (p, q - 1)) - b_dim)}


def ddbar_conditions(setting: ExactSetting) -> dict:
    """The six comparison conditions, each an equality of subspaces at every
    bidegree.  Conditions are reported independently; a model where they
    disagree is flagged.

    At each b = (p,q), with kk = ker del ∩ ker delbar (the bidegree part of
    ker d), im_d = im d ∩ A^{p,q}, N = dim A^{p,q}, r(T) the rank of a map
    T and "in"/"out" the maps entering/leaving b, each condition and the
    dimension of its right side:

      a) im del delbar = kk ∩ im_d: r(D) - r(D without its A^{p,q} rows),
         D the d from degree p+q-1 (im_d ⊆ kk, as d^2 = 0)
      b) im del delbar = ker del ∩ im delbar: r(delbar in) - r(del delbar
         out of (p,q-1)), as delbar maps ker del delbar there onto it
      c) im del delbar = kk ∩ (im del + im delbar): r([del in | delbar in])
         - r(del delbar out of (p,q-1)) - r(del delbar out of (p-1,q))
      d) ker del delbar = im del + im delbar + kk: r([del in | delbar in])
         + dim kk - (c), with dim kk = N - r([del; delbar] out)
      e) ker del delbar = ker del + im delbar: N - r(del out) + r(delbar in) - (b)
      f) ker del delbar = im del + im delbar + kk   (kk in place of ker d)

    As del^2 = delbar^2 = del delbar + delbar del = 0 (`build_complex`
    certifies it), im del delbar, of dimension r(del delbar in), lies in
    the right sides of a..c, and those of d and e lie in ker del delbar, of
    dimension N - r(del delbar out); so each condition holds where the two
    dimensions agree (`condition_dims`, each rank taken once).  Bases are
    built only at a condition's first failing bidegree, for its witness; a
    failure with no witness is a broken invariant (AssertionError).
    At one bidegree ker d ∩ A^{p,q} = kk, so f's right-hand side is d's,
    and f takes d's verdict and witness.
    """
    ker, im = setting.ker, setting.im
    holds = {name: True for name in CONDITION_NAMES}
    witnesses: Dict[str, dict] = {}
    ranks: dict = {}
    for b in bidegrees(setting.n):
        for name, (lhs, rhs) in condition_dims(setting, b, ranks).items():
            if lhs == rhs or not holds[name]:
                continue
            holds[name] = False
            kk = Mat.vstack([setting.out("del", b).mat, setting.out("delbar", b).mat]).nullspace()
            sums = lambda: subspace_sum(im("del", b), im("delbar", b))
            side = {"a": lambda: subspace_intersect(kk, im_d_at(setting, b)),
                    "b": lambda: subspace_intersect(ker("del", b), im("delbar", b)),
                    "c": lambda: subspace_intersect(kk, sums()), "d": lambda: subspace_sum(sums(), kk),
                    "e": lambda: subspace_sum(ker("del", b), im("delbar", b))}[name]()
            small_big = (span_basis(im("deldbar", b)), side) if name in "abc" else (side, ker("deldbar", b))
            if (w := _witness(b, *small_big)) is None:
                raise AssertionError(f"condition {name} at {b}: the dimensions differ but the subspaces are equal")
            witnesses[name] = w
    holds["f"] = holds["d"]
    if "d" in witnesses:
        witnesses["f"] = witnesses["d"]
    return {"holds": holds, "all_agree": len(set(holds.values())) == 1, "witnesses": witnesses}


# -- the six subspaces and the exact sequences ------------------------------------------


@dataclass
class SubspaceGrids:
    dims: Dict[str, List[List[int]]]
    quotient_dims: Dict[str, List[List[int]]]
    routes_agree: bool
    conjugation_ok: bool


def abc_subspaces(setting: ExactSetting) -> SubspaceGrids:
    """Dimension grids of the six kernel/image subspaces, by the
    intersection route and independently by the quotient route."""
    return setting.cached("abc_subspaces", lambda: _abc_subspaces(setting))


def _quotient_dims(setting: ExactSetting, b: Bidegree) -> Dict[str, int]:
    """The dimensions of a..f at b as quotients of kernels and images."""
    ker, im = setting.ker, setting.im
    ker_del, ker_delbar = ker("del", b), ker("delbar", b)
    im_del, im_delbar = im("del", b), im("delbar", b)
    r_dd, kdd = im("deldbar", b).ncols, ker("deldbar", b).ncols
    return {
        "a": subspace_intersect(im_delbar, im_del).ncols - r_dd,
        "b": subspace_intersect(im_del, ker_delbar).ncols - r_dd,
        "c": kdd - subspace_sum(ker_delbar, im_del).ncols,
        "d": subspace_intersect(im_delbar, ker_del).ncols - r_dd,
        "e": kdd - subspace_sum(ker_del, im_delbar).ncols,
        "f": kdd - subspace_sum(ker_del, ker_delbar).ncols,
    }


def _abc_subspaces(setting: ExactSetting) -> SubspaceGrids:
    n = setting.n
    names = "abcdef"
    cells = {b: (abcdef(setting, b), _quotient_dims(setting, b)) for b in bidegrees(n)}
    dims = {x: grid(n, lambda b: cells[b][0][x].ncols) for x in names}
    qdims = {x: grid(n, lambda b: cells[b][1][x]) for x in names}
    agree = all(dims[x] == qdims[x] for x in names)
    conj_ok = all(dims[x][p][q] == dims[y][q][p] for x, y in ("aa", "bd", "ce", "ff") for p, q in bidegrees(n))
    return SubspaceGrids(dims=dims, quotient_dims=qdims, routes_agree=agree, conjugation_ok=conj_ok)


def _coords_in(B: Mat, vectors: Mat) -> Mat:
    """Coordinates of the columns of `vectors` in the basis B (must lie in span B)."""
    X = B.solve(vectors)
    if X is None or B @ X != vectors:
        raise AssertionError("vector outside subspace while building an inclusion map")
    return X


def exact_sequence_reports(setting: ExactSetting) -> dict:
    """Exactness of the two five-term sequences at every bidegree:

      0 -> A -> B -> H_delbar -> H_A -> C -> 0
      0 -> D -> H_BC -> H_delbar -> E -> F -> 0

    Maps are inclusions followed by Gram projections; the homology must
    vanish at every node, and so must the alternating sum of node dimensions
    read from routes that do not shape the maps: the quotient grids of
    `abc_subspaces` for A..F, the rank-nullity tables for the cohomologies.
    """
    n = setting.n
    tables = all_tables(setting)
    qd = abc_subspaces(setting).quotient_dims
    per_bidegree = {}
    all_ok = True
    for b in bidegrees(n):
        p, q = b
        G = setting.gram((b,))
        A_, B_, C_, D_, E_, F_ = abcdef(setting, b).values()
        Hdb = harmonic_space(setting, LaplacianKind.DELBAR, b)
        Ha = harmonic_space(setting, LaplacianKind.A, b)
        Hbc = harmonic_space(setting, LaplacianKind.BC, b)

        seq1_dims = [qd["a"][p][q], qd["b"][p][q], tables["delbar"][p][q], tables["a"][p][q], qd["c"][p][q]]
        seq1_maps = [
            _coords_in(B_, A_),
            projection_coords(B_, Hdb, G),
            projection_coords(Hdb, Ha, G),
            projection_coords(Ha, C_, G),
        ]
        seq2_dims = [qd["d"][p][q], tables["bc"][p][q], tables["delbar"][p][q], qd["e"][p][q], qd["f"][p][q]]
        seq2_maps = [
            _coords_in(Hbc, D_),
            projection_coords(Hbc, Hdb, G),
            projection_coords(Hdb, E_, G),
            projection_coords(E_, F_, G),
        ]
        res = {}
        for label, dims, maps in (("seq1", seq1_dims, seq1_maps), ("seq2", seq2_dims, seq2_maps)):
            exact = not any(homology(maps))
            alt = sum((-1) ** i * dim for i, dim in enumerate(dims))
            res[label] = {"exact": exact, "alternating_sum": alt}
            if not exact or alt != 0:
                all_ok = False
        per_bidegree[b] = res
    return {"per_bidegree": per_bidegree, "all_exact": all_ok}


@dataclass
class InequalityReport:
    lhs: List[List[int]]  # h_del + h_delbar
    rhs: List[List[int]]  # h_a + h_bc
    defect: List[List[int]]  # a + f
    identity_holds: bool
    equality_bidegrees: List[Bidegree]
    criterion_consistent: bool
    degree_sums: List[Tuple[int, int, int]]  # (k, lhs_k, rhs_k)
    twice_betti: List[int]  # 2 b_k
    strict_degrees: List[int]  # k with rhs_k > 2 b_k (Angella-Tomassini)


def inequality_report(setting: ExactSetting) -> InequalityReport:
    """h_bc + h_a = h_del + h_delbar + a + f at every (p,q); the defect a+f
    vanishes exactly when ker deldbar = ker del + ker delbar and
    im deldbar = im del ∩ im delbar."""
    n, ker, im = setting.n, setting.ker, setting.im
    tables, dims = all_tables(setting), abc_subspaces(setting).dims

    def total(g: List[List[int]], h: List[List[int]]) -> List[List[int]]:
        return grid(n, lambda b: g[b[0]][b[1]] + h[b[0]][b[1]])

    def splits(b: Bidegree) -> bool:
        return (span_basis(ker("deldbar", b)) == subspace_sum(ker("del", b), ker("delbar", b))
                and span_basis(im("deldbar", b)) == subspace_intersect(im("del", b), im("delbar", b)))

    lhs, rhs = total(tables["del"], tables["delbar"]), total(tables["a"], tables["bc"])
    defect = total(dims["a"], dims["f"])
    identity = all(rhs[p][q] == lhs[p][q] + defect[p][q] for p, q in bidegrees(n))
    equality_at = [(p, q) for p, q in bidegrees(n) if defect[p][q] == 0]
    criterion_ok = all((b in equality_at) == splits(b) for b in bidegrees(n))
    spaces = [total_bidegrees(n, k) for k in range(2 * n + 1)]
    degree_sums = [(k, sum(lhs[p][q] for p, q in sp), sum(rhs[p][q] for p, q in sp)) for k, sp in enumerate(spaces)]
    twice_betti = [2 * b for b in tables["deRham"]]
    return InequalityReport(
        lhs=lhs,
        rhs=rhs,
        defect=defect,
        identity_holds=identity,
        equality_bidegrees=equality_at,
        criterion_consistent=criterion_ok,
        degree_sums=degree_sums,
        twice_betti=twice_betti,
        strict_degrees=[k for k, _, rk in degree_sums if rk > twice_betti[k]],
    )


# -- the full combined complex around a corner --------------------------------------


@dataclass
class AbcFullComplex:
    """The length-2n complex whose corner differential is del delbar and
    whose node cohomologies at the corner reproduce the Bott-Chern and
    Aeppli dimensions."""

    target: Bidegree
    spaces: List[Space]
    deltas: List[Op]
    h: List[int]
    harmonic_dims: List[int]
    euler_spaces: int
    euler_h: int
    node_bc: Optional[int]
    node_a: Optional[int]


def _abc_space(n: int, p: int, q: int, k: int) -> Space:
    if k <= p + q - 2:
        return tuple((r, s) for r, s in total_bidegrees(n, k) if r < p and s < q)
    return tuple((r, s) for r, s in total_bidegrees(n, k + 1) if r >= p and s >= q)


def full_abc_complex(setting: ExactSetting, target: Bidegree) -> AbcFullComplex:
    n = setting.n
    p, q = target
    if not (0 <= p <= n and 0 <= q <= n):
        raise InvalidBidegree(f"target {target} outside 0..{n}")
    spaces = [_abc_space(n, p, q, k) for k in range(2 * n + 1)]
    corner = p + q - 2 if p + q >= 2 else None  # index of the order-2 delta
    # the corner map is the complex's del delbar product into A^{p,q}, dim A^{p,q} x 0 if p = 0 or q = 0
    deltas = [Op(src=spaces[k], dst=spaces[k + 1], mat=setting.into("deldbar", target).mat) if k == corner
              else d_between(setting.ops, spaces[k], spaces[k + 1]) for k in range(2 * n)]
    for k in range(2 * n - 1):
        if not (deltas[k + 1].mat @ deltas[k].mat).is_zero():
            raise AssertionError(f"delta^2 != 0 between nodes {k} and {k + 2}")

    # node k's harmonic space is ker delta_k ∩ ker delta_{k-1}* (n >= 1: each node has a delta)
    hdims = [common_kernel([deltas[k].mat] if k < 2 * n else [],
                           [deltas[k - 1].mat.column_space()] if k >= 1 else [],
                           setting.gram(spaces[k])).ncols for k in range(2 * n + 1)]
    h = homology([delta.mat for delta in deltas])

    euler_spaces = sum((-1) ** k * setting.space_dim(spaces[k]) for k in range(2 * n + 1))
    euler_h = sum((-1) ** k * h[k] for k in range(2 * n + 1))
    node_bc = h[p + q - 1] if 0 <= p + q - 1 <= 2 * n else None
    node_a = h[p + q - 2] if 0 <= p + q - 2 <= 2 * n else None
    return AbcFullComplex(
        target=target,
        spaces=spaces,
        deltas=deltas,
        h=h,
        harmonic_dims=hdims,
        euler_spaces=euler_spaces,
        euler_h=euler_h,
        node_bc=node_bc,
        node_a=node_a,
    )
