"""Operator providers shared by the Laplacian and cohomology engines.

A *setting* bundles the bigraded differentials with a metric and names
each one by the way it crosses a space: `out(name, b)` is the map `name`
leaving A^b and `into(name, b)` the one entering it, or with `star` its
adjoint, where `name` is a key of `complexes.SHIFTS` (the bidegree the map
raises) and `b` a bidegree, or `d` and a total degree.  `into` lowers b by
`shifted(b, name, -1)`, or the degree by 1, and reads `out` there.

ExactSetting works over Q(i) matrices.  NumericSetting is the same class
seen in floating point: it overrides only the conversion of each
differential (to_numpy(), optionally rescaled, used by the Fourier covering
models where the true twist carries a factor 2*pi), the total d (converted
from the exact setting's memo) and del delbar (the product of its two scaled
float factors, where the exact setting reads the complex's memoised product).
Its metric, and so its adjoint, is the one float view `metric.numeric` that
every numeric setting over the metric shares.

Each setting is a `complexes.Memo`: its one `cached(key, build)` memo holds
every object derived from it under a name: the primitives under `(name, b)`
and their adjoints under `("star", name, b)` (`out` and `into` return both),
the exact subspaces `ker(name, b, star)` and `im(name, b, star)`, and what
the engines build from them: the harmonic spaces, one per theory and space,
each Laplacian term T* T or T T*, each sum of them and the assembled
Laplacians, spectra, tables and subspace grids.  An exact setting builds
adjoints and Laplacians only for a cover's Laplacian identities; a numeric
one assembles each Laplacian inside its spectrum's build and keeps none.
`adjoint(op)` memoises nothing: a composite's adjoint is built afresh on
every call.  Memoised objects are shared; no caller writes into one.

The operator source is a `BigradedComplex`: the invariant complex of a
model, or one Fourier mode of a covering (`covering.ModeOps`), so both share
the engines.
"""

from __future__ import annotations

from typing import Union

from abch.complexes import Bidegree, Memo, Op, Space, shifted, total_d
from abch.linalg import Mat, ShapeMismatch, common_kernel
from abch.metric import HermitianMetric

Degree = Union[Bidegree, int]  # a bidegree, or a total degree for d


def compose(op2: Op, op1: Op) -> Op:
    """op2 after op1; validates the interface spaces match."""
    if op1.dst != op2.src:
        raise ShapeMismatch(f"compose: {op1.dst} -> {op2.src}")
    return Op(src=op1.src, dst=op2.dst, mat=op2.mat @ op1.mat)


def add_ops(*ops: Op) -> Op:
    first = ops[0]
    for o in ops[1:]:
        if o.src != first.src or o.dst != first.dst:
            raise ShapeMismatch("adding operators with different spaces")
    m = first.mat
    for o in ops[1:]:
        m = m + o.mat
    return Op(src=first.src, dst=first.dst, mat=m)


class ExactSetting(Memo):
    """Exact differentials + metric for one bigraded complex, memoised
    under the keys of the module docstring."""

    def __init__(self, ops, metric: HermitianMetric):
        super().__init__()
        self.ops = ops
        self.metric = metric
        self.n = ops.n
        if metric.n != ops.n:
            raise ShapeMismatch("metric dimension differs from complex dimension")

    def dim(self, b: Bidegree) -> int:
        return self.ops.dim(b)

    def space_dim(self, space: Space) -> int:
        return sum(self.ops.dim(b) for b in space)

    def gram(self, space: Space) -> Mat:
        return self.metric.gram_space(space)

    def _convert(self, op: Op) -> Op:
        """Hook applied to each differential built from the complex; the
        numeric setting turns it into floats."""
        return op

    def deldbar_op(self, b: Bidegree) -> Op:
        """del delbar : A^{p,q} -> A^{p+1,q+1}, the complex's memoised product."""
        return self.cached(("deldbar", b), lambda: Op(src=(b,), dst=(shifted(b, "deldbar"),),
                                                       mat=self.ops.map("deldbar", b)))

    def out(self, name: str, b: Degree, star: bool = False) -> Op:
        """The differential `name` leaving A^b, or with `star` its adjoint."""
        if star:
            return self.cached(("star", name, b), lambda: self.adjoint(self.out(name, b)))
        if name in ("d", "deldbar"):
            return self.total_d(b) if name == "d" else self.deldbar_op(b)
        return self.cached((name, b), lambda: self._convert(Op(src=(b,), dst=(shifted(b, name),),
                                                                mat=self.ops.map(name, b))))

    def into(self, name: str, b: Degree, star: bool = False) -> Op:
        """The differential `name` entering A^b (zero-column at the range
        ends), or with `star` its adjoint."""
        return self.out(name, b - 1 if name == "d" else shifted(b, name, -1), star)

    def ker(self, name: str, b: Bidegree, star: bool = False) -> Mat:
        """ker T in A^b: T the map `name` leaving A^b, or with `star` the
        adjoint S* of the map S entering it, the Gram complement of im S."""
        return self.cached(("ker", name, b, star), (lambda: common_kernel([], [self.im(name, b)], self.gram((b,))))
                           if star else self.out(name, b).mat.nullspace)

    def im(self, name: str, b: Bidegree, star: bool = False) -> Mat:
        """im T in A^b: T the map `name` entering A^b, or with `star` the
        adjoint T* of the map T leaving it, the Gram complement of ker T."""
        return self.cached(("im", name, b, star), (lambda: common_kernel([], [self.ker(name, b)], self.gram((b,))))
                           if star else self.into(name, b).mat.column_space)

    def adjoint(self, op: Op) -> Op:
        """The Gram adjoint of any operator, built afresh on every call."""
        return self.metric.adjoint(op)

    def total_d(self, k: int) -> Op:
        return self.cached(("d", k), lambda: total_d(self.ops, k))


class NumericSetting(ExactSetting):
    """Float view of an ExactSetting, sharing its memo scheme.

    Each primitive is the float conversion of the exact one, times `scale`
    (not the metric); covering models use it to restore the 2*pi factor
    carried by Fourier twists.  `deldbar_op` stays the product of the two
    scaled float factors, so it carries scale**2.
    """

    def __init__(self, exact: ExactSetting, scale: float = 1.0):
        super().__init__(exact.ops, exact.metric.numeric)
        self.exact = exact
        self.scale = scale

    def _convert(self, op: Op) -> Op:
        return Op(src=op.src, dst=op.dst, mat=op.mat.to_numpy() * self.scale)

    def deldbar_op(self, b: Bidegree) -> Op:
        return self.cached(("deldbar", b), lambda: compose(self.out("del", shifted(b, "delbar")),
                                                           self.out("delbar", b)))

    def total_d(self, k: int) -> Op:
        return self.cached(("d", k), lambda: self._convert(self.exact.total_d(k)))
