"""Operator providers shared by the Laplacian and cohomology engines.

A *setting* bundles the bigraded differentials with a metric and exposes a
uniform vocabulary: `del_op`, `delbar_op`, their composites, adjoints and
total-degree d.  ExactSetting works over Q(i) matrices.  NumericSetting is
the same class seen in floating point: it overrides only the conversion of
each differential (to_numpy(), optionally rescaled, used by the Fourier
covering models where the true twist carries a factor 2*pi), the total d
(converted from the exact setting's memo) and the adjoint (NumericMetric's
float view of the exact Grams).  Both memoise primitives and their adjoints
the same way.

Any object with `.n`, `.dim(b)`, `.del_(b)`, `.delbar(b)` can serve as the
operator source, so invariant complexes and per-mode Fourier blocks share
the engines.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from abch.complexes import Bidegree, Op, Space, total_d
from abch.linalg import Mat, ShapeMismatch
from abch.metric import HermitianMetric, NumericMetric


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


class ExactSetting:
    """Exact differentials + metric for one bigraded complex.

    The primitive operators (`del_op`, `delbar_op`, `deldbar_op`,
    `total_d`) are built once each, and so are their adjoints; adjoints of
    other operators are computed afresh on every call.
    """

    def __init__(self, ops, metric: HermitianMetric):
        self.ops = ops
        self.metric = metric
        self.n = ops.n
        if metric.n != ops.n:
            raise ShapeMismatch("metric dimension differs from complex dimension")
        self._primitives: Dict[Hashable, Op] = {}
        # id of a memoised primitive -> its adjoint, None until first asked;
        # the primitives live as long as the setting, so their ids are stable
        self._adjoints: Dict[int, Optional[Op]] = {}

    def _primitive(self, key: Hashable, build: Callable[[], Op]) -> Op:
        if key not in self._primitives:
            op = self._primitives[key] = build()
            self._adjoints[id(op)] = None
        return self._primitives[key]

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

    def del_op(self, b: Bidegree) -> Op:
        p, q = b
        return self._primitive(
            ("del", b), lambda: self._convert(Op(src=(b,), dst=((p + 1, q),), mat=self.ops.del_(b)))
        )

    def delbar_op(self, b: Bidegree) -> Op:
        p, q = b
        return self._primitive(
            ("delbar", b), lambda: self._convert(Op(src=(b,), dst=((p, q + 1),), mat=self.ops.delbar(b)))
        )

    def deldbar_op(self, b: Bidegree) -> Op:
        """del delbar : A^{p,q} -> A^{p+1,q+1}."""
        p, q = b
        return self._primitive(("deldbar", b), lambda: compose(self.del_op((p, q + 1)), self.delbar_op(b)))

    def _adjoint(self, op: Op) -> Op:
        return self.metric.adjoint(op)

    def adjoint(self, op: Op) -> Op:
        key = id(op)
        if key not in self._adjoints:  # not a memoised primitive
            return self._adjoint(op)
        if self._adjoints[key] is None:
            self._adjoints[key] = self._adjoint(op)
        return self._adjoints[key]

    def total_d(self, k: int) -> Op:
        return self._primitive(("d", k), lambda: total_d(self.ops, k))


class NumericSetting(ExactSetting):
    """Float view of an ExactSetting, sharing its memo scheme.

    Each primitive is the float conversion of the exact one, times `scale`
    (not the metric); covering models use it to restore the 2*pi factor
    carried by Fourier twists.  `deldbar_op` stays the product of the two
    scaled float factors, so it carries scale**2.
    """

    def __init__(self, exact: ExactSetting, scale: float = 1.0):
        super().__init__(exact.ops, NumericMetric(exact.metric))
        self.exact = exact
        self.scale = scale

    def _convert(self, op: Op) -> Op:
        return Op(src=op.src, dst=op.dst, mat=op.mat.to_numpy() * self.scale)

    def _adjoint(self, op: Op) -> Op:
        return Op(src=op.dst, dst=op.src, mat=self.metric.adjoint_mat(op.mat, op.src, op.dst))

    def deldbar_op(self, b: Bidegree) -> Op:
        # defined here only so the per-class call counts of perfbench see it
        return super().deldbar_op(b)

    def total_d(self, k: int) -> Op:
        return self._primitive(("d", k), lambda: self._convert(self.exact.total_d(k)))
