"""Operator providers shared by the Laplacian and cohomology engines.

A *setting* bundles the bigraded differentials with a metric and exposes a
uniform vocabulary: `del_op`, `delbar_op`, their composites, adjoints and
total-degree d.  ExactSetting works over Q(i) matrices; NumericSetting is its
floating-point mirror (optionally with the differentials rescaled, used by
the Fourier covering models where the true twist carries a factor 2*pi).

Any object with `.n`, `.dim(b)`, `.del_(b)`, `.delbar(b)` can serve as the
operator source, so invariant complexes and per-mode Fourier blocks share
the engines.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

import numpy as np

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

    def del_op(self, b: Bidegree) -> Op:
        p, q = b
        return self._primitive(("del", b), lambda: Op(src=(b,), dst=((p + 1, q),), mat=self.ops.del_(b)))

    def delbar_op(self, b: Bidegree) -> Op:
        p, q = b
        return self._primitive(("delbar", b), lambda: Op(src=(b,), dst=((p, q + 1),), mat=self.ops.delbar(b)))

    def deldbar_op(self, b: Bidegree) -> Op:
        """del delbar : A^{p,q} -> A^{p+1,q+1}."""
        p, q = b
        return self._primitive(("deldbar", b), lambda: compose(self.del_op((p, q + 1)), self.delbar_op(b)))

    def adjoint(self, op: Op) -> Op:
        key = id(op)
        if key not in self._adjoints:  # not a memoised primitive
            return self.metric.adjoint(op)
        if self._adjoints[key] is None:
            self._adjoints[key] = self.metric.adjoint(op)
        return self._adjoints[key]

    def total_d(self, k: int) -> Op:
        return self._primitive(("d", k), lambda: total_d(self.ops, k))


class NumericSetting:
    """Floating-point mirror of an ExactSetting.

    `scale` multiplies the differentials only (not the metric); covering
    models use it to restore the 2*pi factor carried by Fourier twists.
    """

    def __init__(self, exact: ExactSetting, scale: float = 1.0, nmetric: Optional[NumericMetric] = None):
        self.exact = exact
        self.n = exact.n
        self.scale = scale
        self.metric = nmetric if nmetric is not None else NumericMetric.from_exact(exact.metric)
        self._del: Dict[Bidegree, np.ndarray] = {}
        self._delbar: Dict[Bidegree, np.ndarray] = {}
        self._total_d: Dict[int, np.ndarray] = {}

    def dim(self, b: Bidegree) -> int:
        return self.exact.dim(b)

    def space_dim(self, space: Space) -> int:
        return self.exact.space_dim(space)

    def gram(self, space: Space) -> np.ndarray:
        return self.metric.gram_space(space)

    def del_op(self, b: Bidegree) -> Op:
        if b not in self._del:
            self._del[b] = self.exact.ops.del_(b).to_numpy() * self.scale
        p, q = b
        return Op(src=(b,), dst=((p + 1, q),), mat=self._del[b])

    def delbar_op(self, b: Bidegree) -> Op:
        if b not in self._delbar:
            self._delbar[b] = self.exact.ops.delbar(b).to_numpy() * self.scale
        p, q = b
        return Op(src=(b,), dst=((p, q + 1),), mat=self._delbar[b])

    def deldbar_op(self, b: Bidegree) -> Op:
        p, q = b
        return compose(self.del_op((p, q + 1)), self.delbar_op(b))

    def adjoint(self, op: Op) -> Op:
        return Op(src=op.dst, dst=op.src, mat=self.metric.adjoint_mat(op.mat, op.src, op.dst))

    def total_d(self, k: int) -> Op:
        d = self.exact.total_d(k)
        if k not in self._total_d:
            self._total_d[k] = d.mat.to_numpy() * self.scale
        return Op(src=d.src, dst=d.dst, mat=self._total_d[k])
