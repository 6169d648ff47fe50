"""Per-layer tracing of abch from outside: wrappers installed by monkeypatching.

`Tracer.install()` wraps the public functions and methods of every abch
module (plus a few named dunders) and rebinds each wrapper in every abch
module namespace, and module-level dict, that held the original, so
`from abch.x import y` bindings are traced too.  Nothing under `src/` is
edited.  The scalar layer is counted, not timed: its arithmetic runs
hundreds of thousands of times per pass, and a timed span around each would
swamp the work it measures.

Each wrapped call is a span.  Its time goes to the function's self time
minus the time of wrapped calls made inside it, and, for the metric groups
the function belongs to, to the group's time once per outermost activation.
Spans of at least `SPAN_MIN_S` are kept in memory, tagged with their parent
span, and handed to the caller at the end of the operation.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import types
import weakref
from time import perf_counter
from typing import Callable, Dict, List, Tuple

LAYERS = ("scalars", "linalg", "model", "complexes", "metric", "setting",
          "laplacians", "cohomology", "covering", "reporting", "cli")
TIMED_LAYERS = LAYERS[1:]

# dunders wrapped as spans besides the public names
SPAN_DUNDERS = {
    "linalg.Mat.__matmul__",
    "metric.HermitianMetric.__init__",
    "metric.NumericMetric.__init__",
    "setting.ExactSetting.__init__",
    "setting.NumericSetting.__init__",
}
# QQi arithmetic, counted only
SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
}
SPAN_MIN_S = 1e-3

# metric -> wrapped functions whose outermost activations it times
TIME_GROUPS: Dict[str, Tuple[str, ...]] = {
    "model.parse_s": ("model.load_model", "model.parse_model"),
    "complexes.build_s": ("complexes.build_complex",),
    "complexes.conjugation_s": ("complexes.conjugation_matrix", "complexes.conjugate"),
    "metric.init_s": ("metric.HermitianMetric.__init__", "metric.NumericMetric.__init__"),
    "metric.gram_s": ("metric.HermitianMetric.gram", "metric.HermitianMetric.gram_space",
                      "metric.NumericMetric.gram", "metric.NumericMetric.gram_space"),
    "metric.adjoint_s": ("metric.HermitianMetric.adjoint", "metric.NumericMetric.adjoint_mat"),
    "setting.total_d_s": ("setting.ExactSetting.total_d", "setting.NumericSetting.total_d",
                          "complexes.total_d"),
    "setting.numeric_s": ("setting.NumericSetting.*",),
    "linalg.gram_adjoint_s": ("linalg.gram_adjoint",),
    "linalg.inv_s": ("linalg.Mat.inv",),
    "linalg.rref_s": ("linalg.Mat.rref",),
    "linalg.matmul_s": ("linalg.Mat.__matmul__",),
    "linalg.project_s": ("linalg.project_coords", "linalg.project", "linalg.projection_matrix_onto"),
    "linalg.subspace_s": ("linalg.span_basis", "linalg.subspace_dim", "linalg.subspace_contains",
                          "linalg.subspace_eq", "linalg.subspace_sum", "linalg.subspace_intersect",
                          "linalg.intersect_many"),
    "laplacians.harmonic_s": ("laplacians.harmonic_space", "laplacians.harmonic_characterization"),
    "laplacians.spectrum_s": ("laplacians.spectrum",),
    "laplacians.crosscheck_s": ("laplacians.LaplacianBundle.crosscheck",),
    "cohomology.tables_s": ("cohomology.all_tables", "cohomology.cohomology", "cohomology.betti_numbers"),
    "cohomology.harmonic_dims_s": ("cohomology.harmonic_dims",),
    "cohomology.diagram_s": ("cohomology.diagram_maps", "cohomology.bigraded_arrow"),
    "cohomology.ddbar_s": ("cohomology.ddbar_conditions",),
    "cohomology.subspaces_s": ("cohomology.abc_subspaces",),
    "cohomology.inequality_s": ("cohomology.inequality_report", "cohomology.exact_sequence_reports"),
    "cohomology.abc_s": ("cohomology.full_abc_complex",),
    "covering.build_s": ("covering.build_cover",),
    "covering.gamma_tables_s": ("covering.gamma_tables",),
    "covering.gamma_dimension_s": ("covering.gamma_dimension",),
    "covering.gap_s": ("covering.gap_and_closed_image", "covering.gap_table"),
    "covering.metric_independence_s": ("covering.metric_independence_check",),
    "reporting.render_s": ("reporting.*",),
}
# assemble is split by the backend of its setting argument
ASSEMBLE = "laplacians.assemble"
ASSEMBLE_GROUPS = ("laplacians.assemble_exact_s", "laplacians.assemble_numeric_s")

# metric -> wrapped functions whose calls it counts
CALL_COUNTS: Dict[str, Tuple[str, ...]] = {
    "model.parse_calls": ("model.parse_model",),
    "complexes.build_calls": ("complexes.build_complex",),
    "metric.gram_calls": ("metric.HermitianMetric.gram", "metric.NumericMetric.gram"),
    "metric.adjoint_calls": ("metric.HermitianMetric.adjoint", "metric.NumericMetric.adjoint_mat"),
    "setting.total_d_calls": ("setting.ExactSetting.total_d", "setting.NumericSetting.total_d",
                              "complexes.total_d"),
    "setting.deldbar_calls": ("setting.ExactSetting.deldbar_op", "setting.NumericSetting.deldbar_op"),
    "linalg.gram_adjoint_calls": ("linalg.gram_adjoint",),
    "linalg.inv_calls": ("linalg.Mat.inv",),
    "linalg.rref_calls": ("linalg.Mat.rref",),
    "linalg.matmul_calls": ("linalg.Mat.__matmul__",),
    "linalg.project_calls": ("linalg.project_coords", "linalg.project"),
    "linalg.basis_gram_calls": ("linalg.basis_gram",),
    "laplacians.assemble_calls": (ASSEMBLE,),
    "laplacians.spectrum_calls": ("laplacians.spectrum",),
    "covering.gamma_dimension_calls": ("covering.gamma_dimension",),
    "reporting.matrix_payload_calls": ("reporting.matrix_payload",),
}


def _matches(pattern: str, name: str) -> bool:
    return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern


class Target:
    """One wrapped callable and where it is bound."""

    def __init__(self, name: str, fn: Callable, owner, attr: str, binder):
        self.name = name  # layer-qualified, e.g. "linalg.Mat.rref"
        self.fn = fn  # the original
        self.owner = owner  # class, or None for a module-level function
        self.attr = attr
        self.binder = binder  # re-applies staticmethod/classmethod
        self.layer = name.split(".", 1)[0]


def _modules():
    return {layer: importlib.import_module(f"abch.{layer}") for layer in LAYERS}


def discover() -> List[Target]:
    """Every callable the tracer wraps, in a fixed order."""
    targets = []
    for layer, mod in _modules().items():
        for name, obj in sorted(vars(mod).items()):
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for mname, raw in obj.__dict__.items():
                    qual = f"{layer}.{obj.__name__}.{mname}"
                    if layer == "scalars":
                        if mname not in SCALAR_OPS:
                            continue
                    elif mname.startswith("_") and qual not in SPAN_DUNDERS:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        targets.append(Target(qual, raw.__func__, obj, mname, type(raw)))
                    elif isinstance(raw, types.FunctionType):
                        targets.append(Target(qual, raw, obj, mname, None))
            elif (layer != "scalars" and not name.startswith("_") and callable(obj)
                  and getattr(obj, "__module__", None) == mod.__name__
                  and (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"))):
                targets.append(Target(f"{layer}.{name}", obj, None, name, None))
    return targets


class Tracer:
    """Wrappers for every target, and the counters of the operation running
    in this process."""

    def __init__(self):
        self.targets = discover()
        self.names = [t.name for t in self.targets]
        self.group_names = list(TIME_GROUPS) + list(ASSEMBLE_GROUPS)
        self._installed: List[Tuple[object, str, object]] = []
        self.reset(0)

    # -- per-operation state ------------------------------------------------

    def reset(self, op_index: int) -> None:
        nf, ng = len(self.targets), len(self.group_names)
        self.op_index = op_index
        self.calls = [0] * nf
        self.self_t = [0.0] * nf
        self.group_t = [0.0] * ng
        self.active = [0] * ng
        self.scalar = {"add": 0, "mul": 0, "div": 0}
        self.rref_cells = 0
        self.inv_keys = set()
        self.assemble_distinct = 0
        self.assemble_seen = weakref.WeakKeyDictionary()
        self.cover_modes = 0
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self._ids = itertools.count()

    def snapshot(self) -> dict:
        return {
            "calls": self.calls, "self_t": self.self_t, "group_t": self.group_t,
            "scalar": self.scalar, "rref_cells": self.rref_cells,
            "inv_distinct": len(self.inv_keys), "assemble_distinct": self.assemble_distinct,
            "cover_modes": self.cover_modes, "spans": self.spans,
        }

    # -- wrappers ---------------------------------------------------------------

    def _groups_of(self, name: str) -> Tuple[int, ...]:
        return tuple(i for i, g in enumerate(TIME_GROUPS)
                     if any(_matches(p, name) for p in TIME_GROUPS[g]))

    def _hooks(self, name: str):
        """(pre, post) hooks for the few functions whose arguments or result
        feed a metric."""
        if name == "linalg.Mat.inv":
            def pre(args):
                self.inv_keys.add(hash(tuple(tuple(r) for r in args[0].rows)))
            return pre, None
        if name == "linalg.Mat.rref":
            def pre(args):
                self.rref_cells += args[0].nrows * args[0].ncols
            return pre, None
        if name == ASSEMBLE:
            base = len(TIME_GROUPS)
            numeric_cls = importlib.import_module("abch.setting").NumericSetting

            def pre(args):
                setting, kind, b = args[0], args[1], args[2]
                seen = self.assemble_seen.setdefault(setting, set())
                if (kind, b) not in seen:
                    seen.add((kind, b))
                    self.assemble_distinct += 1
                return (base + isinstance(setting, numeric_cls),)
            return pre, None
        if name == "covering.build_cover":
            def post(result):
                self.cover_modes += result.mode_count()
            return None, post
        return None, None

    def _span(self, fid: int, fn: Callable) -> Callable:
        name = self.names[fid]
        groups = self._groups_of(name)
        pre, post = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gs = groups + (pre(args) or ()) if pre is not None else groups
            tracer.calls[fid] += 1
            active = tracer.active
            for g in gs:
                active[g] += 1
            stack = tracer.stack
            frame = [0.0, next(tracer._ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                tracer.self_t[fid] += d - frame[0]
                parent = -1
                if stack:
                    stack[-1][0] += d
                    parent = stack[-1][1]
                for g in gs:
                    active[g] -= 1
                    if not active[g]:
                        tracer.group_t[g] += d
                if d >= SPAN_MIN_S:
                    tracer.spans.append((frame[1], parent, tracer.op_index, fid, t0, t1))
            if post is not None:
                post(result)
            return result

        return wrapper

    def _count(self, fid: int, fn: Callable) -> Callable:
        key, tracer = SCALAR_OPS[self.targets[fid].attr], self

        @functools.wraps(fn)
        def wrapper(*args):
            tracer.calls[fid] += 1
            tracer.scalar[key] += 1
            return fn(*args)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every target to its wrapper; `uninstall` restores."""
        modules = list(_modules().values()) + [importlib.import_module("abch")]
        for fid, t in enumerate(self.targets):
            make = self._count if t.layer == "scalars" else self._span
            w = make(fid, t.fn)
            if t.owner is not None:
                bound = t.binder(w) if t.binder else w
                self._set(t.owner, t.attr, bound)
                continue
            for mod in modules:
                ns = vars(mod)
                for key, val in list(ns.items()):
                    if val is t.fn:
                        self._set(mod, key, w)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k, v in list(val.items()):
                            if v is t.fn:
                                self._installed.append((val, k, v))
                                val[k] = w

    def _set(self, obj, attr: str, value) -> None:
        self._installed.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._installed):
            if isinstance(obj, dict):
                obj[attr] = old
            else:
                setattr(obj, attr, old)
        self._installed.clear()


def layer_metrics(tracer: Tracer, snaps: List[dict]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass from its per-operation snapshots."""
    nf, ng = len(tracer.names), len(tracer.group_names)
    calls, self_t, group_t = [0] * nf, [0.0] * nf, [0.0] * ng
    scalar = {"add": 0, "mul": 0, "div": 0}
    extra = {"rref_cells": 0, "inv_distinct": 0, "assemble_distinct": 0, "cover_modes": 0}
    for s in snaps:
        for i in range(nf):
            calls[i] += s["calls"][i]
            self_t[i] += s["self_t"][i]
        for i in range(ng):
            group_t[i] += s["group_t"][i]
        for k in scalar:
            scalar[k] += s["scalar"][k]
        for k in extra:
            extra[k] += s[k]
    out: Dict[str, Tuple[float, str]] = {}
    for i, g in enumerate(tracer.group_names):
        out[g] = (group_t[i], "s")
    for metric, names in CALL_COUNTS.items():
        out[metric] = (sum(calls[tracer.names.index(n)] for n in names), "count")
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (sum(self_t[i] for i, n in enumerate(tracer.names)
                                      if n.split(".", 1)[0] == layer), "s")
    for k, v in scalar.items():
        out[f"scalars.{k}_calls"] = (v, "count")
    out["linalg.rref_cells"] = (extra["rref_cells"], "count")
    inv_calls = out["linalg.inv_calls"][0]
    out["linalg.inv_unique_ratio"] = (extra["inv_distinct"] / inv_calls if inv_calls else 1.0, "ratio")
    asm_calls = out["laplacians.assemble_calls"][0]
    out["laplacians.assemble_unique_ratio"] = (
        extra["assemble_distinct"] / asm_calls if asm_calls else 1.0, "ratio")
    out["covering.modes"] = (extra["cover_modes"], "count")
    return out
