"""Seeded inputs and operation lists of the benchmark workloads.

Every input file the program reads is written here, from the workload seed,
into a scratch directory of the checkout.  An operation is one CLI
invocation: its argv, the oracle record it is judged against, and whether it
is the workload's focus operation, the one the workload is built around.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

WORKLOADS = ("invariant_n3", "dense_metric_n3", "stress_n4")

MODELS = {
    "iwasawa": "n = 3\nname = iwasawa\nd phi3 = -1 * phi1 ^ phi2\n",
    "kodaira_thurston": "n = 2\nname = kodaira_thurston\nd phi2 = phi1 ^ phibar1\n",
    "torus2": "n = 2\nname = torus2\n",
    "n4_chain": "n = 4\nname = n4_chain\nd phi3 = phi1 ^ phi2\nd phi4 = phi1 ^ phi3\n",
    "n4_mixed": "n = 4\nname = n4_mixed\nd phi3 = phi1 ^ phibar1\nd phi4 = phi1 ^ phi2\n",
}

# index-2 sublattice of the square torus, Fourier-truncated at a radius
COVERS = {"cover_n1_rhalf": (1, Fraction(1, 2))}


@dataclass(frozen=True)
class Op:
    label: str
    argv: Tuple[str, ...]
    command: str
    oracle_key: Optional[str]  # identity-metric record this op must match
    pq: Optional[str] = None  # bidegree the op restricts itself to
    focus: bool = False


def _cover_text(n: int, radius: Fraction) -> str:
    dim = 2 * n
    base = [[int(i == j) for j in range(dim)] for i in range(dim)]
    sub = [row[:] for row in base]
    sub[0][0] = 2
    fmt = lambda m: "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in m) + "]"
    return f"n = {n}\nbase = {fmt(base)}\nsub = {fmt(sub)}\nradius = {radius}\n"


# Off-diagonal denominators of the dense metrics; each seed permutes them and
# draws the signs, so every seed's metric has fractions of the same size and
# the workload's cost does not drift with the seed.
DENOMINATORS = (2, 3, 5, 7, 11, 13)


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dense_metric_text(rng: random.Random, n: int, complex_entries: bool) -> str:
    """A dense Hermitian metric whose off-diagonal entries are +-1/d (+-1/d' i)
    and whose diagonal is 2, so it is strictly diagonally dominant, hence
    positive definite (abch certifies this by its leading minors)."""
    dens = list(DENOMINATORS)
    rng.shuffle(dens)
    lines = [f"n = {n}"] + [f"H[{i}][{i}] = 2" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            re = Fraction(rng.choice((-1, 1)), dens.pop())
            if not complex_entries:
                lines.append(f"H[{i}][{j}] = {_fmt(re)}")
                continue
            im = Fraction(rng.choice((-1, 1)), dens.pop())
            sign = "+" if im > 0 else "-"
            lines.append(f"H[{i}][{j}] = ({_fmt(re)} {sign} {_fmt(abs(im))} i)")
    return "\n".join(lines) + "\n"


def _model_ops(model: str, commands, metric: Optional[str] = None, tag: str = "") -> List[Op]:
    ops = []
    for cmd, *extra in commands:
        path = f"{model}.cplx"
        argv = [cmd, path, *extra, "--format", "json"]
        if metric:
            argv += ["--metric", metric]
        pq = extra[extra.index("--pq") + 1] if "--pq" in extra else None
        key = None if cmd in ("check", "ddbar") else f"{model}:{cmd}"
        if pq and cmd != "spectra":  # a restricted spectra op is judged on part of the full record
            key += f"@{pq}"
        label = f"{model}{tag}:{cmd}" + (f"@{pq}" if pq else "")
        ops.append(Op(label, tuple(argv), cmd, key, pq))
    return ops


def _cover_op(name: str, seed: int) -> Op:
    argv = ("cover", f"{name}.cover", "--seed", str(seed), "--format", "json")
    return Op(name + ":cover", argv, "cover", f"{name}:cover")


def _core(seed: int) -> List[Op]:
    """Every command on Kodaira-Thurston plus the small cover: each workload
    runs these, so every layer and command is exercised on every workload."""
    kt = (("check",), ("cohomology",), ("ddbar",), ("inequality",), ("diagram",),
          ("spectra", "--backend", "both"), ("abc", "--pq", "1,1"))
    return _model_ops("kodaira_thurston", kt) + [_cover_op("cover_n1_rhalf", seed)]


def _focus(ops: List[Op], label: str) -> List[Op]:
    if not any(op.label == label for op in ops):
        raise ValueError(f"no operation {label!r}")
    return [replace(op, focus=op.label == label) for op in ops]


def operations(workload: str, seed: int) -> List[Op]:
    """The ordered operation list of one pass of `workload`."""
    spectra_seed = ("--seed", str(seed))
    if workload == "invariant_n3":
        # identity metric: projections dominate diagram, the full spectra
        # report is about 420 KB of JSON
        iw = (("check",), ("cohomology",), ("ddbar",), ("abc", "--pq", "2,1"),
              ("diagram", "--pq", "1,1"), ("spectra", "--backend", "both", *spectra_seed))
        ops = _model_ops("iwasawa", iw) + _model_ops("torus2", (("cohomology",),)) + _core(seed)
        return _focus(ops, "iwasawa:diagram@1,1")
    if workload == "dense_metric_n3":
        # same model, dense metrics: Gram inversions on growing fractions
        # dominate; complex-metric spectra shows the gram_symmetrize defect
        spectra = ("spectra", "--backend", "both", "--pq", "1,1", *spectra_seed)
        dense = (("abc", "--pq", "1,1"), ("abc", "--pq", "2,1"), spectra)
        ops = (_model_ops("iwasawa", dense, "dense_complex.herm", "+complex")
               + _model_ops("iwasawa", (spectra,), "dense_real.herm", "+real") + _core(seed))
        return _focus(ops, "iwasawa+complex:abc@1,1")
    if workload == "stress_n4":
        # 70-dimensional bidegrees: exact elimination dominates; ddbar uses
        # no metric, the control for Gram-side changes
        ops = (_model_ops("n4_chain", (("check",), ("ddbar",), ("abc", "--pq", "2,2")))
               + _model_ops("n4_mixed", (("check",),)) + _core(seed))
        return _focus(ops, "n4_chain:abc@2,2")
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(directory: str, seed: int) -> None:
    """Write every model, metric and cover file an operation can name."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    files = {f"{name}.cplx": text for name, text in MODELS.items()}
    files.update({f"{name}.cover": _cover_text(*spec) for name, spec in COVERS.items()})
    files["dense_complex.herm"] = dense_metric_text(rng, 3, complex_entries=True)
    files["dense_real.herm"] = dense_metric_text(rng, 3, complex_entries=False)
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
