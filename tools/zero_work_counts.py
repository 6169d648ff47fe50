"""Count the exact-kernel work of one benchmark pass that has an all-zero
operand, and the Cholesky factorisations of two spectra and two cover
reports.

    python tools/zero_work_counts.py [--root CHECKOUT] [--workload invariant_n3]

For every operation of one pass of the workload (`perfbench/workloads.py`,
seed 1), run in process with stdout captured, the script counts the calls
of `Mat.__matmul__`, `Mat.__add__`/`__sub__` and `Mat.rref`, the calls among
them with an operand that has no nonzero entry, and the row work those
calls do: calls of the kernel's row helpers (`_mul_rows`, `_canon`,
`_primitive`) and of `Mat.__neg__` made inside them.  It also counts the
matmuls whose two operands are the very objects of an earlier matmul, and
the `numpy.linalg.cholesky` calls of `spectra --backend both` on the
Iwasawa and `n4_chain` models and of `cover` on `fixtures/index2.cover`
and `fixtures/index2_n2.cover`.  `--root` names the checkout whose `src/`
and `perfbench/` are used (by default the one holding this script).  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from collections import Counter

HELPERS = ("_mul_rows", "_canon", "_primitive")


def _load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class Counts:
    """Wrappers on the exact kernel that tally calls, zero-operand calls and
    the row work done inside the latter."""

    def __init__(self, linalg):
        self.c = Counter()
        self.zero_depth = 0
        self.seen = set()
        self.keep = []  # operands stay alive, so no id is reused
        Mat = linalg.Mat
        for name in HELPERS:
            setattr(linalg, name, self._helper(name, getattr(linalg, name)))
        Mat.__neg__ = self._helper("neg", Mat.__neg__)
        Mat.__matmul__ = self._op("matmul", Mat.__matmul__)
        Mat.__add__ = self._op("add", Mat.__add__)
        Mat.__sub__ = self._op("sub", Mat.__sub__)
        Mat.rref = self._op("rref", Mat.rref)

    def _helper(self, name, fn):
        def wrapped(*args):
            if self.zero_depth:
                self.c[f"row_work_in_zero_ops.{name}"] += 1
            return fn(*args)
        return wrapped

    def _op(self, name, fn):
        def wrapped(*args):
            self.c[f"{name}.calls"] += 1
            if name == "matmul":
                key = (id(args[0]), id(args[1]))
                if key in self.seen:
                    self.c["matmul.repeated_operands"] += 1
                self.seen.add(key)
                self.keep.append(args)
            zero = any(a.is_zero() for a in args)
            if not zero:
                return fn(*args)
            self.c[f"{name}.zero_operand"] += 1
            self.zero_depth += 1
            try:
                return fn(*args)
            finally:
                self.zero_depth -= 1
        return wrapped


def _run(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--workload", default="invariant_n3")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from abch import cli, linalg

    workloads = _load(os.path.join(root, "perfbench", "workloads.py"), "bench_workloads")
    counts = Counts(linalg)
    cholesky = np.linalg.cholesky
    chol = Counter()

    def counted_cholesky(a):
        chol["calls"] += 1
        return cholesky(a)

    np.linalg.cholesky = counted_cholesky
    out = {"workload": args.workload, "per_pass": {}, "cholesky_calls": {}}
    with tempfile.TemporaryDirectory() as tmp:
        workloads.write_inputs(tmp, 1)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for op in workloads.operations(args.workload, 1):
                _run(cli, op.argv)
            out["per_pass"] = dict(sorted(counts.c.items()))
            for model in ("iwasawa", "n4_chain"):
                counts.c.clear()
                counts.seen.clear()
                chol.clear()
                _run(cli, ("spectra", f"{model}.cplx", "--backend", "both", "--format", "json"))
                out["cholesky_calls"][model] = chol["calls"]
                out[f"{model}_spectra_matmul"] = {k: v for k, v in counts.c.items() if k.startswith("matmul.")}
            for cover in ("index2.cover", "index2_n2.cover"):
                chol.clear()
                _run(cli, ("cover", os.path.join(root, "fixtures", cover), "--format", "json"))
                out["cholesky_calls"][cover] = chol["calls"]
        finally:
            os.chdir(cwd)
    for key, value in out["per_pass"].items():
        print(f"{key:45s} {value}")
    for name, value in out["cholesky_calls"].items():
        command = "cover" if name.endswith(".cover") else "spectra --backend both"
        print(f"cholesky calls, {name} {command}: {value}")
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
