"""Time the exact Gram work of a metric, in process.

    python tools/metric_timing.py [--root CHECKOUT] [--repeat 5] [--dense6]

For `dense4` (the dense complex n = 4 metric of ROADMAP's Baseline), and
with `--dense6` also for a dense complex n = 6 metric, the script makes a
fresh `HermitianMetric` and builds every Gram and inverse Gram
(`gram_space`, `gram_inv_space`) of every bidegree and every total degree,
and reports the wall time of that, construction included.  It times the
same work for the identity metric `HermitianMetric(4, I)`: construction
alone builds no compound, so only construction plus every Gram compares
across versions.  Each figure is the median of `--repeat` runs
(`--dense6` runs once: it takes minutes on code that checks the inverse at
full size).  `--root` names the checkout whose `src/` is used (by default
the one holding this script).  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

DENSE4 = """n = 4
H[1][1] = 2
H[2][2] = 2
H[3][3] = 2
H[4][4] = 2
H[1][2] = (1/2 + 1/3 i)
H[1][3] = (1/5 - 1/7 i)
H[1][4] = (1/11 + 1/13 i)
H[2][3] = (-1/3 + 1/2 i)
H[2][4] = (1/7 - 1/5 i)
H[3][4] = (-1/13 + 1/11 i)
"""


def dense6() -> str:
    """n = 6, diagonal 6, and H[j][k] = (1/(j + k) + i (-1)^j/(j k + 1))
    above it: every off-diagonal entry has modulus below 0.71, so H is
    diagonally dominant and positive definite."""
    lines = ["n = 6"] + [f"H[{j}][{j}] = 6" for j in range(1, 7)]
    for j in range(1, 7):
        for k in range(j + 1, 7):
            sign = "+" if j % 2 == 0 else "-"
            lines.append(f"H[{j}][{k}] = (1/{j + k} {sign} 1/{j * k + 1} i)")
    return "\n".join(lines) + "\n"


def time_all_grams(metric_mod, complexes, n: int, H) -> float:
    """Seconds to construct HermitianMetric(n, H) and build every Gram and
    inverse Gram of every bidegree and total degree."""
    t0 = time.perf_counter()
    m = metric_mod.HermitianMetric(n, H)
    spaces = [((p, q),) for p in range(n + 1) for q in range(n + 1)]
    spaces += [complexes.total_bidegrees(n, k) for k in range(2 * n + 1)]
    for space in spaces:
        m.gram_space(space)
        m.gram_inv_space(space)
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--dense6", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from abch import complexes, metric
    from abch.linalg import Mat

    out = {
        "dense4_all_grams_ms": 1e3 * statistics.median(
            time_all_grams(metric, complexes, *metric.parse_metric(DENSE4)) for _ in range(args.repeat)
        ),
    }
    out["identity4_all_grams_ms"] = 1e3 * statistics.median(
        time_all_grams(metric, complexes, 4, Mat.identity(4)) for _ in range(args.repeat)
    )
    if args.dense6:
        out["dense6_all_grams_s"] = time_all_grams(metric, complexes, *metric.parse_metric(dense6()))
    for key, value in out.items():
        print(f"{key:22s} {value:.3f}")
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
