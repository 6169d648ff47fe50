"""Count what every memo holds after one `spectra` run.

    python tools/memo_census.py MODEL

Runs `abch spectra MODEL` in process, stdout captured, with
`Memo.cached` wrapped to collect every memoising object.  Then it prints,
per class and key tag (the key, or its first part), the entry count, the
parts the exact matrices store (two integers per nonzero `Mat` entry) and
the float arrays' `nbytes`, each matrix or array counted once, under the
first entry that holds it, and then one total row over every memo.  The
last line is one JSON object, its `totals` the total row's parts and bytes.
"""

import contextlib
import dataclasses
import io
import json
import os
import sys

FIELDS = ("entries", "mat_parts", "ndarray_bytes")


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/memo_census.py MODEL")
    model = sys.argv[1]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import numpy as np
    from abch import cli
    from abch.complexes import Memo, Op
    from abch.linalg import Mat

    owners, cached, seen = {}, Memo.cached, set()
    Memo.cached = lambda self, key, build: cached(owners.setdefault(id(self), self), key, build)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["spectra", model])
    Memo.cached = cached

    def size(v):
        """(Mat parts, ndarray bytes) in one memo value, not counted before."""
        if isinstance(v, Op):
            v = v.mat
        if isinstance(v, (Mat, np.ndarray)):
            if id(v) in seen:
                return 0, 0
            seen.add(id(v))
            return (2 * sum(map(len, v._r)), 0) if isinstance(v, Mat) else (0, v.nbytes)
        if dataclasses.is_dataclass(v) and not isinstance(v, Memo):
            v = vars(v)
        items = list(v.values()) if isinstance(v, dict) else v if isinstance(v, (list, tuple)) else []
        return tuple(map(sum, zip((0, 0), *map(size, items))))

    census = {}
    for owner in owners.values():
        for key, value in owner._memo.items():
            tag = str(key if isinstance(key, str) else key[0])
            row = census.setdefault(type(owner).__name__, {}).setdefault(tag, dict.fromkeys(FIELDS, 0))
            for field, x in zip(FIELDS, (1, *size(value))):
                row[field] += x
    rows = [row for tags in census.values() for row in tags.values()]
    totals = {f: sum(row[f] for row in rows) for f in FIELDS}
    line = "{:<16} {:<10}" + " {:>13}" * len(FIELDS)
    print(line.format("class", "tag", *FIELDS))
    for cls, tags in sorted(census.items()):
        for tag, row in sorted(tags.items()):
            print(line.format(cls, tag, *(row[f] for f in FIELDS)))
    print(line.format("total", "", *(totals[f] for f in FIELDS)))
    print(json.dumps({"model": model, "exit": code, "memos": census,
                      "totals": {f: totals[f] for f in FIELDS[1:]}}))
    return code


if __name__ == "__main__":
    sys.exit(main())
