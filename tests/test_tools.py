"""The measurement scripts in `tools/` reach private names of abch (the
`Mat` kernel's `_mul_rows`, `_canon`, `_primitive` and rows `_r`, and each
`_memo`), so a refactor could break them unnoticed; each is run here once,
small, as a subprocess."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.mark.parametrize("script, args, keys", [
    ("zero_work_counts.py", [], {"per_pass", "cholesky_calls"}),
    ("metric_timing.py", ["--repeat", "1"], {"dense4_all_grams_ms"}),
    ("memo_census.py", [os.path.join(ROOT, "fixtures", "kodaira_thurston.cplx")], {"memos", "totals"}),
])
def test_tool_runs_and_ends_with_json(script, args, keys):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", script), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert keys <= set(last)
    if script == "memo_census.py":
        # the complex, the exact and float metric and both settings memoise
        assert {"BigradedComplex", "HermitianMetric", "NumericMetric", "ExactSetting",
                "NumericSetting"} <= set(last["memos"]) and last["exit"] == 0
        # one total per field, over every class and tag
        rows = [row for tags in last["memos"].values() for row in tags.values()]
        assert last["totals"] == {f: sum(row[f] for row in rows) for f in ("mat_parts", "ndarray_bytes")}
