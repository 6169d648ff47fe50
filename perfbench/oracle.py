"""Exact-result oracle: the metric-independent certified fields of a report.

`ORACLE_FILE` holds, for every identity-metric operation of every workload,
the fields below as abch computed them; known Betti numbers are checked
independently.  A dense-metric operation is judged against the identity-metric
record of the same model, because Bott-Chern, Aeppli and Dolbeault dimensions
and the subspace grids do not depend on the metric.  `ddbar` condition flags
are left out on purpose: condition f is checked wrongly today, and fixing that
must not read as a benchmark failure.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from workloads import Op

ORACLE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle.json")

# Betti numbers of the invariant complexes, known independently of abch
# (Nomizu: invariant forms compute the de Rham cohomology of a nilmanifold).
KNOWN_BETTI = {
    "iwasawa": [1, 4, 8, 10, 8, 4, 1],
    "kodaira_thurston": [1, 3, 4, 3, 1],
    "torus2": [1, 4, 6, 4, 1],
}


def certified_fields(command: str, report: dict) -> Optional[dict]:
    """The fields of `report` the oracle records, or None for a command whose
    certified output the oracle does not cover."""
    if command == "cohomology":
        return {"tables": report["tables"], "betti": report["betti"]}
    if command == "inequality":
        return {"subspace_dims": report["subspace_dims"]}
    if command == "abc":
        return {"h": report["h"], "harmonic_dims": report["harmonic_dims"]}
    if command == "spectra":
        return {b: {kind: entry["kernel_dim"] for kind, entry in kinds.items()}
                for b, kinds in report["spectra"].items()}
    if command == "diagram":
        return {k: {name: [arrow["injective"], arrow["surjective"]]
                    for name, arrow in deg["arrows"].items()}
                for k, deg in report["degrees"].items()}
    if command == "cover":
        return {"grids": report["grids"]}
    return None


def _restrict(command: str, record: dict, pq: Optional[str]) -> dict:
    """The part of a full identity-metric record that an op restricted by
    --pq reproduces."""
    if command == "spectra" and pq is not None:
        key = str(tuple(int(x) for x in pq.split(",")))
        return {key: record[key]}
    return record


def load_records() -> Dict[str, dict]:
    with open(ORACLE_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verdict(op: Op, report: dict, records: Dict[str, dict]) -> List[str]:
    """Oracle mismatches of one report; empty when it agrees."""
    problems = []
    fields = certified_fields(op.command, report)
    if op.oracle_key is not None:
        record = records.get(op.oracle_key)
        if record is None:
            problems.append(f"no oracle record {op.oracle_key}")
        elif fields != _restrict(op.command, record, op.pq):
            problems.append(f"certified fields differ from oracle record {op.oracle_key}")
    if op.command == "cohomology":
        model = op.oracle_key.split(":", 1)[0]
        known = KNOWN_BETTI.get(model)
        if known is not None and report["betti"] != known:
            problems.append(f"betti {report['betti']} != known {known}")
    return problems
