"""`tools/report_sweep.py` fingerprints every report so that two checkouts
can be compared byte for byte; a command it never runs could change its
output unnoticed."""

import importlib.util
import os

from abch.cli import COMMANDS

ROOT = os.path.join(os.path.dirname(__file__), "..")
SWEEP = os.path.join(ROOT, "tools", "report_sweep.py")


def _load_sweep():
    spec = importlib.util.spec_from_file_location("report_sweep", SWEEP)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_the_sweep_runs_every_command():
    sweep = _load_sweep()
    assert {argv[0] for argv in sweep.invocations(ROOT)} == set(COMMANDS)
