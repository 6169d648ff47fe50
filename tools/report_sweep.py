"""Fingerprint every abch report: one sha256 per CLI invocation.

For each invocation the script runs `abch.cli.main` in process and prints
one line, the sha256 of its stdout, stderr and exit code, followed by the
arguments.  The sweep covers every command (with the backend and `--pq`
variants below) on every `.cplx` fixture, with no metric and with each
`.herm` fixture, in json, md and csv, plus `cover` on every `.cover` fixture
under the same metric choices at `--seed` 1, 7 and 99.  A metric of the
wrong dimension is an input error (exit 2); that report is hashed too.

Two checkouts give the same lines exactly when every report is
byte-identical:

    python tools/report_sweep.py > after.txt
    python tools/report_sweep.py --root ../parent > before.txt
    diff before.txt after.txt

`--root` names the checkout whose `src/` and `fixtures/` are run (by
default the one holding this script), so the script also sweeps a checkout
that predates it.  The full sweep (1,998 invocations) takes 8 to 12 s on
one core of a 2-core Intel Xeon machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys

VARIANTS = {
    "check": [[]],
    "cohomology": [[], ["--backend", "both"]],
    "spectra": [[], ["--pq", "1,1"]],
    "diagram": [[], ["--pq", "1,1"]],
    "ddbar": [[]],
    "inequality": [[]],
    "abc": [[], ["--pq", "1,1"], ["--pq", "2,1"], ["--pq", "2,2"], ["--pq", "0,2"], ["--pq", "2,0"]],
}
FORMATS = ("json", "md", "csv")
COVER_SEEDS = (1, 7, 99)


def invocations(root: str):
    """The argument lists of the sweep, in a fixed order."""
    names = sorted(os.listdir(os.path.join(root, "fixtures")))
    fixtures = [f"fixtures/{f}" for f in names]
    metrics = [[]] + [["--metric", f] for f in fixtures if f.endswith(".herm")]
    for path in (f for f in fixtures if f.endswith(".cplx")):
        for command, variants in VARIANTS.items():
            for extra in variants:
                for metric in metrics:
                    for fmt in FORMATS:
                        yield [command, path, *extra, *metric, "--format", fmt]
    for path in (f for f in fixtures if f.endswith(".cover")):
        for metric in metrics:
            for seed in COVER_SEEDS:
                for fmt in FORMATS:
                    yield ["cover", path, *metric, "--seed", str(seed), "--format", fmt]


def fingerprint(main, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse front end (older checkouts) rejects the line
            code = exc.code
    blob = "\0".join([out.getvalue(), err.getvalue(), str(code)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."),
                    help="checkout to sweep (default: the one holding this script)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    os.chdir(root)  # reports name their input paths, so run them from the same relative paths
    from abch.cli import main as abch_main

    for argv in invocations(root):
        print(fingerprint(abch_main, argv), " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
