"""Golden reports: the sha256 of the `--format json` report of each command.

The hashes pin every byte of the report, so a refactor that changes a
dimension, a flag, a matrix entry or a printed eigenvalue fails here.  The
commands run in-process from the repository root with relative paths,
because reports echo the paths they were given.
"""

import hashlib
import os

import pytest

from abch.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")

KT = "fixtures/kodaira_thurston.cplx"
IW = "fixtures/iwasawa.cplx"
DIAG21 = ("--metric", "fixtures/diag21.herm")
DENSE3 = ("--metric", "fixtures/dense3.herm")  # complex off-diagonal entries
N4 = "fixtures/n4_chain.cplx"  # n = 4: (2,2) is 36-dimensional, degree 4 is 70

GOLDEN = [
    (("check", KT),
     "f1ac1f4daf610a9fa4fc471a26251d0812e81fa1a7bed10fdd402b1130169e71"),
    (("cohomology", KT),
     "0eedece3d03639a48369912745c0a64ac6cb2980836d1443a894ba59b378fc49"),
    (("spectra", KT, "--backend", "both"),
     "f03a69bcb1c97333e6cc491fbe0e6ffaa890c7e2344f00ab63e530bdf8606f21"),
    (("diagram", KT),
     "d5422c8332994e7da208a90cdf975317a27ef3d47da6dae0c1eb1518c219653e"),
    (("ddbar", KT),
     "54068864c8c3185b53fbc33c5b19877060a48c018db9b7d14c1586fa5cc28af1"),
    (("inequality", KT),
     "cd4b9c00998a80dc1d1fa76d9804de0249c9a979ef1a62e01002f4f9daa1c0c2"),
    (("abc", KT, "--pq", "1,1"),
     "e218e698d77a0998dc6a87808bff01ea60e424523ad7eee34ed79e38cb6934dc"),
    (("cohomology", "fixtures/torus2.cplx"),
     "9b07f073b999a734cb2c6940f060593ec861419ad19a2d5b16ea4db2f40c9209"),
    (("cohomology", IW),
     "679a39125d6a49fc0e67c181c2b4edaaeb61e3a28e75966f6f4754fe63c4ef45"),
    (("ddbar", IW),
     "1e6518c0b22cd175e07e8d922f1d2d9e3064d09b0d2502d94d5475d3de8b5e80"),
    (("inequality", IW),
     "4f8f4b48de3ad5b1cd41ee778378565fc066111b27a195bedd52deff1522dd97"),
    (("diagram", IW, "--pq", "1,1"),
     "a2f2287e999899d0d702c132c081eccdf3516fcf2ddefb48721c6d4ff6051b4f"),
    (("spectra", IW, "--backend", "both", "--pq", "1,1"),
     "14d848990416935c4e82ff604819406e4bb18f60335d5e7a51daacd7dfcb94a0"),
    (("abc", IW, "--pq", "2,1"),
     "6450503e6aef47c93aa1cbebcbf7e594da715e5edce1ac237fd6a6e5d8b6b39c"),
    (("inequality", KT, *DIAG21),
     "e71a59fff18c900aa6385822510b4075d3bc2e2da17cce2a231fb33a23edb397"),
    (("spectra", KT, "--backend", "both", *DIAG21),
     "6196290e12ebe8d1d480c16b646f8d46f32144f552c3a459960406dab4400a4a"),
    (("cohomology", IW, *DENSE3),
     "3db25a86a7db4500fa339dff08eefe2ae2bb3c5d6f726b2d0fd67b7e9016372a"),
    (("abc", IW, "--pq", "1,1", *DENSE3),
     "cbe5a73defbb176f7e6a8cc5989d995e35702b3d92eb4172961a9466907c2a1d"),
    (("spectra", IW, "--backend", "both", "--pq", "1,1", *DENSE3),
     "e847f9d66e127ab39d0cf9232ff3d4a904883888670e60d6ffac30a46b892caf"),
    (("spectra", IW, "--backend", "both", *DENSE3),
     "9c41492dfd5a2d1982710b1617116210690ca2c2e62aea168f2ca88a1a5b95fe"),
    (("ddbar", N4),
     "163e833dbffda703479a516f26e1de3ab73c8820fa2951d26451e31625fb0e77"),
    (("abc", N4, "--pq", "2,2"),
     "02b332c091bc27cd2806979a59a4f7a2f25a466a1db719f417c9a4633030159f"),
    (("cover", "fixtures/index2.cover"),
     "162d5e004d530b3784b1e9d500f32d4e9ed37238356ccd937891a2d9e200998f"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_report(argv, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
