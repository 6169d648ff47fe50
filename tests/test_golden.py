"""Golden reports: the sha256 of the `--format json` report of each command,
and of the `md` or `csv` report where an entry names its own `--format`.

The hashes pin every byte of the report, so a refactor that changes a
dimension, a flag, a matrix entry or a printed eigenvalue fails here.  The
commands run in-process from the repository root with relative paths,
because reports echo the paths they were given.
"""

import hashlib
import os

import pytest

from abch import cohomology
from abch.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")

KT = "fixtures/kodaira_thurston.cplx"
IW = "fixtures/iwasawa.cplx"
DIAG21 = ("--metric", "fixtures/diag21.herm")
DENSE3 = ("--metric", "fixtures/dense3.herm")  # complex off-diagonal entries
N4 = "fixtures/n4_chain.cplx"  # n = 4: (2,2) is 36-dimensional, degree 4 is 70
N4_MIXED = "fixtures/n4_mixed.cplx"  # n = 4 with a d phi3 of type (1,1)

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
     "b54a40e5bf245c21bb4e0c059ad0431de853956c2e7b4125780632ecbc9f2112"),
    (("abc", KT, "--pq", "1,1"),
     "e218e698d77a0998dc6a87808bff01ea60e424523ad7eee34ed79e38cb6934dc"),
    (("cohomology", "fixtures/torus2.cplx"),
     "9b07f073b999a734cb2c6940f060593ec861419ad19a2d5b16ea4db2f40c9209"),
    (("cohomology", IW),
     "679a39125d6a49fc0e67c181c2b4edaaeb61e3a28e75966f6f4754fe63c4ef45"),
    (("ddbar", IW),
     "1e6518c0b22cd175e07e8d922f1d2d9e3064d09b0d2502d94d5475d3de8b5e80"),
    (("inequality", IW),
     "99f5eaf3133ca379193b77ceafdad0195fa50a056de3b1298e716d5672b5c9f3"),
    (("diagram", IW, "--pq", "1,1"),
     "a2f2287e999899d0d702c132c081eccdf3516fcf2ddefb48721c6d4ff6051b4f"),
    (("spectra", IW, "--backend", "both", "--pq", "1,1"),
     "14d848990416935c4e82ff604819406e4bb18f60335d5e7a51daacd7dfcb94a0"),
    (("abc", IW, "--pq", "2,1"),
     "6450503e6aef47c93aa1cbebcbf7e594da715e5edce1ac237fd6a6e5d8b6b39c"),
    (("inequality", KT, *DIAG21),
     "52d77153d6f8cf99296ea53a2f5ff51f670a2b40693d303df99ed0e5e8291150"),
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
    (("cohomology", N4),  # rank-nullity at n = 4
     "dc0abe287f47b3c1812c10cd2d7d5540b7baa914100c4afc99c95b6004cb6b05"),
    # every condition fails, with witnesses at (0, 2) and (0, 1)
    (("ddbar", N4_MIXED),
     "e98b4e563049ed477ffb46bc4ebb9d4a466c4633ceac0f4e1d79d9193c73b5b5"),
    (("inequality", N4_MIXED),
     "48f9988524eb5a74d6d537bee9acf07d1cb56b9f10f831d2acf515fd336539f7"),
    # the two largest reports: every kernel basis at every bidegree
    (("spectra", IW, "--backend", "both"),
     "645e8e63e57c79c208eaec170e735bf7d2f75cc1b5320721b77dfede86cd5ced"),
    (("spectra", N4, "--backend", "both"),
     "f6d2a6840cf8139d2546b0fea994dfa14a5cf1fd98ad3610575d85ef5d5ca4c2"),
    # star subspaces and exact-sequence projections under a complex metric
    (("inequality", IW, *DENSE3),
     "4b9e6752b0f53c5eb357e7d48ae136df832a18a5d323a19cc43a4a0bfe12e379"),
    # star subspaces under a complex metric on n = 2: a gram_adjoint that
    # leaves the inverse source Gram unconjugated changes this report only
    (("inequality", KT, "--metric", "fixtures/kt_complex.herm"),
     "0b576483ab74e16c21bda92205a9ce1f7986dc27d2d0d3300fc1daa0537edcc7"),
    (("cover", "fixtures/index2.cover"),
     "162d5e004d530b3784b1e9d500f32d4e9ed37238356ccd937891a2d9e200998f"),
    (("cover", "fixtures/index2.cover", "--metric", "fixtures/h3.herm"),
     "93e7046b6adc9e79a9661b40e22289b3260969ac31a503ef0e45c8107c608b6f"),
    (("cover", "fixtures/index2_n2.cover"),  # n = 2: 4-dimensional lattices
     "a00600bfc5e30685ed8c917b6d2307d4d546b3f054c151db5292ecf931bbcced"),
    # the text reports
    (("cohomology", KT, "--format", "md"),
     "f4d8143c9779abac53191dbf84a8ba1e4a3e784d8e38a354c26aa934d5636281"),
    (("cohomology", KT, "--format", "csv"),
     "492cb72694829aa4900480ce89cfa9b2f1b49b874b8ac0688116f6cf50309933"),
    (("inequality", IW, "--format", "md"),
     "7b1a2fae902395709285c6fec24de2cb4c5f2f30497d39659c8c9f134dd37c26"),
    (("inequality", IW, "--format", "csv"),
     "2556140d153c69a702ff796333772fd65248a91805d8da7cbbf82a12a161bdff"),
    (("abc", IW, "--pq", "2,1", "--format", "md"),
     "fcffe1a9e92ad3f91b4d0263d0765f4f838fbde1195c84f1aa2011b12ffa0109"),
    (("cover", "fixtures/index2.cover", "--format", "md"),
     "08a92e86ea1e9136fa904125e712037dabaa2c5c25a461f6a0763bdcedd9d8c8"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_report(argv, digest, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    # an entry's own `--format` comes after the default and wins
    assert main(["--format", "json", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# n = 5, 6: d phi_k = phi1 ^ phi_{k-1} for k = 3..n.  The models are written
# into the test's own directory, not into fixtures/, which every report
# sweep reads.
CHAIN_GOLDEN = [
    (5, "cohomology", "632397dfd99f656ec8ab1e8fd50cb2ba43a613db3d79da8c3f1443069e7637ba"),
    (5, "ddbar", "c7cc728fbdfd13dfda97d800f5dbe52959ab9aac3e07c6645f9cc61f8b25411f"),
    (6, "cohomology", "6c28be76b421bf58d56c164b2373177c6615ce4c6280efe0797aca1f4b5e3a8e"),
    (6, "ddbar", "737d8e13aa8dbbcea294eb9ad2a5f629ac182974b31a8b74ea63c4e501922da4"),
]


@pytest.mark.parametrize("n,command,digest", CHAIN_GOLDEN, ids=[f"{c} n{n}_chain" for n, c, _ in CHAIN_GOLDEN])
def test_golden_chain_report(n, command, digest, tmp_path, monkeypatch):
    lines = [f"n = {n}", f"name = n{n}_chain", *(f"d phi{k} = phi1 ^ phi{k - 1}" for k in range(3, n + 1))]
    (tmp_path / f"n{n}_chain.cplx").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--format", "json", command, f"n{n}_chain.cplx", "--out", "report.json"]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [g for g in GOLDEN if g[0][0] == "abc"],
                         ids=[" ".join(a) for a, _ in GOLDEN if a[0] == "abc"])
def test_abc_reads_only_the_two_cells_it_checks(argv, digest, tmp_path, monkeypatch):
    # `abc` compares its corner nodes with one Bott-Chern and one Aeppli cell;
    # it must give the same report without building every cohomology table
    def all_tables(setting):
        raise RuntimeError("abc built every cohomology table")

    monkeypatch.setattr(cohomology, "all_tables", all_tables)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report"
    assert main(["--format", "json", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
