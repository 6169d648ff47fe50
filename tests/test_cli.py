"""Command-line behaviour: exit codes, determinism, formats."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from abch import cli, cohomology
from abch.cli import main
from abch.complexes import Op
from abch.laplacians import MAX_SAMPLES, LaplacianBundle
from abch.linalg import Mat
from abch.scalars import ONE
from abch.setting import ExactSetting

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohomology_torus(capsys):
    code, out, _ = run(capsys, "cohomology", fx("torus2.cplx"))
    assert code == 0
    assert "RESULT: PASS" in out
    assert "h_bc" in out


def test_check_bad_model_exits_one(capsys):
    code, out, err = run(capsys, "check", fx("bad.cplx"))
    assert code == 1
    assert "NotAComplex" in out + err


def test_check_bad_model_reports_on_stderr(capsys, tmp_path):
    # like every other command: no text report, and nothing on stdout
    out_file = tmp_path / "r.json"
    code, out, err = run(capsys, "check", fx("bad.cplx"), "--format", "json", "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err.startswith("NotAComplex: ")
    assert not out_file.exists()


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "cohomology", fx("missing.cplx"))
    assert code == 2


def test_bad_metric_dimension_exits_two(capsys):
    code, _, err = run(capsys, "cohomology", fx("torus2.cplx"), "--metric", fx("diag211.herm"))
    assert code == 2


@pytest.mark.parametrize("model", [(fx("kodaira_thurston.cplx"),), (fx("iwasawa.cplx"), "--metric", fx("dense3.herm"))],
                         ids=["kodaira_thurston", "iwasawa_dense3"])
@pytest.mark.parametrize("fmt", ["json", "md"])
def test_spectra_always_cross_checks_both_backends(capsys, model, fmt):
    # `spectra` ignores `--backend exact|both`: every run builds both
    # backends and diffs each exact kernel against its zero multiplicity
    runs = [run(capsys, "spectra", *model, *backend, "--format", fmt)
            for backend in ([], ["--backend", "exact"], ["--backend", "both"])]
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_spectra_both_backend(capsys):
    code, out, _ = run(capsys, "spectra", fx("kodaira_thurston.cplx"), "--backend", "both", "--pq", "1,1")
    assert code == 0
    assert "gap" in out


def test_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "inequality", fx("iwasawa.cplx"), "--format", "json")
    code2, out2, _ = run(capsys, "inequality", fx("iwasawa.cplx"), "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "abch-report-1"
    assert payload["identity_holds"] is True


def test_csv_format(capsys):
    code, out, _ = run(capsys, "cohomology", fx("torus2.cplx"), "--format", "csv")
    assert code == 0
    assert "# h_bc" in out


def test_diagram_command(capsys):
    code, out, _ = run(capsys, "diagram", fx("torus2.cplx"))
    assert code == 0
    assert "RESULT: PASS" in out


def test_ddbar_command(capsys):
    code, out, _ = run(capsys, "ddbar", fx("iwasawa.cplx"))
    assert code == 0
    assert "condition a: False" in out
    assert "witness" in out


def test_abc_command_requires_pq(capsys):
    code, _, err = run(capsys, "abc", fx("iwasawa.cplx"))
    assert code == 2


def test_abc_command(capsys):
    code, out, _ = run(capsys, "abc", fx("iwasawa.cplx"), "--pq", "2,1")
    assert code == 0
    assert "bc=6" in out and "a=3" in out


def test_cover_command(capsys):
    code, out, _ = run(capsys, "cover", fx("index2.cover"), "--samples", "40")
    assert code == 0
    assert "deck group order: 2" in out
    assert "RESULT: PASS" in out


def test_cover_rejects_a_negative_seed_or_sample_count(capsys):
    for flag in ("--seed", "--samples"):
        code, out, err = run(capsys, "cover", fx("index2.cover"), flag, "-1")
        assert code == 2
        assert out == ""
        assert "must be non-negative" in err
    # the cap is checked before any cover is built or any sample drawn
    code, out, err = run(capsys, "cover", fx("index2.cover"), "--samples", str(MAX_SAMPLES + 1))
    assert code == 2
    assert out == ""
    assert err == f"error: --samples {MAX_SAMPLES + 1} exceeds the limit {MAX_SAMPLES}\n"


def test_a_ragged_or_wrong_size_lattice_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.cover"
    for base in ("[[1, 0], [0]]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "[[1, 0]]"):
        bad.write_text(f"n = 1\nbase = {base}\nsub = [[2, 0], [0, 1]]\nradius = 1\n")
        code, out, err = run(capsys, "cover", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: base must be a 2x2 integer matrix\n"


def test_text_outside_a_lattice_matrix_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.cover"
    bad.write_text("n = 1\nbase = [[1, 0], [0, 1]]\nsub = [[2, 0], [0, 1]]]]\nradius = 1\n")
    code, out, err = run(capsys, "cover", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 3") and "bad sub matrix" in err


def test_an_undecodable_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.cplx"
    bad.write_bytes(b"n = 2\n\xff\xfe\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error: UnicodeDecodeError: ")


def test_an_internal_fault_exits_one():
    # only named input errors exit 2; any other exception is a fault in abch,
    # which leaves the interpreter with its traceback and exit code 1
    script = (
        "import sys\n"
        "import abch.cli, abch.cohomology\n"
        "def broken(setting):\n"
        "    raise KeyError('no such memo')\n"
        "abch.cohomology.ddbar_conditions = broken\n"
        "sys.exit(abch.cli.main(sys.argv[1:]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, "ddbar", fx("torus2.cplx")], env=_src_env(),
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("Traceback")
    assert done.stderr.endswith("KeyError: 'no such memo'\n")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "cohomology", fx("torus1.cplx"), "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "cohomology"


def test_broken_invariant_exits_one(capsys, monkeypatch):
    # a corner map that is not del delbar breaks delta^2 = 0 in the full complex
    real = ExactSetting.deldbar_op

    def corrupted(self, b):
        op = real(self, b)
        ones = Mat([[ONE] * op.mat.ncols for _ in range(op.mat.nrows)], ncols=op.mat.ncols)
        return Op(src=op.src, dst=op.dst, mat=ones)

    monkeypatch.setattr(ExactSetting, "deldbar_op", corrupted)
    code, out, err = run(capsys, "abc", fx("iwasawa.cplx"), "--pq", "1,1")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: delta^2 != 0")


def test_wrong_gram_inverse_exits_one(capsys, monkeypatch):
    # an inversion that returns its input makes H^{-1} come back as H, so
    # the inverse factors are H's own and fail their one-time check; the
    # float adjoints of `spectra`'s Laplacians read them (`abc`, `cohomology`,
    # `diagram` and `inequality` take no adjoint, so no inverse)
    monkeypatch.setattr(Mat, "inv", lambda self: self)
    code, out, err = run(capsys, "spectra", fx("kodaira_thurston.cplx"), "--metric", fx("diag21.herm"))
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: Gram inverse check failed")


def test_a_degree_sum_below_twice_betti_is_a_failure(capsys, monkeypatch):
    # Angella-Tomassini: sum_{p+q=k} (h_bc + h_a) >= 2 b_k on every model;
    # torus2 has equality at every k, so raising each 2 b_k breaks it
    real = cohomology.inequality_report

    def raised(setting):
        rep = real(setting)
        return dataclasses.replace(rep, twice_betti=[t + 1 for t in rep.twice_betti])

    monkeypatch.setattr(cohomology, "inequality_report", raised)
    code, out, _ = run(capsys, "inequality", fx("torus2.cplx"))
    assert code == 1
    assert "failure: sum of h_bc + h_a < 2 b_k at some degree k" in out
    code, out, _ = run(capsys, "inequality", fx("torus2.cplx"), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["twice_betti"] == [3, 9, 13, 9, 3] and payload["strict_degrees"] == []


def _flip(**fields):
    """A change to one report: the same fields, with these replaced."""
    return lambda rep, *_: {**rep, **fields} if isinstance(rep, dict) else dataclasses.replace(rep, **fields)


def _scaled_by_p(conj, n, p, q):
    # C(p + 1, q) conj(del) = delbar C(p, q) then has p + 2 on its left side
    # and p + 1 on its right, so the sides differ wherever del is not zero
    return conj.scale(p + 1)


# command line, (module or class, name) of the function whose result is
# changed, the change, and the one failure it must produce; `spectra` fails
# under every `--backend` value, because its cross-check always runs
REPORT_FAILURES = {
    "check_conjugation": (
        ["check", fx("iwasawa.cplx")], (cli, "conjugation_matrix"), _scaled_by_p,
        "conjugation does not intertwine del and delbar"),
    **{f"spectra_cross_check_{name}": (
        ["spectra", fx("kodaira_thurston.cplx"), "--pq", "1,1", *backend], (LaplacianBundle, "crosscheck"),
        lambda problems, *_: problems + ["one kernel mismatch"], "one kernel mismatch")
       for name, backend in (("default", []), ("exact", ["--backend", "exact"]), ("both", ["--backend", "both"]))},
    "cohomology_symmetry": (
        ["cohomology", fx("torus2.cplx")], (cohomology, "table_symmetries"), _flip(star_duality=False),
        "table symmetry violated: star_duality"),
    "ddbar_agreement": (
        ["ddbar", fx("torus2.cplx")], (cohomology, "ddbar_conditions"), _flip(all_agree=False),
        "the del-delbar conditions disagree"),
    "diagram_commutes": (
        ["diagram", fx("torus2.cplx"), "--pq", "1,1"], (cohomology, "diagram_maps"), _flip(commutes=False),
        "diagram does not commute at degree 2"),
    "inequality_routes": (
        ["inequality", fx("torus2.cplx")], (cohomology, "abc_subspaces"), _flip(routes_agree=False),
        "intersection and quotient dimensions disagree"),
    "inequality_conjugation": (
        ["inequality", fx("torus2.cplx")], (cohomology, "abc_subspaces"), _flip(conjugation_ok=False),
        "conjugation symmetry of subspace grids fails"),
    "inequality_sequences": (
        ["inequality", fx("torus2.cplx")], (cohomology, "exact_sequence_reports"), _flip(all_exact=False),
        "an exact sequence fails"),
    "inequality_identity": (
        ["inequality", fx("torus2.cplx")], (cohomology, "inequality_report"), _flip(identity_holds=False),
        "h_bc + h_a != h_del + h_delbar + a + f somewhere"),
    "inequality_criterion": (
        ["inequality", fx("torus2.cplx")], (cohomology, "inequality_report"), _flip(criterion_consistent=False),
        "equality criterion mismatch"),
    "abc_node_cohomology": (
        ["abc", fx("iwasawa.cplx"), "--pq", "1,1"], (cohomology, "full_abc_complex"),
        lambda fc, *_: dataclasses.replace(fc, harmonic_dims=[h + 1 for h in fc.harmonic_dims]),
        "node cohomology differs from harmonic dimension"),
    "abc_euler": (
        ["abc", fx("iwasawa.cplx"), "--pq", "1,1"], (cohomology, "full_abc_complex"),
        lambda fc, *_: dataclasses.replace(fc, euler_h=fc.euler_h + 1),
        "Euler characteristics disagree"),
    "abc_bc_node": (
        ["abc", fx("iwasawa.cplx"), "--pq", "1,1"], (cohomology, "full_abc_complex"),
        lambda fc, *_: dataclasses.replace(fc, node_bc=fc.node_bc + 1),
        "corner node does not reproduce the Bott-Chern dimension"),
    "abc_a_node": (
        ["abc", fx("iwasawa.cplx"), "--pq", "1,1"], (cohomology, "full_abc_complex"),
        lambda fc, *_: dataclasses.replace(fc, node_a=fc.node_a + 1),
        "pre-corner node does not reproduce the Aeppli dimension"),
    "cover_inequality": (
        ["cover", fx("index2.cover"), "--samples", "40"], (cli, "gamma_tables"), _flip(inequality_ok=False),
        "Gamma-dimension inequality fails"),
    "cover_monotonicity": (
        ["cover", fx("index2.cover"), "--samples", "40"], (cli, "gamma_tables"), _flip(monotonicity_ok=False),
        "Gamma-dimension monotonicity fails"),
    "cover_harmonic_support": (
        ["cover", fx("index2.cover"), "--samples", "40"], (cli, "gamma_tables"), _flip(harmonic_support_ok=False),
        "a harmonic form lives outside the zero mode"),
    "cover_gap_bounds": (
        ["cover", fx("index2.cover"), "--samples", "40"], (cli, "gap_and_closed_image"), _flip(all_ok=False),
        "a spectral-gap bound fails"),
    "cover_metric_independence": (
        ["cover", fx("index2.cover"), "--samples", "40"], (cli, "metric_independence_check"),
        _flip(gamma_dims_agree=False), "metric independence fails"),
}


@pytest.mark.parametrize("case", sorted(REPORT_FAILURES))
def test_a_failed_check_in_a_report_fails_the_command(capsys, monkeypatch, case):
    # each verification a command reads from its report, made to fail alone,
    # gives exit 1 and exactly its own failure line
    argv, (module, name), alter, failure = REPORT_FAILURES[case]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: alter(real(*args, **kwargs), *args))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.endswith(f"RESULT: FAIL\nfailure: {failure}\n")


def test_two_failed_checks_are_reported_in_table_order(capsys, monkeypatch):
    # the routes check comes before the identity in `inequality`'s table,
    # whichever report fails first
    real_grids, real_rep = cohomology.abc_subspaces, cohomology.inequality_report
    monkeypatch.setattr(cohomology, "inequality_report", lambda s: _flip(identity_holds=False)(real_rep(s)))
    monkeypatch.setattr(cohomology, "abc_subspaces", lambda s: _flip(routes_agree=False)(real_grids(s)))
    expected = ["intersection and quotient dimensions disagree", "h_bc + h_a != h_del + h_delbar + a + f somewhere"]
    code, out, _ = run(capsys, "inequality", fx("torus2.cplx"))
    assert code == 1
    assert out.endswith("RESULT: FAIL\n" + "".join(f"failure: {f}\n" for f in expected))
    code, out, _ = run(capsys, "inequality", fx("torus2.cplx"), "--format", "json")
    assert code == 1
    assert json.loads(out)["failures"] == expected


@pytest.mark.parametrize("value", ["1", "a,b", "1,2,3"])
def test_a_malformed_pq_is_an_input_error(capsys, value):
    code, out, err = run(capsys, "abc", fx("iwasawa.cplx"), "--pq", value)
    assert code == 2
    assert out == ""
    assert err == f"error: bad --pq value {value!r}\n"


TOL_COMMANDS = {
    "spectra": ("spectra", fx("iwasawa.cplx"), "--metric", fx("dense3.herm"), "--backend", "both"),
    "cover": ("cover", fx("index2.cover")),
}


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
@pytest.mark.parametrize("value", ["abc", "-1", "nan", "inf"])
def test_a_bad_relative_tolerance_is_an_input_error(capsys, monkeypatch, command, value):
    # a value that does not parse, or parses to a negative or non-finite
    # float, would otherwise crash or silently break every zero threshold
    monkeypatch.setenv("ABCH_TOL_REL", value)
    code, out, err = run(capsys, *TOL_COMMANDS[command])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ABCH_TOL_REL")


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_a_finite_relative_tolerance_is_accepted(capsys, monkeypatch, command):
    monkeypatch.setenv("ABCH_TOL_REL", "1e-6")
    code, out, _ = run(capsys, *TOL_COMMANDS[command])
    assert code == 0
    assert "RESULT: PASS" in out


def _bump_one_cell(dims):
    dims["bc"][1][1] += 1


def _drop_de_rham(dims):
    del dims["deRham"]


@pytest.mark.parametrize("alter", [_bump_one_cell, _drop_de_rham], ids=["one_cell", "no_de_rham"])
def test_a_hodge_mismatch_fails_the_cohomology_report(capsys, monkeypatch, alter):
    # harmonic dimensions that differ from the rank-nullity tables in one
    # cell, or lack the Betti numbers, fail the Hodge isomorphism check
    real = cohomology.harmonic_dims

    def altered(setting):
        dims = real(setting)
        alter(dims)
        return dims

    monkeypatch.setattr(cohomology, "harmonic_dims", altered)
    code, out, _ = run(capsys, "cohomology", fx("torus2.cplx"), "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload["failures"] == ["harmonic dimensions differ from rank-nullity dimensions"]
    assert payload["hodge_isomorphism"] is False


def test_oversized_input_exits_two(capsys, tmp_path):
    big = tmp_path / "big.cplx"
    big.write_text("n = 7\n")
    code, out, err = run(capsys, "cohomology", str(big))
    assert code == 2
    assert out == ""
    assert "exceeds the limit 6" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate", "torus2.cplx"],
        ["check"],
        ["check", "torus2.cplx", "iwasawa.cplx"],
        ["check", "torus2.cplx", "--bogus"],
        ["check", "torus2.cplx", "--metric"],
        ["spectra", "torus2.cplx", "--backend", "float"],
        ["spectra", "torus2.cplx", "--backend", "numeric"],
        ["check", "torus2.cplx", "--format", "xml"],
        ["cover", "index2.cover", "--seed", "x"],
        ["cover", "index2.cover", "--samples", "1.5"],
    ],
    ids=["unknown_command", "missing_path", "extra_positional", "unknown_option", "option_without_value",
         "bad_backend", "numeric_backend", "bad_format", "non_integer_seed", "non_integer_samples"],
)
def test_a_malformed_command_line_exits_two(capsys, argv):
    code, out, err = run(capsys, *(fx(a) if a.endswith((".cplx", ".cover")) else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_options_by_prefix_with_equals_anywhere_and_repeated(capsys):
    path = fx("torus2.cplx")
    expected = run(capsys, "check", path, "--format", "json")
    assert expected[0] == 0 and expected[1].startswith("{")
    for argv in (
        ["check", path, "--format=json"],
        ["check", path, "--form", "json"],
        ["--format", "json", "check", path],
        ["check", "--format", "csv", path, "--format", "json"],  # the last one wins
    ):
        assert run(capsys, *argv) == expected, argv


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage(capsys, flag):
    code, out, err = run(capsys, flag)
    assert code == 0
    assert err == ""
    assert "abch <command> <path>" in out and "[--samples N]" in out


def _src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_run(argvs, package=None):
    """Exit codes of `main(argv)` for each argv, run in a fresh interpreter
    that imports the CLI first, and the modules of `package` it then holds,
    or without a package every module the runs imported."""
    script = (
        "import json, sys\n"
        "import abch.cli\n"
        "argvs, package = json.loads(sys.argv[1])\n"
        "before = set() if package else set(sys.modules)\n"
        "codes = [abch.cli.main(argv) for argv in argvs]\n"
        "print(json.dumps([codes, sorted(m for m in set(sys.modules) - before if not package\n"
        "                                or m == package or m.startswith(package + '.'))]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, json.dumps([argvs, package])], env=_src_env(),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_a_run_never_imports_scipy(tmp_path):
    # both eigensolves run on numpy.linalg; a fresh interpreter that imports
    # the CLI and runs a spectra and a cover command must hold no scipy module
    # afterwards, so a lazy import cannot move scipy's cost into the run
    argvs = [
        ["spectra", fx("kodaira_thurston.cplx"), "--backend", "both", "--out", str(tmp_path / "spectra.md")],
        ["cover", fx("index2.cover"), "--out", str(tmp_path / "cover.md")],
    ]
    codes, scipy_modules = _fresh_run(argvs, "scipy")
    assert codes == [0, 0]
    assert scipy_modules == []


def test_a_cover_run_never_imports_numpy_random(tmp_path):
    # the cover's samples come from the standard library's `random`, which the
    # CLI already holds; numpy.random would load 16 modules into every cover run
    argvs = [
        ["cover", fx("index2.cover"), "--format", "json", "--out", str(tmp_path / "cover.json")],
        ["cover", fx("index2_n2.cover"), "--metric", fx("diag21.herm"), "--out", str(tmp_path / "n2.md")],
    ]
    codes, random_modules = _fresh_run(argvs, "numpy.random")
    assert codes == [0, 0]
    assert random_modules == []


def test_a_run_imports_no_module_after_the_cli(tmp_path):
    # the front end and the parsers build nothing lazily: a fresh interpreter
    # that imports the CLI holds every module the commands below need
    argvs = [
        ["check", fx("kodaira_thurston.cplx"), "--out", str(tmp_path / "check.md")],
        ["spectra", fx("kodaira_thurston.cplx"), "--backend", "both", "--out", str(tmp_path / "spectra.md")],
        ["cover", fx("index2.cover"), "--out", str(tmp_path / "cover.md")],
    ]
    codes, added = _fresh_run(argvs)
    assert codes == [0, 0, 0]
    assert added == []
