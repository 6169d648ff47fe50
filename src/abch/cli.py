"""Command-line front end.

    abch <command> <path> [--metric m.herm]
         [--backend exact|both] [--format md|json|csv]
         [--pq P,Q] [--seed N] [--samples N] [--out FILE]
    abch -h | --help

Commands: check, cohomology, spectra, diagram, ddbar, inequality, abc,
cover.  The positional path is a `.cplx` model for every command except
`cover`, which takes a `.cover` file.  `--backend both` adds the float
cross-check to `cohomology`; `spectra` always runs and cross-checks both
backends, and every other command ignores the option.  Options may come
anywhere on the line, as `--opt value` or `--opt=value`, abbreviated to any
unique prefix; a repeated option keeps its last value.  Exit code 0 means
every check passed; 1 a failed check, named in the report's `failures` (in
md, its `failure:` lines) or on stderr, or a fault in abch; 2 an input
error, including a malformed command line, a negative `--seed` and a
`--samples` outside 0..10000.  Output is byte-identical across runs for a
fixed configuration; the sampling seed defaults to 271828 and
`ABCH_TOL_REL` overrides the relative zero tolerance (default 1e-9).
"""

from __future__ import annotations

import getopt
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from abch import reporting
from abch.complexes import NotAComplex, bidegrees, build_complex, conjugation_matrix, shifted
from abch.covering import (
    NotASublattice,
    build_cover,
    gamma_tables,
    gap_and_closed_image,
    load_cover,
    metric_independence_check,
)
from abch.laplacians import ALL_KINDS, DEFAULT_SAMPLES, DEFAULT_SEED, MAX_SAMPLES, EigSolverFailure, LaplacianBundle
from abch.linalg import Mat
from abch.metric import HermitianMetric, NotHermitian, NotPositiveDefinite, load_metric
from abch.model import InputTooLarge, ModelError, load_model
from abch.scalars import QQi
from abch.setting import ExactSetting, NumericSetting
from abch import cohomology as coh

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _parse_pq(text: Optional[str], n: int) -> Optional[Tuple[int, int]]:
    if text is None:
        return None
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise ModelError(f"bad --pq value {text!r}") from exc
    if not (0 <= p <= n and 0 <= q <= n):
        raise ModelError(f"--pq {p},{q} outside 0..{n}")
    return (p, q)


def _metric_matrix(args, n: int, what: str) -> Mat:
    """H from `--metric`, checked against the dimension n of the `what`
    input, or the identity."""
    if not args.metric:
        return Mat.identity(n)
    mn, H = load_metric(args.metric)
    if mn != n:
        raise ModelError(f"metric dimension {mn} does not match {what} dimension {n}")
    return H


def _load_setting(args) -> Tuple[ExactSetting, str]:
    model = load_model(args.path)
    comp = build_complex(model)
    metric = HermitianMetric(comp.n, _metric_matrix(args, comp.n, "model"))
    return ExactSetting(comp, metric), model.name or args.path


def _emit(args, lines: List[str], payload: dict, checks: Dict[str, bool]) -> int:
    """Write the report and return its exit code.  `checks` maps the failure
    line of each verification, in report order, to whether it holds; the
    lines of those that fail are the JSON `failures` and the md `failure:`
    lines after `RESULT`, and any of them makes the exit code 1."""
    failures = [line for line, ok in checks.items() if not ok]
    if args.format == "json":
        payload = dict(payload)
        payload["schema"] = reporting.REPORT_SCHEMA
        payload["failures"] = failures
        text = reporting.render_json(payload)
    elif args.format == "csv":
        text = "\n".join(lines) + "\n"
    else:
        body = lines + ["RESULT: " + ("FAIL" if failures else "PASS")] + [f"failure: {f}" for f in failures]
        text = "\n".join(body) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_check(args) -> int:
    setting, name = _load_setting(args)
    comp = setting.ops
    n = comp.n
    conj_ok = all(conjugation_matrix(n, *shifted((p, q), "del")) @ comp.map("del", (p, q)).conj()
                  == comp.map("delbar", (q, p)) @ conjugation_matrix(n, p, q) for p, q in bidegrees(n))
    lines = [f"# check {name}", "", f"- complex identities: ok (certified during assembly)",
             f"- conjugation intertwines del/delbar: {'ok' if conj_ok else 'FAIL'}", ""]
    payload = {"command": "check", "model": name, "conjugation_ok": conj_ok}
    return _emit(args, lines, payload, {"conjugation does not intertwine del and delbar": conj_ok})


def cmd_cohomology(args) -> int:
    setting, name = _load_setting(args)
    n = setting.n
    tables = coh.all_tables(setting)
    sym = coh.table_symmetries(tables, n)
    hodge_ok = coh.harmonic_dims(setting) == tables
    checks = {"harmonic dimensions differ from rank-nullity dimensions": hodge_ok,
              **{f"table symmetry violated: {k}": v for k, v in sym.items()}}
    if args.backend == "both":
        numeric = NumericSetting(setting)
        for b in bidegrees(n):
            checks.update(dict.fromkeys(LaplacianBundle.build(setting, numeric, b).crosscheck(), False))
    lines = [f"# cohomology {name}", ""]
    for t in ("bc", "a", "del", "delbar"):
        lines += reporting.grid_md(f"h_{t}", tables[t])
    lines += reporting.list_md("betti", tables["deRham"])
    lines += reporting.checks_md({"hodge_isomorphism": hodge_ok, **sym})
    payload = {
        "command": "cohomology",
        "model": name,
        "metric_hash": reporting.metric_hash(setting.metric.H),
        "tables": {t: tables[t] for t in ("bc", "a", "del", "delbar")},
        "betti": tables["deRham"],
        "symmetries": sym,
        "hodge_isomorphism": hodge_ok,
    }
    if args.format == "csv":
        lines = []
        for t in ("bc", "a", "del", "delbar"):
            lines += reporting.render_csv_grid(f"h_{t}", tables[t])
        lines += reporting.render_csv_grid("betti", [tables["deRham"]])
    return _emit(args, lines, payload, checks)


def cmd_spectra(args) -> int:
    setting, name = _load_setting(args)
    n = setting.n
    numeric = NumericSetting(setting)
    pq = _parse_pq(args.pq, n)
    targets = [pq] if pq else bidegrees(n)
    checks: Dict[str, bool] = {}
    lines = [f"# spectra {name}", ""]
    spectra_payload: Dict[str, dict] = {}
    for b in targets:
        bundle = LaplacianBundle.build(setting, numeric, b)
        checks.update(dict.fromkeys(bundle.crosscheck(), False))
        entry = {}
        for kind in ALL_KINDS:
            ev = [format(x, ".12g") for x in bundle.spectra[kind]]
            gap = bundle.gaps[kind]
            entry[kind.value] = {
                "eigenvalues": ev,
                "gap": None if gap is None else format(gap, ".12g"),
                "kernel_dim": bundle.kernels[kind].ncols,
                "kernel_basis": bundle.kernels[kind],
            }
            lines.append(
                f"- {b} {kind.value}: kernel {bundle.kernels[kind].ncols}, gap "
                + ("AllZero" if gap is None else format(gap, ".12g"))
            )
        spectra_payload[str(b)] = entry
    lines.append("")
    payload = {
        "command": "spectra",
        "model": name,
        "metric_hash": reporting.metric_hash(setting.metric.H),
        "spectra": spectra_payload,
    }
    return _emit(args, lines, payload, checks)


def cmd_diagram(args) -> int:
    setting, name = _load_setting(args)
    n = setting.n
    pq = _parse_pq(args.pq, n)
    degrees = [pq[0] + pq[1]] if pq else list(range(2 * n + 1))
    checks: Dict[str, bool] = {}
    lines = [f"# diagram {name}", ""]
    payload_arrows: Dict[str, dict] = {}
    for k in degrees:
        rep = coh.diagram_maps(setting, k)
        checks[f"diagram does not commute at degree {k}"] = rep.commutes
        entry = {}
        for arrow_name, arrow in rep.arrows.items():
            entry[arrow_name] = {"injective": arrow.injective, "surjective": arrow.surjective}
            lines.append(
                f"- degree {k} {arrow_name}: injective={arrow.injective} surjective={arrow.surjective}"
            )
        payload_arrows[str(k)] = {"arrows": entry, "commutes": rep.commutes,
                                  "all_isomorphisms": rep.all_isomorphisms}
    lines.append("")
    payload = {"command": "diagram", "model": name, "degrees": payload_arrows}
    return _emit(args, lines, payload, checks)


def cmd_ddbar(args) -> int:
    setting, name = _load_setting(args)
    rep = coh.ddbar_conditions(setting)
    lines = [f"# ddbar {name}", ""]
    for cond in coh.CONDITION_NAMES:
        lines.append(f"- condition {cond}: {rep['holds'][cond]}")
    lines.append(f"- all agree: {rep['all_agree']}")
    for cond, w in sorted(rep["witnesses"].items()):
        lines.append(f"- witness for {cond} at {w['bidegree']}: [{', '.join(w['form'])}]")
    lines.append("")
    payload = {"command": "ddbar", "model": name, **rep}
    return _emit(args, lines, payload, {"the del-delbar conditions disagree": rep["all_agree"]})


def cmd_inequality(args) -> int:
    setting, name = _load_setting(args)
    grids = coh.abc_subspaces(setting)
    seqs = coh.exact_sequence_reports(setting)
    rep = coh.inequality_report(setting)
    checks = {
        "intersection and quotient dimensions disagree": grids.routes_agree,
        "conjugation symmetry of subspace grids fails": grids.conjugation_ok,
        "an exact sequence fails": seqs["all_exact"],
        "h_bc + h_a != h_del + h_delbar + a + f somewhere": rep.identity_holds,
        "equality criterion mismatch": rep.criterion_consistent,
        "sum of h_bc + h_a < 2 b_k at some degree k":
            all(rk >= tb for (_, _, rk), tb in zip(rep.degree_sums, rep.twice_betti)),
    }
    lines = [f"# inequality {name}", ""]
    for x in "abcdef":
        lines += reporting.grid_md(f"dim {x}", grids.dims[x])
    lines += reporting.grid_md("defect a+f", rep.defect)
    lines += reporting.grid_md("h_del+h_delbar", rep.lhs)
    lines += reporting.grid_md("h_a+h_bc", rep.rhs)
    lines += reporting.checks_md(
        {
            "routes_agree": grids.routes_agree,
            "conjugation": grids.conjugation_ok,
            "sequences_exact": seqs["all_exact"],
            "identity": rep.identity_holds,
            "criterion": rep.criterion_consistent,
        }
    )
    payload = {
        "command": "inequality",
        "model": name,
        "metric_hash": reporting.metric_hash(setting.metric.H),
        "subspace_dims": grids.dims,
        "sequences_exact": seqs["all_exact"],
        **vars(rep),
    }
    if args.format == "csv":
        lines = []
        for x in "abcdef":
            lines += reporting.render_csv_grid(f"dim_{x}", grids.dims[x])
        lines += reporting.render_csv_grid("defect", rep.defect)
    return _emit(args, lines, payload, checks)


def cmd_abc(args) -> int:
    setting, name = _load_setting(args)
    n = setting.n
    pq = _parse_pq(args.pq, n)
    if pq is None:
        raise ModelError("`abc` needs --pq P,Q")
    fc = coh.full_abc_complex(setting, pq)
    p, q = pq
    checks = {
        "node cohomology differs from harmonic dimension": fc.h == fc.harmonic_dims,
        "Euler characteristics disagree": fc.euler_spaces == fc.euler_h,
        "corner node does not reproduce the Bott-Chern dimension":
            fc.node_bc is None or fc.node_bc == coh._rank_nullity(setting, "bc", (p, q)),
        "pre-corner node does not reproduce the Aeppli dimension": fc.node_a is None or p < 1 or q < 1
            or fc.node_a == coh._rank_nullity(setting, "a", (p - 1, q - 1)),
    }
    lines = [f"# abc {name} at {pq}", ""]
    lines.append("| k | space | dim | h^k | ker-laplacian |")
    lines.append("| --- | --- | --- | --- | --- |")
    for k, sp in enumerate(fc.spaces):
        dim = setting.space_dim(sp)
        lines.append(
            f"| {k} | {'+'.join(str(b) for b in sp) or '0'} | {dim} | {fc.h[k]} | {fc.harmonic_dims[k]} |"
        )
    lines.append("")
    lines.append(f"- euler(spaces) = {fc.euler_spaces}, euler(h) = {fc.euler_h}")
    lines.append(f"- corner nodes: bc={fc.node_bc}, a={fc.node_a}")
    lines.append("")
    payload = {
        "command": "abc",
        "model": name,
        "target": list(pq),
        "h": fc.h,
        "harmonic_dims": fc.harmonic_dims,
        "space_dims": [setting.space_dim(sp) for sp in fc.spaces],
        "euler_spaces": fc.euler_spaces,
        "euler_h": fc.euler_h,
        "node_bc": fc.node_bc,
        "node_a": fc.node_a,
    }
    return _emit(args, lines, payload, checks)


def cmd_cover(args) -> int:
    if args.seed < 0 or args.samples < 0:
        raise ModelError("--seed and --samples must be non-negative")
    if args.samples > MAX_SAMPLES:
        raise InputTooLarge(f"--samples {args.samples} exceeds the limit {MAX_SAMPLES}")
    spec = load_cover(args.path)
    H = _metric_matrix(args, spec.n, "cover")
    fourier = build_cover(spec, H)
    rep = gamma_tables(fourier)
    gap_rep = gap_and_closed_image(fourier, samples=args.samples, seed=args.seed)
    H2 = H.scale(QQi(2))
    mi = metric_independence_check(fourier, H2, samples=args.samples, seed=args.seed)
    checks = {
        "Gamma-dimension inequality fails": rep.inequality_ok,
        "Gamma-dimension monotonicity fails": rep.monotonicity_ok,
        "a harmonic form lives outside the zero mode": rep.harmonic_support_ok,
        "the del, delbar and d gaps break lap_del = lap_delbar = lap_d / 2": rep.kahler_gaps_ok,
        "a spectral-gap bound fails": gap_rep["all_ok"],
        "metric independence fails":
            mi["gamma_dims_agree"] and mi["cross_projection_full_rank"] and mi["sampled_ratios_within_bound"],
    }
    lines = [f"# cover {args.path}", "", f"- deck group order: {fourier.index}",
             f"- modes: {fourier.mode_count()}", ""]
    for t in ("bc", "a", "del", "delbar"):
        lines += reporting.grid_md(f"h_{t} (Gamma)", rep.grids[t])
    lines += reporting.list_md("betti (Gamma)", rep.grids["deRham"])
    gd = rep.gaps
    lines.append(f"- gap(lap_d) = {reporting._cell(gd['d'])}")
    lines.append(f"- gap(lap_del) = {reporting._cell(gd['del'])}")
    lines.append(f"- gap(lap_delbar) = {reporting._cell(gd['delbar'])}")
    lines.append(f"- quasi-isometry constant vs doubled metric: {reporting._cell(mi['quasi_isometry_constant'])}")
    lines += reporting.checks_md(
        {
            "inequality_with_equality": rep.equality_everywhere,
            "monotonicity": rep.monotonicity_ok,
            "harmonic_support": rep.harmonic_support_ok,
            "gap_bounds": bool(gap_rep["all_ok"]),
            "metric_independence": mi["gamma_dims_agree"],
        }
    )
    payload = {
        "command": "cover",
        "cover": args.path,
        "index": fourier.index,
        "mode_count": fourier.mode_count(),
        "grids": rep.grids,
        "gaps": rep.gaps,
        "inequality_ok": rep.inequality_ok,
        "equality_everywhere": rep.equality_everywhere,
        "metric_independence": mi,
        "gap_report": gap_rep,
    }
    return _emit(args, lines, payload, checks)


COMMANDS = {
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "spectra": cmd_spectra,
    "diagram": cmd_diagram,
    "ddbar": cmd_ddbar,
    "inequality": cmd_inequality,
    "abc": cmd_abc,
    "cover": cmd_cover,
}


# long option -> default; an integer default makes an integer option
DEFAULTS = {"metric": None, "backend": "exact", "format": "md", "pq": None,
            "seed": DEFAULT_SEED, "samples": DEFAULT_SAMPLES, "out": None}
CHOICES = {"backend": ("exact", "both"), "format": ("md", "json", "csv")}


def parse_args(argv: List[str]) -> Optional[SimpleNamespace]:
    """The command, path and options of a command line, or None if it asks
    for -h/--help; a malformed line raises ModelError."""
    try:
        opts, rest = getopt.gnu_getopt(argv, "h", ["help"] + [f"{name}=" for name in DEFAULTS])
    except getopt.GetoptError as exc:
        raise ModelError(str(exc)) from exc
    args = SimpleNamespace(**DEFAULTS)
    for flag, value in opts:
        if flag in ("-h", "--help"):
            return None
        name = flag[2:]
        if isinstance(DEFAULTS[name], int):
            try:
                value = int(value)
            except ValueError:
                raise ModelError(f"{flag} needs an integer, not {value[:20]!r}") from None
        elif value not in CHOICES.get(name, (value,)):
            raise ModelError(f"{flag} must be one of {', '.join(CHOICES[name])}, not {value[:20]!r}")
        setattr(args, name, value)
    if len(rest) != 2 or rest[0] not in COMMANDS:
        raise ModelError(f"expected a command ({', '.join(sorted(COMMANDS))}) and one path, "
                         f"not {' '.join(rest)[:60]!r}")
    args.command, args.path = rest
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(__doc__)
            return EXIT_OK
        return COMMANDS[args.command](args)
    except NotAComplex as exc:
        sys.stderr.write(f"NotAComplex: {exc}\n")
        return EXIT_VERIFICATION
    except AssertionError as exc:  # a broken internal invariant
        sys.stderr.write(f"verification failure: {exc}\n")
        return EXIT_VERIFICATION
    except (ModelError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (NotHermitian, NotPositiveDefinite, NotASublattice, EigSolverFailure, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT
    # any other exception is a fault in abch: it propagates, with exit code 1


if __name__ == "__main__":
    sys.exit(main())
