"""Command-line front end.

Subcommands: compute | splitting | formula | reconstruct | verify-corpus.
Ring and ideal data come from a flat key = value config file or from the
equivalent command-line flags (flags win).  Outputs are deterministic:
the same config always produces byte-identical tables and reports.

Exit codes: 0 success, 1 user error, 3 corpus failure, 4 internal error
(a failed consistency check: a bug, reported in one line); 2 is unused.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from fractions import Fraction

from . import corpus, engine
from .errors import InternalError, ParseError, UserError
from .field import PrimeField, prime_base, validate_prime_power
from .p1 import analyze_ideal
from .poly import parse_poly
from .reconstruct import (
    AmbiguousReconstruction,
    default_denominator_bound,
    estimate_ehk,
    nu2_from_ehk,
)
from .ring import GradedRing, IdealSpec, is_smooth
from .slopes import (
    HNData,
    ehk_from_hn,
    ehk_plane_curve,
    ehk_strongly_semistable,
)

EXIT_OK = 0
EXIT_USER = 1
EXIT_CORPUS = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap to the user-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UserError(message)


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UserError(f"not a rational number: {text!r} ({exc})")


# -- config ------------------------------------------------------------


def read_config(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    config = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UserError(f"{path}:{lineno}: expected key = value, got {raw.rstrip()!r}")
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read config {path}: {exc}")
    return config


def _merge_config(args) -> dict:
    config = read_config(args.config) if args.config else {}
    for key in ("p", "vars", "hypersurface", "gens", "q"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def build_ideal(config: dict) -> IdealSpec:
    try:
        p = int(config["p"])
    except KeyError:
        raise UserError("missing required key: p")
    except ValueError:
        raise UserError(f"p must be an integer, got {config['p']!r}")
    field = PrimeField(p)
    varnames = tuple(v.strip() for v in config.get("vars", "x,y").split(",") if v.strip())
    relation = None
    if config.get("hypersurface"):
        relation = parse_poly(config["hypersurface"], varnames, field)
    ring = GradedRing(field, varnames, relation=relation)
    gens_text = config.get("gens")
    if not gens_text:
        raise UserError("missing required key: gens (separated by ';')")
    gens = tuple(ring.parse(t.strip()) for t in gens_text.split(";") if t.strip())
    return IdealSpec(ring, gens)


def _q_list(config: dict, p: int) -> list:
    text = config.get("q")
    if not text:
        raise UserError("missing required key: q (comma-separated prime powers)")
    qs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            q = int(part)
        except ValueError:
            raise UserError(f"q values must be integers, got {part!r}")
        validate_prime_power(p, q)
        qs.append(q)
    if not qs:
        raise UserError("empty q list")
    return sorted(set(qs))


def _echo_config(config: dict, out) -> None:
    for key in sorted(config):
        print(f"# {key} = {config[key]}", file=out)


def _write_csvs(config: dict, tables) -> None:
    """Each (path, lines) table, the echoed config first, to the file at path or to stdout.

    Every file is opened, in append mode, before any is emptied or written, so an unwritable
    path leaves no table and every existing file as it was."""
    with ExitStack() as stack:
        try:
            outs = [stack.enter_context(open(path, "a", encoding="utf-8")) if path else sys.stdout
                    for path, _ in tables]
        except OSError as exc:
            raise UserError(f"cannot write {exc.filename}: {exc}")
        for out, (path, _) in zip(outs, tables):
            if path and os.path.isfile(path):  # as mode "w" would; not a pipe or /dev/null
                out.truncate(0)
        for out, (_, lines) in zip(outs, tables):
            _echo_config(config, out)
            for line in lines:
                print(line, file=out)


# -- subcommands -------------------------------------------------------


def cmd_compute(args) -> int:
    config = _merge_config(args)
    ideal = build_ideal(config)
    if args.check_smooth:
        verdict = "smooth" if is_smooth(ideal.ring) else "singular"
        print(f"smoothness: Proj R is {verdict} over the algebraic closure of F_{ideal.field.p}",
              file=sys.stderr)
    qs = _q_list(config, ideal.field.p)
    rows = [engine.hk_value(ideal, q) for q in qs]
    tables = [(args.out, ["q,phi"] + [f"{row.q},{row.phi}" for row in rows])]
    if args.degrees_out:
        tables.append((args.degrees_out, ["q,m,colength"] + [
            f"{row.q},{m},{c}" for row in rows for m, c in sorted(row.per_degree.items())]))
    _write_csvs(config, tables)
    return EXIT_OK


def cmd_splitting(args) -> int:
    config = _merge_config(args)
    ideal = build_ideal(config)
    report = analyze_ideal(ideal, max_exponent=args.max_exponent)
    out = sys.stdout
    _echo_config(config, out)
    print(f"ring = {ideal.ring!r}", file=out)
    print(f"gens = {'; '.join(ideal.ring.poly_str(g) for g in ideal.gens)}", file=out)
    for s in report.splittings:
        print(f"twists[q={s.q}] = {','.join(str(e) for e in s.twists)}", file=out)
    print(f"stabilized = {'yes' if report.stabilized else 'no'}", file=out)
    if not report.stabilized:
        print("note = raise --max-exponent to push more Frobenius pullbacks", file=out)
        return EXIT_OK
    hn = report.hn
    print(f"ranks = {','.join(str(r) for r in hn.ranks)}", file=out)
    print(f"nus = {','.join(str(v) for v in hn.nus)}", file=out)
    print(f"ehk = {report.ehk}", file=out)
    for q, phi in report.phi_rows:
        resid = abs(Fraction(phi) - report.ehk * q * q)
        print(f"phi[q={q}] = {phi}  residual = {resid}", file=out)
    print(f"residual_bound_C = {report.residual_bound}", file=out)
    print(f"max_residual_over_q = {report.max_residual}", file=out)
    print(f"verified_at_q = {report.verified_q}", file=out)
    return EXIT_OK


def _parse_hn(text: str, degY: int) -> HNData:
    """Slope data as 'r1:nu1,r2:nu2,...' with rational thresholds."""
    ranks, nus = [], []
    for part in text.split(","):
        part = part.strip()
        if ":" not in part:
            raise UserError(f"slope step must look like rank:threshold, got {part!r}")
        r_text, _, v_text = part.partition(":")
        try:
            ranks.append(int(r_text))
        except ValueError:
            raise UserError(f"rank must be an integer, got {r_text!r}")
        nus.append(_frac(v_text))
    n = sum(ranks) + 1
    return HNData(n=n, degY=degY, ranks=tuple(ranks), nus=tuple(nus))


def _parse_degrees(text: str) -> tuple:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise UserError(f"degrees must be comma-separated integers, got {text!r}")


def cmd_formula(args) -> int:
    modes = [bool(args.hn), args.plane_curve, args.semistable]
    if sum(modes) != 1:
        raise UserError("choose exactly one of --hn, --plane-curve, --semistable")
    if args.plane_curve:
        if args.h is None or args.nu2 is None:
            raise UserError("--plane-curve needs --h and --nu2")
        value = ehk_plane_curve(args.h, _frac(args.nu2))
    elif args.semistable:
        if not args.d:
            raise UserError("--semistable needs --d")
        value = ehk_strongly_semistable(_parse_degrees(args.d), args.degY)
    else:
        if not args.d:
            raise UserError("--hn needs --d")
        hn = _parse_hn(args.hn, args.degY)
        value = ehk_from_hn(hn, _parse_degrees(args.d))
    print(value)
    return EXIT_OK


def _read_phi_csv(path: str) -> tuple:
    """The (q, phi) rows, and the config of a `# key = value` header as `compute` writes it."""
    rows = []
    header = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if line.startswith("#") and "=" in line:
                    key, _, value = line[1:].partition("=")
                    header[key.strip()] = value.strip()
                if not line or line.startswith("#") or line == "q,phi":
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise UserError(f"{path}: expected 'q,phi' rows, got {line!r}")
                rows.append((int(parts[0]), int(parts[1])))
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read table {path}: {exc}")
    except ValueError as exc:
        raise UserError(f"{path}: non-integer table entry ({exc})")
    if len(rows) < 2:
        raise UserError(f"{path}: need at least two (q, phi) rows")
    return rows, header


def cmd_reconstruct(args) -> int:
    rows, header = _read_phi_csv(args.table)
    if args.bound is not None:
        bound = args.bound
    else:
        qs = [q for q, _ in rows if q > 1]
        if not qs:
            raise UserError(f"{args.table}: no row with q > 1 to read p from; pass --bound")
        p = prime_base(min(qs))
        # conservative default: n unknown from a bare table, use n = 3
        e_cap = validate_prime_power(p, max(qs))
        bound = default_denominator_bound(3, args.degY, p, e_cap)
    window = _frac(args.window) if args.window else None
    window_constant = args.window_constant
    if window is None and window_constant is None:
        if "gens" in header and "p" in header:
            # the ideal in the header gives the library's 4 * sum(d_i)
            window_constant = 4 * sum(build_ideal(header).degrees)
        else:
            # a bare CSV does not carry the generator degrees; 16 covers the corpus cases
            window_constant = 16
    try:
        value, report = estimate_ehk(
            rows, bound, window=window, window_constant=window_constant
        )
    except AmbiguousReconstruction as exc:
        print(f"ambiguous: {exc}", file=sys.stderr)
        return EXIT_USER
    nu2 = None if args.plane_curve_h is None else nu2_from_ehk(args.plane_curve_h, value)
    print(f"ehk = {value}")
    print(f"raw_estimate = {report.raw}")
    print(f"q_pair = {report.q_pair[0]},{report.q_pair[1]}")
    print(f"denominator_bound = {report.bound}")
    print(f"window = {report.window}")
    for q in sorted(report.residuals):
        print(f"residual[q={q}] = {report.residuals[q]}")
    if nu2 is not None:
        print(f"nu2 = {nu2}")
    return EXIT_OK


def cmd_verify_corpus(args) -> int:
    results = corpus.run_all(readme_path=args.readme)
    failures = 0
    for r in results:
        print(r.line())
        print(f"criterion {r.number} took {r.seconds:.1f}s", file=sys.stderr)
        if not r.ok:
            failures += 1
    if failures:
        print(f"{failures} criterion(s) failed", file=sys.stderr)
        return EXIT_CORPUS
    print("all criteria passed")
    return EXIT_OK


# -- wiring ------------------------------------------------------------


def _add_ring_flags(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--p", help="prime characteristic")
    sub.add_argument("--vars", help="comma-separated variable names (default x,y)")
    sub.add_argument("--hypersurface", help="relation polynomial H for R = K[vars]/(H)")
    sub.add_argument("--gens", help="ideal generators separated by ';'")


def make_parser() -> _Parser:
    parser = _Parser(prog="hilbertkunz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="Hilbert-Kunz function values as CSV")
    _add_ring_flags(c)
    c.add_argument("--q", help="comma-separated prime powers")
    c.add_argument("--out", help="summary CSV path (default stdout)")
    c.add_argument("--degrees-out", help="per-degree CSV path (q,m,colength)")
    c.add_argument(
        "--check-smooth",
        action="store_true",
        help="print on stderr whether Proj R is smooth over the algebraic closure of F_p",
    )
    c.set_defaults(fn=cmd_compute)

    s = sub.add_parser("splitting", help="splitting types, slope data, formula check")
    _add_ring_flags(s)
    s.add_argument("--max-exponent", type=int, default=3, help="largest Frobenius exponent tried")
    s.set_defaults(fn=cmd_splitting)

    f = sub.add_parser("formula", help="closed-form multiplicity from slope data")
    f.add_argument("--hn", help="slope data as r1:nu1,r2:nu2,...")
    f.add_argument("--d", help="generator degrees, comma separated")
    f.add_argument("--degY", type=int, default=1, help="degree of the polarization")
    f.add_argument("--plane-curve", action="store_true", help="use e = h(nu2^2 - 3 nu2 + 3)")
    f.add_argument("--semistable", action="store_true", help="strongly semistable closed form")
    f.add_argument("--h", type=int, help="plane curve degree")
    f.add_argument("--nu2", help="top threshold (rational)")
    f.set_defaults(fn=cmd_formula)

    r = sub.add_parser("reconstruct", help="rational multiplicity from a phi table CSV")
    r.add_argument("--table", required=True, help="CSV with q,phi rows (as written by compute)")
    r.add_argument("--bound", type=int, help="denominator bound (default 2*(n-1)!*degY*p^e)")
    r.add_argument("--degY", type=int, default=1, help="degY factor for the default bound")
    r.add_argument("--window", help="absolute acceptance window (rational)")
    r.add_argument("--window-constant", type=int, help="window K, accepted when |x - r| <= K/q1")
    r.add_argument("--plane-curve-h", type=int, help="also invert to nu2 for this curve degree")
    r.set_defaults(fn=cmd_reconstruct)

    v = sub.add_parser("verify-corpus", help="run the known-answer acceptance corpus")
    v.add_argument("--readme", help="README path checked by the documentation criterion")
    v.set_defaults(fn=cmd_verify_corpus)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USER
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
