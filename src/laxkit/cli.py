"""Batch front door: build, verify, transform, and export Lax matrices.

Exit codes: 0 = all requested checks pass, 1 = a mathematical identity
failed (a report is still written), 2 = bad input or usage, with the
message on stderr.  main() may be called repeatedly in one process; the
calls share one parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .coweight import Divisor, PseudoYoungDiagram
from .errors import (
    BadDiagram,
    LaxkitError,
    NotAdmissible,
    NotLinearCase,
    ParseError,
    SignatureMismatch,
    SizeMismatch,
)
from .gelfand_tsetlin import gauge_and_compare
from .lax_rational import (
    build_lax,
    build_linear_lax,
    fuse,
    normalize_and_check_polynomial,
    normalized_limit,
    qdet_image,
)
from .lax_trig import (
    build_lax_trig,
    build_linear_lax_trig,
    degenerate_to_rational,
    limits_trig,
    normalize_and_check_polynomial_trig,
)
from .rtt import check_yang_baxter, verify_coproduct_generators, verify_rtt
from .suite import run_suite
from .textio import (
    latex_matrix,
    matrix_from_json,
    matrix_to_json,
    render_element,
    render_ratfun,
)

EXIT_OK = 0
EXIT_IDENTITY_FAILED = 1
EXIT_USAGE = 2


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParseError(f"{path} is not valid JSON: {exc}") from None


def _load_divisor(path: str, mode: Optional[str] = None) -> Divisor:
    div = Divisor.from_json(_read_json(path))
    if mode and div.mode != mode:
        raise NotAdmissible(
            f"divisor file is {div.mode!r} but --mode {mode!r} was requested"
        )
    return div


def _print_matrix(mat, out) -> None:
    width = max(
        len(render_element(e)) for row in mat.entries for e in row
    )
    for row in mat.entries:
        cells = [render_element(e).ljust(width) for e in row]
        out.write("[ " + " | ".join(cells) + " ]\n")


def _emit_outputs(mat, args, out) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(matrix_to_json(mat), fh, indent=1, sort_keys=True)
        out.write(f"wrote {args.out}\n")
    if getattr(args, "latex", None):
        with open(args.latex, "w", encoding="utf-8") as fh:
            fh.write(latex_matrix(mat) + "\n")
        out.write(f"wrote {args.latex}\n")
    if not getattr(args, "quiet", False):
        _print_matrix(mat, out)


def _pipeline(mode: str):
    """(build, normalize, linear) of a divisor mode.  The names are looked
    up per call, so wrappers installed on this module's attributes apply."""
    return {
        "rational": (build_lax, normalize_and_check_polynomial, build_linear_lax),
        "trig": (
            build_lax_trig, normalize_and_check_polynomial_trig, build_linear_lax_trig
        ),
    }[mode]


def _build(div: Divisor, normalize: bool = True):
    build, norm, _ = _pipeline(div.mode)
    mat = build(div)
    return norm(mat) if normalize else mat


def cmd_build(args, out) -> int:
    div = _load_divisor(args.divisor, args.mode)
    mat = _build(div, normalize=not args.raw)
    _emit_outputs(mat, args, out)
    return EXIT_OK


def cmd_linear(args, out) -> int:
    div = _load_divisor(args.divisor, args.mode)
    _, _, linear = _pipeline(div.mode)
    _emit_outputs(linear(div), args, out)
    return EXIT_OK


def cmd_verify_rtt(args, out) -> int:
    if args.matrix:
        mat = matrix_from_json(_read_json(args.matrix))
    else:
        mat = _build(_load_divisor(args.divisor, args.mode), normalize=False)
    report = verify_rtt(mat)
    payload = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
    out.write(json.dumps(payload) + "\n")
    return EXIT_OK if report.ok else EXIT_IDENTITY_FAILED


def cmd_yang_baxter(args, out) -> int:
    ok = True
    for variant in args.variant:
        got = check_yang_baxter(variant, args.n)
        out.write(f"{variant} n={args.n}: {'PASS' if got else 'FAIL'}\n")
        ok = ok and got
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED


def cmd_qdet(args, out) -> int:
    value = qdet_image(_build(_load_divisor(args.divisor, args.mode)))
    out.write(render_ratfun(value) + "\n")
    return EXIT_OK


def cmd_limit(args, out) -> int:
    mat = _build(_load_divisor(args.divisor), normalize=False)
    if args.direction == "zero":
        mat = limits_trig(mat, "to_zero")
    else:
        mat = normalized_limit(mat)
    _emit_outputs(mat, args, out)
    return EXIT_OK


def cmd_fuse(args, out) -> int:
    divs = [_load_divisor(p) for p in args.divisor]
    mats = [_build(d, normalize=False) for d in divs]
    fused = mats[0]
    for m in mats[1:]:
        fused = fuse(fused, m)
    _emit_outputs(fused, args, out)
    return EXIT_OK


def cmd_coproduct(args, out) -> int:
    divs = [_load_divisor(p) for p in args.divisor]
    if len(divs) != 2:
        raise SizeMismatch("coproduct takes exactly two divisors")
    if args.verify_generators and any(d.mode != "rational" for d in divs):
        raise SignatureMismatch("generator-level checks run in rational mode")
    mats = [_build(d, normalize=False) for d in divs]
    delta = fuse(mats[0], mats[1])
    report = verify_rtt(delta)
    out.write(f"exchange relation: {'PASS' if report.ok else 'FAIL'}\n")
    code = EXIT_OK if report.ok else EXIT_IDENTITY_FAILED
    if args.verify_generators:
        rep = verify_coproduct_generators(divs[0], divs[1])
        for c in rep.checks:
            out.write(f"{'PASS' if c.ok else 'FAIL'}  {c.name}\n")
        if not rep.ok:
            code = EXIT_IDENTITY_FAILED
    _emit_outputs(delta, args, out)
    return code


def cmd_degenerate(args, out) -> int:
    div = _load_divisor(args.divisor)
    if div.mode != "trig":
        raise NotAdmissible("degeneration starts from a trig divisor")
    mat = degenerate_to_rational(build_lax_trig(div))
    _emit_outputs(mat, args, out)
    return EXIT_OK


def cmd_gt_compare(args, out) -> int:
    try:
        rows = tuple(int(x) for x in args.young.split(","))
    except ValueError:
        raise ParseError(
            f"--young needs comma-separated integers, got {args.young!r}"
        ) from None
    cmp = gauge_and_compare(PseudoYoungDiagram(rows), args.n)
    for pos in sorted(cmp.gauged):
        mark = "PASS" if pos not in cmp.mismatches else "FAIL"
        out.write(f"{mark}  entry {pos}: {render_element(cmp.gauged[pos])}\n")
    return EXIT_OK if cmp.ok else EXIT_IDENTITY_FAILED


def cmd_suite(args, out) -> int:
    ok = run_suite(lambda line: out.write(line + "\n"))
    return EXIT_OK if ok else EXIT_IDENTITY_FAILED


def _rank(text: str) -> int:
    """argparse type for a rank n: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"rank must be an integer >= 1, got {text!r}")
    return n


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lax",
        description="Exact Lax-matrix construction and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--out", help="write the matrix as JSON")
        p.add_argument("--latex", help="write the matrix as LaTeX")
        p.add_argument("--quiet", action="store_true", help="suppress stdout matrix")

    def add_mode_flag(p):
        p.add_argument(
            "--mode",
            choices=["rational", "trig"],
            help="assert the divisor's mode (the file is authoritative)",
        )

    p = sub.add_parser("build", help="build and normalize the matrix of a divisor")
    p.add_argument("--divisor", required=True)
    p.add_argument("--raw", action="store_true", help="skip normalization")
    add_output_flags(p)
    add_mode_flag(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("linear", help="closed-form matrix for degree-1 divisors")
    p.add_argument("--divisor", required=True)
    add_output_flags(p)
    add_mode_flag(p)
    p.set_defaults(fn=cmd_linear)

    p = sub.add_parser("verify-rtt", help="exact exchange-relation check")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--divisor")
    source.add_argument("--matrix", help="verify a matrix JSON file instead")
    p.add_argument("--report", help="write the JSON report here")
    add_mode_flag(p)
    p.set_defaults(fn=cmd_verify_rtt)

    p = sub.add_parser("yang-baxter", help="R-matrix identities")
    p.add_argument(
        "--variant",
        nargs="+",
        choices=["rational", "trig", "finite"],
        default=["rational", "trig", "finite"],
    )
    p.add_argument("--n", type=_rank, default=2)
    p.set_defaults(fn=cmd_yang_baxter)

    p = sub.add_parser("qdet", help="quantum determinant")
    p.add_argument("--divisor", required=True)
    add_mode_flag(p)
    p.set_defaults(fn=cmd_qdet)

    p = sub.add_parser(
        "limit", help="send the last point, with its whole coweight, to 0 or infinity"
    )
    p.add_argument("--divisor", required=True)
    p.add_argument("--direction", choices=["zero", "infinity"], default="infinity")
    add_output_flags(p)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("fuse", help="tensor (monodromy) product of matrices")
    p.add_argument("--divisor", action="append", required=True)
    add_output_flags(p)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("coproduct", help="fuse two equal-rank divisors and verify")
    p.add_argument("--divisor", action="append", required=True)
    p.add_argument("--verify-generators", action="store_true")
    add_output_flags(p)
    p.set_defaults(fn=cmd_coproduct)

    p = sub.add_parser("degenerate", help="trig-to-rational degeneration")
    p.add_argument("--divisor", required=True)
    add_output_flags(p)
    p.set_defaults(fn=cmd_degenerate)

    p = sub.add_parser("gt-compare", help="Gelfand-Tsetlin gauge comparison")
    p.add_argument("--young", required=True, help="comma-separated rows")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_gt_compare)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.set_defaults(fn=cmd_suite)

    return parser


# The parser of make_parser(), built by the first main() call and shared by
# every later one: parse_args leaves a parser as it found it (each call
# gets a fresh Namespace and copies of the append defaults, and help is
# formatted when it is printed).
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = make_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, sys.stdout)
    except (
        NotAdmissible,
        NotLinearCase,
        ParseError,
        BadDiagram,
        SizeMismatch,
        SignatureMismatch,
        OSError,
        OverflowError,  # input exponents that leave the 16-bit fields
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LaxkitError as exc:
        sys.stderr.write(f"identity failure: {type(exc).__name__}: {exc}\n")
        return EXIT_IDENTITY_FAILED


if __name__ == "__main__":
    sys.exit(main())
