"""Command-line front end.

Every library operation is reachable as a subcommand working on JSON
documents (files or standard input).  Exit codes are a function of the
verdict only: 0 for success or a holding verdict, 3 when an inequality fails
or a search finds violations (certificates go to the output stream), 1 for
any input problem, 2 for internal errors.  Rationals are printed exactly,
with a 12-significant-digit decimal approximation where they are not whole.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Context
from decimal import Decimal
from fractions import Fraction

from .bodies import Body, body_from_json
from .inequalities import (
    FAILS,
    Report,
    af_check_discriminants,
    af_check_volumes,
    gromov_concavity,
    gromov_triple_check,
    minkowski_sequence_check,
    segment_concavity,
    vdw_check,
)
from .mixed import (
    BodyTuple,
    MatrixTuple,
    VolumePolynomial,
    discriminant_polynomial,
    mixed_discriminant,
    mixed_volume,
    volume_polynomial,
)
from .numerics import Matrix, SymMatrix, as_rational, format_rational, parse_json, permanent
from .search import (
    HILL_CLIMB,
    MODES,
    TARGETS,
    SearchConfig,
    SearchSpace,
    findings_from_jsonl,
    result_to_jsonl,
    search,
    verify_finding,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_FAILS = 3

_APPROX = Context(prec=12)


class UsageError(Exception):
    """Bad invocation or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; input problems are exit 1 here
        raise UsageError(message)


def approx12(v: Fraction) -> str:
    return str(_APPROX.divide(Decimal(v.numerator), Decimal(v.denominator)))


def fmt_value(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v)
    return f"{v} (≈ {approx12(v)})"


# ---------------------------------------------------------------------------
# Input documents


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_json(path: str):
    try:
        return parse_json(_read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"input is not valid JSON: {exc}") from None


def _matrix_doc(doc) -> Matrix:
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise UsageError("matrix document must be a JSON array of rows of rational strings")
    try:
        return Matrix(doc)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"malformed matrix document: {exc}") from None


def _bodies_doc(doc) -> tuple[int, list[Body]]:
    if not isinstance(doc, dict) or "bodies" not in doc:
        raise UsageError('expected a tuple document {"dimension": n, "bodies": [...]}')
    if not isinstance(doc["bodies"], list) or not doc["bodies"]:
        raise UsageError('"bodies" must be a nonempty JSON array of body documents')
    bodies = [body_from_json(b) for b in doc["bodies"]]
    declared = doc.get("dimension")
    if declared is not None:
        for pos, b in enumerate(bodies):
            if b.dim != declared:
                raise UsageError(
                    f"body {pos} has dimension {b.dim} but the document declares {declared}"
                )
    return (declared if declared is not None else bodies[0].dim), bodies


def _matrices_doc(doc) -> list[SymMatrix]:
    if not isinstance(doc, dict) or "matrices" not in doc:
        raise UsageError('expected a matrix tuple document {"matrices": [[...], ...]}')
    if not isinstance(doc["matrices"], list) or not doc["matrices"]:
        raise UsageError('"matrices" must be a nonempty JSON array of square matrices')
    out = []
    for pos, m in enumerate(doc["matrices"]):
        try:
            out.append(SymMatrix(m))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"matrix {pos} is invalid: {exc}") from None
    return out


def _tuple_doc(doc):
    """A body or a matrix tuple document, as its volume (or discriminant)
    polynomial and its squared comparison, each computed when called."""
    if isinstance(doc, dict) and "matrices" in doc:
        matrices = _matrices_doc(doc)
        return (
            lambda: discriminant_polynomial(MatrixTuple(tuple(matrices))),
            lambda: af_check_discriminants(matrices),
        )
    _, bodies = _bodies_doc(doc)
    return lambda: volume_polynomial(BodyTuple(tuple(bodies))), lambda: af_check_volumes(bodies)


def _polynomial_source(doc) -> VolumePolynomial:
    """A coefficient array, a body tuple, or a matrix tuple all yield the
    polynomial the concavity checks consume."""
    if isinstance(doc, list):
        return VolumePolynomial.from_json(doc)
    if isinstance(doc, dict) and ("bodies" in doc or "matrices" in doc):
        polynomial, _ = _tuple_doc(doc)
        return polynomial()
    raise UsageError(
        "expected a polynomial coefficient array, a body tuple document, or a matrix tuple document"
    )


# ---------------------------------------------------------------------------
# Output


def _emit_value(v: Fraction, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"value": format_rational(v), "approx": approx12(v)}))
    else:
        print(fmt_value(v))


def _emit_report(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_json()))
    else:
        print(f"verdict: {report.verdict} ({report.checked_count} checked)")
        if report.diagnostic:
            print(report.diagnostic)
        for cert in report.certificates:
            print(f"violation at {tuple(cert.center)}: {cert.comparison}")
            print(f"  lhs: {fmt_value(cert.lhs)}")
            print(f"  rhs: {fmt_value(cert.rhs)}")
            support = ", ".join(f"{tuple(idx)} weight {w}" for idx, w in cert.support)
            print(f"  support: {support}")
    return EXIT_FAILS if report.verdict == FAILS else EXIT_OK


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_perm(args) -> int:
    m = _matrix_doc(_load_json(args.input))
    _emit_value(permanent(m), args.format)
    return EXIT_OK


def _cmd_mixvol(args) -> int:
    _, bodies = _bodies_doc(_load_json(args.input))
    _emit_value(mixed_volume(bodies), args.format)
    return EXIT_OK


def _cmd_mixdisc(args) -> int:
    matrices = _matrices_doc(_load_json(args.input))
    _emit_value(mixed_discriminant(matrices), args.format)
    return EXIT_OK


def _cmd_volpoly(args) -> int:
    polynomial, _ = _tuple_doc(_load_json(args.input))
    vp = polynomial()
    if args.format == "json":
        print(json.dumps(vp.to_json()))
    else:
        for idx, v in sorted(vp.coefficients.items()):
            print(f"{idx}: {fmt_value(v)}")
    return EXIT_OK


def _cmd_af_check(args) -> int:
    _, af_check = _tuple_doc(_load_json(args.input))
    return _emit_report(af_check(), args.format)


def _cmd_segment(args) -> int:
    vp = _polynomial_source(_load_json(args.input))
    return _emit_report(segment_concavity(vp), args.format)


def _cmd_gromov(args) -> int:
    vp = _polynomial_source(_load_json(args.input))
    return _emit_report(gromov_concavity(vp), args.format)


def _cmd_triple(args) -> int:
    _, bodies = _bodies_doc(_load_json(args.input))
    if len(bodies) != 3:
        raise UsageError(f"triple-check needs exactly 3 bodies, got {len(bodies)}")
    return _emit_report(gromov_triple_check(bodies), args.format)


def _cmd_bm_check(args) -> int:
    n, bodies = _bodies_doc(_load_json(args.input))
    if len(bodies) != 2:
        raise UsageError(f"bm-check needs exactly 2 bodies, got {len(bodies)}")
    return _emit_report(minkowski_sequence_check(bodies[0], bodies[1], n), args.format)


def _cmd_vdw_check(args) -> int:
    m = _matrix_doc(_load_json(args.input))
    result = vdw_check(m)
    if args.format == "json":
        print(json.dumps(result.to_json()))
    else:
        print(f"margin: {fmt_value(result.margin)}")
        print(f"holds: {str(result.holds).lower()}")
    return EXIT_OK if result.holds else EXIT_FAILS


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    try:
        values = tuple(as_rational(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad grid value in {text!r}: {exc}") from None
    if not values:
        raise UsageError("the side grid must contain at least one value")
    return values


def _cmd_search(args) -> int:
    space = SearchSpace(side_grid=_parse_grid(args.grid), n=args.n, k=args.k)
    config = SearchConfig(
        mode=args.mode,
        seed=args.seed,
        max_evaluations=args.max_evaluations,
        target=args.target,
    )
    if config.mode == HILL_CLIMB and args.jobs > 1:
        print("warning: hill-climb ignores --jobs; the walk runs in one process", file=sys.stderr)
    result = search(space, config, jobs=args.jobs)
    if args.format == "json":
        text = result_to_jsonl(result)
    else:
        lines = [
            f"ratio {f.violation_ratio}: sides {f.side_matrix.to_json()}" for f in result
        ]
        lines.append(
            f"evaluated {result.evaluations} candidates, {len(result.findings)} findings"
            + (f", best ratio {result.best_ratio}" if result.findings else "")
        )
        text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    return EXIT_FAILS if result.findings else EXIT_OK


def _cmd_verify(args) -> int:
    findings, summary = findings_from_jsonl(_read_text(args.input))
    ok = True
    for f in findings:
        good = verify_finding(f)
        ok = ok and good
        status = "ok" if good else "MISMATCH"
        print(f"candidate {f.index}: {status}")
    if summary is not None and summary.get("findings") != len(findings):
        print(
            f"summary claims {summary.get('findings')} findings, stream holds {len(findings)}"
        )
        ok = False
    print(f"verified {len(findings)} findings: {'all ok' if ok else 'mismatches found'}")
    return EXIT_OK if ok else EXIT_FAILS


# ---------------------------------------------------------------------------
# Wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixedvol", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name: str, handler, help_text: str, with_input: bool = True):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", nargs="?", default="-", help="input JSON file, or - for stdin")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)
        return p

    add("perm", _cmd_perm, "permanent of a square rational matrix")
    add("mixvol", _cmd_mixvol, "mixed volume of n bodies in dimension n")
    add("mixdisc", _cmd_mixdisc, "mixed discriminant of n symmetric matrices")
    add("volpoly", _cmd_volpoly, "all coefficients V_I (or D_I) of a tuple")
    add("af-check", _cmd_af_check, "squared mixed volume (or discriminant) comparison")
    add("segment-concavity", _cmd_segment, "log-concavity along simplex edges")
    add("gromov-check", _cmd_gromov, "concave-envelope test on the discrete simplex")
    add("triple-check", _cmd_triple, "three-body cyclic comparison in dimension 3")
    add("bm-check", _cmd_bm_check, "log-concavity of the two-body replacement sequence")
    add("vdw-check", _cmd_vdw_check, "permanent margin over the doubly stochastic minimum")

    sp = add("search", _cmd_search, "search box families for concavity violations", with_input=False)
    sp.add_argument("--grid", required=True, help="comma-separated side lengths, e.g. 0,1/3,1,5")
    sp.add_argument("--n", type=int, default=3, help="ambient dimension")
    sp.add_argument("--k", type=int, default=3, help="number of bodies")
    sp.add_argument("--mode", choices=MODES, default="exhaustive-grid")
    sp.add_argument("--target", choices=TARGETS, default="triple-inequality")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-evaluations", type=int, default=1_000_000)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes for the scan")
    sp.add_argument("--output", default="-", help="findings stream destination (default stdout)")

    add("verify", _cmd_verify, "re-derive findings from a search stream")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # --help prints and leaves with code 0
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.handler(args)
    except (UsageError, ValueError, TypeError) as exc:  # PreconditionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    # Exact answers may have any number of digits, so the command lifts
    # Python's limit on int-to-str conversion (absent before 3.10.7) for its
    # whole process; as_rational and as_index keep inputs within it.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
