"""Command-line front end for certificates, covers and the induction run.

Exit codes are stable across every command: 0 success, 1 mathematical
failure (a failed internal check included), 2 usage or parse error,
3 budget exhaustion.  Results are printed to stdout as line-oriented
key=value pairs so runs diff cleanly; progress chatter goes to stderr
only.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from .certify import (
    CertificateParseError,
    VerifyStatus,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .core import DEFAULT_TRAJECTORY_BUDGET, format_rational, parse_rational
from .residue import (
    DEFAULT_MULTIPLIER_BASE,
    MOD_EXP_CAP,
    CoverageError,
    CoverageParseError,
    ResidueClass,
    SearchLimits,
    build_coverage,
    builtin_coverage_text,
    class_bits,
    dump_coverage,
    load_coverage,
    search_decreasing_path,
    verify_coverage_table,
    verify_record,
)
from .wildprove import (
    DEFAULT_TRAJECTORY_BOUND,
    BudgetExhaustedError,
    CertStore,
    InductionError,
    NotInSemigroupError,
    SmoothPairExhaustionError,
    VerificationError,
    WildContext,
    cert_filename,
    find_smooth_pair,
    induction_driver,
    pi_inequality_range,
    s_certificate_for_rational,
    w_certificate_for_rational,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


def _emit(key: str, value: object) -> None:
    print(f"{key}={value}")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# Commands.  Each reads its own options from the parsed arguments and
# returns an exit code; domain errors are translated centrally in main().
# --------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    """Replay one certificate file and report pass/mismatch, or list a directory."""
    path = args.path
    if path.is_dir():
        return _verify_dir(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    cert = parse_certificate(text)  # CertificateParseError -> exit 2
    result = verify_certificate(cert)
    _emit("file", path)
    _emit("side", cert.side)
    _emit("target", format_rational(cert.target))
    _emit("generators", cert.generator_count)
    _emit("status", result.status.value)
    if result.status is VerifyStatus.MISMATCH:
        _emit("evaluated", format_rational(result.evaluated))
    if result.reason:
        _emit("reason", result.reason)
    return EXIT_OK if result.ok else EXIT_MATH


def _verify_dir(root: Path) -> int:
    """Replay every *.cert in root, in name order, one `entry=<file> <target> <status>` line each."""
    entries = []
    for path in sorted(root.glob("*.cert")):
        try:
            cert = parse_certificate(path.read_text())
            target, status = format_rational(cert.target), verify_certificate(cert).status.value
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
        except ValueError:  # does not decode or parse
            target, status = "?", "unparseable"
        entries.append((path.name, target, status))
    for entry in entries:
        _emit("entry", " ".join(entry))
    _emit("entries", len(entries))
    ok = all(status == "pass" for _, _, status in entries)
    _emit("status", "pass" if ok else "fail")
    return EXIT_OK if ok else EXIT_MATH


def cmd_prove(args: argparse.Namespace) -> int:
    """Construct a membership certificate and write it to a file."""
    store = None
    if args.store is not None:
        try:
            store = CertStore(args.store)
        except OSError as exc:
            raise UsageError(f"cannot open store {args.store}: {exc}") from exc
    context = WildContext(trajectory_budget=args.budget, store=store)
    build = s_certificate_for_rational if args.side == "s" else w_certificate_for_rational
    try:
        cert = build(args.value, context)
    except OSError as exc:
        # the store is the only file the construction touches
        raise UsageError(f"cannot use store {args.store}: {exc}") from exc
    destination = args.out if args.out is not None else Path(cert_filename(cert.side, cert.target))
    try:
        destination.write_text(serialize_certificate(cert))
    except OSError as exc:
        raise UsageError(f"cannot write {destination}: {exc}") from exc
    _emit("side", cert.side)
    _emit("target", format_rational(cert.target))
    _emit("generators", cert.generator_count)
    _emit("total_exponent", sum(exp for _, exp in cert.factors))
    _emit("wrote", destination)
    _emit("status", "pass")  # each constructor verified what it returned
    return EXIT_OK


def cmd_coverage(args: argparse.Namespace) -> int:
    """Verify a stored cover table or regenerate one by search."""
    bits = args.bits
    # built in both modes, so bad limits are a usage error with --fixture too
    limits = SearchLimits(max_depth=bits, max_muls=args.max_muls, mul_cap=args.mul_cap)
    if args.regen:
        _progress(f"searching decreasing cover mod 2^{bits}...")
        try:
            table = build_coverage(bits, DEFAULT_MULTIPLIER_BASE, limits)
        except CoverageError as exc:
            for gap in exc.uncovered:
                _emit("uncovered", gap)
            _emit("status", "gap")
            return EXIT_MATH
    else:
        try:
            text = builtin_coverage_text() if args.fixture == "builtin" else Path(args.fixture).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {args.fixture}: {exc}") from exc
        table = load_coverage(text, modulus_exponent=bits)
    verdict = verify_coverage_table(table)
    _emit("records", len(table.records))
    _emit("modulus_exponent", table.modulus_exponent)
    _emit("worst", format_rational(table.worst))
    for issue in verdict.issues:
        _emit("issue", issue)
    if args.out is not None:
        try:
            args.out.write_text(dump_coverage(table))
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
        _emit("wrote", args.out)
    _emit("status", "pass" if verdict.ok else "fail")
    return EXIT_OK if verdict.ok else EXIT_MATH


def cmd_search(args: argparse.Namespace) -> int:
    """Cover the subtree under one residue class with decreasing paths."""
    j = args.modulus.bit_length() - 1
    cls = ResidueClass(args.residue, j)
    limits = SearchLimits(max_depth=max(12, j))
    result = search_decreasing_path(class_bits(cls), DEFAULT_MULTIPLIER_BASE, limits)
    for rec in result.records:
        print(
            f"record={rec.bits} class={rec.cls.residue} modulus_exponent={rec.cls.j}"
            f" worst={format_rational(rec.worst_ratio)} steps={','.join(rec.steps)}"
        )
    for gap in result.uncovered:
        _emit("uncovered", gap)
    _emit("records", len(result.records))
    issues = [f"{rec.bits}: {issue}" for rec in result.records for issue in verify_record(rec)]
    for issue in issues:
        _emit("issue", issue)
    if issues:
        _emit("status", "fail")
        return EXIT_MATH
    ok = result.fully_covered or result.obstructed_only
    _emit("status", "pass" if ok else "gap")
    return EXIT_OK if ok else EXIT_MATH


def cmd_smooth(args: argparse.Namespace) -> int:
    """Smooth-pair witness for one prime."""
    try:
        witness = find_smooth_pair(args.q)
    except SmoothPairExhaustionError as exc:
        _emit("q", args.q)
        _emit("status", "no_pair")
        _progress(str(exc))
        return EXIT_MATH
    _emit("q", witness.q)
    _emit("a", witness.a)
    _emit("r", witness.r)
    _emit("s1", witness.s1)
    _emit("s2", witness.s2)
    _emit("product", witness.s1 * witness.s2)
    _emit("k", witness.k)
    _emit("n", witness.n)
    _emit("l", witness.l)
    _emit("status", "pass")
    return EXIT_OK


def cmd_pi_check(args: argparse.Namespace) -> int:
    """The prime-count inequality over every integer in [q_min, q_max]."""
    summary = pi_inequality_range(args.q_min, args.q_max)
    _emit("q_min", summary.q_min)
    _emit("q_max", summary.q_max)
    _emit("checked", summary.checked)
    _emit("failures", len(summary.failures))
    for q in summary.failures[:20]:
        _emit("failure", q)
    _emit("status", "pass" if summary.passed else "fail")
    return EXIT_OK if summary.passed else EXIT_MATH


def cmd_induct(args: argparse.Namespace) -> int:
    """Run the mutual induction and print one line per hypothesis check."""
    _progress(f"induction for 12 <= k <= {args.k_max}, trajectory bound {args.traj_bound}...")
    try:
        report = induction_driver(args.k_max, trajectory_bound=args.traj_bound)
    except InductionError as exc:
        print(f"k={exc.k} hyp={exc.hypothesis} status=fail witness={exc.witness}")
        _emit("status", "fail")
        _progress(str(exc))
        return EXIT_MATH
    print(report.render())
    _emit("status", "pass")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing.  Rules on a single value that no library call checks
# are argparse types; everything else is left to the library's ValueError.
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # surface usage problems as exceptions so main() can return 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


_T = TypeVar("_T")


def _arg(
    parse: Callable[[str], _T], ok: Callable[[_T], bool] = lambda _: True, rule: str = ""
) -> Callable[[str], _T]:
    """An argparse type: parse the text and check one rule on the value.

    A ValueError from the parser or a broken rule becomes a usage error
    (exit 2) that keeps its message.
    """

    def convert(text: str) -> _T:
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return convert


_positive_int = _arg(int, lambda n: n >= 1, ">= 1")
_modulus_exponent = _arg(int, lambda n: 1 <= n <= MOD_EXP_CAP, f"in 1..{MOD_EXP_CAP}")
_power_of_two = _arg(int, lambda n: n >= 2 and not n & (n - 1), "a power of two >= 2")


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wildsemi",
        description="Certificates, decreasing covers and the induction run for the 3x+1 semigroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("verify", help="replay a certificate file, or every *.cert in a directory")
    p.add_argument("path", type=Path, help="certificate file, or a directory such as a --store DIR")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("prove", help="construct and write a membership certificate")
    p.add_argument("side", choices=("s", "w"))
    p.add_argument("value", type=_arg(parse_rational), help="positive integer or num/den")
    p.add_argument("--out", type=Path, default=None, help="output file (default: <side>-<target>.cert)")
    p.add_argument("--store", type=Path, default=None, help="directory cache for intermediate certificates")
    p.add_argument(
        "--budget", type=_positive_int, default=DEFAULT_TRAJECTORY_BUDGET, help="trajectory step budget"
    )
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("coverage", help="verify or regenerate a decreasing cover table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--fixture",
        nargs="?",
        const="builtin",
        default=None,
        metavar="FILE",
        help="verify this table file (omit the value for the shipped table)",
    )
    group.add_argument("--regen", action="store_true", help="search the cover from scratch")
    p.add_argument("--bits", type=_modulus_exponent, required=True, help="modulus exponent J")
    p.add_argument(
        "--mul-cap", type=int, default=SearchLimits.mul_cap, help="largest multiplier product tried"
    )
    p.add_argument(
        "--max-muls", type=int, default=SearchLimits.max_muls, help="most multiplications per path, 0-2"
    )
    p.add_argument("--out", type=Path, default=None, help="also write the table here")
    p.set_defaults(run=cmd_coverage)

    p = sub.add_parser("search", help="decreasing-path search under one residue class")
    p.add_argument("--class", dest="residue", type=int, required=True, help="residue s")
    p.add_argument("--mod", dest="modulus", type=_power_of_two, required=True, help="modulus, a power of two")
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("smooth", help="smooth-pair witness for a prime")
    p.add_argument("q", type=int)
    p.set_defaults(run=cmd_smooth)

    p = sub.add_parser("pi-check", help="prime-count inequality over a range")
    p.add_argument("q_min", type=int)
    p.add_argument("q_max", type=int)
    p.set_defaults(run=cmd_pi_check)

    p = sub.add_parser("induct", help="run the mutual induction for 12 <= k <= k_max")
    p.add_argument("k_max", type=int, help="last level, 12..35 (hypothesis 3 sieves below 6 (2^k_max - 1)/189 + 6)")
    p.add_argument(
        "--traj-bound", type=_positive_int, default=DEFAULT_TRAJECTORY_BOUND, help="cap for the reach-one sweep"
    )
    p.set_defaults(run=cmd_induct)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificateParseError, CoverageParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotInSemigroupError as exc:
        _emit("status", "refused")
        _emit("reason", f"not in semigroup: {exc}")
        return EXIT_MATH
    except BudgetExhaustedError as exc:
        _emit("status", "budget_exhausted")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        _emit("status", "fail")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except ValueError as exc:
        # range and format violations from the library layer are usage
        # errors by the exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
