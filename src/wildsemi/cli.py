"""Command-line front end for certificates, covers and the induction run.

Exit codes are stable across every command: 0 success, 1 mathematical
failure (a failed internal check included), 2 usage or parse error,
3 budget exhaustion.  Results are printed to stdout as line-oriented
key=value pairs so runs diff cleanly; progress chatter goes to stderr
only.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .certify import (
    Certificate,
    CertificateParseError,
    VerifyStatus,
    invert_certificate,
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
    class_bits,
    dump_coverage,
    load_builtin_coverage,
    load_coverage,
    search_decreasing_path,
    verify_coverage_table,
)
from .wildprove import (
    BudgetExhaustedError,
    CertStore,
    InductionBudgets,
    InductionError,
    NotInSemigroupError,
    SmoothPairExhaustionError,
    VerificationError,
    WildContext,
    find_smooth_pair,
    induction_driver,
    is_prime_int,
    pi_inequality_range,
    s_certificate_for_rational,
    w_certificate_for_integer,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation, built in full before any work runs."""

    command: str
    path: Optional[Path] = None
    side: Optional[str] = None
    value: Optional[Fraction] = None
    out: Optional[Path] = None
    store: Optional[Path] = None
    budget: Optional[int] = None
    bits: Optional[int] = None
    fixture: Optional[str] = None
    regen: bool = False
    mul_cap: Optional[int] = None
    max_muls: Optional[int] = None
    residue: Optional[int] = None
    modulus: Optional[int] = None
    q: Optional[int] = None
    q_min: Optional[int] = None
    q_max: Optional[int] = None
    k_max: Optional[int] = None
    traj_bound: Optional[int] = None
    seed: int = 0


def _emit(key: str, value: object) -> None:
    print(f"{key}={value}")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


# --------------------------------------------------------------------------
# Commands.  Each returns an exit code; unexpected domain errors are
# translated centrally in main().
# --------------------------------------------------------------------------


def cmd_verify(path: Path) -> int:
    """Replay one certificate file and report pass/mismatch."""
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


def _default_cert_path(cert: Certificate) -> Path:
    t = cert.target
    stem = str(t.numerator) if t.denominator == 1 else f"{t.numerator}_{t.denominator}"
    return Path(f"{str(cert.side).lower()}-{stem}.cert")


def cmd_prove(
    side: str,
    value: Fraction,
    out: Optional[Path] = None,
    store: Optional[Path] = None,
    budget: Optional[int] = None,
) -> int:
    """Construct a membership certificate and write it to a file."""
    context = WildContext(
        trajectory_budget=budget if budget is not None else DEFAULT_TRAJECTORY_BUDGET,
        store=CertStore(store) if store is not None else None,
    )
    if side == "s":
        cert = s_certificate_for_rational(value, context)
    elif value.denominator == 1:
        cert = w_certificate_for_integer(value.numerator, context)
    else:
        # a W-certificate for num/den is the mirror of an S-certificate
        # for den/num, which exists iff 3 does not divide num
        if value.numerator % 3 == 0:
            raise NotInSemigroupError(
                f"numerator {value.numerator} is divisible by 3; {value} is not in the wild semigroup"
            )
        cert = invert_certificate(s_certificate_for_rational(1 / value, context))
    result = verify_certificate(cert)
    destination = out if out is not None else _default_cert_path(cert)
    try:
        destination.write_text(serialize_certificate(cert))
    except OSError as exc:
        raise UsageError(f"cannot write {destination}: {exc}") from exc
    _emit("side", cert.side)
    _emit("target", format_rational(cert.target))
    _emit("generators", cert.generator_count)
    _emit("total_exponent", sum(exp for _, exp in cert.factors))
    _emit("wrote", destination)
    _emit("status", result.status.value)
    return EXIT_OK if result.ok else EXIT_MATH


def cmd_coverage(
    bits: int,
    fixture: Optional[str] = None,
    regen: bool = False,
    mul_cap: Optional[int] = None,
    max_muls: Optional[int] = None,
    out: Optional[Path] = None,
) -> int:
    """Verify a stored cover table or regenerate one by search."""
    if regen:
        limits = SearchLimits(
            max_depth=bits,
            max_muls=max_muls if max_muls is not None else SearchLimits.max_muls,
            mul_cap=mul_cap if mul_cap is not None else SearchLimits.mul_cap,
        )
        _progress(f"searching decreasing cover mod 2^{bits}...")
        try:
            table = build_coverage(bits, DEFAULT_MULTIPLIER_BASE, limits)
        except CoverageError as exc:
            for gap in exc.uncovered:
                _emit("uncovered", gap)
            _emit("status", "gap")
            return EXIT_MATH
    elif fixture == "builtin":
        table = load_builtin_coverage()
    else:
        try:
            text = Path(fixture).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {fixture}: {exc}") from exc
        table = load_coverage(text, modulus_exponent=bits)
    verdict = verify_coverage_table(table)
    _emit("records", len(table.records))
    _emit("modulus_exponent", table.modulus_exponent)
    _emit("worst", format_rational(table.worst))
    for issue in verdict.issues:
        _emit("issue", issue)
    if out is not None:
        try:
            out.write_text(dump_coverage(table))
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
        _emit("wrote", out)
    _emit("status", "pass" if verdict.ok else "fail")
    return EXIT_OK if verdict.ok else EXIT_MATH


def cmd_search(residue: int, modulus: int) -> int:
    """Cover the subtree under one residue class with decreasing paths."""
    j = modulus.bit_length() - 1
    cls = ResidueClass(residue, j)
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
    ok = result.fully_covered or result.obstructed_only
    _emit("status", "pass" if ok else "gap")
    return EXIT_OK if ok else EXIT_MATH


def cmd_smooth(q: int) -> int:
    """Smooth-pair witness for one prime."""
    try:
        witness = find_smooth_pair(q)
    except SmoothPairExhaustionError as exc:
        _emit("q", q)
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


def cmd_pi_check(q_min: int, q_max: int) -> int:
    """The prime-count inequality over every integer in [q_min, q_max]."""
    summary = pi_inequality_range(q_min, q_max)
    _emit("q_min", summary.q_min)
    _emit("q_max", summary.q_max)
    _emit("checked", summary.checked)
    _emit("failures", len(summary.failures))
    for q in summary.failures[:20]:
        _emit("failure", q)
    _emit("status", "pass" if summary.passed else "fail")
    return EXIT_OK if summary.passed else EXIT_MATH


def cmd_induct(k_max: int, traj_bound: Optional[int] = None) -> int:
    """Run the mutual induction and print one line per hypothesis check."""
    budgets = (
        InductionBudgets(trajectory_bound=traj_bound)
        if traj_bound is not None
        else InductionBudgets()
    )
    _progress(f"induction for 12 <= k <= {k_max}, trajectory bound {budgets.trajectory_bound}...")
    try:
        report = induction_driver(k_max, budgets)
    except InductionError as exc:
        print(f"k={exc.k} hyp={exc.hypothesis} status=fail witness={exc.witness}")
        _emit("status", "fail")
        _progress(str(exc))
        return EXIT_MATH
    print(report.render())
    _emit("status", "pass")
    return EXIT_OK


# --------------------------------------------------------------------------
# Argument parsing and dispatch.
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # surface usage problems as exceptions so main() can return 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wildsemi",
        description="Certificates, decreasing covers and the induction run for the 3x+1 semigroup.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="determinism seed recorded in the run config; built-in commands are deterministic regardless",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("verify", help="replay a certificate file")
    p.add_argument("path", type=Path)

    p = sub.add_parser("prove", help="construct and write a membership certificate")
    p.add_argument("side", choices=("s", "w"))
    p.add_argument("value", help="positive integer or num/den")
    p.add_argument("--out", type=Path, default=None, help="output file (default: <side>-<target>.cert)")
    p.add_argument("--store", type=Path, default=None, help="directory cache for intermediate certificates")
    p.add_argument("--budget", type=int, default=None, help="trajectory step budget")

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
    p.add_argument("--bits", type=int, required=True, help="modulus exponent J")
    p.add_argument("--mul-cap", type=int, default=None, help="largest multiplier product tried")
    p.add_argument("--max-muls", type=int, default=None, help="most multiplications per path, 0-2")
    p.add_argument("--out", type=Path, default=None, help="also write the table here")

    p = sub.add_parser("search", help="decreasing-path search under one residue class")
    p.add_argument("--class", dest="residue", type=int, required=True, help="residue s")
    p.add_argument("--mod", dest="modulus", type=int, required=True, help="modulus, a power of two")

    p = sub.add_parser("smooth", help="smooth-pair witness for a prime")
    p.add_argument("q", type=int)

    p = sub.add_parser("pi-check", help="prime-count inequality over a range")
    p.add_argument("q_min", type=int)
    p.add_argument("q_max", type=int)

    p = sub.add_parser("induct", help="run the mutual induction up to k_max")
    p.add_argument("k_max", type=int)
    p.add_argument("--traj-bound", type=int, default=None, help="cap for the reach-one sweep")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Validate parameter ranges up front; raises UsageError on junk."""
    command = args.command
    fields: dict[str, object] = {"command": command, "seed": args.seed}
    if command == "verify":
        fields["path"] = args.path
    elif command == "prove":
        try:
            value = parse_rational(args.value)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if args.budget is not None and args.budget < 1:
            raise UsageError(f"budget must be >= 1, got {args.budget}")
        fields.update(side=args.side, value=value, out=args.out, store=args.store, budget=args.budget)
    elif command == "coverage":
        if not 1 <= args.bits <= MOD_EXP_CAP:
            raise UsageError(f"--bits must be in 1..{MOD_EXP_CAP}, got {args.bits}")
        if args.mul_cap is not None and args.mul_cap < 1:
            raise UsageError(f"--mul-cap must be >= 1, got {args.mul_cap}")
        if args.max_muls is not None and args.max_muls < 0:
            raise UsageError(f"--max-muls must be >= 0, got {args.max_muls}")
        fields.update(
            bits=args.bits,
            fixture=args.fixture,
            regen=args.regen,
            mul_cap=args.mul_cap,
            max_muls=args.max_muls,
            out=args.out,
        )
    elif command == "search":
        mod = args.modulus
        if mod < 2 or mod & (mod - 1):
            raise UsageError(f"--mod must be a power of two >= 2, got {mod}")
        if not 0 <= args.residue < mod:
            raise UsageError(f"--class must be in 0..{mod - 1}, got {args.residue}")
        if mod.bit_length() - 1 > MOD_EXP_CAP:
            raise UsageError(f"--mod exponent must be <= {MOD_EXP_CAP}")
        fields.update(residue=args.residue, modulus=mod)
    elif command == "smooth":
        if args.q < 5 or not is_prime_int(args.q):
            raise UsageError(f"q must be a prime >= 5, got {args.q}")
        fields["q"] = args.q
    elif command == "pi-check":
        if args.q_min > args.q_max:
            raise UsageError(f"empty range {args.q_min}..{args.q_max}")
        if args.q_min <= 256:
            raise UsageError(f"range must start above 256, got {args.q_min}")
        fields.update(q_min=args.q_min, q_max=args.q_max)
    elif command == "induct":
        if args.k_max < 12:
            raise UsageError(f"k_max must be >= 12, got {args.k_max}")
        if args.traj_bound is not None and args.traj_bound < 1:
            raise UsageError(f"--traj-bound must be >= 1, got {args.traj_bound}")
        fields.update(k_max=args.k_max, traj_bound=args.traj_bound)
    return RunConfig(**fields)


def _dispatch(config: RunConfig) -> int:
    if config.command == "verify":
        return cmd_verify(config.path)
    if config.command == "prove":
        return cmd_prove(config.side, config.value, config.out, config.store, config.budget)
    if config.command == "coverage":
        return cmd_coverage(
            config.bits, config.fixture, config.regen, config.mul_cap, config.max_muls, config.out
        )
    if config.command == "search":
        return cmd_search(config.residue, config.modulus)
    if config.command == "smooth":
        return cmd_smooth(config.q)
    if config.command == "pi-check":
        return cmd_pi_check(config.q_min, config.q_max)
    if config.command == "induct":
        return cmd_induct(config.k_max, config.traj_bound)
    raise UsageError(f"unknown command {config.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        return _dispatch(config)
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
