"""Membership certificates for the 3x+1 semigroup and its inverse.

A certificate is a side and a target rational together with a
multiset of generators with exponents; it proves membership by exact
evaluation.  Side S is generated by 2 and (2k+1)/(3k+2), side W by
1/2 and g(k) = (3k+2)/(2k+1), so once the side is known a generator
is named by its index alone.  The wire keyword for the first
generator in each family is `half` (value 2 on side S, 1/2 on side W,
index HALF in code), everything else is `g <k>`.

The module also carries the seven built-in W-certificates for the
hand-made targets 5, 7, 11, 13, 23, 29, 43.  The printed two-line
transcription they came from has two defects, so the built-in table
is the repaired form; the verbatim transcription and the audit that
makes the repair visible live with the tests
(tests/raw_transcription.py).  A certificate is mirrored to the other
side by certificate_product: the same factors with the reciprocal
target.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import format_rational, parse_rational


class Side(enum.Enum):
    S = "S"
    W = "W"

    def __str__(self) -> str:
        return self.value


class CertificateError(ValueError):
    """Misuse of the certificate algebra (side clash, bad inversion, ...)."""


class CertificateParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


HALF = -1
# Reserved index of the `half` token.  It sorts before every g(k),
# k >= 0, so plain tuple order is the canonical factor order.


def _s_pair(k: int) -> tuple[int, int]:
    """(numerator, denominator) of the side-S generator of index k >= HALF."""
    if k == HALF:
        return 2, 1
    # gcd(2k+1, 3k+2) divides 3(2k+1) - 2(3k+2) = -1, so this is reduced
    return 2 * k + 1, 3 * k + 2


def generator_value(side: Side, k: int) -> Fraction:
    """The generator of index k on a side: 2 or (2k+1)/(3k+2) on S,
    their reciprocals on W; k = HALF is the `half` token."""
    if k < HALF:
        raise ValueError(f"generator index must be >= 0 or HALF, got {k}")
    num, den = _s_pair(k)
    return Fraction(num, den) if side is Side.S else Fraction(den, num)


@dataclass(frozen=True)
class Certificate:
    """Side, target rational and generator multiset; immutable and canonical.

    Factors are (index, exponent) pairs on the certificate's side, with
    index HALF for the `half` token.  Construction merges duplicate
    indices and sorts, so equality is structural.  Nonpositive exponents
    are preserved for verify_certificate to flag; they are not
    constructor errors.
    """

    side: Side
    target: Fraction
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError(f"certificate target must be positive, got {self.target}")
        merged: dict[int, int] = {}
        for k, exp in self.factors:
            merged[k] = merged.get(k, 0) + exp
        canon = tuple(sorted(merged.items()))
        if canon and canon[0][0] < HALF:
            raise ValueError(f"generator index must be >= 0 or HALF, got {canon[0][0]}")
        object.__setattr__(self, "factors", canon)

    @property
    def generator_count(self) -> int:
        return len(self.factors)


class VerifyStatus(enum.Enum):
    PASS = "pass"
    MISMATCH = "mismatch"
    INVALID = "invalid"


@dataclass(frozen=True)
class VerifyResult:
    status: VerifyStatus
    target: Fraction
    evaluated: Optional[Fraction] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is VerifyStatus.PASS


def eval_certificate(cert: Certificate) -> Fraction:
    """Exact product of all generator values to their exponents.

    Does not look at the target; an empty factor list is the empty
    product 1.  Numerator and denominator are accumulated as plain
    integers from the side-S pairs, swapped for negative exponents and
    for side W, and reduced once at the end: reducing after every factor
    (what a running Fraction product does) spends most of its time in
    gcd on certificates with thousands of factors.
    """
    num = den = 1
    for k, exp in cert.factors:
        p, q = _s_pair(k)
        if exp < 0:
            p, q, exp = q, p, -exp
        num *= p**exp
        den *= q**exp
    if cert.side is Side.W:
        num, den = den, num
    return Fraction(num, den)


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Pass iff the product equals the target exactly.

    A nonpositive exponent comes back as INVALID rather than pass/fail,
    so callers can distinguish a wrong identity from a malformed object.
    """
    for k, exp in cert.factors:
        if exp < 1:
            name = "half" if k == HALF else f"g({k})"
            return VerifyResult(
                VerifyStatus.INVALID,
                cert.target,
                reason=f"factor {name} has nonpositive exponent {exp}",
            )
    product = eval_certificate(cert)
    if product != cert.target:
        return VerifyResult(
            VerifyStatus.MISMATCH,
            cert.target,
            evaluated=product,
            reason=f"product {format_rational(product)} != target {format_rational(cert.target)}",
        )
    return VerifyResult(VerifyStatus.PASS, cert.target, evaluated=product)


def certificate_product(side: Side, parts: list[tuple[Certificate, int]]) -> Certificate:
    """The certificate on `side` of the product of cert^e over the parts, built once.

    A part from the other side enters as its mirror: the same factors and
    the reciprocal target.  The target is the exact product of the part
    targets and the factors are every part's factors with exponents
    times e; the constructor merges and sorts them a single time.
    """
    num = den = 1
    factors: list[tuple[int, int]] = []
    for cert, e in parts:
        p, q = cert.target.numerator, cert.target.denominator
        if cert.side is not side:
            p, q = q, p
        num *= p**e
        den *= q**e
        factors += [(k, exp * e) for k, exp in cert.factors]
    return Certificate(side, Fraction(num, den), tuple(factors))


# ---------------------------------------------------------------------------
# Built-in base certificates.
#
# The seven targets below were found by hand, not by the constructive
# search, and are shipped as data.  Each row is (target, ((k, exp), ...))
# with k = HALF for the half token.  The row for 13 is repaired:
# the transcription we inherited prints g(5)^3, whose product is
# 13*(17/11)^2, not 13; with g(5)^1 the row is exactly 11 * (1/2) g(5)
# g(8) = 13/11 times the row for 11, and it verifies.  The verbatim
# transcription and its audit live with the tests
# (tests/raw_transcription.py).
# ---------------------------------------------------------------------------

BASE_TARGETS = (5, 7, 11, 13, 23, 29, 43)

_BASE_ROWS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (5, ((HALF, 2), (3, 2), (5, 1), (8, 1), (27, 1), (32, 1), (41, 1))),
    (7, ((HALF, 2), (3, 1), (8, 1), (11, 1), (71, 1), (99, 1), (107, 1), (123, 1), (132, 1))),
    (11, ((HALF, 2), (3, 2), (8, 1), (11, 1), (71, 1), (99, 1), (107, 1), (123, 1), (132, 1))),
    (13, ((HALF, 3), (3, 2), (5, 1), (8, 2), (11, 1), (71, 1), (99, 1), (107, 1), (123, 1), (132, 1))),
    (
        23,
        (
            (HALF, 5),
            (3, 1),
            (8, 1),
            (11, 1),
            (15, 1),
            (45, 1),
            (51, 1),
            (68, 1),
            (71, 1),
            (99, 2),
            (107, 1),
            (117, 1),
            (123, 1),
            (132, 2),
            (176, 1),
        ),
    ),
    (
        29,
        ((HALF, 5), (3, 4), (5, 2), (8, 2), (9, 1), (12, 1), (27, 2), (32, 2), (41, 2)),
    ),
    (
        43,
        (
            (HALF, 11),
            (3, 5),
            (5, 2),
            (8, 3),
            (9, 1),
            (11, 1),
            (12, 1),
            (27, 2),
            (32, 2),
            (41, 2),
            (71, 1),
            (99, 1),
            (101, 1),
            (107, 1),
            (114, 1),
            (123, 1),
            (132, 1),
            (152, 1),
        ),
    ),
)


def _w_certificate(target: int, rows: tuple[tuple[int, int], ...]) -> Certificate:
    return Certificate(Side.W, Fraction(target), rows)


def base_table() -> tuple[Certificate, ...]:
    """The seven built-in W-certificates, every one of which verifies."""
    return tuple(_w_certificate(target, rows) for target, rows in _BASE_ROWS)


def base_certificate(target: int) -> Certificate:
    for t, rows in _BASE_ROWS:
        if t == target:
            return _w_certificate(t, rows)
    raise KeyError(f"no built-in certificate for {target}; have {BASE_TARGETS}")


# ---------------------------------------------------------------------------
# Wire format.
#
#   CERT v1 <S|W>
#   target <num>/<den>       (the /den part is mandatory, /1 included)
#   half <exp>               (optional, at most once)
#   g <k> <exp>              (sorted by k, at most one line per k)
#
# '#' starts a comment; blank lines are ignored.
# ---------------------------------------------------------------------------


def serialize_certificate(cert: Certificate) -> str:
    if any(exp < 1 for _, exp in cert.factors):
        raise CertificateError("cannot serialize a structurally invalid certificate")
    lines = [f"CERT v1 {cert.side}", f"target {format_rational(cert.target)}"]
    for k, exp in cert.factors:  # canonical order: half first, then k ascending
        lines.append(f"half {exp}" if k == HALF else f"g {k} {exp}")
    return "\n".join(lines) + "\n"


def _parse_exp(token: str, lineno: int) -> int:
    try:
        exp = int(token, 10)
    except ValueError:
        raise CertificateParseError(lineno, f"exponent is not an integer: {token!r}") from None
    if exp < 1:
        raise CertificateParseError(lineno, f"exponent must be >= 1, got {exp}")
    return exp


def parse_certificate(text: str) -> Certificate:
    side: Optional[Side] = None
    target: Optional[Fraction] = None
    factors: list[tuple[int, int]] = []
    seen_half = False
    last_k = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if side is None:
            if parts[0] != "CERT":
                raise CertificateParseError(lineno, f"expected CERT header, got {parts[0]!r}")
            if len(parts) != 3 or parts[1] != "v1":
                raise CertificateParseError(lineno, "header must be exactly 'CERT v1 <S|W>'")
            if parts[2] not in ("S", "W"):
                raise CertificateParseError(lineno, f"unknown side {parts[2]!r}")
            side = Side(parts[2])
            continue
        if parts[0] == "CERT":
            raise CertificateParseError(lineno, "stray second CERT header")
        if parts[0] == "target":
            if target is not None:
                raise CertificateParseError(lineno, "duplicate target line")
            if len(parts) != 2 or "/" not in parts[1]:
                raise CertificateParseError(lineno, "target must be 'target <num>/<den>'")
            try:
                target = parse_rational(parts[1])
            except ValueError as exc:
                raise CertificateParseError(lineno, str(exc)) from None
            continue
        if target is None:
            raise CertificateParseError(lineno, "target line must precede generator lines")
        if parts[0] == "half":
            if len(parts) != 2:
                raise CertificateParseError(lineno, "half line must be 'half <exp>'")
            if seen_half:
                raise CertificateParseError(lineno, "duplicate half line")
            seen_half = True
            factors.append((HALF, _parse_exp(parts[1], lineno)))
            continue
        if parts[0] == "g":
            if len(parts) != 3:
                raise CertificateParseError(lineno, "generator line must be 'g <k> <exp>'")
            try:
                k = int(parts[1], 10)
            except ValueError:
                raise CertificateParseError(lineno, f"generator index is not an integer: {parts[1]!r}") from None
            if k < 0:
                raise CertificateParseError(lineno, f"generator index must be >= 0, got {k}")
            if k <= last_k:
                raise CertificateParseError(lineno, f"g lines must be strictly sorted by k, got {k} after {last_k}")
            last_k = k
            factors.append((k, _parse_exp(parts[2], lineno)))
            continue
        raise CertificateParseError(lineno, f"unknown line keyword {parts[0]!r}")
    if side is None:
        raise CertificateParseError(1, "empty input, expected CERT header")
    if target is None:
        raise CertificateParseError(1, "missing target line")
    return Certificate(side, target, tuple(factors))
