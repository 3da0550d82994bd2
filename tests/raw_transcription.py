"""The transcription audit of the built-in base certificates.

certify ships the seven W-certificates for 5, 7, 11, 13, 23, 29, 43 in
repaired form.  This module keeps the printed table they came from,
verbatim, and the checker that multiplies it out exactly, so the tests
can show which printed rows are defective and why.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from wildsemi.certify import BASE_TARGETS, HALF, Side, base_table, generator_value
from wildsemi.core import ONE, format_rational

# ---------------------------------------------------------------------------
# Verbatim transcription of the printed table the base certificates
# came from.  Each target is printed twice: once as explicit fractions
# (num, den, exp) and once by generator index (k, exp), k = HALF for
# the leading (1/2)^e.  Two rows are defective and the checker below
# must say so:
#   - 13: both printed lines multiply to 3757/121, not 13 (the g(5)
#     exponent should be 1, not 3);
#   - 43: the fraction line prints (125/87)^2 where the index line has
#     g(41)^2 = (125/83)^2; 125/87 is not any wild generator.
# ---------------------------------------------------------------------------

RAW_FRACTION_LINES: dict[int, tuple[tuple[int, int, int], ...]] = {
    5: ((1, 2, 2), (11, 7, 2), (17, 11, 1), (26, 17, 1), (83, 55, 1), (98, 65, 1), (125, 83, 1)),
    7: (
        (1, 2, 2),
        (11, 7, 1),
        (26, 17, 1),
        (35, 23, 1),
        (215, 143, 1),
        (299, 199, 1),
        (323, 215, 1),
        (371, 247, 1),
        (398, 265, 1),
    ),
    11: (
        (1, 2, 2),
        (11, 7, 2),
        (26, 17, 1),
        (35, 23, 1),
        (215, 143, 1),
        (299, 199, 1),
        (323, 215, 1),
        (371, 247, 1),
        (398, 265, 1),
    ),
    13: (
        (1, 2, 3),
        (11, 7, 2),
        (17, 11, 3),
        (26, 17, 2),
        (35, 23, 1),
        (215, 143, 1),
        (299, 199, 1),
        (323, 215, 1),
        (371, 247, 1),
        (398, 265, 1),
    ),
    23: (
        (1, 2, 5),
        (11, 7, 1),
        (26, 17, 1),
        (35, 23, 1),
        (47, 31, 1),
        (137, 91, 1),
        (155, 103, 1),
        (206, 137, 1),
        (215, 143, 1),
        (299, 199, 2),
        (323, 215, 1),
        (353, 235, 1),
        (371, 247, 1),
        (398, 265, 2),
        (530, 353, 1),
    ),
    29: (
        (1, 2, 5),
        (11, 7, 4),
        (17, 11, 2),
        (26, 17, 2),
        (29, 19, 1),
        (38, 25, 1),
        (83, 55, 2),
        (98, 65, 2),
        (125, 83, 2),
    ),
    43: (
        (1, 2, 11),
        (11, 7, 5),
        (17, 11, 2),
        (26, 17, 3),
        (29, 19, 1),
        (35, 23, 1),
        (38, 25, 1),
        (83, 55, 2),
        (98, 65, 2),
        (125, 87, 2),
        (215, 143, 1),
        (299, 199, 1),
        (305, 203, 1),
        (323, 215, 1),
        (344, 229, 1),
        (371, 247, 1),
        (398, 265, 1),
        (458, 305, 1),
    ),
}

RAW_GINDEX_LINES: dict[int, tuple[tuple[int, int], ...]] = {
    int(cert.target): cert.factors for cert in base_table()
}
# the printed index line for 13 has the same defect as its fraction line
RAW_GINDEX_LINES[13] = (
    (HALF, 3),
    (3, 2),
    (5, 3),
    (8, 2),
    (11, 1),
    (71, 1),
    (99, 1),
    (107, 1),
    (123, 1),
    (132, 1),
)


@dataclass(frozen=True)
class RawRowReport:
    target: int
    issues: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.issues


def _index_for_fraction(num: int, den: int) -> Optional[int]:
    """Map a printed fraction to its generator index; 1/2 maps to HALF,
    anything that is no wild generator maps to None."""
    if (num, den) == (1, 2):
        return HALF
    if num % 3 == 2:
        k = (num - 2) // 3
        if den == 2 * k + 1:
            return k
    return None


def raw_base_table_report(check_fraction_lines: bool = True) -> tuple[RawRowReport, ...]:
    """Audit the verbatim transcription against exact arithmetic.

    For each target: multiply out the index line, multiply out the
    fraction line, and map each printed fraction back to a generator
    index to confirm the two lines describe the same multiset.  Any
    disagreement or non-generator fraction becomes an issue string.
    With check_fraction_lines=False only the index lines are audited.
    """
    reports = []
    for target in BASE_TARGETS:
        issues: list[str] = []
        gindex = RAW_GINDEX_LINES[target]
        product = ONE
        for k, exp in gindex:
            product *= generator_value(Side.W, k) ** exp
        if product != target:
            issues.append(
                f"index line multiplies to {format_rational(product)}, not {target}"
            )
        if check_fraction_lines:
            fline = RAW_FRACTION_LINES[target]
            fproduct = ONE
            mapped: dict[int, int] = {}
            for num, den, exp in fline:
                fproduct *= Fraction(num, den) ** exp
                k = _index_for_fraction(num, den)
                if k is None:
                    issues.append(f"printed fraction {num}/{den} is not any wild generator")
                else:
                    mapped[k] = mapped.get(k, 0) + exp
            if fproduct != target:
                issues.append(
                    f"fraction line multiplies to {format_rational(fproduct)}, not {target}"
                )
            if all(_index_for_fraction(n, d) is not None for n, d, _ in fline):
                if mapped != {k: e for k, e in gindex}:
                    issues.append("fraction line and index line disagree as multisets")
        reports.append(RawRowReport(target, tuple(issues)))
    return tuple(reports)
