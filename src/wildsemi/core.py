"""Exact arithmetic and the 3x+1 map.

The map T sends an even integer n to n/2 and an odd integer n to
(3n+1)/2.  Everything downstream (certificates, residue-class maps,
the induction driver) is built on exact rational arithmetic, so the
universal value type is an arbitrary-precision fraction in lowest
terms.  We use the stdlib Fraction, which normalizes eagerly, and a
couple of guards that enforce positivity at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ONE = Fraction(1)


def pos_rational(numerator: int, denominator: int = 1) -> Fraction:
    """Build a positive rational in lowest terms, rejecting junk."""
    if numerator < 1 or denominator < 1:
        raise ValueError(
            f"positive rational needs positive parts, got {numerator}/{denominator}"
        )
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse `num` or `num/den` (decimal digits only) into a positive rational."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        n = int(num, 10)
        d = int(den, 10) if slash else 1
    except ValueError:
        raise ValueError(f"not a rational literal: {text!r}") from None
    return pos_rational(n, d)


def format_rational(q: Fraction) -> str:
    """Render as num/den with the /1 kept explicit (stable wire format)."""
    return f"{q.numerator}/{q.denominator}"


def t_map(n: int) -> int:
    """One step of T: n/2 on even n, (3n+1)/2 on odd n."""
    if n < 1:
        raise ValueError(f"t_map wants a positive integer, got {n}")
    if n & 1:
        return (3 * n + 1) >> 1
    return n >> 1


def t_iterate(n: int, j: int) -> int:
    """T applied j times; t_iterate(n, 0) is n itself."""
    if n < 1:
        raise ValueError(f"t_iterate wants a positive integer, got {n}")
    if j < 0:
        raise ValueError(f"step count must be nonnegative, got {j}")
    for _ in range(j):
        n = (3 * n + 1) >> 1 if n & 1 else n >> 1
    return n


@dataclass(frozen=True)
class Trajectory:
    """Forward orbit of a positive integer under T.

    values[0] is the start; consecutive entries are single T steps.
    reached_one records whether the orbit hit 1 before the step budget
    ran out (running out is a report, not an error).
    """

    start: int
    values: tuple[int, ...]
    reached_one: bool

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != self.start:
            raise ValueError("trajectory must begin at its start value")
        if self.reached_one and self.values[-1] != 1:
            raise ValueError("reached_one set but last value is not 1")

    @property
    def steps(self) -> int:
        return len(self.values) - 1


DEFAULT_TRAJECTORY_BUDGET = 10_000
# far above any stopping time seen below 2^20; guards nontermination


def trajectory_to_one(n: int, max_steps: int = DEFAULT_TRAJECTORY_BUDGET) -> Trajectory:
    """Iterate T from n until 1 or until max_steps is spent."""
    if n < 1:
        raise ValueError(f"trajectory wants a positive integer, got {n}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    values = [n]
    v = n
    for _ in range(max_steps):
        if v == 1:
            break
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
        values.append(v)
    return Trajectory(start=n, values=tuple(values), reached_one=values[-1] == 1)

