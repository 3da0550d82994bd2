#!/usr/bin/env python3
"""Scan random step sequences on the all-ones classes for the no-decrease wall.

Every T step on a class -1 mod 2^j is an odd step, so the induced affine
map sends -1 to a value <= -1, which forces c >= 1 + d and growth on all
positive class members.  The scan samples sequences with random
multiplier insertions and reports the tightest margins seen; a single
counterexample would print loudly and exit nonzero.

Usage: python scripts/obstruction_scan.py [--samples N] [--max-j J] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wildsemi import residue
from wildsemi.certify import BASE_TARGETS

MULTIPLIERS = BASE_TARGETS  # the targets of the built-in wild certificates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--max-j", type=int, default=20, help="largest class exponent")
    parser.add_argument("--seed", type=int, default=20260814)
    args = parser.parse_args()
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    if not 2 <= args.max_j <= residue.MOD_EXP_CAP:
        parser.error(f"--max-j must be in 2..{residue.MOD_EXP_CAP}")

    rng = random.Random(args.seed)
    tightest = None  # (margin, j, steps)
    closest_value = None  # value at -1 nearest to the -1 wall
    for _ in range(args.samples):
        j = rng.randint(2, args.max_j)
        steps = ["T"] * j
        for _ in range(rng.randint(0, 3)):
            steps.insert(rng.randint(0, len(steps)), residue.mul_step(rng.choice(MULTIPLIERS)))
        report = residue.obstruction_check(steps, j)
        if not (report.negativity_holds and report.no_decrease):
            print(f"COUNTEREXAMPLE j={j} steps={','.join(steps)}")
            print(f"  map c={report.map.c} d={report.map.d} value(-1)={report.value_at_minus_one}")
            return 1
        if tightest is None or report.margin < tightest[0]:
            tightest = (report.margin, j, tuple(steps))
        if closest_value is None or report.value_at_minus_one > closest_value[0]:
            closest_value = (report.value_at_minus_one, j, tuple(steps))

    print(f"{args.samples} sequences on -1 mod 2^j for 2 <= j <= {args.max_j}: none decrease")
    margin, j, steps = tightest
    print(f"tightest growth margin {margin} at j={j}, steps {','.join(steps)}")
    value, j, steps = closest_value
    print(f"value at -1 closest to the wall: {value} at j={j}, steps {','.join(steps)}")
    print("pure-T sequences pin the map to ((3/2)^j, (3/2)^j - 1) with value(-1) = -1 exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
