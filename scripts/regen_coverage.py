#!/usr/bin/env python3
"""Search a decreasing cover from scratch and diff it against the shipped one.

The shipped table is a transcription; this run is the independent route.
The two must agree on the class partition (which prefixes get covered is
a property of the classes, not of the search order) and on the table
worst ratio, while the step sequences may differ wherever several
decreasing paths exist and the tie-break picks another one.

Usage: python scripts/regen_coverage.py [--bits J] [--mul-cap M] [--max-muls K] [--out FILE]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wildsemi import residue


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bits", type=int, default=12, help="modulus exponent J (default 12)")
    parser.add_argument("--mul-cap", type=int, default=50, help="largest multiplier product tried")
    parser.add_argument("--max-muls", type=int, default=2, help="most multiplications per path, 0-2")
    parser.add_argument("--out", type=Path, default=None, help="write the searched table here")
    args = parser.parse_args()

    try:
        limits = residue.SearchLimits(
            max_depth=args.bits, max_muls=args.max_muls, mul_cap=args.mul_cap
        )
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    start = time.perf_counter()
    try:
        table = residue.build_coverage(args.bits, limits=limits)
    except residue.CoverageError as exc:
        print(f"no cover within limits: {exc}")
        for gap in exc.uncovered:
            print(f"  uncovered {gap}")
        return 1
    except ValueError as exc:
        parser.error(str(exc))  # --bits out of range; exits 2
    elapsed = time.perf_counter() - start

    verdict = residue.verify_coverage_table(table)
    print(f"searched {len(table.records)} records mod 2^{args.bits} in {elapsed:.2f}s")
    print(f"worst ratio {table.worst}, verification {'ok' if verdict.ok else 'FAILED'}")
    for issue in verdict.issues:
        print(f"  issue: {issue}")
    if not verdict.ok:
        return 1

    if args.bits == 12:
        shipped = residue.load_builtin_coverage()
        searched_bits = {r.bits: r for r in table.records}
        shipped_bits = {r.bits: r for r in shipped.records}
        if set(searched_bits) != set(shipped_bits):
            print("PARTITION MISMATCH against the shipped table:")
            for b in sorted(set(searched_bits) ^ set(shipped_bits)):
                print(f"  only in {'search' if b in searched_bits else 'shipped'}: {b}")
            return 1
        same = sum(
            1 for b, r in searched_bits.items() if r.steps == shipped_bits[b].steps
        )
        print(f"partition matches the shipped table; {same}/{len(shipped_bits)} step lists identical")
        print(f"shipped worst {shipped.worst}, searched worst {table.worst}")
        if shipped.worst != table.worst:
            print("WORST RATIO MISMATCH")
            return 1

    if args.out is not None:
        args.out.write_text(residue.dump_coverage(table))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
