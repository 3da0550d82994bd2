"""The arithmetic engine: sieves, smooth pairs, constructive certificates.

This module turns the existence arguments into running code.  A prime
q coprime to 3 gets a W-certificate through the smooth-pair route:
choose a in 1..8 with a*q = -1 mod 9, set r = (2aq-1)/3, find two
q-smooth integers s1, s2 below 6q and coprime to 6q whose product
lies in the progression 6q*k + r, and then n = 9k + a satisfies
n*q = 3l + 2 with 2l + 1 = s1*s2, so

    q = (1/n) * g(l) * s1 * s2

with every piece already in W by recursion on strictly smaller primes
(the recursion bottoms out at the built-in certificates for 2, 5, 7
and 11).  The same module houses the multiplier lift on the classes
-1 mod 2^k, the one-step reduction that combines the lift with the
coverage table, the prime-counting inequality, and the induction
driver that stitches all of it together.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .certify import (
    Certificate,
    HALF,
    Side,
    base_certificate,
    certificate_product,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .core import DEFAULT_TRAJECTORY_BUDGET, format_rational, t_iterate, trajectory_to_one
from .residue import _JUMP, CoverageTable, load_builtin_coverage, replay_steps, verify_coverage_table

# numpy is imported inside the sieves, the reach sweep and the witness
# columns, the only code that builds arrays, so prove, verify, coverage
# and search never load it
if TYPE_CHECKING:
    import numpy as np

ONESTEP_BOUND = Fraction(1235, 1264)
# (130/128) * (76/79): lift stretch at j >= 7 times the cover's worst ratio


class NotInSemigroupError(ValueError):
    """The requested target provably lies outside the semigroup."""


class BudgetExhaustedError(RuntimeError):
    pass


class SmoothPairExhaustionError(RuntimeError):
    """No q-smooth pair below 6q hits the progression; small q only."""


class VerificationError(RuntimeError):
    """An exact check inside a construction failed.

    Raised explicitly rather than by assert so the check still runs
    under python -O.
    """


class InductionError(RuntimeError):
    def __init__(self, k: int, hypothesis: int, witness: object, message: str):
        self.k = k
        self.hypothesis = hypothesis
        self.witness = witness
        super().__init__(f"k={k} hypothesis={hypothesis} witness={witness}: {message}")


def _verified(cert: Certificate, what: str) -> Certificate:
    """cert once it verifies; each constructor checks what it builds here, once."""
    check = verify_certificate(cert)
    if not check.ok:
        raise VerificationError(f"{what} failed: {check.reason}")
    return cert


# --------------------------------------------------------------------------
# Primes.
# --------------------------------------------------------------------------


SIEVE_LIMIT_MAX = 2**31 - 1  # largest sieve limit; pi(x) <= x then fits int32


def unit_sieve(limit: int) -> np.ndarray:
    """u[s // 3] is True exactly for the primes 5 <= s <= limit, by Eratosthenes on the units mod 6.

    Only the s prime to 6 have an entry (the 2*3 wheel; Pritchard,
    "Explaining the wheel sieve", Acta Informatica 17, 1982):
    s = 6i + 1 at 2i and s = 6i + 5 at 2i + 1, so u is in value order
    and s = 3j + 1 + (j & 1) at index j.  An index past a non-unit reads
    a neighbouring unit, so callers ask about units only.  A prime p
    strikes its multiples p*c for units c >= p, one stride 2p per class
    mod 6: from p*p (c = p) and from p times the next unit after p.  The
    top entry, limit // 3, is a unit above the limit unless the limit is
    1, 2 or 5 mod 6, and is cleared then.  A limit above SIEVE_LIMIT_MAX is
    refused before anything is allocated, so every unit, index and
    prime count fits int32.
    """
    import numpy as np

    if not 2 <= limit <= SIEVE_LIMIT_MAX:
        raise ValueError(f"sieve limit must be in 2..{SIEVE_LIMIT_MAX}, got {limit}")
    top = limit // 3
    u = np.ones(top + 1, dtype=bool)
    u[0] = False  # 1
    if 3 * top + 1 + (top & 1) > limit:
        u[top] = False
    for j in range(1, math.isqrt(limit) // 3 + 1):
        if u[j]:
            p = 3 * j + 1 + (j & 1)
            u[p * p // 3 :: 2 * p] = False
            u[p * (p + 4 - 2 * (j & 1)) // 3 :: 2 * p] = False
    return u


def _primes_in(u: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The primes p >= 5 with lo < p <= hi, ascending int64, off a unit sieve that reaches hi (lo >= 0)."""
    import numpy as np

    j = np.flatnonzero(u[lo // 3 : hi // 3 + 1]) + lo // 3
    p = 3 * j + 1 + (j & 1)
    return p[(p > lo) & (p <= hi)]


TRIAL_BOUND = 1000  # factorize and is_prime_int trial-divide by the primes below it
SMALL_PRIMES = tuple(n for n in range(2, TRIAL_BOUND) if all(n % d for d in range(2, math.isqrt(n) + 1)))
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981
# psi_13 (Sorenson & Webster 2017; OEIS A014233), the least composite
# that is a strong probable prime to all 13 bases above.  Twelve bases
# (2..37) stop short at psi_12 = 318665857834031151167461, which they
# call prime.
RHO_BATCH = 128  # rho steps per gcd


def _strong_probable_prime(n: int) -> bool:
    """n (odd, > 41) passes the strong probable-prime test to every base in MR_BASES."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_int(n: int) -> bool:
    """Exact primality of any integer.

    Trial division by SMALL_PRIMES settles every n that has a prime
    factor below TRIAL_BOUND or lies below the square of the largest
    one.  Past that, the strong probable-prime test to the 13 bases
    MR_BASES is exact below MR_EXACT_BELOW.  Its composite verdicts are
    exact everywhere; a probable prime at or above MR_EXACT_BELOW is
    settled by factorize's trial division to the square root.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    if not _strong_probable_prime(n):
        return False
    return n < MR_EXACT_BELOW or factorize(n) == {n: 1}


def _rho_divisor(n: int) -> int:
    """A proper divisor of an odd composite n that is not a perfect square.

    Pollard's rho in Brent's form (BIT 1980): Floyd's cycle search
    replaced by doubling runs, with RHO_BATCH differences multiplied
    together per gcd.  The start y = 2 and the constants c = 1, 2, ...
    are fixed, so the divisor found is a function of n.
    """
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot; replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise VerificationError(f"rho found no divisor of {n}")


def _least_divisor(n: int) -> int:
    """The least divisor above 1 of an n with no prime factor below
    TRIAL_BOUND, by trial division by 6k +- 1 up to its square root."""
    p = 6 * (TRIAL_BOUND // 6) - 1  # 5 mod 6, just below TRIAL_BOUND
    step = 2  # alternate +2, +4 through 6k +- 1
    while p * p <= n:
        if n % p == 0:
            return p
        p += step
        step = 6 - step
    return n


def factorize(n: int) -> dict[int, int]:
    """Exact prime factorization of a positive integer.

    Trial division by SMALL_PRIMES removes every prime below TRIAL_BOUND
    and is not repeated on the cofactors.  Each is split by math.isqrt
    for squares and by Pollard-Brent rho once it fails the strong
    probable-prime test.  A probable prime is prime below
    MR_EXACT_BELOW; only one at or above it is settled by trial
    division by 6k +- 1 up to its square root.
    """
    if n < 1:
        raise ValueError(f"factorize wants a positive integer, got {n}")
    factors: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                factors[n] = 1
            return factors
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    # every m below has no prime factor under TRIAL_BOUND, so it is
    # prime if it is below TRIAL_BOUND^2; d == m marks a prime
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        root = math.isqrt(m)
        if m < TRIAL_BOUND * TRIAL_BOUND:
            d = m
        elif root * root == m:
            d = root
        elif not _strong_probable_prime(m):
            d = _rho_divisor(m)
        elif m < MR_EXACT_BELOW:
            d = m
        else:
            d = _least_divisor(m)
        if d == m:
            factors[m] = factors.get(m, 0) + 1
        else:
            pending += (d, m // d)
    return factors


def smooth_factorization(n: int, q: int) -> Optional[dict[int, int]]:
    """factorize(n) when every prime factor is below q, else None (1 is smooth for every q)."""
    factors = factorize(n)
    return factors if all(p < q for p in factors) else None


# --------------------------------------------------------------------------
# The smooth-pair construction.
# --------------------------------------------------------------------------


# a in 1..8 with a*q = -1 mod 9, by q mod 9 (0 where 3 divides q)
A_BY_Q_MOD_9 = tuple(next((a for a in range(1, 9) if a * x % 9 == 8), 0) for x in range(9))


def compute_a_r(q: int) -> tuple[int, int]:
    """The canonical residues of the construction for a prime q, 3 not dividing q.

    a is least in 1..8 with a*q = -1 mod 9 and r = (2aq-1)/3, which is
    always an integer with r = 5 mod 6 and gcd(r, 6q) = 1.
    """
    if q % 3 == 0:
        raise ValueError(f"q must not be divisible by 3, got {q}")
    if not is_prime_int(q):
        raise ValueError(f"q must be prime, got {q}")
    a = A_BY_Q_MOD_9[q % 9]
    r, rem = divmod(2 * a * q - 1, 3)
    if rem != 0 or r % 6 != 5 or math.gcd(r, 6 * q) != 1:
        raise VerificationError(f"r = {r} is not (2aq-1)/3, 5 mod 6, prime to 6q for q = {q}")
    return a, r


def _unit_gpf(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Greatest prime factor of 6i + 1 and of 6i + 5 for 0 <= i < n, as int32 (0 at 1).

    Only the units mod 6 are sieved.  A prime p <= sqrt(6n) steps
    through each class from its least multiple p*c there, c = r*p mod 6
    (every unit mod 6 is its own inverse), ascending so the largest
    factor is written last.  An s < 6n has at most one prime factor
    above sqrt(6n), and it is gpf(s): those primes are scattered once
    per cofactor c prime to 6, split by p mod 6 so the class of p*c is
    known.  The primes come from unit_sieve(6n - 1), whose cap
    SIEVE_LIMIT_MAX keeps every p*c in int32; the sieve is dropped
    before the gpf arrays exist.
    """
    import numpy as np

    limit = 6 * n - 1
    root = math.isqrt(limit)
    primes = _primes_in(unit_sieve(limit), 0, limit).astype(np.int32)
    small = int(np.searchsorted(primes, root, side="right"))
    gpf = {r: np.zeros(n, dtype=np.int32) for r in (1, 5)}
    for p in primes[:small].tolist():
        for r, g in gpf.items():
            g[(r * p % 6) * p // 6 :: p] = p
    big = primes[small:]
    cofactors = [c for c in range(1, root + 1) if c % 2 and c % 3]
    tops = limit // np.array(cofactors, dtype=np.int32)
    for r in (1, 5):
        ps = big[big % 6 == r]
        for c, k in zip(cofactors, np.searchsorted(ps, tops, side="right").tolist()):
            gpf[r * c % 6][ps[:k] * c // 6] = ps[:k]
    return gpf[1], gpf[5]


def smooth_residues(q: int) -> tuple[int, ...]:
    """All q-smooth s in (0, 6q) coprime to 6q, 1 included, ascending."""
    import numpy as np

    if q < 5 or not is_prime_int(q):
        raise ValueError(f"smooth_residues wants a prime >= 5, got {q}")
    gpf1, gpf5 = _unit_gpf(q)
    i = np.arange(q, dtype=np.int64)
    # gpf < q already rules out the multiples q and 5q, so coprimality
    # to 6q needs no extra test
    s = np.concatenate((6 * i[gpf1 < q] + 1, 6 * i[gpf5 < q] + 5))
    return tuple(np.sort(s).tolist())


def smooth_counts_up_to(q_max: int) -> np.ndarray:
    """counts[q] = number of q-smooth s in (0, 6q) coprime to 6q, for all q <= q_max.

    One greatest-prime-factor sieve over the units s = 6i + 1 and
    s = 6i + 5 with i < q_max (`_unit_gpf`, int32): such an s is counted
    for prime q exactly when q > gpf(s) and q > i, so each s contributes
    from threshold max(i + 1, gpf(s) + 1) upward; one bincount per
    class, their sum and a cumulative sum finish the job.  Independent
    of the prime-counting route on purpose; the two are compared, not
    merged.
    """
    import numpy as np

    # the sieve runs first, so a q_max it refuses allocates nothing
    unit_gpf = _unit_gpf(q_max)
    after = np.arange(1, q_max + 1, dtype=np.int32)  # i + 1
    counts = np.zeros(q_max + 1, dtype=np.int64)
    for gpf in unit_gpf:
        thresholds = np.maximum(after, gpf + 1)
        counts += np.bincount(thresholds[thresholds <= q_max], minlength=q_max + 1)
    return np.cumsum(counts)


@dataclass(frozen=True)
class RangeCheckSummary:
    q_min: int
    q_max: int
    checked: int
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def smooth_majority_range(q_min: int, q_max: int) -> RangeCheckSummary:
    """The majority bound for every prime q in [q_min, q_max], batched.

    counts[q] > q - 1 is exactly "the q-smooth units fill more than half
    of the phi(6q) = 2(q - 1) invertible classes mod 6q".  Guaranteed for
    q >= 257; smaller primes are allowed so the failure (q = 13 has 9
    smooth residues against threshold 12) stays demonstrable.  The
    primes come from their own unit sieve to q_max, one mask picks the
    failures.
    """
    counts = smooth_counts_up_to(q_max)
    qs = _primes_in(unit_sieve(q_max), max(q_min, 5) - 1, q_max)
    failures = qs[counts[qs] <= qs - 1]
    return RangeCheckSummary(q_min=q_min, q_max=q_max, checked=len(qs), failures=tuple(failures.tolist()))


def _pi_lhs(q_min: int, q_max: int) -> np.ndarray:
    """(pi(6q) - pi(q)) + (pi(floor(6q/5)) - pi(q)) for every integer q in [q_min, q_max], q_min >= 3, as int32.

    The int32 prefix sum of unit_sieve(6 q_max) counts the primes
    5..s up to each unit s, which is pi(s) - 2; the 2s cancel in the
    left side.  pi(6q) - 2 is its entry at 6q - 1, index 2q - 1: one
    stride-2 slice.  A dense table of pi(x) - 2 for x <= 6 q_max / 5
    holds the 6-block x = 6m + r in row m, filled from three strided
    slices of the prefix sum: its entry at 6m - 1 for r = 0, at 6m + 1
    for r = 1..4 and at 6m + 5 for r = 5.  Read row-major, the table
    gives pi(q); its first five columns, read row-major, give
    pi(floor(6q/5)), since floor(6q/5) = 6t + r for q = 5t + r.  No
    index array is formed, and every temporary is int32.
    """
    import numpy as np

    # the sieve runs first, so a q_max it refuses allocates nothing;
    # the prefix sum is taken in place, as cumsum(u, dtype=np.int32)
    # would first copy u as int32, a second array of this size
    counts = unit_sieve(6 * q_max).astype(np.int32)
    np.cumsum(counts, out=counts)
    rows = 6 * q_max // 5 // 6 + 1
    one, five = counts[0 : 2 * rows : 2], counts[1 : 2 * rows : 2]  # at 6m + 1 and 6m + 5
    dense = np.empty((rows, 6), dtype=np.int32)
    dense[0, 0] = 0
    dense[1:, 0] = five[:-1]
    dense[:, 1:5] = one[:, None]
    dense[:, 5] = five
    pi = dense.reshape(-1)
    lhs = counts[2 * q_min - 1 : 2 * q_max : 2] - pi[q_min : q_max + 1]
    del counts, one, five
    lhs -= pi[q_min : q_max + 1]
    lhs += dense[q_min // 5 : q_max // 5 + 1, :5].reshape(-1)[q_min % 5 : q_min % 5 + lhs.size]
    return lhs


def pi_inequality_range(q_min: int, q_max: int) -> RangeCheckSummary:
    """The inequality for every integer q in [q_min, q_max], batched (the left side is _pi_lhs)."""
    import numpy as np

    if q_min <= 256:
        raise ValueError(f"range must start above 256, got {q_min}")
    if q_min > q_max:
        raise ValueError(f"empty range {q_min}..{q_max}")
    excess = _pi_lhs(q_min, q_max)
    excess -= np.arange(q_min - 2, q_max - 1, dtype=np.int32)  # the right side, q - 2
    bad = np.flatnonzero(excess > 0) + q_min
    return RangeCheckSummary(q_min=q_min, q_max=q_max, checked=excess.size, failures=tuple(bad.tolist()))


@dataclass(frozen=True)
class SmoothWitness:
    """The data realizing q = (1/n) g(l) s1 s2; fully self-validating.

    factors is s1*s2 as (p, e) pairs, p ascending, each p a prime below
    q (so s1 and s2 are q-smooth); it is checked, not recomputed.
    """

    q: int
    a: int
    r: int
    s1: int
    s2: int
    k: int
    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        q, a, r, s1, s2, k, n = self.q, self.a, self.r, self.s1, self.s2, self.k, self.n
        if not (1 <= a <= 8) or (a * q) % 9 != 8:
            raise ValueError(f"a = {a} is not the canonical residue for q = {q}")
        if 3 * r != 2 * a * q - 1 or r % 6 != 5:
            raise ValueError(f"r = {r} is not (2aq-1)/3 or not -1 mod 6")
        for s in (s1, s2):
            if not (0 < s < 6 * q) or math.gcd(s, 6 * q) != 1:
                raise ValueError(f"{s} is not a unit below 6q for q = {q}")
        below, product, bits = 1, 1, (s1 * s2).bit_length()
        for p, e in self.factors:
            # p^e divides s1*s2 only if e < bits (p >= 2): a bound checked before the power
            if not (below < p < q and 1 <= e < bits) or not is_prime_int(p):
                raise ValueError(f"({p}, {e}) is not a prime in ({below}, {q}) with an exponent in 1..{bits - 1}")
            below, product = p, product * p**e
        if product != s1 * s2:
            raise ValueError(f"factors multiply to {product}, not s1*s2 = {s1 * s2}")
        if s1 * s2 != 6 * q * k + r or not (0 <= k < 6 * q):
            raise ValueError(f"s1*s2 = {s1 * s2} is not 6qk + r with 0 <= k < 6q")
        if n != 9 * k + a or n >= 54 * q:
            raise ValueError(f"n = {n} is not 9k + a < 54q")
        if (n * q - 2) % 3 != 0 or 2 * ((n * q - 2) // 3) + 1 != s1 * s2:
            raise ValueError("n*q = 3l + 2 with 2l + 1 = s1*s2 fails")

    @property
    def l(self) -> int:
        return (self.n * self.q - 2) // 3


def find_smooth_pair(q: int) -> SmoothWitness:
    """Deterministic witness: smallest s1 whose forced partner is smooth.

    s2 is pinned by s1 (s2 = r * s1^-1 mod 6q), so scanning s1 in
    ascending order makes the witness reproducible; the scan's
    factorizations of s1 and s2 become its factors.  Exhausting every
    smooth s1 below 6q raises (only for the thin q = 5, 7, 11, built in).
    """
    if q < 5:
        raise ValueError(f"find_smooth_pair wants a prime >= 5, got {q}")
    a, r = compute_a_r(q)
    mod = 6 * q
    s1, step = 1, 4  # walk the units mod 6: 1, 5, 7, 11, ...
    while s1 < mod:
        # a smooth s1 is prime to q, so it is a unit mod 6q
        factors = smooth_factorization(s1, q)
        if factors is not None:
            s2 = (r * pow(s1, -1, mod)) % mod
            partner = smooth_factorization(s2, q)
            if partner is not None:
                for p, e in partner.items():
                    factors[p] = factors.get(p, 0) + e
                k = (s1 * s2 - r) // mod
                return SmoothWitness(
                    q=q, a=a, r=r, s1=s1, s2=s2, k=k, n=9 * k + a, factors=tuple(sorted(factors.items()))
                )
        s1 += step
        step = 6 - step
    raise SmoothPairExhaustionError(
        f"no q-smooth pair below {mod} lands in the progression {mod}k + {r} for q = {q}"
    )


@dataclass(frozen=True, eq=False)
class WitnessRows:
    """The smooth witnesses of many primes as int64 columns, q ascending.

    Row i holds q[i], s1[i], s2[i] and n[i]; s1[i] = 0 marks a prime the
    search left unresolved.  Nothing in a row is trusted: hypothesis 3
    checks a level's columns and drops them with the level, and
    witness(i) factors s1*s2 and builds the SmoothWitness, which checks
    itself, to name a failed row.
    """

    q: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    n: np.ndarray

    def witness(self, i: int) -> SmoothWitness:
        q, s1, s2 = int(self.q[i]), int(self.s1[i]), int(self.s2[i])
        a, r = compute_a_r(q)
        # factorize wants n >= 1; SmoothWitness refuses a smaller product first
        factors = tuple(sorted(factorize(s1 * s2).items())) if s1 * s2 > 0 else ()
        k = (s1 * s2 - r) // (6 * q)
        return SmoothWitness(q=q, a=a, r=r, s1=s1, s2=s2, k=k, n=int(self.n[i]), factors=factors)


def _smooth(s, q, u: np.ndarray):
    """Whether s is q-smooth, for a prime q >= 5 and a unit s < 6q prime to q, by a unit sieve u (unit_sieve).

    A prime factor p >= q of such an s is not q, so p > q, and s/p < 6
    is a unit mod 6: s is p or 5p.  (So the units below 6q that are not
    q-smooth number (pi(6q) - pi(q)) + (pi(6q/5) - pi(q)).)  s and s/5
    are units, read at s // 3 and s // 15.  Over a multiple of q the
    verdict is wrong: q and 5q would pass.
    """
    return ~((u[s // 3] & (s > q)) | ((s % 5 == 0) & u[s // 15] & (s // 5 > q)))


def smooth_pair_rows(qs: np.ndarray, u: np.ndarray) -> WitnessRows:
    """find_smooth_pair for every prime of qs at once (ascending, each 6q - 1 within the unit sieve u).

    s1 walks the units 1, 5, 7, 11, ... in lockstep over the primes still
    unresolved.  For a q-smooth s1 prime to q, s1^-1 mod 6q =
    (1 + 6q*t)/s1 with t = -(6q)^-1 mod s1, read off a table of size s1
    at q mod s1, and s2 = r*s1^-1 mod 6q, a unit.  A prime takes the
    first s1 whose s2 is q-smooth too, as find_smooth_pair does, so each
    row is its witness.  Smoothness is read off u (_smooth).
    """
    import numpy as np

    q = np.asarray(qs, dtype=np.int64)
    mod = 6 * q
    a = np.array(A_BY_Q_MOD_9, dtype=np.int64)[q % 9]
    r = (2 * a * q - 1) // 3
    s1, s2 = np.zeros_like(q), np.zeros_like(q)
    todo = np.arange(q.size)
    c, step = 1, 4
    while (todo := todo[mod[todo] > c]).size:
        qt = q[todo]
        # q is prime, so c is prime to q unless q divides it
        smooth = todo[(c % qt != 0) & _smooth(c, qt, u)]
        if smooth.size:
            # 6x is invertible mod c for every x = q mod c left: a prime
            # factor of c that divided q would be q itself, not below q
            t = np.array([-pow(6 * x, -1, c) % c if math.gcd(x, c) == 1 else 0 for x in range(c)], dtype=np.int64)
            qc, mc = q[smooth], mod[smooth]
            partner = r[smooth] * ((1 + mc * t[qc % c]) // c) % mc
            hit = _smooth(partner, qc, u)
            s1[smooth[hit]], s2[smooth[hit]] = c, partner[hit]
            todo = todo[s1[todo] == 0]
        c += step
        step = 6 - step
    n = np.where(s1 > 0, 9 * ((s1 * s2 - r) // mod) + a, 0)
    return WitnessRows(q=q, s1=s1, s2=s2, n=n)


def _failed_rows(rows: WitnessRows, u: np.ndarray) -> np.ndarray:
    """failed[i] is False exactly when row i passes every check SmoothWitness makes.

    The checks run over the int64 columns as plain comparisons, so they
    hold under python -O.  s1 and s2 must be units below 6q, and then
    q-smooth by the lemma of _smooth over the unit sieve u, which
    reaches 6q - 1 for every q.  An unresolved row fails (0 is no
    unit).
    """
    import numpy as np

    q, s1, s2, n = rows.q, rows.s1, rows.s2, rows.n
    # the largest product formed is n*q < 54q^2, after n < 54q is checked
    if q.size and 54 * int(q.max()) ** 2 >= 2**63:
        raise ValueError(f"witness columns need 54q^2 < 2^63, got q = {int(q.max())}")
    mod = 6 * q
    a = np.array(A_BY_Q_MOD_9, dtype=np.int64)[q % 9]
    r = (2 * a * q - 1) // 3
    failed = (a * q % 9 != 8) | (3 * r != 2 * a * q - 1) | (r % 6 != 5)
    for s in (s1, s2):
        failed |= (s <= 0) | (s >= mod) | (np.gcd(s, mod) != 1)
        units = np.flatnonzero(~failed)  # the lemma holds for units only
        failed[units] |= ~_smooth(s[units], q[units], u)
    product = s1 * s2
    k, rem = np.divmod(product - r, mod)
    failed |= (rem != 0) | (k < 0) | (k >= mod) | (n != 9 * k + a) | (n >= 54 * q)
    l, rem = np.divmod(n * q - 2, 3)
    return failed | (rem != 0) | (2 * l + 1 != product)


# --------------------------------------------------------------------------
# Certificate stores and the shared construction context.
# --------------------------------------------------------------------------


def cert_filename(side: Side, target: Fraction) -> str:
    """<side>-<num>.cert, or <side>-<num>_<den>.cert for a non-integer target."""
    stem = str(target.numerator) if target.denominator == 1 else f"{target.numerator}_{target.denominator}"
    return f"{str(side).lower()}-{stem}.cert"


class CertStore:
    """Directory of certificate files, one per target.

    File names: w-<m>.cert and s-<n>.cert for integer targets,
    s-<num>_<den>.cert for rational S targets; a rational W target is
    not stored.  A put writes its one file under a temporary name, which
    does not match *.cert, and renames it into place.  get re-verifies
    every file it loads; a file that does not decode or parse is a miss.
    `wildsemi verify DIR` lists a store.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, side: Side, target: Fraction) -> Optional[Path]:
        if side is Side.W and target.denominator != 1:
            return None
        return self.root / cert_filename(side, target)

    def put(self, cert: Certificate) -> Optional[Path]:
        path = self._path(cert.side, cert.target)
        if path is None:
            return None
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(serialize_certificate(cert))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    def get(self, side: Side, target: Fraction) -> Optional[Certificate]:
        path = self._path(side, target) if target != 1 else None
        if path is None:
            return None
        # stored files are untrusted; re-parse, re-verify and re-match before use
        try:
            cert = parse_certificate(path.read_text())
        except (FileNotFoundError, ValueError):
            return None
        if cert.side is not side or cert.target != target or not verify_certificate(cert).ok:
            return None
        return cert


class WildContext:
    """Caches shared by the constructive operations.

    Holds verified W-certificates keyed by integer target (seeded with
    2, 5, 7, 11 only, verified here; the other built-ins are
    reconstructed, not assumed), verified trajectory S-certificates
    keyed by integer, the coverage table, the trajectory budget, and an
    optional persistent store: remember writes each certificate's one
    file there, and recall loads a file (re-verified by the store) when
    the cache misses.  No witness is kept: the induction driver's rows
    live only while their level is checked, and a prime's witness is
    found when its certificate is built.  The driver searches every
    prime of a level without a certificate in memory, so one only in the
    store costs a checked row, not a load.
    """

    def __init__(
        self,
        trajectory_budget: int = DEFAULT_TRAJECTORY_BUDGET,
        store: Optional[CertStore] = None,
        coverage: Optional[CoverageTable] = None,
    ):
        self.trajectory_budget = trajectory_budget
        self.store = store
        self._coverage = coverage
        self.certificates: dict[int, Certificate] = {
            2: _verified(Certificate(Side.W, Fraction(2), ((0, 1),)), "seed certificate for 2"),
        }
        for seed in (5, 7, 11):
            self.certificates[seed] = _verified(base_certificate(seed), f"seed certificate for {seed}")
        self.s_certificates: dict[int, Certificate] = {}

    @property
    def coverage(self) -> CoverageTable:
        if self._coverage is None:
            self._coverage = load_builtin_coverage()
        return self._coverage

    def s_certificate(self, n: int) -> Certificate:
        """The trajectory S-certificate of n, built and verified once per context."""
        cert = self.s_certificates.get(n)
        if cert is None:
            cert = s_certificate_for_integer(n, self.trajectory_budget)
            self.s_certificates[n] = cert
        return cert

    def remember(self, m: int, cert: Certificate) -> None:
        self.certificates[m] = cert
        if self.store is not None:
            self.store.put(cert)

    def recall(self, m: int) -> Optional[Certificate]:
        cert = self.certificates.get(m)
        if cert is None and self.store is not None:
            cert = self.store.get(Side.W, Fraction(m))
            if cert is not None:
                self.certificates[m] = cert
        return cert


# --------------------------------------------------------------------------
# Constructive certificates.
# --------------------------------------------------------------------------


def s_certificate_for_integer(
    n: int, budget: int = DEFAULT_TRAJECTORY_BUDGET
) -> Certificate:
    """Membership of an integer in S read off its trajectory to 1.

    Every even value contributes the doubling generator, every odd
    value 2k+1 contributes the index-k generator (2k+1)/(3k+2), and the
    terminal 1 = 2 * (1/2) contributes the pair {half, g 0}.
    """
    traj = trajectory_to_one(n, budget)
    if not traj.reached_one:
        raise BudgetExhaustedError(
            f"trajectory of {n} did not reach 1 within {budget} steps"
        )
    factors = [((v - 1) >> 1 if v & 1 else HALF, 1) for v in traj.values[:-1]]
    factors += [(HALF, 1), (0, 1)]
    return _verified(Certificate(Side.S, Fraction(n), tuple(factors)), f"trajectory certificate for {n}")


def _witness_certificate(witness: SmoothWitness, context: WildContext) -> Certificate:
    """q = (1/n) * g(l) * s1 * s2 from verified parts, the S-certificate for n as 1/n."""
    middle = Certificate(
        Side.W,
        Fraction(3 * witness.l + 2, 2 * witness.l + 1),
        ((witness.l, 1),),
    )
    parts = [(context.s_certificate(witness.n), 1), (middle, 1)]
    for p, e in witness.factors:
        dep = context.recall(p)
        if dep is None:
            raise VerificationError(f"dependency {p} missing while assembling {witness.q}")
        parts.append((dep, e))
    cert = certificate_product(Side.W, parts)
    if cert.target != witness.q:
        raise VerificationError(f"assembled target {cert.target} != {witness.q}")
    return _verified(cert, f"assembled certificate for {witness.q}")


def w_certificate_for_prime(q: int, context: Optional[WildContext] = None) -> Certificate:
    """A verified W-certificate for a prime q != 3.

    Recursion on the largest prime, run iteratively: find the smooth
    witness of each prime without a certificate (find_smooth_pair, the
    witness the induction driver's column search checks for it) until
    every dependency is a cached prime, then assemble in ascending
    order.  Only 2, 5, 7 and 11 are consumed as built-ins.
    """
    if context is None:
        context = WildContext()
    if q == 3 or q % 3 == 0:
        raise NotInSemigroupError("3 divides no member of the wild semigroup")
    if not is_prime_int(q):
        raise ValueError(f"w_certificate_for_prime wants a prime, got {q}")
    cached = context.recall(q)
    if cached is not None:
        return cached
    pending = [q]
    needed: dict[int, SmoothWitness] = {}
    while pending:
        p = pending.pop()
        if p in needed or context.recall(p) is not None:
            continue
        needed[p] = find_smooth_pair(p)
        for dep, _ in needed[p].factors:
            if context.recall(dep) is None:
                pending.append(dep)  # dep < p, so this terminates
    for p in sorted(needed):
        context.remember(p, _witness_certificate(needed[p], context))
    return context.certificates[q]


def w_certificate_for_integer(m: int, context: Optional[WildContext] = None) -> Certificate:
    """W-certificate for any positive integer coprime to 3."""
    if context is None:
        context = WildContext()
    if m < 1:
        raise ValueError(f"w_certificate_for_integer wants a positive integer, got {m}")
    if m % 3 == 0:
        raise NotInSemigroupError(f"{m} is divisible by 3 and lies outside the wild semigroup")
    cached = context.recall(m)
    if cached is not None:
        return cached
    factors = sorted(factorize(m).items())
    # each p comes out of factorize, so it is prime and the cache is asked first
    parts = [(context.recall(p) or w_certificate_for_prime(p, context), e) for p, e in factors]
    if factors == [(m, 1)]:  # a prime: built, verified and remembered above
        return parts[0][0]
    cert = _verified(certificate_product(Side.W, parts), f"certificate for {m}")
    if m > 1:
        context.remember(m, cert)
    return cert


def s_certificate_for_rational(
    x: Fraction, context: Optional[WildContext] = None
) -> Certificate:
    """S-certificate for a/b in lowest terms, refusing 3 | b constructively."""
    if context is None:
        context = WildContext()
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"s_certificate_for_rational wants a positive rational, got {x}")
    if x.denominator % 3 == 0:
        raise NotInSemigroupError(
            f"denominator {x.denominator} is divisible by 3; {x} is not in the semigroup"
        )
    cert = context.s_certificate(x.numerator)
    if x.denominator == 1:
        return cert
    parts = [(cert, 1), (w_certificate_for_integer(x.denominator, context), 1)]
    return _verified(certificate_product(Side.S, parts), f"rational certificate for {x}")


def w_certificate_for_rational(
    x: Fraction, context: Optional[WildContext] = None
) -> Certificate:
    """W-certificate for a/b in lowest terms, refusing 3 | a constructively.

    A non-integer target is the mirror of an S-certificate for b/a,
    which exists iff 3 does not divide a.
    """
    if context is None:
        context = WildContext()
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"w_certificate_for_rational wants a positive rational, got {x}")
    if x.denominator == 1:
        return w_certificate_for_integer(x.numerator, context)
    if x.numerator % 3 == 0:
        raise NotInSemigroupError(
            f"numerator {x.numerator} is divisible by 3; {x} is not in the wild semigroup"
        )
    mirror = certificate_product(Side.W, [(s_certificate_for_rational(1 / x, context), 1)])
    return _verified(mirror, f"mirrored certificate for {format_rational(x)}")


# --------------------------------------------------------------------------
# The -1 lift and the one-step reduction.
# --------------------------------------------------------------------------


def lift_minus_one(x: int, k: int, j: int) -> tuple[int, int]:
    """Multiply x = -1 mod 2^k by m = (2^j + 1)/3 and run j steps of T.

    The result is exactly x + (x+1)/2^j, still -1 mod 2^(k-j), and if x
    was not -1 mod 2^(k+1) the result is not -1 mod 2^(k+1-j): the lift
    walks the -1 congruence down without ever re-entering it deeper.
    Returns (m, result); the identities are checked, not trusted.
    """
    if x < 1 or k < 1 or (x + 1) % (1 << k) != 0:
        raise ValueError(f"x = {x} is not a positive member of -1 mod 2^{k}")
    if not (1 <= j <= k) or j % 6 not in (1, 5):
        raise ValueError(f"j = {j} must satisfy 1 <= j <= k and j = 1 or 5 mod 6")
    m, rem = divmod((1 << j) + 1, 3)
    if rem != 0 or m % 6 not in (1, 5):
        raise VerificationError(f"multiplier (2^{j} + 1)/3 is not a unit mod 6")
    result = t_iterate(m * x, j)
    if result != x + (x + 1) // (1 << j):
        raise VerificationError(f"lift identity failed for x = {x}, j = {j}")
    if (result + 1) % (1 << (k - j)) != 0:
        raise VerificationError(f"lift of {x} escaped -1 mod 2^{k - j}")
    if (x + 1) % (1 << (k + 1)) != 0 and (result + 1) % (1 << (k + 1 - j)) == 0:
        raise VerificationError(f"lift of {x} re-entered -1 mod 2^{k + 1 - j}")
    return m, result


def reduction_exponent(k: int) -> int:
    """j = k - 5 - (k mod 6); lands in [k-10, k-5], is 1 mod 6, >= 7 for k >= 12."""
    j = k - 5 - (k % 6)
    if j % 6 != 1 or not (k - 10 <= j <= k - 5) or (k >= 12 and j < 7):
        raise VerificationError(f"reduction exponent {j} out of range for k = {k}")
    return j


@dataclass(frozen=True)
class ReduceTrace:
    """Everything needed to audit one wild reduction step."""

    x: int
    k: int
    j: int
    m: int
    multiplier_certificate: Certificate
    intermediate: int
    steps: tuple[str, ...]
    values: tuple[int, ...]
    result: int
    ratio: Fraction
    wild_certificate: Certificate


def onestep_reduce(x: int, k: int, context: Optional[WildContext] = None) -> ReduceTrace:
    """One wild reduction step taking x = -1 mod 2^k down to <= (1235/1264) x.

    Lift x out of the deep -1 class with m = (2^j + 1)/3, then apply the
    coverage-table record of the intermediate: the intermediate is
    guaranteed off the all-ones class mod 2^11, so a record exists, and
    the combined ratio is at most (130/128)(76/79) = 1235/1264.  The
    whole step is replayed concretely and returned as a verified
    W-certificate for result/x.
    """
    if context is None:
        context = WildContext()
    if k < 12:
        raise ValueError(f"one-step reduction needs k >= 12, got {k}")
    if (x + 1) % (1 << k) != 0 or (x + 1) % (1 << (k + 1)) == 0:
        raise ValueError(f"x must be -1 mod 2^{k} but not mod 2^{k + 1}")
    j = reduction_exponent(k)
    m_cert = w_certificate_for_integer(((1 << j) + 1) // 3, context)
    m, y = lift_minus_one(x, k, j)
    if (y + 1) % (1 << 11) == 0:
        raise VerificationError(f"intermediate {y} re-entered -1 mod 2^11")
    record = context.coverage.record_for(y)
    steps = (f"x{m}",) + ("T",) * j + record.steps
    values = replay_steps(x, steps)
    if values[j + 1] != y:
        raise VerificationError(f"replay disagrees with the lift at x = {x}")
    z_exact = record.map.apply(y)
    z = values[-1]
    if z != z_exact:
        raise VerificationError(f"replay result {z} != affine map value {z_exact}")
    ratio = Fraction(z, x)
    if ratio > ONESTEP_BOUND:
        raise VerificationError(f"ratio {ratio} exceeds {ONESTEP_BOUND}")
    # the applied wild element, factor by factor: m itself, one wild
    # generator per T step (1/2 on even values, g((v-1)/2) on odd), and
    # the record's multipliers decomposed over the base
    factors = list(m_cert.factors)
    for idx, (step, v) in enumerate(zip(steps, values)):
        if step == "T":
            factors.append(((v - 1) >> 1 if v & 1 else HALF, 1))
        elif idx > 0:  # the leading multiplication is m_cert already
            factors.extend(w_certificate_for_integer(int(step[1:]), context).factors)
    wild = _verified(Certificate(Side.W, ratio, tuple(factors)), f"wild step certificate for x = {x}")
    return ReduceTrace(
        x=x,
        k=k,
        j=j,
        m=m,
        multiplier_certificate=m_cert,
        intermediate=y,
        steps=steps,
        values=values,
        result=z,
        ratio=ratio,
        wild_certificate=wild,
    )


# --------------------------------------------------------------------------
# Reaching 1, and the induction driver.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReachOneStats:
    bound: int
    max_steps: int
    max_steps_at: int
    step_counts: np.ndarray = field(repr=False, compare=False, default=None)

    def max_steps_up_to(self, n: int) -> int:
        if not 1 <= n <= self.bound:
            raise ValueError(f"n must be in 1..{self.bound}, got {n}")
        return int(self.step_counts[: n + 1].max())


REACH_CHUNK = 1 << 15  # odd starts descended together; temporaries stay a few MB
# A jump of w <= 8 T steps maps v = 2^w*q + u to 3^k*q + T^w(u), and
# T^w(u) < 3^w for u < 2^w, so it ends below 3^w*(v + 1)/2^w; from v up
# to this limit that is at most 2^63 for every w the table holds.
REACH_INT64_LIMIT = ((2**63 // 3 ** (len(_JUMP) - 1)) << (len(_JUMP) - 1)) - 1
REACH_STEP_GUARD = 10 * DEFAULT_TRAJECTORY_BUDGET
REACH_STEPS_MAX = 2**16 - 1  # step counts are stored as uint16


def _descend(
    start: int, stop: int, floor: int, jump: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """T-iterate every odd n in [start, stop) until it falls below floor.

    jump = (mult, add) holds row w of residue._JUMP as two arrays, so
    one gather takes w T steps: T^w(2^w*q + u) = mult[u]*q + add[u].  A
    start stops at the first jump that lands below floor; returns the
    value reached and the number of steps taken, per start.  Values
    past REACH_INT64_LIMIT finish the descent in Python ints.
    """
    import numpy as np

    mult, add = jump
    w, mask = mult.size.bit_length() - 1, mult.size - 1
    v = np.arange(start, stop, 2, dtype=np.int64)
    pos = np.arange(v.size)
    reached = np.empty(v.size, dtype=np.int64)
    count = np.empty(v.size, dtype=np.int64)
    t = 0
    while v.size:
        if t > REACH_STEP_GUARD:
            raise BudgetExhaustedError(f"descent from {start + 2 * pos[0]} exceeded every sane budget")
        if v.max() > REACH_INT64_LIMIT:
            big = v > REACH_INT64_LIMIT
            for j in np.flatnonzero(big).tolist():
                n = start + 2 * int(pos[j])
                reached[pos[j]], count[pos[j]] = _descend_int(n, int(v[j]), t, floor)
            v, pos = v[~big], pos[~big]
            continue
        u = v & mask
        v = np.take(mult, u) * (v >> w) + np.take(add, u)
        t += w
        # every live start records where it is; a start that goes on
        # overwrites its entry at a later jump
        reached[pos] = v
        count[pos] = t
        keep = v >= floor
        v, pos = v[keep], pos[keep]
    return reached, count


def _descend_int(n: int, v: int, steps: int, floor: int) -> tuple[int, int]:
    """The descent of n below floor, from its value v after `steps` steps,
    one T step at a time in Python ints."""
    while v >= floor:
        v = (3 * v + 1) >> 1 if v & 1 else v >> 1
        steps += 1
        if steps > REACH_STEP_GUARD:
            raise BudgetExhaustedError(f"descent from {n} exceeded every sane budget")
    return v, steps


def _check_reach_bound(bound: int) -> None:
    if not 1 <= bound <= SIEVE_LIMIT_MAX:
        raise ValueError(f"reach bound must be in 1..{SIEVE_LIMIT_MAX}, got {bound}")


def reach_one_range(bound: int) -> ReachOneStats:
    """Confirm every 1 <= n <= bound reaches 1 under T, with step counts.

    Sweeps the dyadic blocks [2^i, 2^(i+1)) in order.  An even n takes
    one step to n/2, which lies in the finished block below, so the
    even starts get steps[n/2] + 1 in one slice.  The odd starts descend
    REACH_CHUNK at a time in numpy, w = min(8, i) T steps per gather
    from the table residue._JUMP (the width is the table's), until a
    jump lands below 2^i, and the count stored there is added.

    The counts are exact however far below 2^i that jump lands: from a
    value v >= 2^i, each T step at least halves, so the values after the
    first w - 1 steps of a jump are >= 2^(i-w+1) >= 2, and a trajectory
    never passes through 1 inside a jump; so the count to the value
    reached plus that value's count is the count to the first 1.
    Starts whose values leave int64 range finish in Python ints.
    Counts are kept as uint16; a count above REACH_STEPS_MAX raises
    BudgetExhaustedError naming its starts instead of wrapping.  A bound
    above SIEVE_LIMIT_MAX (2 bytes per n) is refused before anything is
    allocated.
    """
    import numpy as np

    _check_reach_bound(bound)
    # row w of _JUMP holds (3^k, c) with T^w(x) = (3^k*x + c)/2^w on x = u
    # mod 2^w, so T^w(2^w*q + u) = 3^k*q + (3^k*u + c)/2^w
    jumps = [
        (
            np.array([p for p, _ in row], dtype=np.int64),
            np.array([(p * u + c) >> w for u, (p, c) in enumerate(row)], dtype=np.int64),
        )
        for w, row in enumerate(_JUMP)
    ]
    steps = np.zeros(bound + 1, dtype=np.uint16)
    for i in range(1, bound.bit_length()):
        floor, top = 1 << i, min(2 << i, bound + 1)
        half = steps[floor >> 1 : (top + 1) >> 1]  # n/2 for the even n in the block
        if half.max() >= REACH_STEPS_MAX:
            raise BudgetExhaustedError(
                f"a step count from {floor} to {(top - 1) & -2} exceeds {REACH_STEPS_MAX}"
            )
        np.add(half, 1, out=steps[floor:top:2])
        jump = jumps[min(i, len(_JUMP) - 1)]
        for start in range(floor + 1, top, 2 * REACH_CHUNK):
            stop = min(start + 2 * REACH_CHUNK, top)
            reached, count = _descend(start, stop, floor, jump)
            total = count + steps[reached]
            if total.max() > REACH_STEPS_MAX:
                raise BudgetExhaustedError(
                    f"a step count from {start} to {start + 2 * (total.size - 1)} exceeds {REACH_STEPS_MAX}"
                )
            steps[start:stop:2] = total
    max_at = int(np.argmax(steps[1:])) + 1  # the first n with the most steps
    return ReachOneStats(
        bound=bound, max_steps=int(steps[max_at]), max_steps_at=max_at, step_counts=steps
    )


# cap of the reach-one sweep, a desk-scale stand-in for 2^k - 2
DEFAULT_TRAJECTORY_BOUND = 1 << 20
# strata members x = c * 2^t - 1 (c = 1, 3, 5) checked per hypothesis-1 level
WITNESS_SAMPLES = 3
# hypothesis-2 spot certificates built per level
SPOT_CERTIFICATES = 3


@dataclass(frozen=True)
class InductionLine:
    k: int
    hypothesis: int
    kind: str
    status: str
    details: tuple[tuple[str, str], ...]

    def render(self) -> str:
        pairs = [f"k={self.k}", f"hyp={self.hypothesis}", f"kind={self.kind}", f"status={self.status}"]
        pairs.extend(f"{key}={value}" for key, value in self.details)
        return " ".join(pairs)


@dataclass(frozen=True)
class InductionReport:
    k_min: int
    k_max: int
    lines: tuple[InductionLine, ...]

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines)


def _first_unfit_row(rows: WitnessRows, failed: np.ndarray, context: WildContext) -> Optional[tuple[int, str]]:
    """(q, reason) for the first row, in ascending q, that hypothesis 3 refuses; None if none.

    A row is refused when it failed a column check or when its n gets no
    trajectory certificate (each distinct n is asked once, in ascending
    q); the first of each kind is found, and the lower q is named.
    Checks come in SmoothWitness order, so a failed row is named by the
    witness built from it, or by find_smooth_pair where the search left
    it unresolved.
    """
    import numpy as np

    s_failure = None
    valid = np.flatnonzero(~failed)
    for i in np.sort(valid[np.unique(rows.n[valid], return_index=True)[1]]).tolist():
        try:
            context.s_certificate(int(rows.n[i]))
        except (ValueError, BudgetExhaustedError, VerificationError) as exc:
            s_failure = (i, str(exc))
            break
    refused = np.flatnonzero(failed)[:1].tolist() + ([s_failure[0]] if s_failure else [])
    if not refused:
        return None
    i = min(refused)
    q = int(rows.q[i])
    if not failed[i]:
        return q, s_failure[1]
    try:
        find_smooth_pair(q) if rows.s1[i] == 0 else rows.witness(i)
    except (ValueError, SmoothPairExhaustionError, VerificationError) as exc:
        return q, str(exc)
    return q, "the witness columns fail a check that the scalar path passes"


def _hypothesis_three(k: int, m_done: int, u: np.ndarray, context: WildContext) -> InductionLine:
    """Hypothesis 3 at level k: every m in (m_done, (2^k - 1)/189] with 3 not dividing m is wild.

    One column search (smooth_pair_rows) finds the witnesses of the
    level's primes from 5 on without a certificate in memory, read off
    the unit sieve u, which reaches 6 (2^k - 1)/189 + 5.  Each row passes
    the checks of SmoothWitness over the columns (_failed_rows) and its n
    gets a trajectory certificate; the first row to fail, in ascending q,
    is named through the scalar path (_first_unfit_row) as an
    InductionError.  The rows are this function's own, checked and
    dropped with the level.  Nothing else is checked, by closure: after
    a passing level every prime up to the bound has a certificate or a
    checked row, and W is closed under multiplication, so every
    admissible composite is in W with no step of its own.  The prime
    factors of a row's s1*s2 lie below its q, so they are covered too: a
    failed row at the same level has the lower q and is named first.
    No certificate is built here; w_certificate_for_prime builds one on
    demand from find_smooth_pair, which finds the witness the row holds.
    """
    import numpy as np

    m_bound = ((1 << k) - 1) // 189
    level = _primes_in(u, m_done, m_bound)
    certified = np.fromiter(context.certificates, dtype=np.int64, count=len(context.certificates))
    rows = smooth_pair_rows(level[~np.isin(level, certified)], u)
    unfit = _first_unfit_row(rows, _failed_rows(rows, u), context)
    if unfit is not None:
        raise InductionError(k, 3, *unfit)
    admissible = (m_bound - m_bound // 3) - (m_done - m_done // 3)  # 3 does not divide m
    return InductionLine(
        k=k,
        hypothesis=3,
        kind="sweep",
        status="pass",
        details=(
            ("m_bound", str(m_bound)),
            ("new_certificates", str(admissible)),
        ),
    )


def induction_driver(
    k_max: int,
    trajectory_bound: int = DEFAULT_TRAJECTORY_BOUND,
    context: Optional[WildContext] = None,
) -> InductionReport:
    """Verify the three mutually supporting hypotheses for 12 <= k <= k_max.

    (1) decrease by <= 1235/1264 for x not -1 mod 2^k: a class proof
        via the coverage table at k = 12, per-witness one-step checks
        for the strata -1 mod 2^t (t = k-1) above it;
    (2) every 1 <= n <= 2^k - 2 reaches 1 (capped by the trajectory
        bound), with spot-built certificates;
    (3) every m <= (2^k - 1)/189 with 3 not dividing m is wild, by one
        column search per level and closure (_hypothesis_three).  One
        unit sieve (unit_sieve, the units mod 6 only) below
        6 (2^k_max - 1)/189 + 6 serves every level, so k_max is at most
        35.  No level's witness rows outlive its check.
    Any failure aborts with the offending k, hypothesis and witness.
    """
    if k_max < 12:
        raise ValueError(f"induction starts at k = 12, got k_max = {k_max}")
    # both bounds are refused before the sweep runs, the reach bound first;
    # hypothesis 3 reads smoothness from one unit sieve below
    # 6 (m_limit + 1), which SIEVE_LIMIT_MAX caps at k_max = 35
    reach_bound = min((1 << k_max) - 2, trajectory_bound)
    _check_reach_bound(reach_bound)
    m_limit = ((1 << k_max) - 1) // 189
    if 6 * (m_limit + 1) - 1 > SIEVE_LIMIT_MAX:
        raise ValueError(f"induction runs to k_max = 35 at most, got k_max = {k_max}")
    if context is None:
        context = WildContext(trajectory_budget=max(trajectory_bound, 1 << 14))
    lines: list[InductionLine] = []

    cover = context.coverage
    verdict = verify_coverage_table(cover)
    if not verdict.ok:
        raise InductionError(12, 1, "coverage table", "; ".join(verdict.issues))
    worst = cover.worst
    if not worst < ONESTEP_BOUND:
        raise InductionError(12, 1, worst, f"cover worst {worst} not below {ONESTEP_BOUND}")
    # put the base comparison on the common denominator 1264 when it fits
    if 1264 % worst.denominator == 0:
        scale = 1264 // worst.denominator
        comparison = f"{worst.numerator * scale}/1264<{format_rational(ONESTEP_BOUND)}"
    else:
        comparison = f"{format_rational(worst)}<{format_rational(ONESTEP_BOUND)}"

    reach = reach_one_range(reach_bound)
    u = unit_sieve(6 * (m_limit + 1) - 1)

    m_done = 1
    for k in range(12, k_max + 1):
        # hypothesis 1
        if k == 12:
            lines.append(
                InductionLine(
                    k=k,
                    hypothesis=1,
                    kind="class_proof",
                    status="pass",
                    details=(
                        ("modulus_exponent", str(cover.modulus_exponent)),
                        ("excluded", "all_ones_class"),
                        ("worst", format_rational(worst)),
                        ("bound", format_rational(ONESTEP_BOUND)),
                        ("comparison", comparison),
                    ),
                )
            )
        else:
            t = k - 1
            worst_sample = Fraction(0)
            worst_x = 0
            for i in range(WITNESS_SAMPLES):
                c = 2 * i + 1
                x = c * (1 << t) - 1
                try:
                    trace = onestep_reduce(x, t, context)
                except (ValueError, VerificationError, SmoothPairExhaustionError) as exc:
                    raise InductionError(k, 1, x, str(exc)) from exc
                if trace.ratio > worst_sample:
                    worst_sample, worst_x = trace.ratio, x
            if worst_sample > ONESTEP_BOUND:
                raise InductionError(k, 1, worst_x, f"ratio {worst_sample} exceeds {ONESTEP_BOUND}")
            lines.append(
                InductionLine(
                    k=k,
                    hypothesis=1,
                    kind="witness_check",
                    status="pass",
                    details=(
                        ("stratum_exponent", str(t)),
                        ("samples", str(WITNESS_SAMPLES)),
                        ("worst_ratio", format_rational(worst_sample)),
                        ("worst_x", str(worst_x)),
                        ("bound", format_rational(ONESTEP_BOUND)),
                    ),
                )
            )
        # hypothesis 2
        need = (1 << k) - 2
        capped = need > reach_bound
        checked_to = min(need, reach_bound)
        spot_targets = sorted({checked_to, checked_to // 2 + 1, 27, 1}, reverse=True)
        spot_targets = spot_targets[:SPOT_CERTIFICATES]
        for n in spot_targets:
            try:
                context.s_certificate(n)
            except VerificationError as exc:
                raise InductionError(k, 2, n, str(exc)) from exc
        lines.append(
            InductionLine(
                k=k,
                hypothesis=2,
                kind="sweep_capped" if capped else "sweep",
                status="pass",
                details=(
                    ("range", f"1..{checked_to}"),
                    ("max_steps", str(reach.max_steps_up_to(checked_to))),
                    ("spots", ",".join(str(n) for n in spot_targets)),
                ),
            )
        )
        lines.append(_hypothesis_three(k, m_done, u, context))
        m_done = ((1 << k) - 1) // 189
    return InductionReport(k_min=12, k_max=k_max, lines=tuple(lines))
