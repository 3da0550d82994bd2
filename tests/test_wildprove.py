import contextlib
import dataclasses
import io
import itertools
import math
import os
import subprocess
import sys
import textwrap
import time
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import wildsemi
from wildsemi import cli
from wildsemi.certify import (
    Certificate,
    Side,
    serialize_certificate,
    verify_certificate,
)
from wildsemi.cli import EXIT_MATH, EXIT_OK
from wildsemi.core import t_iterate
from wildsemi.residue import replay_steps
from wildsemi.wildprove import (
    DEFAULT_TRAJECTORY_BOUND,
    ONESTEP_BOUND,
    REACH_STEPS_MAX,
    SIEVE_LIMIT_MAX,
    SMALL_PRIMES,
    TRIAL_BOUND,
    BudgetExhaustedError,
    CertStore,
    InductionError,
    NotInSemigroupError,
    SmoothPairExhaustionError,
    SmoothWitness,
    VerificationError,
    WildContext,
    compute_a_r,
    factorize,
    find_smooth_pair,
    induction_driver,
    is_prime_int,
    lift_minus_one,
    onestep_reduce,
    pi_inequality_range,
    reach_one_range,
    reduction_exponent,
    s_certificate_for_integer,
    s_certificate_for_rational,
    smooth_counts_up_to,
    smooth_factorization,
    smooth_majority_range,
    smooth_pair_rows,
    smooth_residues,
    unit_sieve,
    w_certificate_for_integer,
    w_certificate_for_prime,
    w_certificate_for_rational,
)
from reference_chain import certificate_power, identity_certificate, invert_certificate, multiply_certificates
from planted_rows import UNRESOLVED, planting
from reference_primes import eratosthenes, primes_up_to
from reference_store import listed_index, reference_index


def brute_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, n))]


def trial_factorize(n):
    """Reference: divide by 2, 3, 5, 7, 9, ... up to the square root."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


# OEIS A014233: the least composite that is a strong probable prime to
# every one of the first t prime bases, t = 1..12 (distinct values)
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,  # psi_12: fools the bases 2..37
)
CARMICHAEL = (561, 1105, 1729, 41041, 825265, 321197185, 1004612946644089, 100147095286703777089)


def run_optimized(script):
    """stdout of a script run under python -O with this checkout's package and test helpers."""
    src = str(Path(wildsemi.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def listing(root):
    """`wildsemi verify root`, in process: its exit code and the lines it lists."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", str(root)])
    return code, listed_index(out.getvalue())


def chain_integer_certificate(m, context):
    """Reference: identity times each prime-power certificate, one multiply at a time."""
    cert = identity_certificate(Side.W)
    for p, e in sorted(factorize(m).items()):
        cert = multiply_certificates(cert, certificate_power(w_certificate_for_prime(p, context), e))
    return cert


def chain_witness_certificate(q, context):
    """Reference: (1/n) * g(l) * s1 * s2 for q, one multiply at a time.

    s1 and s2 are factored here by trial division, not read from the
    witness's factors.
    """
    w = find_smooth_pair(q)  # deterministic: the witness the context used
    inv_n = invert_certificate(s_certificate_for_integer(w.n, context.trajectory_budget))
    middle = Certificate(Side.W, Fraction(3 * w.l + 2, 2 * w.l + 1), ((w.l, 1),))
    cert = multiply_certificates(inv_n, middle)
    for p, e in itertools.chain(trial_factorize(w.s1).items(), trial_factorize(w.s2).items()):
        cert = multiply_certificates(cert, certificate_power(context.recall(p), e))
    return cert


def per_prime_smooth_counts(q_max):
    """Reference: the greatest prime factor of every s <= 6*q_max by one slice per prime."""
    limit = 6 * q_max
    gpf = np.zeros(limit + 1, dtype=np.int64)
    for p in primes_up_to(limit):
        gpf[p::p] = p
    s = np.arange(limit + 1)
    thresholds = np.maximum(s // 6 + 1, gpf + 1)[(s % 2 == 1) & (s % 3 != 0)]
    return np.cumsum(np.bincount(thresholds[thresholds <= q_max], minlength=q_max + 1))


def record_witnesses(monkeypatch):
    """The smooth witnesses built from here on, in order, via a wrapper on find_smooth_pair."""
    built = []
    find = wildsemi.wildprove.find_smooth_pair
    monkeypatch.setattr(wildsemi.wildprove, "find_smooth_pair", lambda q: built.append(find(q)) or built[-1])
    return built


def record_rows(monkeypatch):
    """The witness rows the column search returns from here on, one WitnessRows per call."""
    found = []
    search = wildsemi.wildprove.smooth_pair_rows
    monkeypatch.setattr(wildsemi.wildprove, "smooth_pair_rows", lambda qs, u: found.append(search(qs, u)) or found[-1])
    return found


def loop_reach_one(bound):
    """Reference: descend each n on its own until it drops below n."""
    steps = np.zeros(bound + 1, dtype=np.int64)
    max_steps, max_at = 0, 1
    for n in range(2, bound + 1):
        v, count = n, 0
        while v >= n:
            v = (3 * v + 1) >> 1 if v & 1 else v >> 1
            count += 1
        steps[n] = total = count + int(steps[v])
        if total > max_steps:
            max_steps, max_at = total, n
    return steps, max_steps, max_at


def flat_descent(steps):
    """A stand-in for _descend: every odd start lands on 1 after `steps` steps."""

    def descend(start, stop, floor, jump):
        size = len(range(start, stop, 2))
        return np.ones(size, dtype=np.int64), np.full(size, steps, dtype=np.int64)

    return descend


def record_int_descents(monkeypatch):
    """The starts that finish in Python ints from here on, via a wrapper on _descend_int."""
    started = []
    descend = wildsemi.wildprove._descend_int
    monkeypatch.setattr(wildsemi.wildprove, "_descend_int", lambda n, *args: started.append(n) or descend(n, *args))
    return started


def jump_values_above(bound, limit):
    """Reference: the odd starts n <= bound of each block [2^i, 2^(i+1)) whose
    value before some jump of min(8, i) T steps exceeds limit, one step at a
    time, jumps taken until one lands below 2^i."""
    above = []
    for n in range(3, bound + 1, 2):
        i = n.bit_length() - 1
        v = n
        while v >= 1 << i:
            if v > limit:
                above.append(n)
                break
            for _ in range(min(8, i)):
                v = (3 * v + 1) >> 1 if v & 1 else v >> 1
    return sorted(above)


def unit_values(u):
    """The unit s mod 6 at each index of a unit sieve: s // 3 is the index."""
    j = np.arange(u.size)
    return 3 * j + 1 + (j & 1)


class TestPrimeSieve:
    def test_matches_trial_division(self):
        # every n < 10^5: a unit's entry is its primality, and the primes
        # the sieve lists are the primes from 5 on
        u = unit_sieve(10**5 - 1)
        s = unit_values(u)
        assert s.tolist() == [n for n in range(10**5 + 2) if n % 2 and n % 3]
        assert u[:-1].tolist() == [is_prime_int(n) for n in s[:-1].tolist()]
        assert not u[-1]  # 10^5 + 1 is past the limit
        listed = wildsemi.wildprove._primes_in(u, 0, 10**5 - 1).tolist()
        assert listed == [n for n in range(10**5) if n >= 5 and is_prime_int(n)]
        assert listed[:23] == brute_primes(100)[2:]

    def test_each_limit_ends_at_its_top_entry(self):
        # the top entry, limit // 3, is a unit past the limit for a limit
        # 0, 3 or 4 mod 6; every limit 2..60 covers each residue ten times
        for limit in range(2, 61):
            u = unit_sieve(limit)
            assert u.size == limit // 3 + 1, limit
            expected = [n for n in unit_values(u).tolist() if n <= limit and is_prime_int(n)]
            assert unit_values(u)[u].tolist() == expected, limit

    def test_primes_between_two_bounds_exclude_the_lower(self):
        # the driver's levels (m_done, m_bound] and the majority range read this
        u = unit_sieve(61)
        primes = primes_up_to(61)
        for lo in range(62):
            for hi in range(lo, 62):
                got = wildsemi.wildprove._primes_in(u, lo, hi).tolist()
                assert got == [p for p in primes if lo < p <= hi and p >= 5], (lo, hi)
        assert smooth_majority_range(14, 30).checked == smooth_majority_range(13, 30).checked - 1

    def test_pi(self):
        # 2 and 3 have no entry
        assert unit_sieve(10**6).sum() + 2 == 78498
        assert unit_sieve(10**7).sum() + 2 == 664579
        assert unit_sieve(10**8).sum() + 2 == 5761455

    def test_window(self):
        # the majority range reads the primes of [q_min, q_max] off the unit sieve
        window = (11, 13, 17, 19, 23, 29)
        summary = smooth_majority_range(10, 30)
        assert summary.checked == len(window)
        assert summary.failures == tuple(q for q in window if len(smooth_residues(q)) <= q - 1)

    def test_too_small(self):
        # the table ends at its limit: a read past it raises, it does not answer
        u = unit_sieve(50)
        assert len(u) == 17  # the units 1 .. 49
        with pytest.raises(IndexError):
            u[17]

    @pytest.mark.parametrize("limit", [2, 3, 100, 9973, 10**5])
    def test_counts_are_int32_prefix_counts(self, limit):
        # the int32 prefix sum of the unit sieve counts the primes 5..s
        # up to each unit s, which is pi(s) - 2 for s >= 3
        counts = np.cumsum(unit_sieve(limit), dtype=np.int32)
        plain = list(itertools.accumulate(int(n >= 5 and is_prime_int(n)) for n in range(limit + 1)))
        assert counts.tolist() == [plain[min(s, limit)] for s in unit_values(counts).tolist()]

    def test_refuses_a_limit_past_int32_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the sieve allocated before checking its limit")

        for name in ("ones", "zeros", "empty", "full"):
            monkeypatch.setattr(np, name, no_allocation)
        for limit in (SIEVE_LIMIT_MAX + 1, 6 * 400_000_000, 1, 0, -7):
            with pytest.raises(ValueError, match=f"^sieve limit must be in 2..2147483647, got {limit}$"):
                unit_sieve(limit)

    def test_trial_primes_match_the_sieve(self):
        u = unit_sieve(TRIAL_BOUND - 1)
        assert SMALL_PRIMES == (2, 3) + tuple(unit_values(u)[u].tolist())
        assert len(SMALL_PRIMES) == 168


class TestIntegerHelpers:
    def test_factorize_examples(self):
        assert factorize(875) == {5: 3, 7: 1}
        assert factorize(1) == {}
        assert factorize(2**10) == {2: 10}
        with pytest.raises(ValueError):
            factorize(0)

    @given(st.integers(1, 10**9))
    def test_factorize_reconstructs(self, n):
        factors = factorize(n)
        product = 1
        for p, e in factors.items():
            assert is_prime_int(p)
            product *= p**e
        assert product == n

    def test_is_prime_int(self):
        flags = eratosthenes(300)
        for n in range(301):
            assert is_prime_int(n) == flags[n]

    def test_agrees_with_trial_division_below_2e5(self):
        for n in range(1, 200_000):
            expected = trial_factorize(n)
            assert factorize(n) == expected, n
            assert is_prime_int(n) == (expected == {n: 1}), n

    def test_agrees_with_trial_division_on_random_n_below_1e12(self, rng):
        for _ in range(40):
            n = rng.randrange(1, 10**12)
            expected = trial_factorize(n)
            assert factorize(n) == expected, n
            assert is_prime_int(n) == (expected == {n: 1}), n

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
    def test_pseudoprimes_are_composite(self, n):
        assert not is_prime_int(n)
        factors = factorize(n)
        assert sum(factors.values()) >= 2
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(is_prime_int(p) for p in factors)
        if n in CARMICHAEL:  # Korselt: squarefree, p - 1 | n - 1
            assert all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in factors.items())

    def test_large_semiprimes_and_squares(self):
        p, r = 2**30 - 35, 2**30 + 3  # both prime
        assert is_prime_int(p) and is_prime_int(r)
        assert factorize(p * r) == {p: 1, r: 1}
        assert factorize(p * p) == {p: 2}
        assert factorize(4 * p * r) == {2: 2, p: 1, r: 1}
        assert not is_prime_int(p * p)
        assert is_prime_int(2**61 - 1)
        assert factorize(2**61 - 1) == {2**61 - 1: 1}

    def test_beyond_the_exact_range_falls_back_to_trial_division(self):
        # 7^40 is above psi_13 = 3317044064679887385961981, where the
        # 13-base test is no longer proven exact
        assert 7**40 > 3317044064679887385961981
        assert factorize(7**40) == {7: 40}
        assert factorize(2 * 7**40 * 1009) == {2: 1, 7: 40, 1009: 1}
        # no prime factor below 1000 and above psi_13: the 13-base test
        # proves it composite, so it is split, not trial-divided
        assert 1009**5 * 1013**4 > 3317044064679887385961981
        assert factorize(1009**5 * 1013**4) == {1009: 5, 1013: 4}
        assert not is_prime_int(7**40)

    def test_composites_past_the_exact_range_split_fast(self):
        p, r = 1000000007, 1000000009
        q = 2**51 - 129  # a 51-bit prime beside the 31-bit 2^31 - 1
        assert is_prime_int(q) and is_prime_int(2**31 - 1)
        assert p * p * r > (2**31 - 1) * q > wildsemi.wildprove.MR_EXACT_BELOW
        start = time.perf_counter()
        assert factorize(p * p * r) == {p: 2, r: 1}
        assert factorize((2**31 - 1) * q) == {2**31 - 1: 1, q: 1}
        assert time.perf_counter() - start < 2.0

    def test_probable_primes_past_the_exact_range_are_trial_divided(self, monkeypatch):
        # with the exact range cut to 10^7, a prime above it passes the
        # 13-base test and only trial division may call it prime
        monkeypatch.setattr(wildsemi.wildprove, "MR_EXACT_BELOW", 10**7)
        p, r = 10000019, 1000003  # both prime
        assert trial_factorize(p) == {p: 1} and trial_factorize(r) == {r: 1}
        assert is_prime_int(p)
        assert factorize(p) == {p: 1}
        assert factorize(p * r) == {p: 1, r: 1}
        assert factorize(p * p * r) == {p: 2, r: 1}
        assert not is_prime_int(p * r)

    def test_smoothness(self):
        assert smooth_factorization(1, 5) == {}  # 1 is smooth for every q
        assert smooth_factorization(875, 13) == {5: 3, 7: 1}
        assert smooth_factorization(875, 8) == {5: 3, 7: 1}
        assert smooth_factorization(875, 7) is None
        assert smooth_factorization(13, 13) is None
        assert smooth_factorization(26, 13) is None


class TestCanonicalResidues:
    @pytest.mark.parametrize("q,a,r", [(2, 4, 5), (5, 7, 23), (13, 2, 17), (999983, 4, 2666621)])
    def test_examples(self, q, a, r):
        assert compute_a_r(q) == (a, r)

    @given(st.integers(0, 10**4))
    def test_invariants(self, seed):
        q = seed
        while not is_prime_int(q) or q % 3 == 0:
            q += 1
        a, r = compute_a_r(q)
        assert 1 <= a <= 8
        assert (a * q) % 9 == 8
        assert 3 * r == 2 * a * q - 1
        assert r % 6 == 5
        assert math.gcd(r, 6 * q) == 1

    def test_rejects(self):
        with pytest.raises(ValueError):
            compute_a_r(3)
        with pytest.raises(ValueError):
            compute_a_r(15)


class TestSmoothResidues:
    def test_thirteen(self):
        assert smooth_residues(13) == (1, 5, 7, 11, 25, 35, 49, 55, 77)

    def test_five_is_thin(self):
        assert smooth_residues(5) == (1,)

    @given(st.integers(5, 400))
    def test_membership_definition(self, lo):
        q = lo
        while not is_prime_int(q) or q % 3 == 0:
            q += 1
        got = smooth_residues(q)
        expected = tuple(
            s
            for s in range(1, 6 * q)
            if math.gcd(s, 6 * q) == 1 and max(trial_factorize(s), default=1) < q
        )
        assert got == expected

    def test_counts_match_a_per_prime_sieve(self):
        assert np.array_equal(smooth_counts_up_to(3000), per_prime_smooth_counts(3000))

    def test_counts_match_a_per_prime_sieve_at_every_small_bound(self):
        # each q_max moves the top 6*q_max - 1 and the sqrt cut of the unit-class sieve
        for q_max in [*range(1, 401), 10**5]:
            counts, expected = smooth_counts_up_to(q_max), per_prime_smooth_counts(q_max)
            assert counts.dtype == expected.dtype and np.array_equal(counts, expected), q_max

    def test_counts_batch_matches_single(self):
        counts = smooth_counts_up_to(60)
        for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
            assert counts[q] == len(smooth_residues(q))


class TestMajorityRoute:
    def test_small_prime_fails(self):
        # 9 smooth residues fill no more than half of the phi(78) = 24 classes
        assert len(smooth_residues(13)) == 9
        summary = smooth_majority_range(13, 13)
        assert summary.checked == 1
        assert summary.failures == (13,) and not summary.passed

    def test_large_prime_passes(self):
        assert len(smooth_residues(257)) == 317  # above q - 1 = 256
        summary = smooth_majority_range(257, 257)
        assert summary.checked == 1 and summary.passed

    def test_range_above_cutoff(self):
        summary = smooth_majority_range(257, 1000)
        assert summary.passed
        assert summary.failures == ()
        assert summary.checked == 114  # pi(1000) - pi(256), no prime here is 3

    def test_range_to_a_million(self):
        summary = smooth_majority_range(257, 10**6)
        assert summary.failures == ()
        assert summary.checked == 78444  # pi(10^6) - pi(256)

    def test_range_below_cutoff_reports_failures(self):
        summary = smooth_majority_range(5, 50)
        assert not summary.passed
        assert 5 in summary.failures and 13 in summary.failures

    def test_failures_are_the_primes_at_or_below_half_ties_included(self):
        # 43, 47 and 53 have exactly q - 1 smooth units, on the failing side
        counts = per_prime_smooth_counts(400)
        primes = [q for q in primes_up_to(400) if q >= 5]
        assert [q for q in primes if counts[q] == q - 1] == [43, 47, 53]
        summary = smooth_majority_range(5, 400)
        assert summary.checked == len(primes)
        assert summary.failures == tuple(q for q in primes if counts[q] <= q - 1)


class TestPiRoute:
    def test_spot_values(self):
        flags = eratosthenes(6 * 257)
        above_q = int(flags[258 : 6 * 257 + 1].sum())  # pi(6q) - pi(q)
        above_q_fifth = int(flags[258 : 6 * 257 // 5 + 1].sum())  # pi(floor(6q/5)) - pi(q)
        assert (above_q, above_q_fifth) == (187, 8)
        assert above_q + above_q_fifth <= 257 - 2
        summary = pi_inequality_range(257, 257)
        assert summary.checked == 1 and summary.passed

    def test_prime_count_definitions(self):
        def pi(x):
            return sum(map(is_prime_int, range(x + 1)))

        for q in (1009, 1010, 4099):
            lhs = (pi(6 * q) - pi(q)) + (pi(6 * q // 5) - pi(q))
            summary = pi_inequality_range(q, q)
            assert summary.checked == 1
            assert summary.passed == (lhs <= q - 2)

    def test_range(self):
        summary = pi_inequality_range(257, 2000)
        assert summary.passed and summary.failures == ()

    def test_range_to_a_million(self):
        summary = pi_inequality_range(257, 10**6)
        assert summary.failures == ()
        assert summary.checked == 999744  # every integer in [257, 10^6]

    def test_left_side_is_the_prime_count_for_every_q_to_10_4(self):
        # pi from is_prime_int, not from any sieve; above 256 the
        # inequality has room to spare, so the left side is pinned itself
        pi = list(itertools.accumulate(map(int, map(is_prime_int, range(6 * 10**4 + 1)))))
        lhs = wildsemi.wildprove._pi_lhs(257, 10**4)
        assert lhs.dtype == np.int32
        assert lhs.tolist() == [(pi[6 * q] - pi[q]) + (pi[6 * q // 5] - pi[q]) for q in range(257, 10**4 + 1)]

    def test_left_side_at_every_residue_of_the_range_ends(self):
        # 30 consecutive q_max put q_max on each residue mod 6 and
        # floor(6 q_max / 5) = 6 (q_max // 5) + q_max % 5 on each residue
        # it takes; q_min runs over its residues mod 5 down to q_max
        pi = list(itertools.accumulate(map(int, map(is_prime_int, range(6 * 3030 + 1)))))
        for q_max in range(3000, 3030):
            for q_min in range(q_max - 4, q_max + 1):
                expected = [(pi[6 * q] - pi[q]) + (pi[6 * q // 5] - pi[q]) for q in range(q_min, q_max + 1)]
                assert wildsemi.wildprove._pi_lhs(q_min, q_max).tolist() == expected, (q_min, q_max)

    def test_range_guards_its_hypothesis(self):
        with pytest.raises(ValueError):
            pi_inequality_range(256, 300)
        with pytest.raises(ValueError):
            pi_inequality_range(300, 299)  # empty range

    def test_routes_agree_where_both_apply(self):
        # two independent reasons for the same conclusion; keep both
        assert smooth_majority_range(257, 500).passed
        assert pi_inequality_range(257, 500).passed


class TestSmoothPair:
    def test_thirteen_witness(self):
        w = find_smooth_pair(13)
        assert w == SmoothWitness(q=13, a=2, r=17, s1=25, s2=35, k=11, n=101, factors=((5, 3), (7, 1)))
        assert w.l == 437
        assert w.s1 * w.s2 == 875

    @pytest.mark.parametrize("q", [5, 7, 11])
    def test_thin_smooth_sets_exhaust(self, q):
        with pytest.raises(SmoothPairExhaustionError):
            find_smooth_pair(q)

    def test_witness_rejects_tampering(self):
        w = find_smooth_pair(13)
        with pytest.raises(ValueError):
            dataclasses.replace(w, a=3)
        with pytest.raises(ValueError):
            dataclasses.replace(w, s1=55)
        with pytest.raises(ValueError):
            dataclasses.replace(w, s2=65)  # 65 = 5*13 shares a factor with 6q
        with pytest.raises(ValueError):
            dataclasses.replace(w, n=100)

    def test_tampered_factors_are_refused_under_optimize(self):
        # each tampered factorization is refused when the witness is
        # built; a non-smooth s2 planted in the driver's witness rows
        # stops hypothesis 3 with the message of the witness's factors
        out = run_optimized(
            """
            import dataclasses, sys
            from planted_rows import planting
            from wildsemi import wildprove
            from wildsemi.wildprove import InductionError, find_smooth_pair, induction_driver

            forty_seven = find_smooth_pair(47)  # s1*s2 = 125 = 5^3
            nineteen = find_smooth_pair(19)  # s1*s2 = 1925 = 5^2 * 7 * 11
            for witness, factors in (
                (forty_seven, ((5, 1), (25, 1))),  # composite, same product
                (forty_seven, ((5, 3), (47, 1))),  # not below q
                (forty_seven, ((5, 2),)),  # wrong product
                (forty_seven, ((5, 3), (7, 0))),  # exponent 0, same product
                (nineteen, ((7, 1), (5, 2), (11, 1))),  # out of order, same product
            ):
                try:
                    dataclasses.replace(witness, factors=factors)
                except ValueError as exc:
                    print(sys.flags.optimize, exc)

            # the row of 19 pairs s1 = 13 with the prime 113 > 19; every
            # identity holds
            wildprove.smooth_pair_rows = planting(wildprove.smooth_pair_rows, 19, s1=13, s2=113, n=116)
            try:
                induction_driver(12)
            except InductionError as exc:
                print(sys.flags.optimize, exc)
            """
        )
        assert out.splitlines() == [
            "1 (25, 1) is not a prime in (5, 47) with an exponent in 1..6",
            "1 (47, 1) is not a prime in (5, 47) with an exponent in 1..6",
            "1 factors multiply to 25, not s1*s2 = 125",
            "1 (7, 0) is not a prime in (5, 47) with an exponent in 1..6",
            "1 (5, 2) is not a prime in (7, 19) with an exponent in 1..10",
            "1 k=12 hypothesis=3 witness=19: (113, 1) is not a prime in (13, 19) with an exponent in 1..10",
        ]

    @given(st.integers(13, 3000))
    def test_found_pairs_validate(self, lo):
        q = lo
        while not is_prime_int(q) or q % 3 == 0:
            q += 1
        w = find_smooth_pair(q)
        assert w.q == q and w.n < 54 * q
        assert (w.n * q) % 3 == 2 % 3
        assert 2 * w.l + 1 == w.s1 * w.s2


def assert_rows_match(qs, m):
    """Each row of the column search, and the witness built from it, equals find_smooth_pair."""
    expected = [find_smooth_pair(q) for q in qs]
    u = unit_sieve(6 * m - 1)
    rows = smooth_pair_rows(qs, u)
    assert rows.q.tolist() == qs
    assert not wildsemi.wildprove._failed_rows(rows, u).any()
    for i, w in enumerate(expected):
        assert (int(rows.s1[i]), int(rows.s2[i]), int(rows.n[i])) == (w.s1, w.s2, w.n), w.q
        assert rows.witness(i) == w, w.q  # factors included


class TestWitnessRows:
    def test_every_prime_to_k_22_matches_the_scalar_search(self):
        m = (2**22 - 1) // 189
        assert_rows_match([q for q in primes_up_to(m) if q >= 13], m)

    def test_random_primes_at_k_26_match_the_scalar_search(self, rng):
        m = (2**26 - 1) // 189
        primes = [q for q in primes_up_to(m) if q >= 13]
        assert_rows_match(sorted(rng.sample(primes, 500)), m)

    def test_smoothness_lemma_matches_the_gpf_sieve_and_the_prime_count(self):
        # for every prime 5 <= q <= 10^4 and every s < 6q prime to 6q,
        # the unit sieve's verdict is gpf(s) < q; the s that are not
        # q-smooth number (pi(6q) - pi(q)) + (pi(6q/5) - pi(q)), the left
        # side of the pi-inequality (pi from the reference sieve)
        q_max = 10**4
        flags = eratosthenes(6 * q_max)
        u = unit_sieve(6 * q_max)
        pi = np.cumsum(flags)
        gpf = np.zeros(6 * q_max, dtype=np.int64)
        gpf[1::6], gpf[5::6] = wildsemi.wildprove._unit_gpf(q_max)
        units = np.flatnonzero((np.arange(6 * q_max) % 6) % 4 == 1)  # 1 and 5 mod 6, ascending
        for q in np.flatnonzero(flags[: q_max + 1]).tolist()[2:]:  # from 5 on
            s = units[: 2 * q]
            s = s[s % q != 0]
            smooth = wildsemi.wildprove._smooth(s, q, u)
            assert np.array_equal(smooth, gpf[s] < q), q
            assert (~smooth).sum() == (pi[6 * q] - pi[q]) + (pi[6 * q // 5] - pi[q]), q

    def test_no_primes_make_no_rows(self):
        rows = smooth_pair_rows([], unit_sieve(59))
        assert rows.q.size == rows.s1.size == rows.s2.size == rows.n.size == 0

    # the column checks refuse each planted row, and the SmoothWitness
    # built from it names the fault
    @pytest.mark.parametrize(
        "k, q, changes, reason",
        [
            # every identity holds in the next four, so only the
            # smoothness check sees them: s2 a prime above q, s2 five
            # times one (205 = 5 * 41), s1 a prime above q
            (12, 19, {"s1": 13, "s2": 113, "n": 116}, "(113, 1) is not a prime in (13, 19) with an exponent in 1..10"),
            (13, 37, {"s1": 119, "s2": 205, "n": 989}, "(41, 1) is not a prime in (17, 37) with an exponent in 1..14"),
            (12, 19, {"s1": 23, "s2": 49, "n": 89}, "(23, 1) is not a prime in (7, 19) with an exponent in 1..10"),
            # r = 17 itself: 1 * 17 = 6qk + r with k = 0, but 17 > 13
            (12, 13, {"s1": 1, "s2": 17, "n": 2}, "(17, 1) is not a prime in (1, 13) with an exponent in 1..4"),
            (12, 19, {"s1": 57}, "57 is not a unit below 6q for q = 19"),
            # 13's own product 875 = 25 * 35, split as 1 * 875: every
            # identity holds, but 875 is not below 6q
            (12, 13, {"s1": 1, "s2": 875}, "875 is not a unit below 6q for q = 13"),
            (13, 23, {"s2": 35}, "s1*s2 = 175 is not 6qk + r with 0 <= k < 6q"),
            (12, 19, {"n": 161}, "n = 161 is not 9k + a < 54q"),
            (12, 19, UNRESOLVED, "the witness columns fail a check that the scalar path passes"),
        ],
    )
    def test_planted_rows_are_named_by_their_witness(self, monkeypatch, k, q, changes, reason):
        planted = planting(wildsemi.wildprove.smooth_pair_rows, q, **changes)
        monkeypatch.setattr(wildsemi.wildprove, "smooth_pair_rows", planted)
        with pytest.raises(InductionError) as info:
            induction_driver(14)
        assert (info.value.k, info.value.hypothesis, info.value.witness) == (k, 3, q)
        assert str(info.value) == f"k={k} hypothesis=3 witness={q}: {reason}"


class TestSCertificates:
    def test_five(self):
        cert = s_certificate_for_integer(5)
        assert cert.side is Side.S
        assert cert.target == 5
        assert serialize_certificate(cert).splitlines()[2:] == ["half 4", "g 0 1", "g 2 1"]
        assert verify_certificate(cert).ok

    def test_one(self):
        cert = s_certificate_for_integer(1)
        assert serialize_certificate(cert).splitlines()[2:] == ["half 1", "g 0 1"]

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExhaustedError):
            s_certificate_for_integer(27, budget=10)

    @given(st.integers(1, 10**5))
    def test_always_verifies(self, n):
        assert verify_certificate(s_certificate_for_integer(n)).ok

    def test_rational(self):
        cert = s_certificate_for_rational(Fraction(10, 7))
        assert cert.target == Fraction(10, 7)
        assert verify_certificate(cert).ok

    def test_rational_refusals(self):
        with pytest.raises(NotInSemigroupError):
            s_certificate_for_rational(Fraction(1, 3))
        with pytest.raises(NotInSemigroupError):
            s_certificate_for_rational(Fraction(5, 6))
        with pytest.raises(ValueError):
            s_certificate_for_rational(Fraction(-2, 7))

    def test_w_rational(self):
        ctx = WildContext()
        assert w_certificate_for_rational(Fraction(14), ctx) == w_certificate_for_integer(14, ctx)
        cert = w_certificate_for_rational(Fraction(5, 9), ctx)
        assert (cert.side, cert.target) == (Side.W, Fraction(5, 9))
        assert verify_certificate(cert).ok
        # the mirror of the S-certificate for 9/5
        assert cert.factors == s_certificate_for_rational(Fraction(9, 5), ctx).factors

    def test_w_rational_refusals(self):
        with pytest.raises(NotInSemigroupError, match="^numerator 3 is divisible by 3; 3/5 is not in the wild semigroup$"):
            w_certificate_for_rational(Fraction(3, 5))
        for x in (Fraction(3), Fraction(9, 2)):
            with pytest.raises(NotInSemigroupError):
                w_certificate_for_rational(x)
        for x in (Fraction(0), Fraction(-5, 2)):
            with pytest.raises(ValueError, match="positive"):
                w_certificate_for_rational(x)


class TestWCertificates:
    def test_thirteen(self):
        ctx = WildContext()
        cert = w_certificate_for_prime(13, ctx)
        assert cert.target == 13
        assert cert.generator_count == 20
        assert sum(e for _, e in cert.factors) == 58
        assert verify_certificate(cert).ok

    def test_composite(self):
        cert = w_certificate_for_integer(875)
        assert cert.target == 875
        assert verify_certificate(cert).ok

    def test_builtins_only_below_four_hundred(self, monkeypatch):
        # every prime < 400 except 3 assembles from the seeds 2, 5, 7, 11
        built = record_witnesses(monkeypatch)
        ctx = WildContext()
        for q in primes_up_to(400):
            if q == 3:
                continue
            assert verify_certificate(w_certificate_for_prime(q, ctx)).ok
        witnessed = [w.q for w in built]
        assert len(witnessed) == len(set(witnessed)) > 70
        assert not set(witnessed) & {2, 5, 7, 11}

    def test_each_witness_is_factored_once(self, monkeypatch):
        # the scan of find_smooth_pair factors s1 and s2; the witness
        # carries those factors and nothing factors them again
        built = record_witnesses(monkeypatch)
        real_factorize = wildsemi.wildprove.factorize
        calls, searching = [], []
        monkeypatch.setattr(wildsemi.wildprove, "factorize", lambda n: calls.append(n) or real_factorize(n))
        find = wildsemi.wildprove.find_smooth_pair

        def find_counted(q):
            start = len(calls)
            witness = find(q)
            searching.extend(calls[start:])
            return witness

        monkeypatch.setattr(wildsemi.wildprove, "find_smooth_pair", find_counted)
        cert = w_certificate_for_prime(2**30 - 35, WildContext())
        assert verify_certificate(cert).ok
        assert len(built) > 1
        assert calls == searching  # no factorize call outside find_smooth_pair
        calls.clear()
        assert [dataclasses.replace(w) for w in built] == built
        assert calls == []  # building a witness factors nothing

    def test_refusals(self):
        with pytest.raises(NotInSemigroupError):
            w_certificate_for_prime(3)
        with pytest.raises(NotInSemigroupError):
            w_certificate_for_integer(21)
        with pytest.raises(ValueError):
            w_certificate_for_prime(15)
        with pytest.raises(ValueError):
            w_certificate_for_integer(0)

    def test_cached_prime_factors_skip_the_primality_test(self, monkeypatch):
        ctx = WildContext()
        w_certificate_for_integer(13 * 17, ctx)
        tested = []
        is_prime = wildsemi.wildprove.is_prime_int
        monkeypatch.setattr(
            wildsemi.wildprove, "is_prime_int", lambda n: tested.append(n) or is_prime(n)
        )
        cert = w_certificate_for_integer(13 * 13 * 17, ctx)
        assert verify_certificate(cert).ok
        assert tested == []


class TestAssembly:
    def test_integers_match_the_multiply_chain(self, monkeypatch):
        built = record_witnesses(monkeypatch)
        ctx = WildContext()
        for m in range(1, 3000):
            if m % 3:
                assert w_certificate_for_integer(m, ctx) == chain_integer_certificate(m, ctx), m
        assert len(built) > 300
        for w in built:
            assert ctx.certificates[w.q] == chain_witness_certificate(w.q, ctx), w.q

    def test_large_primes_match_the_multiply_chain(self):
        ctx = WildContext()
        qs = [q for q in range(2**30 - 1, 2**30 - 200, -2) if q % 3 and is_prime_int(q)][:4]
        assert len(qs) == 4
        for q in qs:
            cert = w_certificate_for_prime(q, ctx)
            assert verify_certificate(cert).ok
            assert cert == chain_witness_certificate(q, ctx)
            assert w_certificate_for_integer(q, ctx) == cert == chain_integer_certificate(q, ctx)

    def test_each_new_file_is_put_once(self, tmp_path, monkeypatch):
        put = CertStore.put
        puts = []
        monkeypatch.setattr(CertStore, "put", lambda store, cert: puts.append(cert) or put(store, cert))
        ctx = WildContext(store=CertStore(tmp_path))
        for m in range(1000, 1040):
            if m % 3:
                w_certificate_for_integer(m, ctx)
        files = sorted(tmp_path.glob("*.cert"))
        assert len(puts) == len(files) > 30
        assert (tmp_path / "w-1009.cert").exists()  # primes are among them

    def test_every_certificate_is_verified_once(self, monkeypatch):
        built = record_witnesses(monkeypatch)
        verify = wildsemi.wildprove.verify_certificate
        checked = []
        monkeypatch.setattr(
            wildsemi.wildprove, "verify_certificate", lambda cert: checked.append(cert) or verify(cert)
        )
        ctx = WildContext()
        for m in range(1, 3000):
            if m % 3:
                w_certificate_for_integer(m, ctx)
        # built: the 4 seeds, every prime and composite (all cached), the
        # empty product for m = 1, and one trajectory certificate per
        # distinct n among the witnesses, which share them
        distinct_n = {w.n for w in built}
        assert len(distinct_n) < len(built)
        assert set(ctx.s_certificates) == distinct_n
        built = len(ctx.certificates) + 1 + len(distinct_n)
        assert len(checked) == built
        wild = [cert for cert in checked if cert.side is Side.W]
        assert set(wild) == set(ctx.certificates.values()) | {Certificate(Side.W, Fraction(1), ())}
        assert len(wild) == len(set(wild)) == len(ctx.certificates) + 1

    def test_tampered_dependency_is_caught_under_optimize(self):
        out = run_optimized(
            """
            import sys
            from fractions import Fraction
            from wildsemi.certify import Certificate
            from wildsemi.wildprove import VerificationError, WildContext, _witness_certificate, find_smooth_pair
            context = WildContext()
            witness = find_smooth_pair(13)
            p = witness.factors[0][0]
            dep = context.recall(p)
            context.certificates[p] = Certificate(dep.side, dep.target + 1, dep.factors)
            try:
                _witness_certificate(witness, context)
            except VerificationError as exc:
                print(f"{sys.flags.optimize} {exc}")
            """
        )
        assert out.startswith("1 assembled target") and "!= 13" in out


class TestCertStore:
    def test_round_trip(self, tmp_path):
        store = CertStore(tmp_path / "certs")
        cert = w_certificate_for_prime(13)
        path = store.put(cert)
        assert path.name == "w-13.cert"
        assert store.get(Side.W, Fraction(13)) == cert
        assert [p.name for p in (tmp_path / "certs").iterdir()] == ["w-13.cert"]
        assert listing(tmp_path / "certs") == (0, "w-13.cert 13/1 pass\n")

    def test_rational_s_filenames(self, tmp_path):
        store = CertStore(tmp_path)
        cert = s_certificate_for_rational(Fraction(10, 7))
        path = store.put(cert)
        assert path.name == "s-10_7.cert"
        assert store.get(Side.S, Fraction(10, 7)) == cert

    def test_rational_w_targets_are_not_stored(self, tmp_path):
        store = CertStore(tmp_path)
        trace = onestep_reduce(4095, 12)
        assert store.put(trace.wild_certificate) is None

    def test_mislabeled_file_is_rejected(self, tmp_path):
        store = CertStore(tmp_path)
        store.put(w_certificate_for_prime(13))
        content = (tmp_path / "w-13.cert").read_text()
        (tmp_path / "w-17.cert").write_text(content)
        assert store.get(Side.W, Fraction(17)) is None

    def test_missing_file(self, tmp_path):
        assert CertStore(tmp_path).get(Side.W, Fraction(23)) is None

    def test_context_write_through(self, tmp_path):
        store = CertStore(tmp_path)
        first = WildContext(store=store)
        cert = w_certificate_for_prime(13, first)
        second = WildContext(store=store)
        assert second.recall(13) == cert

    def test_index_matches_the_reference_after_every_put(self, tmp_path):
        # the index is the listing of `verify DIR`, derived from the files
        ctx = WildContext()
        good = w_certificate_for_integer(14, ctx)
        # planted before the store opens: a file whose product misses its
        # target, one that does not parse and one that does not decode
        (tmp_path / "w-14.cert").write_text(serialize_certificate(Certificate(Side.W, Fraction(15), good.factors)))
        (tmp_path / "w-19.cert").write_text("not a certificate\n")
        (tmp_path / "w-25.cert").write_bytes(b"\xff\xfe\n")
        store, other = CertStore(tmp_path), CertStore(tmp_path)
        for m in (13, 17, 20, 23):
            store.put(w_certificate_for_integer(m, ctx))
            other.put(w_certificate_for_integer(m + 30, ctx))  # a file added behind the store's back
            code, idx = listing(tmp_path)
            assert (code, idx) == (EXIT_MATH, reference_index(tmp_path))
            assert all(p.name.endswith(".cert") for p in tmp_path.iterdir())
        assert "w-14.cert 15/1 mismatch\n" in idx
        assert "w-19.cert ? unparseable\n" in idx and "w-25.cert ? unparseable\n" in idx
        for name in ("w-53.cert", "w-19.cert", "w-25.cert"):
            (tmp_path / name).unlink()
        store.put(good)  # overwrites the tampered file
        code, idx = listing(tmp_path)
        assert (code, idx) == (EXIT_OK, reference_index(tmp_path))
        assert "w-14.cert 14/1 pass\n" in idx and "w-53.cert" not in idx

    def test_put_scans_no_directory_and_parses_no_file(self, tmp_path, monkeypatch):
        ctx = WildContext()
        certs = [w_certificate_for_integer(m, ctx) for m in range(1000, 1090) if m % 3]
        existing, new = certs[:40], certs[40:]
        for cert in existing:
            (tmp_path / f"w-{cert.target.numerator}.cert").write_text(serialize_certificate(cert))

        def refuse(*args):
            raise AssertionError("a put lists a directory or parses a file")

        with monkeypatch.context() as patch:
            for name in ("scandir", "listdir"):
                patch.setattr(os, name, refuse)
            patch.setattr(wildsemi.wildprove, "parse_certificate", refuse)
            store = CertStore(tmp_path)
            paths = [store.put(cert) for cert in new]
        # each put wrote exactly its own file, and nothing else
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"w-{c.target.numerator}.cert" for c in certs)
        assert [p.read_text() for p in paths] == [serialize_certificate(c) for c in new]
        assert listing(tmp_path) == (EXIT_OK, reference_index(tmp_path))

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["set_back", "tied", "newer"])
    def test_listing_reads_each_file_whatever_its_mtime(self, tmp_path, offset):
        # a rewrite whose mtime is set back before the last put, tied with
        # it or newer is listed by its content
        ctx = WildContext()
        store = CertStore(tmp_path)
        for m in (13, 17, 20):
            store.put(w_certificate_for_integer(m, ctx))
        wrong = Certificate(Side.W, Fraction(15), w_certificate_for_integer(13, ctx).factors)
        (tmp_path / "w-13.cert").write_text(serialize_certificate(wrong))
        last = store.put(w_certificate_for_integer(23, ctx))
        stamp = last.stat().st_mtime_ns + offset * 10**9
        os.utime(tmp_path / "w-13.cert", ns=(stamp, stamp))
        code, idx = listing(tmp_path)
        assert (code, idx) == (EXIT_MATH, reference_index(tmp_path))
        assert "w-13.cert 15/1 mismatch\n" in idx
        assert store.get(Side.W, Fraction(13)) is None

    def test_leftover_index_is_ignored(self, tmp_path):
        # a store.idx written by an earlier version: stale and malformed
        # lines, never read, rewritten or deleted
        ctx = WildContext()
        leftover = "w-13.cert 13/1 pass\nw-99.cert 99/1 pass\nw-17.cert pass\n"
        (tmp_path / "store.idx").write_text(leftover)
        store = CertStore(tmp_path)
        for m in (13, 17, 20):
            store.put(w_certificate_for_integer(m, ctx))
        (tmp_path / "w-13.cert").write_text("not a certificate\n")
        assert (tmp_path / "store.idx").read_text() == leftover
        code, idx = listing(tmp_path)
        assert (code, idx) == (EXIT_MATH, reference_index(tmp_path))
        assert "w-13.cert ? unparseable\n" in idx and "w-99" not in idx and "store.idx" not in idx
        assert store.get(Side.W, Fraction(13)) is None


class TestLift:
    def test_example(self):
        assert lift_minus_one(4095, 12, 7) == (43, 4127)

    def test_congruences(self):
        m, y = lift_minus_one(4095, 12, 7)
        assert (y + 1) % 2**5 == 0
        assert (y + 1) % 2**6 != 0

    def test_rejects(self):
        with pytest.raises(ValueError):
            lift_minus_one(4094, 12, 7)  # not -1 mod 2^12
        with pytest.raises(ValueError):
            lift_minus_one(4095, 12, 3)  # j != 1, 5 mod 6
        with pytest.raises(ValueError):
            lift_minus_one(4095, 12, 13)  # j > k

    @given(st.integers(1, 2**52), st.integers(12, 60), st.data())
    def test_random_lifts(self, c, k, data):
        x = c * 2**k - 1
        j = data.draw(st.sampled_from([jj for jj in range(1, k + 1) if jj % 6 in (1, 5)]))
        m, y = lift_minus_one(x, k, j)
        assert 3 * m == 2**j + 1
        assert y == x + (x + 1) // 2**j


class TestReduction:
    def test_exponent_schedule(self):
        assert [reduction_exponent(k) for k in range(12, 25)] == [
            7, 7, 7, 7, 7, 7, 13, 13, 13, 13, 13, 13, 19,
        ]

    def test_example(self):
        trace = onestep_reduce(4095, 12)
        assert (trace.j, trace.m, trace.intermediate) == (7, 43, 4127)
        assert trace.result == 2128
        assert trace.ratio == Fraction(2128, 4095) == Fraction(304, 585)
        assert trace.wild_certificate.target == trace.ratio
        assert verify_certificate(trace.wild_certificate).ok
        assert replay_steps(4095, trace.steps) == trace.values

    def test_thirteen_bit_example(self):
        trace = onestep_reduce(2**13 - 1, 13)
        assert (trace.j, trace.m) == (7, 43)
        assert trace.intermediate == 8255
        assert trace.result == 6385

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            onestep_reduce(4094, 12)
        with pytest.raises(ValueError):
            onestep_reduce(2**13 - 1, 12)  # -1 even mod 2^13
        with pytest.raises(ValueError):
            onestep_reduce(2**11 - 1, 11)

    def test_checks_survive_optimize(self):
        # a cover whose stored maps are off by one makes the concrete replay
        # disagree with the map; the check must raise even with asserts off
        out = run_optimized(
            """
            import dataclasses, sys
            from wildsemi.residue import AffineMap, CoverageTable, load_builtin_coverage
            from wildsemi.wildprove import VerificationError, WildContext, onestep_reduce
            records = tuple(
                dataclasses.replace(r, map=AffineMap(r.map.c, r.map.d + 1))
                for r in load_builtin_coverage().records
            )
            context = WildContext(coverage=CoverageTable(records, modulus_exponent=12))
            try:
                onestep_reduce(4095, 12, context)
            except VerificationError as exc:
                print(f"{sys.flags.optimize} {exc}")
            """
        )
        assert out.startswith("1 replay result") and "affine map value" in out

    @given(st.integers(0, 2**40), st.integers(12, 40))
    def test_bound_holds(self, i, k):
        ctx = WildContext()
        x = (2 * i + 1) * 2**k - 1
        trace = onestep_reduce(x, k, ctx)
        assert trace.ratio <= ONESTEP_BOUND
        assert trace.result < x
        assert verify_certificate(trace.wild_certificate).ok


class TestReachOne:
    def test_stats(self):
        stats = reach_one_range(1000)
        assert stats.bound == 1000
        assert stats.max_steps == 113
        assert stats.max_steps_at == 871
        assert stats.max_steps_up_to(27) == 70
        assert stats.max_steps_up_to(1) == 0

    def test_prefix_query_bounds(self):
        stats = reach_one_range(100)
        with pytest.raises(ValueError):
            stats.max_steps_up_to(0)
        with pytest.raises(ValueError):
            stats.max_steps_up_to(101)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            reach_one_range(0)

    # odd and even tops of the last block, one-element last blocks
    # ([2^8, 2^8 + 1), [2^18, 2^18 + 1)) and the bounds where the jump
    # width min(8, i) grows or stops growing
    @pytest.mark.parametrize(
        "bound",
        [1, 2, 3, 4, 5, 27, 2**8 - 1, 2**8, 2**8 + 1, 2**9 + 1, 1000, 2**16 + 3, 2**17 - 2, 2**17 - 1, 2**18],
    )
    def test_matches_the_loop(self, bound):
        steps, max_steps, max_at = loop_reach_one(bound)
        stats = reach_one_range(bound)
        assert np.array_equal(stats.step_counts, steps)
        assert (stats.max_steps, stats.max_steps_at) == (max_steps, max_at)

    @pytest.mark.parametrize("bound", [1000, 2**16 + 3])
    def test_python_int_path_matches_the_loop(self, bound, monkeypatch):
        # values above 10^4 now finish the descent in Python ints, and
        # they do: exactly the starts that pass 10^4 before a jump
        monkeypatch.setattr(wildsemi.wildprove, "REACH_INT64_LIMIT", 10**4)
        started = record_int_descents(monkeypatch)
        steps, max_steps, max_at = loop_reach_one(bound)
        stats = reach_one_range(bound)
        assert np.array_equal(stats.step_counts, steps)
        assert (stats.max_steps, stats.max_steps_at) == (max_steps, max_at)
        assert 703 in started
        assert sorted(started) == jump_values_above(bound, 10**4)

    def test_int64_limit_is_the_largest_safe_start_of_a_jump(self):
        # a jump of w <= 8 steps from v = 2^w*q + u ends at 3^k*q + T^w(u);
        # every v of the top q = limit >> 8 stays in int64, the next q not
        limit = wildsemi.wildprove.REACH_INT64_LIMIT
        tops = range(limit >> 8 << 8, limit + 1)
        assert max(t_iterate(v, w) for v in tops for w in range(1, 9)) <= 2**63 - 1
        assert t_iterate(limit + 2**8, 8) > 2**63 - 1

    def test_runaway_descent_raises(self, monkeypatch):
        # 27 needs 65 steps to fall below 16; the guard trips in both paths
        monkeypatch.setattr(wildsemi.wildprove, "REACH_STEP_GUARD", 40)
        with pytest.raises(BudgetExhaustedError, match="descent from 27 exceeded"):
            reach_one_range(27)
        monkeypatch.setattr(wildsemi.wildprove, "REACH_INT64_LIMIT", 10)
        started = record_int_descents(monkeypatch)
        with pytest.raises(BudgetExhaustedError, match="descent from 27 exceeded"):
            reach_one_range(27)
        assert started[-1] == 27

    def test_step_counts_fill_uint16(self, monkeypatch):
        # odd starts reach 65535 themselves; even ones as half + 1
        monkeypatch.setattr(wildsemi.wildprove, "_descend", flat_descent(REACH_STEPS_MAX))
        assert reach_one_range(5).max_steps == REACH_STEPS_MAX
        monkeypatch.setattr(wildsemi.wildprove, "_descend", flat_descent(REACH_STEPS_MAX - 1))
        stats = reach_one_range(7)
        assert (stats.max_steps, stats.max_steps_at) == (REACH_STEPS_MAX, 6)

    def test_step_counts_past_uint16_raise(self, monkeypatch):
        monkeypatch.setattr(wildsemi.wildprove, "_descend", flat_descent(REACH_STEPS_MAX + 1))
        with pytest.raises(BudgetExhaustedError, match="from 3 to 3 exceeds 65535"):
            reach_one_range(100)
        # 3 holds 65535, so 6 = 2 * 3 would need 65536: the even slice raises
        monkeypatch.setattr(wildsemi.wildprove, "_descend", flat_descent(REACH_STEPS_MAX))
        with pytest.raises(BudgetExhaustedError, match="from 4 to 6 exceeds 65535"):
            reach_one_range(100)

    def test_oversized_bound_is_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: pytest.fail("allocated"))
        with pytest.raises(ValueError, match="reach bound must be in 1..2147483647, got 2147483648"):
            reach_one_range(SIEVE_LIMIT_MAX + 1)

    def test_guards_survive_optimize(self):
        out = run_optimized(
            """
            import sys
            import numpy as np
            from wildsemi import wildprove
            def flat(steps):
                def descend(start, stop, floor, jump):
                    size = len(range(start, stop, 2))
                    return np.ones(size, dtype=np.int64), np.full(size, steps)
                return descend
            for steps in (70000, 65535):
                wildprove._descend = flat(steps)
                try:
                    wildprove.reach_one_range(100)
                except wildprove.BudgetExhaustedError as exc:
                    print(f"{sys.flags.optimize} {exc}")
            try:
                wildprove.unit_sieve(2**31)
            except ValueError as exc:
                print(f"{sys.flags.optimize} {exc}")
            """
        )
        assert out.splitlines() == [
            "1 a step count from 3 to 3 exceeds 65535",
            "1 a step count from 4 to 6 exceeds 65535",
            "1 sieve limit must be in 2..2147483647, got 2147483648",
        ]


class TestInduction:
    def test_starts_at_twelve(self):
        with pytest.raises(ValueError):
            induction_driver(11)

    def test_unreachable_bounds_are_refused_before_the_sweep(self, monkeypatch):
        def sweep(bound):
            raise AssertionError(f"swept to {bound}")

        monkeypatch.setattr(wildsemi.wildprove, "reach_one_range", sweep)
        with pytest.raises(ValueError, match="^induction runs to k_max = 35 at most, got k_max = 36$"):
            induction_driver(36, trajectory_bound=1000)
        # the reach bound is checked first
        with pytest.raises(ValueError, match=f"^reach bound must be in 1..{SIEVE_LIMIT_MAX}, got {2**31}$"):
            induction_driver(40, trajectory_bound=2**31)

    def test_base_case(self):
        report = induction_driver(12)
        assert (report.k_min, report.k_max) == (12, 12)
        assert [line.hypothesis for line in report.lines] == [1, 2, 3]
        assert all(line.status == "pass" for line in report.lines)
        base = report.lines[0]
        assert base.kind == "class_proof"
        assert ("comparison", "1216/1264<1235/1264") in base.details

    def test_step_cases(self):
        report = induction_driver(14)
        assert len(report.lines) == 9
        witness_lines = [
            line for line in report.lines if line.kind == "witness_check"
        ]
        assert [line.k for line in witness_lines] == [13, 14]
        for line in witness_lines:
            detail = dict(line.details)
            assert Fraction(detail["worst_ratio"]) <= ONESTEP_BOUND
        rendered = report.render()
        assert "k=13 hyp=1 kind=witness_check status=pass" in rendered
        for token in rendered.split():
            assert "=" in token  # line format stays machine-splittable

    def test_hypothesis_three_covers_every_admissible_m(self, monkeypatch):
        # each level searches exactly its primes without a certificate in
        # memory when it searches, past the seeds 2, 5, 7 and 11: 43 is
        # certified by hypothesis 1 at k = 13 before its level searches,
        # and 17 and 41 are seeded in the second run.  So every prime
        # from 13 on gets at most one row, and a row or a certificate; a
        # prime's certificate is built from find_smooth_pair, the witness
        # its row held, and each composite is a product of those primes
        seeds = {p: w_certificate_for_prime(p, WildContext()) for p in (17, 41)}
        search = wildsemi.wildprove.smooth_pair_rows
        searched = []

        def search_noting_certificates(qs, u):
            rows = search(qs, u)
            searched.append((set(ctx.certificates), rows.q.tolist()))
            return rows

        monkeypatch.setattr(wildsemi.wildprove, "smooth_pair_rows", search_noting_certificates)
        bounds = [1] + [(2**k - 1) // 189 for k in (12, 13, 14)]
        admissible = [m for m in range(2, bounds[-1] + 1) if m % 3 != 0]
        primes = [m for m in admissible if is_prime_int(m)]
        for seeded in ((), (17, 41)):
            searched.clear()
            ctx = WildContext()
            ctx.certificates.update((p, seeds[p]) for p in seeded)
            induction_driver(14, context=ctx)
            assert len(searched) == 3  # one search per level
            rowed = [q for _, qs in searched for q in qs]
            assert len(rowed) == len(set(rowed))
            for (certified, qs), lo, hi in zip(searched, bounds, bounds[1:]):
                level = [p for p in primes if lo < p <= hi and p >= 5]
                assert qs == [p for p in level if p not in certified], hi
            assert {p for p in primes if p >= 13} - set(rowed) == {43, *seeded}
            for p in primes:
                cert = w_certificate_for_prime(p, ctx)
                assert cert.target == p
                assert verify_certificate(cert).ok
            for m in sorted(set(admissible) - set(primes)):
                cert = w_certificate_for_integer(m, ctx)
                assert cert.target == m and verify_certificate(cert).ok

    def test_each_s_certificate_is_built_once(self, monkeypatch):
        found = record_rows(monkeypatch)
        build = wildsemi.wildprove.s_certificate_for_integer
        built = []
        monkeypatch.setattr(
            wildsemi.wildprove, "s_certificate_for_integer", lambda n, budget: built.append(n) or build(n, budget)
        )
        ctx = WildContext(trajectory_budget=DEFAULT_TRAJECTORY_BOUND)
        induction_driver(14, context=ctx)
        assert len(built) == len(set(built)) == len(ctx.s_certificates)
        witness_n = [n for rows in found for n in rows.n.tolist()]
        assert set(witness_n) <= set(built) and len(set(witness_n)) < len(witness_n)
        assert 27 in built  # a hypothesis-2 spot of every level

    def test_capped_sweep_is_reported_as_capped(self):
        report = induction_driver(12, trajectory_bound=100)
        sweep = [line for line in report.lines if line.hypothesis == 2][0]
        assert sweep.kind == "sweep_capped"
        assert dict(sweep.details)["range"] == "1..100"

    def test_constructor_failures_name_k_hypothesis_and_witness_under_optimize(self):
        # the driver re-checks nothing; a constructor's VerificationError
        # is what surfaces, as an InductionError.  The search leaves 19
        # unresolved, so the scalar search names it
        out = run_optimized(
            """
            import sys
            from planted_rows import UNRESOLVED, planting
            from wildsemi import wildprove
            from wildsemi.wildprove import InductionError, VerificationError, induction_driver

            wildprove.smooth_pair_rows = planting(wildprove.smooth_pair_rows, 19, **UNRESOLVED)

            def failing_at(real, bad):
                def constructor(n, *args):
                    if n == bad:
                        raise VerificationError(f"certificate for {n} failed: planted")
                    return real(n, *args)
                return constructor

            for name, bad in (("s_certificate_for_integer", 2048), ("find_smooth_pair", 19)):
                real = getattr(wildprove, name)
                setattr(wildprove, name, failing_at(real, bad))
                try:
                    induction_driver(12)
                except InductionError as exc:
                    print(sys.flags.optimize, exc.k, exc.hypothesis, exc.witness, exc)
                setattr(wildprove, name, real)
            """
        )
        spot, sweep = out.splitlines()
        assert spot == "1 12 2 2048 k=12 hypothesis=2 witness=2048: certificate for 2048 failed: planted"
        assert sweep == "1 12 3 19 k=12 hypothesis=3 witness=19: certificate for 19 failed: planted"

    def test_a_column_fault_and_a_trajectory_failure_name_the_lower_q_under_optimize(self):
        # at k = 12 the rows are 13, 17 and 19, with n = 101, 1 and 152.
        # One row fails a column check and another row's n gets no
        # trajectory certificate; whichever q is lower is named, in
        # either order.  Of two column faults, the lower q is named too
        out = run_optimized(
            """
            import sys
            from planted_rows import planting
            from wildsemi import wildprove
            from wildsemi.wildprove import InductionError, VerificationError, induction_driver

            search, build = wildprove.smooth_pair_rows, wildprove.s_certificate_for_integer

            def failing_at(bad):
                def constructor(n, *args):
                    if n == bad:
                        raise VerificationError(f"certificate for {n} failed: planted")
                    return build(n, *args)
                return constructor

            n_161, s2_875 = (19, {"n": 161}), (13, {"s1": 1, "s2": 875})
            for planted, bad in (([n_161], 101), ([s2_875], 152), ([n_161, s2_875], None)):
                wildprove.smooth_pair_rows = search
                for q, changes in planted:
                    wildprove.smooth_pair_rows = planting(wildprove.smooth_pair_rows, q, **changes)
                wildprove.s_certificate_for_integer = failing_at(bad)
                try:
                    induction_driver(12)
                except InductionError as exc:
                    print(sys.flags.optimize, exc.k, exc.hypothesis, exc.witness, exc)
            """
        )
        assert out.splitlines() == [
            "1 12 3 13 k=12 hypothesis=3 witness=13: certificate for 101 failed: planted",
            "1 12 3 13 k=12 hypothesis=3 witness=13: 875 is not a unit below 6q for q = 13",
            "1 12 3 13 k=12 hypothesis=3 witness=13: 875 is not a unit below 6q for q = 13",
        ]

    def test_hypothesis_three_factors_no_admissible_m(self, monkeypatch):
        # only hypothesis 1's first use of each one-step multiplier
        # factors: w_certificate_for_integer factors the multiplier, and
        # find_smooth_pair factors the candidates for its witness and
        # for those of the primes it rests on (43 = (1/n) g(l) * 11 * 13
        # rests on 13).  The driver, the column search, the column checks
        # and the naming of a failed row factor no m
        factorize = wildsemi.wildprove.factorize
        calls = []

        def counted(n):
            frame, callers = sys._getframe(1), []
            while frame is not None:
                callers.append(frame.f_code.co_name)
                frame = frame.f_back
            calls.append((callers, n))
            return factorize(n)

        monkeypatch.setattr(wildsemi.wildprove, "factorize", counted)
        induction_driver(18)
        hypothesis_three = {"_hypothesis_three", "smooth_pair_rows", "_failed_rows", "_first_unfit_row"}
        for callers, n in calls:
            assert callers[0] != "induction_driver" and not hypothesis_three & set(callers), (callers, n)
            assert "onestep_reduce" in callers, (callers, n)
        multipliers = [n for callers, n in calls if callers[:2] == ["w_certificate_for_integer", "onestep_reduce"]]
        assert multipliers == [43, 29]

    def test_wrong_witness_names_k_hypothesis_and_prime_under_optimize(self):
        # the row of 19 comes back with n = 152 + 9, so it fails the
        # column checks and the witness built from it names the fault
        out = run_optimized(
            """
            import sys
            from planted_rows import planting
            from wildsemi import wildprove
            from wildsemi.wildprove import InductionError, induction_driver

            wildprove.smooth_pair_rows = planting(wildprove.smooth_pair_rows, 19, n=161)
            try:
                induction_driver(12)
            except InductionError as exc:
                print(sys.flags.optimize, exc.k, exc.hypothesis, exc.witness, exc)
            """
        )
        assert out.splitlines() == ["1 12 3 19 k=12 hypothesis=3 witness=19: n = 161 is not 9k + a < 54q"]

    def test_no_level_witness_rows_outlive_the_level(self, monkeypatch):
        # the test holds only weak references to the rows the column
        # search returns, so once the driver returns, with its context
        # still alive, no level's rows may be reachable from anything
        search = wildsemi.wildprove.smooth_pair_rows
        refs = []

        def search_held_weakly(qs, u):
            rows = search(qs, u)
            refs.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(wildsemi.wildprove, "smooth_pair_rows", search_held_weakly)
        ctx = WildContext()
        induction_driver(14, context=ctx)
        assert len(refs) == 3 and len(ctx.certificates) > 4
        assert [ref() for ref in refs] == [None, None, None]

    def test_certificates_from_records_match_the_multiply_chain(self, monkeypatch):
        found = record_rows(monkeypatch)
        ctx = WildContext(trajectory_budget=DEFAULT_TRAJECTORY_BOUND)
        induction_driver(20, context=ctx)
        recorded = [q for rows in found for q in rows.q.tolist()]
        assert len(recorded) > 600
        for q in recorded:
            cert = w_certificate_for_prime(q, ctx)
            assert cert == chain_witness_certificate(q, ctx), q
            assert verify_certificate(cert).ok

    def test_broken_cover_aborts_hypothesis_one(self):
        from wildsemi.residue import CoverageTable, load_builtin_coverage

        holed = CoverageTable(
            records=load_builtin_coverage().records[1:], modulus_exponent=12
        )
        with pytest.raises(InductionError) as exc_info:
            induction_driver(12, context=WildContext(coverage=holed))
        assert exc_info.value.k == 12
        assert exc_info.value.hypothesis == 1
