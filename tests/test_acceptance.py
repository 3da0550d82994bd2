"""The eleven acceptance criteria, each with its runtime budget.

Every criterion prints one ACCEPTANCE NN PASS/FAIL line (bypassing
pytest capture so the line lands in piped output) and asserts both the
mathematical content and the wall-clock budget.  All arithmetic is
exact; there are no tolerances anywhere below.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from wildsemi import wildprove
from wildsemi.certify import (
    BASE_TARGETS,
    base_table,
    eval_certificate,
    verify_certificate,
)
from wildsemi.residue import (
    build_coverage,
    load_builtin_coverage,
    mul_step,
    obstruction_check,
    replay_steps,
    verify_coverage_table,
)
from wildsemi.wildprove import (
    ONESTEP_BOUND,
    NotInSemigroupError,
    WildContext,
    induction_driver,
    lift_minus_one,
    onestep_reduce,
    pi_inequality_range,
    reach_one_range,
    s_certificate_for_rational,
    smooth_majority_range,
    w_certificate_for_prime,
)

from reference_primes import primes_up_to

SEED = 20260814


@contextmanager
def criterion(num, budget_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num:02d} FAIL ({elapsed:.2f}s): {description}", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.2f}s): {description}", file=sys.__stdout__)


def test_acceptance_01_base_certificates():
    with criterion(1, 1.0, "all seven built-in wild certificates evaluate exactly"):
        table = base_table()
        assert tuple(int(c.target) for c in table) == BASE_TARGETS == (5, 7, 11, 13, 23, 29, 43)
        for cert in table:
            assert eval_certificate(cert) == cert.target
            assert verify_certificate(cert).ok


def test_acceptance_02_shipped_cover_fixture():
    with criterion(2, 1.0, "shipped decreasing cover verifies; worst ratio exactly 76/79"):
        table = load_builtin_coverage()
        # a complete prefix cover of mod 4096 minus the all-ones leaf
        # takes 28 leaves with these classes
        assert len(table.records) == 28
        verdict = verify_coverage_table(table)
        assert verdict.ok, verdict.issues
        by_class = {(r.cls.residue, r.cls.j): r for r in table.records}
        assert by_class[(27, 7)].map.c == Fraction(117, 128)
        assert by_class[(27, 7)].worst_ratio == Fraction(25, 27)
        assert by_class[(91, 8)].map.c == Fraction(225, 256)
        assert by_class[(91, 8)].worst_ratio == Fraction(80, 91)
        assert by_class[(79, 8)].worst_ratio == Fraction(76, 79)
        for record in table.records:
            n0 = record.cls.smallest_element
            assert replay_steps(n0, record.steps)[-1] == record.map.apply(n0)
        assert table.worst == Fraction(76, 79)


def test_acceptance_03_coverage_regeneration():
    with criterion(3, 60.0, "searched cover mod 4096 is complete away from the all-ones class"):
        table = build_coverage(12)
        assert table.modulus_exponent == 12
        for record in table.records:
            assert record.worst_ratio < 1
        verdict = verify_coverage_table(table)
        assert verdict.ok, verdict.issues


def test_acceptance_04_obstruction():
    with criterion(4, 10.0, "1000 step sequences on all-ones classes never decrease"):
        rng = random.Random(SEED)
        for _ in range(1000):
            j = rng.randint(2, 20)
            steps = ["T"] * j
            for _ in range(rng.randint(0, 3)):
                pos = rng.randint(0, len(steps))
                steps.insert(pos, mul_step(rng.choice(BASE_TARGETS)))
            report = obstruction_check(steps, j)
            assert report.value_at_minus_one <= -1
            assert report.negativity_holds
            # no decrease anywhere on the class: c > 1 and growth at the
            # smallest element imply growth at every larger element
            assert report.no_decrease
            assert report.map.apply(report.n0) > report.n0
            assert report.margin > 0


def test_acceptance_05_lift_identities():
    with criterion(5, 5.0, "1000 lifts obey the exact identity and both congruences"):
        rng = random.Random(SEED)
        for _ in range(1000):
            k = rng.randint(1, 63)
            c = rng.randint(1, 1 << (64 - k))
            x = c * (1 << k) - 1
            j = rng.choice([jj for jj in range(1, k + 1) if jj % 6 in (1, 5)])
            m, y = lift_minus_one(x, k, j)
            assert 3 * m == (1 << j) + 1
            assert y == x + (x + 1) // (1 << j)
            assert (y + 1) % (1 << (k - j)) == 0
            if (x + 1) % (1 << (k + 1)) != 0 and k + 1 - j >= 1:
                assert (y + 1) % (1 << (k + 1 - j)) != 0


def test_acceptance_06_onestep_reduction():
    with criterion(6, 30.0, "100 one-step reductions stay within ratio 1235/1264"):
        rng = random.Random(SEED)
        context = WildContext()
        for _ in range(100):
            k = rng.randint(12, 30)
            x = (2 * rng.randint(0, 1 << 20) + 1) * (1 << k) - 1
            trace = onestep_reduce(x, k, context)
            assert isinstance(trace.result, int)
            assert trace.result * 1264 <= 1235 * x
            assert trace.ratio <= ONESTEP_BOUND
            assert replay_steps(x, trace.steps) == trace.values
            assert trace.values[-1] == trace.result
            assert verify_certificate(trace.wild_certificate).ok
            assert trace.wild_certificate.target == Fraction(trace.result, x)


def test_acceptance_07_wild_primes_to_400(monkeypatch):
    with criterion(7, 60.0, "every prime below 400 except 3 certifies from the 2,5,7,11 seeds"):
        find = wildprove.find_smooth_pair
        witnesses = {}
        monkeypatch.setattr(wildprove, "find_smooth_pair", lambda q: witnesses.setdefault(q, find(q)))
        context = WildContext()
        assert set(context.certificates) == {2, 5, 7, 11}
        for q in primes_up_to(399):
            if q == 3:
                continue
            cert = w_certificate_for_prime(q, context)
            assert cert.target == q
            assert verify_certificate(cert).ok
        # the seeds were consumed as given, never re-derived
        assert not set(witnesses) & {2, 5, 7, 11}
        w13 = witnesses[13]
        assert (w13.a, w13.r) == (2, 17)
        assert w13.s1 * w13.s2 == 875
        assert 875 == 78 * w13.k + 17


def test_acceptance_08_desk_scale_inequalities():
    with criterion(8, 120.0, "smooth-majority and prime-count inequalities hold for 256 < q <= 100000"):
        majority = smooth_majority_range(257, 10**5)
        assert majority.passed and majority.failures == ()
        assert majority.checked == 9538  # primes in (256, 100000]
        counts = pi_inequality_range(257, 10**5)
        assert counts.passed and counts.failures == ()
        assert counts.checked == 99744  # every integer in [257, 100000]


def test_acceptance_09_end_to_end_membership():
    with criterion(9, 300.0, "200 random rationals certify or are refused; all n <= 2^20 reach 1"):
        rng = random.Random(SEED)
        context = WildContext()
        built = refused = 0
        for _ in range(200):
            a = rng.randint(1, 10**6)
            b = rng.randint(1, 10**6)
            x = Fraction(a, b)
            if x.denominator % 3 == 0:
                try:
                    s_certificate_for_rational(x, context)
                except NotInSemigroupError:
                    refused += 1
                else:
                    raise AssertionError(f"{x} must be refused, denominator divides by 3")
            else:
                cert = s_certificate_for_rational(x, context)
                assert cert.target == x
                assert verify_certificate(cert).ok
                built += 1
        assert built + refused == 200
        assert (built, refused) == (144, 56)

        stats = reach_one_range(1 << 20)
        assert stats.bound == 1 << 20
        assert (stats.max_steps, stats.max_steps_at) == (329, 837799)


def test_acceptance_10_induction_driver():
    with criterion(10, 600.0, "induction hypotheses verified for 12 <= k <= 20 at trajectory bound 2^20"):
        report = induction_driver(20, trajectory_bound=1 << 20)
        assert (report.k_min, report.k_max) == (12, 20)
        assert len(report.lines) == 27  # three hypotheses per k
        assert all(line.status == "pass" for line in report.lines)
        rendered = report.render()
        assert "comparison=1216/1264<1235/1264" in rendered
        assert "k=20 hyp=3 kind=sweep status=pass m_bound=5548" in rendered


def test_acceptance_11_mersenne_61():
    q = 2**61 - 1
    with criterion(11, 2.0, "W-certificate for the prime 2^61 - 1 built and verified"):
        cert = w_certificate_for_prime(q)
        assert cert.target == q
        assert verify_certificate(cert).ok
        assert eval_certificate(cert) == q
