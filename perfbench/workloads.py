"""The benchmark's four workloads and the checks on every job's output.

Each workload is a fixed job set drawn from the seed.  A job is one
in-process CLI invocation (`wildsemi.cli.main(argv)`) or, for the
smooth-majority count the CLI does not expose, one library call.  The
program sees only the generated argv.  Every output is checked after
the job's clock has stopped; a check never runs inside a timed region.

Why these four:

* induct  - the paper's mutual induction; mostly certificate algebra
            (hypothesis 3) plus the reach-one sweep (hypothesis 2).
* primes  - wild certificates for a fixed set of large primes, in a
            seed-drawn order, through smooth pairs; mostly trial
            division, little certificate work.  Exercises number theory
            and bypasses the certificate core.
* store   - one prove per integer of a fixed window, in a seed-drawn
            order, against a certificate store, first empty, then
            filled; the only file I/O.
* cover   - decreasing-cover search; pure residue arithmetic, no
            certificates and no number theory.  Bypass for every
            certify and wildprove change.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

# sha256 of the byte-exact stdout (and emitted table) of the fixed jobs,
# recorded from the package as it stood when this benchmark was added;
# a change that alters these outputs must say so and record new digests.
# Paths inside stdout are relative to the checkout root, so they match
# in any checkout.
DIGESTS = {
    "induct 22": "3f6c4b7c7a9fda6d915dd263077e0befa007ceeeb9794ed4cff1eba4656610f0",
    "induct 13": "dc415c9bfbaa8af41c2fe0eaef38674c58ae5b45c540ad22353a11697c4b04e9",
    "coverage 44 stdout": "95812195649db1795c9f0fbb9e359c2416b67c4e82c7273dcedfce36fefee966",
    "coverage 44 table": "1f3de0b219ae62632a35e2ff09145dfdfd9cce41fd1113bbfa163eb02ceb8984",
    "coverage 12 stdout": "f6365ddc88df1b287bd5ed5f895d258fcf69c4797ba98dfc167fa2adee56d3e0",
    "coverage 12 table": "9b7dee02dd00b3ff8ce96e267ac5480c153e1f0342ef519a401164dd481016c3",
}


WARM_REPEATS = 4
PRIME_SET_SEED = 0


@dataclass(frozen=True)
class Sizes:
    induct_k: int
    prime_bits: int
    prime_count: int
    pi_check_max: int
    majority_max: int
    store_window: int
    store_start: int
    cover_bits: int


FULL = Sizes(
    induct_k=22,
    # one size: with 40- to 46-bit primes mixed, the median invocation
    # depended on the mix as much as on the program
    prime_bits=42,
    prime_count=28,
    pi_check_max=1_000_000,
    majority_max=1_000_000,
    store_window=200,
    store_start=1000,
    cover_bits=44,
)

SMOKE = Sizes(
    induct_k=13,
    prime_bits=32,
    prime_count=2,
    pi_check_max=10_000,
    majority_max=10_000,
    store_window=20,
    store_start=100,
    cover_bits=12,
)


@dataclass
class Job:
    """One invocation, its output check, and the pass phase it belongs to."""

    label: str
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    check: Callable[[object, str], Optional[str]] = lambda result, out: None
    phase: str = "cold"
    cert_path: Optional[Path] = None  # the certificate file the job writes


@dataclass
class Workload:
    """A job set whose files all live in one work directory.

    The directory is emptied before every pass, outside the clock, so a
    pass starts from an empty store and every check reads only what that
    pass wrote.
    """

    name: str
    jobs: list[Job]
    work: Path
    inputs: dict = field(default_factory=dict)

    def reset(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)


# --------------------------------------------------------------------------
# Checks.  They share no code with the package: certificates are
# re-evaluated from their text here, primes are tested here.
# --------------------------------------------------------------------------


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_problem(path: Path, side: str, target: Fraction) -> Optional[str]:
    """Re-parse a certificate file and multiply it out; None when it holds."""
    try:
        text = path.read_text()
    except OSError as exc:
        return f"{path}: unreadable: {exc}"
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or rows[0] != ["CERT", "v1", side]:
        return f"{path}: header is not 'CERT v1 {side}'"
    if len(rows) < 2 or rows[1] != ["target", f"{target.numerator}/{target.denominator}"]:
        return f"{path}: target line is not {target}"
    num = den = 1
    last_k = -1
    for row in rows[2:]:
        try:
            if row[0] == "half" and len(row) == 2:
                k, exp = None, int(row[1])
            elif row[0] == "g" and len(row) == 3:
                k, exp = int(row[1]), int(row[2])
            else:
                return f"{path}: bad line {' '.join(row)!r}"
        except ValueError:
            return f"{path}: bad number in {' '.join(row)!r}"
        if exp < 1 or (k is not None and k <= last_k):
            return f"{path}: bad exponent or order in {' '.join(row)!r}"
        # W side: half = 1/2, g(k) = (3k+2)/(2k+1); S side is the reciprocal
        up, down = (1, 2) if k is None else (3 * k + 2, 2 * k + 1)
        if k is not None:
            last_k = k
        if side == "S":
            up, down = down, up
        num *= up**exp
        den *= down**exp
    if Fraction(num, den) != target:
        return f"{path}: product {Fraction(num, den)} != target {target}"
    return None


def status_problem(rc: object, out: str) -> Optional[str]:
    if rc != 0:
        return f"exit code {rc}"
    if not out.endswith("status=pass\n"):
        return "last line is not status=pass"
    return None


def prove_check(q: int, cert_path: Path):
    def check(rc, out):
        problem = status_problem(rc, out)
        if problem is None and f"target={q}/1\n" not in out:
            problem = f"stdout does not state target={q}/1"
        if problem is None and f"wrote={cert_path}\n" not in out:
            problem = f"stdout does not state wrote={cert_path}"
        return problem or certificate_problem(cert_path, "W", Fraction(q))

    return check


def digest_check(key: str, table: Optional[Path] = None):
    def check(rc, out):
        problem = status_problem(rc, out)
        if problem is None and sha256_text(out) != DIGESTS[key]:
            problem = f"stdout differs from the recorded {key!r}"
        if problem is None and table is not None:
            table_key = key.replace("stdout", "table")
            if sha256_text(table.read_text()) != DIGESTS[table_key]:
                problem = f"emitted table differs from the recorded {table_key!r}"
        return problem

    return check


def pi_check_check(q_min: int, q_max: int):
    def check(rc, out):
        problem = status_problem(rc, out)
        if problem is None and f"checked={q_max - q_min + 1}\nfailures=0\n" not in out:
            problem = "pi-check did not check every q without failure"
        return problem

    return check


def majority_check(q_min: int, q_max: int):
    expected = count_primes(max(q_min, 5), q_max)

    def check(summary, out):
        if summary.failures or summary.checked != expected:
            return f"smooth majority: {len(summary.failures)} failures, {summary.checked} != {expected} primes"
        return None

    return check


def count_primes(lo: int, hi: int) -> int:
    """Number of primes in [lo, hi], by a bytearray sieve."""
    flags = bytearray([1]) * (hi + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(hi**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, hi + 1, p)))
    return sum(flags[lo:])


# --------------------------------------------------------------------------
# Inputs.
# --------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def draw_prime(rng: random.Random, bits: int) -> int:
    """A prime of exactly `bits` bits near 5/8 of the top of its range.

    The magnitude is pinned so that trial-division cost does not vary
    with the seed; the seed picks the low 30 bits.
    """
    q = (5 << (bits - 3)) + rng.randrange(1 << min(30, bits - 3)) | 1
    while not is_prime(q):
        q += 2
    return q


def induct(seed: int, sizes: Sizes, work: Path) -> Workload:
    k = str(sizes.induct_k)
    job = Job(label=f"induct {k}", argv=["induct", k], check=digest_check(f"induct {k}"))
    return Workload("induct", [job], work, inputs={"k_max": sizes.induct_k})


def primes(seed: int, sizes: Sizes, work: Path) -> Workload:
    from wildsemi import wildprove  # the package is importable once run.py has found it

    # the primes are fixed and the seed draws their order: one prove costs
    # from 0.8 to 2.5 times the median of the set, with a long upper tail,
    # and sets of 28 primes drawn from the seed differed by 0.2 of their
    # median in total; the proves share no state, so any order does the
    # same work
    rng = random.Random(PRIME_SET_SEED)
    qs = [draw_prime(rng, sizes.prime_bits) for _ in range(sizes.prime_count)]
    random.Random(seed).shuffle(qs)
    jobs = []
    for q in qs:
        out = work / f"w-{q}.cert"
        jobs.append(
            Job(
                label=f"prove w {q}",
                argv=["prove", "w", str(q), "--out", str(out)],
                check=prove_check(q, out),
                cert_path=out,
            )
        )
    q_min = 257
    jobs.append(
        Job(
            label="pi-check",
            argv=["pi-check", str(q_min), str(sizes.pi_check_max)],
            check=pi_check_check(q_min, sizes.pi_check_max),
        )
    )
    jobs.append(
        Job(
            label="smooth majority",
            call=lambda: wildprove.smooth_majority_range(q_min, sizes.majority_max),
            check=majority_check(q_min, sizes.majority_max),
        )
    )
    return Workload("primes", jobs, work, inputs={"primes": qs})


def store(seed: int, sizes: Sizes, work: Path) -> Workload:
    # the seed draws the order, not the window: a put rewrites an index
    # of every stored file, so work grows with the square of the puts, and
    # seed-drawn windows put 237 to 245 certificates and differed by 8%
    # in certificate checks; one window in any order always puts the same
    # certificates, and its checks differ by about 1%
    lo = sizes.store_start
    window = [m for m in range(lo, lo + sizes.store_window) if m % 3]
    random.Random(seed).shuffle(window)
    db = work / "db"
    jobs = []
    # the warm pass repeats: warm jobs then outnumber cold ones, so the
    # median invocation is a small one, where per-call overhead shows,
    # and the short warm pass is sampled often enough for a steady median
    phases = ["cold"] + [f"warm{r}" for r in range(1, WARM_REPEATS + 1)]
    for phase in phases:
        for m in window:
            out = work / f"w-{m}-{phase}.cert"
            jobs.append(
                Job(
                    label=f"prove w {m} --store ({phase})",
                    argv=["prove", "w", str(m), "--store", str(db), "--out", str(out)],
                    check=prove_check(m, out),
                    phase=phase,
                    cert_path=out,
                )
            )
    return Workload("store", jobs, work, inputs={"window": [lo, lo + sizes.store_window], "order": window})


def cover(seed: int, sizes: Sizes, work: Path) -> Workload:
    bits = str(sizes.cover_bits)
    table = work / f"cover{bits}.table"
    job = Job(
        label=f"coverage --regen --bits {bits}",
        argv=["coverage", "--regen", "--bits", bits, "--out", str(table)],
        check=digest_check(f"coverage {bits} stdout", table),
    )
    return Workload("cover", [job], work, inputs={"bits": sizes.cover_bits})


BUILDERS = {"induct": induct, "primes": primes, "store": store, "cover": cover}
