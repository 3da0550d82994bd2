"""Symbolic dynamics on residue classes mod 2^j.

A residue class s mod 2^j, read through its LSB-first bit string,
pins down the parity of every value seen while applying j steps of T,
so a step sequence (T steps plus multiplications by odd integers)
induces an exact affine map n -> c*n + d on the class.  A class is
"decreasing" when the worst-case ratio (c*n0 + d)/n0 at the smallest
class element n0 > 1 drops below 1.  Collecting decreasing records
whose bit strings form a prefix code covering everything except the
all-ones class mod 2^J is the mechanical core of the descent proof;
the all-ones class is excluded because on it every T step is an odd
step, so c only grows (the obstruction checker makes this exact).

Steps are plain tokens: "T" for one application of T, "x<m>" for
multiplication by the odd integer m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .certify import BASE_TARGETS

MOD_EXP_CAP = 64
# class indices stay machine-word sized; values inside maps do not

# The multipliers a coverage table may use must factor over the targets
# of the built-in wild certificates.
DEFAULT_MULTIPLIER_BASE = BASE_TARGETS


class ClassMapError(ValueError):
    """Step list inconsistent with the class (wrong T count, bad token)."""


class CoverageError(ValueError):
    def __init__(self, message: str, uncovered: tuple[str, ...] = ()):
        self.uncovered = uncovered
        super().__init__(message)


class CoverageParseError(ValueError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


@dataclass(frozen=True)
class ResidueClass:
    residue: int
    j: int

    def __post_init__(self) -> None:
        if not (1 <= self.j <= MOD_EXP_CAP):
            raise ValueError(f"modulus exponent must be in 1..{MOD_EXP_CAP}, got {self.j}")
        if not (0 <= self.residue < (1 << self.j)):
            raise ValueError(f"residue {self.residue} out of range for modulus 2^{self.j}")

    @property
    def modulus(self) -> int:
        return 1 << self.j

    @property
    def smallest_element(self) -> int:
        # smallest class element > 1 (the class of 1, and of 0, start higher up)
        return self.residue if self.residue > 1 else self.residue + (1 << self.j)

    @property
    def is_all_ones(self) -> bool:
        return self.residue == (1 << self.j) - 1

    @classmethod
    def from_bits(cls, bits: str) -> "ResidueClass":
        if not bits or any(b not in "01" for b in bits):
            raise ValueError(f"bits must be a nonempty 0/1 string, got {bits!r}")
        residue = sum(1 << i for i, b in enumerate(bits) if b == "1")
        return cls(residue, len(bits))

    def extended(self, bit: int) -> "ResidueClass":
        return ResidueClass(self.residue + (bit << self.j), self.j + 1)

    def __str__(self) -> str:
        return f"{self.residue} mod 2^{self.j}"


def class_bits(cls: ResidueClass) -> str:
    """LSB-first binary expansion of the residue, padded to length j."""
    return "".join("1" if (cls.residue >> i) & 1 else "0" for i in range(cls.j))


# --------------------------------------------------------------------------
# Steps.
# --------------------------------------------------------------------------

T_STEP = "T"


def _is_multiplier(m: int) -> bool:
    return m > 1 and m % 2 == 1 and m % 3 != 0


def mul_step(m: int) -> str:
    if not _is_multiplier(m):
        raise ValueError(f"multiplier must be odd, > 1 and not divisible by 3, got {m}")
    return f"x{m}"


def step_multiplier(step: str) -> Optional[int]:
    """The multiplier of an x-token, None for a T token; raises on junk."""
    if step == T_STEP:
        return None
    if step.startswith("x"):
        try:
            m = int(step[1:], 10)
        except ValueError:
            raise ClassMapError(f"bad step token {step!r}") from None
        if not _is_multiplier(m):
            raise ClassMapError(f"multiplier must be odd, > 1 and coprime to 3, got {m}")
        return m
    raise ClassMapError(f"bad step token {step!r}")


def replay_steps(n: int, steps: Sequence[str]) -> tuple[int, ...]:
    """Apply the steps concretely to n, returning every intermediate value.

    This is the brute-force oracle the symbolic map is checked against.
    """
    values = [n]
    for step in steps:
        m = step_multiplier(step)
        v = values[-1]
        if m is None:
            v = (3 * v + 1) >> 1 if v & 1 else v >> 1
        else:
            v = v * m
        values.append(v)
    return tuple(values)


@dataclass(frozen=True)
class AffineMap:
    """The exact map n -> c*n + d induced on a class; d >= 0 always."""

    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        if self.c <= 0 or self.d < 0:
            raise ValueError(f"affine map needs c > 0 and d >= 0, got c={self.c}, d={self.d}")

    def apply(self, n: int) -> Fraction:
        return self.c * n + self.d


# The walk state (a, b, t, u, r): the value is (a*n + b)/2^t on the
# class, and u is its residue mod 2^r.
_State = tuple[int, int, int, int, int]


def _t_step(state: _State) -> _State:
    """One T step on a walk state; the caller keeps r >= 1."""
    a, b, t, u, r = state
    if u & 1:
        a *= 3
        b = 3 * b + (1 << t)
        u = (3 * u + 1) >> 1
    else:
        u >>= 1
    r -= 1
    return a, b, t + 1, u & ((1 << r) - 1), r


def _jump_rows() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row w holds (3^k, c) for each v mod 2^w, with T^w(x) = (3^k*x + c)/2^w
    on x = v mod 2^w, for 0 <= w <= 8.

    Row w + 1 extends row w by one _t_step: v mod 2^(w+1) fixes the
    parity of T^w(v) = (3^k*v + c)/2^w.
    """
    rows = [((1, 0),)]
    for w in range(8):
        row = []
        for v in range(2 << w):
            p, c = rows[w][v & ((1 << w) - 1)]
            row.append(_t_step((p, c, w, (p * v + c) >> w, 1))[:2])
        rows.append(tuple(row))
    return tuple(rows)


_JUMP = _jump_rows()


def _t_steps(state: _State, count: int) -> _State:
    """`count` T steps on a walk state; the caller keeps count <= r.

    Takes up to eight steps per lookup in _JUMP.  The residue u stays
    exact mod 2^(remaining r) between lookups, since each jump divides
    by 2^w with w <= r, and is masked once at the end.
    """
    a, b, t, u, r = state
    r -= count
    while count:
        w = count if count < 8 else 8
        p, c = _JUMP[w][u & ((1 << w) - 1)]
        a *= p
        b = p * b + (c << t)
        u = (p * u + c) >> w
        t += w
        count -= w
    return a, b, t, u & ((1 << r) - 1), r


def _times(state: _State, m: int) -> _State:
    """Multiplication by m on a walk state."""
    a, b, t, u, r = state
    return a * m, b * m, t, (u * m) & ((1 << r) - 1), r


def symbolic_apply(cls: ResidueClass, steps: Sequence[str]) -> AffineMap:
    """Run the steps symbolically on the class, producing (c, d)."""
    return _walk(cls, steps)[0]


def _walk(cls: ResidueClass, steps: Sequence[str]) -> tuple[AffineMap, int]:
    """symbolic_apply's map together with the number of odd T steps.

    Tracks the value as (A*n + B)/2^t with integer A, B and the residue
    of the current value mod 2^r, r = j - (T steps so far).  Each T step
    consumes one bit of class knowledge, so exactly j T steps are
    required; parity at every T step is determined and every division
    by 2 is exact on the class.  Steps are taken one at a time through
    _t_step, so this walk checks the search's table jumps independently.
    """
    state = (1, 0, 0, cls.residue, cls.j)
    odd = 0
    for step in steps:
        m = step_multiplier(step)
        if m is not None:
            state = _times(state, m)
            continue
        if state[4] == 0:
            raise ClassMapError(
                f"step list has more than {cls.j} T steps; parity is undetermined past the class depth"
            )
        odd += state[3] & 1
        state = _t_step(state)
    a, b, t = state[:3]
    if t != cls.j:
        raise ClassMapError(f"step list has {t} T steps, class needs exactly {cls.j}")
    return AffineMap(Fraction(a, 1 << t), Fraction(b, 1 << t)), odd


def worst_ratio(cls: ResidueClass, amap: AffineMap) -> Fraction:
    """(c*n0 + d)/n0 at the smallest class element n0 > 1."""
    n0 = cls.smallest_element
    return (amap.c * n0 + amap.d) / n0


@dataclass(frozen=True)
class PathRecord:
    """A step sequence on a class with its exact map and worst ratio.

    Cross-field coherence (the map and ratio really belonging to the
    steps) is deliberately not a construction-time check: records
    loaded from a file keep whatever the file claims, and verify_record
    is the arbiter.  Use make_path_record to build honest records in
    code.  The asymptotic ratio is map.c.
    """

    cls: ResidueClass
    steps: tuple[str, ...]
    map: AffineMap
    worst_ratio: Fraction

    @property
    def bits(self) -> str:
        return class_bits(self.cls)

    @property
    def witness(self) -> tuple[int, ...]:
        """The steps replayed from the smallest class element."""
        return replay_steps(self.cls.smallest_element, self.steps)

    @property
    def multipliers(self) -> tuple[int, ...]:
        return tuple(m for m in (step_multiplier(s) for s in self.steps) if m is not None)


def make_path_record(cls: ResidueClass, steps: Sequence[str]) -> PathRecord:
    amap = symbolic_apply(cls, steps)
    return PathRecord(cls=cls, steps=tuple(steps), map=amap, worst_ratio=worst_ratio(cls, amap))


def verify_record(record: PathRecord) -> tuple[str, ...]:
    """All the ways a record can be wrong, as human-readable strings."""
    issues: list[str] = []
    try:
        amap, l = _walk(record.cls, record.steps)
    except ClassMapError as exc:
        return (f"steps do not fit the class: {exc}",)
    if amap != record.map:
        issues.append(f"stored map ({record.map.c}, {record.map.d}) != recomputed ({amap.c}, {amap.d})")
    true_worst = worst_ratio(record.cls, amap)
    if record.worst_ratio != true_worst:
        issues.append(f"stored worst ratio {record.worst_ratio} != recomputed {true_worst}")
    if true_worst >= 1:
        issues.append(f"class does not decrease: worst ratio {true_worst} >= 1")
    # c must factor as 3^l * (product of multipliers) / 2^j, l odd steps
    mprod = 1
    for m in record.multipliers:
        mprod *= m
    expected_c = Fraction(3**l * mprod, 1 << record.cls.j)
    if amap.c != expected_c:
        issues.append(f"c = {amap.c} does not factor as 3^{l} * {mprod} / 2^{record.cls.j}")
    n0 = record.cls.smallest_element
    final = record.witness[-1]
    if Fraction(final) != amap.apply(n0):
        issues.append(f"witness final value {final} != c*n0 + d = {amap.apply(n0)}")
    return tuple(issues)


# --------------------------------------------------------------------------
# Search for decreasing paths.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchLimits:
    max_depth: int = 12
    max_muls: int = 2
    mul_cap: int = 50  # admits 25 = 5*5 and 35 = 5*7 over the default base

    def __post_init__(self) -> None:
        # the search explores at most two multiplication sites
        rules = {
            "max_depth >= 1": self.max_depth >= 1,
            "max_muls in 0..2": 0 <= self.max_muls <= 2,
            "mul_cap >= 1": self.mul_cap >= 1,
        }
        broken = [rule for rule, holds in rules.items() if not holds]
        if broken:
            raise ValueError(f"nonsensical search limits {self}; need {' and '.join(broken)}")


def multiplier_products(base: Iterable[int], cap: int) -> tuple[int, ...]:
    """All products of base elements (repetition allowed) in (1, cap]."""
    base = sorted(set(base))
    for m in base:
        if not _is_multiplier(m):
            raise ValueError(f"multiplier base element must be odd, > 1, coprime to 3: {m}")
    found: set[int] = set()
    frontier = [1]
    while frontier:
        nxt = []
        for prod in frontier:
            for m in base:
                p = prod * m
                if p <= cap and p not in found:
                    found.add(p)
                    nxt.append(p)
        frontier = nxt
    return tuple(sorted(found))


def find_decreasing_steps(
    cls: ResidueClass, products: Sequence[int], limits: SearchLimits
) -> Optional[tuple[str, ...]]:
    """First step sequence (by the search order) with worst ratio < 1.

    Order: fewer multiplications first, then smaller multiplier
    products, then earlier insertion positions.  Exactly j T steps;
    multiplications may sit before any of them.  Candidates are tested
    on integer walk states grown from the plain walk's prefixes, up to
    eight T steps per _JUMP lookup; tokens are built only for the
    sequence returned, and symbolic_apply re-walks them one step at a
    time when the record is made.

    The cut: a walk's a never falls (a T step multiplies it by 1 or 3,
    a multiplication by m >= 5) and b stays >= 0, so no candidate whose
    state has a >= 2^j can decrease; a only grows along each loop's
    index, so each loop breaks at its first such candidate and the
    first decreasing sequence is unchanged.
    """
    for m in products:
        if not _is_multiplier(m):
            raise ClassMapError(f"multiplier must be odd, > 1 and coprime to 3, got {m}")
    j = cls.j
    n0 = cls.smallest_element
    bound = n0 << j
    cut = 1 << j

    def decreasing(state: _State) -> bool:
        # t = j at the end, so a*n0 + b < n0*2^j is worst ratio < 1
        return state[0] * n0 + state[1] < bound

    def steps_with(*inserts: tuple[int, int]) -> tuple[str, ...]:
        steps = [T_STEP] * j
        # insert deeper position first so indices stay valid
        for pos, m in reversed(inserts):
            steps.insert(pos, f"x{m}")
        return tuple(steps)

    prefix = [(1, 0, 0, cls.residue, j)]
    for _ in range(j):
        prefix.append(_t_step(prefix[-1]))
    if decreasing(prefix[j]):
        return steps_with()
    if limits.max_muls >= 1:
        for m in products:
            for pos in range(j):
                if prefix[pos][0] * m >= cut:
                    break
                if decreasing(_t_steps(_times(prefix[pos], m), j - pos)):
                    return steps_with((pos, m))
    if limits.max_muls >= 2:
        pairs = sorted(
            itertools.combinations_with_replacement(products, 2),
            key=lambda pq: (pq[0] * pq[1], pq),
        )
        for m1, m2 in pairs:
            for p1 in range(j - 1):
                if prefix[p1][0] * m1 * m2 >= cut:
                    break
                chain = _times(prefix[p1], m1)
                for p2 in range(p1 + 1, j):
                    chain = _t_step(chain)
                    if chain[0] * m2 >= cut:
                        break
                    if decreasing(_t_steps(_times(chain, m2), j - p2)):
                        return steps_with((p1, m1), (p2, m2))
            # both multipliers at distinct spots only; a shared spot is
            # the single product m1*m2, already tried if under the cap
    return None


@dataclass(frozen=True)
class SearchResult:
    records: tuple[PathRecord, ...]
    uncovered: tuple[str, ...]

    @property
    def fully_covered(self) -> bool:
        return not self.uncovered

    @property
    def obstructed_only(self) -> bool:
        """True when the only residue is the all-ones leaf, which no
        step sequence can decrease."""
        return all(set(b) == {"1"} for b in self.uncovered) and bool(self.uncovered)


def search_decreasing_path(
    prefix: str | ResidueClass,
    multiplier_base: Iterable[int] = DEFAULT_MULTIPLIER_BASE,
    limits: SearchLimits = SearchLimits(),
) -> SearchResult:
    """Cover the subtree under a class-bits prefix with decreasing records.

    Descends bit by bit (0-child first, so output is ordered by bits),
    recording the first decreasing step sequence found for a node and
    splitting nodes that resist.  All-ones nodes are never searched
    (provably futile, every T step is an odd step) and surface in
    `uncovered` when the depth limit is reached.  Exhaustion is a
    report, not an exception.
    """
    bits = class_bits(prefix) if isinstance(prefix, ResidueClass) else prefix
    if bits and any(b not in "01" for b in bits):
        raise ValueError(f"prefix must be a 0/1 string, got {bits!r}")
    if len(bits) > limits.max_depth:
        raise ValueError(f"prefix {bits!r} is deeper than max_depth {limits.max_depth}")
    products = multiplier_products(multiplier_base, limits.mul_cap) if multiplier_base else ()
    records: list[PathRecord] = []
    uncovered: list[str] = []

    def visit(node_bits: str) -> None:
        if node_bits:
            cls = ResidueClass.from_bits(node_bits)
            if not cls.is_all_ones:
                steps = find_decreasing_steps(cls, products, limits)
                if steps is not None:
                    records.append(make_path_record(cls, steps))
                    return
            if len(node_bits) >= limits.max_depth:
                uncovered.append(node_bits)
                return
        visit(node_bits + "0")
        visit(node_bits + "1")

    visit(bits)
    return SearchResult(records=tuple(records), uncovered=tuple(uncovered))


# --------------------------------------------------------------------------
# Coverage tables.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageTable:
    records: tuple[PathRecord, ...]
    modulus_exponent: int

    @property
    def worst(self) -> Fraction:
        return max(r.worst_ratio for r in self.records)

    @cached_property
    def _by_bits(self) -> dict[str, PathRecord]:
        return {r.bits: r for r in self.records}

    @cached_property
    def _max_len(self) -> int:
        return max(len(r.bits) for r in self.records)

    def record_for(self, n: int) -> PathRecord:
        """The record whose class contains n, by prefix walk on n's bits."""
        if n < 0:
            raise ValueError(f"record_for wants a nonnegative integer, got {n}")
        bits = ""
        for i in range(self._max_len):
            bits += "1" if (n >> i) & 1 else "0"
            rec = self._by_bits.get(bits)
            if rec is not None:
                return rec
        raise CoverageError(
            f"{n} is not covered (its class falls in the excluded all-ones residue)",
            uncovered=(bits,),
        )


def all_ones_bits(j: int) -> str:
    return "1" * j


@dataclass(frozen=True)
class CoverVerdict:
    ok: bool
    issues: tuple[str, ...]


def verify_prefix_cover(table: CoverageTable) -> CoverVerdict:
    """Prefix-freeness plus exact completeness of the leaf measure.

    The records' bit strings must be prefix-free, and the measure
    sum(2^(J - len)) must equal 2^J - 1: every class mod 2^J covered
    except the all-ones leaf.
    """
    issues: list[str] = []
    j_cap = table.modulus_exponent
    bits_list = [r.bits for r in table.records]
    seen: set[str] = set()
    for b in bits_list:
        if b in seen:
            issues.append(f"duplicated class bits {b}")
        seen.add(b)
    ordered = sorted(seen)
    for first, second in zip(ordered, ordered[1:]):
        if second.startswith(first):
            issues.append(f"overlapping prefixes {first} and {second}")
    measure = Fraction(0)
    for b in bits_list:
        measure += Fraction(1 << j_cap, 1 << len(b)) if len(b) <= j_cap else Fraction(
            1, 1 << (len(b) - j_cap)
        )
    expected = (1 << j_cap) - 1
    if measure != expected:
        missing = Fraction(expected) - measure
        issues.append(
            f"cover measure {measure} != {expected} ({missing} classes mod 2^{j_cap} unaccounted)"
        )
    for record in table.records:
        if class_bits(record.cls) != record.bits:
            issues.append(f"record bits {record.bits} inconsistent with class {record.cls}")
    return CoverVerdict(ok=not issues, issues=tuple(issues))


def verify_coverage_table(table: CoverageTable) -> CoverVerdict:
    """Full audit: prefix cover plus every record re-derived from scratch."""
    issues = list(verify_prefix_cover(table).issues)
    for record in table.records:
        for issue in verify_record(record):
            issues.append(f"class {record.bits}: {issue}")
    return CoverVerdict(ok=not issues, issues=tuple(issues))


def build_coverage(
    j_exp: int,
    multiplier_base: Iterable[int] = DEFAULT_MULTIPLIER_BASE,
    limits: Optional[SearchLimits] = None,
) -> CoverageTable:
    """Search a complete decreasing cover of all classes mod 2^j_exp.

    The all-ones class at full depth is the designed exclusion; any
    other uncoverable prefix raises CoverageError with the list.
    """
    if not 1 <= j_exp <= MOD_EXP_CAP:
        raise ValueError(f"modulus exponent must be in 1..{MOD_EXP_CAP}, got {j_exp}")
    if limits is None:
        limits = SearchLimits(max_depth=j_exp)
    elif limits.max_depth != j_exp:
        # a mismatched depth either strands non-all-ones prefixes or
        # over-covers past 2^j_exp; both break the cover invariant
        raise ValueError(f"limits.max_depth {limits.max_depth} != modulus exponent {j_exp}")
    result = search_decreasing_path("", multiplier_base, limits)
    residual = [b for b in result.uncovered if set(b) != {"1"}]
    if residual:
        raise CoverageError(
            f"{len(residual)} class prefixes resist within limits {limits}", tuple(residual)
        )
    return CoverageTable(records=result.records, modulus_exponent=j_exp)


# --------------------------------------------------------------------------
# The -1 obstruction.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ObstructionReport:
    """Why a step sequence cannot decrease the class -1 mod 2^j.

    value_at_minus_one = c*(-1) + d; when it is <= -1 (it always is,
    every T step on the all-ones class is an odd step and multipliers
    keep negatives negative), c >= 1 + d follows, so on a positive
    class element n the result c*n + d exceeds n by at least d*(n+1).
    """

    j: int
    map: AffineMap
    value_at_minus_one: Fraction
    negativity_holds: bool
    n0: int
    margin: Fraction
    no_decrease: bool


def obstruction_check(steps: Sequence[str], j: int) -> ObstructionReport:
    cls = ResidueClass((1 << j) - 1, j)
    amap = symbolic_apply(cls, steps)
    at_minus_one = -amap.c + amap.d
    negativity = at_minus_one <= -1
    n0 = cls.smallest_element
    margin = amap.d * (n0 + 1)
    # c >= 1 + d turns into (c-1)n + d >= d(n+1) for positive class n
    no_decrease = amap.c > 1 and amap.apply(n0) > n0
    return ObstructionReport(
        j=j,
        map=amap,
        value_at_minus_one=at_minus_one,
        negativity_holds=negativity,
        n0=n0,
        margin=margin,
        no_decrease=no_decrease,
    )


# --------------------------------------------------------------------------
# Table file format: one record per line,
#   <bits> <residue> <j> <c_num>/<c_den> <d_num>/<d_den> <worst_num>/<worst_den> <steps>
# with steps comma-separated, e.g. T,x13,T,T,T,T,T,T.  '#' comments.
# --------------------------------------------------------------------------


def _fraction_field(token: str, lineno: int, allow_zero: bool = False) -> Fraction:
    num, slash, den = token.partition("/")
    try:
        n = int(num, 10)
        d = int(den, 10) if slash else None
    except ValueError:
        n, d = -1, None
    if d is None or d < 1 or n < 0 or (n == 0 and not allow_zero):
        raise CoverageParseError(lineno, f"bad fraction field {token!r}")
    return Fraction(n, d)


def dump_coverage(table: CoverageTable) -> str:
    lines = [f"# decreasing cover mod 2^{table.modulus_exponent}"]
    for r in sorted(table.records, key=lambda rec: rec.bits):
        lines.append(
            " ".join(
                (
                    r.bits,
                    str(r.cls.residue),
                    str(r.cls.j),
                    f"{r.map.c.numerator}/{r.map.c.denominator}",
                    f"{r.map.d.numerator}/{r.map.d.denominator}",
                    f"{r.worst_ratio.numerator}/{r.worst_ratio.denominator}",
                    ",".join(r.steps),
                )
            )
        )
    return "\n".join(lines) + "\n"


def load_coverage(text: str, modulus_exponent: int = 12) -> CoverageTable:
    """Parse a table file; syntactic errors raise, mathematical lies do not.

    The loader only checks shape (field counts, integer ranges, token
    grammar); whether the stored ratios are true is verify_coverage_table's
    job, so a tampered file loads fine and then fails verification.
    """
    records: list[PathRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 7:
            raise CoverageParseError(lineno, f"expected 7 fields, got {len(fields)}")
        bits, residue_s, j_s, c_s, d_s, worst_s, steps_s = fields
        if any(b not in "01" for b in bits):
            raise CoverageParseError(lineno, f"bad bits field {bits!r}")
        try:
            residue, j = int(residue_s, 10), int(j_s, 10)
        except ValueError:
            raise CoverageParseError(lineno, "residue and j must be integers") from None
        try:
            cls = ResidueClass(residue, j)
        except ValueError as exc:
            raise CoverageParseError(lineno, str(exc)) from None
        if len(bits) != j:
            raise CoverageParseError(lineno, f"bits length {len(bits)} != j = {j}")
        c = _fraction_field(c_s, lineno)
        d = _fraction_field(d_s, lineno, allow_zero=True)
        worst = _fraction_field(worst_s, lineno)
        steps = tuple(steps_s.split(","))
        for s in steps:
            try:
                step_multiplier(s)
            except ClassMapError as exc:
                raise CoverageParseError(lineno, str(exc)) from None
        records.append(PathRecord(cls=cls, steps=steps, map=AffineMap(c, d), worst_ratio=worst))
    if not records:
        raise CoverageParseError(1, "empty coverage table")
    return CoverageTable(records=tuple(records), modulus_exponent=modulus_exponent)


def builtin_coverage_text() -> str:
    """The text of the hand-made decreasing cover mod 4096 that ships with the package."""
    from importlib import resources

    return resources.files("wildsemi").joinpath("data/cover_mod4096.cover").read_text()


def load_builtin_coverage() -> CoverageTable:
    """The shipped cover mod 4096, loaded."""
    return load_coverage(builtin_coverage_text(), modulus_exponent=12)
