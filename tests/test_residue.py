import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_search
from wildsemi import residue
from wildsemi.residue import (
    DEFAULT_MULTIPLIER_BASE,
    MOD_EXP_CAP,
    T_STEP,
    AffineMap,
    ClassMapError,
    CoverageError,
    CoverageParseError,
    CoverageTable,
    ResidueClass,
    SearchLimits,
    all_ones_bits,
    build_coverage,
    class_bits,
    dump_coverage,
    find_decreasing_steps,
    load_builtin_coverage,
    load_coverage,
    make_path_record,
    mul_step,
    multiplier_products,
    obstruction_check,
    replay_steps,
    search_decreasing_path,
    step_multiplier,
    symbolic_apply,
    verify_coverage_table,
    verify_prefix_cover,
    verify_record,
    worst_ratio,
)


class TestResidueClass:
    def test_bits_are_lsb_first(self):
        assert class_bits(ResidueClass(27, 7)) == "1101100"
        assert ResidueClass.from_bits("1101100") == ResidueClass(27, 7)

    @given(st.integers(1, 20), st.data())
    def test_bits_round_trip(self, j, data):
        residue = data.draw(st.integers(0, 2**j - 1))
        cls = ResidueClass(residue, j)
        assert ResidueClass.from_bits(class_bits(cls)) == cls

    def test_smallest_element_skips_zero_and_one(self):
        assert ResidueClass(0, 1).smallest_element == 2
        assert ResidueClass(1, 1).smallest_element == 3
        assert ResidueClass(5, 3).smallest_element == 5

    def test_extended(self):
        assert ResidueClass(3, 2).extended(1) == ResidueClass(7, 3)
        assert ResidueClass(3, 2).extended(0) == ResidueClass(3, 3)

    def test_all_ones(self):
        assert ResidueClass(7, 3).is_all_ones
        assert not ResidueClass(5, 3).is_all_ones
        assert all_ones_bits(4) == "1111"

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResidueClass(4, 2)
        with pytest.raises(ValueError):
            ResidueClass(0, 0)


class TestSteps:
    def test_step_tokens(self):
        assert mul_step(13) == "x13"
        assert step_multiplier("x13") == 13
        assert step_multiplier("T") is None

    @pytest.mark.parametrize("token", ["x", "x0", "x-3", "y5", "", "x2.5"])
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(ClassMapError):
            step_multiplier(token)

    def test_replay(self):
        assert replay_steps(27, ("T", "T")) == (27, 41, 62)
        assert replay_steps(5, ("x7", "T")) == (5, 35, 53)


class TestSymbolicApply:
    def test_one_mod_four(self):
        amap = symbolic_apply(ResidueClass(1, 2), ["T", "T"])
        assert (amap.c, amap.d) == (Fraction(3, 4), Fraction(1, 4))

    def test_with_multiplier(self):
        cls = ResidueClass(27, 7)
        steps = ("T", "x13", "T", "T", "T", "T", "T", "T")
        amap = symbolic_apply(cls, steps)
        assert (amap.c, amap.d) == (Fraction(117, 128), Fraction(41, 128))
        assert worst_ratio(cls, amap) == Fraction(25, 27)
        assert replay_steps(27, steps) == (27, 41, 533, 800, 400, 200, 100, 50, 25)

    def test_wrong_t_count_raises(self):
        with pytest.raises(ClassMapError):
            symbolic_apply(ResidueClass(1, 2), ["T"])
        with pytest.raises(ClassMapError):
            symbolic_apply(ResidueClass(1, 2), ["T", "T", "T"])

    @given(st.integers(1, 12), st.data())
    def test_map_matches_replay_on_members(self, j, data):
        # the affine form is exact on every member of the class
        residue = data.draw(st.integers(0, 2**j - 1))
        lift = data.draw(st.integers(0, 50))
        cls = ResidueClass(residue, j)
        muls = data.draw(st.lists(st.sampled_from([5, 7, 13]), max_size=2))
        steps = [mul_step(m) for m in muls] + ["T"] * j
        amap = symbolic_apply(cls, steps)
        n = residue + lift * 2**j
        if n == 0:
            n = 2**j
        assert amap.apply(n) == replay_steps(n, steps)[-1]

    @given(
        st.integers(1, 20),
        st.lists(st.sampled_from(multiplier_products(DEFAULT_MULTIPLIER_BASE, 50)), max_size=4),
        st.data(),
    )
    def test_walk_matches_replay_on_members(self, j, muls, data):
        # multiplications anywhere among the j T steps; the map and the
        # odd-step count agree with the concrete run of each sampled member
        res = data.draw(st.integers(0, 2**j - 1))
        steps = ["T"] * j
        for m in muls:
            steps.insert(data.draw(st.integers(0, len(steps))), mul_step(m))
        amap, odd = residue._walk(ResidueClass(res, j), steps)
        for lift in data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4)):
            n = res + lift * 2**j or 2**j  # 2^j stands in for the trivial member 0
            values = replay_steps(n, steps)
            assert amap.apply(n) == values[-1]
            assert odd == sum(1 for step, v in zip(steps, values) if step == "T" and v & 1)


class TestJumpTable:
    """The search's table jumps against the concrete T step and the bit loop."""

    def test_every_entry_matches_replay(self):
        # x = v mod 2^w fixes the parities of the first w steps, so T^w is
        # affine on the class; agreeing at two members proves the entry
        assert [len(row) for row in residue._JUMP] == [2**w for w in range(9)]
        for w in range(9):
            for v, (p, c) in enumerate(residue._JUMP[w]):
                for x in (v, v + 2**w):
                    assert p * x + c == replay_steps(x, [T_STEP] * w)[-1] << w, (w, v, x)

    @given(
        st.one_of(st.integers(), st.integers(-(2**400), 2**400)),
        st.one_of(st.integers(), st.integers(-(2**400), 2**400)),
        st.integers(0, 200),
        st.integers(0, MOD_EXP_CAP),
        st.data(),
    )
    def test_jumps_match_the_bit_loop(self, a, b, t, r, data):
        u = data.draw(st.integers(0, 2**r - 1)) if r else 0
        count = data.draw(st.integers(0, r))
        state = (a, b, t, u, r)
        assert residue._t_steps(state, count) == reference_search._t_steps(state, count)

    @pytest.mark.parametrize("r", [MOD_EXP_CAP, 7])
    def test_every_count_up_to_r(self, r):
        # every remainder mod 8 for the last, short jump
        rng = random.Random(r)
        for count in range(r + 1):
            a, b, t, u = rng.getrandbits(300) + 1, rng.getrandbits(300), rng.randrange(100), rng.getrandbits(r)
            state = (a, b, t, u, r)
            assert residue._t_steps(state, count) == reference_search._t_steps(state, count), count

    @given(st.integers(0, MOD_EXP_CAP), st.data())
    def test_a_never_falls_and_b_stays_nonnegative(self, r, data):
        # the search's cut: once a >= 2^j no candidate can decrease
        state = (1, 0, 0, data.draw(st.integers(0, 2**r - 1)) if r else 0, r)
        products = multiplier_products(DEFAULT_MULTIPLIER_BASE, 50)
        for _ in range(data.draw(st.integers(0, 12))):
            move = data.draw(st.sampled_from(["t_step", "t_steps", "times"]))
            if move == "times":
                nxt = residue._times(state, data.draw(st.sampled_from(products)))
            elif move == "t_steps":
                nxt = residue._t_steps(state, data.draw(st.integers(0, state[4])))
            elif state[4]:
                nxt = residue._t_step(state)
            else:
                continue
            assert nxt[0] >= state[0] and nxt[1] >= 0, (state, move, nxt)
            state = nxt


class TestAffineMap:
    def test_apply(self):
        amap = AffineMap(Fraction(3, 4), Fraction(1, 4))
        assert amap.apply(5) == 4

    def test_rejects_nonpositive_c_and_negative_d(self):
        with pytest.raises(ValueError):
            AffineMap(Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            AffineMap(Fraction(1), Fraction(-1, 4))


class TestPathRecords:
    def make(self):
        return make_path_record(ResidueClass(1, 2), ("T", "T"))

    def test_good_record_verifies(self):
        assert verify_record(self.make()) == ()

    def test_tampered_map(self):
        bad = dataclasses.replace(
            self.make(), map=AffineMap(Fraction(3, 4), Fraction(3, 4))
        )
        issues = verify_record(bad)
        assert any("stored map" in issue for issue in issues)

    def test_tampered_worst_ratio(self):
        bad = dataclasses.replace(self.make(), worst_ratio=Fraction(1, 2))
        assert any("stored worst ratio" in issue for issue in verify_record(bad))

    def test_non_decreasing_record_flagged(self):
        # 3 mod 4 under plain T steps grows: (9n+5)/4
        record = make_path_record(ResidueClass(3, 2), ("T", "T"))
        issues = verify_record(record)
        assert any("does not decrease" in issue for issue in issues)

    def test_steps_not_fitting_class(self):
        bad = dataclasses.replace(self.make(), steps=("T",))
        issues = verify_record(bad)
        assert issues and "steps do not fit" in issues[0]

    def test_walk_counts_the_odd_steps_of_the_replay(self):
        for record in load_builtin_coverage().records:
            values = record.witness
            odd = sum(1 for step, v in zip(record.steps, values) if step == "T" and v & 1)
            assert residue._walk(record.cls, record.steps) == (record.map, odd)

    def test_odd_step_count_is_checked_against_c(self, monkeypatch):
        walk = residue._walk
        monkeypatch.setattr(residue, "_walk", lambda cls, steps: (walk(cls, steps)[0], walk(cls, steps)[1] + 1))
        issues = verify_record(self.make())
        assert issues == ("c = 3/4 does not factor as 3^2 * 1 / 2^2",)


class TestSearch:
    def test_depth_two_without_multipliers(self):
        result = search_decreasing_path("", multiplier_base=(), limits=SearchLimits(max_depth=2))
        assert [(r.bits, r.worst_ratio) for r in result.records] == [
            ("0", Fraction(1, 2)),
            ("10", Fraction(4, 5)),
        ]
        assert result.uncovered == ("11",)
        assert not result.fully_covered
        assert result.obstructed_only

    def test_all_ones_prefix_splits_once(self):
        result = search_decreasing_path("1" * 11, limits=SearchLimits(max_depth=12))
        assert [r.bits for r in result.records] == ["1" * 11 + "0"]
        assert result.records[0].worst_ratio == Fraction(71, 89)
        assert result.uncovered == ("1" * 12,)
        assert result.obstructed_only

    def test_find_decreasing_prefers_fewer_multiplications(self):
        steps = find_decreasing_steps(ResidueClass(0, 1), (), SearchLimits(max_depth=1))
        assert steps == ("T",)

    def test_multiplier_products(self):
        assert multiplier_products((5, 7), 50) == (5, 7, 25, 35, 49)
        assert multiplier_products((5, 7), 7) == (5, 7)

    def test_deep_prefix_rejected(self):
        with pytest.raises(ValueError):
            search_decreasing_path("000", limits=SearchLimits(max_depth=2))


class TestSearchMatchesReference:
    """The integer-state search returns what the symbolic_apply search returns."""

    @pytest.mark.parametrize(
        "limits",
        [SearchLimits(), SearchLimits(max_muls=0), SearchLimits(max_muls=1), SearchLimits(mul_cap=25)],
        ids=["default", "max_muls=0", "max_muls=1", "mul_cap=25"],
    )
    def test_every_class_to_depth_twelve(self, limits):
        products = multiplier_products(DEFAULT_MULTIPLIER_BASE, limits.mul_cap)
        for j in range(1, 13):
            for r in range(2**j - 1):  # every class but the all-ones one
                cls = ResidueClass(r, j)
                expected = reference_search.find_decreasing_steps(cls, products, limits)
                assert find_decreasing_steps(cls, products, limits) == expected, cls

    def test_every_node_of_the_cover_mod_2_44(self, cover_44):
        _, searched, calls = cover_44
        assert len(searched) == 76
        # the search's work: dropping any of the a >= 2^j cuts, or going
        # on past a cut candidate instead of breaking, raises a count
        assert calls == {"_t_step": 48919, "_t_steps": 48868}
        for (cls, products, limits), steps in searched:
            assert reference_search.find_decreasing_steps(cls, products, limits) == steps, cls

    @pytest.mark.parametrize("j", [48, 56, 64])
    def test_seeded_classes_past_depth_44(self, j):
        # uniform classes, which the plain walk or an x5 up front mostly
        # decreases, and classes whose low bits are an all-ones run of
        # length ell, where the search finds a later insertion or exhausts
        rng = random.Random(j)
        residues = [rng.randrange(2**j - 1) for _ in range(3)]
        for ell in (j // 2, j - 16, j - 8, j - 4):
            residues.append((2**ell - 1) | rng.randrange(2 ** (j - ell) - 1) << ell)
        products = multiplier_products(DEFAULT_MULTIPLIER_BASE, 50)
        for limits in (SearchLimits(max_muls=0), SearchLimits(max_muls=1)):
            for cls in (ResidueClass(r, j) for r in residues):
                expected = reference_search.find_decreasing_steps(cls, products, limits)
                assert find_decreasing_steps(cls, products, limits) == expected, (cls, limits)

    @pytest.mark.parametrize("ell", [44, 47])
    def test_two_multipliers_past_depth_44(self, ell):
        # low bits an all-ones run of length ell: the plain walk and one
        # multiplier fail, so the default limits reach the pairs, where
        # the a >= 2^j cut ends most of the p1 and p2 loops
        rng = random.Random(ell)
        cls = ResidueClass((2**ell - 1) | rng.randrange(2 ** (48 - ell) - 1) << ell, 48)
        products = multiplier_products(DEFAULT_MULTIPLIER_BASE, 50)
        expected = reference_search.find_decreasing_steps(cls, products, SearchLimits())
        assert len(make_path_record(cls, expected).multipliers) == 2
        assert find_decreasing_steps(cls, products, SearchLimits()) == expected

    def test_cover_mod_2_44_table_is_pinned(self, cover_44):
        table, _, _ = cover_44
        digest = hashlib.sha256(dump_coverage(table).encode()).hexdigest()
        assert digest == "1f3de0b219ae62632a35e2ff09145dfdfd9cce41fd1113bbfa163eb02ceb8984"

    def test_junk_products_are_refused(self):
        with pytest.raises(ClassMapError):
            find_decreasing_steps(ResidueClass(7, 4), (5, 9), SearchLimits())


@pytest.fixture(scope="module")
def cover_44():
    """build_coverage(44) with every search call it made and its result,
    and how often it called _t_step and _t_steps."""
    searched = []
    calls = {"_t_step": 0, "_t_steps": 0}
    search = residue.find_decreasing_steps

    def recording(*args):
        steps = search(*args)
        searched.append((args, steps))
        return steps

    def counting(name):
        step = getattr(residue, name)

        def counted(*args):
            calls[name] += 1
            return step(*args)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(residue, "find_decreasing_steps", recording)
        for name in calls:
            mp.setattr(residue, name, counting(name))
        table = build_coverage(44)
    return table, searched, calls


class TestBuildCoverage:
    def test_tiny_cover(self):
        table = build_coverage(2, ())
        assert table.modulus_exponent == 2
        assert verify_coverage_table(table).ok
        assert table.worst == Fraction(4, 5)

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_coverage(3, (), SearchLimits(max_depth=2))

    def test_unreachable_limits_raise_coverage_error(self):
        # without multipliers, 7 and 11 mod 16 grow by 27/16 in four
        # T steps; only the all-ones leaf 1111 is a permitted gap
        with pytest.raises(CoverageError) as exc_info:
            build_coverage(4, ())
        assert exc_info.value.uncovered == ("1101", "1110")


class TestBuiltinTable:
    def test_shape_and_worst(self):
        table = load_builtin_coverage()
        assert table.modulus_exponent == 12
        assert len(table.records) == 28
        assert table.worst == Fraction(76, 79)

    def test_full_verification(self):
        assert verify_coverage_table(load_builtin_coverage()).ok

    def test_record_lookup_walks_prefixes(self):
        table = load_builtin_coverage()
        assert table.record_for(2).bits == "0"
        rec = table.record_for(27)
        assert rec.cls == ResidueClass(27, 7)
        assert rec.worst_ratio == Fraction(25, 27)

    def test_record_lookup_refuses_all_ones(self):
        table = load_builtin_coverage()
        with pytest.raises(CoverageError):
            table.record_for(2**12 - 1)
        with pytest.raises(CoverageError):
            table.record_for(2**13 - 1)

    @given(st.integers(2, 10**6))
    def test_every_non_all_ones_n_decreases(self, n):
        table = load_builtin_coverage()
        if (n & 4095) == 4095:
            return
        rec = table.record_for(n)
        assert replay_steps(n, rec.steps)[-1] < n


class TestCoverVerdicts:
    def test_dropped_record_breaks_measure(self):
        table = load_builtin_coverage()
        pruned = CoverageTable(records=table.records[1:], modulus_exponent=12)
        verdict = verify_prefix_cover(pruned)
        assert not verdict.ok
        assert any("cover measure" in issue for issue in verdict.issues)

    def test_duplicate_record_is_flagged(self):
        table = load_builtin_coverage()
        doubled = CoverageTable(
            records=table.records + table.records[:1], modulus_exponent=12
        )
        verdict = verify_prefix_cover(doubled)
        assert any("duplicated class bits" in issue for issue in verdict.issues)

    def test_overlap_is_flagged(self):
        extra = make_path_record(ResidueClass(2, 2), ("T", "T"))
        table = load_builtin_coverage()
        overlapped = CoverageTable(
            records=table.records + (extra,), modulus_exponent=12
        )
        verdict = verify_prefix_cover(overlapped)
        assert any("overlapping prefixes" in issue for issue in verdict.issues)


class TestTableFiles:
    def test_round_trip(self):
        table = load_builtin_coverage()
        again = load_coverage(dump_coverage(table), modulus_exponent=12)
        assert again.records == tuple(
            sorted(table.records, key=lambda r: r.bits)
        ) or set(again.records) == set(table.records)
        assert verify_coverage_table(again).ok

    def test_tampered_ratio_loads_then_fails_verify(self):
        text = dump_coverage(load_builtin_coverage())
        tampered = text.replace("76/79", "1/2", 1)
        table = load_coverage(tampered, modulus_exponent=12)
        verdict = verify_coverage_table(table)
        assert not verdict.ok
        assert any("stored worst ratio" in issue for issue in verdict.issues)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("0 0 1 1/2 0/1", "expected 7 fields"),
            ("02 0 1 1/2 0/1 1/2 T", "bad bits field"),
            ("0 z 1 1/2 0/1 1/2 T", "must be integers"),
            ("0 0 2 1/2 0/1 1/2 T", "bits length 1 != j = 2"),
            ("0 2 1 1/2 0/1 1/2 T", "residue"),
            ("0 0 1 1/0 0/1 1/2 T", "bad fraction field"),
            ("0 0 1 0/2 0/1 1/2 T", "bad fraction field"),
            ("0 0 1 0.5 0/1 1/2 T", "bad fraction field"),
            ("0 0 1 1/2 0/1 1/2 q", "step"),
        ],
    )
    def test_parse_errors(self, line, fragment):
        with pytest.raises(CoverageParseError) as exc_info:
            load_coverage(line + "\n")
        assert exc_info.value.line == 1
        assert fragment in exc_info.value.reason

    def test_empty_table_rejected(self):
        with pytest.raises(CoverageParseError):
            load_coverage("# nothing here\n")


class TestObstruction:
    def test_two_t_steps(self):
        report = obstruction_check(["T", "T"], 2)
        assert (report.map.c, report.map.d) == (Fraction(9, 4), Fraction(5, 4))
        assert report.value_at_minus_one == -1
        assert report.negativity_holds
        assert report.n0 == 3
        assert report.margin == 5
        assert report.no_decrease

    def test_multiplier_first(self):
        report = obstruction_check(["x5", "T"], 1)
        assert report.value_at_minus_one == -7
        assert report.negativity_holds
        assert report.no_decrease

    @given(
        st.integers(1, 16),
        st.lists(st.sampled_from([5, 7, 11, 13, 23, 29, 43]), max_size=3),
        st.data(),
    )
    def test_negativity_for_random_sequences(self, j, muls, data):
        # interleave multiplications anywhere among the j T steps
        steps = ["T"] * j
        for m in muls:
            pos = data.draw(st.integers(0, len(steps)))
            steps.insert(pos, mul_step(m))
        report = obstruction_check(steps, j)
        assert report.negativity_holds
        assert report.no_decrease
        assert report.margin > 0
