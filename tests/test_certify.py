from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wildsemi.certify import (
    BASE_TARGETS,
    Certificate,
    CertificateError,
    CertificateParseError,
    HALF,
    Side,
    VerifyStatus,
    base_certificate,
    base_table,
    certificate_product,
    eval_certificate,
    generator_value,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from raw_transcription import raw_base_table_report
from reference_chain import certificate_power, identity_certificate, invert_certificate, multiply_certificates


class TestGeneratorValue:
    def test_half_values(self):
        assert generator_value(Side.S, HALF) == 2
        assert generator_value(Side.W, HALF) == Fraction(1, 2)

    def test_indexed_values_are_reciprocal(self):
        for k in (0, 1, 5, 132):
            s, w = generator_value(Side.S, k), generator_value(Side.W, k)
            assert s * w == 1
            assert w == Fraction(3 * k + 2, 2 * k + 1)

    def test_invert_flips_side_only(self):
        cert = Certificate(Side.S, Fraction(15, 23), ((7, 1),))
        inv = invert_certificate(cert)
        assert inv.side is Side.W and inv.factors == cert.factors
        assert inv.target == 1 / cert.target == generator_value(Side.W, 7)

    def test_side_matters_for_equality(self):
        assert generator_value(Side.S, 5) != generator_value(Side.W, 5)
        assert Certificate(Side.S, Fraction(2), ((HALF, 1),)) != Certificate(
            Side.W, Fraction(2), ((HALF, 1),)
        )

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            generator_value(Side.W, HALF - 1)
        with pytest.raises(ValueError):
            Certificate(Side.W, Fraction(1), ((HALF - 1, 1),))


class TestCertificateShape:
    def test_merges_and_sorts(self):
        cert = Certificate(
            Side.W,
            Fraction(4),
            ((0, 1), (HALF, 2), (0, 1)),
        )
        # half first, then ascending k, duplicates merged
        assert cert.factors == ((HALF, 2), (0, 2))

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            Certificate(Side.S, Fraction(0), ())
        with pytest.raises(ValueError):
            Certificate(Side.S, Fraction(-2), ())

    def test_eval_empty_is_one(self):
        assert eval_certificate(identity_certificate(Side.S)) == 1


class TestVerify:
    def test_pass(self):
        cert = Certificate(Side.W, Fraction(2), ((0, 1),))
        result = verify_certificate(cert)
        assert result.ok and result.status is VerifyStatus.PASS
        assert result.evaluated == 2

    def test_mismatch_reports_product(self):
        cert = Certificate(Side.W, Fraction(3), ((0, 1),))
        result = verify_certificate(cert)
        assert result.status is VerifyStatus.MISMATCH
        assert result.evaluated == 2
        assert "2/1" in result.reason and "3/1" in result.reason

    def test_nonpositive_exponent_is_invalid(self):
        cert = Certificate(Side.W, Fraction(1), ((3, 0),))
        assert verify_certificate(cert).status is VerifyStatus.INVALID

    @given(st.integers(0, 400), st.integers(1, 6), st.integers(0, 8))
    def test_handmade_products(self, k, e, h):
        target = Fraction(3 * k + 2, 2 * k + 1) ** e / 2**h
        cert = Certificate(Side.W, target, ((HALF, h), (k, e)))
        if h == 0:
            cert = Certificate(Side.W, target, ((k, e),))
        assert verify_certificate(cert).ok


class TestAlgebra:
    def test_invert_round_trip(self):
        cert = base_certificate(13)
        inv = invert_certificate(cert)
        assert inv.side is Side.S
        assert inv.target == Fraction(1, 13)
        assert verify_certificate(inv).ok
        assert invert_certificate(inv) == cert

    def test_invert_refuses_broken(self):
        broken = Certificate(Side.W, Fraction(3), ((0, 1),))
        with pytest.raises(CertificateError):
            invert_certificate(broken)

    def test_multiply_merges(self):
        two = Certificate(Side.W, Fraction(2), ((0, 1),))
        four = multiply_certificates(two, two)
        assert four.target == 4
        assert four.factors == ((0, 2),)
        assert verify_certificate(four).ok

    def test_multiply_rejects_cross_side(self):
        two = Certificate(Side.W, Fraction(2), ((0, 1),))
        half = Certificate(Side.S, Fraction(2), ((HALF, 1),))
        with pytest.raises(CertificateError):
            multiply_certificates(two, half)

    def test_power(self):
        cert = base_certificate(5)
        cubed = certificate_power(cert, 3)
        assert cubed.target == 125
        assert verify_certificate(cubed).ok
        with pytest.raises(CertificateError):
            certificate_power(cert, 0)

    def test_product_matches_the_multiply_chain(self):
        five, seven = base_certificate(5), base_certificate(7)
        product = certificate_product(Side.W, [(five, 2), (seven, 1)])
        assert product == multiply_certificates(certificate_power(five, 2), seven)
        assert product.target == 175 and verify_certificate(product).ok

    def test_product_takes_a_part_from_the_other_side_as_its_mirror(self):
        five, thirteen = base_certificate(5), base_certificate(13)
        assert certificate_product(Side.S, [(thirteen, 1)]) == invert_certificate(thirteen)
        s_thirteenth = invert_certificate(thirteen)  # S, target 1/13
        product = certificate_product(Side.W, [(five, 1), (s_thirteenth, 2)])
        assert product == multiply_certificates(five, certificate_power(thirteen, 2))
        assert product.target == 5 * 13**2 and verify_certificate(product).ok

    def test_empty_product_is_the_identity(self):
        assert certificate_product(Side.S, []) == identity_certificate(Side.S)


class TestBaseTable:
    def test_all_seven_verify_exactly(self):
        table = base_table()
        assert tuple(int(c.target) for c in table) == BASE_TARGETS
        for cert in table:
            assert cert.side is Side.W
            result = verify_certificate(cert)
            assert result.ok, f"{cert.target}: {result.reason}"

    def test_lookup(self):
        assert base_certificate(23).target == 23
        with pytest.raises(KeyError):
            base_certificate(17)

    def test_thirteen_is_eleven_times_thirteen_elevenths(self):
        # the repaired row is the 11-row times (1/2) g(5) g(8)
        eleven = base_certificate(11)
        extra = Certificate(
            Side.W,
            Fraction(13, 11),
            ((HALF, 1), (5, 1), (8, 1)),
        )
        assert verify_certificate(extra).ok
        assert multiply_certificates(eleven, extra) == base_certificate(13)


class TestRawTranscription:
    def test_clean_rows(self):
        reports = {r.target: r for r in raw_base_table_report()}
        for target in (5, 7, 11, 23, 29):
            assert reports[target].clean, reports[target].issues

    def test_row_13_is_defective_in_both_lines(self):
        report = {r.target: r for r in raw_base_table_report()}[13]
        assert not report.clean
        # g(5)^3 instead of g(5)^1 multiplies the row by (17/11)^2
        assert any("3757/121" in issue for issue in report.issues)
        assert len(report.issues) == 2

    def test_row_43_fraction_line_prints_a_non_generator(self):
        report = {r.target: r for r in raw_base_table_report()}[43]
        assert not report.clean
        assert any("125/87" in issue and "not any wild generator" in issue for issue in report.issues)

    def test_index_lines_alone_flag_only_13(self):
        reports = raw_base_table_report(check_fraction_lines=False)
        bad = [r.target for r in reports if not r.clean]
        assert bad == [13]


FACTOR_LISTS = st.lists(
    st.tuples(st.integers(HALF, 300), st.integers(1, 9)),
    min_size=0,
    max_size=12,
    unique_by=lambda pair: pair[0],
)


class TestWireFormat:
    def test_serialized_shape(self):
        cert = Certificate(Side.S, Fraction(1), ((HALF, 1), (0, 1)))
        assert serialize_certificate(cert) == "CERT v1 S\ntarget 1/1\nhalf 1\ng 0 1\n"

    def test_refuses_invalid(self):
        bad = Certificate(Side.W, Fraction(2), ((0, 0),))
        with pytest.raises(CertificateError):
            serialize_certificate(bad)

    def test_parse_ignores_comments_and_blanks(self):
        text = "# note\nCERT v1 W\n\ntarget 2/1  # the doubling\ng 0 1\n"
        cert = parse_certificate(text)
        assert cert.target == 2 and verify_certificate(cert).ok

    @given(st.sampled_from([Side.S, Side.W]), FACTOR_LISTS)
    def test_round_trip(self, side, factors):
        cert = Certificate(side, Fraction(7, 5), tuple(factors))
        assert parse_certificate(serialize_certificate(cert)) == cert
        # reference product: one reduced Fraction per generator
        product = Fraction(1)
        for k, e in factors:
            product *= generator_value(side, k) ** e
        assert eval_certificate(cert) == product

    @pytest.mark.parametrize(
        "text,lineno,fragment",
        [
            ("", 1, "empty input"),
            ("target 2/1\n", 1, "expected CERT header"),
            ("CERT v2 W\ntarget 2/1\n", 1, "header"),
            ("CERT v1 X\n", 1, "unknown side"),
            ("CERT v1 W\nCERT v1 W\n", 2, "stray second CERT header"),
            ("CERT v1 W\ng 0 1\n", 2, "target line must precede"),
            ("CERT v1 W\ntarget 2\n", 2, "target must be"),
            ("CERT v1 W\ntarget 2/1\ntarget 2/1\n", 3, "duplicate target"),
            ("CERT v1 W\ntarget 2/1\nhalf 1\nhalf 1\n", 4, "duplicate half"),
            ("CERT v1 W\ntarget 2/1\ng 3 1\ng 2 1\n", 4, "strictly sorted"),
            ("CERT v1 W\ntarget 2/1\ng 3 1\ng 3 1\n", 4, "strictly sorted"),
            ("CERT v1 W\ntarget 2/1\ng 0 0\n", 3, "exponent must be >= 1"),
            ("CERT v1 W\ntarget 2/1\ng -1 2\n", 3, "index must be >= 0"),
            ("CERT v1 W\ntarget 2/1\nhalf x\n", 3, "not an integer"),
            ("CERT v1 W\ntarget 2/1\nfoo 1\n", 3, "unknown line keyword"),
            ("CERT v1 W\n", 1, "missing target"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(CertificateParseError) as exc_info:
            parse_certificate(text)
        assert exc_info.value.line == lineno
        assert fragment in exc_info.value.reason
