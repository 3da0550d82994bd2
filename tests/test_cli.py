"""End-to-end runs of the command-line front end, in process."""

import hashlib
import os
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wildsemi
from wildsemi import cli, residue, wildprove
from wildsemi.certify import Certificate, serialize_certificate
from wildsemi.cli import EXIT_BUDGET, EXIT_MATH, EXIT_OK, EXIT_USAGE, main
from wildsemi.residue import dump_coverage, load_builtin_coverage
from wildsemi.wildprove import VerificationError

from reference_store import listed_index, reference_index


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    """First value per key; repeated keys keep the first occurrence."""
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep and key not in pairs:
            pairs[key] = value
    return pairs


class TestVerifyCommand:
    def test_round_trip_with_prove(self, capsys, tmp_path):
        out_file = tmp_path / "w-13.cert"
        code, out, _ = run(capsys, "prove", "w", "13", "--out", str(out_file))
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["side"] == "W"
        assert pairs["target"] == "13/1"
        assert pairs["generators"] == "20"
        assert pairs["total_exponent"] == "58"
        assert pairs["status"] == "pass"

        code, out, _ = run(capsys, "verify", str(out_file))
        assert code == EXIT_OK
        assert kv(out)["status"] == "pass"

    def test_tampered_target_is_a_math_failure(self, capsys, tmp_path):
        out_file = tmp_path / "w-13.cert"
        run(capsys, "prove", "w", "13", "--out", str(out_file))
        out_file.write_text(out_file.read_text().replace("target 13/1", "target 14/1"))
        code, out, _ = run(capsys, "verify", str(out_file))
        assert code == EXIT_MATH
        pairs = kv(out)
        assert pairs["status"] == "mismatch"
        assert pairs["evaluated"] == "13/1"

    def test_unparseable_file_is_usage(self, capsys, tmp_path):
        bad = tmp_path / "bad.cert"
        bad.write_text("")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == EXIT_USAGE
        assert "empty input" in err

    def test_missing_file_is_usage(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "absent.cert"))
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_empty_directory_lists_nothing(self, capsys, tmp_path):
        assert run(capsys, "verify", str(tmp_path)) == (EXIT_OK, "entries=0\nstatus=pass\n", "")
        (tmp_path / "notes.txt").write_text("only *.cert files are listed\n")
        assert run(capsys, "verify", str(tmp_path)) == (EXIT_OK, "entries=0\nstatus=pass\n", "")


class TestProveCommand:
    def test_default_output_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "prove", "s", "5")
        assert code == EXIT_OK
        assert kv(out)["wrote"] == "s-5.cert"
        assert (tmp_path / "s-5.cert").exists()

    def test_rational_w_side_goes_through_the_mirror(self, capsys, tmp_path):
        out_file = tmp_path / "w.cert"
        code, out, _ = run(capsys, "prove", "w", "13/2", "--out", str(out_file))
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["side"] == "W" and pairs["target"] == "13/2"
        code, _, _ = run(capsys, "verify", str(out_file))
        assert code == EXIT_OK

    def test_refusal_is_explained(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "s", "1/3", "--out", str(tmp_path / "x"))
        assert code == EXIT_MATH
        pairs = kv(out)
        assert pairs["status"] == "refused"
        assert "divisible by 3" in pairs["reason"]

        code, out, _ = run(capsys, "prove", "w", "3", "--out", str(tmp_path / "y"))
        assert code == EXIT_MATH
        assert kv(out)["status"] == "refused"

        code, out, _ = run(capsys, "prove", "w", "3/2", "--out", str(tmp_path / "z"))
        assert code == EXIT_MATH
        assert kv(out)["status"] == "refused"

    def test_budget_exhaustion(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "prove", "s", "27", "--budget", "10", "--out", str(tmp_path / "x")
        )
        assert code == EXIT_BUDGET
        assert kv(out)["status"] == "budget_exhausted"
        assert "did not reach 1" in err

    def test_failed_internal_check_is_a_math_failure(self, capsys, tmp_path, monkeypatch):
        def broken(m, context):
            raise VerificationError(f"forced failure for {m}")

        monkeypatch.setattr(wildprove, "w_certificate_for_integer", broken)
        code, out, err = run(capsys, "prove", "w", "13", "--out", str(tmp_path / "x"))
        assert code == EXIT_MATH
        assert kv(out)["status"] == "fail"
        assert err.startswith("error: forced failure for 13")

    def test_tampered_seed_certificate_fails(self, capsys, tmp_path, monkeypatch):
        # the context verifies its seeds when it is created
        real = wildprove.base_certificate

        def tampered(target):
            cert = real(target)
            return Certificate(cert.side, cert.target + 1, cert.factors) if target == 5 else cert

        monkeypatch.setattr(wildprove, "base_certificate", tampered)
        out_file = tmp_path / "w-5.cert"
        code, out, err = run(capsys, "prove", "w", "5", "--out", str(out_file))
        assert code == EXIT_MATH
        assert kv(out)["status"] == "fail"
        assert err.startswith("error: seed certificate for 5 failed")
        assert not out_file.exists()

    def test_store_reuse(self, capsys, tmp_path):
        store = tmp_path / "cache"
        code, _, _ = run(
            capsys, "prove", "w", "13", "--store", str(store), "--out", str(tmp_path / "a")
        )
        assert code == EXIT_OK
        assert (store / "w-13.cert").exists()
        assert all(p.name.endswith(".cert") for p in store.iterdir())  # no index or temporary file
        code, _, _ = run(
            capsys, "prove", "w", "26", "--store", str(store), "--out", str(tmp_path / "b")
        )
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", str(store))
        assert code == EXIT_OK and listed_index(out) == reference_index(store)
        assert "entry=w-13.cert 13/1 pass\n" in out

    @pytest.mark.parametrize("content", [b"garbage\n", b"\xff\xfe\n"], ids=["text", "bytes"])
    def test_unparseable_store_file_is_rebuilt(self, capsys, tmp_path, content):
        store = tmp_path / "cache"
        store.mkdir()
        (store / "w-13.cert").write_bytes(content)
        code, out, _ = run(capsys, "verify", str(store))
        assert (code, out) == (EXIT_MATH, "entry=w-13.cert ? unparseable\nentries=1\nstatus=fail\n")
        code, _, err = run(capsys, "prove", "w", "26", "--store", str(store), "--out", str(tmp_path / "b"))
        assert (code, err) == (EXIT_OK, "")
        code, out, _ = run(capsys, "verify", str(store / "w-13.cert"))
        assert code == EXIT_OK and kv(out)["target"] == "13/1"
        code, out, _ = run(capsys, "verify", str(store))
        assert code == EXIT_OK and listed_index(out) == reference_index(store)
        assert "entry=w-13.cert 13/1 pass\n" in out

    def test_store_index_across_processes(self, tmp_path):
        # separate interpreters, some under -O, each a fresh store; a
        # mismatched file planted between runs, with its mtime set back
        # before the last put, is listed and reloaded by its content
        store = tmp_path / "cache"
        src = str(Path(wildsemi.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def wildsemi_run(*argv):
            return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)

        def prove(m, *flags):
            done = wildsemi_run(*flags, "-m", "wildsemi", "prove", "w", str(m), "--store", str(store),
                                "--out", str(tmp_path / f"{m}.cert"))
            assert done.returncode == 0, done.stderr
            listed = wildsemi_run("-O", "-m", "wildsemi", "verify", str(store))
            assert listed.stderr == ""
            return listed.returncode, listed_index(listed.stdout)

        def plant(m, wrong):
            good = wildprove.w_certificate_for_integer(m)
            path = store / f"w-{m}.cert"
            path.write_text(serialize_certificate(Certificate(good.side, Fraction(wrong), good.factors)))
            stamp = max(p.stat().st_mtime_ns for p in store.glob("*.cert")) - 10**9
            os.utime(path, ns=(stamp, stamp))

        assert prove(13) == (EXIT_OK, reference_index(store))
        plant(13, 15)
        code, idx = prove(20, "-O")  # 20 = 4 * 5 does not load 13
        assert (code, idx) == (EXIT_MATH, reference_index(store))
        assert "w-13.cert 15/1 mismatch\n" in idx
        plant(20, 21)
        code, idx = prove(26)  # loads 13, refuses it and rebuilds it
        assert (code, idx) == (EXIT_MATH, reference_index(store))
        assert "w-13.cert 13/1 pass\n" in idx and "w-20.cert 21/1 mismatch\n" in idx

    @pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", "2/0", "0/2"])
    def test_junk_values_are_usage(self, capsys, tmp_path, value):
        code, _, err = run(capsys, "prove", "s", value, "--out", str(tmp_path / "x"))
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_unreduced_value_normalizes(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "s", "4/2", "--out", str(tmp_path / "x"))
        assert code == EXIT_OK
        assert kv(out)["target"] == "2/1"

    def test_store_on_a_plain_file_is_usage(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run(
            capsys, "prove", "s", "5", "--store", str(taken), "--out", str(tmp_path / "x")
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: cannot open store")

    def test_store_io_failure_is_usage(self, capsys, tmp_path):
        store = tmp_path / "cache"
        (store / "w-13.cert").mkdir(parents=True)  # a directory where a file goes
        code, out, err = run(
            capsys, "prove", "w", "13", "--store", str(store), "--out", str(tmp_path / "x")
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: cannot use store") and err.count("\n") == 1

    def test_bad_budget_is_usage(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "prove", "s", "5", "--budget", "0", "--out", str(tmp_path / "x")
        )
        assert code == EXIT_USAGE


class TestCoverageCommand:
    def test_builtin_fixture(self, capsys):
        code, out, _ = run(capsys, "coverage", "--fixture", "--bits", "12")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["records"] == "28"
        assert pairs["modulus_exponent"] == "12"
        assert pairs["worst"] == "76/79"
        assert pairs["status"] == "pass"

    def test_builtin_fixture_is_read_at_the_given_bits(self, capsys):
        # the shipped table is a cover mod 2^12; at any other modulus it
        # fails exactly as the same text passed as a file does
        shipped = Path(wildsemi.__file__).parent / "data" / "cover_mod4096.cover"
        for bits in ("11", "44"):
            builtin = run(capsys, "coverage", "--fixture", "--bits", bits)
            from_file = run(capsys, "coverage", "--fixture", str(shipped), "--bits", bits)
            assert builtin == from_file
            code, out, _ = builtin
            assert code == EXIT_MATH
            pairs = kv(out)
            assert pairs["modulus_exponent"] == bits and pairs["status"] == "fail"

    def test_file_fixture_and_tampering(self, capsys, tmp_path):
        good = tmp_path / "table.cover"
        good.write_text(dump_coverage(load_builtin_coverage()))
        code, out, _ = run(capsys, "coverage", "--fixture", str(good), "--bits", "12")
        assert code == EXIT_OK and kv(out)["status"] == "pass"

        bad = tmp_path / "tampered.cover"
        bad.write_text(good.read_text().replace("76/79", "1/2", 1))
        code, out, _ = run(capsys, "coverage", "--fixture", str(bad), "--bits", "12")
        assert code == EXIT_MATH
        pairs = kv(out)
        assert pairs["status"] == "fail"
        assert "stored worst ratio" in pairs["issue"]

    def test_regen_small_modulus_reports_gaps(self, capsys):
        code, out, _ = run(capsys, "coverage", "--regen", "--bits", "4")
        assert code == EXIT_MATH
        assert kv(out)["status"] == "gap"
        assert "uncovered=1101" in out and "uncovered=1110" in out

    def test_regen_agrees_with_the_transcribed_table(self, capsys, tmp_path):
        # the searched cover may pick different step sequences than the
        # hand-made one (ties break toward fewer multiplications), but
        # the class partition and the worst ratio are search-independent
        out_file = tmp_path / "regen.cover"
        code, out, _ = run(
            capsys, "coverage", "--regen", "--bits", "12", "--out", str(out_file)
        )
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["records"] == "28" and pairs["worst"] == "76/79"
        regen_bits = {line.split()[0] for line in out_file.read_text().splitlines() if not line.startswith("#")}
        builtin_bits = {r.bits for r in load_builtin_coverage().records}
        assert regen_bits == builtin_bits

        code, out, _ = run(capsys, "coverage", "--fixture", str(out_file), "--bits", "12")
        assert code == EXIT_OK and kv(out)["status"] == "pass"

    def test_regen_mod_2_48_is_pinned(self, capsys, tmp_path, monkeypatch):
        # the relative --out keeps the wrote= line, and so stdout, fixed
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "coverage", "--regen", "--bits", "48", "--out", "cover48.table")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9a9ea488a847c7adbaadb04ed5b1b7341b81e05b9d79694bdc98e0a405a97527"
        )
        assert hashlib.sha256((tmp_path / "cover48.table").read_bytes()).hexdigest() == (
            "a795de81e969a4768714fab0cf66f931e16007ec298c9214bf9357f843cc5c60"
        )

    def test_flag_validation(self, capsys):
        assert run(capsys, "coverage", "--bits", "12")[0] == EXIT_USAGE
        assert run(capsys, "coverage", "--fixture", "--regen", "--bits", "12")[0] == EXIT_USAGE
        assert run(capsys, "coverage", "--fixture", "--bits", "0")[0] == EXIT_USAGE
        assert run(capsys, "coverage", "--fixture", "--bits", "65")[0] == EXIT_USAGE
        assert run(capsys, "coverage", "--regen", "--bits", "4", "--mul-cap", "0")[0] == EXIT_USAGE
        # the message names the limit that is out of range, not another
        code, _, err = run(capsys, "coverage", "--regen", "--bits", "12", "--mul-cap", "0")
        assert code == EXIT_USAGE and "need mul_cap >= 1" in err and "max_muls in" not in err
        code, _, err = run(capsys, "coverage", "--regen", "--bits", "12", "--max-muls", "3")
        assert code == EXIT_USAGE and err.startswith("error:") and "need max_muls in 0..2" in err
        # the limits are checked in fixture mode too
        assert run(capsys, "coverage", "--fixture", "--bits", "12", "--mul-cap", "0")[0] == EXIT_USAGE
        assert run(capsys, "coverage", "--fixture", "--bits", "12", "--max-muls", "-1")[0] == EXIT_USAGE


class TestSearchCommand:
    def test_even_class_is_fully_covered(self, capsys):
        code, out, _ = run(capsys, "search", "--class", "4", "--mod", "8")
        assert code == EXIT_OK
        assert "record=001 class=4 modulus_exponent=3 worst=1/2 steps=T,T,T" in out
        assert kv(out)["status"] == "pass"
        assert "uncovered" not in out

    def test_all_ones_prefix_is_obstructed_not_failed(self, capsys):
        code, out, _ = run(capsys, "search", "--class", "2047", "--mod", "2048")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["status"] == "pass"
        assert pairs["uncovered"] == "111111111111"
        assert "worst=71/89" in out

    def test_validation(self, capsys):
        assert run(capsys, "search", "--class", "5", "--mod", "6")[0] == EXIT_USAGE
        assert run(capsys, "search", "--class", "9", "--mod", "8")[0] == EXIT_USAGE
        assert run(capsys, "search", "--class", "-1", "--mod", "8")[0] == EXIT_USAGE

    def test_every_printed_record_is_verified(self, capsys, monkeypatch):
        # a search that hands back the plain T^j list, decreasing or not
        monkeypatch.setattr(residue, "find_decreasing_steps", lambda cls, products, limits: ("T",) * cls.j)
        code, out, _ = run(capsys, "search", "--class", "7", "--mod", "16")
        assert code == EXIT_MATH
        assert "record=1110 class=7 modulus_exponent=4 worst=13/7 steps=T,T,T,T" in out
        assert out.endswith("issue=1110: class does not decrease: worst ratio 13/7 >= 1\nstatus=fail\n")


class TestSmoothCommand:
    def test_witness(self, capsys):
        code, out, _ = run(capsys, "smooth", "13")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs == {
            "q": "13",
            "a": "2",
            "r": "17",
            "s1": "25",
            "s2": "35",
            "product": "875",
            "k": "11",
            "n": "101",
            "l": "437",
            "status": "pass",
        }

    def test_thin_smooth_set(self, capsys):
        code, out, _ = run(capsys, "smooth", "5")
        assert code == EXIT_MATH
        assert kv(out)["status"] == "no_pair"

    @pytest.mark.parametrize("q", ["4", "9", "3", "-7"])
    def test_validation(self, capsys, q):
        assert run(capsys, "smooth", q)[0] == EXIT_USAGE


class TestPiCheckCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "pi-check", "257", "2000")
        assert code == EXIT_OK
        pairs = kv(out)
        assert pairs["checked"] == "1744"
        assert pairs["failures"] == "0"
        assert pairs["status"] == "pass"

    def test_validation(self, capsys):
        assert run(capsys, "pi-check", "200", "300")[0] == EXIT_USAGE
        assert run(capsys, "pi-check", "300", "299")[0] == EXIT_USAGE

    def test_stdout_matches_the_readme_transcript(self, capsys):
        code, out, _ = run(capsys, "pi-check", "257", "100000")
        assert code == EXIT_OK
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert out == readme.split("$ wildsemi pi-check 257 100000\n", 1)[1].split("```", 1)[0]

    def test_stdout_under_optimize_matches_the_readme_transcript(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "wildsemi", "pi-check", "257", "100000"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        readme = (root / "README.md").read_text()
        assert done.stdout == readme.split("$ wildsemi pi-check 257 100000\n", 1)[1].split("```", 1)[0]

    def test_sieve_past_int32_is_a_usage_error(self, capsys):
        # 6 * q_max = 2.4e9 needs a sieve past 2^31 - 1; refused before it is built
        code, out, err = run(capsys, "pi-check", "257", "400000000")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: sieve limit must be in 2..2147483647")


class TestInductCommand:
    def test_base_run(self, capsys):
        code, out, err = run(capsys, "induct", "12", "--traj-bound", "100")
        assert code == EXIT_OK
        assert "k=12 hyp=1 kind=class_proof status=pass" in out
        assert "comparison=1216/1264<1235/1264" in out
        assert "kind=sweep_capped" in out  # bound 100 < 2^12 - 2
        assert kv(out)["status"] == "pass"
        assert "trajectory bound 100" in err

    def test_stdout_matches_the_readme_transcript(self, capsys):
        code, out, _ = run(capsys, "induct", "13")
        assert code == EXIT_OK
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        transcript = readme.split("$ wildsemi induct 13\n", 1)[1].split("```", 1)[0]
        assert out == transcript
        digest = "dc415c9bfbaa8af41c2fe0eaef38674c58ae5b45c540ad22353a11697c4b04e9"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_stdout_under_optimize_matches_the_readme_transcript(self):
        # no hypothesis-3 check may rest on assert, which python -O strips
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "wildsemi", "induct", "13"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == EXIT_OK, done.stderr
        readme = (root / "README.md").read_text()
        assert done.stdout == readme.split("$ wildsemi induct 13\n", 1)[1].split("```", 1)[0]

    def test_validation(self, capsys):
        assert run(capsys, "induct", "11")[0] == EXIT_USAGE
        assert run(capsys, "induct", "12", "--traj-bound", "0")[0] == EXIT_USAGE

    @pytest.mark.parametrize("bound", ["2147483648", "99999999999999"])
    def test_oversized_traj_bound_is_refused_before_allocating(self, bound):
        # the sweep runs to min(2^40 - 2, bound); 2^31 would take a 4 GiB
        # step-count array, which the 1 GiB address-space cap turns into
        # a traceback, so the refusal must come first, and under -O too
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "wildsemi", "induct", "40", "--traj-bound", bound],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap,
        )
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stdout == ""
        reach = min(2**40 - 2, int(bound))
        assert done.stderr.splitlines()[-1] == f"error: reach bound must be in 1..2147483647, got {reach}"

    def test_k_max_beyond_the_sieve_is_refused_before_allocating(self):
        # hypothesis 3 sieves primes below 6 ((2^k_max - 1)/189 + 1),
        # which fits unit_sieve up to k_max = 35; at 36 the refusal
        # comes before any sieve, under the 1 GiB cap and under -O
        def sieve_limit(k):
            return 6 * ((2**k - 1) // 189 + 1) - 1

        assert sieve_limit(35) <= wildprove.SIEVE_LIMIT_MAX < sieve_limit(36)

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "wildsemi", "induct", "36", "--traj-bound", "1000"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=cap,
        )
        assert done.returncode == EXIT_USAGE, done.stderr
        assert done.stdout == ""
        assert done.stderr.splitlines()[-1] == "error: induction runs to k_max = 35 at most, got k_max = 36"

    def test_stdout_to_k_24_is_pinned(self, capsys):
        # levels 23 and 24 are where hypothesis 3 covers the most m
        code, out, _ = run(capsys, "induct", "24")
        assert code == EXIT_OK
        digest = "ebc07cb43af08e18c702123a41e94f8892614e4b612c9f01bc88515566eb2640"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_stdout_to_k_28_is_pinned(self, capsys):
        # from k = 28 on, hypothesis 3 reads smoothness of m above 10^6
        code, out, _ = run(capsys, "induct", "28")
        assert code == EXIT_OK
        digest = "837bced8d582cb9d150441a34e958cd1e99095233eaa74ab1490d961b56d1908"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestImportPath:
    def test_commands_without_arrays_never_import_numpy(self, tmp_path):
        script = """
            import contextlib, io, sys
            from wildsemi import cli

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    return cli.main(list(argv))

            codes = [
                run("prove", "w", "13", "--out", "w.cert"),
                run("prove", "w", "1001", "--store", "db", "--out", "m.cert"),
                run("prove", "s", "27/5", "--out", "s.cert"),
                run("verify", "w.cert"),
                run("coverage", "--fixture", "--bits", "12"),
                run("search", "--class", "2047", "--mod", "2048"),
                run("smooth", "1009"),
            ]
            print(codes, "numpy" in sys.modules)
            print(run("induct", "13"), "numpy" in sys.modules)
            """
        src = str(Path(wildsemi.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # induct runs the reach-one sweep, which imports numpy on first use
        assert done.stdout.splitlines() == ["[0, 0, 0, 0, 0, 0, 0] False", "0 True"]


class TestParsing:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == EXIT_OK
        assert "--seed" not in out

    def test_no_command_is_usage(self, capsys):
        assert run(capsys)[0] == EXIT_USAGE

    def test_unknown_command_is_usage(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE
        assert run(capsys, "--seed", "7", "smooth", "13")[0] == EXIT_USAGE

    def test_stdout_is_machine_splittable(self, capsys):
        for argv in (["smooth", "13"], ["coverage", "--fixture", "--bits", "12"]):
            _, out, _ = run(capsys, *argv)
            for line in out.splitlines():
                if not line.startswith("record="):
                    assert "=" in line


# tokens stay small: int() accepts "1_000", and `induct 30` runs for tens of seconds
# (`induct` refuses a k_max above 35 at once)
COMMANDS = ("verify", "prove", "coverage", "search", "smooth", "pi-check", "induct")
FLAGS = (
    "--help",
    "--out",
    "--store",
    "--budget",
    "--fixture",
    "--regen",
    "--bits",
    "--mul-cap",
    "--max-muls",
    "--class",
    "--mod",
    "--traj-bound",
    "--seed",
)
JUNK = ("", "abc", "1/0", "0/1", "-1", ".", "1e3", "0x10", "+5", "7/9", "s", "w")
TOKENS = st.one_of(st.sampled_from(COMMANDS + FLAGS + JUNK), st.integers(-3, 14).map(str))
ARGVS = st.one_of(
    st.lists(TOKENS, max_size=6),
    st.builds(lambda cmd, rest: [cmd, *rest], st.sampled_from(COMMANDS), st.lists(TOKENS, max_size=7)),
)


class TestExitCodeContract:
    @settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(ARGVS)
    def test_every_argv_exits_with_a_contract_code(self, tmp_path, monkeypatch, argv):
        # the directory is shared across examples, so files written by one
        # argv (--out, --store) are in the way of later ones
        monkeypatch.chdir(tmp_path)
        assert main(argv) in (EXIT_OK, EXIT_MATH, EXIT_USAGE, EXIT_BUDGET)
