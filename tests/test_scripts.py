"""The scripts under scripts/, each run as its own process."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv], capture_output=True, text=True, timeout=120
    )


def test_cover_fixture_is_reproduced_byte_for_byte(tmp_path):
    out = tmp_path / "x.cover"
    done = script("make_cover_fixture.py", str(out))
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (ROOT / "src" / "wildsemi" / "data" / "cover_mod4096.cover").read_bytes()


def test_obstruction_scan_finds_no_decrease():
    done = script("obstruction_scan.py", "--samples", "300", "--max-j", "12")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("300 sequences on -1 mod 2^j for 2 <= j <= 12: none decrease\n")


@pytest.mark.parametrize(
    "argv",
    [["--samples", "0"], ["--samples", "-5"], ["--max-j", "1"], ["--max-j", "65"], ["--max-j", "80"]],
    ids=["samples0", "samples-5", "max-j1", "max-j65", "max-j80"],
)
def test_obstruction_scan_refuses_bad_arguments(argv):
    done = script("obstruction_scan.py", *argv)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1].startswith("obstruction_scan.py: error: --")
    assert "Traceback" not in done.stderr
