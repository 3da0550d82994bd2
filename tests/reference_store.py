"""A certificate store's listing, re-derived from its files.

reference_index re-reads, re-parses and re-verifies every *.cert file
in the directory on each call: one `<file> <target> <status>` line per
file, in name order.  `wildsemi verify DIR` must list the same lines,
whatever the files' mtimes; listed_index reads them off its stdout.
"""

from pathlib import Path

from wildsemi.certify import parse_certificate, verify_certificate
from wildsemi.core import format_rational


def reference_index(root: Path) -> str:
    lines = []
    for path in sorted(root.glob("*.cert")):
        try:
            cert = parse_certificate(path.read_text())
            status = verify_certificate(cert).status.value
            target = format_rational(cert.target)
        except ValueError:
            status, target = "unparseable", "?"
        lines.append(f"{path.name} {target} {status}")
    return "\n".join(lines) + "\n" if lines else ""


def listed_index(out: str) -> str:
    """The entry lines of `wildsemi verify DIR` stdout, in reference_index's form.

    The stdout must be exactly those `entry=` lines, then `entries=<n>`,
    then `status=pass` when every entry passes and `status=fail` otherwise.
    """
    lines = out.splitlines()
    entries = [line.removeprefix("entry=") for line in lines if line.startswith("entry=")]
    status = "pass" if all(entry.endswith(" pass") for entry in entries) else "fail"
    assert lines == [f"entry={entry}" for entry in entries] + [f"entries={len(entries)}", f"status={status}"], out
    return "".join(entry + "\n" for entry in entries)
