"""The store index as CertStore wrote it when every put re-read every file.

reference_index re-reads, re-parses and re-verifies every *.cert file
in the directory on each call; a put, which reuses the lines of files
older than the previous index, must write the same store.idx.
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
