"""The multiply/power certificate chain, kept as an independent reference.

The package composes certificates only through
certify.certificate_product.  These three helpers build the same
certificates one multiplication at a time, so the tests can compare the
two routes; they are not reimplemented over certificate_product.
invert_certificate is the checked mirror: it refuses a certificate that
does not verify, where certificate_product mirrors a part unchecked.
"""

from wildsemi.certify import Certificate, CertificateError, Side, verify_certificate
from wildsemi.core import ONE


def multiply_certificates(a: Certificate, b: Certificate) -> Certificate:
    if a.side is not b.side:
        raise CertificateError(f"cannot multiply certificates across sides {a.side} and {b.side}")
    return Certificate(a.side, a.target * b.target, a.factors + b.factors)


def certificate_power(cert: Certificate, exponent: int) -> Certificate:
    """cert raised to a positive integer power, exponentwise."""
    if exponent < 1:
        raise CertificateError(f"certificate power wants exponent >= 1, got {exponent}")
    return Certificate(
        cert.side,
        cert.target**exponent,
        tuple((k, exp * exponent) for k, exp in cert.factors),
    )


def identity_certificate(side: Side) -> Certificate:
    return Certificate(side, ONE, ())


def invert_certificate(cert: Certificate) -> Certificate:
    """Mirror a verifying certificate to the opposite side, reciprocal target.

    The factors stay as they are: each generator of one side is the
    reciprocal of the same index on the other.
    """
    check = verify_certificate(cert)
    if not check.ok:
        raise CertificateError(f"refusing to invert a certificate that does not verify: {check.reason}")
    return Certificate(Side.W if cert.side is Side.S else Side.S, 1 / cert.target, cert.factors)
