"""Reference verdicts that do not use the code being timed.

For the ``noncubic-bc`` cone family with direction polynomials
b = sum b_k th^k and c = sum c_k th^k, the osculating defect is
c' - 3 th b' + 3 b, whose coefficient of th^j is
(j+1) c_{j+1} - 3 (j-1) b_j.  The family satisfies the osculating
condition exactly when every coefficient is zero.  Everything here is
plain ``fractions.Fraction`` arithmetic on coefficient maps.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TERM = re.compile(r"\s*(?:\((-?\d+(?:/\d+)?)\)\*)?th(?:\^(\d+))?\s*\Z")


def defect(b: dict, c: dict) -> dict:
    """Nonzero coefficients {j: (j+1) c_{j+1} - 3 (j-1) b_j}."""
    out = {}
    for j in set(b) | {k - 1 for k in c}:
        value = (j + 1) * c.get(j + 1, 0) - 3 * (j - 1) * b.get(j, 0)
        if value:
            out[j] = Fraction(value)
    return out


def osculating_holds(b: dict, c: dict) -> bool:
    return not defect(b, c)


def compliant_c(b: dict) -> dict:
    """The c that makes every defect coefficient vanish:
    c = sum 3 (k-1)/(k+1) b_k th^(k+1)."""
    return {k + 1: 3 * Fraction(k - 1, k + 1) * q for k, q in b.items()}


def poly_text(coeffs: dict) -> str:
    """Model-file text of a polynomial in th, e.g. ``(3/2)*th^4``."""
    terms = [f"({q})*th^{k}" for k, q in sorted(coeffs.items()) if q]
    return " + ".join(terms) if terms else "0"


def parse_poly(text: str) -> dict:
    """Inverse of ``poly_text``; also reads ``th^3`` and ``(3/2)*th^4``."""
    coeffs: dict = {}
    if text.strip() == "0":
        return coeffs
    for term in text.split(" + "):
        match = _TERM.match(term)
        if match is None:
            raise ValueError(f"not a th-monomial: {term!r}")
        q = Fraction(match.group(1) or 1)
        k = int(match.group(2) or 1)
        coeffs[k] = coeffs.get(k, 0) + q
    return {k: q for k, q in coeffs.items() if q}
