"""Small Seifert families M(e0; r_1, ..., r_k) and the transverse-contact-structure test.

Family members are seifert.NormalizedPresentation values, the one type for
M(e0; r).  The existence test decides the exact rational criterion: with the
three fiber fractions sorted descending, a transverse contact structure
exists iff coprime integers 0 < a < m satisfy m*r1 < a < m*(1 - r2) and
m*r3 < 1.  The least such m is found by one continued-fraction descent, not
by a search.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from ._record import Record
from .errors import CertificateViolation, InvalidParameter, InvalidRange
from .plumbing import MAX_SEARCH_RANK
from .seifert import NormalizedPresentation

__all__ = [
    "TransverseWitness",
    "transverse_contact_exists",
    "mp_family",
    "mpl_family",
]


class TransverseWitness(Record):
    """Witness pair (a, m) for the transverse test, or the exhausted search bound.

    searched_m_below is the exclusive upper bound on the multipliers m that
    were tried (every m with m*r3 < 1).
    """

    a: int | None
    m: int | None
    searched_m_below: int

    @property
    def present(self) -> bool:
        return self.a is not None


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction of least denominator strictly inside (lo, hi), for lo < hi.

    Stern-Brocot descent: strip the common integer part n and go on with the
    reciprocal interval.  The fraction is unique and in lowest terms.
    """
    terms = []
    while (n := floor(lo)) + 1 >= hi and lo != n:
        terms.append(n)
        lo, hi = 1 / (hi - n), 1 / (lo - n)
    x = Fraction(n + 1) if n + 1 < hi else n + Fraction(1, floor(1 / (hi - n)) + 1)
    for n in reversed(terms):
        x = n + 1 / x
    return x


def transverse_contact_exists(data: NormalizedPresentation) -> TransverseWitness:
    """The smallest witness (m, then a) of the transverse criterion.

    Only defined for three fiber fractions, sorted descending internally.  A
    fraction a/m in (r1, 1 - r2) first appears at the least denominator m of
    that interval, as its simplest fraction; if m*r3 >= 1, or r1 + r2 >= 1
    leaves the interval empty, every m with m*r3 < 1 has been exhausted.
    """
    if len(data.r) != 3:
        raise InvalidRange(f"the criterion applies to three singular fibers, got {len(data.r)}")
    r1, r2, r3 = sorted(data.r, reverse=True)
    s = _simplest_between(r1, 1 - r2) if r1 + r2 < 1 else None
    if s is None or s.denominator * r3 >= 1:
        return TransverseWitness(a=None, m=None, searched_m_below=ceil(1 / r3))
    a, m = s.numerator, s.denominator
    witness = TransverseWitness(a=a, m=m, searched_m_below=m + 1)
    if not (0 < a < m and m * r1 < a < m * (1 - r2) and m * r3 < 1):
        raise CertificateViolation(f"witness (a, m) = ({a}, {m}) fails the criterion")
    return witness


def mp_family(p: int) -> NormalizedPresentation:
    """M(-1; (p-1)/p, 1/p, 1/p) for p >= 2."""
    if p < 2:
        raise InvalidParameter(f"p must be >= 2, got {p}")
    return NormalizedPresentation(e0=-1, r=(Fraction(p - 1, p), Fraction(1, p), Fraction(1, p)))


def mpl_family(p: int, ell: int) -> NormalizedPresentation:
    """M(-ell; 1/p, (p-1)/p, 1/p, ..., (p-1)/p, 1/p) with 2*ell + 1 fibers.

    Entries alternate starting and ending with 1/p; ell = 1 recovers the
    three-fiber family above up to reordering.  The fibers are bounded as
    verdict bounds them: InvalidParameter when 2*ell + 2 > MAX_SEARCH_RANK.
    """
    if p < 2:
        raise InvalidParameter(f"p must be >= 2, got {p}")
    if ell < 1:
        raise InvalidParameter(f"ell must be >= 1, got {ell}")
    if 2 * ell + 2 > MAX_SEARCH_RANK:
        raise InvalidParameter(f"ell must be <= {(MAX_SEARCH_RANK - 2) // 2}, got {ell}")
    entries = tuple(Fraction(1, p) if i % 2 == 0 else Fraction(p - 1, p) for i in range(2 * ell + 1))
    return NormalizedPresentation(e0=-ell, r=entries)
