"""Small Seifert families and the transverse-contact-structure test.

The existence test is a finite exhaustive search over the exact rational
criterion: with the three fiber fractions sorted descending, a transverse
contact structure exists iff coprime integers 0 < a < m satisfy
m*r1 < a < m*(1 - r2) and m*r3 < 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd

from .errors import InvalidParameter

__all__ = [
    "SmallSeifertData",
    "TransverseWitness",
    "transverse_contact_exists",
    "mp_family",
    "mpl_family",
    "theta_invariant",
]


@dataclass(frozen=True)
class SmallSeifertData:
    """Seifert data M(e; r_1, ..., r_k) with every r_i in (0, 1)."""

    e: int
    r: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        assert all(0 < ri < 1 for ri in self.r)


@dataclass(frozen=True)
class TransverseWitness:
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


def transverse_contact_exists(data: SmallSeifertData) -> TransverseWitness:
    """Search for the smallest witness (m, then a) of the transverse criterion.

    Only defined for three fiber fractions; they are sorted descending
    internally, so the result does not depend on their order.  When
    r1 + r2 >= 1 every interval (m*r1, m*(1 - r2)) is empty, and the search
    is exhausted at once, with the same bound the loop would reach.
    """
    assert len(data.r) == 3, "criterion applies to three singular fibers"
    r1, r2, r3 = sorted(data.r, reverse=True)
    if r1 + r2 >= 1:
        return TransverseWitness(a=None, m=None, searched_m_below=ceil(1 / r3))
    m = 1
    while m * r3 < 1:
        lower = m * r1
        upper = m * (1 - r2)
        a = int(lower) + 1  # smallest integer strictly above lower
        while a < upper:
            if 0 < a < m and gcd(a, m) == 1:
                witness = TransverseWitness(a=a, m=m, searched_m_below=m + 1)
                assert m * r1 < a < m * (1 - r2) and m * r3 < 1
                return witness
            a += 1
        m += 1
    return TransverseWitness(a=None, m=None, searched_m_below=m)


def mp_family(p: int) -> SmallSeifertData:
    """M(-1; (p-1)/p, 1/p, 1/p) for p >= 2."""
    if p < 2:
        raise InvalidParameter(f"p must be >= 2, got {p}")
    return SmallSeifertData(
        e=-1, r=(Fraction(p - 1, p), Fraction(1, p), Fraction(1, p))
    )


def mpl_family(p: int, ell: int) -> SmallSeifertData:
    """M(-ell; 1/p, (p-1)/p, 1/p, ..., (p-1)/p, 1/p) with 2*ell + 1 fibers.

    Entries alternate starting and ending with 1/p; ell = 1 recovers the
    three-fiber family above up to reordering.
    """
    if p < 2:
        raise InvalidParameter(f"p must be >= 2, got {p}")
    if ell < 1:
        raise InvalidParameter(f"ell must be >= 1, got {ell}")
    entries = tuple(
        Fraction(1, p) if i % 2 == 0 else Fraction(p - 1, p)
        for i in range(2 * ell + 1)
    )
    return SmallSeifertData(e=-ell, r=entries)


def theta_invariant(c1_sq: int, sigma: int, chi: int) -> int:
    """Homotopy invariant of a filling's plane field: c1^2 - 3*sigma - 2*chi."""
    return c1_sq - 3 * sigma - 2 * chi
