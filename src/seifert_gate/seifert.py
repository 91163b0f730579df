"""Seifert invariants of Brieskorn homology spheres.

All arithmetic is exact: multiplicities and coefficients are integers and
fiber fractions ``fractions.Fraction``.  The defining identity
A * sum(b_k / a_k) = 1 is checked once, in integers, where a
SeifertPresentation is built (CertificateViolation, also under python -O);
the normalized invariants and the gluing columns derive from it and hold by
construction.  NormalizedPresentation is the one type for normalized
invariants M(e0; r_1, ..., r_n), also of the small families.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import index
from typing import Iterable

from ._record import Record
from .errors import CertificateViolation, InvalidRange, MultiplicityTooSmall, NotCoprime, TooFewFibers, quoted

__all__ = [
    "Multiplicities",
    "SeifertPresentation",
    "NormalizedPresentation",
    "GluingData",
    "validate_multiplicities",
    "solve_unnormalized",
    "normalize",
    "gluing_data",
]


class Multiplicities(Record):
    """Fiber multiplicities (a_1, ..., a_n): integers (operator.index), n >= 3, each >= 2, pairwise coprime."""

    a: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(map(index, self.a)))
        if len(self.a) < 3:
            raise TooFewFibers(f"need at least 3 multiplicities, got {len(self.a)}")
        for x in self.a:
            if x < 2:
                raise MultiplicityTooSmall(f"multiplicity {quoted(x)} < 2")
        for x, y in combinations(self.a, 2):
            if (g := gcd(x, y)) > 1:
                raise NotCoprime(f"gcd({quoted(x)}, {quoted(y)}) = {quoted(g)} > 1")

    @property
    def product(self) -> int:
        """The exact product A = a_1 * ... * a_n."""
        return prod(self.a)


class SeifertPresentation(Record):
    """Canonical surgery presentation (0; (a_1, b_1), ..., (a_n, b_n)), one b_k per a_k.

    Each b_k is read through operator.index (TypeError for a float), the pairs
    are derived (ValueError if the lengths differ), and the defining identity
    A * sum(b_k / a_k) = 1 is checked as the integer sum sum(b_k * A/a_k) = 1.
    """

    multiplicities: Multiplicities
    coefficients: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    _derived = ("pairs",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(map(index, self.coefficients)))
        object.__setattr__(self, "pairs", tuple(zip(self.multiplicities.a, self.coefficients, strict=True)))
        big_a = self.multiplicities.product
        if sum(bk * (big_a // ak) for ak, bk in self.pairs) != 1:
            b = ", ".join(map(quoted, self.coefficients))
            raise CertificateViolation(f"presentation identity violated: sum(b * A/a) != 1 for b = ({b})")


class NormalizedPresentation(Record):
    """Normalized invariants M(e0; r_1, ..., r_n): e0 an integer, each r_j a Fraction in (0, 1)."""

    e0: int
    r: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "e0", index(self.e0))
        object.__setattr__(self, "r", tuple(self.r))
        if not all(isinstance(rj, Fraction) for rj in self.r):
            raise TypeError(f"fiber fractions {self.r} are not all Fractions")
        if not all(0 < rj < 1 for rj in self.r):
            raise InvalidRange(f"fiber fractions {self.r} are not all in (0, 1)")

    @property
    def tilde_b(self) -> tuple[int, ...]:
        """b~_j = -a_j*r_j in (-a_j, 0), where a_j is r_j's denominator: b~_j is a unit mod a_j."""
        return tuple(-rj.numerator for rj in self.r)


class GluingData(Record):
    """Solid-torus gluing columns: a_i*v_i - b_i*u_i = 1 with 0 < u_i < a_i, as gluing_data builds them."""

    u: tuple[int, ...]
    v: tuple[int, ...]


def validate_multiplicities(raw: Iterable[int]) -> Multiplicities:
    """Check and wrap a list of candidate multiplicities.

    Raises TypeError for an entry that is not an integer (a float or a
    string, say), and TooFewFibers, MultiplicityTooSmall or NotCoprime on bad
    input.
    """
    return Multiplicities(a=raw)


def solve_unnormalized(m: Multiplicities) -> SeifertPresentation:
    """Produce the canonical presentation with b = 0.

    Each b_j starts as the representative of (A/a_j)^(-1) mod a_j in [0, a_j),
    so sum(b_k * A/a_k) is 1 mod A by the Chinese remainder theorem; b_1
    absorbs the surplus, a multiple of A, so the sum is 1 on the nose (the
    presentation checks it).  Deterministic: only b_1 is shifted.
    """
    big_a = m.product
    coeffs = [pow(big_a // aj, -1, aj) for aj in m.a]
    coeffs[0] -= (sum(bj * (big_a // aj) for aj, bj in zip(m.a, coeffs)) - 1) // big_a * m.a[0]
    return SeifertPresentation(multiplicities=m, coefficients=coeffs)


def normalize(p: SeifertPresentation) -> NormalizedPresentation:
    """Normalize a canonical presentation: split each -b_j/a_j into integer and fractional parts.

    e0 = sum(floor(-b_j / a_j)) and r_j = ((-b_j) mod a_j) / a_j, so
    b~_j = -a_j*r_j is the representative of b_j mod a_j in (-a_j, 0).  The
    presentation's identity makes the rest hold without a check: mod a_j it
    says b_j is a unit, so r_j is in (0, 1), and divided by -A it says
    sum(r_j) = -e0 - 1/A.
    """
    e0 = sum((-bj) // aj for aj, bj in p.pairs)
    return NormalizedPresentation(e0=e0, r=tuple(Fraction((-bj) % aj, aj) for aj, bj in p.pairs))


def gluing_data(p: SeifertPresentation) -> GluingData:
    """The columns a_i*v_i - b_i*u_i = 1 with 0 < u_i < a_i for each fiber.

    u_i = -(A/a_i) mod a_i and v_i = (1 + b_i*u_i)/a_i.  The presentation's
    identity mod a_i says b_i*(A/a_i) = 1 mod a_i, so b_i*u_i = -1 mod a_i
    and v_i is an integer; u_i is not 0 because A/a_i is a unit mod a_i.
    """
    big_a = p.multiplicities.product
    us = tuple(-(big_a // ai) % ai for ai in p.multiplicities.a)
    return GluingData(u=us, v=tuple((1 + bi * ui) // ai for (ai, bi), ui in zip(p.pairs, us)))
