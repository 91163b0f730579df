"""Seifert invariants of Brieskorn homology spheres.

All arithmetic is exact: multiplicities are arbitrary-precision integers and
fiber sums are ``fractions.Fraction``.  Every defining identity is checked at
construction time rather than trusted, and a failure raises
CertificateViolation, also under python -O, so an instance of one of these
types is itself a small certificate.  NormalizedPresentation is the one type
for normalized invariants M(e0; r_1, ..., r_n), also of the small families.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import index
from typing import Iterable

from ._record import Record
from .errors import CertificateViolation, InvalidRange, MultiplicityTooSmall, NotCoprime, TooFewFibers

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
    """Fiber multiplicities (a_1, ..., a_n): n >= 3, each >= 2, pairwise coprime."""

    a: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.a) < 3:
            raise TooFewFibers(f"need at least 3 multiplicities, got {len(self.a)}")
        for x in self.a:
            if x < 2:
                raise MultiplicityTooSmall(f"multiplicity {x} < 2")
        for i in range(len(self.a)):
            for j in range(i + 1, len(self.a)):
                g = gcd(self.a[i], self.a[j])
                if g > 1:
                    raise NotCoprime(
                        f"gcd({self.a[i]}, {self.a[j]}) = {g} > 1"
                    )

    @property
    def product(self) -> int:
        """The exact product A = a_1 * ... * a_n."""
        return prod(self.a)


class SeifertPresentation(Record):
    """Canonical surgery presentation (0; (a_1, b_1), ..., (a_n, b_n)), one b_k per a_k.

    The pairs are derived (ValueError if the lengths differ), and the defining
    identity A * sum(b_k / a_k) == 1 is checked exactly.
    """

    multiplicities: Multiplicities
    coefficients: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    _derived = ("pairs",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        object.__setattr__(self, "pairs", tuple(zip(self.multiplicities.a, self.coefficients, strict=True)))
        big_a = self.multiplicities.product
        total = sum(Fraction(bk, ak) for ak, bk in self.pairs)
        if big_a * total != 1:
            raise CertificateViolation(f"presentation identity violated: {big_a}*{total} != 1")


class NormalizedPresentation(Record):
    """Normalized invariants M(e0; r_1, ..., r_n): InvalidRange unless every r_j is in (0, 1)."""

    e0: int
    r: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not all(0 < rj < 1 for rj in self.r):
            raise InvalidRange(f"fiber fractions {self.r} are not all in (0, 1)")

    @property
    def tilde_b(self) -> tuple[int, ...]:
        """b~_j = -a_j*r_j in (-a_j, 0), where a_j is r_j's denominator: b~_j is a unit mod a_j."""
        return tuple(-rj.numerator for rj in self.r)


class GluingData(Record):
    """Solid-torus gluing columns: a_i*v_i - b_i*u_i = 1 with 0 < u_i < a_i."""

    u: tuple[int, ...]
    v: tuple[int, ...]


def validate_multiplicities(raw: Iterable[int]) -> Multiplicities:
    """Check and wrap a list of candidate multiplicities.

    Raises TypeError for an entry that is not an integer (a float or a
    string, say), and TooFewFibers, MultiplicityTooSmall or NotCoprime on bad
    input.
    """
    return Multiplicities(a=tuple(index(x) for x in raw))


def solve_unnormalized(m: Multiplicities) -> SeifertPresentation:
    """Produce the canonical presentation with b = 0.

    Each b_j starts as the representative of (A/a_j)^(-1) mod a_j in [0, a_j);
    the surplus is then absorbed into b_1 so that sum(b_k * A/a_k) == 1 holds
    on the nose.  The choice is deterministic: only b_1 is shifted.
    """
    big_a = m.product
    coeffs = []
    for aj in m.a:
        cofactor = big_a // aj
        coeffs.append(pow(cofactor, -1, aj) % aj)
    total = sum(bj * (big_a // aj) for bj, aj in zip(coeffs, m.a))
    shift, rem = divmod(total - 1, big_a)
    if rem != 0:
        raise CertificateViolation("the residue sum is not 1 mod A")
    coeffs[0] -= shift * m.a[0]
    return SeifertPresentation(multiplicities=m, coefficients=coeffs)


def normalize(p: SeifertPresentation) -> NormalizedPresentation:
    """Normalize a canonical presentation.

    b~_j is the representative of b_j mod a_j in (-a_j, 0) and
    e0 = sum(floor(-b_j / a_j)).  The identity
    sum(r_j) == -e0 - 1/A is checked exactly.
    """
    tilde = []
    for aj, bj in p.pairs:
        res = bj % aj
        if res == 0:
            raise CertificateViolation(f"b = {bj} is not a unit mod a = {aj}")
        tilde.append(res - aj)
    e0 = sum((-bj) // aj for aj, bj in p.pairs)
    r = tuple(Fraction(-tb, aj) for tb, (aj, _) in zip(tilde, p.pairs))
    big_a = p.multiplicities.product
    if sum(r) != -e0 - Fraction(1, big_a):
        raise CertificateViolation(f"sum(r) = {sum(r)} is not -e0 - 1/A for e0 = {e0}, A = {big_a}")
    return NormalizedPresentation(e0=e0, r=r)


def gluing_data(p: SeifertPresentation) -> GluingData:
    """Solve a_i*v_i - b_i*u_i = 1 with 0 < u_i < a_i for each fiber.

    solve_unnormalized makes b_i = (A/a_i)^(-1) mod a_i (b_1's shift is a
    multiple of a_1), so u_i = -b_i^(-1) = -(A/a_i) mod a_i.  The identity is
    then checked, which re-checks b_i against A/a_i.
    """
    big_a = p.multiplicities.product
    us, vs = [], []
    for ai, bi in p.pairs:
        ui = -(big_a // ai) % ai
        vi, rem = divmod(1 + bi * ui, ai)
        if rem != 0 or not 0 < ui < ai:
            raise CertificateViolation(f"no column a*v - b*u = 1 with 0 < u < a for (a, b) = ({ai}, {bi})")
        us.append(ui)
        vs.append(vi)
    return GluingData(u=tuple(us), v=tuple(vs))
