"""Star-shaped plumbing trees and their intersection forms.

The tree has one central vertex carrying e0 and one leg per singular fiber;
leg j carries the negative continued fraction expansion of a_j / b~_j.
Vertices are ordered center first, then legs in fiber order, each leg from the
center outward, so that index 0 always refers to the central vertex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, prod
from operator import index, lt
from typing import Iterator, Sequence

from . import _linalg
from ._record import Record
from .errors import CertificateViolation, DivisionByZero, InvalidRange, RankTooLarge
from .seifert import NormalizedPresentation

__all__ = [
    "PlumbingGraph",
    "IntersectionForm",
    "neg_cf",
    "build_plumbing",
    "intersection_form",
    "tree_rank",
]

# The searches need no call stack; the limit bounds what grows with the rank m
# (measured on 2 CPUs, Python 3.11.7).  The report is O(m^2): E makes 2.4 MB of
# JSON at m = 891.  The fiber count n is refused before validation, whose
# pairwise gcds are O(n^2): 1.5 s for the first 4000 primes.  The form build
# eliminates a star from its legs' continuants: 0.02-0.04 s for n = 800 one-vertex
# legs, 0.41-0.53 s for the first 80 primes (rank 671) and 0.94-0.98 s for the
# first 98 (rank 866), mostly for the levels' common scale.
MAX_SEARCH_RANK = 900


class PlumbingGraph(Record):
    """Star-shaped weighted tree: central weight plus one weight chain per leg."""

    center_weight: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for leg in self.legs:
            if not leg:
                raise ValueError("empty leg")
            if max(leg) > -2:
                raise ValueError(f"leg weights must be <= -2, got {leg}")


class IntersectionForm(Record):
    """Negative-definite integer form of the plumbing, with exact determinant.

    A form takes only its independent entries: diagonal, the Q_ii, and upper,
    the nonzero Q_ij with i < j as parallel tuples (i, j, Q_ij) in strictly
    increasing (i, j), so Q is symmetric by construction.  Each entry is read
    through operator.index, numpy's too, and kept as an int in tuples, so no
    check goes stale and a form hashes.  Building one raises RankTooLarge
    above MAX_SEARCH_RANK, and ValueError for an empty diagonal, a malformed
    upper, or unless -Q's fraction-free elimination in index order
    (_linalg.eliminate) finds every pivot positive, that is unless Q is
    negative definite, so no other form exists.  A star in the order
    intersection_form writes is eliminated from its legs' continuants, any
    other form by Bareiss steps, to the same minors and levels, which the form
    keeps: its integer square completion, read by both searches and every
    solve.  det Q is (-1)^m minors[-1].
    """

    diagonal: tuple[int, ...]
    upper: _linalg.Upper
    minors: tuple[int, ...]
    levels: _linalg.IntegerLevels
    _derived = _uncompared = ("minors", "levels")

    def __post_init__(self) -> None:
        m = len(self.diagonal)
        if not m:
            raise ValueError("form must have rank at least 1")
        if m > MAX_SEARCH_RANK:
            raise RankTooLarge(f"form of rank {m} is above the search limit {MAX_SEARCH_RANK}")
        diagonal = tuple(map(index, self.diagonal))
        lo, hi, entries = upper = tuple([tuple(map(index, part)) for part in self.upper])
        keys = list(zip(lo, hi))
        if not (len(lo) == len(hi) == len(entries) and all(entries) and all(map(lt, keys, keys[1:]))
                and all(map(lt, lo, hi)) and 0 <= min(lo, default=0) and max(hi, default=0) < m):
            raise ValueError("upper must list nonzero Q_ij, 0 <= i < j < m, in strictly increasing (i, j)")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "upper", upper)
        try:
            minors, levels = _linalg.eliminate(diagonal, upper)
        except ValueError:
            raise ValueError("form must be negative definite") from None
        object.__setattr__(self, "minors", minors)
        object.__setattr__(self, "levels", levels)

    @property
    def m(self) -> int:
        return len(self.diagonal)

    @property
    def det(self) -> int:
        return (-1) ** self.m * self.minors[-1]


def _evaluate_cf(entries: tuple[int, ...]) -> tuple[int, int]:
    """(p, q) with p/q = k_1 - 1/(k_2 - 1/(...)), evaluated from the last entry inward.

    k - 1/(p/q) = (k p - q)/p; the pair is not sign-normalized.
    """
    p, q = entries[-1], 1
    for k in reversed(entries[:-1]):
        p, q = k * p - q, p
    return p, q


def _cf_runs(p: int, q: int) -> Iterator[tuple[int, int]]:
    """(entry, count) runs of the negative continued fraction of -p/q, coprime 0 < q < p.

    One step maps -p/q to -q/(k*q - p) with k = ceil(p/q), entry -k, and ends
    at q = 1 with the entry -p.  An entry -2 (k = 2) maps (p, q) to
    (p - d, q - d) with d = p - q, so a run of -2 entries keeps d and lasts
    while d < q: (q - 1) // d steps, counted with one division.
    """
    while q > 1:
        d = p - q
        if d < q:
            t = (q - 1) // d
            yield -2, t
            p, q = p - t * d, q - t * d
        else:
            k = -(-p // q)
            yield -k, 1
            p, q = q, k * q - p
    yield -p, 1


def neg_cf(numerator: int, denominator: int) -> tuple[int, ...]:
    """Entries of the negative continued fraction expansion of numerator/denominator.

    Defined for rationals x < -1, where the expansion with all entries <= -2
    exists and is unique: take k = floor(x) (or x itself when integral) and
    recurse on -1/(x - k).  The pair is reduced to p/q, q > 0, and expanded
    from its runs (_cf_runs); the expansion is evaluated back and compared
    with the input, CertificateViolation if they differ.
    """
    if denominator == 0:
        raise DivisionByZero(f"{numerator}/0 has no expansion")
    p, q = (numerator, denominator) if denominator > 0 else (-numerator, -denominator)
    if p >= -q:
        raise InvalidRange(f"{Fraction(p, q)} >= -1 has no all-(<= -2) expansion")
    g = gcd(p, q)
    out = tuple(k for k, t in _cf_runs(-p // g, q // g) for _ in range(t))
    num, den = _evaluate_cf(out)
    if num * denominator != numerator * den:
        raise CertificateViolation(f"expansion {out} does not evaluate to {numerator}/{denominator}")
    return out


def build_plumbing(norm: NormalizedPresentation) -> PlumbingGraph:
    """Plumbing tree with central weight e0 and leg j carrying neg_cf(a_j, b~_j).

    a_j is r_j's denominator and b~_j = -a_j*r_j its negated numerator.
    RankTooLarge when the tree has more than MAX_SEARCH_RANK vertices, counted
    from the legs' runs before any leg is expanded.
    """
    rank = 1 + sum(t for rj in norm.r for _, t in _cf_runs(rj.denominator, rj.numerator))
    if rank > MAX_SEARCH_RANK:
        raise RankTooLarge(f"form of rank {rank} is above the search limit {MAX_SEARCH_RANK}")
    legs = tuple(neg_cf(rj.denominator, -rj.numerator) for rj in norm.r)
    return PlumbingGraph(center_weight=norm.e0, legs=legs)


def tree_rank(a: Sequence[int]) -> int:
    """Rank of the form verdict(a) builds, counted from the legs' runs as
    build_plumbing counts them, with no form, presentation or leg built; 0
    when verdict refuses a before it builds a form.

    r_j's numerator is a_j - b_j with b_j = (A/a_j)^(-1) mod a_j
    (solve_unnormalized, normalize).  The inverse exists for every j exactly
    when the a_j are pairwise coprime, so validation costs n big-integer
    divisions and inverses, not the n^2 gcds of Multiplicities.
    """
    if not 3 <= len(a) < MAX_SEARCH_RANK or min(a) < 2:
        return 0
    big_a = prod(a)
    try:
        rank = 1 + sum(t for aj in a for _, t in _cf_runs(aj, aj - pow(big_a // aj, -1, aj)))
    except ValueError:  # (A/a_j) has no inverse mod a_j
        return 0
    return rank if rank <= MAX_SEARCH_RANK else 0


def intersection_form(g: PlumbingGraph) -> IntersectionForm:
    """Intersection form of the plumbing: weights on the diagonal, 1 for each edge.

    The edges are written from the legs' lengths, in O(m): the centre's first,
    then each leg's from the centre outward, so their keys come out in
    increasing (i, j); no dense matrix is built.
    """
    diagonal = (g.center_weight, *chain.from_iterable(g.legs))
    starts = list(accumulate(map(len, g.legs), initial=1))[:-1]
    inner = [j for s, leg in zip(starts, g.legs) for j in range(s + 1, s + len(leg))]
    lo = (0,) * len(starts) + tuple([j - 1 for j in inner])
    return IntersectionForm(diagonal, (lo, (*starts, *inner), (1,) * (len(diagonal) - 1)))
