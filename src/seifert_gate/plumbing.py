"""Star-shaped plumbing trees and their intersection forms.

The tree has one central vertex carrying e0 and one leg per singular fiber;
leg j carries the negative continued fraction expansion of a_j / b~_j.
Vertices are ordered center first, then legs in fiber order, each leg from the
center outward, so that index 0 always refers to the central vertex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from operator import lt
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
# pairwise gcds are O(n^2): 1.5 s for the first 4000 primes.  The form build is
# bounded only in part: its centre-first elimination fills a star densely, and
# stars with n one-vertex legs took 0.12, 1.1, 12.5 and 187 s for n = 100, 200,
# 400 and 800 (the first 80 primes, rank 671, took 1.5 s).
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
    """Symmetric negative-definite integer form of the plumbing, with exact determinant.

    rows, the only input a form is built from, lists the nonzero (j, Q_ij) of
    each row of Q in strictly increasing j.  Building one raises RankTooLarge
    above MAX_SEARCH_RANK, and ValueError unless rows is nonempty, so written
    and symmetric, and unless the form is negative definite, that is unless
    its fraction-free elimination of -Q in index order (_linalg.eliminate)
    finds every pivot positive, so no other form exists.  rows is kept as
    tuples, as is all that is derived from it, so no check goes stale and a
    form hashes.
    Of that elimination the form keeps minors and levels, its integer square
    completion, read by both searches and every solve; det Q is (-1)^m minors[-1].
    diagonal keeps the Q_ii (none is 0 on a definite form), upper the nonzeros
    above them as three parallel tuples (i, j, Q_ij), split the nonzeros of
    all rows, in row order, as (columns, entries, row lengths).
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]
    det: int
    minors: tuple[int, ...]
    levels: _linalg.IntegerLevels
    diagonal: tuple[int, ...]
    upper: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    split: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    _derived = ("det", "minors", "levels", "diagonal", "upper", "split")
    _uncompared = ("minors", "levels", "diagonal", "upper", "split")

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("form must have rank at least 1")
        if len(self.rows) > MAX_SEARCH_RANK:
            raise RankTooLarge(f"form of rank {len(self.rows)} is above the search limit {MAX_SEARCH_RANK}")
        rows = tuple([tuple(map(tuple, row)) for row in self.rows])
        object.__setattr__(self, "rows", rows)
        for i, row in enumerate(rows):
            cols = [j for j, x in row if x]
            if len(cols) != len(row) or not all(map(lt, cols, cols[1:])):
                raise ValueError(f"row {i} must list nonzero entries in strictly increasing columns")
        upper = [(i, j, x) for i, row in enumerate(rows) for j, x in row if j > i]
        if set(upper) != {(j, i, x) for i, row in enumerate(rows) for j, x in row if j < i}:
            raise ValueError("matrix must be symmetric")
        try:
            minors, levels = _linalg.eliminate([[(j, -x) for j, x in row] for row in rows])
        except ValueError:
            raise ValueError("form must be negative definite") from None
        object.__setattr__(self, "det", (-1) ** len(rows) * minors[-1])
        object.__setattr__(self, "minors", minors)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "diagonal", tuple(x for i, row in enumerate(rows) for j, x in row if j == i))
        object.__setattr__(self, "upper", tuple(zip(*upper)) if upper else ((), (), ()))
        nonzeros = [entry for row in rows for entry in row]
        cols, coefs = zip(*nonzeros)  # a definite form has every Q_ii
        object.__setattr__(self, "split", (cols, coefs, tuple(map(len, rows))))

    @property
    def m(self) -> int:
        return len(self.rows)


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

    The sparse rows are written while the legs are walked, in O(m); no dense
    matrix is built.  A vertex's inner neighbour comes before it and its outer
    one after, so every row comes out sorted.
    """
    rows = [[(0, g.center_weight)]]
    for leg in g.legs:
        prev = 0
        for w in leg:
            i = len(rows)
            rows[prev].append((i, 1))
            rows.append([(prev, 1), (i, w)])
            prev = i
    return IntersectionForm(rows=rows)
