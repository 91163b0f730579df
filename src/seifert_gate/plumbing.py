"""Star-shaped plumbing trees and their intersection forms.

The tree has one central vertex carrying e0 and one leg per singular fiber;
leg j carries the negative continued fraction expansion of a_j / b~_j.
Vertices are ordered center first, then legs in fiber order, each leg from the
center outward, so that index 0 always refers to the central vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor

from . import _linalg
from .errors import InvalidRange, RankTooLarge
from .seifert import Multiplicities, NormalizedPresentation

__all__ = [
    "NegContinuedFraction",
    "PlumbingGraph",
    "IntersectionForm",
    "neg_cf",
    "build_plumbing",
    "intersection_form",
]

# The lattice searches recurse once per level, and Python stops at 1000 frames
# by default; 900 leaves room for the frames of the callers.
MAX_SEARCH_RANK = 900


@dataclass(frozen=True)
class NegContinuedFraction:
    """Expansion x = k_1 - 1/(k_2 - 1/(...)) with every k_i <= -2."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        assert self.entries, "empty expansion"
        assert all(k <= -2 for k in self.entries)

    def value(self) -> Fraction:
        """Evaluate the nested fraction back to the rational it expands."""
        x = Fraction(self.entries[-1])
        for k in reversed(self.entries[:-1]):
            x = k - Fraction(1) / x
        return x


@dataclass(frozen=True)
class PlumbingGraph:
    """Star-shaped weighted tree: central weight plus one weight chain per leg."""

    center_weight: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for leg in self.legs:
            assert leg, "empty leg"
            assert all(w <= -2 for w in leg), "leg weights must be <= -2"

    @property
    def size(self) -> int:
        return 1 + sum(len(leg) for leg in self.legs)

    @property
    def weights(self) -> tuple[int, ...]:
        out = [self.center_weight]
        for leg in self.legs:
            out.extend(leg)
        return tuple(out)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Tree edges as index pairs into the canonical vertex order."""
        out = []
        idx = 1
        for leg in self.legs:
            prev = 0
            for _ in leg:
                out.append((prev, idx))
                prev = idx
                idx += 1
        return tuple(out)


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric negative-definite integer matrix of the plumbing, with exact determinant.

    Building one raises RankTooLarge above MAX_SEARCH_RANK, and ValueError
    unless Q is square and symmetric, and unless it is negative definite,
    that is unless its fraction-free elimination of -Q in index order
    (_linalg.eliminate, over rows, the nonzero (j, Q_ij) of each row of Q)
    finds every pivot positive, so no other form exists.  det Q is (-1)^m
    times its last minor; the solves with Q read elimination, and both
    lattice searches levels, its square completion scaled to integers.
    """

    Q: tuple[tuple[int, ...], ...]
    det: int = field(init=False)
    rows: list[list[tuple[int, int]]] = field(init=False, compare=False, repr=False)
    elimination: _linalg.Elimination = field(init=False, compare=False, repr=False)
    levels: _linalg.IntegerLevels = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        q = self.Q
        if any(len(row) != len(q) for row in q):
            raise ValueError("matrix must be square")
        if len(q) > MAX_SEARCH_RANK:
            raise RankTooLarge(f"form of rank {len(q)} is above the search limit {MAX_SEARCH_RANK}")
        if any(q[i][j] != q[j][i] for i in range(len(q)) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in q]
        try:
            elimination = _linalg.eliminate([[(j, -x) for j, x in row] for row in rows])
        except ValueError:
            raise ValueError("form must be negative definite") from None
        object.__setattr__(self, "det", (-1) ** len(q) * elimination[0][-1])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "elimination", elimination)
        object.__setattr__(self, "levels", _linalg.scaled_levels(elimination))

    @property
    def m(self) -> int:
        return len(self.Q)

    @classmethod
    def from_matrix(cls, rows) -> "IntersectionForm":
        """Build a form from an explicit symmetric integer matrix, as tuples of ints."""
        return cls(Q=tuple(tuple(int(x) for x in row) for row in rows))


def neg_cf(numerator: int, denominator: int) -> NegContinuedFraction:
    """Negative continued fraction expansion of numerator/denominator.

    Defined for rationals x < -1, where the expansion with all entries <= -2
    exists and is unique: take k = floor(x) (or x itself when integral) and
    recurse on -1/(x - k).
    """
    x = Fraction(numerator, denominator)
    if x >= -1:
        raise InvalidRange(f"{x} >= -1 has no all-(<= -2) expansion")
    entries = []
    while True:
        if x.denominator == 1:
            entries.append(int(x))
            break
        k = floor(x)
        entries.append(k)
        x = -1 / (x - k)
    out = NegContinuedFraction(entries=tuple(entries))
    assert out.value() == Fraction(numerator, denominator)
    return out


def _leg_length(p: int, q: int) -> int:
    """len(neg_cf(p, -q).entries) for coprime 0 < q < p, without expanding it.

    One step maps -p/q to -q/(k*q - p) with k = ceil(p/q); an entry -2 (k = 2)
    maps (p, q) to (p - d, q - d) with d = p - q, so a run of -2 entries keeps
    d and lasts while d < q: (q - 1) // d steps, counted with one division.
    """
    n = 0
    while q > 1:
        d = p - q
        if d < q:
            t = (q - 1) // d
            p, q, n = p - t * d, q - t * d, n + t
        else:
            p, q, n = q, -(-p // q) * q - p, n + 1
    return n + 1


def build_plumbing(norm: NormalizedPresentation, m: Multiplicities) -> PlumbingGraph:
    """Plumbing tree with central weight e0 and leg j carrying neg_cf(a_j, b~_j).

    RankTooLarge when the tree has more than MAX_SEARCH_RANK vertices, before
    any leg is expanded.
    """
    rank = 1 + sum(_leg_length(aj, -tbj) for aj, tbj in zip(m.a, norm.tilde_b))
    if rank > MAX_SEARCH_RANK:
        raise RankTooLarge(f"form of rank {rank} is above the search limit {MAX_SEARCH_RANK}")
    legs = tuple(
        neg_cf(aj, tbj).entries for aj, tbj in zip(m.a, norm.tilde_b)
    )
    return PlumbingGraph(center_weight=norm.e0, legs=legs)


def intersection_form(g: PlumbingGraph) -> IntersectionForm:
    """Intersection matrix of the plumbing: weights on the diagonal, 1 for each edge."""
    m = g.size
    rows = [[0] * m for _ in range(m)]
    for i, w in enumerate(g.weights):
        rows[i][i] = w
    for a, b in g.edges:
        rows[a][b] = rows[b][a] = 1
    return IntersectionForm.from_matrix(rows)

