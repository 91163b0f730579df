"""Star-shaped plumbing trees and their intersection forms.

The tree has one central vertex carrying e0 and one leg per singular fiber;
leg j carries the negative continued fraction expansion of a_j / b~_j.
Vertices are ordered center first, then legs in fiber order, each leg from the
center outward, so that index 0 always refers to the central vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, prod

from . import _linalg
from .errors import InvalidRange, SingularMatrix
from .seifert import Multiplicities, NormalizedPresentation

__all__ = [
    "NegContinuedFraction",
    "PlumbingGraph",
    "IntersectionForm",
    "neg_cf",
    "build_plumbing",
    "intersection_form",
    "inverse_first_column",
]


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
    def vertex_order(self) -> tuple[tuple[int, int], ...]:
        """Canonical labels (j, i): (0, 0) is the center, (j, i) is vertex i of leg j (1-based)."""
        labels = [(0, 0)]
        for j, leg in enumerate(self.legs, start=1):
            labels.extend((j, i) for i in range(1, len(leg) + 1))
        return tuple(labels)

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
    """Symmetric integer matrix of the plumbing, with exact determinant and definiteness.

    completion is the square completion (d, u) of -Q in index order, as
    _linalg.cholesky_form returns it, computed once when the form is built;
    it is None exactly when Q is not negative definite.  The determinant, the
    solves with Q and both lattice searches read it.
    """

    Q: tuple[tuple[int, ...], ...]
    det: int
    completion: _linalg.Completion | None = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.Q)

    @property
    def negative_definite(self) -> bool:
        return self.completion is not None

    @classmethod
    def from_matrix(cls, rows) -> "IntersectionForm":
        """Build a form from an explicit symmetric integer matrix.

        With the completion of -Q in hand, det Q = (-1)^m * prod(d); only a
        form that has none (indefinite or singular) needs a separate
        determinant.
        """
        q = tuple(tuple(int(x) for x in row) for row in rows)
        assert all(len(row) == len(q) for row in q), "matrix must be square"
        assert all(q[i][j] == q[j][i] for i in range(len(q)) for j in range(len(q)))
        try:
            completion = _linalg.cholesky_form([[-x for x in row] for row in q])
        except ValueError:
            return cls(Q=q, det=_linalg.bareiss_determinant(q), completion=None)
        det = (-1) ** len(q) * prod(completion[0])
        assert det.denominator == 1, "determinant of an integer matrix is an integer"
        return cls(Q=q, det=int(det), completion=completion)


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


def build_plumbing(norm: NormalizedPresentation, m: Multiplicities) -> PlumbingGraph:
    """Plumbing tree with central weight e0 and leg j carrying neg_cf(a_j, b~_j)."""
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


def inverse_first_column(f: IntersectionForm) -> list[Fraction]:
    """First column of Q^{-1}, exactly, solved through the form's square completion.

    Q x = e1 is re-checked on every row, over the nonzero entries of Q.
    Raises ValueError when the form is not negative definite.
    """
    if f.det == 0:
        raise SingularMatrix("form has determinant zero")
    if f.completion is None:
        raise ValueError("form must be negative definite")
    e1 = [int(i == 0) for i in range(f.m)]
    x = _linalg.solve_completion(*f.completion, [-b for b in e1])
    for i, row in enumerate(f.Q):
        assert sum(q * x[j] for j, q in enumerate(row) if q) == e1[i]
    return x
