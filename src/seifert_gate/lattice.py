"""Exact lattice computations on negative-definite unimodular forms.

Three searches live here, all running in integer/rational arithmetic with a
configurable node cap:

* enumeration of the vectors of self-intersection -1 (bounded search on the
  rational square completion of -Q that the form carries);
* assembly of an orthonormal change of basis from those vectors, which for a
  unimodular negative-definite form exists exactly when the form is
  diagonalizable over the integers;
* a branch-and-bound minimum over the characteristic coset, which gives the
  correction-term invariant of the boundary under the sharpness hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Sequence

from . import _linalg
from .errors import EnumerationCapExceeded, NotDiagonalizable
from .plumbing import IntersectionForm, inverse_first_column

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DiagonalizationCertificate",
    "CharacteristicVector",
    "DualClass",
    "norm_minus_one_vectors",
    "diagonalize",
    "dual_class",
    "max_sharp_pairing",
    "d_invariant",
]

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class DiagonalizationCertificate:
    """Either a unimodular E with E^T Q E = -I, or a proof-of-absence witness.

    units are all vectors of self-intersection -1 (one per +-pair, as
    norm_minus_one_vectors returns them) and nodes the search nodes their
    enumeration spent.  When absent, norm_one_count and span_rank describe the
    exhaustive search: how many such vectors exist and the rank of their span.
    """

    E: tuple[tuple[int, ...], ...] | None
    units: tuple[tuple[int, ...], ...]
    nodes: int

    @property
    def present(self) -> bool:
        return self.E is not None

    @property
    def norm_one_count(self) -> int:
        return len(self.units)

    # diagonalize checks the units pairwise orthogonal, so they are independent
    span_rank = norm_one_count


@dataclass(frozen=True)
class CharacteristicVector:
    """Integer vector in the hom-dual basis with kappa_i = Q_ii mod 2."""

    kappa: tuple[int, ...]

    def is_characteristic_for(self, form: IntersectionForm) -> bool:
        return len(self.kappa) == form.m and all(
            (k - form.Q[i][i]) % 2 == 0 for i, k in enumerate(self.kappa)
        )


@dataclass(frozen=True)
class DualClass:
    """The class pairing to delta_{1j} with the vertex basis: coefficients Q^{-1} e_1."""

    D: tuple[Fraction, ...]
    self_intersection: Fraction


def _require_neg_def_unimodular(form: IntersectionForm) -> None:
    if not form.negative_definite:
        raise ValueError("form must be negative definite")
    if abs(form.det) != 1:
        raise ValueError(f"form must be unimodular, det = {form.det}")


class _NodeBudget:
    """Counts search nodes against a cap; a start above the cap raises at once."""

    def __init__(self, cap: int, used: int = 0):
        self.cap = cap
        self.used = used
        self._check()

    def spend(self) -> None:
        self.used += 1
        self._check()

    def _check(self) -> None:
        if self.used > self.cap:
            raise EnumerationCapExceeded(
                f"lattice search exceeded {self.cap} nodes"
            )


def _fixed_norm_enumeration(form: IntersectionForm, budget: _NodeBudget) -> list[tuple[int, ...]]:
    """Bounded search for all v with v^T Q v = -1, one per +-pair."""
    m = form.m
    d, u = form.completion
    found: list[tuple[int, ...]] = []
    x = [0] * m

    def descend(level: int, remaining: Fraction, leading_zero: bool) -> None:
        if level < 0:
            if remaining == 0 and not leading_zero:
                found.append(tuple(x))
            return
        shift = sum(uj * x[j] for j, uj in u[level])
        radicand = remaining / d[level]
        hi = _linalg.floor_add_sqrt(-shift, radicand)
        lo = 0 if leading_zero else _linalg.ceil_sub_sqrt(-shift, radicand)
        for xi in range(lo, hi + 1):
            budget.spend()
            term = d[level] * (xi + shift) ** 2
            if term > remaining:
                continue
            x[level] = xi
            descend(level - 1, remaining - term, leading_zero and xi == 0)
        x[level] = 0

    descend(m - 1, Fraction(1), True)
    normalized = []
    for v in found:
        lead = next(c for c in v if c != 0)
        normalized.append(v if lead > 0 else tuple(-c for c in v))
    return sorted(normalized, reverse=True)


def norm_minus_one_vectors(
    form: IntersectionForm, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[int, ...]]:
    """All integer v with v^T Q v = -1, one representative per +-pair.

    Output is sign-normalized (first nonzero coordinate positive) and sorted
    in descending lexicographic order, so unit vectors come out as the
    identity when the form is already diagonal.  Raises
    EnumerationCapExceeded if the bounded search visits more than ``cap``
    nodes.
    """
    if not form.negative_definite:
        raise ValueError("enumeration requires a negative definite form")
    return _fixed_norm_enumeration(form, _NodeBudget(cap))


def _images(form: IntersectionForm, vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Q w for each w in vectors, over the nonzero entries of Q only."""
    q = [[(j, x) for j, x in enumerate(row) if x] for row in form.Q]
    return [[sum(x * w[j] for j, x in row) for row in q] for w in vectors]


def _pairing(v: Sequence[int], qw: Sequence[int]) -> int:
    """v^T Q w, given the image Q w."""
    return sum(a * b for a, b in zip(v, qw) if a)


def _is_orthonormal(form: IntersectionForm, vectors: Sequence[Sequence[int]]) -> bool:
    """Whether the vectors lie in Z^m and their whole Gram matrix Q(v_i, v_j) is -I."""
    if any(len(v) != form.m for v in vectors):
        return False
    images = _images(form, vectors)
    return all(
        _pairing(v, images[j]) == (-1 if i == j else 0)
        for i, v in enumerate(vectors)
        for j in range(i, len(vectors))
    )


def diagonalize(
    form: IntersectionForm, cap: int = DEFAULT_ENUMERATION_CAP
) -> DiagonalizationCertificate:
    """Decide integral diagonalizability of a unimodular negative definite form.

    Distinct vectors of self-intersection -1 are automatically orthogonal
    (Cauchy-Schwarz forces |Q(v, w)| < 1), so the form is equivalent to -I
    exactly when the enumeration yields m of them.  In that case the columns
    of E are those vectors, and E^T Q E = -I is re-verified entry by entry.
    The certificate keeps the vectors and the nodes spent on them, so
    d_invariant can reuse them.
    """
    _require_neg_def_unimodular(form)
    m = form.m
    budget = _NodeBudget(cap)
    units = tuple(_fixed_norm_enumeration(form, budget))
    # the Gram matrix of the units; with m of them it is E^T Q E
    assert _is_orthonormal(form, units), "norm -1 vectors must be pairwise orthogonal"
    if len(units) != m:
        return DiagonalizationCertificate(E=None, units=units, nodes=budget.used)
    e = tuple(tuple(units[j][i] for j in range(m)) for i in range(m))
    assert abs(_linalg.bareiss_determinant(e)) == 1
    return DiagonalizationCertificate(E=e, units=units, nodes=budget.used)


def dual_class(form: IntersectionForm) -> DualClass:
    """Coefficients of the class dual to the central vertex, with its self-intersection.

    Raises ValueError unless the form is negative definite.
    """
    column = inverse_first_column(form)
    return DualClass(D=tuple(column), self_intersection=column[0])


def max_sharp_pairing(cert: DiagonalizationCertificate, dual: DualClass) -> int:
    """Maximum pairing of a sharp characteristic vector with the dual class.

    In an orthonormal basis the sharp vectors have all coefficients +-1, so
    the maximum is the L1 norm of the first row of E.  Sanity identities
    (L2 norm squared equals -D.D, parity, lower bound) are asserted.
    """
    if not cert.present:
        raise NotDiagonalizable("no orthonormal basis exists for this form")
    assert cert.E is not None
    first_row = cert.E[0]
    p = sum(abs(e) for e in first_row)
    big_a = -dual.self_intersection
    assert sum(e * e for e in first_row) == big_a
    assert big_a.denominator == 1
    a_int = int(big_a)
    assert p * p >= a_int and (p - a_int) % 2 == 0
    return p


def _quadratic_value(g: list[list[Fraction]], v: list[int]) -> Fraction:
    total = Fraction(0)
    m = len(v)
    for i in range(m):
        if v[i] == 0:
            continue
        total += g[i][i] * v[i] * v[i]
        for j in range(i + 1, m):
            if v[j]:
                total += 2 * g[i][j] * v[i] * v[j]
    return total


def _greedy_descent(g: list[list[Fraction]], v: list[int]) -> list[int]:
    """Coordinate descent by +-2 steps; keeps the coset, only improves the seed."""
    best = _quadratic_value(g, v)
    improved = True
    while improved:
        improved = False
        for i in range(len(v)):
            for step in (2, -2):
                v[i] += step
                val = _quadratic_value(g, v)
                if val < best:
                    best = val
                    improved = True
                else:
                    v[i] -= step
    return v


def _characteristic_parity(form: IntersectionForm) -> list[int]:
    """Parity vector of Q^{-1} * diag(Q), which indexes the characteristic coset.

    A covector kappa is characteristic iff z = Q^{-1} kappa (an integer vector,
    since |det Q| = 1) satisfies z = Q^{-1} diag(Q) mod 2, and then
    kappa^T Q^{-1} kappa = z^T Q z.  Substituting moves the search from the
    dual form, whose entries grow like the product of the multiplicities, to
    the primal form with its small banded entries.
    """
    minus_diag = [-form.Q[i][i] for i in range(form.m)]  # (-Q) w = -diag(Q)
    w = _linalg.solve_completion(*form.completion, minus_diag)
    assert all(x.denominator == 1 for x in w)
    return [int(x) % 2 for x in w]


def _coset_minimum(form: IntersectionForm, budget: _NodeBudget) -> Fraction:
    """Exact minimum of z^T(-Q)z over the characteristic coset z = Q^{-1}diag(Q) mod 2.

    Branch and bound over the form's square completion of -Q, in zig-zag
    order: nearest coset point first, then outward; each side of a level is
    monotone in the partial value, so a failed side stays failed even as the
    incumbent shrinks.
    """
    m = form.m
    g = [[Fraction(-x) for x in row] for row in form.Q]
    d, u = form.completion
    parity = _characteristic_parity(form)
    seed = _greedy_descent(g, parity[:])
    best = _quadratic_value(g, seed)
    x = [0] * m
    half = Fraction(1, 2)

    def descend(level: int, acc: Fraction) -> None:
        nonlocal best
        if level < 0:
            if acc < best:
                best = acc
            return
        shift = sum(uj * x[j] for j, uj in u[level])
        center = -shift
        nearest = parity[level] + 2 * floor((center - parity[level]) / 2 + half)
        lo, hi = nearest - 2, nearest + 2
        budget.spend()
        term = d[level] * (nearest + shift) ** 2
        if acc + term < best:
            x[level] = nearest
            descend(level - 1, acc + term)
        lo_alive = hi_alive = True
        while lo_alive or hi_alive:
            if lo_alive and (not hi_alive or center - lo <= hi - center):
                xi, is_lo = lo, True
            else:
                xi, is_lo = hi, False
            budget.spend()
            term = d[level] * (xi + shift) ** 2
            if acc + term < best:
                x[level] = xi
                descend(level - 1, acc + term)
                if is_lo:
                    lo -= 2
                else:
                    hi += 2
            elif is_lo:
                lo_alive = False
            else:
                hi_alive = False
        x[level] = 0

    descend(m - 1, Fraction(0))
    return best


def _split_off_units(
    form: IntersectionForm, units: Sequence[Sequence[int]]
) -> IntersectionForm:
    """Gram matrix of the orthogonal complement of the (-1)-vectors inside Z^m.

    The complement lattice is the image of the integral projection
    x -> x + sum_i Q(x, u_i) u_i; a basis comes from echelon-reducing the
    projected standard basis.  The complement is again unimodular and
    negative definite, now with no (-1)-vectors at all.
    """
    m = form.m
    images = _images(form, units)
    projected = []
    for i in range(m):
        x = [int(i == j) for j in range(m)]
        for uvec, qu in zip(units, images):
            p = qu[i]  # Q(e_i, u)
            for j in range(m):
                x[j] += p * uvec[j]
        projected.append(x)
    basis = _linalg.row_lattice_basis(projected)
    assert len(basis) == m - len(units)
    basis_images = _images(form, basis)
    gram = [[_pairing(a, qb) for qb in basis_images] for a in basis]
    sub = IntersectionForm.from_matrix(gram)
    assert abs(sub.det) == 1 and sub.negative_definite
    return sub


def d_invariant(
    form: IntersectionForm,
    cap: int = DEFAULT_ENUMERATION_CAP,
    cert: DiagonalizationCertificate | None = None,
) -> Fraction:
    """Correction term d = max over characteristic kappa of (kappa^T Q^{-1} kappa + m)/4.

    Computed exactly as a closest-vector search over the characteristic
    coset.  The (-1)-vectors are split off first: on the diagonal summand
    every characteristic vector already attains the optimum, so the search
    only runs on the unit-free orthogonal complement, whose coset minimum is
    then shifted by the number of split-off units.  Reported under the
    sharpness hypothesis, which holds for the star-shaped negative-definite
    plumbings produced by this package.

    The (-1)-vectors, and the nodes spent on them where the count starts, come
    from diagonalize's certificate: one made here, or the one passed, whose
    vectors must be orthonormal in this form (else ValueError).
    """
    _require_neg_def_unimodular(form)
    m = form.m
    if cert is None:
        cert = diagonalize(form, cap)
    elif cert.nodes < 0 or not _is_orthonormal(form, cert.units):
        raise ValueError("certificate does not belong to this form")
    budget = _NodeBudget(cap, cert.nodes)
    k = len(cert.units)
    if k == m:
        return Fraction(0)
    if k > 0:
        sub = _split_off_units(form, cert.units)
        best = k + _coset_minimum(sub, budget)
    else:
        best = _coset_minimum(form, budget)
    return (m - best) / 4
