"""Exact lattice computations on negative-definite unimodular forms.

Two searches live here, each bounded by a configurable node cap, plus the
assembly between them:

* enumeration of the vectors of self-intersection -1 (bounded search on the
  square completion of -Q, walking each level outward from its nearest
  integer until the square term exceeds what is left);
* assembly of an orthonormal change of basis from those vectors, which for a
  unimodular negative-definite form exists exactly when the form is
  diagonalizable over the integers;
* a branch-and-bound minimum over the characteristic coset of the vectors'
  orthogonal complement, which gives the correction-term invariant of the
  boundary under the sharpness hypothesis.

Both searches read form.levels, that completion scaled to integers from the
form's one fraction-free elimination, so every level is compared in integers
and no Fraction arithmetic runs inside them.

Forms are negative definite and of rank at most plumbing.MAX_SEARCH_RANK,
and certificates unimodular, by construction: the entry points check nothing.
The identities the results must satisfy are checked where they are derived,
and a failure raises CertificateViolation, also under python -O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import _linalg
from .errors import CertificateViolation, EnumerationCapExceeded, NotDiagonalizable
from .plumbing import IntersectionForm

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "DiagonalizationCertificate",
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

    units are all vectors of self-intersection -1 of form (one per +-pair, as
    norm_minus_one_vectors returns them), nodes the search nodes their
    enumeration spent.  Building one checks |det Q| = 1 and that the units
    lie in Z^m with Q(u, u) = -1, no two equal up to sign (else ValueError);
    as -Q is positive definite, Cauchy-Schwarz then makes their Gram matrix
    -I, so they are independent: present when there are m of them, the
    columns of E; otherwise their number is the witness of the search.
    """

    form: IntersectionForm = field(compare=False, repr=False)
    units: tuple[tuple[int, ...], ...]
    nodes: int

    def __post_init__(self) -> None:
        if self.nodes < 0:
            raise ValueError(f"node count must be >= 0, got {self.nodes}")
        if abs(self.form.det) != 1:
            raise ValueError(f"form must be unimodular, det = {self.form.det}")
        m = self.form.m
        if not all(len(v) == m and all(isinstance(c, int) for c in v) for v in self.units):
            raise ValueError(f"units must be integer vectors of length {m}")
        if any(_pairing(v, qv) != -1 for v, qv in zip(self.units, _images(self.form, self.units))):
            raise ValueError("units must have self-intersection -1")
        if len({max(v, tuple(-c for c in v)) for v in self.units}) != len(self.units):
            raise ValueError("units must be distinct up to sign")

    @property
    def present(self) -> bool:
        return len(self.units) == self.form.m

    @property
    def E(self) -> tuple[tuple[int, ...], ...] | None:
        return tuple(zip(*self.units)) if self.present else None


@dataclass(frozen=True)
class DualClass:
    """The class pairing to delta_{1j} with the vertex basis: coefficients Q^{-1} e_1."""

    D: tuple[Fraction, ...]
    self_intersection: Fraction


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
    scale, levels = form.levels
    found: list[tuple[int, ...]] = []
    x = [0] * m

    def descend(level: int, remaining: int, leading_zero: bool) -> None:
        if level < 0:
            if remaining == 0 and not leading_zero:
                found.append(tuple(x))
            return
        den, c, row = levels[level]
        s = sum(uj * x[j] for j, uj in row)
        # The feasible x_i form an interval around -s/den: walk up from the
        # nearest integer, then down, each side to its first infeasible value.
        # Any nearest integer will do at a tie, as both sides together walk
        # the whole interval.  With every higher coordinate 0, s is 0 and only
        # x_i >= 0 is walked.
        if leading_zero:
            sides: tuple[tuple[int, int], ...] = ((0, 1),)
        else:
            start = (den - 2 * s) // (2 * den)
            sides = ((start, 1), (start - 1, -1))
        for xi, step in sides:
            while (term := c * (den * xi + s) ** 2) <= remaining:
                budget.spend()
                x[level] = xi
                descend(level - 1, remaining - term, leading_zero and xi == 0)
                xi += step
        x[level] = 0

    descend(m - 1, scale, True)
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
    return _fixed_norm_enumeration(form, _NodeBudget(cap))


def _images(form: IntersectionForm, vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Q w for each w in vectors, over the nonzero entries of Q only."""
    return [[sum(x * w[j] for j, x in row) for row in form.rows] for w in vectors]


def _pairing(v: Sequence[int], qw: Sequence[int]) -> int:
    """v^T Q w, given the image Q w."""
    return sum(a * b for a, b in zip(v, qw) if a)


def diagonalize(
    form: IntersectionForm, cap: int = DEFAULT_ENUMERATION_CAP
) -> DiagonalizationCertificate:
    """Decide integral diagonalizability of a unimodular negative definite form.

    Distinct vectors of self-intersection -1 are automatically orthogonal
    (Cauchy-Schwarz forces |Q(v, w)| < 1), so the form is equivalent to -I
    exactly when the enumeration yields m of them.  The certificate keeps the
    vectors, checks the norms and signs that make their Gram matrix (with m of
    them E^T Q E) -I, and keeps the nodes spent on them for d_invariant.
    """
    budget = _NodeBudget(cap)
    units = tuple(_fixed_norm_enumeration(form, budget))
    return DiagonalizationCertificate(form=form, units=units, nodes=budget.used)


def dual_class(form: IntersectionForm) -> DualClass:
    """Coefficients of the class dual to the central vertex, with its self-intersection.

    D = Q^{-1} e_1 = X / det, solved in integers through the form's
    elimination of -Q; Q X = det * e_1 is re-checked over the nonzeros of Q.
    """
    x, det = _linalg.solve(form.elimination, [-int(i == 0) for i in range(form.m)])
    if any(sum(q * x[j] for j, q in row) != det * (i == 0) for i, row in enumerate(form.rows)):
        raise CertificateViolation("the solve for Q^-1 e_1 does not satisfy Q D = e_1")
    d = tuple(Fraction(xi, det) for xi in x)
    return DualClass(D=d, self_intersection=d[0])


def max_sharp_pairing(cert: DiagonalizationCertificate, dual: DualClass) -> int:
    """Maximum pairing of a sharp characteristic vector with the dual class.

    In an orthonormal basis the sharp vectors have all coefficients +-1, so
    the maximum is the L1 norm of the first row of E.  The identities it must
    satisfy (its L2 norm squared equals -D.D, an integer, which p^2 bounds
    and shares p's parity) are checked; CertificateViolation if one fails.
    """
    if not cert.present:
        raise NotDiagonalizable("no orthonormal basis exists for this form")
    first_row = [v[0] for v in cert.units]
    p = sum(abs(e) for e in first_row)
    big_a = -dual.self_intersection
    if sum(e * e for e in first_row) != big_a:
        raise CertificateViolation(f"first row of E has squared norm != -D.D = {big_a}")
    # big_a is now an integer, a sum of squares
    if p * p < big_a or (p - big_a) % 2:
        raise CertificateViolation(f"pairing {p} violates the bound or parity for A = {big_a}")
    return p


def _greedy_descent(form: IntersectionForm, v: list[int]) -> tuple[list[int], int]:
    """Coordinate descent by +-2 steps on v^T(-Q)v; keeps the coset, only improves.

    Returns the seed and its value.  Qv is kept in integers over the nonzeros
    of Q: a step s on coordinate i lowers the value by 2 s (Qv)_i + s^2 Q_ii,
    and is taken when that is positive.
    """
    rows = form.rows
    qv = _images(form, [v])[0]
    value = -_pairing(v, qv)
    improved = True
    while improved:
        improved = False
        for i, row in enumerate(rows):
            for step in (2, -2):
                gain = 2 * step * qv[i] + step * step * form.Q[i][i]
                if gain > 0:
                    v[i] += step
                    value -= gain
                    for j, x in row:
                        qv[j] += step * x
                    improved = True
    return v, value


def _characteristic_parity(form: IntersectionForm) -> list[int]:
    """Parity vector of Q^{-1} * diag(Q), which indexes the characteristic coset.

    A covector kappa is characteristic iff z = Q^{-1} kappa (an integer vector,
    since |det Q| = 1) satisfies z = Q^{-1} diag(Q) mod 2, and then
    kappa^T Q^{-1} kappa = z^T Q z.  Substituting moves the search from the
    dual form, whose entries grow like the product of the multiplicities, to
    the primal form with its small banded entries.
    """
    minus_diag = [-form.Q[i][i] for i in range(form.m)]  # (-Q) w = -diag(Q)
    x, det = _linalg.solve(form.elimination, minus_diag)
    if any(xi % det for xi in x):
        raise CertificateViolation("Q^-1 diag(Q) is not an integer vector")
    return [xi // det % 2 for xi in x]


def _coset_minimum(form: IntersectionForm, budget: _NodeBudget) -> Fraction:
    """Exact minimum of z^T(-Q)z over the characteristic coset z = Q^{-1}diag(Q) mod 2.

    Branch and bound over the form's square completion of -Q, in zig-zag
    order: nearest coset point first, then outward; each side of a level is
    monotone in the partial value, so a failed side stays failed even as the
    incumbent shrinks.  Values are kept times the scale of the integer levels.
    """
    m = form.m
    scale, levels = form.levels
    parity = _characteristic_parity(form)
    best = scale * _greedy_descent(form, parity[:])[1]
    x = [0] * m

    def descend(level: int, acc: int) -> None:
        nonlocal best
        if level < 0:
            if acc < best:
                best = acc
            return
        den, c, row = levels[level]
        s = sum(uj * x[j] for j, uj in row)
        p = parity[level]
        # the coset point nearest the centre -s/den, and its two neighbours
        nearest = p + 2 * ((den - s - p * den) // (2 * den))
        lo, hi = nearest - 2, nearest + 2
        budget.spend()
        term = c * (den * nearest + s) ** 2
        if acc + term < best:
            x[level] = nearest
            descend(level - 1, acc + term)
        lo_alive = hi_alive = True
        while lo_alive or hi_alive:
            # lo is at least as close to the centre as hi
            if lo_alive and (not hi_alive or -s - lo * den <= hi * den + s):
                xi, is_lo = lo, True
            else:
                xi, is_lo = hi, False
            budget.spend()
            term = c * (den * xi + s) ** 2
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

    descend(m - 1, 0)
    # a Fraction, so that d = (m - k - minimum) / 4 stays exact
    return Fraction(best, scale)


def _split_off_units(
    form: IntersectionForm, units: Sequence[Sequence[int]]
) -> IntersectionForm:
    """Gram matrix of the orthogonal complement of the (-1)-vectors inside Z^m.

    The complement lattice is the image of the integral projection
    x -> x + sum_i Q(x, u_i) u_i; a basis comes from echelon-reducing the
    projected standard basis.  The complement is again unimodular and
    negative definite, now with no (-1)-vectors at all.  With no units the
    projected basis is the standard one, and the complement is Q itself.
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
    if len(basis) != m - len(units):
        raise CertificateViolation(f"complement has rank {len(basis)}, not {m - len(units)}")
    basis_images = _images(form, basis)
    gram = [[_pairing(a, qb) for qb in basis_images] for a in basis]
    sub = IntersectionForm.from_matrix(gram)
    if abs(sub.det) != 1:
        raise CertificateViolation(f"complement has det {sub.det}, not +-1")
    return sub


def d_invariant(cert: DiagonalizationCertificate, cap: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Correction term d = max over characteristic kappa of (kappa^T Q^{-1} kappa + m)/4.

    Computed exactly as a closest-vector search over the characteristic
    coset of the certificate's form.  Its (-1)-vectors are split off first:
    on the diagonal summand every characteristic vector already attains the
    optimum, so the search only runs on the unit-free orthogonal complement,
    whose coset minimum is then shifted by the number of split-off units.
    The nodes diagonalize spent on the units count toward the cap.  Reported
    under the sharpness hypothesis, which holds for the star-shaped
    negative-definite plumbings produced by this package.
    """
    form = cert.form
    budget = _NodeBudget(cap, cert.nodes)
    k = len(cert.units)
    if k == form.m:
        return Fraction(0)
    sub = _split_off_units(form, cert.units)
    return (form.m - k - _coset_minimum(sub, budget)) / 4
