"""Exact lattice computations on negative-definite unimodular forms.

Two searches live here, each bounded by a configurable node cap, plus the
assembly between them:

* enumeration of the vectors of self-intersection -1 (bounded search on the
  square completion of -Q, each level's feasible interval found with one
  isqrt; at remaining norm 0 it back-substitutes down the levels, only as
  far as the levels a move since the last such chain can have unsettled,
  and the climb resumes above that chain);
* assembly of an orthonormal change of basis from those vectors, which for a
  unimodular negative-definite form exists exactly when the form is
  diagonalizable over the integers; its certificate checks each vector's
  norm Q(u, u) = -1, reached from the vector before it through the entries
  that are not the same objects;
* a branch-and-bound minimum over the characteristic coset of the vectors'
  orthogonal complement, which gives the correction-term invariant of the
  boundary under the sharpness hypothesis (each level walked outward from
  its nearest coset point, a failed level closed in one step).

Both searches read form.levels, that completion scaled to integers from the
form's one fraction-free elimination and kept as (scale, dens, cs, feeds), so
no Fraction arithmetic runs inside them; its feeds, the only copy of the pivot
rows a form keeps, and form.minors serve the solves for D and the coset too.
Each is one loop over those arrays, with no recursion and no call per node; it
counts its nodes in a local integer against the cap, charging in batches what
it would visit whatever its order (the enumeration a level's whole interval
or a back-substituted chain, the coset search a failed level's 2 or 3
nodes), and returns them with its result.  Each level's shift U_i . x is kept
current as x changes: feeds[j], built once with the form, lists the (level,
coefficient) pairs that column j enters, so no shift is re-summed per node.

Forms are negative definite and of rank at most plumbing.MAX_SEARCH_RANK,
and certificates unimodular, by construction: the entry points check only the cap.
That limit bounds the m x m certificate E and the report, not the searches,
whose depth needs no call stack.
The identities the results must satisfy are checked where they are derived,
and a failure raises CertificateViolation, also under python -O.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import isqrt
from operator import index, is_not, mul, neg
from typing import Sequence

from . import _linalg
from ._record import Record
from .errors import CertificateViolation, EnumerationCapExceeded, InvalidParameter, NotDiagonalizable, quoted
from .plumbing import IntersectionForm

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "validate_cap",
    "DiagonalizationCertificate",
    "norm_minus_one_vectors",
    "diagonalize",
    "dual_class",
    "max_sharp_pairing",
    "d_invariant",
]

DEFAULT_ENUMERATION_CAP = 10**6


def _integer(value: object) -> int:
    """value as an int through operator.index, numpy's too; -1 for a bool or a non-integer."""
    try:
        return -1 if isinstance(value, bool) else index(value)
    except TypeError:
        return -1


def validate_cap(cap: int) -> int:
    """A node budget as an int: an integer >= 1, numpy's too, a bool not; else InvalidParameter."""
    if (n := _integer(cap)) < 1:
        raise InvalidParameter(f"cap must be an int >= 1, got {quoted(cap)}")
    return n


def _neighbours(form: IntersectionForm) -> list[list[tuple[int, int]]]:
    """(j, Q_ij) for each nonzero Q_ij, listed by vertex i, with j = i first."""
    neighbours = [[(i, q)] for i, q in enumerate(form.diagonal)]
    for i, j, x in zip(*form.upper):
        neighbours[i].append((j, x))
        neighbours[j].append((i, x))
    return neighbours


def _norms(form: IntersectionForm, units: Sequence[Sequence[int]]) -> list[int] | None:
    """Q(u, u) for each unit in turn, or None if an entry is not an int.

    Each unit is reached from the one before it, the first from 0: only the
    entries that are not the same object as the previous unit's entry there
    are type-checked and fed into Q w and the norm, changing w_i by d adding
    d (2 (Q w)_i + d Q_ii) to Q(w, w).  An entry kept from the previous unit
    passed that unit's check.
    """
    m, diag = form.m, form.diagonal
    neighbours = _neighbours(form) if units else []  # none to build for a form with no units
    w, qw, norm, norms = (0,) * m, [0] * m, 0, []
    for v in units:
        for i in compress(range(m), map(is_not, w, v)):
            if not isinstance(v[i], int):
                return None
            if d := v[i] - w[i]:
                norm += d * (2 * qw[i] + d * diag[i])
                for j, x in neighbours[i]:
                    qw[j] += d * x
        w = v
        norms.append(norm)
    return norms


class DiagonalizationCertificate(Record):
    """Either a unimodular E with E^T Q E = -I, or a proof-of-absence witness.

    units are all vectors of self-intersection -1 of form (one per +-pair, as
    norm_minus_one_vectors returns them), nodes the search nodes their
    enumeration spent of cap, the budget d_invariant continues.  Building one
    checks validate_cap(cap), that nodes is an integer in [0, cap], read as
    the cap is, |det Q| = 1 and that the units lie in Z^m with Q(u, u) = -1,
    no two equal up to sign (else ValueError); as -Q is positive definite,
    Cauchy-Schwarz then makes their Gram matrix -I, so they are independent:
    present when there are m of them, the columns of E; otherwise their
    number is the witness of the search.  units is kept as tuples, as a
    form's entries are, so no check goes stale and a certificate hashes.  Each
    unit's norm is checked against -1 exactly, updated from the unit before
    it (_norms), so a check costs the entries that change from one unit to
    the next; no entry is read as an int before it is type-checked, and the
    errors come in this order: integer vectors, norms, distinctness.
    """

    form: IntersectionForm
    units: tuple[tuple[int, ...], ...]
    nodes: int
    cap: int
    _uncompared = ("form",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cap", validate_cap(self.cap))
        if not 0 <= (nodes := _integer(self.nodes)) <= self.cap:
            raise ValueError(f"node count must be in [0, {quoted(self.cap)}], got {quoted(self.nodes)}")
        object.__setattr__(self, "nodes", nodes)
        if abs(self.form.det) != 1:
            raise ValueError(f"form must be unimodular, det = {quoted(self.form.det)}")
        m, units = self.form.m, tuple(map(tuple, self.units))
        object.__setattr__(self, "units", units)
        norms = _norms(self.form, units) if all(map(m.__eq__, map(len, units))) else None
        if norms is None:
            raise ValueError(f"units must be integer vectors of length {m}")
        if norms.count(-1) != len(units):
            raise ValueError("units must have self-intersection -1")
        if len({v if next(filter(None, v)) > 0 else tuple(map(neg, v)) for v in units}) != len(units):
            raise ValueError("units must be distinct up to sign")

    @property
    def present(self) -> bool:
        return len(self.units) == self.form.m

    @property
    def E(self) -> tuple[tuple[int, ...], ...] | None:
        return tuple(zip(*self.units)) if self.present else None


def _exceeded(cap: int) -> EnumerationCapExceeded:
    return EnumerationCapExceeded(f"lattice search exceeded {cap} nodes")


def _fixed_norm_enumeration(form: IntersectionForm, cap: int) -> tuple[list[tuple[int, ...]], int]:
    """Bounded search for all v with v^T Q v = -1, one per +-pair, and the nodes it spent.

    Depth first from level m - 1 down to level 0, on per-level arrays.  At
    level i, with R left of the scaled norm and s = U_i . x, the feasible x_i
    are the interval c_i (den_i x_i + s)^2 <= R, that is |den_i x_i + s| <= r
    with r = isqrt(R // c_i); its nodes are charged at once, as the search
    visits all of them whatever its order.  While every higher coordinate is
    0, which on a definite form is exactly when R is still the whole scale,
    s is 0 and only x_i >= 0 is taken.  Level 0 is closed: its hits are
    den_0 x_0 + s = +-r, when c_0 r^2 = R, each appended without writing x_0.
    At R = 0 each level down has one value, den_i x_i + s = 0, or none when
    den_i does not divide s: the search back-substitutes, a node a level,
    charged as the chain ends (at level 0 with a vector, or where no value is
    left), and the climb resumes above it.

    Every level below low already holds that one value, so a chain walks
    down to low only; one that gets past it has its vector, charges start + 1
    nodes as walking on to level 0 would, and sets low to start + 1.  A move
    of x_j can take off their values only the levels column j feeds (those
    below j) and level j, so wherever x_j moves (on the interval path, on the
    climb, in a chain) low falls to lowest[j], the first level column j
    feeds.  A column that feeds no level needs no fall for its own level j:
    no earlier column meets it, so its weight c_j den_j^2 is scale (-Q_jj),
    at least the whole norm.  Holding its value, level j then has a second
    feasible value only at R = scale, where its interval is at most [0, 1]
    and lo = 0 is the value it holds; the climb to 1 spends the norm, so a
    chain starts at once just below j, gets past low and sets it to j.
    """
    cap = validate_cap(cap)
    m = form.m
    scale, dens, cs, feeds = form.levels
    # the first level column j feeds, the lowest a move of x_j can put off its value (m if none)
    lowest = [f[0][0] if f else m for f in feeds]
    used = 0
    found: list[tuple[int, ...]] = []
    x, sh = [0] * m, [0] * m
    top, left = [0] * m, [0] * m  # per level: last x_i, R
    i, rest, low = m - 1, scale, m  # each level below low holds den_i x_i + s_i = 0
    while True:
        if not rest:
            # the norm is spent: each level down has the one value den_i x_i + s_i = 0, or none,
            # and below low each already holds it
            start = i
            while i >= low:
                xi, off = divmod(-sh[i], dens[i])
                if off:
                    break
                if xi != x[i]:
                    for j, k in feeds[i]:
                        sh[j] += k * (xi - x[i])
                    x[i] = xi
                    if lowest[i] < low:
                        low = lowest[i]
                i -= 1
            else:
                found.append(tuple(x))
                i, low = -1, start + 1
            used += start - i
            if used > cap:
                raise _exceeded(cap)
            i = start
        else:
            den, c, s = dens[i], cs[i], sh[i]
            r = isqrt(rest // c)
            hi = (r - s) // den
            lo = 0 if rest == scale else -((r + s) // den)
            if lo <= hi:
                used += hi - lo + 1
                if used > cap:
                    raise _exceeded(cap)
                if i:
                    if lo != x[i]:
                        for j, k in feeds[i]:
                            sh[j] += k * (lo - x[i])
                        x[i] = lo
                        if lowest[i] < low:
                            low = lowest[i]
                    top[i], left[i] = hi, rest
                    t = den * lo + s
                    rest -= c * t * t
                    i -= 1
                    continue
                if c * r * r == rest:
                    for t in {r, -r}:
                        if (t - s) % den == 0 and (t - s) // den >= lo:
                            found.append(((t - s) // den, *x[1:]))
        # up to the deepest level with a value left, and on to that value
        i += 1
        while i < m and x[i] == top[i]:
            i += 1
        if i == m:
            break
        x[i] += 1
        for j, k in feeds[i]:
            sh[j] += k
        if lowest[i] < low:
            low = lowest[i]
        t = dens[i] * x[i] + sh[i]
        rest = left[i] - cs[i] * t * t
        i -= 1
    return sorted((v if next(filter(None, v)) > 0 else tuple(map(neg, v)) for v in found), reverse=True), used


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
    return _fixed_norm_enumeration(form, cap)[0]


def _image(form: IntersectionForm, w: Sequence[int]) -> list[int]:
    """Q w: the Q_ii w_i, with each entry Q_ij of form.upper added to both
    sides, Q_ij w_j to (Q w)_i and Q_ij w_i to (Q w)_j."""
    qw = list(map(mul, form.diagonal, w))
    for i, j, x in zip(*form.upper):
        qw[i] += x * w[j]
        qw[j] += x * w[i]
    return qw


def _pairing(v: Sequence[int], qw: Sequence[int]) -> int:
    """v^T Q w, given the image Q w."""
    return sum(map(mul, v, qw))


def diagonalize(
    form: IntersectionForm, cap: int = DEFAULT_ENUMERATION_CAP
) -> DiagonalizationCertificate:
    """Decide integral diagonalizability of a unimodular negative definite form.

    Distinct vectors of self-intersection -1 are automatically orthogonal
    (Cauchy-Schwarz forces |Q(v, w)| < 1), so the form is equivalent to -I
    exactly when the enumeration yields m of them.  The certificate keeps the
    vectors, checks the norms and signs that make their Gram matrix (with m of
    them E^T Q E) -I, and keeps the nodes spent and the cap for d_invariant.
    """
    units, used = _fixed_norm_enumeration(form, cap)
    return DiagonalizationCertificate(form=form, units=tuple(units), nodes=used, cap=cap)


def dual_class(form: IntersectionForm) -> Fraction:
    """Self-intersection D.D = (Q^{-1})_11 of the class D dual to the central vertex.

    D = Q^{-1} e_1 = X / det, solved in integers from the form's minors and
    levels of -Q; Q X = det * e_1 is re-checked over the nonzeros of Q.
    """
    x, det = _linalg.solve(form.minors, form.levels, [-int(i == 0) for i in range(form.m)])
    if _image(form, x) != [det * (i == 0) for i in range(form.m)]:
        raise CertificateViolation("the solve for Q^-1 e_1 does not satisfy Q D = e_1")
    return Fraction(x[0], det)


def max_sharp_pairing(cert: DiagonalizationCertificate, dual: Fraction | int) -> int:
    """Maximum pairing of a sharp characteristic vector with the dual class, given D.D.

    D.D may be an int or a Fraction, as dual_class returns it.  In an
    orthonormal basis the sharp vectors have all coefficients +-1, so the
    maximum is the L1 norm of the first row of E.  Its one check is that the
    row's L2 norm squared is -D.D = A (CertificateViolation if not); then
    p^2 >= A, as (sum |e|)^2 >= sum e^2, and p = A mod 2, as |e| = e^2 mod 2.
    """
    if not cert.present:
        raise NotDiagonalizable("no orthonormal basis exists for this form")
    first_row = [v[0] for v in cert.units]
    if sum(e * e for e in first_row) != -dual:
        raise CertificateViolation(f"first row of E has squared norm != -D.D = {-dual}")
    return sum(map(abs, first_row))


def _greedy_descent(form: IntersectionForm, v: list[int]) -> tuple[list[int], int]:
    """Coordinate descent by +-2 steps on v^T(-Q)v; keeps the coset, only improves.

    Returns the seed and its value.  Qv is kept in integers over the nonzeros
    of Q, listed by vertex: a step s on coordinate i lowers the value by
    2 s (Qv)_i + s^2 Q_ii, and is taken when that is positive.
    """
    diag, neighbours = form.diagonal, _neighbours(form)
    qv = _image(form, v)
    value = -_pairing(v, qv)
    improved = True
    while improved:
        improved = False
        for i, row in enumerate(neighbours):
            for step in (2, -2):
                gain = 2 * step * qv[i] + step * step * diag[i]
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
    minus_diag = [-q for q in form.diagonal]  # (-Q) w = -diag(Q)
    x, det = _linalg.solve(form.minors, form.levels, minus_diag)
    if any(xi % det for xi in x):
        raise CertificateViolation("Q^-1 diag(Q) is not an integer vector")
    return [xi // det % 2 for xi in x]


def _coset_minimum(form: IntersectionForm, cap: int, used: int = 0) -> tuple[Fraction, int]:
    """Exact minimum of z^T(-Q)z over the characteristic coset z = Q^{-1}diag(Q) mod 2.

    Branch and bound over the form's square completion of -Q, in zig-zag
    order: nearest coset point first, then outward, closer side first.
    Values are kept times the scale of the integer levels.  Depth first on
    per-level arrays: the partial value, and each side's distance
    den_i x_i + s from the centre, from which its next point is recovered.
    A distance only grows, so a level fails whole: with its nearest point
    both neighbours (3 nodes, as at level 0), and with the closer side's
    next point the farther side's (2 nodes).  Each such batch is charged at
    once, and the count is checked against the cap before each step down and
    at the end; as it only grows, the cap outcome is that of charging one
    node at a time.  Returns the minimum with the node count, which starts
    at used.
    """
    m = form.m
    scale, dens, cs, feeds = form.levels
    parity = _characteristic_parity(form)
    best = scale * _greedy_descent(form, parity[:])[1]
    x, sh = [0] * m, [0] * m
    acc, d_lo, d_hi = [0] * m, [0] * m, [0] * m
    # per level: den, c, the coset parity p, and den (1 - p) and 2 den, which place its nearest point
    steps = [(den, c, p, den - p * den, 2 * den) for den, c, p in zip(dens, cs, parity)]
    i, a = m - 1, 0
    while True:
        den, c, p, off, two = steps[i]
        s = sh[i]
        # the coset point nearest the centre -s/den
        xi = p + 2 * ((off - s) // two)
        t = den * xi + s
        term = c * t * t
        if i and a + term < best:
            used += 1
            acc[i], d_lo[i], d_hi[i] = a, two - t, two + t
            a += term
        else:
            # a leaf, or a failed level: its nearest point and both neighbours
            used += 3
            if a + term < best:
                best = a + term
            # up past each level whose closer side fails, to the next point of the first that passes
            i += 1
            while i < m:
                lo_d, hi_d = d_lo[i], d_hi[i]
                d = lo_d if lo_d <= hi_d else hi_d
                a = acc[i] + cs[i] * d * d
                if a < best:
                    break
                used += 2
                i += 1
            else:
                break
            used += 1
            den, s = dens[i], sh[i]
            if lo_d <= hi_d:
                xi, d_lo[i] = -((d + s) // den), d + 2 * den
            else:
                xi, d_hi[i] = (d - s) // den, d + 2 * den
        if used > cap:
            raise _exceeded(cap)
        dx = xi - x[i]
        for j, k in feeds[i]:
            sh[j] += k * dx
        x[i] = xi
        i -= 1
    if used > cap:
        raise _exceeded(cap)
    # a Fraction, so that d = (m - k - minimum) / 4 stays exact
    return Fraction(best, scale), used


def _split_off_units(
    form: IntersectionForm, units: Sequence[Sequence[int]]
) -> IntersectionForm:
    """The orthogonal complement of the (-1)-vectors inside Z^m, as a form.

    The complement lattice is the image of the integral projection
    x -> x + sum_i Q(x, u_i) u_i; a basis comes from echelon-reducing the
    projected standard basis, row i being e_i + sum_u Q(e_i, u) u, each entry
    one product of the images' entries i with a column of the units.  The
    complement is again unimodular and negative definite, now with no
    (-1)-vectors at all.  With no units it is the form itself, returned as it
    is.  Its diagonal and upper triangle are the pairings of each basis
    vector with the basis images, written once each.
    """
    if not units:
        return form
    m = form.m
    unit_cols = list(zip(*units))
    projected = [[sum(map(mul, qe, col)) for col in unit_cols] for qe in zip(*(_image(form, u) for u in units))]
    for i, row in enumerate(projected):
        row[i] += 1
    basis = _linalg.row_lattice_basis(projected)
    if len(basis) != m - len(units):
        raise CertificateViolation(f"complement has rank {len(basis)}, not {m - len(units)}")
    images, n = [_image(form, b) for b in basis], len(basis)
    upper = [(i, j, x) for i in range(n) for j in range(i + 1, n) if (x := _pairing(basis[i], images[j]))]
    sub = IntersectionForm(list(map(_pairing, basis, images)), tuple(zip(*upper)) or ((), (), ()))
    if abs(sub.det) != 1:
        raise CertificateViolation(f"complement has det {sub.det}, not +-1")
    return sub


def d_invariant(cert: DiagonalizationCertificate) -> Fraction:
    """Correction term d = max over characteristic kappa of (kappa^T Q^{-1} kappa + m)/4.

    Computed exactly as a closest-vector search over the characteristic
    coset of the certificate's form.  Its (-1)-vectors are split off first:
    on the diagonal summand every characteristic vector already attains the
    optimum, so the search only runs on the unit-free orthogonal complement,
    whose coset minimum is then shifted by the number of split-off units.
    The search continues the certificate's budget, from cert.nodes up to
    cert.cap.  Reported under the sharpness hypothesis, which holds for the
    star-shaped negative-definite plumbings produced by this package.
    """
    form = cert.form
    k = len(cert.units)
    if k == form.m:
        return Fraction(0)
    sub = _split_off_units(form, cert.units)
    return (form.m - k - _coset_minimum(sub, cert.cap, cert.nodes)[0]) / 4
