"""The inequality chain behind the embedding obstruction.

Given multiplicities this module evaluates, in exact arithmetic: the twisting
number lower bound, the two tau-style bounds for a regular fiber, the
congruence/balancing arithmetic for Legendrian singular fibers, the
cut-and-round slope, and finally the verdict.  The verdict has two branches:
a non-diagonalizable intersection form already rules out an embedding
(no homology ball can exist), while a diagonalizable form forces a positive
gap between the contact and smooth tau bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, prod
from typing import Iterable, Sequence

from .errors import InvalidParameter, NotDiagonalizable, RankTooLarge
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    DiagonalizationCertificate,
    DualClass,
    d_invariant,
    diagonalize,
    dual_class,
    max_sharp_pairing,
)
from .plumbing import MAX_SEARCH_RANK, IntersectionForm, PlumbingGraph, build_plumbing, intersection_form
from .seifert import (
    GluingData,
    Multiplicities,
    NormalizedPresentation,
    SeifertPresentation,
    gluing_data,
    normalize,
    solve_unnormalized,
    validate_multiplicities,
)

__all__ = [
    "TauBounds",
    "TwistBound",
    "TwistCertificate",
    "Verdict",
    "ObstructionReport",
    "ceil_sqrt",
    "twist_lower_bound",
    "tau_gap_lower",
    "fiber_boundary_slope",
    "balanced_twists",
    "cut_and_round_slope",
    "verify_twist_chain",
    "verdict",
]


def ceil_sqrt(n: int) -> int:
    """Exact ceiling of sqrt(n) for n >= 1."""
    assert n >= 1
    return isqrt(n - 1) + 1


def twist_lower_bound(big_a: int) -> int:
    """Least integer strictly greater than -sqrt(A): -isqrt(A - 1).

    The closed form is correct for perfect squares as well, e.g. A = 900
    gives -29 because the bound is strict.
    """
    assert big_a >= 1
    return -isqrt(big_a - 1)


@dataclass(frozen=True)
class TwistBound:
    """tw_min = least integer > -sqrt(A), with the exact-squaring invariants checked."""

    A: int
    tw_min: int

    def __post_init__(self) -> None:
        t = self.tw_min
        assert t <= 0 and t * t < self.A
        assert (1 - t) * (1 - t) >= self.A

    @classmethod
    def for_product(cls, big_a: int) -> "TwistBound":
        return cls(A=big_a, tw_min=twist_lower_bound(big_a))


@dataclass(frozen=True)
class TauBounds:
    """Upper bound for the smooth tau and lower bound for the contact tau of a regular fiber.

    P is the maximum sharp pairing; it is None when the intersection form is
    not diagonalizable, in which case only the square-root form of the smooth
    bound is meaningful.
    """

    A: int
    P: int | None

    def __post_init__(self) -> None:
        if self.P is not None:
            assert self.smooth_tau_upper_sharp <= self.smooth_tau_upper_paper

    @property
    def smooth_tau_upper_paper(self) -> Fraction:
        """(A - ceil(sqrt(A))) / 2, the square-root form of the upper bound."""
        return Fraction(self.A - ceil_sqrt(self.A), 2)

    @property
    def smooth_tau_upper_sharp(self) -> Fraction | None:
        """(A - P) / 2, the sharp form of the upper bound."""
        if self.P is None:
            return None
        return Fraction(self.A - self.P, 2)

    def contact_tau_lower_at(self, tw: int) -> Fraction:
        """(tw + A + 1) / 2."""
        return Fraction(tw + self.A + 1, 2)


def tau_gap_lower(big_a: int, p: int | None) -> int:
    """Lower bound tw_min + P + 1 for twice the gap between the two tau bounds.

    Always at least 2: P >= ceil(sqrt(A)) = -tw_min + 1.
    """
    if p is None:
        raise NotDiagonalizable("tau gap needs a diagonalizable form")
    gap = twist_lower_bound(big_a) + p + 1
    assert gap >= 1
    return gap


def fiber_boundary_slope(a: int, b: int, u: int, v: int, k: int) -> Fraction:
    """Dividing slope (b*k + v)/(a*k + u) seen from the outside torus."""
    assert a * k + u != 0
    return Fraction(b * k + v, a * k + u)


@dataclass(frozen=True)
class TwistCertificate:
    """Balanced twist data for a subset of singular fibers, with named checks.

    indices is the 1-based fiber subset I; d is the common value a_i*k_i + u_i
    (the largest negative solution of the congruences); checks record the
    slope inequalities that were verified.  Failures are data, not errors:
    with valid inputs they would indicate an implementation bug.
    """

    indices: tuple[int, ...]
    d: int
    k: tuple[int, ...]
    slopes: tuple[Fraction, ...] = ()
    s_tcr: Fraction | None = None
    vertical_twist: int | None = None
    checks: tuple[tuple[str, bool], ...] = ()

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Solution of x = r_i mod m_i for pairwise coprime moduli, in [0, prod)."""
    total = prod(moduli)
    x = 0
    for r, m in zip(residues, moduli):
        cofactor = total // m
        x += r * cofactor * pow(cofactor, -1, m)
    return x % total


def balanced_twists(
    p: SeifertPresentation, g: GluingData, indices: Iterable[int]
) -> TwistCertificate:
    """Largest negative d with d = u_i mod a_i on the index set, and the twists k_i.

    indices are 1-based fiber numbers.  The k_i = (d - u_i)/a_i are all <= -1.
    """
    idx = tuple(indices)
    assert len(idx) >= 2
    assert all(1 <= i <= len(p.pairs) for i in idx)
    moduli = [p.pairs[i - 1][0] for i in idx]
    residues = [g.u[i - 1] for i in idx]
    x = _crt(residues, moduli)
    modulus = prod(moduli)
    assert 0 < x < modulus, "0 < u_i < a_i forces a nonzero residue"
    d = x - modulus
    ks = []
    for i in idx:
        ai = p.pairs[i - 1][0]
        ki, rem = divmod(d - g.u[i - 1], ai)
        assert rem == 0 and ki <= -1
        assert ai * ki + g.u[i - 1] == d
        ks.append(ki)
    return TwistCertificate(indices=idx, d=d, k=tuple(ks))


def cut_and_round_slope(s: Sequence[Fraction], d: int, n: int) -> Fraction:
    """Slope after cutting along the n-1 vertical annuli and rounding: sum(s) - (n-2)/d."""
    assert len(s) == n - 1
    assert d < 0
    return sum(s, Fraction(0)) - Fraction(n - 2, d)


def verify_twist_chain(
    p: SeifertPresentation, g: GluingData, kn_range: Iterable[int]
) -> TwistCertificate:
    """Balance the first n-1 fibers and verify the slope inequalities.

    Checks, all exact:
      (i)  the cut-and-round slope dominates sum(b_i/a_i) over the balanced set;
      (ii) 1 - b_n/a_n >= -s_n(k_n) for every requested twist k_n <= -1 of the
           last fiber.
    The vertical regular-fiber twist value -a_1*...*a_{n-1} is recorded; the
    existence of a Legendrian achieving it is contact-geometric input, not
    something this arithmetic certifies.
    """
    kn_list = tuple(kn_range)
    assert kn_list and all(kn <= -1 for kn in kn_list)
    n = len(p.pairs)
    base = balanced_twists(p, g, range(1, n))
    slopes = tuple(
        fiber_boundary_slope(p.pairs[i - 1][0], p.pairs[i - 1][1], g.u[i - 1], g.v[i - 1], ki)
        for i, ki in zip(base.indices, base.k)
    )
    s_tcr = cut_and_round_slope(slopes, base.d, n)
    singular_sum = sum(
        (Fraction(p.pairs[i - 1][1], p.pairs[i - 1][0]) for i in base.indices),
        Fraction(0),
    )
    checks = [("tcr_slope_dominates_singular_sum", s_tcr >= singular_sum)]
    an, bn = p.pairs[n - 1]
    un, vn = g.u[n - 1], g.v[n - 1]
    lhs = 1 - Fraction(bn, an)
    for kn in kn_list:
        rhs = -fiber_boundary_slope(an, bn, un, vn, kn)
        checks.append((f"last_fiber_slope_bound_k={kn}", lhs >= rhs))
    vertical = -prod(p.pairs[i - 1][0] for i in base.indices)
    return TwistCertificate(
        indices=base.indices,
        d=base.d,
        k=base.k,
        slopes=slopes,
        s_tcr=s_tcr,
        vertical_twist=vertical,
        checks=tuple(checks),
    )


class Verdict(str, Enum):
    OBSTRUCTED_DONALDSON = "obstructed_donaldson"
    OBSTRUCTED_FLOER_GAP = "obstructed_floer_gap"


@dataclass(frozen=True)
class ObstructionReport:
    """Everything the pipeline computed for one tuple, plus the verdict."""

    multiplicities: Multiplicities
    presentation: SeifertPresentation
    normalized: NormalizedPresentation
    gluing: GluingData
    graph: PlumbingGraph
    form: IntersectionForm
    certificate: DiagonalizationCertificate
    dual: DualClass
    d_inv: Fraction
    twist_bound: TwistBound
    tau: TauBounds
    twist_certificate: TwistCertificate
    verdict: Verdict
    gap_lower: int | None
    caveats: tuple[str, ...]
    elapsed_ms: float

    def __post_init__(self) -> None:
        assert (self.verdict is Verdict.OBSTRUCTED_DONALDSON) == (
            not self.certificate.present
        )
        if self.verdict is Verdict.OBSTRUCTED_FLOER_GAP:
            assert self.gap_lower is not None and self.gap_lower >= 1


# verify_twist_chain records, and a report serializes, one check per twist in
# -1..kn_bound; 10^4 of them take a few hundredths of a second.
MAX_TWISTS = 10**4

_SHARPNESS_CAVEAT = (
    "d-invariant assumes a sharp spin-c structure; this holds for the "
    "star-shaped negative-definite plumbings built here but is not re-derived."
)
_VERTICAL_TWIST_CAVEAT = (
    "the vertical regular-fiber twist value is asserted by convex-surface "
    "theory; only its arithmetic consequences are checked."
)
_DONALDSON_CAVEAT = (
    "form is not diagonalizable, so the boundary bounds no homology ball and "
    "the sharp tau bounds do not apply; square-root forms are shown for reference."
)


def verdict(
    m: Iterable[int],
    cap: int = DEFAULT_ENUMERATION_CAP,
    kn_bound: int = -10,
) -> ObstructionReport:
    """Run the full pipeline on one tuple of multiplicities.

    Non-diagonalizable form: the obstruction is immediate (Donaldson branch).
    Diagonalizable form: the twist bound and the sharp pairing force
    2*(tau_contact - tau_smooth) >= tw_min + P + 1 > 0 (positive-gap branch).
    Either way the tuple is obstructed; the report is the certificate.
    Each leg has a vertex, so n fibers give rank >= n + 1: RankTooLarge comes
    from n before validation, then from the plumbing tree before any matrix.
    InvalidParameter unless -MAX_TWISTS <= kn_bound <= -1.
    """
    if kn_bound > -1:
        raise InvalidParameter(f"kn-range bound must be <= -1, got {kn_bound}")
    if kn_bound < -MAX_TWISTS:
        raise InvalidParameter(f"kn-range bound must be >= -{MAX_TWISTS} (the twist limit), got {kn_bound}")
    start = time.perf_counter()
    raw = tuple(m)
    if len(raw) + 1 > MAX_SEARCH_RANK:
        raise RankTooLarge(f"{len(raw)} fibers give a rank above the search limit {MAX_SEARCH_RANK}")
    mult = validate_multiplicities(raw)
    pres = solve_unnormalized(mult)
    norm = normalize(pres)
    glue = gluing_data(pres)
    graph = build_plumbing(norm, mult)
    form = intersection_form(graph)
    cert = diagonalize(form, cap)
    dual = dual_class(form)
    big_a = mult.product
    assert dual.self_intersection == -big_a
    d_val = d_invariant(cert, cap)
    bound = TwistBound.for_product(big_a)
    twist_cert = verify_twist_chain(pres, glue, range(-1, kn_bound - 1, -1))
    caveats = [_SHARPNESS_CAVEAT, _VERTICAL_TWIST_CAVEAT]
    if cert.present:
        p = max_sharp_pairing(cert, dual)
        tau = TauBounds(A=big_a, P=p)
        gap = tau_gap_lower(big_a, p)
        final = Verdict.OBSTRUCTED_FLOER_GAP
    else:
        p = None
        tau = TauBounds(A=big_a, P=None)
        gap = None
        final = Verdict.OBSTRUCTED_DONALDSON
        caveats.append(_DONALDSON_CAVEAT)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ObstructionReport(
        multiplicities=mult,
        presentation=pres,
        normalized=norm,
        gluing=glue,
        graph=graph,
        form=form,
        certificate=cert,
        dual=dual,
        d_inv=d_val,
        twist_bound=bound,
        tau=tau,
        twist_certificate=twist_cert,
        verdict=final,
        gap_lower=gap,
        caveats=tuple(caveats),
        elapsed_ms=elapsed_ms,
    )
