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

import threading
import time
from collections import OrderedDict
from enum import Enum
from fractions import Fraction
from math import isqrt, prod
from typing import Iterable, Sequence

from ._record import Record
from .errors import CertificateViolation, InvalidRange, NotDiagonalizable, RankTooLarge
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    DiagonalizationCertificate,
    d_invariant,
    diagonalize,
    dual_class,
    max_sharp_pairing,
    validate_cap,
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
    "twist_lower_bound",
    "tau_gap_lower",
    "fiber_boundary_slope",
    "balanced_twists",
    "cut_and_round_slope",
    "verify_twist_chain",
    "verdict",
]


def twist_lower_bound(big_a: int) -> int:
    """Least integer strictly greater than -sqrt(A): -isqrt(A - 1).

    The closed form is correct for perfect squares as well, e.g. A = 900
    gives -29 because the bound is strict.  InvalidRange unless A >= 1.
    """
    if big_a < 1:
        raise InvalidRange(f"the twist bound needs A >= 1, got {big_a}")
    return -isqrt(big_a - 1)


class TwistBound(Record):
    """tw_min = twist_lower_bound(A), the least integer > -sqrt(A), derived from A."""

    A: int
    tw_min: int
    _derived = ("tw_min",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tw_min", twist_lower_bound(self.A))

    @classmethod
    def for_product(cls, big_a: int) -> "TwistBound":
        return cls(A=big_a)


class TauBounds(Record):
    """Upper bound for the smooth tau and lower bound for the contact tau of a regular fiber.

    P is the maximum sharp pairing; it is None when the intersection form is
    not diagonalizable, in which case only the square-root form of the smooth
    bound is meaningful.  P as max_sharp_pairing returns it has P^2 >= A, so
    P >= ceil(sqrt(A)) and the sharp form is at most the square-root form.
    """

    A: int
    P: int | None

    @property
    def smooth_tau_upper_paper(self) -> Fraction:
        """(A - ceil(sqrt(A))) / 2, the square-root form of the upper bound; ceil(sqrt(A)) = 1 - tw_min."""
        return Fraction(self.A - 1 + twist_lower_bound(self.A), 2)

    @property
    def smooth_tau_upper_sharp(self) -> Fraction | None:
        """(A - P) / 2, the sharp form of the upper bound."""
        if self.P is None:
            return None
        return Fraction(self.A - self.P, 2)

    @property
    def contact_tau_lower_at_tw_min(self) -> Fraction:
        """(tw_min + A + 1) / 2, the lower bound at the least admissible twist."""
        return Fraction(twist_lower_bound(self.A) + self.A + 1, 2)


def tau_gap_lower(big_a: int, p: int | None) -> int:
    """Lower bound tw_min + P + 1 for twice the gap between the two tau bounds.

    At least 2 for P as max_sharp_pairing returns it: P^2 >= A gives
    P >= ceil(sqrt(A)) = 1 - tw_min.
    """
    if p is None:
        raise NotDiagonalizable("tau gap needs a diagonalizable form")
    return twist_lower_bound(big_a) + p + 1


def fiber_boundary_slope(a: int, b: int, u: int, v: int, k: int) -> Fraction:
    """Dividing slope (b*k + v)/(a*k + u) seen from the outside torus; InvalidRange at the pole."""
    if a * k + u == 0:
        raise InvalidRange(f"k = {k} is the pole -u/a of the slope")
    return Fraction(b * k + v, a * k + u)


class TwistCertificate(Record):
    """Balanced twist data for the first n-1 singular fibers, with named checks.

    indices are the fibers 1..n-1 (I) of the twists k_i; d is the common value
    a_i*k_i + u_i (the largest negative solution of the congruences); checks
    record the slope inequalities verified.  Failures are data, not errors.
    Both checks follow from the gluing identity a_i*v_i - b_i*u_i = 1, which
    gives s_tcr - sum_{i<n} b_i/a_i = (sum_{i<n} 1/a_i - (n - 2))/d and the
    last fiber's margin (see verify_twist_chain), so on gluing data that
    satisfies it all_checks_pass guards the slope arithmetic, not the input.
    """

    d: int
    k: tuple[int, ...]
    slopes: tuple[Fraction, ...]
    s_tcr: Fraction
    vertical_twist: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.k) + 1))

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


def balanced_twists(p: SeifertPresentation, g: GluingData) -> tuple[int, tuple[int, ...]]:
    """Largest negative d with d = u_i mod a_i for the first n-1 fibers, and their twists k_i.

    d = -(S mod B) with S = sum_{i<n} A/a_i and B = a_1*...*a_{n-1}: a_i
    divides every term of S but A/a_i, so d = -A/a_i = u_i mod a_i (as
    gluing_data solves), and -B < d <= 0.  The k_i = (d - u_i)/a_i must be
    integers <= -1, so a_i*k_i + u_i = d (which also rules out d = 0);
    CertificateViolation if not.
    """
    moduli = [a for a, _ in p.pairs[:-1]]
    big_a = p.multiplicities.product
    d = -(sum(big_a // a for a in moduli) % prod(moduli))
    ks = []
    for i, (a, u) in enumerate(zip(moduli, g.u), start=1):
        ki, rem = divmod(d - u, a)
        if rem != 0 or ki > -1:
            raise CertificateViolation(f"d = {d} gives no twist k_{i} <= -1 with a_i*k_i + u_i = d")
        ks.append(ki)
    return d, tuple(ks)


def cut_and_round_slope(s: Sequence[Fraction], d: int) -> Fraction:
    """Slope after cutting along the n-1 vertical annuli and rounding: sum(s) - (n-2)/d.

    s holds the slopes of the first n-1 fibers.  InvalidRange unless d < 0.
    """
    if d >= 0:
        raise InvalidRange(f"need d < 0, got d = {d}")
    return sum(s, Fraction(0)) - Fraction(len(s) - 1, d)


def verify_twist_chain(p: SeifertPresentation, g: GluingData) -> TwistCertificate:
    """Balance the first n-1 fibers and verify the slope inequalities.

    Checks, all exact:
      (i)  the cut-and-round slope dominates sum(b_i/a_i) over the balanced set;
      (ii) 1 - b_n/a_n >= -s_n(k) for every twist k <= -1 of the last fiber.
    One comparison at k = -1 proves (ii) on the whole half-line.  The slope
    s_n(k) = (b_n*k + v_n)/(a_n*k + u_n) has derivative
    (b_n*u_n - a_n*v_n)/(a_n*k + u_n)^2 = -1/(a_n*k + u_n)^2, because
    gluing_data solves a_n*v_n - b_n*u_n = 1 with 0 < u_n < a_n.  The pole
    -u_n/a_n therefore lies in (-1, 0), so on k <= -1 the map is defined and
    -s_n increases with k; its largest value is -s_n(-1).  (The same identity
    gives the margin 1 - b_n/a_n + s_n(k) = 1 + 1/(a_n*(a_n*k + u_n)), at
    least 1 - 1/a_n >= 1/2 on k <= -1, so it holds wherever the identity does.)
    The vertical regular-fiber twist value -a_1*...*a_{n-1} is recorded; the
    existence of a Legendrian achieving it is contact-geometric input, not
    something this arithmetic certifies.
    """
    d, ks = balanced_twists(p, g)
    slopes = tuple(
        fiber_boundary_slope(a, b, u, v, k) for (a, b), u, v, k in zip(p.pairs, g.u, g.v, ks)
    )
    s_tcr = cut_and_round_slope(slopes, d)
    singular_sum = sum((Fraction(b, a) for a, b in p.pairs[:-1]), Fraction(0))
    an, bn = p.pairs[-1]
    last_bound = 1 - Fraction(bn, an) >= -fiber_boundary_slope(an, bn, g.u[-1], g.v[-1], -1)
    return TwistCertificate(
        d=d,
        k=ks,
        slopes=slopes,
        s_tcr=s_tcr,
        vertical_twist=-prod(a for a, _ in p.pairs[:-1]),
        checks=(
            ("tcr_slope_dominates_singular_sum", s_tcr >= singular_sum),
            ("last_fiber_slope_bound_k<=-1", last_bound),
        ),
    )


class Verdict(str, Enum):
    OBSTRUCTED_DONALDSON = "obstructed_donaldson"
    OBSTRUCTED_FLOER_GAP = "obstructed_floer_gap"


# The sharpness and vertical-twist caveats of every report, then the Donaldson branch's.
_CAVEATS = (
    "d-invariant assumes a sharp spin-c structure; this holds for the "
    "star-shaped negative-definite plumbings built here but is not re-derived.",
    "the vertical regular-fiber twist value is asserted by convex-surface "
    "theory; only its arithmetic consequences are checked.",
    "form is not diagonalizable, so the boundary bounds no homology ball and "
    "the sharp tau bounds do not apply; square-root forms are shown for reference.",
)


class ObstructionReport(Record):
    """What the pipeline computed for one tuple that its output reads.

    Seven fields are given; twist_bound, tau and gap_lower are derived from A
    and the certificate (P from E), so none can contradict it, and multiplicities,
    form, verdict and caveats are read through.  The certificate's presence is the branch.
    """

    presentation: SeifertPresentation
    normalized: NormalizedPresentation
    graph: PlumbingGraph
    certificate: DiagonalizationCertificate
    d_inv: Fraction
    twist_bound: TwistBound
    tau: TauBounds
    twist_certificate: TwistCertificate
    gap_lower: int | None
    elapsed_ms: float
    _derived = ("twist_bound", "tau", "gap_lower")

    def __post_init__(self) -> None:
        big_a = self.multiplicities.product
        p = max_sharp_pairing(self.certificate, -big_a) if self.certificate.present else None
        object.__setattr__(self, "twist_bound", TwistBound.for_product(big_a))
        object.__setattr__(self, "tau", TauBounds(A=big_a, P=p))
        object.__setattr__(self, "gap_lower", tau_gap_lower(big_a, p) if p is not None else None)

    @property
    def multiplicities(self) -> Multiplicities:
        return self.presentation.multiplicities

    @property
    def form(self) -> IntersectionForm:
        return self.certificate.form

    @property
    def verdict(self) -> Verdict:
        return Verdict.OBSTRUCTED_FLOER_GAP if self.certificate.present else Verdict.OBSTRUCTED_DONALDSON

    @property
    def caveats(self) -> tuple[str, ...]:
        return _CAVEATS[:2] if self.certificate.present else _CAVEATS


# The weight budget of the report memo.  A report of rank m weighs m*m + 1024
# units of about 13 bytes (tracemalloc: 12.6 KB at m = 5, 87.5 KB at m = 53,
# 532 KB at m = 203), so the memo holds about 3.4 MB and never a report of
# rank 511 or more.
MEMO_BUDGET = 2**18
# (multiplicities, cap) -> report, least recently used first; guarded by _memo_lock.
_memo: OrderedDict[tuple[tuple[int, ...], int], ObstructionReport] = OrderedDict()
_memo_weight = 0
_memo_lock = threading.Lock()


def _weight(report: ObstructionReport) -> int:
    return report.form.m**2 + 1024


def _keep(key: tuple[tuple[int, ...], int], report: ObstructionReport) -> None:
    """Memoize report under key, then evict least recently used reports down to the budget."""
    global _memo_weight
    weight = _weight(report)
    if weight > MEMO_BUDGET:
        return
    with _memo_lock:
        if key in _memo:  # another thread evaluated it too; the later report wins
            _memo_weight -= _weight(_memo.pop(key))
        _memo[key] = report
        _memo_weight += weight
        while _memo_weight > MEMO_BUDGET:
            _memo_weight -= _weight(_memo.popitem(last=False)[1])


def verdict(m: Iterable[int], cap: int = DEFAULT_ENUMERATION_CAP) -> ObstructionReport:
    """Run the full pipeline on one tuple of multiplicities.

    Non-diagonalizable form: the obstruction is immediate (Donaldson branch).
    Diagonalizable form: the twist bound and the sharp pairing force
    2*(tau_contact - tau_smooth) >= tw_min + P + 1 > 0 (positive-gap branch).
    Either way the tuple is obstructed; the report is the certificate.
    Each leg has a vertex, so n fibers give rank >= n + 1: RankTooLarge comes
    from n before validation, then from the plumbing tree before any matrix.
    The cap is the one node budget of both lattice searches, checked first
    by lattice.validate_cap: an integer >= 1 (numpy's too, a bool not).
    A report depends only on the validated multiplicities and the cap, so a
    repeat call with both equal returns the same report object, elapsed_ms
    being the first evaluation's.  Reports are kept up to MEMO_BUDGET, least
    recently used evicted first; errors are never kept and raise afresh.
    """
    start = time.perf_counter()
    cap = validate_cap(cap)
    raw = tuple(m)
    if len(raw) + 1 > MAX_SEARCH_RANK:
        raise RankTooLarge(f"{len(raw)} fibers give a rank above the search limit {MAX_SEARCH_RANK}")
    mult = validate_multiplicities(raw)
    key = (mult.a, cap)
    with _memo_lock:
        if (kept := _memo.get(key)) is not None:
            _memo.move_to_end(key)
            return kept
    pres = solve_unnormalized(mult)
    norm = normalize(pres)
    glue = gluing_data(pres)
    graph = build_plumbing(norm)
    form = intersection_form(graph)
    cert = diagonalize(form, cap)
    dual = dual_class(form)
    big_a = mult.product
    if dual != -big_a:
        raise CertificateViolation(f"D.D = {dual}, not -A = {-big_a}")
    d_val = d_invariant(cert)
    twist_cert = verify_twist_chain(pres, glue)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = ObstructionReport(
        presentation=pres,
        normalized=norm,
        graph=graph,
        certificate=cert,
        d_inv=d_val,
        twist_certificate=twist_cert,
        elapsed_ms=elapsed_ms,
    )
    _keep(key, report)
    return report
