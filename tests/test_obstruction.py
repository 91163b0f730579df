import random
import re
import sys
import threading
from collections import OrderedDict
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import numpy as np
import pytest

from seifert_gate import (
    CertificateViolation,
    DiagonalizationCertificate,
    EnumerationCapExceeded,
    InvalidParameter,
    InvalidRange,
    MultiplicityTooSmall,
    NotCoprime,
    NotDiagonalizable,
    ObstructionReport,
    Verdict,
    validate_multiplicities,
    verdict,
)
from seifert_gate import _linalg, families, obstruction
from seifert_gate.errors import quoted
from seifert_gate.families import transverse_contact_exists
from seifert_gate.lattice import DEFAULT_ENUMERATION_CAP, d_invariant, diagonalize, max_sharp_pairing
from seifert_gate.plumbing import IntersectionForm
from seifert_gate.seifert import GluingData, Multiplicities, NormalizedPresentation, SeifertPresentation, gluing_data, solve_unnormalized
from seifert_gate.obstruction import (
    TauBounds,
    TwistBound,
    balanced_twists,
    cut_and_round_slope,
    fiber_boundary_slope,
    tau_gap_lower,
    twist_lower_bound,
    verify_twist_chain,
)
from oracles import form_for, per_twist_slope_checks, random_coprime_tuples
from test_golden import CORPORA

TWIST_CHECKS = ["tcr_slope_dominates_singular_sum", "last_fiber_slope_bound_k<=-1"]
# what an ObstructionReport is built from; the rest of it is derived or read through
REPORT_INPUTS = ("presentation", "normalized", "graph", "certificate", "d_inv", "twist_certificate", "elapsed_ms")


def report_inputs(report):
    return {name: getattr(report, name) for name in REPORT_INPUTS}


def presentation(a):
    p = solve_unnormalized(validate_multiplicities(a))
    return p, gluing_data(p)


class TestTwistLowerBound:
    def test_examples(self):
        assert twist_lower_bound(30) == -5
        assert twist_lower_bound(900) == -29
        assert twist_lower_bound(42) == -6

    def test_exact_squaring_property(self):
        rng = random.Random(606)
        values = [rng.randrange(2, 10**9) for _ in range(1000)]
        values += [900, 4, 9, 10**6]  # perfect squares on purpose
        for big_a in values:
            t = twist_lower_bound(big_a)
            assert t <= 0
            assert t * t < big_a  # t > -sqrt(A)
            assert (1 - t) * (1 - t) >= big_a  # t - 1 <= -sqrt(A)
            assert TwistBound.for_product(big_a).tw_min == t


class TestTauBounds:
    def test_smooth_tau_upper(self):
        assert TauBounds(A=1, P=1).smooth_tau_upper_sharp == 0
        assert TauBounds(A=78, P=16).smooth_tau_upper_sharp == 31
        assert TauBounds(A=78, P=16).smooth_tau_upper_sharp <= 34
        assert TauBounds(A=30, P=None).smooth_tau_upper_sharp is None

    def test_contact_tau_lower(self):
        assert TauBounds(A=30, P=None).contact_tau_lower_at_tw_min == 13
        assert TauBounds(A=78, P=None).contact_tau_lower_at_tw_min == Fraction(71, 2)

    def test_tau_gap_lower(self):
        assert tau_gap_lower(78, 16) == 9
        assert tau_gap_lower(30, 6) == 2  # hypothetical P, consistency only
        assert tau_gap_lower(1, 1) == 2

    def test_tau_gap_requires_p(self):
        with pytest.raises(NotDiagonalizable):
            tau_gap_lower(30, None)


class TestSlopes:
    def test_fiber_boundary_slope(self):
        assert fiber_boundary_slope(2, -1, 1, 0, -1) == -1
        assert fiber_boundary_slope(3, 1, 2, 1, -1) == 0
        assert fiber_boundary_slope(13, 11, 7, 6, -1) == Fraction(5, 6)

    def test_cut_and_round(self):
        assert cut_and_round_slope([Fraction(-1), Fraction(0)], -1) == 0
        assert cut_and_round_slope([Fraction(0), Fraction(0)], -1) == 1
        assert cut_and_round_slope([Fraction(-1, 2), Fraction(-1, 3)], -2) == Fraction(-1, 3)


class TestBalancedTwists:
    def test_poincare_pair(self):
        p, g = presentation((2, 3, 5))
        assert balanced_twists(p, g) == (-1, (-1, -1))

    def test_2_3_13_pair(self):
        p, g = presentation((2, 3, 13))
        assert balanced_twists(p, g) == (-5, (-3, -2))

    def test_common_value_identity_randomized(self):
        rng = random.Random(33)
        for t in random_coprime_tuples(rng, 30):
            p, g = presentation(t)
            d, ks = balanced_twists(p, g)
            for (ai, _), ui, ki in zip(p.pairs, g.u, ks):
                assert ai * ki + ui == d
                assert ki <= -1
            assert d < 0


class TestVerifyTwistChain:
    def test_poincare_concrete_values(self):
        p, g = presentation((2, 3, 5))
        cert = verify_twist_chain(p, g)
        assert cert.slopes == (Fraction(-1), Fraction(0))
        assert cert.s_tcr == 0
        assert cert.s_tcr >= Fraction(-1, 6)
        assert cert.vertical_twist == -6
        assert cert.indices == (1, 2)
        assert [name for name, _ in cert.checks] == TWIST_CHECKS
        assert cert.all_checks_pass

    def test_2_3_7(self):
        p, g = presentation((2, 3, 7))
        cert = verify_twist_chain(p, g)
        assert cert.all_checks_pass

    def test_2_3_13(self):
        p, g = presentation((2, 3, 13))
        cert = verify_twist_chain(p, g)
        assert (cert.d, cert.k) == balanced_twists(p, g)
        assert cert.all_checks_pass

    def test_checks_pass_randomized(self):
        rng = random.Random(34)
        tuples = random_coprime_tuples(rng, 30)
        tuples += random_coprime_tuples(rng, 5, length=4, hi=40)
        for t in tuples:
            p, g = presentation(t)
            cert = verify_twist_chain(p, g)
            assert cert.all_checks_pass
            assert cert.vertical_twist == -prod(t[:-1])

    def test_half_line_check_matches_per_twist_oracle(self):
        """The one check at k = -1 decides the bound for every sampled twist k <= -1."""
        triples = [
            t
            for t in combinations(range(2, 30), 3)
            if all(gcd(x, y) == 1 for x, y in combinations(t, 2))
        ]
        assert len(triples) == 1016
        rng = random.Random(36)
        tuples = triples + random_coprime_tuples(rng, 5, length=4, hi=40)
        tuples += random_coprime_tuples(rng, 3, max_product=10**6, length=5, hi=40)
        for t in tuples:
            p, g = presentation(t)
            half_line = dict(verify_twist_chain(p, g).checks)["last_fiber_slope_bound_k<=-1"]
            oracle = per_twist_slope_checks(p, g, range(-1, -201, -1))
            assert half_line == all(ok for _, ok in oracle), t

    def test_last_slope_is_monotone_on_the_half_line(self):
        """-s_n(k) falls as k falls below -1, so k = -1 carries the largest right side,
        and the margin has the closed form the verify_twist_chain docstring gives."""
        rng = random.Random(37)
        for t in random_coprime_tuples(rng, 30) + random_coprime_tuples(rng, 5, length=4, hi=40):
            p, g = presentation(t)
            (an, bn), un, vn = p.pairs[-1], g.u[-1], g.v[-1]
            twists = range(-1, -101, -1)
            rhs = [-fiber_boundary_slope(an, bn, un, vn, k) for k in twists]
            assert all(x > y for x, y in zip(rhs, rhs[1:])), t
            for k, r in zip(twists, rhs):
                assert 1 - Fraction(bn, an) - r == 1 + Fraction(1, an * (an * k + un)), (t, k)

    def test_last_fiber_bound_is_evaluated_at_minus_one(self):
        # gluing data off the identity a_n v_n - b_n u_n = 1: with (u_3, v_3) =
        # (4, 2) for the fiber (5, 1), -s_3(-1) = 1 > 4/5 but -s_3(-2) = 0, so
        # only the check at k_n = -1 fails
        p, _ = presentation((2, 3, 5))
        forged = GluingData(u=(1, 2, 4), v=(0, 1, 2))
        assert -fiber_boundary_slope(5, 1, 4, 2, -2) <= Fraction(4, 5) < -fiber_boundary_slope(5, 1, 4, 2, -1)
        checks = dict(verify_twist_chain(p, forged).checks)
        assert checks == {"tcr_slope_dominates_singular_sum": True, "last_fiber_slope_bound_k<=-1": False}

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_cut_and_round_margin_has_its_closed_form(self, name):
        # s_i - b_i/a_i = 1/(a_i d) for each balanced fiber, by the gluing identity
        for t in CORPORA[name]:
            p, g = presentation(t)
            cert = verify_twist_chain(p, g)
            n = len(t)
            singular_sum = sum(Fraction(b, a) for a, b in p.pairs[: n - 1])
            margin = (sum(Fraction(1, a) for a in t[: n - 1]) - (n - 2)) / cert.d
            assert cert.s_tcr - singular_sum == margin, t


class TestVerdict:
    def test_poincare_donaldson_branch(self):
        r = verdict((2, 3, 5))
        assert r.verdict is Verdict.OBSTRUCTED_DONALDSON
        assert not r.certificate.present
        assert r.gap_lower is None
        assert r.d_inv == 2
        assert r.tau.P is None
        assert r.tau.smooth_tau_upper_paper == Fraction(30 - 6, 2)

    def test_2_3_13_floer_branch(self):
        r = verdict((2, 3, 13))
        assert r.verdict is Verdict.OBSTRUCTED_FLOER_GAP
        assert r.gap_lower == 9
        assert r.gap_lower >= 3
        assert r.twist_bound.tw_min == -8
        assert r.tau.P == 16
        assert r.d_inv == 0
        assert [name for name, _ in r.twist_certificate.checks] == TWIST_CHECKS
        assert r.twist_certificate.all_checks_pass

    def test_invalid_input_propagates(self):
        with pytest.raises(NotCoprime):
            verdict((2, 4, 5))

    @pytest.mark.parametrize("values", [[2.5, 3, 5], ["2", "3", "5"]])
    def test_non_integer_multiplicities_rejected(self, values):
        with pytest.raises(TypeError):
            verdict(values)

    @pytest.mark.parametrize("cap", [10**4 + 0.5, True, 0, "100"])
    def test_a_cap_that_is_no_positive_int_is_refused(self, cap):
        with pytest.raises(InvalidParameter, match="cap must be an int >= 1"):
            verdict((2, 3, 5), cap=cap)

    def test_a_numpy_integer_cap_keys_the_memo_as_its_int(self):
        report = verdict((2, 3, 13), cap=np.int64(10**6))
        assert report is verdict((2, 3, 13)) and type(report.certificate.cap) is int
        assert verdict((2, 3, 13), cap=np.int32(10**5)) is verdict((2, 3, 13), cap=10**5) is not report

    def test_a_cap_of_one_node_is_accepted(self):
        # the cap is checked as a parameter, then met by the search
        with pytest.raises(EnumerationCapExceeded):
            verdict((2, 3, 5), cap=1)
        assert verdict((2, 3, 5), cap=10**4).d_inv == 2

    def test_inconsistent_report_is_refused(self):
        # the bounds are derived from A and the certificate, so none can be given to contradict it
        r = verdict((2, 3, 13))
        for name, value in [
            ("tau", TauBounds(A=30, P=None)),
            ("twist_bound", TwistBound.for_product(30)),
            ("gap_lower", 0),
        ]:
            with pytest.raises(TypeError):
                ObstructionReport(**report_inputs(r), **{name: value})

    @pytest.mark.parametrize("name", ["verdict", "caveats", "form", "multiplicities"])
    def test_read_through_attributes_are_not_fields(self, name):
        r = verdict((2, 3, 5))
        assert len(vars(r)) == 10 and name not in vars(r)
        assert r.verdict is Verdict.OBSTRUCTED_DONALDSON and len(r.caveats) == 3 and r.form is r.certificate.form
        with pytest.raises(TypeError):
            ObstructionReport(**report_inputs(r), **{name: getattr(r, name)})

    def test_a_donaldson_report_rebuilt_from_its_inputs_is_equal(self):
        r = verdict((2, 3, 5))
        again = ObstructionReport(**report_inputs(r))
        assert again == r and vars(again) == vars(r)
        assert (again.tau.P, again.gap_lower, again.twist_bound.tw_min) == (None, None, -5)

    def test_four_fiber_tuple(self):
        r = verdict((2, 3, 5, 7))
        assert r.verdict in (Verdict.OBSTRUCTED_DONALDSON, Verdict.OBSTRUCTED_FLOER_GAP)
        assert r.multiplicities.product == 210

    def test_gap_positive_for_diagonalizable_randomized(self):
        rng = random.Random(35)
        count = 0
        for t in random_coprime_tuples(rng, 25, max_product=2000):
            r = verdict(t)
            if r.verdict is Verdict.OBSTRUCTED_FLOER_GAP:
                count += 1
                assert r.gap_lower >= 1
                assert r.d_inv == 0
            else:
                assert r.gap_lower is None
        assert count >= 5  # sampling must actually hit the branch


# Python refuses to convert an int of more digits than its limit (4300 by
# default) to str, so an error message quotes such an integer by its sign
# and digit count, and the typed error is raised, not the conversion's
# ValueError.  One test per message that formats an input integer.
@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
    reason="needs Python's limit on the digits of an int converted to str, at most 5000",
)
class TestIntegersPastTheDigitLimit:
    def test_not_coprime(self):
        with pytest.raises(NotCoprime, match=re.escape("gcd(<int of 5001 digits>, <int of 5001 digits>) = 2 > 1")):
            verdict((2 * 10**5000, 4 * 10**5000 + 2, 3))

    def test_multiplicity_too_small(self):
        with pytest.raises(MultiplicityTooSmall, match=re.escape("multiplicity -<int of 5001 digits> < 2")):
            verdict((-(10**5000), 3, 5))

    def test_cap(self):
        with pytest.raises(InvalidParameter, match=re.escape("cap must be an int >= 1, got -<int of 5001 digits>")):
            verdict((2, 3, 5), cap=-(10**5000))

    def test_certificate_node_count(self):
        message = "node count must be in [0, 10000], got <int of 5001 digits>"
        with pytest.raises(ValueError, match=re.escape(message)):
            DiagonalizationCertificate(form=form_for((2, 3, 5)), units=(), nodes=10**5000, cap=10**4)

    def test_presentation_identity(self):
        message = "sum(b * A/a) != 1 for b = (<int of 5001 digits>, 0, 0)"
        with pytest.raises(CertificateViolation, match=re.escape(message)):
            SeifertPresentation(multiplicities=Multiplicities((2, 3, 5)), coefficients=(10**5000, 0, 0))

    def test_certificate_determinant(self):
        with pytest.raises(ValueError, match=re.escape("form must be unimodular, det = -<int of 5001 digits>")):
            DiagonalizationCertificate(form=IntersectionForm([-(10**5000)], ((), (), ())), units=(), nodes=0, cap=1)

    @pytest.mark.parametrize("k", [4999, 5000, 10**4])
    def test_the_digit_count_is_exact_at_powers_of_ten(self, k):
        assert quoted(10**k - 1) == f"<int of {k} digits>"
        assert quoted(-(10**k)) == f"-<int of {k + 1} digits>"


def empty_memo(monkeypatch):
    """Give verdict an empty report memo until the test ends."""
    monkeypatch.setattr(obstruction, "_memo", OrderedDict())
    monkeypatch.setattr(obstruction, "_memo_weight", 0)


def kept():
    """The memo's tuples, least recently used first, once its weight is checked."""
    weight = sum(map(obstruction._weight, obstruction._memo.values()))
    assert obstruction._memo_weight == weight <= obstruction.MEMO_BUDGET
    assert all(cap == DEFAULT_ENUMERATION_CAP for _, cap in obstruction._memo)
    return [a for a, _ in obstruction._memo]


def without_time(report):
    return {k: v for k, v in vars(report).items() if k != "elapsed_ms"}


class TestReportMemo:
    def test_a_repeat_call_returns_the_same_report(self, monkeypatch):
        empty_memo(monkeypatch)
        first = verdict([3, 4, 5])
        for same in ((3, 4, 5), range(3, 6), np.array([3, 4, 5], dtype=np.int64), [3, 4, 5]):
            assert verdict(same) is first
        assert verdict((3, 4, 5), cap=DEFAULT_ENUMERATION_CAP) is first
        assert kept() == [(3, 4, 5)]

    def test_a_report_never_answers_a_lower_cap(self):
        high = verdict((5, 8, 13), cap=10**6)
        assert high.verdict is Verdict.OBSTRUCTED_DONALDSON and high.d_inv == 4
        with pytest.raises(EnumerationCapExceeded):
            verdict((5, 8, 13), cap=3 * 10**4)
        assert verdict((5, 8, 13), cap=10**6) is high

    def test_errors_are_raised_again_and_not_kept(self, monkeypatch):
        empty_memo(monkeypatch)
        for _ in range(2):
            with pytest.raises(EnumerationCapExceeded):
                verdict((5, 8, 13), cap=3 * 10**4)
            with pytest.raises(NotCoprime):
                verdict((2, 4, 5))
        assert not obstruction._memo and obstruction._memo_weight == 0

    def test_least_recently_used_reports_are_evicted_first(self, monkeypatch):
        empty_memo(monkeypatch)
        # (3, 4, 5), (2, 3, 13) and (2, 5, 7) have rank 5, weight 1049; (2, 3, 7) 4, (3, 5, 7) 12
        monkeypatch.setattr(obstruction, "MEMO_BUDGET", 3 * 1049)
        first = verdict((3, 4, 5))
        verdict((2, 3, 13))
        verdict((2, 5, 7))
        assert kept() == [(3, 4, 5), (2, 3, 13), (2, 5, 7)]
        assert verdict((3, 4, 5)) is first
        assert kept() == [(2, 3, 13), (2, 5, 7), (3, 4, 5)]
        verdict((2, 3, 7))
        assert kept() == [(2, 5, 7), (3, 4, 5), (2, 3, 7)]
        verdict((3, 5, 7))
        assert kept() == [(2, 3, 7), (3, 5, 7)]
        assert verdict((3, 4, 5)) is not first

    def test_a_report_over_the_budget_is_not_kept(self, monkeypatch):
        empty_memo(monkeypatch)
        monkeypatch.setattr(obstruction, "MEMO_BUDGET", 3 * 1049)
        verdict((3, 4, 5))
        heavy = verdict((2, 3, 499))  # rank 86
        assert obstruction._weight(heavy) > obstruction.MEMO_BUDGET
        assert kept() == [(3, 4, 5)]
        assert verdict((2, 3, 499)) is not heavy

    def test_concurrent_calls_agree_with_fresh_reports(self, monkeypatch):
        coprime = (t for t in combinations(range(2, 14), 3) if all(gcd(a, b) == 1 for a, b in combinations(t, 2)))
        tuples = list(coprime)[:20]
        fresh = {t: without_time(verdict(t)) for t in tuples}
        empty_memo(monkeypatch)
        orders = [tuples, tuples[::-1]] * 2
        barrier = threading.Barrier(len(orders))
        results, errors = [], []

        def run(order):
            try:
                barrier.wait(timeout=30)
                results.extend((t, verdict(t)) for t in order)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that they miss on the same tuples
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 20 * len(orders)
        assert all(without_time(report) == fresh[t] for t, report in results)
        # a lost update of the memo's weight would break kept()'s check
        assert sorted(kept()) == sorted(tuples)


@pytest.mark.parametrize(
    "error, call",
    [
        (InvalidRange, lambda: TauBounds(A=0, P=None).smooth_tau_upper_paper),
        (InvalidRange, lambda: twist_lower_bound(0)),
        (InvalidRange, lambda: fiber_boundary_slope(2, 1, 2, 1, -1)),  # a*k + u = 0
        (InvalidRange, lambda: cut_and_round_slope([Fraction(0), Fraction(0)], 1)),
        (InvalidRange, lambda: TauBounds(A=0, P=None).contact_tau_lower_at_tw_min),
        # a report derives P from its certificate, whose first row has squared norm 78, not A = 66
        (CertificateViolation, lambda: ObstructionReport(
            **{**report_inputs(verdict((2, 3, 13))), "presentation": presentation((2, 3, 11))[0]}
        )),
        # 30 * (1/2 + 1/3 + 1/5) = 31, not 1
        (CertificateViolation, lambda: SeifertPresentation(
            multiplicities=validate_multiplicities((2, 3, 5)), coefficients=(1, 1, 1)
        )),
        # float fiber data would reach tilde_b and the transverse search as floats
        (TypeError, lambda: NormalizedPresentation(e0=-1, r=(0.5, 0.25, 0.2))),
        (TypeError, lambda: NormalizedPresentation(e0=-1.0, r=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))),
        # E's first row for (2, 3, 7) has squared norm A = 42; P's bound and parity rest on that identity
        (CertificateViolation, lambda: max_sharp_pairing(diagonalize(form_for((2, 3, 7))), Fraction(-43))),
        # u_2 = -1 solves d = -1 = u_2 mod 3, but gives k_2 = 0, not <= -1
        (CertificateViolation, lambda: balanced_twists(
            presentation((2, 3, 5))[0], GluingData(u=(1, -1, 1), v=(1, 1, 1))
        )),
        # u_1 = 0 breaks 0 < u_i < a_i, and the k_i check refuses it:
        # d = -(25 mod 6) = -1, and d - u_1 = -1 is not divisible by a_1 = 2
        (CertificateViolation, lambda: balanced_twists(
            presentation((2, 3, 5))[0], GluingData(u=(0, 0, 1), v=(1, 1, 1))
        )),
    ],
)
def test_domain_and_identity_errors(error, call):
    with pytest.raises(error):
        call()


ROW_LATTICE_BASIS = _linalg.row_lattice_basis


@pytest.mark.parametrize(
    "module, name, forged, call, message",
    [
        # 0/1 as the simplest fraction in (1/2, 2/3): m = 1 passes m*r3 < 1, but a = 0
        (
            families, "_simplest_between", lambda lo, hi: Fraction(0),
            lambda: transverse_contact_exists(
                NormalizedPresentation(e0=-1, r=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
            ),
            r"witness \(a, m\) = \(0, 1\) fails",
        ),
        # (2, 3, 11) has rank 9 and one (-1)-vector, so its complement has rank 8:
        # a basis short of a row, and one with a row doubled (det 4)
        (
            _linalg, "row_lattice_basis", lambda rows: ROW_LATTICE_BASIS(rows)[:-1],
            lambda: d_invariant(diagonalize(form_for((2, 3, 11)))),
            "complement has rank 7, not 8",
        ),
        (
            _linalg, "row_lattice_basis",
            lambda rows: [[2 * x for x in b] if i == 0 else b for i, b in enumerate(ROW_LATTICE_BASIS(rows))],
            lambda: d_invariant(diagonalize(form_for((2, 3, 11)))),
            "complement has det 4, not",
        ),
        (obstruction, "dual_class", lambda form: Fraction(-77), lambda: verdict((2, 3, 13)), "D.D = -77, not -A = -78"),
    ],
    ids=["transverse-witness", "complement-rank", "complement-det", "dual-class"],
)
def test_certificate_checks_refuse_a_forged_step(monkeypatch, module, name, forged, call, message):
    # each forged step reaches the one check that guards it
    empty_memo(monkeypatch)
    monkeypatch.setattr(module, name, forged)
    with pytest.raises(CertificateViolation, match=message):
        call()
