"""Reports against routes that do not go through the lattice searches.

The torus-knot surgery family has a closed form for d, Laufer's computation
sequence gives d and P with no search at all, its steps for three fibers
follow from the semigroup <qr, pr, pq>, the gluing columns and the balanced
twist value come from a modular inverse and the Chinese remainder theorem as
well as from A/a_i, and every report must satisfy the identities that tie its
fields together.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_gate import EnumerationCapExceeded, _linalg, validate_multiplicities, verdict
from seifert_gate.cli import format_text, report_to_dict
from seifert_gate.obstruction import balanced_twists
from seifert_gate.plumbing import build_plumbing, intersection_form
from seifert_gate.seifert import gluing_data, normalize, solve_unnormalized
from oracles import (
    crt_balanced_d,
    dedekind_sum,
    inverse_gluing_u,
    scanned_tau_minimum,
    semigroup_steps,
    tau_d_invariant,
    tau_steps,
    windowed_tau_minimum,
)
from test_golden import CORPORA

CAP = 3 * 10**4


def semigroup_gaps(p, q):
    """The positive integers that are not i*p + j*q with i, j >= 0, for coprime p, q."""
    top = (p - 1) * (q - 1)  # the conductor: every larger integer is in the semigroup
    members = {i * p + j * q for i in range(q) for j in range(p)}
    return [x for x in range(1, top) if x not in members]


def torus_family():
    """(triple, expected d) for Sigma(p, q, pqn -+ 1), coprime 2 <= p < q < 12, n = 1, 2, 3.

    Sigma(p, q, pqn - 1) is -1/n surgery on the (p, q) torus knot, an L-space
    knot, with d = 2 V_0 = 2 #{gaps >= g}, g = (p - 1)(q - 1)/2
    (Borodzik-Livingston); Sigma(p, q, pqn + 1) is +1/n surgery, with d = 0
    (Ni-Wu).
    """
    out = []
    for p, q in combinations(range(2, 12), 2):
        if gcd(p, q) != 1:
            continue
        genus = (p - 1) * (q - 1) // 2
        v0 = sum(1 for x in semigroup_gaps(p, q) if x >= genus)
        for n in (1, 2, 3):
            out.append((tuple(sorted((p, q, p * q * n - 1))), 2 * v0))
            out.append((tuple(sorted((p, q, p * q * n + 1))), 0))
    return out


def coprime_tuples():
    """Pairwise-coprime triples of range(2, 40), 4-tuples of range(2, 18) and 5-tuples of range(2, 14)."""
    for length, hi in ((3, 40), (4, 18), (5, 14)):
        for t in combinations(range(2, hi), length):
            if all(gcd(x, y) == 1 for x, y in combinations(t, 2)):
                yield t


def test_twist_data_matches_the_inverse_and_crt_routes():
    tuples = list(coprime_tuples())
    assert len(tuples) == 2692
    for t in tuples:
        p = solve_unnormalized(validate_multiplicities(t))
        g = gluing_data(p)
        u = inverse_gluing_u(p)
        assert g.u == u, t
        assert balanced_twists(p, g)[0] == crt_balanced_d(t[:-1], u[:-1]), t


def test_torus_knot_family_matches_the_closed_form():
    family = torus_family()
    assert len(family) == 186
    matched = 0
    for triple, expected in family:
        try:
            report = verdict(triple, cap=CAP)
        except EnumerationCapExceeded:
            continue
        assert report.d_inv == expected, triple
        matched += 1
    assert matched >= 156


def test_computation_sequence_matches_the_closed_form():
    # all 186, the 30 whose lattice search reaches the cap included; min tau
    # from the window, which the property test below pins to the full scan
    for triple, expected in torus_family():
        assert tau_d_invariant(triple, windowed_tau_minimum)[0] == expected, triple


def test_computation_sequence_matches_verdict_on_the_corpus():
    # the golden corpus holds every triple the census draws from
    tuples = sorted({t for ts in CORPORA.values() for t in ts})
    assert len(tuples) == 110
    capped = []
    for values in tuples:
        d = tau_d_invariant(values)[0]
        try:
            assert verdict(values, cap=CAP).d_inv == d, values
        except EnumerationCapExceeded:
            capped.append((values, d))
    assert capped == [((5, 8, 13), 4)]


def test_computation_sequence_gives_p_on_the_gap_branch():
    # every diagonalizable corpus tuple (the gap ladder included) and the
    # torus-knot triples with d = 0; (97, 98, 99) is left out, its scan is slow
    tuples = {t for ts in CORPORA.values() for t in ts}
    tuples |= {triple for triple, expected in torus_family() if expected == 0}
    checked = 0
    for values in sorted(tuples):
        try:
            report = verdict(values, cap=CAP)
        except EnumerationCapExceeded:
            continue
        if report.certificate.present:
            assert tau_d_invariant(values) == (0, report.tau.P), values
            checked += 1
    assert checked == 146


# the tuples of the identities below: the golden corpus, and a few with 4 and 5 fibers
IDENTITY_TUPLES = sorted({t for ts in CORPORA.values() for t in ts}) + [
    (2, 3, 5, 7),
    (2, 3, 5, 11),
    (3, 4, 5, 7),
    (2, 5, 7, 9),
    (2, 3, 5, 7, 11),
    (3, 4, 5, 7, 11),
]


# the two identities of the form's integer solve also run on every 4- and 5-fiber tuple of coprime_tuples()
MULTI_FIBER_TUPLES = [t for t in coprime_tuples() if len(t) > 3]
SOLVE_IDENTITY_TUPLES = sorted({*IDENTITY_TUPLES, *MULTI_FIBER_TUPLES})


def n_zero(values):
    """N0 = A (n - 2) - sum_i A/a_i for the multiplicities (a_1, ..., a_n), A their product."""
    big_a = validate_multiplicities(values).product
    return big_a * (len(values) - 2) - sum(big_a // a for a in values)


def test_k_dot_d_is_minus_n_zero_minus_one():
    # k.D = (Q^-1 k)_0 for the canonical class k_i = -Q_ii - 2, from the form's
    # integer solve, re-checked on its rows
    assert len(MULTI_FIBER_TUPLES) == 261
    for values in SOLVE_IDENTITY_TUPLES:
        norm = normalize(solve_unnormalized(validate_multiplicities(values)))
        form = intersection_form(build_plumbing(norm))
        k = [-q - 2 for q in form.diagonal]
        x, det = _linalg.solve(form.minors, form.levels, [-ki for ki in k])  # Q x = det k
        assert all(sum(q * x[j] for j, q in row) == det * ki for row, ki in zip(form.rows, k)), values
        assert Fraction(x[0], det) == -(n_zero(values) + 1), values


def test_k_squared_plus_m_is_the_dedekind_sum_formula():
    # K^2 + m = 5 - (N0^2 + 1)/A - 12 sum_i s(w_i, a_i), w_i = -b~_i mod a_i, for
    # K^2 = k^T Q^-1 k from the form's integer solve, k_i = -Q_ii - 2
    for values in SOLVE_IDENTITY_TUPLES:
        mult = validate_multiplicities(values)
        norm = normalize(solve_unnormalized(mult))
        form = intersection_form(build_plumbing(norm))
        k = [-q - 2 for q in form.diagonal]
        x, det = _linalg.solve(form.minors, form.levels, [-ki for ki in k])  # Q x = det k
        k_squared = Fraction(sum(ki * xi for ki, xi in zip(k, x)), det)
        sums = sum(dedekind_sum(-tb % a, a) for tb, a in zip(norm.tilde_b, mult.a))
        n0 = n_zero(values)
        assert k_squared + form.m == 5 - Fraction(n0 * n0 + 1, mult.product) - 12 * sums, values


def test_tau_is_symmetric_about_half_of_n_zero_plus_one():
    # tau(n) = tau(N0 + 1 - n) for 0 <= n <= N0 + 1, so tau's vertex is (N0 + 1)/2
    for values in IDENTITY_TUPLES:
        top = n_zero(values) + 1
        norm = normalize(solve_unnormalized(validate_multiplicities(values)))
        taus = list(accumulate(tau_steps(norm, values, top), initial=0))
        assert len(taus) == max(top, 0) + 1 and taus == taus[::-1], values


def test_three_fiber_steps_follow_the_semigroup():
    # Delta(n) from normalize's e0 and b~_i equals [n in G] - [N0 - n in G]
    # for 0 <= n <= N0 + 1, on every pairwise-coprime triple of range(2, 24)
    triples = [t for t in COPRIME_TRIPLES if t[2] < 24]
    assert len(triples) == 491
    for t in triples:
        norm = normalize(solve_unnormalized(validate_multiplicities(t)))
        expected = semigroup_steps(t)
        assert tau_steps(norm, t, len(expected)) == expected, t


COPRIME_TRIPLES = [
    t for t in combinations(range(2, 30), 3) if all(gcd(x, y) == 1 for x, y in combinations(t, 2))
]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(COPRIME_TRIPLES))
def test_report_invariants(triple):
    try:
        report = verdict(triple, cap=CAP)
    except EnumerationCapExceeded:
        return
    d, cert = report.d_inv, report.certificate
    assert d >= 0 and d.denominator == 1 and d.numerator % 2 == 0
    assert (d == 0) == cert.present
    if cert.present:
        big_a, p = report.multiplicities.product, report.tau.P
        assert p == sum(abs(e) for e in cert.E[0])
        assert p * p >= big_a and (p - big_a) % 2 == 0
        assert report.gap_lower == report.twist_bound.tw_min + p + 1
    doc = report_to_dict(report)
    assert json.loads(json.dumps(doc)) == doc
    text = format_text(doc).splitlines()
    assert f"  verdict: {doc['verdict']}" in text
    value = Fraction(int(doc["d_invariant"]["num"]), int(doc["d_invariant"]["den"]))
    assert value == d and f"  d-invariant = {value}" in text


# the windowed route's tuples: the triples above, the 4-fiber tuples of range(2, 14) and (2, 3, 5, 7, 11)
WINDOW_TUPLES = COPRIME_TRIPLES + [
    t for t in combinations(range(2, 14), 4) if all(gcd(x, y) == 1 for x, y in combinations(t, 2))
] + [(2, 3, 5, 7, 11)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(WINDOW_TUPLES))
@example((9, 10, 11, 13))
@example((2, 3, 5, 7, 11))
def test_the_tau_window_holds_every_minimizer_of_the_full_scan(values):
    assert windowed_tau_minimum(values) == scanned_tau_minimum(values)


def test_p_reads_the_minimizers_past_n_zero_plus_one():
    # P = max |2n - (N0 + 1)| over all minimizers equals the report's P; those in
    # [0, N0 + 1], the half window [c - w, c] and its mirror, give less
    for values, full, clipped in [((2, 3, 7), 10, 2), ((2, 3, 13), 16, 8), ((3, 4, 5), 16, 14)]:
        top = n_zero(values) + 1
        argmins = windowed_tau_minimum(values)[1]
        assert max(abs(2 * n - top) for n in argmins) == full == verdict(values).tau.P, values
        assert max(abs(2 * n - top) for n in argmins if n <= top) == clipped, values
