"""End-to-end acceptance gates.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); stated
runtime budgets are asserted with wall-clock measurements around the relevant
pipeline calls only.
"""

import random
import time
from fractions import Fraction
from math import prod

from seifert_gate import (
    SmallSeifertData,
    Verdict,
    balanced_twists,
    build_plumbing,
    d_invariant,
    diagonalize,
    dual_class,
    gluing_data,
    h1_order,
    intersection_form,
    inverse_first_column,
    max_sharp_pairing,
    mp_family,
    normalize,
    solve_unnormalized,
    theta_invariant,
    transverse_contact_exists,
    twist_lower_bound,
    validate_multiplicities,
    verdict,
    verify_twist_chain,
)
from oracles import (
    box_d_invariant,
    box_norm_minus_one,
    brute_force_sharp_max,
    random_coprime_tuples,
)
from seifert_gate.lattice import norm_minus_one_vectors


def gate(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def pipeline_form(t):
    m = validate_multiplicities(t)
    return intersection_form(build_plumbing(normalize(solve_unnormalized(m)), m))


def test_criterion_1_poincare_end_to_end():
    start = time.perf_counter()
    report = verdict((2, 3, 5))
    elapsed = time.perf_counter() - start
    graph = report.graph
    ok = (
        graph.center_weight == -2
        and tuple(len(l) for l in graph.legs) == (1, 2, 4)
        and all(w == -2 for w in graph.weights)
        and abs(report.form.det) == 1
        and not report.certificate.present
        and report.verdict is Verdict.OBSTRUCTED_DONALDSON
        and report.d_inv == 2
        and box_d_invariant([list(r) for r in report.form.Q]) == 2
        and elapsed < 1.0
    )
    gate(f"criterion 1: Sigma(2,3,5) Donaldson branch, d = 2, {elapsed:.3f}s < 1s", ok)


def test_criterion_2_sigma_2_3_13_end_to_end():
    start = time.perf_counter()
    report = verdict((2, 3, 13))
    elapsed = time.perf_counter() - start
    cert = report.certificate
    q = report.form.Q
    m = report.form.m
    e = cert.E
    et_qe_ok = all(
        sum(e[i][a] * q[i][j] * e[j][b] for i in range(m) for j in range(m))
        == (-1 if a == b else 0)
        for a in range(m)
        for b in range(m)
    )
    p = report.tau.P
    ok = (
        cert.present
        and et_qe_ok
        and p % 2 == 0
        and p * p >= 78
        and report.twist_bound.tw_min == -8
        and report.gap_lower == report.twist_bound.tw_min + p + 1
        and report.gap_lower >= 3
        and report.verdict is Verdict.OBSTRUCTED_FLOER_GAP
        and elapsed < 5.0
    )
    gate(f"criterion 2: Sigma(2,3,13) Floer-gap branch, P = {p}, {elapsed:.3f}s < 5s", ok)


def test_criterion_3_randomized_invariants():
    rng = random.Random(20250801)
    tuples = random_coprime_tuples(rng, 50)
    start = time.perf_counter()
    ok = True
    for t in tuples:
        m = validate_multiplicities(t)
        big_a = m.product
        p = solve_unnormalized(m)
        ok &= big_a * sum(Fraction(bk, ak) for ak, bk in p.pairs) == 1
        norm = normalize(p)
        ok &= sum(norm.r) == -norm.e0 - Fraction(1, big_a)
        f = intersection_form(build_plumbing(norm, m))
        ok &= f.negative_definite and abs(f.det) == 1
        ok &= inverse_first_column(f)[0] == -big_a
    elapsed = time.perf_counter() - start
    ok = ok and len(tuples) >= 50 and elapsed < 60.0
    gate(
        f"criterion 3: {len(tuples)} random triples, exact invariants, {elapsed:.1f}s < 60s",
        ok,
    )


def test_criterion_4_oracle_equivalence():
    candidates = [
        (2, 3, 7),
        (2, 3, 13),
        (3, 4, 5),
        (2, 5, 7),
        (2, 3, 19),
        (2, 5, 9),
        (2, 3, 25),
        (3, 4, 7),
        (2, 5, 11),
        (2, 7, 9),
    ]
    checked = 0
    ok = True
    for t in candidates:
        f = pipeline_form(t)
        cert = diagonalize(f)
        if not cert.present or f.m > 12:
            continue
        checked += 1
        p = max_sharp_pairing(cert, dual_class(f))
        oracle = brute_force_sharp_max([list(r) for r in f.Q], [list(r) for r in cert.E])
        ok &= p == oracle
        ok &= d_invariant(f) == 0
        if f.m <= 6:
            ok &= norm_minus_one_vectors(f) == box_norm_minus_one([list(r) for r in f.Q])
    ok = ok and checked >= 5
    gate(f"criterion 4: oracle equivalence on {checked} diagonalizable cases", ok)


def test_criterion_5_twist_arithmetic():
    rng = random.Random(20250802)
    tuples = random_coprime_tuples(rng, 20)
    ok = True
    for t in tuples:
        p = solve_unnormalized(validate_multiplicities(t))
        g = gluing_data(p)
        base = balanced_twists(p, g, range(1, len(t)))
        for i, ki in zip(base.indices, base.k):
            ok &= p.pairs[i - 1][0] * ki + g.u[i - 1] == base.d
        chain = verify_twist_chain(p, g, range(-1, -11, -1))
        ok &= chain.all_checks_pass
    p = solve_unnormalized(validate_multiplicities((2, 3, 5)))
    chain = verify_twist_chain(p, gluing_data(p), range(-1, -11, -1))
    ok &= chain.slopes == (Fraction(-1), Fraction(0)) and chain.s_tcr == 0
    gate(f"criterion 5: balanced twists and slope chain on {len(tuples)} triples", ok)


def test_criterion_6_perfect_square_edge():
    ok = twist_lower_bound(900) == -29
    rng = random.Random(20250803)
    values = [rng.randrange(2, 10**8) for _ in range(1000)]
    for big_a in values:
        t = twist_lower_bound(big_a)
        ok &= t <= 0 and t * t < big_a and (1 - t) * (1 - t) >= big_a
    gate("criterion 6: twist bound at perfect squares and 10^3 random A", ok)


def test_criterion_7_homology_arithmetic():
    rng = random.Random(20250804)
    ok = True
    for t in random_coprime_tuples(rng, 30):
        p = solve_unnormalized(validate_multiplicities(t))
        ok &= h1_order(p.pairs) == 1
        ok &= h1_order(list(p.pairs) + [(1, 1)]) == prod(t) + 1
    gate("criterion 7: canonical h1 = 1 and unit-fiber append gives A + 1", ok)


def test_criterion_8_families():
    ok = all(
        not transverse_contact_exists(mp_family(p)).present for p in range(2, 21)
    )
    witness = transverse_contact_exists(
        SmallSeifertData(e=-1, r=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)))
    )
    ok &= (witness.a, witness.m) == (3, 5)
    ok &= theta_invariant(0, 0, 1) == -2
    gate("criterion 8: family searches and theta invariant", ok)
