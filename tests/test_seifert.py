import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from seifert_gate import (
    MultiplicityTooSmall,
    NotCoprime,
    TooFewFibers,
    validate_multiplicities,
)
from seifert_gate.plumbing import PlumbingGraph, build_plumbing, intersection_form
from seifert_gate.seifert import Multiplicities, gluing_data, normalize, solve_unnormalized
from oracles import random_coprime_tuples
from test_golden import CORPORA

# the inputs of both golden corpora, which the identity tests below take besides their random draws
GOLDEN_TUPLES = [t for name in sorted(CORPORA) for t in CORPORA[name]]


class TestValidate:
    def test_accepts_poincare_tuple(self):
        m = validate_multiplicities([2, 3, 5])
        assert m.a == (2, 3, 5)
        assert m.product == 30

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprime):
            validate_multiplicities([2, 4, 5])

    def test_accepts_four_fibers(self):
        assert validate_multiplicities([2, 3, 5, 7]).product == 210

    def test_rejects_too_few(self):
        with pytest.raises(TooFewFibers):
            validate_multiplicities([2, 3])

    def test_rejects_small_multiplicity(self):
        with pytest.raises(MultiplicityTooSmall):
            validate_multiplicities([1, 2, 3])

    def test_rejects_float_multiplicity(self):
        # int() would truncate 2.5 to 2 and report Sigma(2, 3, 5)
        with pytest.raises(TypeError):
            validate_multiplicities([2.5, 3, 5])

    def test_rejects_string_multiplicities(self):
        with pytest.raises(TypeError):
            validate_multiplicities(["2", "3", "5"])

    def test_accepts_numpy_integers(self):
        # kept as int64, a product of 16 primes would wrap around
        raw = np.array([2, 3, 5], dtype=np.int64)
        for m in (validate_multiplicities(raw), Multiplicities(a=raw)):
            assert m.a == (2, 3, 5) and all(type(x) is int for x in m.a)


class TestSolveUnnormalized:
    @pytest.mark.parametrize(
        "a, expected_b",
        [
            ((2, 3, 5), (-1, 1, 1)),
            ((2, 3, 7), (-3, 2, 6)),
            ((2, 3, 13), (-3, 2, 11)),
        ],
    )
    def test_known_coefficients(self, a, expected_b):
        p = solve_unnormalized(validate_multiplicities(a))
        assert p.coefficients == expected_b
        # direct substitution into the defining equation
        big_a = prod(a)
        assert sum(bk * big_a // ak for ak, bk in p.pairs) == 1

    def test_defining_identity_exact_randomized(self):
        rng = random.Random(1105)
        for t in random_coprime_tuples(rng, 100) + GOLDEN_TUPLES:
            p = solve_unnormalized(validate_multiplicities(t))
            total = sum(Fraction(bk, ak) for ak, bk in p.pairs)
            assert prod(t) * total == 1


class TestNormalize:
    @pytest.mark.parametrize(
        "a, e0, tilde",
        [
            ((2, 3, 5), -2, (-1, -2, -4)),
            ((2, 3, 7), -1, (-1, -1, -1)),
            ((2, 3, 13), -1, (-1, -1, -2)),
        ],
    )
    def test_known_normalizations(self, a, e0, tilde):
        norm = normalize(solve_unnormalized(validate_multiplicities(a)))
        assert norm.e0 == e0
        assert norm.tilde_b == tilde

    def test_fraction_sums(self):
        norm = normalize(solve_unnormalized(validate_multiplicities((2, 3, 5))))
        assert norm.r == (Fraction(1, 2), Fraction(2, 3), Fraction(4, 5))
        assert sum(norm.r) == Fraction(59, 30) == 2 - Fraction(1, 30)
        norm = normalize(solve_unnormalized(validate_multiplicities((2, 3, 7))))
        assert sum(norm.r) == Fraction(41, 42)
        norm = normalize(solve_unnormalized(validate_multiplicities((2, 3, 13))))
        assert sum(norm.r) == Fraction(77, 78)

    def test_randomized_invariants(self):
        rng = random.Random(1913)
        tuples = random_coprime_tuples(rng, 80)
        tuples += random_coprime_tuples(rng, 20, length=4, hi=40)
        tuples += random_coprime_tuples(rng, 10, length=5, hi=25)
        for t in tuples + GOLDEN_TUPLES:
            m = validate_multiplicities(t)
            p = solve_unnormalized(m)
            norm = normalize(p)
            big_a = m.product
            assert sum(norm.r) + norm.e0 + Fraction(1, big_a) == 0
            assert -(len(m.a) - 1) <= norm.e0 <= -1
            for aj, bj, tb in zip(m.a, p.coefficients, norm.tilde_b):
                assert -aj < tb < 0
                assert (tb - bj) % aj == 0


class TestGluing:
    def test_poincare_values(self):
        p = solve_unnormalized(validate_multiplicities((2, 3, 5)))
        g = gluing_data(p)
        assert g.u == (1, 2, 4)
        assert g.v == (0, 1, 1)

    def test_2_3_13_values(self):
        p = solve_unnormalized(validate_multiplicities((2, 3, 13)))
        g = gluing_data(p)
        assert g.u == (1, 1, 7)
        assert g.v == (-1, 1, 6)
        assert 2 * (-1) - (-3) * 1 == 1
        assert 3 * 1 - 2 * 1 == 1
        assert 13 * 6 - 11 * 7 == 1

    def test_determinant_identity_randomized(self):
        rng = random.Random(77)
        for t in random_coprime_tuples(rng, 60) + GOLDEN_TUPLES:
            p = solve_unnormalized(validate_multiplicities(t))
            g = gluing_data(p)
            for (ai, bi), ui, vi in zip(p.pairs, g.u, g.v):
                assert ai * vi - bi * ui == 1
                assert 0 < ui < ai


class TestH1Order:
    """|H_1| of the surgery diagram (a_k, b_k) is |a_1*...*a_n * sum(b_k / a_k)|."""

    def test_canonical_presentation_is_homology_sphere(self):
        rng = random.Random(40)
        for t in random_coprime_tuples(rng, 60):
            p = solve_unnormalized(validate_multiplicities(t))
            assert abs(sum(b * (prod(t) // a) for a, b in p.pairs)) == 1

    def test_appending_unit_fiber_adds_one(self):
        # a (1, 1) fiber lowers e0 by one, and |H_1| is |det Q| of the plumbing
        rng = random.Random(41)
        for t in random_coprime_tuples(rng, 25):
            m = validate_multiplicities(t)
            g = build_plumbing(normalize(solve_unnormalized(m)))
            shifted = PlumbingGraph(center_weight=g.center_weight - 1, legs=g.legs)
            assert abs(intersection_form(shifted).det) == prod(t) + 1
