import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest

from seifert_gate import (
    CertificateViolation,
    DivisionByZero,
    InvalidRange,
    RankTooLarge,
    diagonalize,
    validate_multiplicities,
)
from seifert_gate.seifert import normalize, solve_unnormalized
from seifert_gate import plumbing
from seifert_gate.plumbing import (
    IntersectionForm,
    PlumbingGraph,
    _cf_runs,
    build_plumbing,
    intersection_form,
    neg_cf,
    tree_rank,
)
from seifert_gate.lattice import dual_class
from seifert_gate.lattice import _split_off_units
from oracles import (
    cofactor_det,
    dense,
    dense_intersection_matrix,
    entrywise_neg_cf,
    form_from_matrix,
    fraction_neg_cf,
    gauss_inverse,
    random_coprime_tuples,
)
from test_golden import CORPORA


def graph_for(a):
    m = validate_multiplicities(a)
    return build_plumbing(normalize(solve_unnormalized(m)))


def form_for(a):
    return intersection_form(graph_for(a))


def complement_for(a):
    """The unit-free orthogonal complement that d_invariant searches: a dense form."""
    f = form_for(a)
    return _split_off_units(f, diagonalize(f).units)


GAP_LADDER = [(2, 3, 6 * n + 1) for n in range(2, 51, 6)]


class TestNegCf:
    def test_integer_input(self):
        assert neg_cf(2, -1) == (-2,)

    def test_all_minus_two_chain(self):
        assert neg_cf(5, -4) == (-2, -2, -2, -2)

    def test_two_step(self):
        cf = neg_cf(13, -2)
        assert cf == (-7, -2)
        assert Fraction(*plumbing._evaluate_cf(cf)) == Fraction(-13, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidRange):
            neg_cf(1, -1)
        with pytest.raises(InvalidRange):
            neg_cf(3, 5)

    def test_round_trip_randomized(self):
        # 1000 random rationals in (-10^6, -1)
        rng = random.Random(271828)
        for _ in range(1000):
            q = rng.randrange(1, 1000)
            p = rng.randrange(q + 1, q * 10**6)
            x = Fraction(-p, q)
            assert -(10**6) < x < -1
            cf = neg_cf(-p, q)
            assert all(k <= -2 for k in cf)
            assert Fraction(*plumbing._evaluate_cf(cf)) == x

    def test_run_counts_match_expansion(self):
        for a in range(2, 400):
            for q in range(1, a):
                if gcd(a, q) == 1:
                    assert sum(t for _, t in _cf_runs(a, q)) == len(neg_cf(a, -q)), (a, q)

    def test_matches_the_entrywise_walk(self):
        reduced = [(-p, q) for p in range(2, 400) for q in range(1, p) if gcd(p, q) == 1]
        # unreduced pairs, with either sign of the denominator
        scaled = [(k * p, k * q) for p, q in reduced[::37] for k in (-1, 2, -6)]
        integral = [(-n, 1) for n in range(2, 40)] + [(-12, 4), (12, -6), (-10**20, 10**19)]
        long_run = [(-(10**5 + 1), 10**5), (10**5 + 1, -(10**5))]
        for p, q in reduced + scaled + integral + long_run:
            assert neg_cf(p, q) == entrywise_neg_cf(p, q), (p, q)
        assert neg_cf(-(10**5 + 1), 10**5) == (-2,) * 10**5


class TestBuildPlumbing:
    def test_poincare_is_e8_tree(self):
        m = validate_multiplicities((2, 3, 5))
        g = build_plumbing(normalize(solve_unnormalized(m)))
        assert g.center_weight == -2
        assert g.legs == ((-2,), (-2, -2), (-2, -2, -2, -2))
        assert intersection_form(g).m == 8

    def test_2_3_7(self):
        m = validate_multiplicities((2, 3, 7))
        g = build_plumbing(normalize(solve_unnormalized(m)))
        assert g.center_weight == -1
        assert g.legs == ((-2,), (-3,), (-7,))

    def test_matches_the_fraction_expansion(self):
        # the integer-pair expansion against the Fraction loop, on reduced and
        # unreduced pairs with either sign of the denominator
        rng = random.Random(8)
        for _ in range(300):
            q = rng.randrange(1, 400)
            p = -rng.randrange(q + 1, 5000)
            k = rng.choice((1, 1, 3, -1, -4))
            cf = neg_cf(k * p, k * q)
            assert cf == fraction_neg_cf(p, q)
            assert Fraction(*plumbing._evaluate_cf(cf)) == Fraction(p, q)

    def test_malformed_expansions_and_legs_raise(self):
        for legs in [((),), ((-2,), (-3, -1)), ((-2, 0),)]:
            with pytest.raises(ValueError):
                PlumbingGraph(center_weight=-1, legs=legs)
        with pytest.raises(DivisionByZero):
            neg_cf(3, 0)

    def test_round_trip_is_checked(self, monkeypatch):
        monkeypatch.setattr(plumbing, "_evaluate_cf", lambda entries: (1, 1))
        with pytest.raises(CertificateViolation):
            neg_cf(13, -2)

    def test_2_3_13(self):
        m = validate_multiplicities((2, 3, 13))
        g = build_plumbing(normalize(solve_unnormalized(m)))
        assert g.center_weight == -1
        assert g.legs == ((-2,), (-3,), (-7, -2))


class TestTreeRank:
    """tree_rank counts the rank of verdict's form before any form exists."""

    def test_equals_the_rank_of_the_form(self):
        triples = [t for t in combinations(range(2, 40), 3) if all(gcd(x, y) == 1 for x, y in combinations(t, 2))]
        more = random_coprime_tuples(random.Random(5), 20, max_product=10**6, length=4, hi=60)
        for t in [t for name in sorted(CORPORA) for t in CORPORA[name]] + triples + more:
            assert tree_rank(t) == len(form_for(t).rows), t

    def test_counts_up_to_the_rank_limit(self):
        assert tree_rank((2, 3, 5329)) == 1 + sum(map(len, graph_for((2, 3, 5329)).legs)) == 891
        with pytest.raises(RankTooLarge):
            graph_for((2, 3, 6001))
        assert tree_rank((2, 3, 6001)) == 0

    @pytest.mark.parametrize("a", [(0, 3, 5), (-3, 5, 7), (2, 4, 5), (2, 3), (1, 2, 3), (), (5, -7, 9), (-2, -3, -5)])
    def test_is_zero_for_what_validation_refuses(self, a):
        assert tree_rank(a) == 0

    def test_many_fibers_are_weighed_without_a_form(self):
        primes = [p for p in range(2, 8000) if all(p % q for q in range(2, isqrt(p) + 1))]
        assert len(primes) >= 1000
        start = time.perf_counter()
        # n + 1 above the limit is refused before any arithmetic; 899 fibers
        # take one division and inverse each, and give a rank above it
        assert tree_rank(primes[:1000]) == tree_rank(primes[:899]) == tree_rank([2] * 1000) == 0
        assert tree_rank(primes[:40]) == len(form_for(primes[:40]).rows)
        assert time.perf_counter() - start < 1.0


class TestIntersectionForm:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_tree_form_equals_the_dense_route(self, name):
        # the O(m) rows from the tree against the form of the dense matrix
        for values in CORPORA[name]:
            g = graph_for(values)
            f, dense = intersection_form(g), form_from_matrix(dense_intersection_matrix(g))
            assert f == dense
            assert (f.rows, f.det, f.minors, f.levels) == (dense.rows, dense.det, dense.minors, dense.levels)
            assert _split_off_units(f, ()).levels == f.levels

    def test_2_3_7_matrix(self):
        f = form_for((2, 3, 7))
        assert dense(f) == [
            [-1, 1, 1, 1],
            [1, -2, 0, 0],
            [1, 0, -3, 0],
            [1, 0, 0, -7],
        ]
        assert abs(f.det) == 1

    def test_e8_unimodular_negative_definite(self):
        f = form_for((2, 3, 5))
        assert abs(f.det) == 1
        assert f.m == 8

    def test_single_vertex(self):
        f = intersection_form(PlumbingGraph(center_weight=-1, legs=()))
        assert dense(f) == [[-1]]
        assert f.det == -1

    def test_structure_counts(self):
        rng = random.Random(5)
        for t in random_coprime_tuples(rng, 30):
            g = graph_for(t)
            f = intersection_form(g)
            m, q = f.m, dense(f)
            assert m == 1 + sum(len(leg) for leg in g.legs)
            assert all(q[i][j] == q[j][i] for i in range(m) for j in range(m))
            ones = sum(
                1 for i in range(m) for j in range(i + 1, m) if q[i][j] == 1
            )
            assert ones == m - 1  # tree edges

    def test_determinant_matches_cofactor_expansion(self):
        for a in [(2, 3, 5), (2, 3, 7), (2, 3, 13), (3, 4, 5)]:
            f = form_for(a)
            if f.m <= 8:
                assert f.det == cofactor_det(dense(f))

    def test_from_matrix_det_matches_cofactor_expansion(self):
        forms = [
            [[-1]],
            [[-2, 1], [1, -2]],
            [[-3, 1, 1], [1, -3, 1], [1, 1, -3]],
            dense(form_for((2, 3, 5))),
            dense(complement_for((2, 3, 23))),
        ]
        for rows in forms:
            f = form_from_matrix(rows)
            assert f.det == cofactor_det(rows)

    def test_det_equals_h1_up_to_sign(self):
        rng = random.Random(6)
        for t in random_coprime_tuples(rng, 40):
            assert abs(form_for(t).det) == 1

    def test_from_matrix_definiteness(self):
        f = form_from_matrix([[-1, 0], [0, -1]])
        assert f.det == 1 and f.levels == (1, (1, 1), (1, 1), ((), ()))

    @pytest.mark.parametrize(
        "rows, reason",
        [
            ([[-1, 0]], "square"),
            ([[-1], [0, -1]], "square"),
            ([[-2, 1], [0, -2]], "symmetric"),
        ],
    )
    def test_from_matrix_rejects_malformed_matrices(self, rows, reason):
        with pytest.raises(ValueError, match=reason):
            form_from_matrix(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            # a mirrored duplicate column: set-wise symmetric, and read as Q_01 = 2
            # by the searches but eliminated with Q_01 = 1
            [[(0, -3), (1, 1), (1, 1)], [(0, 1), (0, 1), (1, -3)]],
            # unsorted, but otherwise a symmetric definite form
            [[(1, 1), (0, -2)], [(0, 1), (1, -2)]],
            [[(0, -2), (1, 0)], [(1, -2)]],
        ],
        ids=["duplicate", "unsorted", "zero"],
    )
    def test_rows_it_would_misread_are_rejected(self, rows):
        with pytest.raises(ValueError, match="strictly increasing columns"):
            IntersectionForm(rows=rows)

    @pytest.mark.parametrize("rows", [(), []])
    def test_a_rank_0_form_is_rejected(self, rows):
        # a plumbing always has its centre; the searches and the solve index row 0
        with pytest.raises(ValueError, match="rank at least 1"):
            IntersectionForm(rows=rows)
        with pytest.raises(ValueError, match="rank at least 1"):
            form_from_matrix(rows)


class TestInverseEntry:
    def test_known_values(self):
        assert dual_class(form_for((2, 3, 5))) == -30
        assert dual_class(form_for((2, 3, 7))) == -42
        f = intersection_form(PlumbingGraph(center_weight=-1, legs=()))
        assert dual_class(f) == -1

    def test_matches_product_randomized(self):
        rng = random.Random(7)
        for t in random_coprime_tuples(rng, 40):
            m = validate_multiplicities(t)
            assert dual_class(form_for(t)) == -m.product

    def test_star_solve_agrees_with_dense(self):
        for f in [form_for(a) for a in GAP_LADDER] + [complement_for((2, 3, 23))]:
            assert dual_class(f) == gauss_inverse(dense(f))[0][0]

    def test_large_leg_tuple(self):
        # b~ with a long all-(-2) chain; exercises the linear-time solver
        f = form_for((2, 3, 1661))
        assert abs(f.det) == 1
        assert dual_class(f) == -2 * 3 * 1661

    def test_solve_at_the_rank_limit(self):
        # rank 891, just under MAX_SEARCH_RANK: the largest form a verdict builds
        f = form_for((2, 3, 5329))
        assert f.m == 891
        assert dual_class(f) == -2 * 3 * 5329 == -31974

    # dual_class needs an invertible negative definite form; building the form
    # turns any other matrix away, before a solve is attempted
    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="negative definite"):
            form_from_matrix([[0]])

    def test_not_negative_definite_rejected(self):
        # indefinite with a zero diagonal, indefinite
        for rows in ([[0, 1], [1, 0]], [[1, 0], [0, -1]]):
            with pytest.raises(ValueError, match="negative definite"):
                form_from_matrix(rows)
